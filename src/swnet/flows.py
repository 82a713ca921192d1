"""Flows, circulations, and the cut-space algebra of a switching network.

State conventions
-----------------
The full state space of a network has dimension 2|E| + 4: two directed
slots per edge plus the four boundary slots s, t, ls ("into the source")
and rt ("out of the sink").  A flow theta, a real value per edge measured
along each edge's left-to-right orientation, embeds as

    sum_e theta(e) (|fwd,e> - |bwd,e>)  - theta(s)|ls> - theta(t)|rt>,

the last two terms only when boundary conservation is wanted.

Most identities here live in the antisymmetric edge subspace, so vectors
are usually held in a reduced representation of dimension |E| + 4: one
coordinate per edge equal to sqrt(2) * theta(e) (so Euclidean inner
products agree with the full space) followed by (s, t, ls, rt).

Exact arithmetic
----------------
The recursively defined basis flows have rational entries with denominator
n^ell.  ``unit_flow`` and friends return integer vectors scaled by n^ell
(or n^(ell-1) for the circulations), so divergence and norm
identities can be checked exactly; closed forms are ``Fraction`` values.
The unit flows and their sums are int32: the unit flows are nonnegative and
carry at most n^ell on any edge together, so a sum weighted by a row of the
sign table (entries at most n - 1 in absolute value) stays below n^(ell+1)
<= (2n+1)^ell * n = |E| <= ``MAX_NETWORK_EDGES`` < 2^31, which ``unit_flow``
checks before it allocates.  The circulations are int64.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import Disconnected, InvalidParams, RankDeficient, ZeroZ
from .network import SwitchingNet, check_edge_budget, on_component

# -- reduced-representation layout -------------------------------------------

S_SLOT, T_SLOT, LS_SLOT, RT_SLOT = 0, 1, 2, 3  # offsets after the |E| edge coords


# -- integer-exact recursive flow states --------------------------------------

def _frozen(v: np.ndarray) -> np.ndarray:
    """``v`` made read-only: the cached vectors are shared by every caller."""
    v.flags.writeable = False
    return v


@lru_cache(maxsize=64)
def _sign_table(n: int) -> np.ndarray:
    """The circulations' sign rows 0..n-1: orthogonal, row 0 all ones, as the basis needs; read-only int64.

    At a power of two the Sylvester-Hadamard rows (-1)^(x.j), as the preparers
    apply them; otherwise the Helmert rows: row k is k ones, then -k, then zeros.
    """
    if n & (n - 1) == 0:
        return _frozen(reduce(np.kron, [np.array([[1, 1], [1, -1]])] * (n.bit_length() - 1), np.ones((1, 1), int)))
    table = np.tril(np.ones((n, n), dtype=np.int64), -1) - np.diag(np.arange(n))
    table[0] = 1
    return _frozen(table)


def _signs(x: int, n: int) -> np.ndarray:
    """Row x of the sign table: (-1)^(x.j) for j = 0..n-1 at a power of two."""
    return _sign_table(n)[x]


# The flow caches are bounded by key count.  verify-dense, the only workload
# that reads flows, holds 109 unit flows (every sink at (16, 0..3), (8, 0..4)
# and its dense cases), 58 MiB as int32 (116 MiB as int64), and fewer than 10
# keys in each norm cache.
@lru_cache(maxsize=64)
def _sum_unit_flows(n: int, ell: int) -> np.ndarray:
    """sum_j of the optimal unit flows, scaled by n^ell; read-only int32.

    Layer-uniform: the entry on an edge whose block path has z zero tags is
    n^(ell+1) / |E_tau| = n^z.
    """
    check_edge_budget(n, ell)
    if ell == 0:
        return _frozen(np.ones(n, dtype=np.int32))
    prev = _sum_unit_flows(n, ell - 1)
    # block 0 carries n * sum(ell-1), blocks (1,i) and (2,j) each sum(ell-1)
    return _frozen(np.concatenate([n * prev, np.tile(prev, 2 * n)]))


@lru_cache(maxsize=128)
def unit_flow(n: int, ell: int, j: int) -> np.ndarray:
    """Optimal unit flow from the source to sink j, scaled by n^ell; read-only int32.

    Depth 0 sends one unit down edge j.  At depth ell the flow spreads
    uniformly over the n midpoints i: block 0 carries the flow to midpoint
    i, block (1,i) carries it onward to j, and block (2,j) returns it to
    the global sink, each block reusing the depth-(ell-1) optimal flows.
    Only the edge part is returned (no boundary slots).
    """
    if not 0 <= j < n:
        raise InvalidParams(f"sink index {j} out of range")
    check_edge_budget(n, ell)
    if ell == 0:
        v = np.zeros(n, dtype=np.int32)
        v[j] = 1
        return _frozen(v)
    prev_sum = _sum_unit_flows(n, ell - 1)  # n^ell scale
    prev_j = unit_flow(n, ell - 1, j)  # n^(ell-1) scale
    out = np.zeros((2 * n + 1, prev_j.shape[0]), dtype=np.int32)
    out[0] = prev_sum
    out[1 : n + 1] = prev_j
    out[1 + n + j] = prev_sum
    return _frozen(out.reshape(-1))


def fourier_circulation(n: int, ell: int, z: int, x: int) -> np.ndarray:
    """Signed sum over routed flows: sum_{j,i} _signs(x, n)[j] _signs(z, n)[i] p_ij.

    p_ij is the unit flow to sink j through midpoint i.  Scaled by
    n^(ell-1).  A circulation for every z != 0; pairwise orthogonal over
    (z, x).  At a power of two the sign is (-1)^(x.j + z.i).
    """
    if z == 0:
        raise ZeroZ("z must be a nonzero bitstring index")
    if not (0 < z < n and 0 <= x < n):
        raise InvalidParams(f"(z, x) = ({z}, {x}) is not a pair of sign rows 1..{n - 1}, 0..{n - 1}")
    return _circulations(n, ell, np.array([z]), np.array([x]))[0, 0]


def circulation_matrix(n: int, ell: int) -> np.ndarray:
    """Every fourier_circulation(n, ell, z, x) as a row, z = 1..n-1 outer, x = 0..n-1 inner."""
    return _circulations(n, ell, np.arange(1, n), np.arange(n)).reshape((n - 1) * n, -1)


def _circulations(n: int, ell: int, zs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """fourier_circulation(n, ell, z, x) at every z in zs and x in xs, as a (|zs|, |xs|, |E|) array.

    Integer-exact: with s_b = _signs(b, n) and S[b] = sum_j s_b[j]
    unit_flow(n, ell - 1, j), circulation (z, x) holds n S[z] in block 0
    when x = 0, s_z[i] S[x] in block (1,i) and s_x[j] S[z] in block (2,j).
    """
    if ell < 1:
        raise InvalidParams("circulations appear at depth >= 1")
    check_edge_budget(n, ell)
    sz, sx = (np.stack([_signed_unit_flow_sum(n, ell - 1, b) for b in bits]) for bits in (zs, xs))
    sign_z, sign_x = _sign_table(n)[zs], _sign_table(n)[xs]
    out = np.zeros((zs.size, xs.size, 2 * n + 1, sz.shape[1]), dtype=np.int64)
    out[:, xs == 0, 0] = n * sz[:, None]
    np.multiply(sign_z[:, None, :, None], sx[None, :, None, :], out=out[:, :, 1 : n + 1])
    np.multiply(sign_x[None, :, :, None], sz[:, None, None, :], out=out[:, :, n + 1 :])
    return out.reshape(zs.size, xs.size, -1)


def _signed_unit_flow_sum(n: int, ell: int, x: int) -> np.ndarray:
    """sum_j _signs(x, n)[j] unit_flow(n, ell, j), accumulated in place in int32."""
    out = np.zeros(unit_flow(n, ell, 0).shape[0], dtype=np.int32)
    for j, sign in enumerate(_signs(x, n).tolist()):
        if sign == 1:
            out += unit_flow(n, ell, j)
        elif sign:  # -1, or the -k a Helmert row k holds at j = k
            out -= unit_flow(n, ell, j) if sign == -1 else -sign * unit_flow(n, ell, j)
    return out


def flow_state(net: SwitchingNet, j: int) -> np.ndarray:
    """Optimal unit flow to sink j in the reduced representation (float).

    Edge coordinates are sqrt(2) * theta(e), with -1 on ls and +1 on rt so
    that divergence is conserved at the boundary too.
    """
    n, ell, E = net.n, net.ell, net.edge_count
    out = np.zeros(E + 4)
    theta = out[:E]
    np.divide(unit_flow(n, ell, j), float(n) ** ell, out=theta)
    theta *= np.sqrt(2.0)
    out[E + LS_SLOT] = -1.0
    out[E + RT_SLOT] = +1.0
    return out


# -- closed forms --------------------------------------------------------------

def flow_sum_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of sum_j unit_flow(j) (true scale): n^2 (n+2)^ell / n^(ell+1)."""
    return Fraction(n**2 * (n + 2) ** ell, n ** (ell + 1))


def signed_flow_sum_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of sum_j (-1)^(x.j) unit_flow(j) for any nonzero x: n ((n+2)^ell + n) / (n^ell (n+1)).

    By symmetry the value does not depend on which nonzero x (a Hadamard
    row, n a power of two) is used.  The tag-0 block cancels, so the sum
    splits into n tag-1 blocks carrying the signed sum one level down and n
    tag-2 blocks carrying the plain sum, all scaled by 1/n; the closed form
    solves that recurrence, N(ell) = (N(ell-1) + N0(ell-1)) / n with
    N(0) = n, exactly for every n, including n = 2.
    """
    return Fraction(n * ((n + 2) ** ell + n), n**ell * (n + 1))


def flow_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of a single optimal unit flow: (2(n+2)^ell + n - 1) / (n^ell (n+1))."""
    return Fraction(2 * (n + 2) ** ell + n - 1, n**ell * (n + 1))


# -- divergence and optimal flows ----------------------------------------------

def divergence(net: SwitchingNet, theta: np.ndarray) -> np.ndarray:
    """Per-vertex net outflow of an edge function (any numeric dtype)."""
    theta = np.asarray(theta)
    tail, head = net.struct.edge_ends
    out = np.zeros(net.vertex_count, dtype=theta.dtype)
    np.add.at(out, tail, theta)
    np.subtract.at(out, head, theta)
    return out


def grounded_laplacian(tail: np.ndarray, head: np.ndarray, reach: np.ndarray, ground: int):
    """The Laplacian of one component of the edges (tail, head), one vertex grounded.

    ``reach`` marks the component and ``ground`` is one of its vertices.
    Returns (unknowns, lap): the component's other vertices in increasing
    id order, and the CSC Laplacian restricted to them, built by one
    constructor from the off-diagonal -1 pairs and the degree diagonal
    (duplicate entries, as from parallel edges, are summed).
    """
    # scipy is imported here, not with the module: only optimal_flow_lsq, the
    # independent oracle, solves with it, so decisions, the preparers and the
    # dump commands skip its ~30 MB
    from scipy import sparse

    unknowns = np.flatnonzero(reach)
    unknowns = unknowns[unknowns != ground]
    index = np.full(reach.size, -1, dtype=np.int64)  # -1: the ground or outside the component
    index[unknowns] = np.arange(unknowns.size)
    a, b = index[tail], index[head]
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b])
    data = np.repeat([-1.0, 1.0], 2 * a.size)
    keep = (rows >= 0) & (cols >= 0)
    lap = sparse.csc_matrix((data[keep], (rows[keep], cols[keep])), shape=(unknowns.size, unknowns.size))
    return unknowns, lap


#: a minimum-degree order on A^T + A: the grounded Laplacian is symmetric, and
#: this order solved 1.5-5x faster than the default column order at (16, 2)
#: and (16, 3)
LAPLACIAN_ORDER = "MMD_AT_PLUS_A"


def optimal_flow_lsq(net: SwitchingNet, on_mask: np.ndarray, j: int) -> np.ndarray:
    """Minimum-energy unit flow from source to sink j over the on-subgraph.

    The independent oracle for the recursive flow construction.  By
    Thomson's principle the minimum-energy unit flow is the electrical
    flow: ground sink j, solve the sparse Laplacian of the source's
    on-component for the vertex potentials, and give each on-edge its
    potential drop.  Its energy is the source-sink effective resistance.
    Raises Disconnected when no unit flow exists.  Returns a float edge
    vector over all edges (zero on off-edges).
    """
    from scipy.sparse.linalg import spsolve

    sink = net.sink(j)
    tail, head, reach = on_component(net, on_mask)
    if not reach[sink]:
        raise Disconnected(f"source and sink {j} are not connected in the on-subgraph")
    unknowns, lap = grounded_laplacian(tail, head, reach, sink)
    phi = np.zeros(net.vertex_count)
    phi[unknowns] = spsolve(lap, (unknowns == net.source).astype(float), permc_spec=LAPLACIAN_ORDER)
    out = np.zeros(net.edge_count)
    out[on_mask] = phi[tail] - phi[head]
    return out


# -- star states and working bases (full 2|E|+4 representation) -----------------

def full_dim(net: SwitchingNet) -> int:
    return 2 * net.edge_count + 4


def _full_slots(net: SwitchingNet):
    E = net.edge_count
    return 2 * E, 2 * E + 1, 2 * E + 2, 2 * E + 3  # s, t, ls, rt


def reduced_to_full(net: SwitchingNet, v: np.ndarray) -> np.ndarray:
    """Embed a reduced vector, or each column of a reduced matrix, into the full space (norm preserving)."""
    E = net.edge_count
    out = np.zeros((full_dim(net),) + v.shape[1:])
    out[0 : 2 * E : 2] = v[:E] / np.sqrt(2.0)
    out[1 : 2 * E + 1 : 2] = -v[:E] / np.sqrt(2.0)
    out[2 * E :] = v[E:]
    return out


def star_state(net: SwitchingNet, v: int, sink_j: int | None = None) -> np.ndarray:
    """Signed incidence star of vertex v in the full representation.

    (|fwd,e> - |bwd,e>)/2 per outgoing edge and the negative per incoming.
    When v is the source (or sink_j is given and v is that sink) the
    matching boundary slot is added, as the cut-space basis requires.
    """
    if not 0 <= v < net.vertex_count:
        raise InvalidParams(f"vertex id {v} out of range 0..{net.vertex_count - 1}")
    tail, head = net.struct.edge_ends
    E = net.edge_count
    out = np.zeros(full_dim(net))
    for e in np.flatnonzero((tail == v) | (head == v)):
        sgn = 0.5 if tail[e] == v else -0.5
        out[2 * e] += sgn
        out[2 * e + 1] -= sgn
    if v == net.source:
        out[2 * E + 2] += 1.0  # the ls slot
    if sink_j is not None and v == net.sink(sink_j):
        out[2 * E + 3] += 1.0  # the rt slot
    return out


def build_A_basis(net: SwitchingNet, oracle) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal basis of the input-dependent space A(x), unnormalized.

    One column per edge, |fwd,e> + (-1)^(x_e) |bwd,e>, plus |s> + |ls> and
    |rt> + |t>.  Consumes one oracle query per edge.  Returns (columns,
    on_mask).
    """
    from .network import on_edge_mask

    mask = on_edge_mask(net, oracle)
    E = net.edge_count
    e = np.arange(E)
    cols = np.zeros((full_dim(net), E + 2))
    cols[2 * e, e] = 1.0
    cols[2 * e + 1, e] = np.where(mask, -1.0, 1.0)
    s_slot, t_slot, ls_slot, rt_slot = _full_slots(net)
    cols[s_slot, E] = cols[ls_slot, E] = 1.0
    cols[rt_slot, E + 1] = cols[t_slot, E + 1] = 1.0
    return cols, mask


def build_B_spanning(net: SwitchingNet, sink_j: int) -> np.ndarray:
    """Spanning set of the input-independent space B, unnormalized columns.

    Cut-space vectors (one per vertex, boundary-augmented at the source and
    at sink_j) followed by the symmetric edge vectors |fwd,e> + |bwd,e>.
    The |V| + |E| columns are independent.  The |ls> + |rt> generator that
    also belongs to B is omitted: edge terms of the signed stars cancel
    pairwise across each edge, so the stars already sum to exactly it.
    """
    E, V = net.edge_count, net.vertex_count
    tail, head = net.struct.edge_ends
    e = np.arange(E)
    mat = np.zeros((full_dim(net), V + E))
    # the head terms go first so that a self-loop keeps its tail term, as in
    # star_state; no network built here has one
    mat[2 * e, head] = -0.5
    mat[2 * e + 1, head] = 0.5
    mat[2 * e, tail] = 0.5
    mat[2 * e + 1, tail] = -0.5
    _, _, ls_slot, rt_slot = _full_slots(net)
    mat[ls_slot, net.source] += 1.0
    mat[rt_slot, net.sink(sink_j)] += 1.0
    mat[2 * e, V + e] = mat[2 * e + 1, V + e] = 1.0
    return mat


def build_Bperp_basis(net: SwitchingNet, sink_j: int) -> np.ndarray:
    """Orthogonal basis of the complement of B, as reduced-rep columns.

    Block-embedded circulations at every depth, the boundary-augmented
    optimal unit flow to sink_j, and the bare |s>, |t> states.  Cardinality
    is |E| + 4 - |V|.  Columns are normalized.  Any n: see ``_sign_table``.
    Each depth's circulations are built once, as one matrix, and written
    into a block-diagonal view of one array with a member per row.  Every
    member is divided by the norm of its own full-length row: the BLAS dot
    behind that norm sums by position, so one circulation's norm can differ
    in the last bit between blocks, and this keeps the bytes of a basis
    normalized one embedded column at a time.
    """
    n, ell = net.n, net.ell
    E = net.edge_count
    expect = E + 4 - net.vertex_count
    members = 3 + sum((2 * n + 1) ** (ell - lp) * (n - 1) * n for lp in range(1, ell + 1))
    if members != expect:
        raise RankDeficient(f"complement basis has {members} members, expected {expect}")
    rows = np.zeros((expect, E + 4))
    row = 0
    for lp in range(1, ell + 1):
        sub_E = (2 * n + 1) ** lp * n
        scale = float(n) ** (lp - 1)
        circs = circulation_matrix(n, lp).astype(float) / scale
        n_blocks = E // sub_E  # number of depth-lp blocks = (2n+1)^(ell-lp)
        k = circs.shape[0]
        blocks = rows[row : row + n_blocks * k, : n_blocks * sub_E].reshape(n_blocks, k, n_blocks, sub_E)
        diag = np.arange(n_blocks)
        blocks[diag, :, diag, :] = np.sqrt(2.0) * circs
        row += n_blocks * k
    rows[row] = flow_state(net, sink_j)
    rows[row + 1, E + S_SLOT] = 1.0
    rows[row + 2, E + T_SLOT] = 1.0
    rows /= np.sqrt([r @ r for r in rows])[:, None]
    return np.ascontiguousarray(rows.T)


# -- orthonormalization and projectors ------------------------------------------

RANK_TOL = 1e-10


def orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, from one Householder QR.

    Column k is dependent on its predecessors when |R_kk|, its distance
    from their span, is at most RANK_TOL times the largest column norm, and
    then RankDeficient is raised; the columns of Q are signed so that R has
    a positive diagonal, as Gram-Schmidt would give.
    """
    columns = np.asarray(columns, dtype=float)
    tol = RANK_TOL * np.linalg.norm(columns, axis=0).max(initial=0.0)
    q, r = np.linalg.qr(columns)
    diag = np.diagonal(r)
    # a column past the row count is dependent whatever its R entry
    dependent = np.append(np.flatnonzero(np.abs(diag) <= tol), columns.shape[0])
    if dependent[0] < columns.shape[1]:
        raise RankDeficient(f"column {dependent[0]} is dependent on its predecessors")
    return q * np.sign(diag)


def projector(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector Q Q^T onto the column span, Q from :func:`orthonormalize`."""
    Q = orthonormalize(columns)
    return Q @ Q.T
