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
(or n^(ell-1) for the routed/circulation families), so divergence and norm
identities can be checked exactly; closed forms are ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import Disconnected, InvalidParams, RankDeficient, ZeroZ
from .network import SwitchingNet

# -- reduced-representation layout -------------------------------------------

S_SLOT, T_SLOT, LS_SLOT, RT_SLOT = 0, 1, 2, 3  # offsets after the |E| edge coords


def reduced_dim(edge_count: int) -> int:
    return edge_count + 4


def boundary_index(edge_count: int, slot: int) -> int:
    return edge_count + slot


# -- integer-exact recursive flow states --------------------------------------

def _bitdot(a: int, b: int) -> int:
    """Parity of the bitwise AND; the F_2 inner product of index bitstrings."""
    return bin(a & b).count("1") & 1


@lru_cache(maxsize=None)
def _sum_unit_flows(n: int, ell: int) -> tuple:
    """sum_j of the optimal unit flows, scaled by n^ell; integer tuple.

    Layer-uniform: the entry on an edge whose block path has z zero tags is
    n^(ell+1) / |E_tau| = n^z.
    """
    if ell == 0:
        return tuple([1] * n)
    prev = _sum_unit_flows(n, ell - 1)
    out = [n * c for c in prev]  # block 0 carries n * sum(ell-1)
    for _ in range(2 * n):  # blocks (1,i) and (2,j) each carry sum(ell-1)
        out.extend(prev)
    return tuple(out)


@lru_cache(maxsize=None)
def unit_flow(n: int, ell: int, j: int) -> np.ndarray:
    """Optimal unit flow from the source to sink j, scaled by n^ell.

    Depth 0 sends one unit down edge j.  At depth ell the flow spreads
    uniformly over the n midpoints i: block 0 carries the flow to midpoint
    i, block (1,i) carries it onward to j, and block (2,j) returns it to
    the global sink, each block reusing the depth-(ell-1) optimal flows.
    Only the edge part is returned (no boundary slots).
    """
    if not 0 <= j < n:
        raise InvalidParams(f"sink index {j} out of range")
    if ell == 0:
        v = np.zeros(n, dtype=np.int64)
        v[j] = 1
        return v
    prev_sum = np.array(_sum_unit_flows(n, ell - 1), dtype=np.int64)  # n^ell scale
    prev_j = unit_flow(n, ell - 1, j)  # n^(ell-1) scale
    block = prev_j.shape[0]
    out = np.zeros((2 * n + 1) * block, dtype=np.int64)
    out[:block] = prev_sum
    for i in range(n):
        out[(1 + i) * block : (2 + i) * block] = prev_j
    out[(1 + n + j) * block : (2 + n + j) * block] = prev_sum
    return out


def routed_flow(n: int, ell: int, i: int, j: int) -> np.ndarray:
    """The unit source-to-sink-j flow routed through midpoint i.

    Scaled by n^(ell-1); requires ell >= 1.  These n^2 vectors average to
    the optimal flow and their signed combinations span the new
    circulations created at depth ell.
    """
    if ell < 1:
        raise InvalidParams("routed flows need depth >= 1")
    ti = unit_flow(n, ell - 1, i)
    tj = unit_flow(n, ell - 1, j)
    block = ti.shape[0]
    out = np.zeros((2 * n + 1) * block, dtype=np.int64)
    out[:block] = ti
    out[(1 + i) * block : (2 + i) * block] = tj
    out[(1 + n + j) * block : (2 + n + j) * block] = ti
    return out


def fourier_circulation(n: int, ell: int, z: int, x: int) -> np.ndarray:
    """Signed sum over routed flows: sum_{j,i} (-1)^(x.j + z.i) routed(i, j).

    Scaled by n^(ell-1).  A circulation for every z != 0; pairwise
    orthogonal over (z, x).
    """
    if z == 0:
        raise ZeroZ("z must be a nonzero bitstring index")
    if ell < 1:
        raise InvalidParams("circulations appear at depth >= 1")
    tz = sum((-1) ** _bitdot(z, i) * unit_flow(n, ell - 1, i) for i in range(n))
    tx = sum((-1) ** _bitdot(x, j) * unit_flow(n, ell - 1, j) for j in range(n))
    block = tz.shape[0]
    out = np.zeros((2 * n + 1) * block, dtype=np.int64)
    if x == 0:
        out[:block] = n * tz
    for i in range(n):
        out[(1 + i) * block : (2 + i) * block] = (-1) ** _bitdot(z, i) * tx
    for j in range(n):
        out[(1 + n + j) * block : (2 + n + j) * block] = (-1) ** _bitdot(x, j) * tz
    return out


def flow_state(net: SwitchingNet, j: int, with_boundary: bool = True) -> np.ndarray:
    """Optimal unit flow to sink j in the reduced representation (float).

    Edge coordinates are sqrt(2) * theta(e); with_boundary adds -1 on ls
    and +1 on rt so that divergence is conserved at the boundary too.
    """
    n, ell = net.n, net.ell
    theta = unit_flow(n, ell, j).astype(float) / float(n) ** ell
    out = np.zeros(reduced_dim(net.edge_count))
    out[: net.edge_count] = np.sqrt(2.0) * theta
    if with_boundary:
        out[boundary_index(net.edge_count, LS_SLOT)] = -1.0
        out[boundary_index(net.edge_count, RT_SLOT)] = +1.0
    return out


# -- closed forms --------------------------------------------------------------

def layer_size(n: int, tau: tuple) -> int:
    """Number of edges whose block path has tag pattern tau in {0,1,2}^ell."""
    zeros = sum(1 for t in tau if t == 0)
    return n ** (1 + len(tau) - zeros)


def sum_inverse_layers(n: int, ell: int) -> Fraction:
    """sum over tag patterns tau of 1/|E_tau|; equals (n+2)^ell / n^(ell+1)."""
    return Fraction((n + 2) ** ell, n ** (ell + 1))


def flow_sum_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of sum_j unit_flow(j) (true scale): n^2 (n+2)^ell / n^(ell+1)."""
    return Fraction(n**2 * (n + 2) ** ell, n ** (ell + 1))


@lru_cache(maxsize=None)
def signed_flow_sum_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of sum_j (-1)^(x.j) unit_flow(j) for any nonzero x.

    By symmetry the value does not depend on which nonzero x is used.  The
    tag-0 block cancels, so the sum splits into n tag-1 blocks carrying the
    signed sum one level down and n tag-2 blocks carrying the plain sum,
    all scaled by 1/n:

        N(ell) = (N(ell-1) + N0(ell-1)) / n,      N(0) = n.

    The recurrence is exact for every n, including n = 2.
    """
    if ell == 0:
        return Fraction(n)
    return (signed_flow_sum_norm_sq(n, ell - 1) + flow_sum_norm_sq(n, ell - 1)) / n


def signed_flow_sum_norm_sq_closed(n: int, ell: int) -> Fraction:
    """Closed form of the same norm: ((n+2)^ell + n) / (n^(ell-1) (n+1))."""
    return Fraction(n * ((n + 2) ** ell + n), n**ell * (n + 1))


def flow_norm_sq(n: int, ell: int) -> Fraction:
    """Squared norm of a single optimal unit flow: (2(n+2)^ell + n - 1) / (n^ell (n+1))."""
    return Fraction(2 * (n + 2) ** ell + n - 1, n**ell * (n + 1))


# -- divergence and optimal flows ----------------------------------------------

def divergence(net: SwitchingNet, theta: np.ndarray) -> np.ndarray:
    """Per-vertex net outflow of an edge function (any numeric dtype)."""
    st = net.struct
    out = np.zeros(st.vertex_count, dtype=np.asarray(theta).dtype)
    for e in range(st.edge_count):
        a, b = st.endpoints(e)
        out[a] += theta[e]
        out[b] -= theta[e]
    return out


def on_laplacian(net: SwitchingNet, on_mask: np.ndarray):
    """The on-subgraph's incidence and Laplacian, and the source's component.

    Returns (inc, lap, reach): inc is the CSR incidence matrix with one row
    per on-edge in edge-id order, +1 at its tail and -1 at its head; lap =
    inc^T inc is the CSR graph Laplacian over all vertices; reach marks the
    vertices connected to the source through on-edges.
    """
    # scipy is imported here, not with the module: the preparers, the dense
    # cross-checks and the dump commands never solve and skip its ~30 MB
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    on_ids = np.flatnonzero(on_mask)
    tail, head = (ends[on_ids] for ends in net.struct.edge_ends)
    rows = np.tile(np.arange(on_ids.size), 2)
    ones = np.ones(on_ids.size)
    inc = sparse.csr_matrix(
        (np.r_[ones, -ones], (rows, np.r_[tail, head])), shape=(on_ids.size, net.vertex_count)
    )
    lap = (inc.T @ inc).tocsr()
    _, comp = connected_components(lap, directed=False)
    return inc, lap, comp == comp[net.source]


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
    inc, lap, reach = on_laplacian(net, on_mask)
    if not reach[sink]:
        raise Disconnected(f"source and sink {j} are not connected in the on-subgraph")
    keep = np.flatnonzero(reach)
    keep = keep[keep != sink]
    phi = np.zeros(net.vertex_count)
    phi[keep] = spsolve(lap[keep][:, keep].tocsc(), (keep == net.source).astype(float), permc_spec=LAPLACIAN_ORDER)
    out = np.zeros(net.edge_count)
    out[on_mask] = inc @ phi
    return out


# -- star states and working bases (full 2|E|+4 representation) -----------------

def full_dim(net: SwitchingNet) -> int:
    return 2 * net.edge_count + 4


def _full_slots(net: SwitchingNet):
    E = net.edge_count
    return 2 * E, 2 * E + 1, 2 * E + 2, 2 * E + 3  # s, t, ls, rt


def reduced_to_full(net: SwitchingNet, v: np.ndarray) -> np.ndarray:
    """Embed a reduced vector into the full space (norm preserving)."""
    E = net.edge_count
    out = np.zeros(full_dim(net))
    out[0 : 2 * E : 2] = v[:E] / np.sqrt(2.0)
    out[1 : 2 * E + 1 : 2] = -v[:E] / np.sqrt(2.0)
    out[2 * E :] = v[E:]
    return out


def star_state(net: SwitchingNet, v: int, signed: bool = False, sink_j: int | None = None) -> np.ndarray:
    """Incidence star of vertex v in the full representation.

    Unsigned: |fwd,e> per outgoing edge plus |bwd,e> per incoming edge.
    Signed: (|fwd,e> - |bwd,e>)/2 outgoing and the negative incoming.
    When v is the source (or sink_j is given and v is that sink) the
    matching boundary slot is added, as the cut-space basis requires.
    """
    st = net.struct
    E = net.edge_count
    out = np.zeros(full_dim(net))
    for e in range(E):
        a, b = st.endpoints(e)
        if a != v and b != v:
            continue
        if not signed:
            out[2 * e if a == v else 2 * e + 1] += 1.0
        else:
            sgn = 0.5 if a == v else -0.5
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
    cols = np.zeros((full_dim(net), E + 2))
    for e in range(E):
        cols[2 * e, e] = 1.0
        cols[2 * e + 1, e] = -1.0 if mask[e] else 1.0
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
    cols = [
        star_state(net, v, signed=True, sink_j=sink_j) for v in range(net.vertex_count)
    ]
    E = net.edge_count
    sym = np.zeros((full_dim(net), E))
    for e in range(E):
        sym[2 * e, e] = 1.0
        sym[2 * e + 1, e] = 1.0
    mat = np.column_stack([np.column_stack(cols), sym])
    return mat


def build_Bperp_basis(net: SwitchingNet, sink_j: int) -> np.ndarray:
    """Orthogonal basis of the complement of B, as reduced-rep columns.

    Block-embedded circulations at every depth, the boundary-augmented
    optimal unit flow to sink_j, and the bare |s>, |t> states.  Cardinality
    is |E| + 4 - |V|.  Columns are normalized.
    """
    n, ell = net.n, net.ell
    E = net.edge_count
    cols = []
    for lp in range(1, ell + 1):
        sub_E = (2 * n + 1) ** lp * n
        scale = float(n) ** (lp - 1)
        circs = []
        for z in range(1, n):
            for x in range(n):
                c = fourier_circulation(n, lp, z, x).astype(float) / scale
                circs.append(c)
        n_blocks = E // sub_E  # number of depth-lp blocks = (2n+1)^(ell-lp)
        for b in range(n_blocks):
            for c in circs:
                col = np.zeros(reduced_dim(E))
                col[b * sub_E : (b + 1) * sub_E] = np.sqrt(2.0) * c
                cols.append(col / np.linalg.norm(col))
    theta = flow_state(net, sink_j, with_boundary=True)
    cols.append(theta / np.linalg.norm(theta))
    for slot in (S_SLOT, T_SLOT):
        col = np.zeros(reduced_dim(E))
        col[boundary_index(E, slot)] = 1.0
        cols.append(col)
    out = np.column_stack(cols)
    expect = E + 4 - net.vertex_count
    if out.shape[1] != expect:
        raise RankDeficient(
            f"complement basis has {out.shape[1]} members, expected {expect}"
        )
    return out


# -- orthonormalization, projectors, complements ---------------------------------

RANK_TOL = 1e-10


def orthonormalize(columns: np.ndarray, require_full_rank: bool = True) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Returns an orthonormal basis of the column span.  With
    require_full_rank, raises RankDeficient if any input column drops out.
    """
    basis = []
    scale = max(np.linalg.norm(columns[:, k]) for k in range(columns.shape[1]))
    for k in range(columns.shape[1]):
        v = columns[:, k].astype(float).copy()
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm <= RANK_TOL * scale:
            if require_full_rank:
                raise RankDeficient(f"column {k} is dependent on its predecessors")
            continue
        basis.append(v / norm)
    return np.column_stack(basis)


def projector(columns: np.ndarray, require_full_rank: bool = True) -> np.ndarray:
    """Orthogonal projector onto the span of the given columns."""
    Q = orthonormalize(columns, require_full_rank=require_full_rank)
    return Q @ Q.T


def complement_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    dim = columns.shape[0]
    Q = orthonormalize(columns, require_full_rank=False)
    rank = Q.shape[1] if Q.size else 0
    if rank == dim:
        return np.zeros((dim, 0))
    resid = np.eye(dim) - Q @ Q.T if rank else np.eye(dim)
    u, s, _ = np.linalg.svd(resid)
    return u[:, s > 0.5]  # residual is a projector: singular values are 0 or 1
