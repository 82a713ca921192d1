"""Independent reference implementations the tests hold the library to."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import compress, product

import numpy as np

from swnet import flows as fl
from swnet import prep
from swnet.driver import DistDecider
from swnet.errors import CapExceeded, InvalidParams, RankDeficient
from swnet.graphs import Digraph, GraphOracle, bfs_distances
from swnet.network import SRC, SwitchingNet, leaf_symbols, on_component, on_edge_mask
from swnet.spaneval import ResourceLedger


def bitdot(a: int, b: int) -> int:
    """Parity of the bitwise AND, the F_2 inner product of index bitstrings: (-1)^(a.b) is a Hadamard sign."""
    return bin(a & b).count("1") & 1


# -- the edge codec, one scalar at a time -----------------------------------------

def symbol_code(n: int, tag: int, payload: int = 0) -> int:
    """Integer code of symbol (tag, payload): (0, 0) is 0, (1, i) is 1+i, (2, j) is 1+n+j."""
    return 0 if tag == 0 else 1 + (tag - 1) * n + payload


def symbol_of(n: int, code: int) -> tuple[int, int]:
    """(tag, payload) of a symbol code; inverse of :func:`symbol_code`."""
    if code == 0:
        return 0, 0
    return (1, code - 1) if code <= n else (2, code - 1 - n)


def edge_id(n: int, codes: tuple, i: int) -> int:
    """Edge id of (sigma, i), sigma given as codes outermost first."""
    leaf = 0
    for c in codes:
        leaf = leaf * (2 * n + 1) + c
    return leaf * n + i


def edge_symbols(n: int, ell: int, e: int) -> tuple[tuple, int]:
    """Inverse of :func:`edge_id`: (sigma codes outermost first, i)."""
    leaf, i = divmod(e, n)
    codes = []
    for _ in range(ell):
        leaf, c = divmod(leaf, 2 * n + 1)
        codes.append(c)
    return tuple(reversed(codes)), i


def endpoints(st, e: int) -> tuple[int, int]:
    """(tail, head) vertex ids of edge e of ``st``: its leaf's source and sink i, swapped in a reversed leaf."""
    leaf, i = divmod(e, st.n)
    a, b = int(st._leaf_src_vid[leaf]), int(st._leaf_sink_vid[leaf, i])
    return (b, a) if st._leaf_rev[leaf] else (a, b)


def loop_divergence(net, theta) -> np.ndarray:
    """flows.divergence, one edge at a time."""
    out = np.zeros(net.vertex_count, dtype=np.asarray(theta).dtype)
    for e in range(net.edge_count):
        a, b = endpoints(net.struct, e)
        out[a] += theta[e]
        out[b] -= theta[e]
    return out


def assoc(n: int, ell: int, e: int, root: int, endpoint: int) -> tuple:
    """Associated multiset of G-vertices at an endpoint of edge e.

    endpoint=0 gives the leaf-source side, endpoint=1 the leaf-sink side
    (pre-reversal sides; the sink side is the source side plus the query
    target).  Walks the block path: entering block (1, i) keeps the current
    root and re-roots at v_i, entering block (2, j) adds v_j.  Returned as a
    sorted tuple of 1-indexed ids.
    """
    sigma, i = edge_symbols(n, ell, e)
    cur, aug = root, []
    for c in sigma:
        tag, payload = symbol_of(n, c)
        if tag == 1:
            aug.append(cur)
            cur = payload + 1
        elif tag == 2:
            aug.append(payload + 1)
    base = aug + [cur]
    if endpoint == 1:
        base.append(i + 1)
    return tuple(sorted(base))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_structure(n: int, ell: int) -> dict:
    """The depth-ell network's tables by recursive gluing and a union-find.

    Glues the 2n+1 children of every internal block pair by pair, resolves
    pre-vertices to ids in first-seen order, and decodes each leaf's
    reversal parity and label source symbol by symbol.  Keys name the
    ``NetStructure`` attributes they reproduce.
    """
    R = 2 * n + 1
    num_leaves = R**ell
    uf = _UnionFind(num_leaves * (n + 1))

    def leaf_of(path: tuple) -> int:
        idx = 0
        for c in path:
            idx = idx * R + c
        return idx

    def source_pre(path: tuple) -> int:
        return leaf_of(path + (0,) * (ell - len(path))) * (n + 1) + SRC

    def sink_pre(path: tuple, i: int) -> int:
        if len(path) == ell:
            return leaf_of(path) * (n + 1) + 1 + i
        return source_pre(path + (symbol_code(n, 2, i),))

    def glue(path: tuple):
        if len(path) == ell:
            return
        for i in range(n):
            uf.union(sink_pre(path + (0,), i), source_pre(path + (symbol_code(n, 1, i),)))
            for j in range(n):
                uf.union(sink_pre(path + (symbol_code(n, 1, i),), j), sink_pre(path + (symbol_code(n, 2, j),), i))
        for c in range(R):
            glue(path + (c,))

    glue(())

    roots = {}
    pre_to_vid = np.empty(num_leaves * (n + 1), dtype=np.int64)
    for pre in range(pre_to_vid.size):
        pre_to_vid[pre] = roots.setdefault(uf.find(pre), len(roots))

    rev = np.zeros(num_leaves, dtype=bool)
    lab = np.full(num_leaves, -1, dtype=np.int64)
    for leaf in range(num_leaves):
        parity, src = 0, -1
        for c in edge_symbols(n, ell, leaf * n)[0]:
            tag, payload = symbol_of(n, c)
            if tag == 2:
                parity ^= 1
            elif tag == 1:
                src = payload
        rev[leaf], lab[leaf] = bool(parity), src

    leaves = np.arange(num_leaves) * (n + 1)
    return {
        "vertex_count": len(roots),
        "source_vid": int(pre_to_vid[source_pre(())]),
        "sink_vids": np.array([pre_to_vid[sink_pre((), j)] for j in range(n)], dtype=np.int64),
        "_leaf_src_vid": pre_to_vid[leaves + SRC],
        "_leaf_sink_vid": np.stack([pre_to_vid[leaves + 1 + i] for i in range(n)], axis=1),
        "_leaf_rev": rev,
        "_leaf_label_src": lab,
    }


# -- dense cross-check builders, one column at a time ---------------------------

def mgs_orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Returns an orthonormal basis of the column span; raises RankDeficient
    if any input column drops out.
    """
    basis = []
    scale = max(np.linalg.norm(columns[:, k]) for k in range(columns.shape[1]))
    for k in range(columns.shape[1]):
        v = columns[:, k].astype(float).copy()
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm <= fl.RANK_TOL * scale:
            raise RankDeficient(f"column {k} is dependent on its predecessors")
        basis.append(v / norm)
    return np.column_stack(basis)


def mgs_projector(columns: np.ndarray) -> np.ndarray:
    Q = mgs_orthonormalize(columns)
    return Q @ Q.T


def loop_A_basis(net, oracle) -> tuple[np.ndarray, np.ndarray]:
    """flows.build_A_basis, one edge column at a time."""
    mask = on_edge_mask(net, oracle)
    E = net.edge_count
    cols = np.zeros((fl.full_dim(net), E + 2))
    for e in range(E):
        cols[2 * e, e] = 1.0
        cols[2 * e + 1, e] = -1.0 if mask[e] else 1.0
    s_slot, t_slot, ls_slot, rt_slot = 2 * E, 2 * E + 1, 2 * E + 2, 2 * E + 3
    cols[s_slot, E] = cols[ls_slot, E] = 1.0
    cols[rt_slot, E + 1] = cols[t_slot, E + 1] = 1.0
    return cols, mask


def loop_B_spanning(net, sink_j: int) -> np.ndarray:
    """flows.build_B_spanning from one flows.star_state per vertex and one symmetric column per edge."""
    cols = [fl.star_state(net, v, sink_j=sink_j) for v in range(net.vertex_count)]
    E = net.edge_count
    sym = np.zeros((fl.full_dim(net), E))
    for e in range(E):
        sym[2 * e, e] = 1.0
        sym[2 * e + 1, e] = 1.0
    return np.column_stack([np.column_stack(cols), sym])


def loop_fourier_circulation(n: int, ell: int, z: int, x: int) -> np.ndarray:
    """flows.fourier_circulation from two signed sums of unit flows, one block at a time."""

    def signed_sum(bits: int) -> np.ndarray:
        out = np.zeros(fl.unit_flow(n, ell - 1, 0).shape[0], dtype=np.int64)
        for j in range(n):
            out += (-1) ** bitdot(bits, j) * fl.unit_flow(n, ell - 1, j)
        return out

    tz, tx = signed_sum(z), signed_sum(x)
    block = tz.shape[0]
    out = np.zeros((2 * n + 1) * block, dtype=np.int64)
    if x == 0:
        out[:block] = n * tz
    for i in range(n):
        out[(1 + i) * block : (2 + i) * block] = (-1) ** bitdot(z, i) * tx
    for j in range(n):
        out[(1 + n + j) * block : (2 + n + j) * block] = (-1) ** bitdot(x, j) * tz
    return out


def routed_flow(n: int, ell: int, i: int, j: int) -> np.ndarray:
    """The unit source-to-sink-j flow routed through midpoint i.

    Scaled by n^(ell-1); requires ell >= 1.  These n^2 vectors average to
    the optimal flow and their signed combinations span the new
    circulations created at depth ell.
    """
    if ell < 1:
        raise InvalidParams("routed flows need depth >= 1")
    ti = fl.unit_flow(n, ell - 1, i)
    tj = fl.unit_flow(n, ell - 1, j)
    block = ti.shape[0]
    out = np.zeros((2 * n + 1) * block, dtype=np.int64)
    out[:block] = ti
    out[(1 + i) * block : (2 + i) * block] = tj
    out[(1 + n + j) * block : (2 + n + j) * block] = ti
    return out


def signed_flow_sum_norm_sq_recurrence(n: int, ell: int) -> Fraction:
    """flows.signed_flow_sum_norm_sq by its recurrence N(ell) = (N(ell-1) + N0(ell-1)) / n, N(0) = n.

    The tag-0 block cancels, so the signed sum splits into n tag-1 blocks
    carrying the signed sum one level down and n tag-2 blocks carrying the
    plain sum (flows.flow_sum_norm_sq), all scaled by 1/n.
    """
    norm = Fraction(n)
    for depth in range(ell):
        norm = (norm + fl.flow_sum_norm_sq(n, depth)) / n
    return norm


# -- layer sizes and the loader's prefix sums, by enumeration -------------------

def layer_size(n: int, tau: tuple) -> int:
    """Number of edges whose block path has tag pattern tau in {0,1,2}^ell."""
    zeros = sum(1 for t in tau if t == 0)
    return n ** (1 + len(tau) - zeros)


def prefix_sum_S_brute(n: int, ell: int, p: tuple) -> Fraction:
    """Enumeration oracle for prefix_sum_S."""
    total = Fraction(0)
    for tail in product((0, 1, 2), repeat=ell - len(p)):
        total += Fraction(1, layer_size(n, p + tail))
    return total


# -- flow vectors and the sum-of-flows state, leaf by leaf ------------------------

def leaf_decode_sum_of_flows(n: int, ell: int) -> np.ndarray:
    """prep.prepare_sum_of_flows with step 2 read off every decoded leaf.

    Loads the layer amplitudes as the preparer does, then decodes each leaf's
    tag pattern (network.leaf_symbols), takes its base-3 layer index and its
    layer size n^(1 + ell - zeros), and repeats amplitude / sqrt(size) over
    the leaf's n edges.
    """
    if ell == 0:
        return np.full(n, 1 / math.sqrt(n))
    spec = prep.AmplitudeSpec(m=ell, d=3, prefix_sum=lambda p: prep.prefix_sum_S(n, ell, p))
    layer_amp, _ = prep.grover_rudolph(spec)
    tags, _ = leaf_symbols(n, ell)
    t_index = tags @ 3 ** np.arange(ell - 1, -1, -1)
    layer_size = (n ** (1 + ell - (tags == 0).sum(axis=1))).astype(float)
    return np.repeat(layer_amp[t_index] / np.sqrt(layer_size), n)


def unit_flow_int64(n: int, ell: int, j: int) -> np.ndarray:
    """flows.unit_flow rebuilt uncached in int64.

    The depth-(ell-1) sum of flows comes from its closed form, n^z on an
    edge whose leaf has z zero tags, read off the decoded leaves.
    """
    out = np.zeros(n, dtype=np.int64)
    out[j] = 1
    for depth in range(1, ell + 1):
        tags, _ = leaf_symbols(n, depth - 1)
        prev_sum = np.repeat(n ** (tags == 0).sum(axis=1), n).astype(np.int64)
        block = out.shape[0]
        grown = np.zeros((2 * n + 1) * block, dtype=np.int64)
        grown[:block] = prev_sum
        for i in range(n):
            grown[(1 + i) * block : (2 + i) * block] = out
        grown[(1 + n + j) * block : (2 + n + j) * block] = prev_sum
        out = grown
    return out


# -- on-edge distances by breadth-first search ------------------------------------

def on_distances(net, on_mask) -> np.ndarray:
    """Breadth-first distance from the source over on-edges, -1 outside its component.

    The oracle for the witness path length 3^ell that spaneval.Evaluation
    proves for every reached sink.  Unweighted and undirected, level by level: the on-edges are grouped by
    endpoint into one neighbour array, each level gathers the neighbours of
    its frontier at once, and the unseen ones, each taken once, form the
    next frontier.
    """
    tail, head = (ends[on_mask] for ends in net.struct.edge_ends)
    nv = net.vertex_count
    ends = np.concatenate([tail, head])
    neighbours = np.concatenate([head, tail])[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=nv)
    first = np.cumsum(degree) - degree
    dist = np.full(nv, -1, dtype=np.int64)
    owner = np.empty(nv, dtype=np.int64)
    dist[net.source] = 0
    frontier, level = np.array([net.source]), 0
    while frontier.size:
        level += 1
        count = degree[frontier]
        start = np.cumsum(count) - count  # each frontier vertex's first place in the gather
        reached = neighbours[np.arange(count.sum()) + np.repeat(first[frontier] - start, count)]
        reached = reached[dist[reached] < 0]
        dist[reached] = level
        rank = np.arange(reached.size)
        owner[reached] = rank  # the last copy of each vertex owns it
        frontier = reached[owner[reached] == rank]
    return dist


# -- effective resistance by a sparse factorization of the whole on-subgraph ---

def splu_resistances(net, mask) -> np.ndarray:
    """Effective resistance from the source to every sink, nan outside its component.

    One sparse LU of the Laplacian of the source's on-component, grounded at
    the source (flows.grounded_laplacian), and one solve per reached sink:
    the |E|-sized route that network.boundary_laplacian reduces away.
    """
    from scipy.sparse.linalg import splu

    tail, head, reach = on_component(net, mask)
    unknowns, lap = fl.grounded_laplacian(tail, head, reach, net.source)
    out = np.full(net.n, np.nan)
    lu = splu(lap, permc_spec=fl.LAPLACIAN_ORDER)
    for j in range(net.n):
        t = net.sink(j)
        if reach[t]:
            k = int(np.searchsorted(unknowns, t))
            rhs = np.zeros(unknowns.size)
            rhs[k] = 1.0
            out[j] = lu.solve(rhs)[k]
    return out


# -- the network one level deeper, rebuilt top-down ----------------------------

class RebuiltNet:
    """Depth-(ell+1) network obtained by inflating each leaf to a depth-1 block.

    Independent of the bottom-up recursion in NetStructure: the depth-ell
    skeleton is kept, every leaf star is replaced in place by a two-level
    block with the same boundary, and only the new internal vertices are
    created.  Used to cross-check the construction.
    """

    def __init__(self, base: SwitchingNet):
        st = base.struct
        n, R = st.n, 2 * st.n + 1
        self.n = n
        self.ell = st.ell + 1
        self.root = base.root
        self.edge_count = st.edge_count * R

        # new internal vertices per old leaf: mid_i and pair_{i,j}
        nv = st.vertex_count
        self._mid = {}
        self._pair = {}
        for leaf in range(st.num_leaves):
            for i in range(n):
                self._mid[leaf, i] = nv
                nv += 1
            for i in range(n):
                for j in range(n):
                    self._pair[leaf, i, j] = nv
                    nv += 1
        self.vertex_count = nv
        self._st = st
        self.source = st.source_vid
        self.sink_vids = st.sink_vids

    def endpoints(self, e: int) -> tuple[int, int]:
        # e indexes Sigma^(ell+1) x [n] = (old leaf) x Sigma x [n]
        st = self._st
        n = self.n
        rest, k = divmod(e, n)
        leaf, c = divmod(rest, 2 * n + 1)
        old_src = int(st._leaf_src_vid[leaf])
        tag, pay = symbol_of(n, c)
        if tag == 0:
            a, b = old_src, self._mid[leaf, k]
        elif tag == 1:
            a, b = self._mid[leaf, pay], self._pair[leaf, pay, k]
        else:
            # block (2,j): source is the enclosing leaf's sink j; reversed
            a, b = self._pair[leaf, k, pay], int(st._leaf_sink_vid[leaf, pay])
        if st._leaf_rev[leaf]:
            a, b = b, a
        return a, b

    def query_label(self, e: int) -> tuple[int, int]:
        st = self._st
        n = self.n
        rest, k = divmod(e, n)
        leaf, c = divmod(rest, 2 * n + 1)
        tag, pay = symbol_of(n, c)
        if tag == 1:
            return pay + 1, k + 1
        src = st._leaf_label_src[leaf]
        a = self.root if src < 0 else int(src) + 1
        return a, k + 1


def rebuild_top_down(base: SwitchingNet) -> RebuiltNet:
    """Inflate every leaf block of ``base`` one level; see RebuiltNet."""
    return RebuiltNet(base)


def isomorphic(rebuilt: RebuiltNet, net: SwitchingNet) -> bool:
    """Structural equality of a rebuilt network and a built one over the shared edge id space.

    Checks edge counts, per-edge query labels, boundary identification, and
    that the endpoint pairs induce a consistent vertex bijection.  The built
    side is read from its arrays (``edge_ends``, ``label_arrays``).
    """
    if rebuilt.edge_count != net.edge_count or rebuilt.vertex_count != net.vertex_count:
        return False
    fwd, bwd = {}, {}

    def match(x, y):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
        return True

    if not match(rebuilt.source, net.source):
        return False
    for sa, sb in zip(rebuilt.sink_vids, net.struct.sink_vids):
        if not match(int(sa), int(sb)):
            return False
    tail, head = (x.tolist() for x in net.struct.edge_ends)
    label_from, label_to = (x.tolist() for x in net.struct.label_arrays(net.root))
    for e in range(net.edge_count):
        if rebuilt.query_label(e) != (label_from[e], label_to[e]):
            return False
        ta, ha = rebuilt.endpoints(e)
        if not (match(ta, tail[e]) and match(ha, head[e])):
            return False
    return True


# -- the bounded BFS over adjacency rows, and the exact decider query by query --------

def reach_within_rows(g: Digraph, root: int, L: int) -> tuple[np.ndarray, int]:
    """graphs._reach_within as it read adjacency rows before successor lists: the reference.

    A BFS bounded at L that reads each expanded row once as a Python list;
    each expanded vertex asks g.n minus the vertices reached before its row.
    """
    reached = [False] * g.n
    reached[root - 1] = True
    frontier = [root - 1]
    vertices = range(g.n)
    found, queries = 1, 0  # the vertices reached before the level; the rows' queries
    for _ in range(L):
        nxt = []
        for a in frontier:
            queries += g.n - found - len(nxt)
            for b in compress(vertices, g.adj[a].tolist()):
                if not reached[b]:
                    reached[b] = True
                    nxt.append(b)
        if not nxt:
            break
        found += len(nxt)
        frontier = nxt
    return np.array(reached), queries


def oracle_loop_decider() -> DistDecider:
    """driver.exact_bfs_decider as a BFS over GraphOracle rows, counted query by query.

    Each vertex at distance below L asks the oracle about every vertex
    not yet reached, in vertex order; the charge is n time steps, the
    oracle's count and one call.
    """

    def answer(g, u: int, v: int, L: int) -> tuple[bool, ResourceLedger]:
        if L < 1:
            raise InvalidParams("L must be >= 1")
        if not (1 <= u <= g.n and 1 <= v <= g.n):
            raise InvalidParams(f"vertex pair ({u}, {v}) out of range 1..{g.n}")
        oracle = GraphOracle(g)
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                if dist[a] >= L:
                    continue
                for b in range(1, g.n + 1):
                    if b != a and b not in dist and oracle.query(a, b):
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        charge = ResourceLedger(time_steps=float(g.n), oracle_queries=oracle.query_count, decider_calls=1)
        return v in dist and dist[v] <= L, charge

    return DistDecider(name="exact", answer=answer)


# -- the outer loop's questions, read from BFS distances ---------------------------

def dstcon_questions(g, s: int, t: int, L: int, frontiers: list | None = None) -> list[tuple[int, int, int]]:
    """The (u, v, k) questions driver.dstcon asks a decider that answers as BFS, in order.

    The rule, from BFS distances alone: for each offset j the frontier is a
    list, the source first and then each admitted layer in vertex order.
    A layer at exact distance k (k = j for the seed, L for a round) looks
    at every vertex v outside the frontier in vertex order: it asks
    "dist(u, v) <= k" of the members u in order up to the first yes, and
    when one says yes and k >= 2, "dist(u, v) <= k - 1" the same way.  v is
    admitted when its distance from the frontier is exactly k, and an
    admission past the guard n/L abandons the offset.  The first offset
    that completes its n // L rounds asks "dist(u, t) <= L" of its members
    unless t is one.  When ``frontiers`` is a list it receives, per
    question, the frontier (a tuple) the question was asked of.
    """
    dist = {u: bfs_distances(g, u) for u in range(1, g.n + 1)}
    questions = []

    def ask_members(S, v, k) -> None:
        for u in S:
            questions.append((u, v, k))
            if frontiers is not None:
                frontiers.append(tuple(S))
            if dist[u][v - 1] <= k:
                return

    def layer(S, k):
        new = []
        for v in range(1, g.n + 1):
            if v in S:
                continue
            d = min(dist[u][v - 1] for u in S)
            ask_members(S, v, k)
            if d <= k and k >= 2:
                ask_members(S, v, k - 1)
            if d == k:
                if len(S) + len(new) + 1 > g.n / L + 1:
                    return None
                new.append(v)
        return new

    for j in range(L):
        S = [s]
        seed = layer(S, j) if j else []
        if seed is None:
            continue
        S += seed
        for _ in range(g.n // L):
            new = layer(S, L)
            if new is None:
                break
            S += new
        else:
            if t not in S:
                ask_members(S, t, L)
            return questions
    return questions


# -- the pebbling game's reach, by exhaustive configuration search --------------

def reachable_configs(
    g: Digraph, start: int, max_pebbles: int, cap: int = 10**6
) -> set[frozenset]:
    """All configurations reachable from {start} with at most max_pebbles.

    Exhaustive BFS over the configuration graph; the independent oracle
    for the distance bounds.  Raises CapExceeded past ``cap`` states.
    """
    if max_pebbles < 1:
        raise InvalidParams("need at least one pebble")
    first = frozenset({start})
    seen = {first}
    queue = deque([first])
    while queue:
        config = queue.popleft()
        for v in config:
            for w in range(1, g.n + 1):
                if not g.has_edge(v, w):
                    continue
                nxt = None
                if w in config:
                    nxt = config - {w}
                elif len(config) < max_pebbles:
                    nxt = config | {w}
                if nxt is not None and nxt not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"more than {cap} configurations")
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def max_pebbled_distance(configs, dist) -> int:
    """Largest BFS distance (array indexed by vertex-1) of any pebbled vertex."""
    best = 0
    for config in configs:
        for v in config:
            d = dist[v - 1]
            if d != float("inf"):
                best = max(best, int(d))
    return best


def max_pair_distance(configs, start: int, dist) -> int:
    """Largest distance of v over reachable two-pebble configs {start, v}."""
    best = 0
    for config in configs:
        if len(config) == 2 and start in config:
            (v,) = config - {start}
            if dist[v - 1] != float("inf"):
                best = max(best, int(dist[v - 1]))
    return best
