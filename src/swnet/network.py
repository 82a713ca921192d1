"""The recursive switching network for bounded-length directed reachability.

For a vertex count n >= 2 and depth ell, the network has edge set
Sigma^ell x [n] where Sigma is the alphabet

    {(0, 0)} | {(1, i) : i in [n]} | {(2, j) : j in [n]},      |Sigma| = 2n+1.

Depth 0 is a star: a source [u] joined to n sinks [u, v_i], edge i carrying
query label (u, v_i).  Depth ell is assembled from 2n+1 depth-(ell-1)
blocks: block 0 rooted at u, block (1,i) rooted at v_i with u appended to
every vertex tuple, and block (2,j) a copy rooted at u with v_j appended
and every edge orientation reversed.  Sinks and sources of adjacent blocks
are glued pairwise; the source of block (2,j) becomes global sink j.  The
reversal gives every edge a left-to-right orientation from the source side
toward the sinks.

Queried against a digraph G, edge (sigma, i) is on iff its query label is
an edge of G or has equal endpoints (those labels are constant-true
literals), and the source connects to sink j through on-edges iff v_j is
reachable from the root by a directed path of length at most 2^ell.

Structure (vertices, gluing, orientations) is root-independent, so one
``NetStructure`` is cached per (n, ell) and ``SwitchingNet`` binds a root.
It is built level by level from one gluing plan, :func:`_glue_plan`, which
says where a level places each child's boundary: each new outermost level
maps its children's vertices into its own, flips the leaves under a tag-2
child and hands a tag-1 child's payload to the leaves still labelled by
the root, in a few array operations per level.

``source_resistances`` follows the same recursion without building the
network: it Kron-reduces the on-subgraph onto each block's boundary, one
(n+1) x (n+1) Laplacian and one vector of on-classes per root type and
depth, and solves the top level over the source's component alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidParams
from .graphs import GraphOracle

SRC = 0  # local source slot of a leaf block; slots 1..n are its sinks

#: the most edges a network may have, checked in every decision mode.  The
#: largest decision it admits is (67, 2), 1.22M edges.  Only the exact and
#: spectral-dense routes build the structure, the mask and (exact) the
#: component labels: at G(67, p), seed 1, p in {0.05, 0.3, 1}, 0.09-0.24 s
#: and 63-124 MB of max RSS above the process's before them, of which the
#: structure is 0.04-0.06 s and 54 MB, 10 MB of it the cached level plan
#: (2-core x86, one BLAS thread, three runs each); the spectral route builds
#: none of them.  `swnet decide` (spectral) at L = 4 on G(67, p), seed 1,
#: takes 1.1 s, ru_maxrss 393-394 MB and VmPeak 483 MiB at p in
#: {0.3, 0.6, 1}, and 0.22 s and 112 MB at p = 0.05 (2-core x86, one BLAS
#: thread, one run each, wall time of the whole command).  On the denser
#: graphs that is mostly the top level's LU solve over the source's
#: component, up to 67 * 69 vertices.
#: The budget was set when a sparse LU found R, at 2.4 KB per edge under a
#: 3 GiB RLIMIT_AS
MAX_NETWORK_EDGES = 1_250_000


def check_edge_budget(n: int, ell: int) -> int:
    """The edge count (2n+1)^ell * n of the depth-ell network on n vertices.

    Counted in integer arithmetic, so no size overflows; raises
    InvalidParams above MAX_NETWORK_EDGES, before anything is allocated.
    """
    edges = (2 * n + 1) ** ell * n
    if edges > MAX_NETWORK_EDGES:
        raise InvalidParams(
            f"the depth-{ell} network on {n} vertices has {2 * n + 1}^{ell} * {n} edges, "
            f"above MAX_NETWORK_EDGES={MAX_NETWORK_EDGES}"
        )
    return edges


def leaf_symbols(n: int, ell: int, leaves: np.ndarray | list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(tags, payloads) of the given leaves of Sigma^ell (default every leaf), outermost symbol first.

    A symbol is coded as one integer in [0, R), R = 2n+1: (0, 0) is 0,
    (1, i) is 1+i and (2, j) is 1+n+j.  A leaf is the number whose base-R
    digits, most significant first, are the codes of its symbols, and edge
    (leaf, i) of Sigma^ell x [n] has id leaf * n + i.  Both arrays are
    (leaves, ell): entry [k, pos] is the tag and the payload of the k-th
    leaf's pos-th symbol (payload 0 under tag 0).
    """
    R = 2 * n + 1
    if leaves is None:
        leaves = np.arange(R**ell, dtype=np.int64)
    place = R ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    codes = np.asarray(leaves, dtype=np.int64)[:, None] // place % R
    tags = (codes > 0).astype(np.int8) + (codes > n)
    return tags, np.where(tags == 0, 0, (codes - 1) % n)


def component_labels(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's component in the graph with edges (a, b).

    Min-label propagation with pointer jumping: every label is a vertex of
    its own component no larger than itself; each round hooks the larger
    root of every edge under the smaller one, then follows labels until each
    points at a root, and stops when every edge joins equal labels.  It
    labels the on-subgraph (:func:`on_component`) and one level's glued
    vertices in the resistance reduction (:func:`_glue`); the network's own
    vertices need none, as the gluing plan places them.
    """
    lab = np.arange(size)
    while True:
        la, lb = lab[a], lab[b]
        if (la == lb).all():
            return lab
        np.minimum.at(lab, np.concatenate([la, lb]), np.concatenate([lb, la]))
        while True:
            jumped = lab[lab]
            if (jumped == lab).all():
                break
            lab = jumped


def on_component(net: SwitchingNet, on_mask: np.ndarray):
    """The on-edges and the source's component in the on-subgraph.

    Returns (tail, head, reach): the on-edges' endpoint arrays in edge-id
    order, and a boolean mask of the vertices joined to the source through
    them (labelled by :func:`component_labels`).
    """
    tail, head = (ends[on_mask] for ends in net.struct.edge_ends)
    lab = component_labels(net.vertex_count, tail, head)
    return tail, head, lab == lab[net.source]


class NetStructure:
    """Root-independent skeleton: vertices, orientations, labels.

    Edges are numbered as :func:`leaf_symbols` states, and every per-edge
    fact is read off per-leaf arrays indexed by ``e // n``.  Pre-vertex
    leaf * (n+1) + slot is slot SRC or sink slot 1+i of a leaf star, and
    vertex ids number the network's vertices in the order a scan of the
    pre-vertices first meets them.  The tables are built over depth from
    :func:`_glue_plan`'s ``idx``, one new outermost level at a time.
    """

    def __init__(self, n: int, ell: int):
        if n < 2:
            raise InvalidParams(f"n must be >= 2, got {n}")
        if ell < 0:
            raise InvalidParams("ell must be >= 0")
        self.edge_count = check_edge_budget(n, ell)
        self.n = n
        self.ell = ell
        R = 2 * n + 1
        self.num_leaves = R**ell

        # the depth-d block's tables from depth d-1's, by the level plan of
        # :func:`_glue_plan`: leaf c * R^(d-1) + k is leaf k of child c, whose
        # boundary slot s is the level's vertex idx[row c][s] and whose
        # internal vertex m is the level's (n+1)^2 + c * inner + m - (n+1).
        # A tag-2 child flips its leaves, and a tag-1 child's payload becomes
        # the label source of its leaves that had none (-1: the root's)
        code = np.arange(R)  # child c's symbol code
        idx = _glue_plan(n)[0][np.r_[0, n + 1 : R, 1 : n + 1]]  # the plan's rows in code order
        flips, payload = code > n, np.where((code > 0) & (code <= n), code - 1, -1)
        loc = np.arange(n + 1)[None, :]  # depth 0: the star, slot s is vertex s
        rev = np.zeros(1, dtype=bool)
        lab_src = np.full(1, -1, dtype=np.int64)
        count = n + 1
        for _ in range(ell):
            inner = count - (n + 1)
            place = np.hstack([idx, (n + 1) ** 2 + inner * code[:, None] + np.arange(inner)])
            loc = place.take(loc, axis=1).reshape(-1, n + 1)
            rev = (flips[:, None] ^ rev).ravel()
            lab_src = np.where(lab_src < 0, payload[:, None], lab_src).ravel()
            count = (n + 1) ** 2 + R * inner

        # number the vertices in the order a scan of the pre-vertices
        # leaf * (n+1) + slot first meets them; the top level's vertex 0 is
        # the global source and its vertex 1+j is global sink j
        first = np.full(count, loc.size)
        np.minimum.at(first, loc.ravel(), np.arange(loc.size))
        met = np.zeros(loc.size, dtype=bool)
        met[first] = True
        rank = np.cumsum(met)[first] - 1
        vid = rank[loc]
        self.vertex_count = count
        self._leaf_src_vid = np.ascontiguousarray(vid[:, SRC])
        self._leaf_sink_vid = np.ascontiguousarray(vid[:, 1:])
        self.source_vid = int(rank[0])
        self.sink_vids = rank[1 : n + 1].copy()
        self._leaf_rev = rev
        self._leaf_label_src = lab_src

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (tail, head) of length |E|: each edge's vertex ids in its left-to-right orientation."""
        src = np.repeat(self._leaf_src_vid, self.n)
        sink = self._leaf_sink_vid.ravel()
        rev = np.repeat(self._leaf_rev, self.n)
        return np.where(rev, sink, src), np.where(rev, src, sink)

    def label_arrays(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """Every edge's query label at ``root``: arrays (a, b) of 1-indexed G vertices, length |E|."""
        src = np.repeat(self._leaf_label_src, self.n)
        a = np.where(src < 0, root, src + 1)
        b = np.tile(np.arange(1, self.n + 1), self.num_leaves)
        return a.astype(np.int64), b


# bounded by key count; only the exact and spectral-dense routes read one, never a
# spectral decision (the benchmark's decide-corpus warm-up builds 7)
@lru_cache(maxsize=32)
def structure(n: int, ell: int) -> NetStructure:
    return NetStructure(n, ell)


@dataclass(frozen=True)
class SwitchingNet:
    """A depth-ell network bound to a root vertex of the queried digraph."""

    struct: NetStructure
    root: int

    @property
    def n(self) -> int:
        return self.struct.n

    @property
    def ell(self) -> int:
        return self.struct.ell

    @property
    def edge_count(self) -> int:
        return self.struct.edge_count

    @property
    def vertex_count(self) -> int:
        return self.struct.vertex_count

    @property
    def source(self) -> int:
        return self.struct.source_vid

    def sink(self, j: int) -> int:
        """Vertex id of global sink j (0-indexed: target vertex v_{j+1})."""
        if not 0 <= j < self.n:
            raise InvalidParams(f"sink index {j} out of range 0..{self.n - 1}")
        return int(self.struct.sink_vids[j])


def build(n: int, ell: int, root: int) -> SwitchingNet:
    """Construct (or fetch cached) the depth-ell network rooted at ``root``."""
    if not 1 <= root <= n:
        raise InvalidParams(f"root {root} out of range 1..{n}")
    return SwitchingNet(structure(n, ell), root)


# -- evaluation against an input graph --------------------------------------

def on_edge_mask(net: SwitchingNet, oracle: GraphOracle) -> np.ndarray:
    """Boolean on/off mask over all edges; costs exactly |E| oracle queries.

    Labels with equal endpoints are constant-true literals (reaching a
    vertex from itself is free); they are on regardless of the input, which
    is what makes the recursive construction decide "distance at most
    2^ell" rather than "exact length 2^ell".
    """
    a, b = net.struct.label_arrays(net.root)
    oracle.query_count += net.edge_count
    return oracle.graph.adj[a - 1, b - 1] | (a == b)


def _component_and_parents(net: SwitchingNet, mask: np.ndarray):
    """BFS over on-edges from the source; returns (dist, parent_edge) arrays."""
    nv = net.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    on = np.flatnonzero(mask)
    tail, head = (ends[on] for ends in net.struct.edge_ends)
    for e, a, b in zip(on.tolist(), tail.tolist(), head.tolist()):
        adj[a].append((b, e))
        adj[b].append((a, e))
    dist = np.full(nv, -1, dtype=np.int64)
    parent = np.full(nv, -1, dtype=np.int64)
    dist[net.source] = 0
    queue = deque([net.source])
    while queue:
        v = queue.popleft()
        for w, e in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = e
                queue.append(w)
    return dist, parent


def accepts(net: SwitchingNet, oracle: GraphOracle, sink_index: int):
    """Is the source connected to sink ``sink_index`` through on-edges?

    Returns (accepted, witness_path) where witness_path is a minimal-length
    list of edge ids when accepted, else None.  Connectivity is undirected;
    orientations only matter for flows.
    """
    mask = on_edge_mask(net, oracle)
    dist, parent = _component_and_parents(net, mask)
    t = net.sink(sink_index)
    if dist[t] < 0:
        return False, None
    path = []
    v = t
    tail, head = net.struct.edge_ends
    while v != net.source:
        e = int(parent[v])
        path.append(e)
        v = int(tail[e] if v == head[e] else head[e])
    path.reverse()
    return True, path


def accepts_all(net: SwitchingNet, oracle: GraphOracle) -> np.ndarray:
    """Vector of accepts() over all n sinks, from the labelling the exact route reads (:func:`on_component`)."""
    return on_component(net, on_edge_mask(net, oracle))[2][net.struct.sink_vids]


# -- effective resistance by a reduction along the recursion ---------------------

def source_resistances(adj: np.ndarray, root: int, ell: int) -> np.ndarray:
    """Effective resistance of the on-subgraph from the source to each sink.

    ``adj`` is the n x n adjacency the depth-ell network rooted at ``root``
    (1-indexed) is queried against; entry j is the resistance to sink j, nan
    when the on-edges do not join it to the source.  No oracle is asked and
    the network is not built: its on-subgraph is Kron-reduced onto each
    block's boundary (its source and n sinks) along the recursion.  A
    block's on-edges depend only on the root its labels inherit (its type),
    and reversal leaves a Laplacian alone, so each depth needs one reduced
    Laplacian per type: block 0 and the blocks (2, j) have the parent's
    type, block (1, i) has type i.  Beside each goes the block's on-classes:
    boundary slot k's class is the smallest slot the block's on-edges join
    it to, so no matrix's pattern is ever labelled.

    Depth 0 is a star, R = 1 on every on-sink.  Depth 1 has a closed form
    (:func:`_depth_one`); each depth between it and the top reduces every
    type at once (:func:`_reduce_level`).  The top glues the root's type
    alone and keeps only the source's component, grounded at the source:
    R is the diagonal of the inverse of that grounded Laplacian at the
    reached sinks, one LU solve with a right-hand side per reached sink.
    At ell = 1 the top is the root's depth-1 block, grounded the same way.
    The cost is O(ell * n^7) flops whatever the network's edge count.
    """
    n = adj.shape[0]
    on = adj | np.eye(n, dtype=bool)  # on[r, i]: label (r+1, i+1) is on
    R = np.full(n, np.nan)
    if ell == 0:
        R[on[root - 1]] = 1.0
        return R
    types = np.arange(n) if ell > 1 else np.array([root - 1])
    K, cls = _depth_one(on.astype(float), types)
    for _ in range(2, ell):
        K, cls = _reduce_level(K, cls)
    if ell == 1:
        order = np.flatnonzero(cls[0] == 0)[1:]
        G = K[0][np.ix_(order, order)]
        k = order.size
    else:
        _, rows, cols, _ = _glue_plan(n)
        vals, lab = _glue(K, cls, np.array([root - 1]))
        comp = lab[0] == 0
        comp[0] = False  # grounded
        k = np.count_nonzero(comp[: n + 1])
        order = np.flatnonzero(comp)  # the reached sinks first, as 1+j < n+1
        m = order.size
        pos = np.full(comp.size, m)  # the source and the vertices outside its component land on row m, dropped
        pos[order] = np.arange(m)
        G = np.bincount(pos[rows] * (m + 1) + pos[cols], vals[0], minlength=(m + 1) ** 2)
        G = G.reshape(m + 1, m + 1)[:m, :m]
    R[order[:k] - 1] = np.linalg.solve(G, np.eye(len(G), k))[:k].diagonal()
    return R


def _depth_one(on: np.ndarray, types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Laplacians and on-classes of the depth-1 blocks of the listed types.

    Midpoint i, behind conductance on(r, i) from the source, meets sink j
    through two edges in series, conductance on(i, j)/2: a star with
    conductances W_i.  Eliminating midpoint i is its star-mesh transform
    diag(W_i) - W_i W_i^T / sum(W_i), present when on(r, i) is, so K is one
    product.  A boundary slot's diagonal entry is positive iff some present
    star joins it, so sink j is joined to the source iff its entry is, and
    every other sink is a class of its own.
    """
    n = on.shape[0]
    W = np.concatenate([np.ones((n, 1)), on / 2], axis=1)
    mesh = W[:, :, None] * (np.eye(n + 1) - W[:, None, :] / W.sum(axis=1)[:, None, None])
    K = on[types] @ mesh.reshape(n, -1)
    return K.reshape(-1, n + 1, n + 1), np.where(K[:, :: n + 2] > 0, 0, np.arange(n + 1))


# bounded by key count, like ``structure``
@lru_cache(maxsize=32)
def _glue_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where one level places its 2n+1 child blocks, the same for every type.

    The glued graph has N = (n+1)^2 vertices: the boundary, 0 (the source)
    and 1+j (sink j), then a_i = n+1+i (block 0's sink i and block (1, i)'s
    source) and b_ij = 2n+1+i*n+j (block (1, i)'s sink j and block (2, j)'s
    sink i).  Row c of ``idx`` lists child c's vertices by slot, for block
    0, the blocks (2, j), then the blocks (1, i); ``rows`` and ``cols``
    place every entry of every child's (n+1) x (n+1) Laplacian; ``child``
    is child c's type, -1 for the parent's.  This is the one statement of
    which child slot meets which level vertex: :class:`NetStructure` builds
    the network's tables from ``idx`` and :func:`source_resistances` glues
    the reduced Laplacians by it.
    """
    b = 2 * n + 1 + np.arange(n * n).reshape(n, n)
    idx = np.empty((2 * n + 1, n + 1), dtype=np.int64)
    idx[:, 0] = np.arange(2 * n + 1)  # slot 0: the source, sink j of block (2, j), a_i of block (1, i)
    idx[0, 1:] = n + 1 + np.arange(n)
    idx[1 : n + 1, 1:] = b.T
    idx[n + 1 :, 1:] = b
    rows, cols = np.repeat(idx, n + 1, axis=1).ravel(), np.tile(idx, n + 1).ravel()
    return idx, rows, cols, np.concatenate([np.full(n + 1, -1), np.arange(n)])


def _glue(K: np.ndarray, cls: np.ndarray, types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Glue one level for each listed type: its child entries and its component labels.

    K[t] and cls[t] are the child Laplacian and on-classes of type t.
    Returns (vals, lab): vals[t] is every child entry in the order of the
    plan's ``rows`` and ``cols``, and lab[t] labels the glued vertices by
    the smallest of their component, joined by an edge from every child
    slot to its class's slot (:func:`component_labels`, once for all types).
    """
    n, T = K.shape[0], types.size
    N = (n + 1) ** 2
    idx, _, _, child = _glue_plan(n)
    reads = np.where(child < 0, types[:, None], child)  # [t, c]: the type child c reads
    offset = N * np.arange(T)[:, None, None]
    lab = component_labels(T * N, (idx + offset).ravel(),
                           (idx[np.arange(len(idx))[:, None], cls[reads]] + offset).ravel())
    return K[reads].reshape(T, -1), lab.reshape(T, N) - offset[:, 0]


def _reduce_level(K: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Laplacians and on-classes of every type's depth-d block from depth d-1's.

    A glued vertex is joined when its label is at most n: its component then
    holds a boundary vertex, whose slot labels the boundary's new classes.
    Internal vertices that no type joins are dropped.  A type grounds the
    kept vertices it does not join: they touch none of its joined vertices,
    so its reduction is unchanged.
    """
    n = K.shape[0]
    _, rows, cols, _ = _glue_plan(n)
    vals, lab = _glue(K, cls, np.arange(n))
    joined = lab <= n
    keep = joined.any(axis=0)
    pos = np.cumsum(keep) - 1
    M = int(keep.sum())

    inside = keep[rows] & keep[cols]
    flat = pos[rows[inside]] * M + pos[cols[inside]] + M * M * np.arange(n)[:, None]
    A = np.bincount(flat.ravel(), vals[:, inside].ravel(), minlength=n * M * M).reshape(n, M, M)
    A[:, np.arange(M), np.arange(M)] += ~joined[:, keep]
    B, I = slice(0, n + 1), slice(n + 1, M)
    K = A[:, B, B] - A[:, B, I] @ np.linalg.solve(A[:, I, I], A[:, I, B])
    return (K + K.transpose(0, 2, 1)) / 2, lab[:, : n + 1]
