"""The recursive switching network for bounded-length directed reachability.

For a vertex count n (a power of two) and depth ell, the network has edge
set Sigma^ell x [n] where Sigma is the alphabet

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams
from .graphs import GraphOracle

SRC = 0  # local source slot of a leaf block; slots 1..n are its sinks


class Sym:
    """Symbol codec for a fixed n: int code <-> (tag, payload)."""

    def __init__(self, n: int):
        self.n = n
        self.size = 2 * n + 1

    def code(self, tag: int, payload: int = 0) -> int:
        if tag == 0:
            if payload != 0:
                raise InvalidParams("tag-0 symbol must carry zero payload")
            return 0
        if not 0 <= payload < self.n:
            raise InvalidParams(f"payload {payload} out of range")
        if tag == 1:
            return 1 + payload
        if tag == 2:
            return 1 + self.n + payload
        raise InvalidParams(f"bad tag {tag}")

    def tag(self, code: int) -> int:
        if code == 0:
            return 0
        return 1 if code <= self.n else 2

    def payload(self, code: int) -> int:
        if code == 0:
            return 0
        return code - 1 if code <= self.n else code - 1 - self.n


def f1(sigma: tuple, sym: Sym | None = None, n: int | None = None) -> int:
    """Position (1-indexed) of the last tag-1 symbol in sigma, else 0.

    ``sigma`` is a tuple of (tag, payload) pairs or of int codes (then a
    ``Sym`` or n is required).  Position 1 is the outermost block; the last
    tag-1 symbol names the root of the leaf block an edge lives in.
    """
    if sigma and isinstance(sigma[0], int):
        if sym is None:
            sym = Sym(n)
        sigma = [(sym.tag(c), sym.payload(c)) for c in sigma]
    best = 0
    for pos, (tag, _payload) in enumerate(sigma, start=1):
        if tag == 1:
            best = pos
    return best


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


class NetStructure:
    """Root-independent skeleton: resolved vertices, orientations, labels.

    Edges are indexed 0..(2n+1)^ell * n - 1; edge (leaf, i) has flat index
    leaf * n + i where ``leaf`` enumerates Sigma^ell in mixed radix with the
    outermost symbol most significant.
    """

    def __init__(self, n: int, ell: int):
        if n < 2 or n & (n - 1):
            raise InvalidParams(f"n must be a power of two >= 2, got {n}")
        if ell < 0:
            raise InvalidParams("ell must be >= 0")
        self.n = n
        self.ell = ell
        self.sym = Sym(n)
        R = self.sym.size
        self.num_leaves = R**ell
        self.edge_count = self.num_leaves * n

        uf = _UnionFind(self.num_leaves * (n + 1))
        radix = [R**k for k in range(ell + 1)]

        def leaf_of(path: tuple) -> int:
            # path is a full-length tuple of int codes, outermost first
            idx = 0
            for c in path:
                idx = idx * R + c
            return idx

        def source_pre(path: tuple) -> int:
            path = path + (0,) * (ell - len(path))
            return leaf_of(path) * (n + 1) + SRC

        def sink_pre(path: tuple, i: int) -> int:
            if len(path) == ell:
                return leaf_of(path) * (n + 1) + 1 + i
            return source_pre(path + (self.sym.code(2, i),))

        # glue children pairwise at every internal block
        def glue(path: tuple):
            if len(path) == ell:
                return
            for i in range(n):
                uf.union(sink_pre(path + (0,), i), source_pre(path + (self.sym.code(1, i),)))
                for j in range(n):
                    uf.union(
                        sink_pre(path + (self.sym.code(1, i),), j),
                        sink_pre(path + (self.sym.code(2, j),), i),
                    )
            for c in range(R):
                glue(path + (c,))

        glue(())

        # compress to consecutive vertex ids
        roots = {}
        pre_to_vid = np.empty(self.num_leaves * (n + 1), dtype=np.int64)
        for pre in range(self.num_leaves * (n + 1)):
            r = uf.find(pre)
            if r not in roots:
                roots[r] = len(roots)
            pre_to_vid[pre] = roots[r]
        self.vertex_count = len(roots)
        self._pre_to_vid = pre_to_vid

        self.source_vid = int(pre_to_vid[source_pre(())])
        self.sink_vids = np.array(
            [pre_to_vid[sink_pre((), j)] for j in range(n)], dtype=np.int64
        )

        # per-leaf tables: tail/head pre-vertices, reversal parity, label source
        leaves = np.arange(self.num_leaves)
        self._leaf_src_vid = pre_to_vid[leaves * (n + 1) + SRC]
        self._leaf_sink_vid = np.stack(
            [pre_to_vid[leaves * (n + 1) + 1 + i] for i in range(n)], axis=1
        )

        rev = np.zeros(self.num_leaves, dtype=bool)
        lab = np.full(self.num_leaves, -1, dtype=np.int64)  # -1: label source is the root
        for leaf in range(self.num_leaves):
            rest, parity, src = leaf, 0, -1
            for pos in range(ell):
                c = (rest // radix[ell - 1 - pos]) % R
                t = self.sym.tag(c)
                if t == 2:
                    parity ^= 1
                elif t == 1:
                    src = self.sym.payload(c)
            rev[leaf] = bool(parity)
            lab[leaf] = src
        self._leaf_rev = rev
        self._leaf_label_src = lab

    # -- edge codecs --------------------------------------------------------

    def edge_id(self, sigma: tuple, i: int) -> int:
        """Flat edge index from a sigma tuple of int codes and sink index i."""
        if len(sigma) != self.ell or not 0 <= i < self.n:
            raise InvalidParams("bad edge coordinates")
        leaf = 0
        for c in sigma:
            leaf = leaf * self.sym.size + c
        return leaf * self.n + i

    def edge_sigma_i(self, e: int) -> tuple[tuple, int]:
        """Inverse of :meth:`edge_id`: (sigma codes outermost-first, i)."""
        leaf, i = divmod(e, self.n)
        codes = []
        for _ in range(self.ell):
            leaf, c = divmod(leaf, self.sym.size)
            codes.append(c)
        return tuple(reversed(codes)), i

    def endpoints(self, e: int) -> tuple[int, int]:
        """(tail, head) vertex ids of edge e in its left-to-right orientation."""
        leaf, i = divmod(e, self.n)
        a = int(self._leaf_src_vid[leaf])
        b = int(self._leaf_sink_vid[leaf, i])
        return (b, a) if self._leaf_rev[leaf] else (a, b)

    def query_label(self, e: int, root: int) -> tuple[int, int]:
        """Query label (a, b) in 1-indexed G vertices for a given root."""
        leaf, i = divmod(e, self.n)
        src = self._leaf_label_src[leaf]
        a = root if src < 0 else int(src) + 1
        return a, i + 1

    def label_arrays(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query labels: arrays (a, b), 1-indexed, length |E|."""
        src = np.repeat(self._leaf_label_src, self.n)
        a = np.where(src < 0, root, src + 1)
        b = np.tile(np.arange(1, self.n + 1), self.num_leaves)
        return a.astype(np.int64), b

    def assoc(self, e_or_pre, root: int, endpoint: int | None = None):
        """Associated multiset of G-vertices for an endpoint of edge e.

        endpoint=0 gives the leaf-source side, endpoint=1 the leaf-sink side
        (pre-reversal sides; as multisets the sink side is the source side
        plus the query target).  Returned as a sorted tuple of 1-indexed ids.
        """
        e = e_or_pre
        leaf, i = divmod(e, self.n)
        sigma, _ = self.edge_sigma_i(e)
        cur, aug = root, []
        for c in sigma:
            t = self.sym.tag(c)
            if t == 1:
                aug.append(cur)
                cur = self.sym.payload(c) + 1
            elif t == 2:
                aug.append(self.sym.payload(c) + 1)
        base = aug + [cur]
        if endpoint == 1:
            base = base + [i + 1]
        return tuple(sorted(base))


@lru_cache(maxsize=None)
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
        return int(self.struct.sink_vids[j])

    def query_label(self, e: int) -> tuple[int, int]:
        return self.struct.query_label(e, self.root)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.struct.endpoints(e)


def build(n: int, ell: int, root: int) -> SwitchingNet:
    """Construct (or fetch cached) the depth-ell network rooted at ``root``."""
    st = structure(n, ell)
    if not 1 <= root <= n:
        raise InvalidParams(f"root {root} out of range 1..{n}")
    return SwitchingNet(st, root)


# -- evaluation against an input graph --------------------------------------

def edge_on(net: SwitchingNet, e: int, oracle: GraphOracle) -> bool:
    """Whether edge e is on for the oracle's graph; costs one oracle query.

    Labels with equal endpoints are constant-true literals (reaching a
    vertex from itself is free); they are on regardless of the input, which
    is what makes the recursive construction decide "distance at most
    2^ell" rather than "exact length 2^ell".
    """
    a, b = net.query_label(e)
    return a == b or oracle.query(a, b)


def on_edge_mask(net: SwitchingNet, oracle: GraphOracle) -> np.ndarray:
    """Boolean on/off mask over all edges; costs exactly |E| oracle queries.

    Equal-endpoint labels are always on; see :func:`edge_on`.
    """
    a, b = net.struct.label_arrays(net.root)
    oracle.query_count += net.edge_count
    return oracle.graph.adj[a - 1, b - 1] | (a == b)


def _component_and_parents(net: SwitchingNet, mask: np.ndarray):
    """BFS over on-edges from the source; returns (dist, parent_edge) arrays."""
    st = net.struct
    nv = st.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for e in np.nonzero(mask)[0]:
        a, b = st.endpoints(int(e))
        adj[a].append((b, int(e)))
        adj[b].append((a, int(e)))
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
    st = net.struct
    while v != net.source:
        e = int(parent[v])
        path.append(e)
        a, b = st.endpoints(e)
        v = a if v == b else b
    path.reverse()
    return True, path


def accepts_all(net: SwitchingNet, oracle: GraphOracle) -> np.ndarray:
    """Vector of accepts() over all n sinks from a single BFS."""
    mask = on_edge_mask(net, oracle)
    dist, _ = _component_and_parents(net, mask)
    return dist[net.struct.sink_vids] >= 0


# -- top-down rebuild --------------------------------------------------------

class RebuiltNet:
    """Depth-(ell+1) network obtained by inflating each leaf to a depth-1 block.

    Independent of the bottom-up recursion in NetStructure: the depth-ell
    skeleton is kept, every leaf star is replaced in place by a two-level
    block with the same boundary, and only the new internal vertices are
    created.  Used to cross-check the construction.
    """

    def __init__(self, base: SwitchingNet):
        st = base.struct
        n, R = st.n, st.sym.size
        self.n = n
        self.ell = st.ell + 1
        self.root = base.root
        self.edge_count = st.edge_count * R
        self.sym = st.sym

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
        n, R = self.n, self.sym.size
        rest, k = divmod(e, n)
        leaf, c = divmod(rest, R)
        old_src = int(st._leaf_src_vid[leaf])
        tag, pay = self.sym.tag(c), self.sym.payload(c)
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
        n, R = self.n, self.sym.size
        rest, k = divmod(e, n)
        leaf, c = divmod(rest, R)
        tag, pay = self.sym.tag(c), self.sym.payload(c)
        if tag == 1:
            return pay + 1, k + 1
        src = st._leaf_label_src[leaf]
        a = self.root if src < 0 else int(src) + 1
        return a, k + 1


def rebuild_top_down(base: SwitchingNet) -> RebuiltNet:
    """Inflate every leaf block of ``base`` one level; see RebuiltNet."""
    return RebuiltNet(base)


def isomorphic(a, b) -> bool:
    """Structural equality of two networks over the shared edge id space.

    Checks edge counts, per-edge query labels, boundary identification, and
    that the endpoint pairs induce a consistent vertex bijection.
    """
    if a.edge_count != b.edge_count or a.vertex_count != b.vertex_count:
        return False
    fwd, bwd = {}, {}

    def match(x, y):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
        return True

    a_sinks = a.sink_vids if hasattr(a, "sink_vids") else a.struct.sink_vids
    b_sinks = b.sink_vids if hasattr(b, "sink_vids") else b.struct.sink_vids
    if not match(a.source, b.source):
        return False
    for sa, sb in zip(a_sinks, b_sinks):
        if not match(int(sa), int(sb)):
            return False
    for e in range(a.edge_count):
        if a.query_label(e) != b.query_label(e):
            return False
        (ta, ha), (tb, hb) = a.endpoints(e), b.endpoints(e)
        if not (match(ta, tb) and match(ha, hb)):
            return False
    return True
