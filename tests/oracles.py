"""Independent reference implementations the tests hold the library to."""

from __future__ import annotations

import numpy as np

from swnet.network import SRC, Sym


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
    sym = Sym(n)
    R = sym.size
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
        return source_pre(path + (sym.code(2, i),))

    def glue(path: tuple):
        if len(path) == ell:
            return
        for i in range(n):
            uf.union(sink_pre(path + (0,), i), source_pre(path + (sym.code(1, i),)))
            for j in range(n):
                uf.union(sink_pre(path + (sym.code(1, i),), j), sink_pre(path + (sym.code(2, j),), i))
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
        rest, parity, src = leaf, 0, -1
        for pos in range(ell):
            c = (rest // R ** (ell - 1 - pos)) % R
            if sym.tag(c) == 2:
                parity ^= 1
            elif sym.tag(c) == 1:
                src = sym.payload(c)
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
