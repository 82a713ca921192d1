"""Directed graphs, the counting query oracle, generators, and file I/O.

Vertices are 1-indexed externally.  When n is a power of two, vertex i also
names the bitstring binary(i-1) of length log2(n); the preparers sign by
those bitstrings, so only they need such an n.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams

INF = float("inf")
MAX_FILE_VERTICES = 4096  # a graph file's n; the reader's dense adjacency, one byte a cell, is 16 MB


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 1..n with dense boolean adjacency and successor lists.

    ``adj[i-1, j-1]`` is True iff there is an edge i -> j.  No self-loops.
    ``succ[i-1]`` lists the 0-based heads j-1 of i's edges in increasing
    order, built once, row by row, by masking one object array of the
    vertex ints: the lists share one int object per vertex, so an edge
    costs one reference, and no temporary outgrows a row.  The BFS routes
    (bfs_distances, _reach_within) read succ, not adjacency rows.
    Instances are immutable after construction (succ is read-only by
    contract) and safe to share across threads.
    """

    n: int
    adj: np.ndarray
    succ: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParams(f"need n >= 2, got {self.n}")
        adj = np.asarray(self.adj, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise InvalidParams(f"adjacency shape {adj.shape} != ({self.n}, {self.n})")
        if adj.trace() != 0:
            raise InvalidParams("self-loops are not allowed")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)
        vertices = np.arange(self.n).astype(object)  # one int object per vertex, shared by every list
        object.__setattr__(self, "succ", [vertices[row].tolist() for row in adj])

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum())

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise InvalidParams(f"vertex pair ({u}, {v}) out of range 1..{self.n}")
        return bool(self.adj[u - 1, v - 1])

    def edges(self):
        """Yield edges as 1-indexed (u, v) pairs in row-major order."""
        for i, j in zip(*np.nonzero(self.adj)):
            yield int(i) + 1, int(j) + 1


def _check_edge(n: int, u: int, v: int) -> None:
    if not (1 <= u <= n and 1 <= v <= n):
        raise InvalidParams(f"edge ({u}, {v}) out of range 1..{n}")
    if u == v:
        raise InvalidParams(f"self-loop ({u}, {v})")


def from_edges(n: int, edges) -> Digraph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        _check_edge(n, u, v)
        adj[u - 1, v - 1] = True
    return Digraph(n, adj)


class GraphOracle:
    """Adjacency query oracle with an exact call counter.

    ``query(i, j)`` returns whether (i, j) is an edge and increments
    ``query_count`` by exactly one.  Concurrent readers of the graph are
    fine; the counter itself is single-writer (confine an oracle instance
    to one thread if totals must be exact).
    """

    def __init__(self, graph: Digraph):
        self.graph = graph
        self.query_count = 0

    def query(self, i: int, j: int) -> bool:
        edge = self.graph.has_edge(i, j)  # a pair out of range is refused, not counted
        self.query_count += 1
        return edge


# -- distances ---------------------------------------------------------------

def bfs_distances(g: Digraph, u: int) -> np.ndarray:
    """Exact directed distances from u to every vertex (INF if unreachable), read from g.succ."""
    dist = [INF] * g.n
    dist[u - 1] = 0
    queue = deque([u - 1])
    succ = g.succ
    while queue:
        a = queue.popleft()
        d = dist[a] + 1
        for b in succ[a]:
            if dist[b] == INF:
                dist[b] = d
                queue.append(b)
    return np.array(dist, dtype=float)


def _reach_within(g: Digraph, root: int, L: int) -> tuple[list[bool], int]:
    """(bfs_distances(g, root) <= L as a list of bools, the row queries of a scan of its rows through a GraphOracle).

    A BFS bounded at L: it expands no vertex at distance L and stops early
    when a level adds nothing.  It reads each expanded vertex's successor
    list (g.succ), so its cost is the edges it expands, with no numpy call.
    Each expanded vertex asks g.n minus the vertices reached before its row,
    as the adjacency-row scan it replaces did (tests/oracles.py keeps that
    scan as the reference).
    """
    reached = [False] * g.n
    reached[root - 1] = True
    frontier = [root - 1]
    succ = g.succ
    found, queries = 1, 0  # the vertices reached before the level; the rows' queries
    for _ in range(L):
        nxt = []
        for a in frontier:
            queries += g.n - found - len(nxt)
            for b in succ[a]:
                if not reached[b]:
                    reached[b] = True
                    nxt.append(b)
        if not nxt:
            break
        found += len(nxt)
        frontier = nxt
    return reached, queries


def bfs_distance(g: Digraph, u: int, v: int):
    """Shortest directed path length u -> v; INF if unreachable; 0 if u == v."""
    if u == v:
        return 0
    d = bfs_distances(g, u)[v - 1]
    return int(d) if d != INF else INF


# -- constructions -----------------------------------------------------------

def pad_to_power_of_two(g: Digraph) -> Digraph:
    """Extend to n' = 2^ceil(log2 n) vertices; added vertices are isolated.

    Reachability between original vertices is unchanged.
    """
    np2 = 1 << (g.n - 1).bit_length()
    if np2 == g.n:
        return g
    adj = np.zeros((np2, np2), dtype=bool)
    adj[: g.n, : g.n] = g.adj
    return Digraph(np2, adj)


def attach_source_path(g: Digraph, u: int, a: int) -> tuple[Digraph, int]:
    """Attach a directed path of length a feeding into u.

    Returns (g', s1) where g' has a new vertices n+1..n+a carrying the chain
    s1 -> s2 -> ... -> sa -> u, and s1 = n+1.  For a = 0 returns (g, u)
    unchanged.  Every u->v path of length k in g becomes an s1->v path of
    length k+a in g'.
    """
    if a < 0:
        raise InvalidParams("path length a must be >= 0")
    if a == 0:
        return g, u
    n2 = g.n + a
    adj = np.zeros((n2, n2), dtype=bool)
    adj[: g.n, : g.n] = g.adj
    for k in range(a - 1):
        adj[g.n + k, g.n + k + 1] = True
    adj[g.n + a - 1, u - 1] = True
    return Digraph(n2, adj), g.n + 1


# -- generators --------------------------------------------------------------

def random_digraph(n: int, edge_prob: float, seed: int) -> Digraph:
    """Seeded Erdos-Renyi style digraph; deterministic for a fixed seed."""
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidParams("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                adj[i, j] = True
    return Digraph(n, adj)


def layered_path(n: int) -> Digraph:
    """The directed path 1 -> 2 -> ... -> n."""
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def complete(n: int) -> Digraph:
    """All n(n-1) directed edges."""
    adj = ~np.eye(n, dtype=bool)
    return Digraph(n, adj)


# -- file format -------------------------------------------------------------
#
# UTF-8 text; line 1 is "n m" with 0 <= m <= n(n-1); the next m lines are
# "i j" with 1 <= i, j <= n and i != j.  Blank lines are skipped, and
# duplicate edge lines are rejected.

MAX_LINE_CHARS = 1024  # a line's length; the longest valid line, "4096 16773120", has 13


def _file_lines(path, fh):
    """fh's stripped non-blank lines, read with a bounded readline; a longer line is refused by its number."""
    for number, line in enumerate(iter(lambda: fh.readline(MAX_LINE_CHARS + 1), ""), 1):
        if len(line.rstrip("\n")) > MAX_LINE_CHARS:
            raise InvalidParams(f"{path}: line {number} is longer than MAX_LINE_CHARS={MAX_LINE_CHARS}")
        if line.strip():
            yield line.strip()


def read_graph_file(path) -> Digraph:
    """Read a graph file in one pass: the header, then each edge line straight into the n x n adjacency.

    Refuses (InvalidParams) a header n outside 2..MAX_FILE_VERTICES, an m
    outside 0..n(n-1), a line longer than MAX_LINE_CHARS, and an edge line
    that does not parse, is out of range, is a self-loop, repeats an edge or
    comes past the m-th edge, each at that line, so a file with several
    faults is refused by its first.  Bad input allocates no more than its
    header admits (n^2 bytes), and no message echoes a longer line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = _file_lines(path, fh)
        header = next(lines, None)
        if header is None:
            raise InvalidParams(f"{path}: empty graph file")
        try:
            n, m = (int(tok) for tok in header.split())
        except ValueError as exc:
            raise InvalidParams(f"{path}: bad header {header!r}") from exc
        if not 2 <= n <= MAX_FILE_VERTICES:
            raise InvalidParams(f"{path}: header n = {n} is not in 2..MAX_FILE_VERTICES={MAX_FILE_VERTICES}")
        if not 0 <= m <= n * (n - 1):
            raise InvalidParams(f"{path}: header m = {m} is not in 0..n(n-1) = {n * (n - 1)}")
        adj = bytearray(n * n)  # row-major, cell (i - 1) * n + (j - 1) holds edge i -> j
        count = 0
        for ln in lines:
            if count == m:
                raise InvalidParams(f"{path}: header promises {m} edges, found more")
            try:
                i, j = (int(tok) for tok in ln.split())
            except ValueError as exc:
                raise InvalidParams(f"{path}: bad edge line {ln!r}") from exc
            _check_edge(n, i, j)
            cell = (i - 1) * n + j - 1
            if adj[cell]:
                raise InvalidParams(f"{path}: duplicate edge ({i}, {j})")
            adj[cell] = 1
            count += 1
    if count != m:
        raise InvalidParams(f"{path}: header promises {m} edges, found {count}")
    return Digraph(n, np.frombuffer(adj, dtype=bool).reshape(n, n))


def write_graph_file(path, g: Digraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
