"""The pebbling game that underpins the network's correctness argument.

Rules: play starts with one pebble on the start vertex u; whenever v holds
a pebble and (v, v') is an edge, a pebble may be placed on v' or removed
from v'.  Configurations are sets of pebbled vertices.  Moves record the
supporting pebble explicitly, which makes legality checking O(1) and
traces self-certifying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadPath, IllegalMove, InvalidParams
from .graphs import Digraph
from .network import leaf_symbols

PLACE, REMOVE = "P", "R"


@dataclass(frozen=True)
class PebbleMove:
    kind: str  # PLACE or REMOVE
    src: int   # the supporting pebbled vertex
    dst: int   # the vertex gaining or losing a pebble


def apply_move(config: frozenset, move: PebbleMove, g: Digraph) -> frozenset:
    """One legal move; raises IllegalMove on any rule violation."""
    if move.src not in config:
        raise IllegalMove(f"support {move.src} holds no pebble")
    if not g.has_edge(move.src, move.dst):
        raise IllegalMove(f"({move.src}, {move.dst}) is not an edge")
    if move.kind == PLACE:
        if move.dst in config:
            raise IllegalMove(f"{move.dst} already pebbled")
        return config | {move.dst}
    if move.kind == REMOVE:
        if move.dst not in config:
            raise IllegalMove(f"{move.dst} holds no pebble")
        return config - {move.dst}
    raise IllegalMove(f"unknown move kind {move.kind!r}")


def replay(g: Digraph, start: int, moves) -> tuple[frozenset, int]:
    """Replay a trace from {start}; returns (final config, peak pebbles).

    A start or move vertex outside 1..n raises InvalidParams.
    """
    if not 1 <= start <= g.n:
        raise InvalidParams(f"start {start} out of range 1..{g.n}")
    config = frozenset({start})
    peak = 1
    for mv in moves:
        config = apply_move(config, mv, g)
        peak = max(peak, len(config))
    return config, peak


def strategy_moves(g: Digraph, path: list[int]) -> list[PebbleMove]:
    """Doubling strategy along a directed path of power-of-two length L.

    Recursively: pebble the midpoint, pebble the endpoint from it, then
    undo the first half in reverse.  Uses exactly 3^(log2 L) moves and at
    most log2(L) + 2 simultaneous pebbles, ending in {start, end}.
    """
    L = len(path) - 1
    if L < 1 or L & (L - 1):
        raise BadPath(f"path length {L} is not a positive power of two")
    if len(set(path)) != len(path):
        raise BadPath("path revisits a vertex")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise BadPath(f"({a}, {b}) is not an edge")

    def recurse(lo: int, hi: int) -> list[PebbleMove]:
        if hi - lo == 1:
            return [PebbleMove(PLACE, path[lo], path[lo + 1])]
        mid = (lo + hi) // 2
        first = recurse(lo, mid)
        second = recurse(mid, hi)
        undo = [
            PebbleMove(REMOVE if mv.kind == PLACE else PLACE, mv.src, mv.dst)
            for mv in reversed(first)
        ]
        return first + second + undo

    return recurse(0, len(path) - 1)


# -- trace format -----------------------------------------------------------------
#
# One move per line, "P src dst" / "R src dst", preceded by a header line
# "# L=<L> path=<v0,...,vL>".

def format_trace(L: int, path: list[int], moves) -> str:
    lines = [f"# L={L} path={','.join(str(v) for v in path)}"]
    lines.extend(f"{mv.kind} {mv.src} {mv.dst}" for mv in moves)
    return "\n".join(lines) + "\n"


def in_source_support(tags, payloads, root: int, dst) -> np.ndarray:
    """Whether graph vertex dst[k] is in the support of leaf k's source multiset.

    ``tags`` and ``payloads`` are rows of :func:`~swnet.network.leaf_symbols`,
    one per leaf, and ``dst`` holds 1-indexed graph vertices.  The network's
    source carries {root}; block (1, i) re-roots at v_i and keeps its
    parent's root, block (2, j) adds v_j, and block 0 adds nothing, so the
    support is the root and v_{payload+1} of every symbol with a nonzero
    tag.  A leaf's sinks carry the source's multiset plus the query target.
    """
    dst = np.asarray(dst)
    return (dst == root) | ((tags > 0) & (payloads + 1 == dst[:, None])).any(axis=1)


def path_to_moves(net, witness_edges, start: int):
    """Convert an on-path of the network into a legal pebbling trace from ``start``.

    Network vertices carry multisets of graph vertices, and the pebbled set
    tracks the support of the current one (:func:`in_source_support`).
    Crossing an edge toward its leaf sink places the query target (supported
    by the query source), crossing back removes it; when the target is
    already in the support the step is skipped.  ``start`` must be the
    network's root, where the trace begins.  The witness's leaves are
    decoded and its per-leaf rows read as arrays, once.
    """
    if start != net.root:
        raise InvalidParams(f"start {start} is not the network's root {net.root}")
    st = net.struct
    leaves, targets = np.divmod(np.asarray(witness_edges, dtype=np.int64), net.n)
    tags, payloads = leaf_symbols(net.n, net.ell, leaves)  # only the witness's leaves are decoded
    dst = targets + 1
    skip = in_source_support(tags, payloads, net.root, dst).tolist()
    label_src = st._leaf_label_src[leaves]  # the query source, as label_arrays reads it
    query_src = np.where(label_src < 0, net.root, label_src + 1).tolist()
    vsrcs = st._leaf_src_vid[leaves].tolist()
    vsinks = st._leaf_sink_vid[leaves, targets].tolist()
    moves = []
    cur_vid = net.source
    for vsrc, vsink, src, dst, skipped in zip(vsrcs, vsinks, query_src, dst.tolist(), skip):
        if cur_vid not in (vsrc, vsink):
            raise InvalidParams("witness edges do not form a path from the source")
        if not skipped:
            moves.append(PebbleMove(PLACE if cur_vid == vsrc else REMOVE, src, dst))
        cur_vid = vsink if cur_vid == vsrc else vsrc
    return moves
