import itertools
import math
import tracemalloc

import numpy as np
import pytest

import swnet as sw
from oracles import assoc
from swnet import pebbling as pb
from swnet.errors import BadPath, CapExceeded, IllegalMove, InvalidParams
from swnet.network import leaf_symbols


def test_apply_move_rules():
    g = sw.from_edges(3, [(1, 2), (2, 3)])
    c = frozenset({1})
    c = pb.apply_move(c, pb.PebbleMove(pb.PLACE, 1, 2), g)
    assert c == {1, 2}
    c = pb.apply_move(c, pb.PebbleMove(pb.REMOVE, 1, 2), g)
    assert c == {1}
    with pytest.raises(IllegalMove):
        pb.apply_move(frozenset({1}), pb.PebbleMove(pb.PLACE, 1, 3), g)  # no edge
    with pytest.raises(IllegalMove):
        pb.apply_move(frozenset({1, 2}), pb.PebbleMove(pb.PLACE, 1, 2), g)  # occupied
    with pytest.raises(IllegalMove):
        pb.apply_move(frozenset({1}), pb.PebbleMove(pb.REMOVE, 1, 2), g)  # empty
    with pytest.raises(IllegalMove):
        pb.apply_move(frozenset({1}), pb.PebbleMove(pb.PLACE, 2, 3), g)  # no support


def test_replay_refuses_vertices_outside_the_graph():
    # vertex 0 must not read the adjacency's last row (index -1), where the
    # 4-cycle's edge 4 -> 1 would make "P 0 1" a legal move from start 0
    g = sw.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    with pytest.raises(InvalidParams, match="start 0 out of range"):
        pb.replay(g, 0, [pb.PebbleMove(pb.PLACE, 0, 1)])
    with pytest.raises(InvalidParams, match=r"\(4, 5\) out of range"):
        pb.replay(g, 4, [pb.PebbleMove(pb.PLACE, 4, 5)])
    with pytest.raises(InvalidParams, match="out of range"):
        pb.strategy_moves(g, [0, 1, 2])


@pytest.mark.parametrize("L", [1, 2, 4, 8])
def test_strategy_counts_and_bounds(L):
    g = sw.layered_path(L + 1)
    path = list(range(1, L + 2))
    moves = pb.strategy_moves(g, path)
    assert len(moves) == 3 ** int(math.log2(L))
    final, peak = pb.replay(g, 1, moves)
    assert final == frozenset({1, L + 1})
    assert peak <= int(math.log2(L)) + 2
    # every prefix replays legally: replay raises on any violation
    for cut in range(len(moves)):
        pb.replay(g, 1, moves[:cut])


def test_strategy_rejects_bad_paths():
    g = sw.layered_path(4)
    with pytest.raises(BadPath):
        pb.strategy_moves(g, [1, 3])  # not an edge
    with pytest.raises(BadPath):
        pb.strategy_moves(g, [1, 2, 3, 4])  # length 3 is not a power of two


def test_reachable_configs_no_out_edges():
    g = sw.from_edges(3, [(2, 3)])
    assert pb.reachable_configs(g, 1, 3) == {frozenset({1})}


def test_reachable_configs_cap():
    g = sw.complete(5)
    with pytest.raises(CapExceeded):
        pb.reachable_configs(g, 1, 5, cap=10)


def test_reachable_only_reachable_vertices():
    g = sw.from_edges(4, [(1, 2), (3, 4)])
    cfgs = pb.reachable_configs(g, 1, 4)
    pebbled = set().union(*cfgs)
    assert pebbled == {1, 2}
    # random graphs: every vertex any legal sequence ever pebbles is
    # reachable from the start in the graph
    for seed in range(10):
        g = sw.random_digraph(5, 0.35, 300 + seed)
        dist = sw.bfs_distances(g, 1)
        cfgs = pb.reachable_configs(g, 1, 4)
        for v in set().union(*cfgs):
            assert dist[v - 1] != sw.INF


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_distance_bounds_on_paths(ell):
    g = sw.layered_path(2 ** (ell - 1) + 3)
    dist = sw.bfs_distances(g, 1)
    cfgs = pb.reachable_configs(g, 1, ell)
    # with ell pebbles nothing beyond distance 2^(ell-1) - 1 is pebbled,
    # and a bare {start, v} pair never exceeds 2^(ell-2); both are tight
    assert pb.max_pebbled_distance(cfgs, dist) == 2 ** (ell - 1) - 1
    assert pb.max_pair_distance(cfgs, 1, dist) == 2 ** (ell - 2)


def test_trace_format():
    g = sw.layered_path(3)
    moves = pb.strategy_moves(g, [1, 2, 3])
    text = pb.format_trace(2, [1, 2, 3], moves)
    lines = text.strip().splitlines()
    assert lines[0] == "# L=2 path=1,2,3"
    assert lines[1:] == ["P 1 2", "P 2 3", "R 1 2"]


def test_witness_paths_convert_to_legal_traces():
    for n, seed in itertools.product((3, 4, 5), range(12)):
        g = sw.random_digraph(n, 0.5, 200 + seed)
        for u in (1, 3):
            for ell in (1, 2):
                net = sw.build(n, ell, u)
                oracle = sw.GraphOracle(g)
                for j in range(n):
                    if j == u - 1:
                        continue
                    ok, path = sw.accepts(net, oracle, j)
                    if not ok:
                        continue
                    moves = pb.path_to_moves(net, path, u)
                    final, peak = pb.replay(g, u, moves)
                    assert final == frozenset({u, j + 1})
                    assert peak <= ell + 2


def test_path_to_moves_refuses_a_start_other_than_the_root():
    g = sw.from_edges(4, [(1, 2), (2, 3)])
    net = sw.build(4, 1, 1)
    ok, path = sw.accepts(net, sw.GraphOracle(g), 2)
    assert ok and pb.path_to_moves(net, path, 1)
    with pytest.raises(InvalidParams, match="root"):
        pb.path_to_moves(net, path, 2)


def test_path_to_moves_decodes_only_the_witness_leaves():
    # the (16, 3) witness has 27 of 575k edges; decoding every leaf and
    # building every edge's label took about 19 MB there
    g = sw.layered_path(16)
    net = sw.build(16, 3, 1)
    ok, path = sw.accepts(net, sw.GraphOracle(g), 7)
    assert ok and len(path) == 27
    tracemalloc.start()
    try:
        moves = pb.path_to_moves(net, path, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert pb.replay(g, 1, moves)[0] == frozenset({1, 8})


@pytest.mark.parametrize("n,ell", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_leaf_source_support_is_the_support_of_assoc(n, ell):
    # path_to_moves places or removes dst exactly when dst is outside the
    # support of the leaf source's multiset; every vertex of that multiset is
    # some dst in 1..n, so the support equals the multiset's set
    tags, payloads = leaf_symbols(n, ell)
    leaves = len(tags)
    for root in range(1, n + 1):
        for dst in range(1, n + 1):
            got = pb.in_source_support(tags, payloads, root, np.full(leaves, dst))
            want = [dst in assoc(n, ell, leaf * n, root, endpoint=0) for leaf in range(leaves)]
            assert got.tolist() == want, (root, dst)
