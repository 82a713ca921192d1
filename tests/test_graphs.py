import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from oracles import reach_within_rows
from swnet.errors import InvalidParams
from swnet.graphs import _reach_within


def test_no_self_loops_rejected():
    with pytest.raises(InvalidParams):
        sw.from_edges(3, [(1, 1)])


def test_pad_to_power_of_two_keeps_edges_and_distances():
    g = sw.from_edges(3, [(1, 2), (2, 3)])
    p = sw.pad_to_power_of_two(g)
    assert p.n == 4
    assert p.edge_count == 2
    for u in (1, 2, 3):
        for v in (1, 2, 3):
            assert sw.bfs_distance(g, u, v) == sw.bfs_distance(p, u, v)
    assert not p.adj[3].any() and not p.adj[:, 3].any()


def test_pad_identity_on_power_of_two():
    g = sw.complete(4)
    assert sw.pad_to_power_of_two(g) is g


def test_pad_empty_graph():
    g = sw.from_edges(5, [])
    assert sw.pad_to_power_of_two(g).n == 8
    assert sw.pad_to_power_of_two(g).edge_count == 0


def test_bfs_distance_path_and_unreachable():
    g = sw.layered_path(3)
    assert sw.bfs_distance(g, 1, 3) == 2
    assert sw.bfs_distance(g, 3, 1) == sw.INF
    assert sw.bfs_distance(g, 2, 2) == 0
    assert sw.bfs_distance(sw.complete(4), 1, 2) == 1


def test_attach_source_path():
    g = sw.layered_path(2)
    g0, u0 = sw.attach_source_path(g, 1, 0)
    assert g0 is g and u0 == 1
    g2, s1 = sw.attach_source_path(g, 1, 2)
    assert g2.n == 4 and s1 == 3
    assert sw.bfs_distance(g2, s1, 2) == 3
    # all finite distances from the new source shift by exactly a
    g5 = sw.random_digraph(5, 0.5, 3)
    for a in (1, 2, 3):
        ga, s1 = sw.attach_source_path(g5, 2, a)
        for v in range(1, 6):
            d = sw.bfs_distance(g5, 2, v)
            da = sw.bfs_distance(ga, s1, v)
            assert da == (d + a if d != sw.INF else sw.INF)


def test_generators():
    assert sw.complete(3).edge_count == 6
    assert sw.random_digraph(4, 0.0, 1).edge_count == 0
    assert sw.random_digraph(4, 1.0, 1).edge_count == 12
    g1 = sw.random_digraph(6, 0.4, 42)
    g2 = sw.random_digraph(6, 0.4, 42)
    assert (g1.adj == g2.adj).all()
    assert sw.layered_path(4).edge_count == 3


def test_oracle_counts_every_query():
    g = sw.complete(3)
    oracle = sw.GraphOracle(g)
    answers = [oracle.query(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    assert oracle.query_count == 9
    assert sum(answers) == 6


def test_graph_file_roundtrip(tmp_path):
    g = sw.random_digraph(5, 0.5, 9)
    path = tmp_path / "g.txt"
    sw.write_graph_file(path, g)
    h = sw.read_graph_file(path)
    assert h.n == g.n and (h.adj == g.adj).all()
    path.write_text("\n3 1\n\n2 3\n\n")  # blank lines are skipped
    assert list(sw.read_graph_file(path).edges()) == [(2, 3)]


def test_graph_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 2\n1 2\n1 2\n")
    with pytest.raises(InvalidParams, match=r"duplicate edge \(1, 2\)"):
        sw.read_graph_file(path)


def test_graph_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 5\n1 2\n")
    with pytest.raises(InvalidParams, match="promises 5 edges, found 1"):
        sw.read_graph_file(path)


def test_graph_file_refuses_extra_lines_as_it_streams(tmp_path):
    # 2,000,000 edge lines (8 MB) under a header that promises one: refused
    # at the second, so the reader holds one line, not the file (a list of
    # its lines alone would be over 100 MB)
    path = tmp_path / "long.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("3 1\n")
        fh.writelines(["1 2\n"] * 2_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams, match="promises 1 edges, found more"):
            sw.read_graph_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_graph_file_refuses_a_long_line_by_number(tmp_path):
    # a header promising one edge, then one 20,000,000-character line with no
    # newline: the reader holds at most MAX_LINE_CHARS + 1 characters of the
    # line, and the message names the line, not its text
    path = tmp_path / "long_line.txt"
    path.write_text("3 1\n" + "1" * 20_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams, match="line 2 is longer than MAX_LINE_CHARS=1024") as info:
            sw.read_graph_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(info.value)) < len(str(path)) + 100
    assert peak < 200_000


def test_graph_file_messages_echo_at_most_a_line_limit(tmp_path):
    # a bad header or edge line at the limit is echoed, and one character more is refused unread
    for text, match in (("x" * 1024 + "\n", "bad header"), ("3 1\n" + "y" * 1024, "bad edge line")):
        (tmp_path / "at.txt").write_text(text)
        with pytest.raises(InvalidParams, match=match) as info:
            sw.read_graph_file(tmp_path / "at.txt")
        assert len(str(info.value)) < 1024 + len(str(tmp_path)) + 40
        (tmp_path / "past.txt").write_text(text.rstrip("\n") + "z\n")
        with pytest.raises(InvalidParams, match="is longer than MAX_LINE_CHARS"):
            sw.read_graph_file(tmp_path / "past.txt")


def assert_reach_is_bounded_bfs(g, root, L):
    # the reach and the row queries of the adjacency-row scan it replaced
    got, queries = _reach_within(g, root, L)
    assert all(type(x) is bool for x in got)
    assert got == (sw.bfs_distances(g, root) <= L).tolist(), (g.n, root, L)
    want, want_queries = reach_within_rows(g, root, L)
    assert (got, queries) == (want.tolist(), want_queries), (g.n, root, L)


def test_bounded_reach_equals_bfs_within_L():
    for n in (2, 3, 5, 8):
        isolated = sw.from_edges(n + 2, [(i, i + 1) for i in range(1, n)])  # n + 1, n + 2 isolated
        for g in (sw.from_edges(n, []), sw.complete(n), sw.layered_path(n), isolated):
            for root in range(1, g.n + 1):
                for L in range(1, g.n + 3):  # L >= n included
                    assert_reach_is_bounded_bfs(g, root, L)
    for seed in range(3):
        g = sw.random_digraph(6, 0.3, seed)
        for a in (1, 2, 5):
            grafted, head = sw.attach_source_path(g, 1 + seed, a)
            for L in range(1, 10):
                assert_reach_is_bounded_bfs(grafted, head, L)
    for n in range(2, 13):
        for p in (0.1, 0.25, 0.5):
            g = sw.random_digraph(n, p, 100 * n + int(10 * p))
            for root in (1, n):
                for L in range(1, n + 1):
                    assert_reach_is_bounded_bfs(g, root, L)


def test_bounded_reach_at_4096_vertices():
    # about 1% of the slots, drawn without a dense float matrix
    rng = np.random.default_rng(4096)
    adj = np.zeros((4096, 4096), dtype=bool)
    adj[tuple(rng.integers(0, 4096, size=(2, 168_000)))] = True
    np.fill_diagonal(adj, False)
    g = sw.Digraph(4096, adj)
    for L in (1, 2, 3):
        assert_reach_is_bounded_bfs(g, 7, L)
    # one int object per vertex, however many edges point at it
    heads = [b for row in g.succ for b in row]
    assert len(heads) == g.edge_count and len(set(map(id, heads))) == len(set(heads))


@st.composite
def adjacencies_with_empty_rows(draw):
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < draw(st.sampled_from((0.05, 0.3, 0.9)))
    np.fill_diagonal(adj, False)
    adj[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = False
    return adj


@settings(derandomize=True, max_examples=100, deadline=None)
@given(adjacencies_with_empty_rows())
def test_successor_lists_are_the_adjacency_rows_property(adj):
    g = sw.Digraph(len(adj), adj)
    assert len(g.succ) == g.n and not all(g.succ)
    for a in range(g.n):
        assert g.succ[a] == np.flatnonzero(adj[a]).tolist(), a
