import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from swnet import spaneval as se
from oracles import (
    assoc, edge_id, edge_symbols, endpoints, isomorphic, on_distances, rebuild_top_down, splu_resistances, symbol_code,
    symbol_of, union_find_structure,
)
from swnet.errors import InvalidParams
from swnet.network import leaf_symbols, source_resistances

#: every power-of-two (n, ell) the test suite builds a network at, and
#: grafted sizes its decisions build at any n
SUITE_SIZES = [(2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3), (8, 0), (8, 1),
               (8, 2), (8, 3), (16, 0), (16, 1), (16, 2), (16, 3), (32, 2),
               (3, 1), (3, 2), (5, 2), (6, 2), (7, 2), (9, 2), (5, 3), (9, 3), (17, 2)]


def test_public_surface():
    # re-exporting a name, such as a cross-check, from the package is a deliberate change
    assert sorted(sw.__all__) == [
        "Digraph", "GraphOracle", "INF", "NetStructure", "SwitchingNet", "accepts", "accepts_all",
        "attach_source_path", "bfs_distance", "bfs_distances", "build", "complete", "from_edges",
        "layered_path", "on_edge_mask", "pad_to_power_of_two", "random_digraph",
        "read_graph_file", "structure", "write_graph_file",
    ]


def all_digraphs(n):
    slots = [(i + 1, j + 1) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([0, 1], repeat=len(slots)):
        yield sw.from_edges(n, [e for e, b in zip(slots, bits) if b])


def test_base_star_shape():
    net = sw.build(4, 0, 2)
    assert net.edge_count == 4
    assert net.vertex_count == 5
    label_from, label_to = net.struct.label_arrays(net.root)
    tail, head = net.struct.edge_ends
    for e in range(4):
        assert (label_from[e], label_to[e]) == (2, e + 1)
        assert tail[e] == net.source and head[e] == net.sink(e)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_counting_identities(n):
    # |E| = (2n+1)^ell * n and |V| follows the gluing recurrence
    cap = 10**5
    v_expect = n + 1
    for ell in range(4):
        edges = (2 * n + 1) ** ell * n
        if edges > cap:
            break
        st = sw.structure(n, ell)
        assert st.edge_count == edges
        assert st.vertex_count == v_expect
        v_expect = (2 * n + 1) * v_expect - n * n - n


def test_query_labels_match_block_roots():
    # inner tag-1 symbols own the label source; none defaults to the root
    net = sw.build(4, 2, 3)
    label_from, label_to = net.struct.label_arrays(net.root)

    def label(sigma, i):
        e = edge_id(4, tuple(symbol_code(4, *symbol) for symbol in sigma), i)
        return label_from[e], label_to[e]

    assert label([(1, 1), (0, 0)], 2) == (2, 3)  # source v_2 from the tag-1 payload
    assert label([(2, 1), (0, 0)], 0) == (3, 1)  # no tag-1: the root
    assert label([(1, 0), (1, 3)], 2) == (4, 3)  # deepest tag-1 wins


@pytest.mark.parametrize("n,ell", [(2, 0), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_leaf_symbols_match_scalar_decode(n, ell):
    tags, payloads = leaf_symbols(n, ell)
    assert tags.shape == payloads.shape == ((2 * n + 1) ** ell, ell)
    for leaf in range(tags.shape[0]):
        sigma, i = edge_symbols(n, ell, leaf * n)
        assert i == 0
        assert [symbol_of(n, c) for c in sigma] == list(zip(tags[leaf].tolist(), payloads[leaf].tolist()))


def test_gluing_consistency_assoc_multisets():
    # endpoints differ by exactly the query target; label source sits in
    # the smaller multiset
    for n, ell in [(2, 1), (2, 2), (4, 1), (4, 2)]:
        net = sw.build(n, ell, 1)
        label_from, label_to = net.struct.label_arrays(net.root)
        for e in range(net.edge_count):
            small = assoc(n, ell, e, net.root, endpoint=0)
            large = assoc(n, ell, e, net.root, endpoint=1)
            src, dst = label_from[e], label_to[e]
            assert len(large) == len(small) + 1
            diff = list(large)
            for x in small:
                diff.remove(x)
            assert diff == [dst]
            assert src in small


def test_resolved_vertices_share_assoc():
    # every pre-gluing vertex resolved to one id carries the same multiset
    for n, ell in [(2, 2), (4, 1)]:
        net = sw.build(n, ell, 2)
        st = net.struct
        by_vid = {}
        for e in range(net.edge_count):
            leaf = e // n
            for endpoint, vid in ((0, st._leaf_src_vid[leaf]), (1, st._leaf_sink_vid[leaf, e % n])):
                ms = assoc(n, ell, e, 2, endpoint=endpoint)
                assert by_vid.setdefault(int(vid), ms) == ms


def test_correctness_small_exhaustive():
    # accepts iff directed distance <= 2^ell, at any n: all n=2 and n=3
    # digraphs, a few n=4, n=5 and n=6
    graphs = [*all_digraphs(2), *all_digraphs(3)]
    graphs += [sw.random_digraph(4, 0.5, seed) for seed in range(10)]
    graphs += [sw.random_digraph(n, 0.4, seed) for n in (5, 6) for seed in range(3)]
    for g in graphs:
        for u in range(1, g.n + 1):
            d = sw.bfs_distances(g, u)
            for ell in (0, 1, 2):
                acc = sw.accepts_all(sw.build(g.n, ell, u), sw.GraphOracle(g))
                for v in range(1, g.n + 1):
                    if v != u:
                        assert acc[v - 1] == (d[v - 1] <= 2**ell), (g.n, u, v, ell)


def test_witness_path_minimal_and_bounded():
    g = sw.from_edges(2, [(1, 2)])
    net = sw.build(2, 0, 1)
    ok, path = sw.accepts(net, sw.GraphOracle(g), 1)
    assert ok and len(path) == 1
    # distance 3 is not reachable at L=2
    g = sw.layered_path(4)
    ok, _ = sw.accepts(sw.build(4, 1, 1), sw.GraphOracle(g), 3)
    assert not ok
    for seed in range(8):
        g = sw.random_digraph(4, 0.6, 100 + seed)
        for ell in (1, 2):
            net = sw.build(4, ell, 1)
            for j in range(1, 4):
                ok, path = sw.accepts(net, sw.GraphOracle(g), j)
                if ok:
                    assert len(path) <= 3**ell


def test_rebuild_top_down_matches_build():
    for n, ell in [(2, 0), (2, 1), (4, 0), (4, 1), (3, 0), (3, 1), (5, 0), (5, 1)]:
        base = sw.build(n, ell, 1)
        inflated = rebuild_top_down(base)
        target = sw.build(n, ell + 1, 1)
        assert isomorphic(inflated, target)
        # labels are identical under the canonical edge identification
        label_from, label_to = target.struct.label_arrays(target.root)
        for e in range(0, inflated.edge_count, 7):
            assert inflated.query_label(e) == (label_from[e], label_to[e])


def test_rebuild_top_down_label_invariance_other_root():
    base = sw.build(2, 1, 2)
    inflated = rebuild_top_down(base)
    target = sw.build(2, 2, 2)
    assert isomorphic(inflated, target)


@pytest.mark.parametrize("n,ell", [(2, 0), (2, 2), (4, 1), (4, 2), (8, 1)])
def test_edge_ends_match_endpoints(n, ell):
    st = sw.build(n, ell, 1).struct
    tail, head = st.edge_ends
    assert list(zip(tail.tolist(), head.tolist())) == [endpoints(st, e) for e in range(st.edge_count)]


@pytest.mark.parametrize("n,ell", SUITE_SIZES)
def test_structure_equals_union_find_oracle(n, ell):
    st = sw.structure(n, ell)
    for name, want in union_find_structure(n, ell).items():
        got = getattr(st, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


def test_glue_plan_is_the_one_gluing_rule(monkeypatch):
    # swap two b entries of the plan: block (1, 0) meets block (2, 0)'s sink
    # 0 at its sink 1 and block (2, 1)'s at its sink 0.  Both the structure
    # and the reduction must follow the plan, so both leave their references
    n, ell, root = 4, 2, 1
    g = sw.random_digraph(n, 0.5, 3)
    net = sw.build(n, ell, root)  # built and cached before the plan is swapped
    want = splu_resistances(net, sw.on_edge_mask(net, sw.GraphOracle(g)))
    assert np.allclose(source_resistances(g.adj, root, ell), want, rtol=1e-12, equal_nan=True)
    plan = sw.network._glue_plan

    def swapped(n):
        idx, _, _, child = plan(n)
        idx = idx.copy()
        idx[n + 1, [1, 2]] = idx[n + 1, [2, 1]]
        return idx, np.repeat(idx, n + 1, axis=1).ravel(), np.tile(idx, n + 1).ravel(), child

    monkeypatch.setattr(sw.network, "_glue_plan", swapped)
    st = sw.network.NetStructure(n, ell)
    assert any(not np.array_equal(getattr(st, name), want_table)
               for name, want_table in union_find_structure(n, ell).items())
    assert not np.allclose(source_resistances(g.adj, root, ell), want, rtol=1e-12, equal_nan=True)


def test_structure_cache_is_bounded():
    # more distinct sizes than the cache keeps, as non-power-of-two n allows
    bound = sw.structure.cache_info().maxsize
    for n in range(2, bound + 6):
        sw.structure(n, 0)
    assert sw.structure.cache_info().currsize <= bound


def test_edge_budget_admits_every_size_built_and_refuses_past_it():
    # the largest networks tier-1 and the benchmark build: the grafted
    # (19, 3) of the dstcon corpus, (16, 3) and (8, 4) of the preparers,
    # (9, 4), and (67, 2), the largest decision the budget admits and the
    # size its cost is stated at
    for n, ell in [(19, 3), (16, 3), (8, 4), (9, 4), (67, 2)]:
        assert sw.network.check_edge_budget(n, ell) == (2 * n + 1) ** ell * n <= sw.network.MAX_NETWORK_EDGES
    # counted in integers: (4098, 13) has about 2^206 edges
    for n, ell in [(20, 3), (68, 2), (4098, 13), (4096, 1)]:
        with pytest.raises(InvalidParams, match="MAX_NETWORK_EDGES"):
            sw.network.check_edge_budget(n, ell)
    with pytest.raises(InvalidParams, match="MAX_NETWORK_EDGES"):
        sw.network.NetStructure(17, 5)


# -- the reduction along the recursion against the sparse LU of the whole on-subgraph

#: every (n', ell) the resistance route builds in tier-1, grafted n' included
RESISTANCE_SIZES = [(n, ell) for ell, ns in ((0, range(2, 17)), (1, range(2, 17)), (2, range(3, 18)),
                                             (3, range(8, 20))) for n in ns]


def assert_resistances_match(g, root, ell):
    net = sw.build(g.n, ell, root)
    want = splu_resistances(net, sw.on_edge_mask(net, sw.GraphOracle(g)))
    got = source_resistances(g.adj, root, ell)
    assert np.array_equal(np.isnan(got), np.isnan(want)), (g.n, ell, root)
    reached = ~np.isnan(want)
    assert np.all(np.abs(got[reached] - want[reached]) <= 1e-12 * want[reached]), (g.n, ell, root)
    return reached


@pytest.mark.parametrize("n, ell", RESISTANCE_SIZES)
def test_boundary_laplacian_resistances_equal_sparse_lu(n, ell):
    # sparse draws leave sinks unreached and internal vertices unjoined; the
    # (n', 3) networks hold up to 1.13M edges, so they get one draw each
    draws = [(0.1, 1), (0.3, 2), (0.6, 3)] if ell < 3 else [(0.15 + 0.05 * (n % 3), n)]
    for p, seed in draws:
        assert_resistances_match(sw.random_digraph(n, p, seed), 1 + seed % n, ell)


@pytest.mark.parametrize("n, ell", RESISTANCE_SIZES)
def test_witness_path_length_is_3_to_the_ell(n, ell):
    # spaneval.Evaluation's theorem: a reached sink sits at on-edge distance
    # exactly 3^ell, the length every accepted report gives.  On the complete
    # graph every edge is on, so no source-sink path at all is shorter
    graphs = [(sw.random_digraph(n, 0.3, 2), 2), (sw.complete(n), 1)]
    if ell == 3:
        graphs = [(sw.random_digraph(n, 0.15 + 0.05 * (n % 3), n), 1)]
    for g, root in graphs:
        dist = None
        for mode in ("exact", "spectral"):
            evaluation = se.Evaluation(g, root, 2**ell, mode)
            for v in range(1, n + 1):
                if v == root:
                    continue
                report = evaluation.report(v, witness=True)
                if dist is None:
                    dist = on_distances(evaluation.net, sw.on_edge_mask(evaluation.net, sw.GraphOracle(g)))
                d = dist[evaluation.net.sink(v - 1)]
                assert report.accepted == (d >= 0), (n, ell, mode, v)
                assert report.path_len == (3**ell if report.accepted else None)
                assert d in (-1, 3**ell), (n, ell, mode, v)


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_boundary_laplacian_edge_cases(ell):
    n = 5
    # no edges: only the source's own sink, through its constant-true labels
    reached = assert_resistances_match(sw.from_edges(n, []), 2, ell)
    assert reached.tolist() == [False, True, False, False, False]
    assert assert_resistances_match(sw.complete(n), 1, ell).all()
    # vertex 5 is isolated: the blocks of its type join nothing but their own
    # source and sink 5, so from depth 2 on the level solve drops vertices
    ring = sw.from_edges(n, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert assert_resistances_match(ring, 1, ell).tolist() == [d <= 2**ell for d in range(4)] + [False]
    # a root with no out-edges reaches only itself, whatever else is connected
    sink_only = sw.from_edges(n, [(2, 3), (3, 4), (4, 2), (5, 1)])
    assert assert_resistances_match(sink_only, 1, ell).tolist() == [True, False, False, False, False]


def test_source_resistances_of_a_lone_source():
    # a root without out-edges reaches only its own sink, through one path
    # of 3^ell constant-true edges, whatever the rest of the graph joins
    g = sw.from_edges(4, [(2, 3), (3, 2), (3, 4)])
    for ell in range(4):
        R = source_resistances(g.adj, 1, ell)
        assert np.isnan(R[1:]).all()
        assert R[0] == pytest.approx(3**ell, rel=1e-12)


@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return sw.from_edges(n, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 3))
def test_source_resistances_equal_sparse_lu_property(g, ell):
    for root in range(1, g.n + 1):
        assert_resistances_match(g, root, ell)
