import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from swnet import driver as dr
from swnet.errors import InvalidParams
from swnet.spaneval import decide_distance


def all_digraphs(n):
    slots = [(i + 1, j + 1) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([0, 1], repeat=len(slots)):
        yield sw.from_edges(n, [e for e, b in zip(slots, bits) if b])


def ground_truth(g, s, t):
    return dr.CONNECTED if sw.bfs_distance(g, s, t) != sw.INF else dr.NOT_CONNECTED


def test_exact_decider_on_path():
    g = sw.layered_path(5)
    assert dr.dstcon(g, 1, 5, 2)[0] == dr.CONNECTED
    assert dr.dstcon(g, 5, 1, 2)[0] == dr.NOT_CONNECTED


def test_exhaustive_small_graphs():
    for n in (2, 3):
        for g in all_digraphs(n):
            for s in range(1, n + 1):
                for t in range(1, n + 1):
                    if s == t:
                        continue
                    want = ground_truth(g, s, t)
                    for L in range(1, n + 1):
                        assert dr.dstcon(g, s, t, L)[0] == want


def test_random_medium_graphs():
    for n in (4, 5):
        for seed in range(25):
            g = sw.random_digraph(n, [0.2, 0.5, 0.8][seed % 3], seed)
            for s, t in [(1, n), (2, 1), (3, n - 1)]:
                want = ground_truth(g, s, t)
                for L in range(1, n + 1):
                    assert dr.dstcon(g, s, t, L)[0] == want


def test_invalid_params():
    g = sw.layered_path(4)
    with pytest.raises(InvalidParams):
        dr.dstcon(g, 1, 4, 0)
    with pytest.raises(InvalidParams):
        dr.dstcon(g, 1, 4, 5)
    with pytest.raises(InvalidParams):
        dr.boosted(dr.exact_bfs_decider(), 2)


def test_frontier_guard_and_ledger():
    for n, L in [(5, 2), (6, 2), (6, 3)]:
        for seed in range(10):
            g = sw.random_digraph(n, 0.5, 40 + seed)
            _, ledger = dr.dstcon(g, 1, n, L)
            assert ledger.peak_frontier <= math.ceil(n / L) + 1
            bits = 1 + max(math.ceil(math.log2(max(L, 2))), 1)
            assert ledger.space_cells <= (math.ceil(n / L) + 1) * bits
            assert ledger.decider_calls > 0
            assert ledger.oracle_queries > 0


def test_frontier_members_sit_at_exact_class_distances():
    # with the exact decider, every vertex admitted in round i of offset j
    # has exact distance j + i L from the source
    for n, L, seed in [(5, 2, 0), (6, 2, 3), (6, 3, 4), (8, 2, 9)]:
        g = sw.random_digraph(n, 0.4, seed)
        dist = sw.bfs_distances(g, 1)
        trace = []
        dr.dstcon(g, 1, n, L, frontier_trace=trace)
        assert trace, "at least one offset completes"
        for j, i, admitted in trace:
            if i == 0:
                continue  # the seed snapshot holds classes 0..j, checked below
            for v in admitted:
                assert dist[v - 1] == j + i * L, (n, L, seed, j, i, v)
        j0, _, seed_set = trace[0]
        for v in seed_set:
            assert dist[v - 1] in (0, j0)
    # on a plain path with L=2, offset 0 completes with frontier {1, 3, 5}
    g = sw.layered_path(6)
    trace = []
    result, ledger = dr.dstcon(g, 1, 6, 2, frontier_trace=trace)
    assert result == dr.CONNECTED
    assert ledger.peak_frontier == 3
    assert trace[0][2] == frozenset({1})
    assert trace[1][2] == frozenset({3})
    assert trace[2][2] == frozenset({5})


def test_noisy_perfect_probability_is_exact():
    g = sw.random_digraph(5, 0.5, 77)
    dec = dr.noisy_decider(1.0, seed=1)
    for t in (2, 5):
        assert dr.dstcon(g, 1, t, 2, decider=dec, boost_reps=1)[0] == ground_truth(g, 1, t)


def test_boosted_passthrough_and_majority():
    dec = dr.exact_bfs_decider()
    assert dr.boosted(dec, 1) is dec
    noisy = dr.noisy_decider(0.9, seed=3)
    maj = dr.boosted(noisy, 11)
    g = sw.random_digraph(5, 0.5, 7)
    _, one = noisy.answer(g, 1, 5, 2)
    _, charge = maj.answer(g, 1, 5, 2)
    assert charge.time_steps == 11 * one.time_steps
    assert charge.oracle_queries == 11 * one.oracle_queries
    assert (one.decider_calls, charge.decider_calls) == (1, 1)


def test_noisy_boosted_error_rate_small_sample():
    errs = 0
    trials = 0
    for seed in range(60):
        n = 4 + seed % 2
        g = sw.random_digraph(n, 0.4, 900 + seed)
        s, t = 1, n
        want = ground_truth(g, s, t)
        L = 1 + seed % n
        got, _ = dr.dstcon(g, s, t, L, decider=dr.noisy_decider(0.9, seed), boost_reps=11)
        trials += 1
        errs += got != want
    assert errs / trials <= 0.05


def test_swnet_decider_agrees_on_small_instance():
    g = sw.layered_path(4)
    for mode in ("exact", "spectral"):
        got, ledger = dr.dstcon(g, 1, 4, 2, decider=dr.swnet_decider(mode))
        assert got == dr.CONNECTED
        assert ledger.quantum_space_cells > 0


def test_dstcon_ledger_folds_swnet_charges():
    # each call is charged its own decision ledger, at the grafted, padded
    # n' = 16 the decision runs on, not at the graph's n = 8
    g = sw.random_digraph(8, 0.2, 1)
    charges = []
    decider = dr.swnet_decider("spectral")
    inner = decider.answer

    def recording(*args):
        answer, charge = inner(*args)
        charges.append(charge)
        return answer, charge

    decider.answer = recording
    result, ledger = dr.dstcon(g, 1, 8, 3, decider=decider)
    assert result == ground_truth(g, 1, 8)
    assert ledger.decider_calls == len(charges) > 0
    assert ledger.time_steps == sum(c.time_steps for c in charges)
    assert ledger.quantum_space_cells == max(c.quantum_space_cells for c in charges)
    assert ledger.oracle_queries == sum(c.oracle_queries for c in charges)


# G(n, 0.25) seeds where 1 reaches n at distance >= 2, n does not reach 1,
# and 2 reaches n - 1
SWNET_CORPUS_SEEDS = {4: 62, 5: 3, 6: 39, 7: 7, 8: 52, 9: 3, 10: 21, 11: 68, 12: 18, 13: 43, 14: 5, 15: 111, 16: 86}


def test_dstcon_with_swnet_decider_matches_bfs_corpus():
    # the outer algorithm end to end with the spectral decider inside;
    # L >= 5 at n >= 6 runs (16, 3) networks.  Above n = 8 it keeps to
    # L in {2, 4}: dstcon also asks L - 1, and at n = 16 a length of 5..7
    # grafts and pads to a (32, 3) network of 8.8M edges
    decider = dr.swnet_decider("spectral")
    for n, seed in SWNET_CORPUS_SEEDS.items():
        g = sw.random_digraph(n, 0.25, seed)
        pairs = [(1, n), (n, 1), (2, n - 1)]
        for L in range(2, n + 1) if n <= 8 else (2, 4):
            s, t = pairs[L % 3]
            result, ledger = dr.dstcon(g, s, t, L, decider=decider)
            assert result == ground_truth(g, s, t), (n, L, s, t)
            assert ledger.peak_frontier <= math.ceil(n / L) + 1
            assert 0 < ledger.network_evaluations <= ledger.decider_calls


@st.composite
def dstcon_instances(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    g = sw.from_edges(n, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))
    s, t = draw(st.sampled_from(slots))
    return g, s, t, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dstcon_instances())
def test_dstcon_with_swnet_decider_equals_bfs_property(instance):
    g, s, t, L = instance
    result, ledger = dr.dstcon(g, s, t, L, decider=dr.swnet_decider("spectral"))
    assert result == ground_truth(g, s, t)
    assert ledger.network_evaluations <= ledger.decider_calls


def test_swnet_decider_answers_for_the_graph_it_is_asked_about():
    # the same (u, L) on a second graph must not reuse the first graph's answers
    g1 = sw.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    g2 = sw.from_edges(4, [(1, 2)])
    decider = dr.swnet_decider("spectral")
    for g in (g1, g2, g1):
        for v in range(2, 5):
            got, charge = decider.answer(g, 1, v, 3)
            want, full = decide_distance(g, 1, v, 3, mode="spectral")
            assert got == want == (sw.bfs_distance(g, 1, v) <= 3), v
            assert charge == replace(full, network_evaluations=int(v == 2))


def test_swnet_decider_charges_every_call_and_counts_evaluations():
    g = sw.random_digraph(8, 0.2, 1)
    decider = dr.swnet_decider("exact")
    charges = [decider.answer(g, 1, v, 3)[1] for v in (2, 3, 2, 5)]
    full = decide_distance(g, 1, 3, 3)[1]
    assert [c.network_evaluations for c in charges] == [1, 0, 0, 0]
    assert all(replace(c, network_evaluations=1) == full for c in charges)
    _, ledger = dr.dstcon(g, 1, 8, 3, decider=dr.exact_bfs_decider())
    assert ledger.network_evaluations == 0


def test_time_accounting_shape():
    # exact decider charges n per call; call count tracks the n^3/L shape
    for n, L in [(4, 1), (4, 2), (4, 4), (5, 2)]:
        g = sw.complete(n)
        _, ledger = dr.dstcon(g, 1, n, L)
        assert ledger.time_steps == ledger.decider_calls * n
        assert ledger.decider_calls <= 40 * n**3 / L
