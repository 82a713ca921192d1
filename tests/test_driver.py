import itertools
import math

import pytest

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


def test_dstcon_ledger_folds_swnet_charges(monkeypatch):
    # each call is charged its own decision ledger, at the grafted, padded
    # n' = 16 the decision runs on, not at the graph's n = 8
    g = sw.random_digraph(8, 0.2, 1)
    charges = []

    def recording(*args, **kwargs):
        answer, charge = decide_distance(*args, **kwargs)
        charges.append(charge)
        return answer, charge

    monkeypatch.setattr(dr, "decide_distance", recording)
    result, ledger = dr.dstcon(g, 1, 8, 3, decider=dr.swnet_decider("spectral"))
    assert result == ground_truth(g, 1, 8)
    assert ledger.decider_calls == len(charges) > 0
    assert ledger.time_steps == sum(c.time_steps for c in charges)
    assert ledger.quantum_space_cells == max(c.quantum_space_cells for c in charges)
    assert ledger.oracle_queries == sum(c.oracle_queries for c in charges)


def test_time_accounting_shape():
    # exact decider charges n per call; call count tracks the n^3/L shape
    for n, L in [(4, 1), (4, 2), (4, 4), (5, 2)]:
        g = sw.complete(n)
        _, ledger = dr.dstcon(g, 1, n, L)
        assert ledger.time_steps == ledger.decider_calls * n
        assert ledger.decider_calls <= 40 * n**3 / L
