import itertools
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from oracles import dstcon_questions, oracle_loop_decider
from swnet import driver as dr
from swnet import spaneval as se
from swnet import tradeoff
from swnet.errors import InvalidParams, ReachMismatch
from swnet.spaneval import decide_distance, decide_distance_report


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


@pytest.mark.parametrize("decider", [dr.exact_bfs_decider, dr.swnet_decider], ids=["exact", "swnet"])
@pytest.mark.parametrize("u, v, L", [(0, 2, 2), (6, 2, 2), (1, 0, 2), (1, 6, 2), (1, 2, 0), (1, 2, -1)])
def test_deciders_refuse_vertices_out_of_range_and_L_below_1(decider, u, v, L):
    with pytest.raises(InvalidParams):
        decider().answer(sw.random_digraph(5, 0.4, 1), u, v, L)


@pytest.mark.parametrize("decider", [dr.exact_bfs_decider, dr.swnet_decider], ids=["exact", "swnet"])
def test_row_table_keeps_no_refused_row_and_charges_every_sink_of_a_row_alike(decider):
    # both deterministic deciders read one (u, L) row table: a refused (u, L)
    # keeps no row, so it refuses again and an admitted call then answers; a
    # v == u call answers True with its row's charge, and every repeat call
    # of a (u, L), whatever its sink, returns the same charge object
    g = sw.random_digraph(8, 0.2, 1)
    table = decider()
    for _ in range(2):
        for u, L, match in ((9, 3, r"source u = 9 out of range 1\.\.8"), (1, 0, "L must be >= 1")):
            with pytest.raises(InvalidParams, match=match):
                table.answer(g, u, 2, L)
    with pytest.raises(InvalidParams, match=r"sink v = 9 out of range 1\.\.8"):
        table.answer(g, 1, 9, 3)
    first = table.answer(g, 1, 1, 3)
    assert first == (True, decider().answer(g, 1, 5, 3)[1])
    repeat = table.answer(g, 1, 5, 3)[1]
    assert repeat == replace(first[1], network_evaluations=0)
    assert table.answer(g, 1, 1, 3) == (True, repeat)
    assert table.answer(g, 1, 1, 3)[1] is repeat and table.answer(g, 1, 2, 3)[1] is repeat


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


@pytest.mark.parametrize("decider, charged", [
    (dr.exact_bfs_decider, dict(time_steps=252.0, oracle_queries=534)),
    (lambda: dr.swnet_decider("spectral"),
     dict(time_steps=3423.671084332718, oracle_queries=49621, quantum_space_cells=15, network_evaluations=5)),
], ids=["exact", "swnet-spectral"])
def test_dstcon_guard_trips_in_a_round_then_in_a_seed(decider, charged):
    # guard 7/4 = 1.75 admits one vertex beside the source: offset 0 trips in
    # its round at distance 4 ({6, 7}), offset 1 in its seed at distance 1
    # ({2, 3}), and offset 2 seeds {4} and completes with an empty round;
    # the 36 calls are the rule's questions (oracles.dstcon_questions)
    g = sw.from_edges(7, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7)])
    trace = []
    result, ledger = dr.dstcon(g, 1, 7, 4, decider=decider(), frontier_trace=trace)
    assert result == dr.CONNECTED
    assert ledger == se.ResourceLedger(space_cells=6, decider_calls=36, peak_frontier=2, **charged)
    assert len(dstcon_questions(g, 1, 7, 4)) == 36
    assert trace == [(0, 0, frozenset({1})), (2, 0, frozenset({1, 4})), (2, 1, frozenset())]


def test_dstcon_guard_trips_at_every_offset():
    # a decider that answers yes exactly to length-2 questions puts every
    # other vertex at exact distance 2 from the source; guard 6/2 = 3 admits
    # three vertices of a round and trips on the fourth, at every offset
    calls = []

    def answer(g, u, v, L):
        calls.append((u, v, L))
        return L == 2, se.ResourceLedger(decider_calls=1)

    trace = []
    decider = dr.DistDecider(name="length-2", answer=answer)
    result, ledger = dr.dstcon(sw.layered_path(6), 1, 6, 2, decider=decider, frontier_trace=trace)
    assert result == dr.NOT_CONNECTED
    assert ledger == se.ResourceLedger(space_cells=8, decider_calls=21, guard_exhausted=True, peak_frontier=4)
    assert trace == [(0, 0, frozenset({1})), (1, 0, frozenset({1}))]
    round_questions = [(1, v, k) for v in (2, 3, 4, 5) for k in (2, 1)]
    assert calls == round_questions + [(1, v, 1) for v in range(2, 7)] + round_questions


def test_dstcon_asks_each_frontier_in_the_order_it_was_filled():
    # within() asks the frontier's members in admission order: offset 2
    # seeds [9, 1] (the source first), so a question about a vertex asks 9
    # before 1, whatever order a set of {9, 1} would iterate in; the 57
    # calls are the rule's questions (oracles.dstcon_questions)
    g = sw.random_digraph(9, 0.15, 1)
    trace = []
    result, ledger = dr.dstcon(g, 9, 1, 5, frontier_trace=trace)
    assert result == dr.CONNECTED
    assert ledger == se.ResourceLedger(
        time_steps=513.0, space_cells=8, oracle_queries=1297, decider_calls=57, peak_frontier=2
    )
    assert len(dstcon_questions(g, 9, 1, 5)) == 57
    assert [list(S) for _, _, S in trace] == [[9], [8, 9], [9, 1], []]


def test_noisy_perfect_probability_is_exact():
    g = sw.random_digraph(5, 0.5, 77)
    dec = dr.noisy_decider(1.0, seed=1)
    for t in (2, 5):
        assert dr.dstcon(g, 1, t, 2, decider=dr.boosted(dec, 1))[0] == ground_truth(g, 1, t)


def test_boosted_passthrough_and_majority():
    # reps is checked for every decider, and a deterministic one is never voted
    dec = dr.exact_bfs_decider()
    assert dr.boosted(dec, 1) is dec
    assert dr.boosted(dec, 3) is dec
    with pytest.raises(InvalidParams, match="reps must be odd"):
        dr.boosted(dec, 2)
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
        got, _ = dr.dstcon(g, s, t, L, decider=dr.boosted(dr.noisy_decider(0.9, seed), 11))
        trials += 1
        errs += got != want
    assert errs / trials <= 0.05


def test_boosted_noisy_dstcon_ledger_is_pinned():
    # G(7, 0.3) seed 2, s 1, t 7, L 2, noisy seed 4: each of the 61 calls
    # votes 11 exact calls of 7 time steps; the ledger is the one dstcon
    # gave when it boosted the noisy decider itself
    g = sw.random_digraph(7, 0.3, 2)
    trace = []
    result, ledger = dr.dstcon(g, 1, 7, 2, decider=dr.boosted(dr.noisy_decider(0.9, 4), 11), frontier_trace=trace)
    assert result == dr.CONNECTED
    assert ledger == se.ResourceLedger(
        time_steps=4697.0, space_cells=8, oracle_queries=5280, decider_calls=61, peak_frontier=4
    )
    assert trace == [(0, 0, frozenset({1})), (1, 0, frozenset({1, 4, 5}))] + [(1, i, frozenset()) for i in (1, 2, 3)]


# G(n, p) at n 2..8, p in EXACT_CORPUS_PROBS, seeds 0..2: every (u, v) and L 1..n+1
EXACT_CORPUS_PROBS = (0.1, 0.3, 0.5, 0.8)


def assert_exact_decider_is_the_oracle_loop(g):
    decider, loop = dr.exact_bfs_decider(), oracle_loop_decider()
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            for L in range(1, g.n + 2):
                got, want = decider.answer(g, u, v, L), loop.answer(g, u, v, L)
                assert type(got[0]) is bool and got == want, (g.n, u, v, L)


def test_exact_decider_equals_the_oracle_loop_corpus():
    # the answer and every charge field, the row queries above all
    for n in range(2, 9):
        for p in EXACT_CORPUS_PROBS:
            for seed in range(3):
                assert_exact_decider_is_the_oracle_loop(sw.random_digraph(n, p, seed))


def dstcon_record(g, s, t, L, decider):
    """dstcon's result, every ledger field (time_steps as float.hex) and frontier trace."""
    trace = []
    result, ledger = dr.dstcon(g, s, t, L, decider=decider, frontier_trace=trace)
    fields = asdict(ledger)
    fields["time_steps"] = float.hex(fields["time_steps"])
    return result, fields, trace


def test_dstcon_with_the_exact_decider_equals_the_oracle_loop_corpus():
    # one exact decider per graph keeps each (u, L) reach across every run
    # on that graph; the oracle loop runs each BFS afresh, query by query
    for n in range(2, 9):
        for p in EXACT_CORPUS_PROBS:
            for seed in range(3):
                g, decider = sw.random_digraph(n, p, seed), dr.exact_bfs_decider()
                for s, t in ((1, n), (n, 1), (2, 1)):
                    for L in range(1, n + 1):
                        got = dstcon_record(g, s, t, L, decider)
                        assert got == dstcon_record(g, s, t, L, oracle_loop_decider()), (n, p, seed, s, t, L)


def test_exact_decider_answers_from_the_graph_it_is_asked_about():
    # the kept reach belongs to the graph last seen: an edited copy is asked afresh
    g1 = sw.layered_path(4)
    adj = g1.adj.copy()
    adj[1, 2] = False  # 2 -> 3 removed
    g2 = sw.Digraph(4, adj)
    decider, loop = dr.exact_bfs_decider(), oracle_loop_decider()
    for g, want in ((g1, True), (g2, False), (g1, True)):
        for v in (2, 3, 4):
            assert decider.answer(g, 1, v, 3) == loop.answer(g, 1, v, 3), (g is g1, v)
        assert decider.answer(g, 1, 4, 3)[0] is want
    assert decider.answer(g1, 1, 2, 3)[1] is decider.answer(g1, 1, 4, 3)[1]


def test_swnet_decider_agrees_on_small_instance():
    g = sw.layered_path(4)
    for mode in ("exact", "spectral"):
        got, ledger = dr.dstcon(g, 1, 4, 2, decider=dr.swnet_decider(mode))
        assert got == dr.CONNECTED
        assert ledger.quantum_space_cells > 0


def test_dstcon_ledger_folds_swnet_charges():
    # each call is charged its own decision ledger, at the grafted n' the
    # decision runs on (9 at length 3), not at the graph's n = 8
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


def swnet_and_exact_runs(g, s, t, L, decider):
    """dstcon through ``decider`` and through the exact decider, each as
    (result, decider calls, peak frontier, space cells, guard flag, frontier
    trace), and the first run's ledger.

    The outer loop asks the exact decider's questions in the same order
    exactly when every answer is the same, so a decider that answers as BFS
    does must give the same tuple; one that over-reaches can still give the
    right result but asks different questions.
    """
    runs, ledgers = [], []
    for each in (decider, oracle_loop_decider()):
        trace = []
        result, ledger = dr.dstcon(g, s, t, L, decider=each, frontier_trace=trace)
        runs.append((result, ledger.decider_calls, ledger.peak_frontier, ledger.space_cells,
                     ledger.guard_exhausted, trace))
        ledgers.append(ledger)
    return runs, ledgers[0]


def test_dstcon_with_swnet_decider_matches_bfs_corpus():
    # the outer algorithm end to end with the spectral decider inside, at
    # every L <= min(n, 8); L >= 5 runs depth-3 networks, up to (19, 3) at
    # n = 16.  L >= 9 would run depth-4 networks of tens of millions of edges
    decider = dr.swnet_decider("spectral")
    for n, seed in SWNET_CORPUS_SEEDS.items():
        g = sw.random_digraph(n, 0.25, seed)
        pairs = [(1, n), (n, 1), (2, n - 1)]
        for L in range(2, min(n, 8) + 1):
            s, t = pairs[L % 3]
            runs, ledger = swnet_and_exact_runs(g, s, t, L, decider)
            assert runs[0] == runs[1], (n, L, s, t)
            assert runs[0][0] == ground_truth(g, s, t), (n, L, s, t)
            assert ledger.peak_frontier <= math.ceil(n / L) + 1
            assert 0 < ledger.network_evaluations <= ledger.decider_calls
    # depth 3 on G(16, 0.1, 1) at L = 5 (grafted to 19 vertices) and L = 8; the
    # ungrafted L = 4 on G(8, 0.2, 1); and G(9, 0.15, 1) from 9, whose frontier
    # [9, 1] is asked in admission order
    for (n, p, seed), s, t, L in (((16, 0.1, 1), 1, 16, 5), ((16, 0.1, 1), 1, 16, 8),
                                  ((8, 0.2, 1), 1, 8, 4), ((9, 0.15, 1), 9, 1, 5)):
        g = sw.random_digraph(n, p, seed)
        runs, ledger = swnet_and_exact_runs(g, s, t, L, decider)
        assert runs[0] == runs[1], (n, p, seed, L)
        assert runs[0][0] == ground_truth(g, s, t), (n, p, seed, L)


def test_reach_widened_by_one_hop_fails_the_swnet_and_exact_corpus_comparison(monkeypatch):
    # the spectral verdicts are the bounded reach alone, so the corpus and
    # the property test must see a BFS that runs one hop past the rounded
    # length; the widened reach leaves every corpus result right and shows
    # only in the questions asked, so it is the comparison of the two runs'
    # tuples that fails
    real = se._reach_within
    monkeypatch.setattr(se, "_reach_within", lambda g, root, L: real(g, root, L + 1))
    with pytest.raises(AssertionError, match=r"assert \("):
        test_dstcon_with_swnet_decider_matches_bfs_corpus()
    with pytest.raises(AssertionError, match=r"assert \("):
        test_dstcon_with_swnet_decider_equals_bfs_property()


@st.composite
def dstcon_instances(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    g = sw.from_edges(n, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))
    s, t = draw(st.sampled_from(slots))
    return g, s, t, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dstcon_instances(max_n=9))
def test_exact_decider_equals_the_oracle_loop_property(instance):
    assert_exact_decider_is_the_oracle_loop(instance[0])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dstcon_instances())
def test_dstcon_with_swnet_decider_equals_bfs_property(instance):
    # the same questions as the exact decider, not only the same result
    g, s, t, L = instance
    runs, ledger = swnet_and_exact_runs(g, s, t, L, dr.swnet_decider("spectral"))
    assert runs[0] == runs[1]
    assert runs[0][0] == ground_truth(g, s, t)
    assert ledger.network_evaluations <= ledger.decider_calls


@st.composite
def question_instances(draw):
    n = draw(st.integers(2, 9))
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    g = sw.from_edges(n, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))
    s, t = draw(st.integers(1, n)), draw(st.integers(1, n))
    return g, s, t, draw(st.integers(1, n))


def formula_charges(n, L):
    """size_charges(n, L) recomputed from the formulas, at a power-of-two L."""
    ell = L.bit_length() - 1
    full = se.ResourceLedger(
        time_steps=se.time_formula(n, L), quantum_space_cells=se.quantum_space_cells(n, L),
        oracle_queries=(2 * n + 1) ** ell * n, decider_calls=1, network_evaluations=1,
    )
    repeat = replace(full, network_evaluations=0)
    return full, repeat, replace(repeat, oracle_queries=0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(question_instances())
def test_dstcon_asks_the_rules_questions_and_is_charged_for_them(instance):
    # the exact and the swnet decider (L <= 8; L = 9 needs a depth-4
    # network past the edge budget) are asked exactly the questions read
    # from BFS distances, never about a frontier member, never u == v and
    # never at a length below 1, and dstcon's ledger is the fold of those
    # questions' charges: asked one by one of a fresh exact decider, and for
    # swnet recomputed from the formulas at each question's grafted size, the
    # network evaluation counted on the first question of each (u, k)
    g, s, t, L = instance
    frontiers = []
    want = dstcon_questions(g, s, t, L, frontiers)
    assert all(v not in S and u in S and u != v and k >= 1 for (u, v, k), S in zip(want, frontiers))
    for decider in (dr.exact_bfs_decider(), dr.swnet_decider("spectral")):
        if decider.name != "exact" and L > 8:
            continue
        asked = []
        inner = decider.answer
        decider.answer = lambda g, u, v, k: asked.append((u, v, k)) or inner(g, u, v, k)
        result, ledger = dr.dstcon(g, s, t, L, decider=decider)
        assert asked == want
        assert result == ground_truth(g, s, t)
        charged, fresh, evaluated = se.ResourceLedger(), oracle_loop_decider(), set()
        for u, v, k in want:
            if decider.name == "exact":
                charged.fold(fresh.answer(g, u, v, k)[1])
                continue
            rounded = 1 << (k - 1).bit_length()
            charged.fold(formula_charges(g.n + rounded - k, rounded)[(u, k) in evaluated])
            evaluated.add((u, k))
        assert replace(ledger, space_cells=0, peak_frontier=0, guard_exhausted=False) == charged


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


def test_swnet_decider_shares_one_read_only_charge_per_source_and_length():
    # every later call of one (u, L) returns the same ledger object; folding
    # it into dstcon's ledger, directly or through a majority vote of a
    # pass-through noisy decider, must leave it as it was
    g = sw.random_digraph(8, 0.2, 1)
    decider = dr.swnet_decider("spectral")
    keys = [(u, v, L) for L in (1, 2, 3) for u in range(1, 9) for v in range(1, 9)]
    for u, v, L in keys:
        decider.answer(g, u, v, L)
    assert decider.answer(g, 1, 2, 3)[1] is decider.answer(g, 1, 5, 3)[1] is decider.answer(g, 1, 1, 3)[1]
    assert dr.dstcon(g, 1, 8, 3, decider=decider)[0] == ground_truth(g, 1, 8)
    voted = dr.boosted(dr.noisy_decider(1.0, 0, inner=decider), 3)
    result, ledger = dr.dstcon(g, 1, 8, 3, decider=voted)
    assert result == ground_truth(g, 1, 8) and ledger.network_evaluations == 0
    # sink u reads its row as every other sink does: accepted, with the row's charge
    for u, v, L in keys:
        report = decide_distance_report(g, u, v, L, mode="spectral")
        ledger = report.ledger if v != u else se.Evaluation(g, u, L, "spectral").charges[0]
        assert decider.answer(g, u, v, L) == (report.accepted, replace(ledger, network_evaluations=0))


def test_shared_charges_are_refused_every_time_and_never_changed():
    # a refused size raises on every call, and an admitted size answers after it
    for g, L, match in ((sw.layered_path(3), 8, "exceeds the power of two"),
                        (sw.random_digraph(16, 0.2, 1), 9, "MAX_NETWORK_EDGES")):
        evaluation, decider = se.Evaluation(g, 1, L, "spectral"), dr.swnet_decider("spectral")
        for _ in range(2):
            with pytest.raises(InvalidParams, match=match):
                evaluation.charges
            with pytest.raises(InvalidParams, match=match):
                decider.answer(g, 1, 2, L)
        assert decider.answer(g, 1, 2, 2) == decide_distance(g, 1, 2, 2, mode="spectral")
    # spectral-dense is charged at the same grafted size as spectral
    g5 = sw.random_digraph(5, 0.3, 1)
    dense, spectral = (se.Evaluation(g5, 1, 4, mode).charges for mode in ("spectral-dense", "spectral"))
    assert dense == spectral == formula_charges(5, 4)
    # no caller changes a shared ledger: dstcon, a majority vote, a sweep,
    # and reports, whose ledgers their callers own
    g = sw.random_digraph(8, 0.2, 1)
    voted = dr.boosted(dr.noisy_decider(1.0, 0, dr.swnet_decider("spectral")), 3)
    for decider in (dr.swnet_decider("spectral"), voted):
        assert dr.dstcon(g, 1, 8, 3, decider=decider)[0] == ground_truth(g, 1, 8)
    tradeoff.sweep({"n": [8], "S": [9, 16], "decider": "swnet", "seeds": [0, 1]})
    for mode, L in (("exact", 3), ("spectral", 3), ("spectral-dense", 2)):
        for v in range(1, 5):
            decide_distance_report(g, 1, v, L, mode).ledger.fold(se.ResourceLedger(time_steps=1.0, oracle_queries=1))
    # every size those runs read, each still cached (a hit) and as the formulas give it
    sizes = [(8, 1), (8, 2), (9, 4), (8, 4), (5, 4)]
    hits = se.size_charges.cache_info().hits
    assert all(se.size_charges(*size) == formula_charges(*size) for size in sizes)
    assert se.size_charges.cache_info().hits == hits + len(sizes)


# G(6, 0.3) in the exact and spectral modes; spectral-dense runs G(4, 0.3)
# and leaves out L = 3 only for time: it grafts to a (5, 2) network, whose
# dense decompositions have dimension 1214
PARITY_CASES = [("exact", 6, (1, 2, 3, 4)), ("spectral", 6, (1, 2, 3, 4)), ("spectral-dense", 4, (1, 2, 4))]


@pytest.mark.parametrize("mode, n, lengths", PARITY_CASES)
def test_swnet_decider_answers_every_call_as_its_report(mode, n, lengths):
    # every u, every v (v == u included, first for odd u, last for even u)
    # and every L: the answer and ledger of a fresh decision, with the
    # evaluation counted only on the first call for each (u, L); v == u is
    # accepted as its trivial report is, and charged as the row's other sinks
    g = sw.random_digraph(n, 0.3, 1)
    decider = dr.swnet_decider(mode)
    answers = set()
    for L in lengths:
        for u in range(1, n + 1):
            others = [v for v in range(1, n + 1) if v != u]
            for i, v in enumerate([u] + others if u % 2 else others + [u]):
                report = decide_distance_report(g, u, v, L, mode)
                ledger = report.ledger if v != u else se.Evaluation(g, u, L, mode).charges[0]
                want = (report.accepted, replace(ledger, network_evaluations=int(i == 0)))
                assert decider.answer(g, u, v, L) == want, (u, v, L)
                answers.add(report.accepted)
    assert answers == {True, False}
    with pytest.raises(InvalidParams, match="out of range"):
        decider.answer(g, 1, n + 1, 2)


def test_swnet_decider_finds_no_resistances_and_a_report_finds_them_once(monkeypatch):
    # the spectral verdict array is the bounded reach (R <= 3^ell on every
    # reached sink), so the decider never runs the reduction, while a
    # report of a reached sink still finds R, once per (u, L)
    calls = []
    real = se.source_resistances
    monkeypatch.setattr(se, "source_resistances", lambda *args: calls.append(args[1:]) or real(*args))
    g = sw.from_edges(5, [(1, 2), (2, 3)])
    decider = dr.swnet_decider("spectral")
    assert [decider.answer(g, 4, v, 2)[0] for v in (4, 1, 5)] == [True, False, False]
    assert [decider.answer(g, 1, v, 2)[0] for v in (5, 3, 2, 1)] == [False, True, True, True]
    assert [decider.answer(g, 2, v, 2)[0] for v in (1, 3)] == [False, True]
    assert calls == []
    report = decide_distance_report(g, 1, 3, 2, mode="spectral")
    assert (report.accepted, report.path_len) == (True, 3) and calls == [(1, 1)]
    evaluation = se.Evaluation(g, 2, 2, "spectral")
    assert [evaluation.report(v, witness=True).accepted for v in (3, 2, 1, 3)] == [True, True, False, True]
    assert calls == [(1, 1), (2, 1)]


def test_swnet_decider_holds_the_exact_labels_to_reach(monkeypatch):
    # inverted component labels trip the verdict array, which names every
    # mismatching sink index
    real = se.accepts_all
    monkeypatch.setattr(se, "accepts_all", lambda net, oracle: ~real(net, oracle))
    with pytest.raises(ReachMismatch, match=r"^sink indices \[0, 1, 2, 3\]: the component labels"):
        dr.swnet_decider("exact").answer(sw.layered_path(4), 1, 4, 2)


def test_time_accounting_shape():
    # exact decider charges n per call; call count tracks the n^3/L shape
    for n, L in [(4, 1), (4, 2), (4, 4), (5, 2)]:
        g = sw.complete(n)
        _, ledger = dr.dstcon(g, 1, n, L)
        assert ledger.time_steps == ledger.decider_calls * n
        assert ledger.decider_calls <= 40 * n**3 / L
