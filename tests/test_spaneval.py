import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from swnet import flows as fl
from swnet import spaneval as se
from swnet.errors import Disconnected, InvalidParams


def all_digraphs(n):
    slots = [(i + 1, j + 1) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([0, 1], repeat=len(slots)):
        yield sw.from_edges(n, [e for e, b in zip(slots, bits) if b])


def test_reflection_invariants():
    g = sw.random_digraph(4, 0.5, 11)
    net = sw.build(4, 1, 2)
    pair = se.build_reflections(net, sw.GraphOracle(g), 0)
    dim = pair.U.shape[0]
    assert np.abs(pair.P_A @ pair.P_A - pair.P_A).max() < 1e-10
    assert np.abs(pair.P_B @ pair.P_B - pair.P_B).max() < 1e-10
    assert np.abs(pair.P_A - pair.P_A.T).max() < 1e-10
    assert np.linalg.norm(pair.U @ pair.U.T - np.eye(dim)) < 1e-9
    assert round(np.trace(pair.P_A)) == net.edge_count + 2
    assert round(np.trace(pair.P_B)) == net.vertex_count + net.edge_count


def test_eigenphases_sign_symmetric_and_fixed_dims():
    g = sw.random_digraph(2, 0.7, 3)
    net = sw.build(2, 1, 1)
    pair = se.build_reflections(net, sw.GraphOracle(g), 0)
    lam = np.linalg.eigvals(pair.U)
    # eigenphases come in conjugate pairs: the spectrum is closed under
    # conjugation (phases at exactly pi are their own partner)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    assert sorted(map(key, lam)) == sorted(map(key, np.conj(lam)))
    # fixed space of U splits as (A cap B) + (Aperp cap Bperp)
    dim = pair.U.shape[0]
    rank = lambda M: np.linalg.matrix_rank(M, tol=1e-9)
    both = np.column_stack([pair.P_A, pair.P_B])
    dim_sum = rank(both)
    dim_AB = round(np.trace(pair.P_A) + np.trace(pair.P_B)) - dim_sum
    dim_perp = dim - dim_sum
    n_fixed = int(np.sum(np.abs(lam - 1) < 1e-9))
    assert n_fixed == dim_AB + dim_perp


def test_dense_and_sector_overlap_agree():
    for g in all_digraphs(2):
        for u in (1, 2):
            for ell in (0, 1):
                net = sw.build(2, ell, u)
                for j in range(2):
                    if j == u - 1:
                        continue
                    pair = se.build_reflections(net, sw.GraphOracle(g), j)
                    rep = se.decide_phase_estimation(pair, se.default_psi0(net))
                    mass = se.phase_mass(net, sw.GraphOracle(g), j)
                    assert rep.overlap0 == pytest.approx(mass, abs=1e-9)


def test_decide_phase_estimation_matches_oracle_and_witness_bounds():
    for g in all_digraphs(2):
        for u in (1, 2):
            d = sw.bfs_distances(g, u)
            for ell in (0, 1):
                net = sw.build(2, ell, u)
                for j in range(2):
                    if j == u - 1:
                        continue
                    pair = se.build_reflections(net, sw.GraphOracle(g), j)
                    rep = se.decide_phase_estimation(pair, se.default_psi0(net))
                    want = d[j] <= 2**ell
                    assert rep.accepted == want
                    assert 0.0 <= rep.overlap0 <= 1.0 + 1e-12
                    if want:
                        assert rep.path_len <= 3**ell
                        assert rep.witness_energy <= rep.path_len + 1e-9


def test_overlap_equals_witness_energy_identity():
    # on accepting inputs the fixed-space mass of (|s>-|t>)/sqrt2 equals
    # 2 / (2 E + 4) where E is the optimal on-flow energy: the projection
    # onto the boundary-locked on-flow space is realized by that flow
    for seed in range(10):
        g = sw.random_digraph(4, 0.5, 600 + seed)
        for u in (1, 2):
            d = sw.bfs_distances(g, u)
            for ell in (1, 2):
                net = sw.build(4, ell, u)
                for j in range(4):
                    if j == u - 1 or not d[j] <= 2**ell:
                        continue
                    mass = se.phase_mass(net, sw.GraphOracle(g), j)
                    energy = se.witness_energy(net, sw.GraphOracle(g), j)
                    assert mass == pytest.approx(2 / (2 * energy + 4), abs=1e-9)


def test_dense_route_on_medium_instances():
    for seed in (0, 7):
        g = sw.random_digraph(4, 0.5, seed)
        for u in (1, 3):
            d = sw.bfs_distances(g, u)
            net = sw.build(4, 1, u)
            for j in range(4):
                if j == u - 1:
                    continue
                pair = se.build_reflections(net, sw.GraphOracle(g), j)
                rep = se.decide_phase_estimation(pair, se.default_psi0(net))
                assert rep.accepted == (d[j] <= 2)
                assert rep.overlap0 == pytest.approx(
                    se.phase_mass(net, sw.GraphOracle(g), j), abs=1e-9
                )


def test_psi0_must_be_normalized():
    net = sw.build(2, 0, 1)
    pair = se.build_reflections(net, sw.GraphOracle(sw.complete(2)), 1)
    with pytest.raises(InvalidParams):
        se.decide_phase_estimation(pair, 2.0 * se.default_psi0(net))


def test_witness_energy_examples():
    # a single on-route of length k carries energy exactly k
    g = sw.from_edges(2, [(1, 2)])
    net = sw.build(2, 0, 1)
    assert se.witness_energy(net, sw.GraphOracle(g), 1) == pytest.approx(1.0)
    # disconnected raises
    g0 = sw.from_edges(2, [])
    with pytest.raises(Disconnected):
        se.witness_energy(sw.build(2, 0, 1), sw.GraphOracle(g0), 1)
    # parallel routes halve the energy: complete graph at depth 1, n=2
    g = sw.complete(2)
    net = sw.build(2, 1, 1)
    e_par = se.witness_energy(net, sw.GraphOracle(g), 1)
    ok, path = sw.accepts(net, sw.GraphOracle(g), 1)
    assert ok and e_par < len(path)


def test_decide_length_bounded_examples():
    g = sw.layered_path(4)
    assert se.decide_length_bounded(g, 1, 2, 1).accepted
    assert not se.decide_length_bounded(g, 1, 4, 2).accepted  # distance 3 > 2
    assert se.decide_length_bounded(g, 2, 2, 4).accepted  # u == v short-circuits
    with pytest.raises(InvalidParams):
        se.decide_length_bounded(g, 1, 2, 3)


def test_time_formula_value():
    # (L^(log 3) (2n+1)^(log L) n)^(1/2) at n=4, L=4
    want = math.sqrt(4 ** math.log2(3) * 9**2 * 4)
    assert se.time_formula(4, 4) == pytest.approx(want)


def test_decide_distance_padding():
    g = sw.layered_path(5)
    for L, u, v, want in [(3, 1, 4, True), (3, 1, 5, False), (1, 1, 2, True), (2, 5, 1, False)]:
        for mode in ("exact", "spectral"):
            ans, ledger = se.decide_distance(g, u, v, L, mode=mode)
            assert ans == want, (L, u, v, mode)
            assert ledger.decider_calls == 1
    ans, _ = se.decide_distance(g, 3, 3, 1)
    assert ans


def test_spectral_matches_exact_on_sample():
    for seed in range(12):
        g = sw.random_digraph(4, 0.4, 500 + seed)
        for u in range(1, 5):
            for v in range(1, 5):
                if u == v:
                    continue
                for L in (1, 2, 3, 4):
                    exact, _ = se.decide_distance(g, u, v, L, mode="exact")
                    spectral, _ = se.decide_distance(g, u, v, L, mode="spectral")
                    assert exact == spectral


def test_spectral_mode_takes_resistance_route_above_cap(monkeypatch):
    # the cap guards only spectral-dense: spectral mode still measures its mass
    monkeypatch.setattr(se, "SPECTRAL_DIM_CAP", 10)
    g = sw.layered_path(4)
    report = se.decide_length_bounded(g, 1, 3, 2, mode="spectral", witness=True)
    assert report.accepted
    assert report.ledger.time_steps == pytest.approx(se.time_formula(4, 2))
    assert report.route == "resistance"
    assert report.overlap0 == pytest.approx(2 / (2 * report.witness_energy + 4), abs=1e-12)
    assert report.witness_energy <= report.path_len
    assert report.overlap0 == pytest.approx(se.phase_mass(sw.build(4, 1, 1), sw.GraphOracle(g), 2), abs=1e-12)


def test_resistance_mass_equals_sector_at_8_2():
    # the identity at a size the sector eigensolve still reaches: G(8, 0.2)
    # seeds 0-2, four accepted and five rejected decisions in all
    for seed in range(3):
        g = sw.random_digraph(8, 0.2, seed)
        for u, v in [(4, 7), (6, 3), (1, 5)]:
            report = se.decide_length_bounded(g, u, v, 4, mode="spectral")
            mass = se.phase_mass(sw.build(8, 2, u), sw.GraphOracle(g), v - 1)
            assert report.route == "resistance"
            assert report.overlap0 == pytest.approx(mass, abs=1e-12), (seed, u, v)


@st.composite
def small_digraphs(draw, max_n=5):
    # n = 6 would ask L = 5, which pads to a (16, 3) network where each
    # exact-route decision runs a Python BFS over 36k or more on-edges
    n = draw(st.integers(2, max_n))
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return sw.from_edges(n, draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(small_digraphs())
def test_exact_and_spectral_modes_equal_bfs_property(g):
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            if u == v:
                continue
            d = sw.bfs_distance(g, u, v)
            for L in range(1, g.n + 1):
                want = d <= L
                assert se.decide_distance(g, u, v, L, mode="exact")[0] == want, (u, v, L)
                assert se.decide_distance(g, u, v, L, mode="spectral")[0] == want, (u, v, L)
                report = se.decide_distance_report(g, u, v, L, mode="spectral")
                assert report.accepted == want
                if want:
                    assert report.overlap0 == pytest.approx(2 / (2 * report.witness_energy + 4), abs=1e-12)
                    assert report.witness_energy <= report.path_len + 1e-9


def test_evaluation_answers_every_sink_as_decide_distance():
    # one Evaluation per (u, L) gives every sink the answer and ledger of a
    # fresh decision and the BFS answer; accepted spectral answers also match
    # the mass from the sink-grounded flow oracle's energy (the evaluation
    # grounds the source).  A fresh exact decision on a (16, 3) network runs a Python BFS
    # over 10^5 on-edges per sink, so there the exact route is held to BFS only
    for n in range(2, 9):
        g = sw.random_digraph(n, 0.3, n)
        u = 1 + n % 2
        for L in range(1, n + 1):
            for mode in ("exact", "spectral"):
                evaluation = se.Evaluation(g, u, L, mode)
                for v in range(1, n + 1):
                    shared = evaluation.report(v)
                    assert shared.accepted == (sw.bfs_distance(g, u, v) <= L), (n, L, mode, v)
                    if mode == "spectral" or v == u or evaluation.net.edge_count < 10**5:
                        assert (shared.accepted, shared.ledger) == se.decide_distance(g, u, v, L, mode=mode)
                    if mode == "spectral" and shared.accepted and v != u:
                        theta = fl.optimal_flow_lsq(evaluation.net, evaluation.mask, v - 1)
                        assert shared.overlap0 == pytest.approx(2 / (2 * (theta @ theta) + 4), rel=1e-12)


def test_dense_route_equals_exact_through_pipeline():
    # the dense route runs on the same grafted, padded network as the others;
    # a depth-2 dense case (n' = 4) takes seconds, so only two are asked
    g2, g3 = sw.from_edges(2, [(1, 2)]), sw.layered_path(3)
    cases = [(g2, 1, 2, 1), (g2, 2, 1, 2), (g3, 1, 3, 1), (g3, 1, 3, 2), (g3, 1, 3, 3), (g3, 3, 1, 4)]
    for g, u, v, L in cases:
        dense = se.decide_distance_report(g, u, v, L, mode="spectral-dense")
        exact = se.decide_distance_report(g, u, v, L, mode="exact")
        assert dense.accepted == exact.accepted == (sw.bfs_distance(g, u, v) <= L), (g.n, u, v, L)
        assert (dense.route, exact.route) == ("dense", "exact")
        assert dense.path_len == exact.path_len
        if dense.accepted:
            assert dense.overlap0 == pytest.approx(2 / (2 * exact.witness_energy + 4), abs=1e-9)


def test_dense_route_takes_witness_from_its_own_solve(monkeypatch):
    g = sw.layered_path(3)
    exact = se.decide_distance_report(g, 1, 3, 2, mode="exact")
    calls = []
    for name in ("accepts", "witness_energy"):
        monkeypatch.setattr(se, name, lambda *a, name=name: calls.append(name))
    dense = se.decide_distance_report(g, 1, 3, 2, mode="spectral-dense")
    assert (dense.accepted, dense.route, dense.path_len) == (True, "dense", exact.path_len)
    assert dense.witness_energy == pytest.approx(exact.witness_energy, abs=1e-12)
    assert calls == []


def test_ledger_fold_adds_counts_and_maxes_space():
    total = se.ResourceLedger(time_steps=1.5, space_cells=4, oracle_queries=3, quantum_space_cells=9,
                              decider_calls=1, peak_frontier=2)
    total.fold(se.ResourceLedger(time_steps=2.0, space_cells=3, oracle_queries=5, quantum_space_cells=12,
                                 decider_calls=2, peak_frontier=1))
    assert total == se.ResourceLedger(time_steps=3.5, space_cells=4, oracle_queries=8, quantum_space_cells=12,
                                      decider_calls=3, peak_frontier=2)


def test_report_routes_and_witness_switch():
    g = sw.layered_path(4)
    report = se.decide_distance_report(g, 1, 4, 3, mode="spectral")
    assert (report.accepted, report.route, report.path_len) == (True, "resistance", 9)
    assert report.overlap0 == pytest.approx(2 / (2 * report.witness_energy + 4), abs=1e-9)
    bare = se.decide_length_bounded(g, 1, 4, 4, mode="spectral")
    assert bare.witness_energy is None and bare.path_len is None
    trivial = se.decide_distance_report(g, 2, 2, 3)
    assert (trivial.route, trivial.path_len, trivial.witness_energy) == ("trivial", 0, 0.0)
    with pytest.raises(InvalidParams):
        se.decide_length_bounded(g, 1, 4, 4, mode="bogus")


def test_spectral_dense_refused_above_cap(monkeypatch):
    monkeypatch.setattr(se, "SPECTRAL_DIM_CAP", 10)
    with pytest.raises(InvalidParams, match="SPECTRAL_DIM_CAP"):
        se.decide_distance(sw.layered_path(4), 1, 3, 2, mode="spectral-dense")


def test_quantum_space_cells_rounds_L_up():
    assert se.quantum_space_cells(4, 3) == se.quantum_space_cells(4, 4) == 12
    assert se.quantum_space_cells(8, 1) < se.quantum_space_cells(8, 2)


def test_acceptance_threshold_is_half_witness_mass():
    assert se.acceptance_threshold(0) == pytest.approx(1 / 6)
    assert se.acceptance_threshold(2) == pytest.approx(1 / 22)
