import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swnet as sw
from swnet import driver
from swnet import flows as fl
from swnet import spaneval as se
from swnet.errors import Disconnected, InvalidParams
from swnet.network import source_resistances
from oracles import on_distances


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


@pytest.mark.parametrize("n, ell", [(2, 2), (4, 1), (4, 2), (2, 3)])
def test_walk_operator_reflects_around_the_generated_complement(n, ell):
    # the module docstring's U_alg = (2 P_A - I)(2 P_Bperp - I) = -(2 P_A - I)(2 P_B - I);
    # (2 P_A - I)(I - 2 P_Bperp) is U, not U_alg
    g = sw.random_digraph(n, 0.5, 3)
    net = sw.build(n, ell, 1)
    for j in range(n):
        pair = se.build_reflections(net, sw.GraphOracle(g), j)
        eye = np.eye(pair.U.shape[0])
        reflect_A = 2 * pair.P_A - eye
        assert np.abs(pair.U_alg - reflect_A @ (2 * (eye - pair.P_B) - eye)).max() < 1e-11
        assert np.abs(pair.U_alg + reflect_A @ (2 * pair.P_B - eye)).max() < 1e-11


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
    # the dense route through the pipeline, which fills its witness fields
    for g in all_digraphs(2):
        for u in (1, 2):
            d = sw.bfs_distances(g, u)
            for ell in (0, 1):
                for j in range(2):
                    if j == u - 1:
                        continue
                    rep = se.Evaluation(g, u, 2**ell, "spectral-dense").report(j + 1, witness=True)
                    want = d[j] <= 2**ell
                    assert rep.route == "dense"
                    assert rep.accepted == want
                    assert 0.0 <= rep.overlap0 <= 1.0 + 1e-12
                    if want:
                        assert rep.path_len == 3**ell
                        assert rep.witness_energy <= rep.path_len + 1e-9


def test_decide_phase_estimation_witness_is_opt_in(monkeypatch):
    # the dense decision itself never computes a witness
    g = sw.layered_path(2)
    net = sw.build(2, 1, 1)
    pair = se.build_reflections(net, sw.GraphOracle(g), 1)
    calls = []
    monkeypatch.setattr(fl, "optimal_flow_lsq", lambda *a: calls.append(a))
    rep = se.decide_phase_estimation(pair, se.default_psi0(net))
    assert rep.accepted and (rep.witness_energy, rep.path_len) == (None, None)
    # nor does the pipeline's dense route ask the flow oracle for one
    assert se.Evaluation(g, 1, 2, "spectral-dense").report(2, witness=True).path_len == 3
    assert calls == []


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


@pytest.mark.parametrize("n, ell", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1)])
def test_sector_mass_equals_the_resistance_mass_at_any_n(n, ell):
    # the Helmert-signed complement basis reads 2 / (2 R + 4) on reached
    # sinks, R from the boundary reduction, and nothing on the others;
    # largest relative error seen over these 228 masses: 4.9e-14
    for seed in range(3):
        g = sw.random_digraph(n, 0.3, seed)
        for root in (1, 2):
            net = sw.build(n, ell, root)
            R = source_resistances(g.adj, root, ell)
            for j in range(n):
                mass = se.phase_mass(net, sw.GraphOracle(g), j)
                if np.isnan(R[j]):
                    assert mass <= se.PHASE_TOL, (seed, root, j)
                else:
                    assert mass == pytest.approx(2 / (2 * R[j] + 4), rel=1e-12, abs=0), (seed, root, j)


def test_spectral_dense_decides_unpadded_at_5_2():
    # G(5, 0.3) at L = 4 builds the (5, 2) network in every mode, state
    # dimension 1214, and the dense spectrum reads the resistance route's mass
    # (0.2623231923871013 against 0.2623231923871015 when this was written)
    g = sw.random_digraph(5, 0.3, 1)
    dense = se.Evaluation(g, 1, 4, "spectral-dense")
    spectral = se.Evaluation(g, 1, 4, "spectral")
    report, want = dense.report(2, witness=True), spectral.report(2, witness=True)
    assert (dense.net.n, dense.net.ell) == (5, 2) and 2 * dense.net.edge_count + 4 == 1214
    assert report.route == "dense" and report.accepted == want.accepted == (sw.bfs_distance(g, 1, 2) <= 4)
    assert report.overlap0 == pytest.approx(want.overlap0, rel=1e-12, abs=0)
    assert report.ledger == want.ledger and dense.charges == spectral.charges


def test_a_report_owns_its_ledger():
    # setting every field of a report's ledger leaves the shared size charges as they were
    g = sw.random_digraph(5, 0.3, 1)
    for mode, L in (("exact", 3), ("spectral", 3), ("spectral", 4), ("spectral-dense", 2)):
        evaluation = se.Evaluation(g, 1, L, mode)
        for v in (1, 2, 5):
            n = g.n if v == 1 else g.n + evaluation.L - L
            before = [se.ResourceLedger(**vars(c)) for c in se.size_charges(n, evaluation.L)]
            ledger = evaluation.report(v).ledger
            for name, value in vars(ledger).items():
                setattr(ledger, name, value + 7)
            assert list(se.size_charges(n, evaluation.L)) == before, (mode, L, v)


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
def small_digraphs(draw, max_n=6):
    # n = 6 asks L = 5, which grafts to a (9, 3) network
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
                evaluation = se.Evaluation(g, u, L, "spectral")  # decide_distance_report's evaluation
                report = evaluation.report(v, witness=True)
                assert report.accepted == want
                if want:
                    assert report.overlap0 == pytest.approx(2 / (2 * report.witness_energy + 4), abs=1e-12)
                    assert report.witness_energy <= report.path_len + 1e-9
                    net = evaluation.net
                    mask = sw.on_edge_mask(net, sw.GraphOracle(evaluation.graph))
                    assert report.path_len == 3**net.ell == on_distances(net, mask)[net.sink(v - 1)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_digraphs(max_n=8))
def test_spectral_verdicts_equal_the_thresholded_masses_property(g):
    # the witness bound R <= 3^ell on every reached sink makes the masses
    # thresholded at acceptance_threshold(ell) equal the bounded reach, at
    # every root and every admitted L <= 8 (up to a grafted (11, 3) network)
    for u in range(1, g.n + 1):
        for L in range(1, 9):
            rounded = 1 << (L - 1).bit_length()
            if rounded > 1 << (g.n + rounded - L - 1).bit_length():
                continue  # refused: past the power of two at or above the grafted vertex count
            evaluation = se.Evaluation(g, u, L, "spectral")
            verdicts = evaluation.verdicts()
            ell, reach = evaluation.ell, evaluation._reach
            R = source_resistances(evaluation.graph.adj, evaluation._root, ell)
            old = np.where(reach, 2 / (2 * R + 4), 0.0) >= se.acceptance_threshold(ell)
            assert np.array_equal(verdicts, old[: g.n]), (u, L)
            assert np.max(R[reach] / 3**ell) <= 1 + 1e-9, (u, L)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_digraphs(max_n=8))
def test_reach_off_the_input_graph_equals_the_grafted_bfs_property(g):
    # reach read off the input graph, with the chain reached, is the BFS of
    # the grafted graph from the chain head bounded at the rounded L, at
    # every root, every admitted L <= 8 and in every mode
    for u in range(1, g.n + 1):
        for L in range(1, 9):
            rounded = 1 << (L - 1).bit_length()
            if rounded > 1 << (g.n + rounded - L - 1).bit_length():
                continue  # refused: past the power of two at or above the grafted vertex count
            grafted, head = sw.attach_source_path(g, u, rounded - L)
            for mode in ("exact", "spectral", "spectral-dense"):
                reach = se.Evaluation(g, u, L, mode)._reach
                assert np.array_equal(reach, sw.graphs._reach_within(grafted, head, rounded)[0]), (u, L, mode)


def test_evaluation_answers_every_sink_as_decide_distance():
    # one Evaluation per (u, L) gives every sink the answer and ledger of a
    # fresh decision and the BFS answer; accepted spectral answers also match
    # the mass from the sink-grounded flow oracle's energy (the evaluation
    # grounds the source)
    for n in range(2, 9):
        g = sw.random_digraph(n, 0.3, n)
        u = 1 + n % 2
        for L in range(1, n + 1):
            for mode in ("exact", "spectral"):
                evaluation = se.Evaluation(g, u, L, mode)
                for v in range(1, n + 1):
                    shared = evaluation.report(v)
                    assert shared.accepted == (sw.bfs_distance(g, u, v) <= L), (n, L, mode, v)
                    assert (shared.accepted, shared.ledger) == se.decide_distance(g, u, v, L, mode=mode)
                    if mode == "spectral" and shared.accepted and v != u:
                        mask = sw.on_edge_mask(evaluation.net, sw.GraphOracle(evaluation.graph))
                        theta = fl.optimal_flow_lsq(evaluation.net, mask, v - 1)
                        assert shared.overlap0 == pytest.approx(2 / (2 * (theta @ theta) + 4), rel=1e-12)


def test_decision_is_charged_at_the_unpadded_grafted_size():
    # n = 8 at L = 3 grafts one vertex and builds (9, 2), not the padded (16, 2)
    g = sw.random_digraph(8, 0.2, 1)
    for mode in ("exact", "spectral"):
        evaluation = se.Evaluation(g, 1, 3, mode)
        report = evaluation.report(5)
        assert (evaluation.net.n, evaluation.net.ell) == (9, 2)
        assert report.ledger == se.ResourceLedger(
            time_steps=se.time_formula(9, 4), quantum_space_cells=se.quantum_space_cells(9, 4),
            oracle_queries=19**2 * 9, decider_calls=1, network_evaluations=1,
        )
    # spectral-dense builds and is charged at the same (3, 1) size
    g3 = sw.layered_path(3)
    dense = se.decide_distance_report(g3, 1, 3, 2, mode="spectral-dense")
    exact = se.decide_distance_report(g3, 1, 3, 2, mode="exact")
    assert dense.accepted and exact.accepted
    for report in (dense, exact):
        assert report.ledger.time_steps == se.time_formula(3, 2) and report.ledger.oracle_queries == 7 * 3


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_length_up_to_the_power_of_two_above_n_is_answered(mode):
    # n = 3, L = 4 grafts nothing and runs on a (3, 2) network; a length past
    # the power of two at or above the grafted vertex count is refused
    g = sw.layered_path(3)
    evaluation = se.Evaluation(g, 1, 4, mode)
    assert evaluation.report(3).accepted
    assert (evaluation.net.n, evaluation.net.ell) == (3, 2)
    assert not se.Evaluation(g, 3, 4, mode).report(1).accepted
    for L in (8, 2**40):
        with pytest.raises(InvalidParams, match="exceeds"):
            se.decide_distance(g, 1, 3, L, mode=mode)


def test_same_source_and_sink_builds_no_network(monkeypatch):
    built, oracles = [], []
    monkeypatch.setattr(sw.network, "structure", lambda *a: built.append(a))
    monkeypatch.setattr(se, "GraphOracle", lambda *a: oracles.append(a))
    g = sw.random_digraph(5, 0.3, 2)
    for mode in ("exact", "spectral", "spectral-dense"):
        answer, ledger = se.decide_distance(g, 2, 2, 3, mode=mode)
        assert answer
        assert ledger == se.ResourceLedger(
            time_steps=se.time_formula(5, 4), quantum_space_cells=se.quantum_space_cells(5, 4), decider_calls=1,
        )
    assert se.decide_distance(g, 2, 2, 2**40)[0]
    assert built == oracles == []


def test_spectral_decisions_build_no_network(monkeypatch):
    # the resistance route reads reach from the bounded BFS and R from the
    # boundary Laplacian: no structure, mask or component labels, in a
    # decision or in dstcon
    def refuse(*args):
        raise AssertionError("the spectral route built the network")

    for module, name in ((sw.network, "structure"), (se, "build"), (se, "on_edge_mask"), (sw.network, "on_edge_mask"),
                         (sw.network, "on_component"), (se, "accepts_all")):
        monkeypatch.setattr(module, name, refuse)
    g = sw.random_digraph(8, 0.2, 1)
    seen = set()
    for L in range(1, 9):  # ell 0..3, grafted at every L that is not a power of two
        for u in (1, 2):
            for v in range(1, 9):
                report = se.decide_distance_report(g, u, v, L, mode="spectral")
                assert report.accepted == (sw.bfs_distance(g, u, v) <= L), (L, u, v)
                seen.add(((L - 1).bit_length(), report.accepted))
    assert seen == {(ell, answer) for ell in range(4) for answer in (True, False)}
    # only a report that reads R grafts: verdicts, rejections and dstcon
    # read reach off the input graph
    def refuse_graft(*args):
        raise AssertionError("a spectral verdict or rejection grafted the input")

    monkeypatch.setattr(se, "attach_source_path", refuse_graft)
    for L in range(1, 9):
        for u in (1, 2):
            want = [sw.bfs_distance(g, u, v) <= L for v in range(1, 9)]
            assert se.Evaluation(g, u, L, "spectral").verdicts() == want, (L, u)
            for v in np.flatnonzero(~np.array(want)) + 1:
                assert not se.decide_distance_report(g, u, int(v), L, mode="spectral").accepted, (L, u, v)
    decider = driver.swnet_decider("spectral")
    for s, t in ((1, 5), (2, 7), (5, 1)):
        for L in (3, 4):
            want = driver.CONNECTED if sw.bfs_distance(g, s, t) < sw.INF else driver.NOT_CONNECTED
            assert driver.dstcon(g, s, t, L, decider=decider)[0] == want, (s, t, L)


@pytest.mark.parametrize("mode", ["exact", "spectral", "spectral-dense"])
def test_refusals_fire_before_anything_is_grafted(monkeypatch, mode):
    # verdicts() and a report of v != u read the charge first: L = 8 on 3
    # vertices passes the power of two at or above the grafted vertex count,
    # and L = 9 on 16 vertices grafts to a (23, 4) network past the edge budget
    def refuse(*args):
        raise AssertionError("a refused evaluation grafted the input")

    monkeypatch.setattr(se, "attach_source_path", refuse)
    for g, L, match in ((sw.layered_path(3), 8, "exceeds the power of two"),
                        (sw.random_digraph(16, 0.2, 1), 9, "MAX_NETWORK_EDGES")):
        evaluation = se.Evaluation(g, 1, L, mode)
        with pytest.raises(InvalidParams, match=match):
            evaluation.verdicts()
        with pytest.raises(InvalidParams, match=match):
            evaluation.report(2)
        assert evaluation.report(1).route == "trivial"


def test_a_rejection_reads_no_resistance(monkeypatch):
    # from 1, vertices 2 and 3 are reached within every L >= 2 and 4, 5 never
    # are: their rejections answer from the bounded BFS alone, at a plain
    # and at a grafted length, while the reached sinks still need R
    class ResistanceRead(Exception):
        pass

    def refuse(*args):
        raise ResistanceRead

    monkeypatch.setattr(se, "source_resistances", refuse)
    g = sw.from_edges(5, [(1, 2), (2, 3), (4, 5)])
    for L in (2, 3):
        for v in (4, 5):
            report = se.decide_distance_report(g, 1, v, L, mode="spectral")
            assert (report.accepted, report.overlap0, report.route) == (False, 0.0, "resistance")
            assert report.witness_energy is None and report.path_len is None
        for v in (2, 3):
            with pytest.raises(ResistanceRead):
                se.decide_distance_report(g, 1, v, L, mode="spectral")


def test_dense_route_equals_exact_through_pipeline():
    # the dense route runs on the same grafted network as the others: every
    # (u, v) pair of a 2-vertex graph at L <= 2, a 3-vertex graph at L <= 4
    # and a 4-vertex graph at L = 4.  The 4-vertex graph at L = 3 is left
    # out only for time: it grafts to 5 vertices, a (5, 2) network whose
    # dense state space has dimension 1214
    g2, g3 = sw.from_edges(2, [(1, 2)]), sw.layered_path(3)
    g4 = sw.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 2)])
    cases = [(g2, 1), (g2, 2), (g3, 1), (g3, 2), (g3, 3), (g3, 4), (g4, 4)]
    for g, L in cases:
        for u in range(1, g.n + 1):
            dense_eval, exact_eval = se.Evaluation(g, u, L, "spectral-dense"), se.Evaluation(g, u, L, "exact")
            for v in range(1, g.n + 1):
                dense, exact = dense_eval.report(v, witness=True), exact_eval.report(v, witness=True)
                assert dense.accepted == exact.accepted == (sw.bfs_distance(g, u, v) <= L), (g.n, u, v, L)
                assert dense.path_len == exact.path_len
                if u == v:
                    continue
                assert (dense.route, exact.route) == ("dense", "exact")
                assert (dense_eval.net.n, dense_eval.net.ell) == (exact_eval.net.n, exact_eval.net.ell)
                if dense.accepted:
                    assert dense.overlap0 == pytest.approx(2 / (2 * exact.witness_energy + 4), abs=1e-9)


def test_dense_route_takes_witness_from_its_own_solve(monkeypatch):
    # the evaluation's own boundary Laplacian, as on the other routes
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
    # each maximum from either side (a tie keeps the value), the guard flag
    # set from either side, and the folded ledger left as it was
    for name in ("space_cells", "quantum_space_cells", "peak_frontier"):
        for mine, theirs in [(7, 3), (3, 7), (5, 5), (0, 0)]:
            total, other = se.ResourceLedger(**{name: mine}), se.ResourceLedger(**{name: theirs})
            total.fold(other)
            assert total == se.ResourceLedger(**{name: max(mine, theirs)}), (name, mine, theirs)
            assert other == se.ResourceLedger(**{name: theirs})
    for mine, theirs in itertools.product([False, True], repeat=2):
        total = se.ResourceLedger(guard_exhausted=mine)
        total.fold(se.ResourceLedger(guard_exhausted=theirs, network_evaluations=1))
        assert total == se.ResourceLedger(guard_exhausted=mine or theirs, network_evaluations=1)
        assert type(total.guard_exhausted) is bool


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
