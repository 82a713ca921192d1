"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one summary line (run pytest with -s to see them all).
The desk-scale corpus shared by several criteria is every digraph on two
vertices plus 200 seeded random digraphs on four vertices, over all ordered
vertex pairs and depths 0..2.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import swnet as sw
from swnet import driver as dr
from swnet import flows as fl
from swnet import pebbling as pb
from swnet import prep
from swnet import spaneval as se
from swnet import tradeoff as to
from oracles import bitdot, max_pair_distance, max_pebbled_distance, reachable_configs

N4_GRAPHS = 200
EDGE_PROBS = (0.2, 0.5, 0.8)


def report(num: int, ok: bool, text: str):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def corpus():
    graphs = [(2, g) for g in _all_digraphs(2)]
    graphs += [
        (4, sw.random_digraph(4, EDGE_PROBS[seed % 3], seed)) for seed in range(N4_GRAPHS)
    ]
    return graphs


def _all_digraphs(n):
    slots = [(i + 1, j + 1) for i in range(n) for j in range(n) if i != j]
    return [
        sw.from_edges(n, [e for e, b in zip(slots, bits) if b])
        for bits in itertools.product([0, 1], repeat=len(slots))
    ]


def _instances(graphs):
    for n, g in graphs:
        for u in range(1, n + 1):
            dist = sw.bfs_distances(g, u)
            for ell in (0, 1, 2):
                yield n, g, u, dist, ell


def test_criterion_01_network_correctness(corpus):
    t0 = time.time()
    mismatches = checked = 0
    for n, g, u, dist, ell in _instances(corpus):
        acc = sw.accepts_all(sw.build(n, ell, u), sw.GraphOracle(g))
        for v in range(1, n + 1):
            if v == u:
                continue
            checked += 1
            mismatches += acc[v - 1] != (dist[v - 1] <= 2**ell)
    elapsed = time.time() - t0
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"accepts == (distance <= 2^ell) on {checked} instances "
        f"({N4_GRAPHS} seeded n=4 digraphs + exhaustive n=2), "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_counting_identities():
    ok = True
    checked = []
    for n in (2, 4, 8):
        v_expect = n + 1
        for ell in range(4):
            edges = (2 * n + 1) ** ell * n
            if edges > 10**5:
                break
            st = sw.structure(n, ell)
            ok &= st.edge_count == edges
            ok &= st.vertex_count == v_expect
            checked.append((n, ell))
            v_expect = (2 * n + 1) * v_expect - n * n - n
    report(2, ok, f"|E| and |V| identities exact at {checked}")


def test_criterion_03_basis_validity():
    ok = True
    details = []
    for n, L in [(2, 2), (2, 4), (4, 2)]:
        ell = int(math.log2(L))
        net = sw.build(n, ell, 1)
        for j in range(n):
            Q = fl.build_Bperp_basis(net, j)
            card_ok = Q.shape[1] == net.edge_count + 4 - net.vertex_count
            gram = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
            # circulation members have zero divergence at every vertex
            div_worst = 0.0
            for k in range(Q.shape[1] - 3):  # all but the flow and |s>, |t>
                theta = Q[: net.edge_count, k] / math.sqrt(2.0)
                div_worst = max(div_worst, np.abs(fl.divergence(net, theta)).max())
            P_B = fl.projector(fl.build_B_spanning(net, j))
            frob = np.linalg.norm(P_B + fl.projector(fl.reduced_to_full(net, Q)) - np.eye(P_B.shape[0]))
            ok &= card_ok and gram < 1e-9 and div_worst < 1e-9 and frob < 1e-8
            details.append(f"n={n},L={L},j={j}: gram {gram:.1e} frob {frob:.1e}")
    report(3, ok, f"complement bases orthogonal, right size, circulating; {details[-1]}")


def test_criterion_04_optimal_flow_identity():
    ok = True
    worst = 0.0
    for n in (2, 4):
        for L in (2, 4):
            ell = int(math.log2(L))
            net = sw.build(n, ell, 1)
            mask = np.ones(net.edge_count, dtype=bool)
            for j in range(n):
                lsq = fl.optimal_flow_lsq(net, mask, j)
                rec = fl.unit_flow(n, ell, j).astype(float) / float(n) ** ell
                worst = max(worst, float(np.abs(lsq - rec).max()))
            # closed-form norms match the integer-exact vectors
            scale = n**ell
            T = fl.unit_flow(n, ell, 0)
            ok &= Fraction(int(T @ T), scale * scale) == fl.flow_norm_sq(n, ell)
            S = np.array(fl._sum_unit_flows(n, ell), dtype=object)
            ok &= Fraction(int(S @ S), scale * scale) == fl.flow_sum_norm_sq(n, ell)
            TX = sum((-1) ** bitdot(1, j) * fl.unit_flow(n, ell, j) for j in range(n))
            ok &= Fraction(int(TX @ TX), scale * scale) == fl.signed_flow_sum_norm_sq(n, ell)
    ok &= worst < 1e-9
    report(4, ok, f"recursive optimal flows == least-squares oracle (worst {worst:.1e}); norms exact")


def test_criterion_05_state_preparation_fidelity():
    worst = 0.0
    budget_ok = True

    def res(got, targ):
        g = got / np.linalg.norm(got)
        t = np.asarray(targ, float)
        t /= np.linalg.norm(t)
        return 2.0 if g @ t <= 0 else float(np.abs(g - t).max())

    for n in (2, 4):
        for ell in (0, 1, 2):
            net = sw.build(n, ell, 1)
            v, _ = prep.prepare_sum_of_flows(n, ell)
            worst = max(worst, res(v, sum(fl.unit_flow(n, ell, j) for j in range(n))))
            for x in range(n):
                v, _ = prep.fourier_flows_C(n, ell, x)
                targ = sum((-1) ** bitdot(x, j) * fl.unit_flow(n, ell, j) for j in range(n))
                worst = max(worst, res(v, targ))
            for j in range(n):
                v, _ = prep.prepare_theta(n, ell, j, with_boundary=True)
                worst = max(worst, res(v, fl.flow_state(net, j)))
            if ell >= 1:
                for z in range(1, n):
                    for x in range(n):
                        v, _ = prep.prepare_psi(n, ell, z, x)
                        worst = max(worst, res(v, fl.fourier_circulation(n, ell, z, x)))
        logn = max(int(math.log2(n)), 1)
        for fn in (
            lambda l: prep.prepare_sum_of_flows(n, l)[1].gate_count,
            lambda l: prep.fourier_flows_C(n, l, 1)[1].gate_count,
            lambda l: prep.prepare_theta(n, l, 0)[1].gate_count,
        ):
            budget_ok &= all(fn(l) - fn(l - 1) <= 8 * logn for l in (1, 2, 3))
        budget_ok &= all(
            prep.prepare_psi(n, l, 1, 1)[1].gate_count
            - prep.prepare_psi(n, l - 1, 1, 1)[1].gate_count
            <= 8 * logn
            for l in (2, 3)
        )
    report(5, worst < 1e-9 and budget_ok, f"all preparer residuals < 1e-9 (worst {worst:.1e}); gate budget holds")


def test_criterion_06_spectral_decider_calibration(corpus, monkeypatch):
    # phase_mass builds the complement basis on every call; it depends only
    # on (n, ell, sink), not on the root, so the corpus builds each one once
    bases, build = {}, fl.build_Bperp_basis

    def cached_basis(net, sink_j):
        key = (net.n, net.ell, sink_j)
        if key not in bases:
            bases[key] = build(net, sink_j)
        return bases[key]

    monkeypatch.setattr(fl, "build_Bperp_basis", cached_basis)
    t0 = time.time()
    mismatches = checked = 0
    for n, g, u, dist, ell in _instances(corpus):
        net = sw.build(n, ell, u)
        threshold = se.acceptance_threshold(ell)  # the single global rule
        for v in range(1, n + 1):
            if v == u:
                continue
            mass = se.phase_mass(net, sw.GraphOracle(g), v - 1)
            checked += 1
            mismatches += (mass >= threshold) != (dist[v - 1] <= 2**ell)
    elapsed = time.time() - t0
    report(
        6,
        mismatches == 0,
        f"fixed-space mass with threshold 1/(2 W+ + 4) matches the exact "
        f"oracle on all {checked} instances ({mismatches} mismatches, {elapsed:.0f}s)",
    )


def test_criterion_07_pebbling():
    ok = True
    for L in (1, 2, 4, 8):
        g = sw.layered_path(L + 1)
        moves = pb.strategy_moves(g, list(range(1, L + 2)))
        final, peak = pb.replay(g, 1, moves)  # raises IllegalMove if broken
        ok &= len(moves) == 3 ** int(math.log2(L))
        ok &= peak <= int(math.log2(L)) + 2
        ok &= final == frozenset({1, L + 1})
    for ell in (2, 3, 4):
        g = sw.layered_path(2 ** (ell - 1) + 3)
        dist = sw.bfs_distances(g, 1)
        cfgs = reachable_configs(g, 1, ell)
        ok &= max_pebbled_distance(cfgs, dist) <= 2 ** (ell - 1) - 1
        ok &= max_pair_distance(cfgs, 1, dist) <= 2 ** (ell - 2)
    report(7, ok, "strategy uses 3^(log L) moves, <= log L + 2 pebbles; search confirms distance bounds")


def test_criterion_08_outer_algorithm():
    mism = runs = 0
    guard_ok = True
    for n in (2, 3):
        for g in _all_digraphs(n):
            for s in range(1, n + 1):
                d = sw.bfs_distances(g, s)
                for t in range(1, n + 1):
                    if s == t:
                        continue
                    want = dr.CONNECTED if d[t - 1] != sw.INF else dr.NOT_CONNECTED
                    for L in range(1, n + 1):
                        got, led = dr.dstcon(g, s, t, L)
                        runs += 1
                        mism += got != want
                        guard_ok &= led.peak_frontier <= math.ceil(n / L) + 1
    rand_instances = 0
    for n in (4, 5):
        for seed in range(70):
            g = sw.random_digraph(n, EDGE_PROBS[seed % 3], seed)
            for s, t in [(1, n), (2, 1), (3, n - 1), (n, 2)]:
                rand_instances += 1
                want = dr.CONNECTED if sw.bfs_distance(g, s, t) != sw.INF else dr.NOT_CONNECTED
                for L in range(1, n + 1):
                    got, led = dr.dstcon(g, s, t, L)
                    runs += 1
                    mism += got != want
                    guard_ok &= led.peak_frontier <= math.ceil(n / L) + 1
    errs = trials = 0
    for seed in range(500):
        n = 4 + seed % 2
        g = sw.random_digraph(n, EDGE_PROBS[seed % 3], 7000 + seed)
        s, t = 1 + seed % n, 1 + (seed // n) % n
        if s == t:
            t = 1 + t % n
        want = dr.CONNECTED if sw.bfs_distance(g, s, t) != sw.INF else dr.NOT_CONNECTED
        L = 1 + seed % n
        got, led = dr.dstcon(g, s, t, L, decider=dr.boosted(dr.noisy_decider(0.9, seed=seed), 11))
        trials += 1
        errs += got != want
        guard_ok &= led.peak_frontier <= math.ceil(n / L) + 1
    rate = errs / trials
    report(
        8,
        mism == 0 and rate <= 0.02 and guard_ok and rand_instances >= 500,
        f"exact decider: {runs} runs, {mism} mismatches "
        f"({rand_instances} random instances); noisy(0.9)x11: {errs}/{trials} errors "
        f"({rate:.1%}); frontier guard never violated",
    )


def test_criterion_09_tradeoff_formulas():
    ok = all(to.crossover_scan(2**k, c=0.0) == 2 ** (k // 2) for k in (10, 20, 30))
    ltc = to.log_T_classical(2**20, 2**10, c=0.0)
    ltq = to.log_T_quantum(2**20, 2**10, c=0.0)
    ok &= abs(ltc - 100.0) < 1e-12 and abs(ltq - 100.0) < 1e-12
    report(9, ok, f"crossover at sqrt(n) for n in 2^(10,20,30); both exponents {ltc:g} at (2^20, 2^10)")


def test_criterion_10_witness_bounds(corpus):
    ok = True
    accepting = 0
    for n, g, u, dist, ell in _instances(corpus):
        net = sw.build(n, ell, u)
        oracle = sw.GraphOracle(g)
        mask = sw.on_edge_mask(net, oracle)
        for v in range(1, n + 1):
            if v == u or not dist[v - 1] <= 2**ell:
                continue
            got, path = sw.accepts(net, sw.GraphOracle(g), v - 1)
            assert got
            accepting += 1
            theta = fl.optimal_flow_lsq(net, mask, v - 1)
            energy = float(theta @ theta)
            ok &= len(path) == 3**ell
            ok &= energy <= len(path) + 1e-9
    report(10, ok, f"{accepting} accepting instances: witness length = L^(log 3) and energy <= length")
