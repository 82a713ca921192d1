import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import swnet as sw
from oracles import bitdot, leaf_decode_sum_of_flows
from swnet import flows as fl
from swnet import prep
from swnet.errors import InvalidParams, NegativePrefix, ZeroZ
from swnet.network import MAX_NETWORK_EDGES

TOL = 1e-9


def residual(got, targ):
    g = got / np.linalg.norm(got)
    t = np.asarray(targ, dtype=float)
    t = t / np.linalg.norm(t)
    assert g @ t > 0, "output flipped sign against its reference"
    return np.abs(g - t).max()


# -- amplitude loading -----------------------------------------------------------

def test_grover_rudolph_uniform_is_hadamard():
    spec = prep.AmplitudeSpec(
        m=2, d=2, prefix_sum=lambda p: Fraction(2 ** (2 - len(p)), 4)
    )
    v, circ = prep.grover_rudolph(spec)
    assert np.abs(v - 0.5).max() < 1e-12
    assert circ.gate_count == 2


def test_grover_rudolph_basis_state():
    spec = prep.AmplitudeSpec(
        m=2, d=2, prefix_sum=lambda p: Fraction(1) if all(c == 0 for c in p) else Fraction(0)
    )
    v, _ = prep.grover_rudolph(spec)
    want = np.zeros(4)
    want[0] = 1.0
    assert np.abs(v - want).max() < 1e-12


def test_grover_rudolph_layer_weighted_step1():
    n, ell = 2, 1
    spec = prep.AmplitudeSpec(m=ell, d=3, prefix_sum=lambda p: prep.prefix_sum_S(n, ell, p))
    v, _ = prep.grover_rudolph(spec)
    want = [math.sqrt(n**z / (n + 2) ** ell) for z in (1, 0, 0)]
    assert np.abs(v - want).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_closed_form_layer_amplitudes_equal_grover_rudolph_bit_for_bit(n, ell):
    spec = prep.AmplitudeSpec(m=ell, d=3, prefix_sum=lambda p: prep.prefix_sum_S(n, ell, p))
    want, _ = prep.grover_rudolph(spec)
    got, zeros = prep._layer_amplitudes(n, ell)
    assert np.array_equal(got, want)
    assert zeros.tolist() == [sum(t == 0 for t in tau) for tau in product((0, 1, 2), repeat=ell)]


def test_grover_rudolph_negative_prefix():
    spec = prep.AmplitudeSpec(m=1, d=2, prefix_sum=lambda p: Fraction(-1) if p else Fraction(0))
    with pytest.raises((NegativePrefix, InvalidParams)):
        prep.grover_rudolph(spec)


def test_prefix_sums_exact_against_enumeration():
    for n in (2, 4):
        for ell in (1, 2, 3):
            for k in range(ell + 1):
                for p in product((0, 1, 2), repeat=k):
                    assert prep.prefix_sum_S(n, ell, p) == prep.prefix_sum_S_brute(n, ell, p)


def test_prefix_sum_examples():
    assert prep.prefix_sum_S(2, 1, ()) == 1
    assert prep.prefix_sum_S(2, 1, (0,)) == Fraction(1, 2)
    assert prep.prefix_sum_S(2, 2, (1, 2)) == Fraction(1, fl.layer_size(2, (1, 2)))


# -- the four preparers ----------------------------------------------------------

def test_sum_of_flows_fidelity_and_norm():
    for n in (2, 4):
        for ell in (0, 1, 2):
            v, circ = prep.prepare_sum_of_flows(n, ell)
            targ = sum(fl.unit_flow(n, ell, j) for j in range(n))
            assert residual(v, targ) < TOL
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert fl.flow_sum_norm_sq(2, 1) == 2 * 2 * (2 + 2) / 2**2  # norm^2 target = 4


def test_sum_of_flows_layer_amplitudes():
    v, _ = prep.prepare_sum_of_flows(2, 1)
    # tag-0 layer has 2 edges at amplitude sqrt(2/4)/sqrt(2); others uniform
    net = sw.structure(2, 1)
    amp0 = math.sqrt(2 / 4) / math.sqrt(2)
    assert np.abs(v[:2] - amp0).max() < 1e-12
    amp12 = math.sqrt(1 / 4) / math.sqrt(4)
    assert np.abs(v[2:] - amp12).max() < 1e-12


def test_fourier_flows_fidelity():
    for n in (2, 4):
        for ell in (0, 1, 2):
            for x in range(n):
                v, _ = prep.fourier_flows_C(n, ell, x)
                targ = sum(
                    (-1) ** bitdot(x, j) * fl.unit_flow(n, ell, j) for j in range(n)
                )
                assert residual(v, targ) < TOL


def test_fourier_flows_base_case_structure():
    # depth 1, nonzero x: no tag-0 support, uniform magnitudes elsewhere
    n = 2
    v, _ = prep.fourier_flows_C(n, 1, 1)
    assert np.abs(v[:2]).max() == 0.0
    assert np.abs(np.abs(v[2:]) - 1 / math.sqrt(8)).max() < 1e-12


def test_fourier_flows_outputs_orthogonal_over_x():
    for n, ell in [(2, 2), (4, 1)]:
        vecs = [prep.fourier_flows_C(n, ell, x)[0] for x in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                assert abs(vecs[a] @ vecs[b]) < TOL


def test_prepare_psi_fidelity_and_orthogonality():
    for n in (2, 4):
        for ell in (1, 2):
            vecs = {}
            for z in range(1, n):
                for x in range(n):
                    v, _ = prep.prepare_psi(n, ell, z, x)
                    assert residual(v, fl.fourier_circulation(n, ell, z, x)) < TOL
                    vecs[z, x] = v
            keys = list(vecs)
            for a in range(len(keys)):
                for b in range(a + 1, len(keys)):
                    assert abs(vecs[keys[a]] @ vecs[keys[b]]) < TOL


def test_prepare_psi_branch_weights():
    # nonzero x: no tag-0 support and equal tag-1/tag-2 weight
    v, _ = prep.prepare_psi(4, 1, 1, 2)
    block = 4
    assert np.abs(v[:block]).max() == 0.0
    w1 = np.linalg.norm(v[block : block * 5])
    w2 = np.linalg.norm(v[block * 5 :])
    assert abs(w1 - w2) < 1e-12
    # zero x: tag weights proportional to (n sqrt(N), sqrt(n N0), sqrt(n N))
    n = 4
    v, _ = prep.prepare_psi(n, 1, 1, 0)
    N = float(fl.signed_flow_sum_norm_sq(n, 0))
    N0 = float(fl.flow_sum_norm_sq(n, 0))
    want = np.array([n * math.sqrt(N), math.sqrt(n * N0), math.sqrt(n * N)])
    want /= np.linalg.norm(want)
    got = np.array(
        [
            np.linalg.norm(v[:block]),
            np.linalg.norm(v[block : block * 5]),
            np.linalg.norm(v[block * 5 :]),
        ]
    )
    assert np.abs(got - want).max() < 1e-12


def test_prepare_psi_rejects_zero_z():
    with pytest.raises(ZeroZ):
        prep.prepare_psi(2, 1, 0, 1)


def test_prepare_theta_fidelity():
    for n in (2, 4):
        for ell in (0, 1, 2):
            net = sw.build(n, ell, 1)
            for j in range(n):
                v, _ = prep.prepare_theta(n, ell, j)
                assert residual(v, fl.unit_flow(n, ell, j)) < TOL
                vb, _ = prep.prepare_theta(n, ell, j, with_boundary=True)
                assert residual(vb, fl.flow_state(net, j)) < TOL


def test_prepare_theta_depth1_norm():
    # n * theta_j(2) has squared norm 3n; branch magnitudes are uniform
    n = 2
    v, _ = prep.prepare_theta(n, 1, 0)
    T = fl.unit_flow(n, 1, 0)
    assert int(T @ T) == 3 * n
    nz = np.abs(v[np.abs(v) > 0])
    assert np.abs(nz - nz[0]).max() < 1e-12


def test_gate_budget_per_level():
    budget = 8  # times log2(n)
    for n in (2, 4):
        logn = max(int(math.log2(n)), 1)
        fams = {
            "sof": lambda l: prep.prepare_sum_of_flows(n, l)[1].gate_count,
            "C": lambda l: prep.fourier_flows_C(n, l, 1)[1].gate_count,
            "theta": lambda l: prep.prepare_theta(n, l, 0)[1].gate_count,
        }
        for name, fn in fams.items():
            for ell in (1, 2, 3):
                assert fn(ell) - fn(ell - 1) <= budget * logn, (name, n, ell)
        for ell in (2, 3):
            delta = (
                prep.prepare_psi(n, ell, 1, 1)[1].gate_count
                - prep.prepare_psi(n, ell - 1, 1, 1)[1].gate_count
            )
            assert delta <= budget * logn


@pytest.mark.parametrize("make", [
    lambda: prep.prepare_sum_of_flows(3, 1),
    lambda: prep.fourier_flows_C(3, 1, 1),
    lambda: prep.fourier_flows_C(3, 1, 0),
    lambda: prep.prepare_psi(3, 1, 1, 0),
    lambda: prep.prepare_theta(3, 1, 0),
    lambda: prep.prepare_theta(6, 0, 0, with_boundary=True),
])
def test_preparers_need_power_of_two(make):
    # log2 n qubits per register: n = 3 must not floor to one qubit
    with pytest.raises(InvalidParams, match="power of two"):
        make()


# every power-of-two n <= 16 at every depth inside the edge budget; (8, 4) is one
BUDGET_SIZES = [
    (n, ell) for n in (2, 4, 8, 16) for ell in range(9) if (2 * n + 1) ** ell * n <= MAX_NETWORK_EDGES
]


@pytest.mark.parametrize("n, ell", BUDGET_SIZES)
def test_sum_of_flows_equals_the_leaf_decode_oracle(n, ell):
    # the gather over the tag map reads the same amplitudes as decoding every leaf
    assert np.array_equal(prep.prepare_sum_of_flows(n, ell)[0], leaf_decode_sum_of_flows(n, ell))


# gate counts of sum-of-flows, C (x = 1), theta (j = 0), theta with boundary,
# then psi (z = 1, x = 0) and psi (z = 1, x = 1)
GATES = {
    (2, 0): [1, 1, 1, 3],
    (2, 1): [3, 4, 4, 6, 4, 4],
    (2, 3): [7, 10, 10, 12, 10, 10],
    (4, 2): [8, 12, 12, 14, 12, 12],
    (16, 2): [14, 22, 22, 24, 22, 22],
    (16, 3): [19, 31, 31, 33, 31, 31],
    (8, 4): [19, 31, 31, 33, 31, 31],
}


@pytest.mark.parametrize("n, ell", list(GATES))
def test_preparer_gate_counts_and_ops(n, ell):
    circuits = [
        prep.prepare_sum_of_flows(n, ell)[1],
        prep.fourier_flows_C(n, ell, 1)[1],
        prep.prepare_theta(n, ell, 0)[1],
        prep.prepare_theta(n, ell, 0, with_boundary=True)[1],
    ]
    if ell:
        circuits += [prep.prepare_psi(n, ell, 1, 0)[1], prep.prepare_psi(n, ell, 1, 1)[1]]
    assert [c.gate_count for c in circuits] == GATES[n, ell]
    assert all(c.ell == ell for c in circuits)
    if ell == 0:
        want = [("load",), ("hadamard",), ("load",), ("load", "rotate-boundary")]
    else:
        step = ("rotate", "cswap", "hadamard", ("call", ell - 1))
        want = [("rotate",) * ell + ("expand-layers", "hadamard"), step, step, step + ("rotate-boundary",), step, step]
    assert [c.ops for c in circuits] == want


@pytest.mark.parametrize("make", [
    lambda: prep.prepare_sum_of_flows(16, 4),
    lambda: prep.fourier_flows_C(16, 4, 1),
    lambda: prep.fourier_flows_C(16, 4, 0),
    lambda: prep.prepare_psi(16, 4, 1, 1),
    lambda: prep.prepare_theta(16, 4, 0, with_boundary=True),
    lambda: prep.prepare_theta(8, 5, 0),
    lambda: fl.unit_flow(16, 4, 0),
    lambda: fl.fourier_circulation(16, 4, 1, 0),
])
def test_preparers_and_flows_refuse_a_network_past_the_edge_budget(make):
    # 33^4 * 16 = 19.0M edges: refused before anything is allocated
    with pytest.raises(InvalidParams, match="MAX_NETWORK_EDGES"):
        make()
