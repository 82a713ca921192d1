"""Simulated amplitude loading and the recursive flow-state preparers.

Circuits are simulated structurally: each preparer builds the exact target
vector while accounting gates under a fixed cost model, not by qubit-level
simulation.  Cost model (in "gates"):

    branching rotation by a computed angle      1
    Hadamard layer on a log2(n)-qubit register  log2 n
    controlled swap of two such registers       log2 n
    basis-register load                         log2 n
    recursive sub-circuit call                  the callee's count, once

Rotation amplitudes are carried as exact rationals (squared) and converted
to floats only when states are materialized, so no drift accumulates
through the recursion levels.

The four preparers output, up to positive scale,

    sum-of-flows      sum_j  theta_j
    signed sums       sum_j (-1)^(x.j) theta_j          (circuit C)
    circulations      sum_{i,j} (-1)^(x.j + z.i) p_ij   (z nonzero)
    one optimal flow  theta_j, optionally with boundary slots

where theta_j / p_ij are the recursive optimal-flow states from
:mod:`swnet.flows`; each is verified against that module's vectors.  The
sum of flows is the base of the others: after the layer names are loaded,
its step 2 gathers each layer's amplitude to the leaves through the
symbol-code -> tag map, one axis at a time, with no leaf decoded.  The
recursive preparers write their n like-shaped blocks with one broadcast
multiply each, and every preparer checks the edge budget
(:func:`swnet.network.check_edge_budget`) before it allocates.  Every
preparer needs n to be a power of two (its Hadamard layers act on log2 n
qubits) and raises InvalidParams otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import flows as fl
from .errors import InvalidParams, NegativePrefix, ZeroZ
from .network import check_edge_budget


@dataclass
class PrepCircuit:
    """Structured program summary: primitive steps and their gate cost."""

    ell: int
    ops: tuple
    gate_count: int


def _logn(n: int) -> int:
    return max(int(math.log2(n)), 1)


def require_power_of_two(n: int) -> None:
    """Refuse an n that is not a power of two, which the Hadamard layers need (see the module docstring)."""
    if n < 1 or n & (n - 1):
        raise InvalidParams(f"n = {n} is not a power of two, which the preparers' Hadamard layers need")


# -- amplitude loading from prefix sums -----------------------------------------

@dataclass(frozen=True)
class AmplitudeSpec:
    """Target amplitudes over length-m strings via exact prefix sums.

    ``prefix_sum(p)`` returns the exact sum of squared amplitudes over all
    strings extending the prefix p (a tuple over range(d)).  Amplitudes are
    nonnegative; the preparers sign their own blocks.
    """

    m: int
    d: int
    prefix_sum: object


def grover_rudolph(spec: AmplitudeSpec) -> tuple[np.ndarray, PrepCircuit]:
    """Simulate amplitude loading: one branching rotation per string position.

    Output is the normalized target vector over d^m strings in mixed-radix
    order.  Raises NegativePrefix if any prefix sum is negative, and
    InvalidParams if the prefix sums are inconsistent (children must sum to
    their parent exactly).
    """
    total = spec.prefix_sum(())
    if total < 0:
        raise NegativePrefix("total squared amplitude is negative")
    if total == 0:
        raise InvalidParams("cannot normalize an all-zero amplitude table")
    amps = np.zeros(spec.d**spec.m)

    def walk(prefix: tuple, index: int, weight: Fraction):
        if weight < 0:
            raise NegativePrefix(f"prefix {prefix} has negative squared amplitude")
        if len(prefix) == spec.m:
            amps[index] = math.sqrt(float(weight / total))
            return
        children = [spec.prefix_sum(prefix + (c,)) for c in range(spec.d)]
        if sum(children) != weight:
            raise InvalidParams(f"prefix sums inconsistent below {prefix}")
        for c, w in enumerate(children):
            walk(prefix + (c,), index * spec.d + c, w)

    walk((), 0, total)
    circuit = PrepCircuit(ell=spec.m, ops=("rotate",) * spec.m, gate_count=spec.m)
    return amps, circuit


def prefix_sum_S(n: int, ell: int, p: tuple) -> Fraction:
    """Sum over tag patterns extending p of 1/|E_tau|, in closed form.

    Equals (n+2)^(ell-k) / n^(ell+1-z) for a length-k prefix with z zeros,
    and agrees with brute-force enumeration of the layers.
    """
    k = len(p)
    if k > ell or any(t not in (0, 1, 2) for t in p):
        raise InvalidParams(f"bad tag prefix {p}")
    zeros = sum(1 for t in p if t == 0)
    return Fraction((n + 2) ** (ell - k), n ** (ell + 1 - zeros))


def prefix_sum_S_brute(n: int, ell: int, p: tuple) -> Fraction:
    """Enumeration oracle for prefix_sum_S."""
    total = Fraction(0)
    for tail in product((0, 1, 2), repeat=ell - len(p)):
        total += Fraction(1, fl.layer_size(n, p + tail))
    return total


def _layer_amplitudes(n: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The sum of flows' step-1 amplitudes over the 3^ell tag patterns, and their zero counts.

    Patterns run in base-3 order.  A pattern with z zero tags gets
    sqrt(n^z / (n+2)^ell), its prefix sum over the total, taken as an
    exact Fraction and rounded once, so the vector equals grover_rudolph
    over prefix_sum_S bit for bit without walking the 3^ell prefixes.
    """
    zeros = np.zeros(1, dtype=np.int64)
    for _ in range(ell):
        zeros = (zeros[:, None] + [1, 0, 0]).ravel()
    amp_of = np.array([math.sqrt(float(Fraction(n**z, (n + 2) ** ell))) for z in range(ell + 1)])
    return amp_of[zeros], zeros


# -- the four preparers ----------------------------------------------------------

def prepare_sum_of_flows(n: int, ell: int) -> tuple[np.ndarray, PrepCircuit]:
    """|0> -> state proportional to sum_j theta_j, over the edge basis.

    Step 1 loads the layer-name superposition with amplitudes
    sqrt(n^z / (n+2)^ell), z the pattern's zero count, one rotation per
    position: grover_rudolph over the prefix sums prefix_sum_S, read in
    closed form (:func:`_layer_amplitudes`).  Step 2 expands each layer
    name into the uniform superposition over its edges.  It divides each
    of the 3^ell layer amplitudes by sqrt(|E_tau|), spreads them to the
    (2n+1)^ell leaves by one gather per symbol axis through the tag map
    (code 0 has tag 0, codes 1..n tag 1, codes n+1..2n tag 2) and repeats
    each leaf's amplitude over its n edges; no leaf is decoded.
    """
    require_power_of_two(n)
    check_edge_budget(n, ell)
    if ell == 0:
        out = np.full(n, 1 / math.sqrt(n))
        return out, PrepCircuit(ell=0, ops=("load",), gate_count=_logn(n))
    layer_amp, zeros = _layer_amplitudes(n, ell)
    layer_size = (n ** (1 + ell - zeros)).astype(float)  # |E_tau|
    leaf_amp = (layer_amp / np.sqrt(layer_size)).reshape((3,) * ell)
    tag_of = np.repeat([0, 1, 2], [1, n, n])  # a symbol code's tag
    for axis in range(ell):
        leaf_amp = np.take(leaf_amp, tag_of, axis=axis)
    out = np.repeat(leaf_amp.ravel(), n)
    gates = ell + (ell + 1) * _logn(n)
    ops = ("rotate",) * ell + ("expand-layers", "hadamard")
    return out, PrepCircuit(ell=ell, ops=ops, gate_count=gates)


def fourier_flows_C(n: int, ell: int, x: int) -> tuple[np.ndarray, PrepCircuit]:
    """|x> -> state proportional to sum_j (-1)^(x.j) theta_j(2^ell).

    For nonzero x the tag-0 block cancels; a single rotation with
    alpha = N_x(ell-1) / (N_x(ell-1) + N_0(ell-1)) splits the tag-1 and
    tag-2 branches, a controlled swap and a Hadamard layer set the middle
    register, and the circuit recurses once on the last register.
    """
    require_power_of_two(n)
    if not 0 <= x < n:
        raise InvalidParams(f"x = {x} out of range")
    check_edge_budget(n, ell)
    if x == 0:
        return prepare_sum_of_flows(n, ell)
    if ell == 0:
        out = fl._signs(x, n) / math.sqrt(n)
        return out, PrepCircuit(ell=0, ops=("hadamard",), gate_count=_logn(n))
    v_x, c_x = fourier_flows_C(n, ell - 1, x)
    v_0, c_0 = fourier_flows_C(n, ell - 1, 0)
    alpha = fl.signed_flow_sum_norm_sq(n, ell - 1) / (
        fl.signed_flow_sum_norm_sq(n, ell - 1) + fl.flow_sum_norm_sq(n, ell - 1)
    )
    w1 = math.sqrt(float(alpha) / n)
    w2 = math.sqrt(float(1 - alpha) / n)
    out = np.empty((2 * n + 1, v_x.shape[0]))
    out[0] = 0.0
    np.multiply(v_x, w1, out=out[1 : n + 1])
    np.multiply((w2 * fl._signs(x, n))[:, None], v_0, out=out[n + 1 :])
    gates = 1 + 2 * _logn(n) + max(c_x.gate_count, c_0.gate_count)
    ops = ("rotate", "cswap", "hadamard", ("call", ell - 1))
    return out.reshape(-1), PrepCircuit(ell=ell, ops=ops, gate_count=gates)


def prepare_psi(n: int, ell: int, z: int, x: int) -> tuple[np.ndarray, PrepCircuit]:
    """|x, z> -> state proportional to the circulation psi_{z,x}(2^ell).

    Three-branch superposition over the tag register.  For x = 0 the
    branch weights are (n sqrt(N), sqrt(n N0), sqrt(n N)) with N the
    signed-sum norm one level down; for nonzero x the tag-0 branch
    vanishes and the weights degenerate to (0, 1/sqrt2, 1/sqrt2).
    """
    require_power_of_two(n)
    if z == 0:
        raise ZeroZ("z must be nonzero")
    if ell < 1:
        raise InvalidParams("circulations appear at depth >= 1")
    check_edge_budget(n, ell)
    v_z, c_z = fourier_flows_C(n, ell - 1, z)
    v_x, c_x = fourier_flows_C(n, ell - 1, x)
    N = fl.signed_flow_sum_norm_sq(n, ell - 1)
    N0 = fl.flow_sum_norm_sq(n, ell - 1)
    if x == 0:
        w = np.sqrt(np.array([float(n * n * N), float(n * N0), float(n * N)]))
    else:
        w = np.sqrt(np.array([0.0, float(n * N), float(n * N)]))
    w /= np.linalg.norm(w)
    out = np.empty((2 * n + 1, v_z.shape[0]))
    np.multiply(v_z, w[0], out=out[0])
    np.multiply((w[1] / math.sqrt(n) * fl._signs(z, n))[:, None], v_x, out=out[1 : n + 1])
    np.multiply((w[2] / math.sqrt(n) * fl._signs(x, n))[:, None], v_z, out=out[n + 1 :])
    gates = 1 + 2 * _logn(n) + max(c_z.gate_count, c_x.gate_count)
    ops = ("rotate", "cswap", "hadamard", ("call", ell - 1))
    return out.reshape(-1), PrepCircuit(ell=ell, ops=ops, gate_count=gates)


def prepare_theta(
    n: int, ell: int, j: int, with_boundary: bool = False
) -> tuple[np.ndarray, PrepCircuit]:
    """|j> -> state proportional to the optimal unit flow theta_j(2^ell).

    Branch weights (sqrt(N0), sqrt(n F_j), sqrt(N0)) one level down; the
    tag-1 branch recurses on |j>, the others load the sum of flows.  With
    with_boundary the output lives in the reduced representation and the
    two boundary slots are rotated in with exact amplitudes, matching
    :func:`swnet.flows.flow_state`.
    """
    require_power_of_two(n)
    if not 0 <= j < n:
        raise InvalidParams(f"sink index {j} out of range")
    E = check_edge_budget(n, ell)
    full = np.zeros(E + 4 if with_boundary else E)
    if ell == 0:
        full[j] = 1.0
        circ = PrepCircuit(ell=0, ops=("load",), gate_count=_logn(n))
    else:
        v_rec, c_rec = prepare_theta(n, ell - 1, j, with_boundary=False)
        v_sum, c_sum = prepare_sum_of_flows(n, ell - 1)
        N0 = fl.flow_sum_norm_sq(n, ell - 1)
        Fj = fl.flow_norm_sq(n, ell - 1)
        w = np.sqrt(np.array([float(N0), float(n * Fj), float(N0)]))
        w /= np.linalg.norm(w)
        out = full[:E].reshape(2 * n + 1, -1)
        np.multiply(v_sum, w[0], out=out[0])
        np.multiply(v_rec, w[1] / math.sqrt(n), out=out[1 : n + 1])
        np.multiply(v_sum, w[2], out=out[1 + n + j])
        gates = 1 + 2 * _logn(n) + max(c_rec.gate_count, c_sum.gate_count)
        circ = PrepCircuit(ell=ell, ops=("rotate", "cswap", "hadamard", ("call", ell - 1)), gate_count=gates)
    if not with_boundary:
        return full, circ
    Fj = fl.flow_norm_sq(n, ell)
    full[:E] *= math.sqrt(float(2 * Fj / (2 * Fj + 2)))
    bdry_w = math.sqrt(float(1 / (2 * Fj + 2)))
    full[E + fl.LS_SLOT] = -bdry_w
    full[E + fl.RT_SLOT] = +bdry_w
    return full, PrepCircuit(
        ell=circ.ell, ops=circ.ops + ("rotate-boundary",), gate_count=circ.gate_count + 2
    )
