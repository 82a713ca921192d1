"""Amplitude loading and the recursive flow-state preparers.

Prefix sums of squared amplitudes drive the loader; the four preparers
then assemble flow and circulation states level by level, each paying a
constant number of rotations, swaps, and Hadamard layers per level.
"""

import numpy as np

import swnet as sw
from swnet import flows as fl, prep

n, ell = 4, 2

print("== prefix sums (exact rationals) ==")
for p in [(), (0,), (1,), (0, 2)]:
    print(f"S{p} = {prep.prefix_sum_S(n, ell, p)} "
          f"(brute force {prep.prefix_sum_S_brute(n, ell, p)})")

print("\n== layer-weighted loading ==")
spec = prep.AmplitudeSpec(m=ell, d=3, prefix_sum=lambda p: prep.prefix_sum_S(n, ell, p))
amps, circuit = prep.grover_rudolph(spec)
print(f"{3**ell} layer amplitudes from {circuit.gate_count} branching rotations; "
      f"norm = {np.linalg.norm(amps):.12f}")

print("\n== preparer fidelities ==")
def residual(got, targ):
    g = got / np.linalg.norm(got)
    t = np.asarray(targ, float); t /= np.linalg.norm(t)
    return np.abs(g - t).max()

v, c = prep.prepare_sum_of_flows(n, ell)
targ = sum(fl.unit_flow(n, ell, j) for j in range(n))
print(f"sum of flows:   residual {residual(v, targ):.2e}, {c.gate_count} gates")
v, c = prep.fourier_flows_C(n, ell, x=3)
targ = fl._signed_unit_flow_sum(n, ell, 3)
print(f"signed sum x=3: residual {residual(v, targ):.2e}, {c.gate_count} gates")
v, c = prep.prepare_psi(n, ell, z=2, x=1)
print(f"circulation:    residual {residual(v, fl.fourier_circulation(n, ell, 2, 1)):.2e}, "
      f"{c.gate_count} gates")
net = sw.build(n, ell, 1)
v, c = prep.prepare_theta(n, ell, j=2, with_boundary=True)
print(f"optimal flow:   residual {residual(v, fl.flow_state(net, 2)):.2e}, {c.gate_count} gates")

print("\n== per-level gate growth ==")
counts = [prep.fourier_flows_C(n, l, 1)[1].gate_count for l in range(4)]
print(f"signed-sum circuit gates by depth: {counts} "
      f"(increments {[b - a for a, b in zip(counts, counts[1:])]})")
