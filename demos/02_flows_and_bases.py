"""Flows, circulations, and the two faces of the cut-space projector.

The optimal unit flow from the source to each sink has a closed recursive
form; signed combinations of routed flows are circulations; and together
with the boundary states they span the orthogonal complement of the
input-independent space B.  Everything here is checked against numerics.
"""

from fractions import Fraction

import numpy as np

import swnet as sw
from swnet import flows as fl

n, ell = 2, 2
net = sw.build(n, ell, root=1)

print("== optimal unit flow vs least squares ==")
mask = np.ones(net.edge_count, dtype=bool)  # every edge on
for j in range(n):
    rec = fl.unit_flow(n, ell, j).astype(float) / n**ell
    lsq = fl.optimal_flow_lsq(net, mask, j)
    print(f"sink {j}: recursive vs least-squares max gap = {np.abs(rec - lsq).max():.2e}, "
          f"energy = {rec @ rec:.6f} (closed form {float(fl.flow_norm_sq(n, ell)):.6f})")

print("\n== exact norms ==")
print("sum of flows, squared:      ", fl.flow_sum_norm_sq(n, ell))
print("signed sum (any x != 0):    ", fl.signed_flow_sum_norm_sq(n, ell))
signed = Fraction(n)  # the recurrence N(k) = (N(k-1) + N0(k-1)) / n from N(0) = n
for k in range(ell):
    signed = (signed + fl.flow_sum_norm_sq(n, k)) / n
print("recurrence == closed form:  ", signed == fl.signed_flow_sum_norm_sq(n, ell))

print("\n== circulations ==")
psi = fl.fourier_circulation(n, ell, z=1, x=1)
print("divergence of a signed routed-flow combination:",
      "all zero" if not fl.divergence(net, psi).any() else "NONZERO (bug)")

print("\n== complement basis and projector consistency ==")
Q = fl.build_Bperp_basis(net, 0)
gram_off = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
print(f"basis size {Q.shape[1]} = |E| + 4 - |V| = {net.edge_count + 4 - net.vertex_count}; "
      f"largest off-diagonal Gram entry {gram_off:.2e}")
P_B = fl.projector(fl.build_B_spanning(net, 0))
frob = np.linalg.norm(P_B + fl.projector(fl.reduced_to_full(net, Q)) - np.eye(P_B.shape[0]))
print(f"cut-space projector vs complement projector: |P_B + P_perp - I|_F = {frob:.2e}")
