"""The simulated span-program decision.

Reachability is read off the spectrum of a product of reflections: the
initial state (|s> - |t>)/sqrt2 keeps fixed-space mass exactly when a
unit flow through on-edges exists.  Accepting instances show mass exactly
2/(2 R + 4), R the source-sink effective resistance of the on-edges, so
at least 2/(2 W+ + 4); rejecting instances show zero.  Spectral mode reads
the mass off R, which it gets by Kron-reducing the on-edges onto the
source and the sinks; the dense and sector eigensolves below read it off
the spectrum.  Every accepted witness path has exactly 3^(log L) edges.
"""

import numpy as np

import swnet as sw
from swnet import spaneval as se

g = sw.from_edges(4, [(1, 2), (2, 3), (3, 4)])
print("graph: the path 1 -> 2 -> 3 -> 4\n")

print("== dense route: projectors and the operator ==")
net = sw.build(g.n, 1, root=1)
pair = se.build_reflections(net, sw.GraphOracle(g), sink_index=2)  # target 3
print(f"dim H = {pair.U.shape[0]}, rank P_A = {round(np.trace(pair.P_A))}, "
      f"rank P_B = {round(np.trace(pair.P_B))}")
report = se.decide_phase_estimation(pair, se.default_psi0(net))
print(f"reach 3 within 2 steps: accepted={report.accepted}, "
      f"overlap0={report.overlap0:.4f} (threshold {report.threshold:.4f})")
witness = se.decide_distance_report(g, 1, 3, 2, mode="spectral-dense")
print(f"witness: path length {witness.path_len}, flow energy {witness.witness_energy:.3f}")

print("\n== sector eigensolve and effective resistance (same statistic) ==")
mass = se.phase_mass(net, sw.GraphOracle(g), 2)
R = se.decide_distance_report(g, 1, 3, 2, mode="spectral").witness_energy
print(f"sector fixed-space mass = {mass:.4f}, 2/(2R+4) = {2 / (2 * R + 4):.4f} "
      f"(dense gave {report.overlap0:.4f})")

print("\n== accept vs reject across targets and bounds ==")
for L in (1, 2, 4):
    row = {}
    for v in (2, 3, 4):
        ans, _ = se.decide_distance(g, 1, v, L, mode="spectral")
        row[v] = ans
    print(f"L={L}: spectral answers {row} "
          f"(true distances: 2->1, 3->2, 4->3)")

print("\n== the accounted cost ==")
ans, ledger = se.decide_distance(g, 1, 4, 3, mode="spectral")
print(f"Dist_3(1,4) = {ans}; accounted quantum time {ledger.time_steps:.1f}, "
      f"oracle queries {ledger.oracle_queries}, register cells {ledger.quantum_space_cells}")
