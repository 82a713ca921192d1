"""The space-bounded outer BFS and the time-space tradeoff curves.

The driver keeps a frontier of about n/L vertices and asks a
bounded-length decider for everything else; smaller L means more time and
less space.  Formula mode compares the resulting quantum exponent with
the classical one; they cross at S = sqrt(n).
"""

import math

import swnet as sw
from swnet import driver as dr
from swnet import tradeoff as to

print("== one run, three deciders ==")
g = sw.random_digraph(6, 0.3, seed=5)
for name in ("exact", "noisy:0.9", "swnet"):
    decider = dr.decider_from_name(name, seed=1)
    result, ledger = dr.dstcon(g, 1, 6, L=2, decider=dr.boosted(decider, 11))
    print(f"{decider.name:>22s}: {result:13s} time={ledger.time_steps:10.1f} "
          f"frontier<= {ledger.peak_frontier} qcells={ledger.quantum_space_cells}")

print("\n== frontier size follows n/L ==")
g = sw.layered_path(8)
for L in (1, 2, 4, 8):
    _, ledger = dr.dstcon(g, 1, 8, L)
    print(f"L={L}: peak frontier {ledger.peak_frontier} "
          f"(guard ceiling {math.ceil(8 / L) + 1}), decider calls {ledger.decider_calls}")

print("\n== formula curves ==")
n = 2**20
print(f"n = 2^20: exponents at S = 2^k (c = 0, domain floor S >= log2(n)^2 = 400): ")
for k in (9, 10, 12, 14, 16):
    S = 2**k
    print(f"  S=2^{k:2d}: classical {to.log_T_classical(n, S, 0):6.1f}   "
          f"quantum {to.log_T_quantum(n, S, 0):6.1f}")
print(f"crossover: S* = 2^{int(math.log2(to.crossover_scan(n, 0)))} = sqrt(n)")

print("\n== a measured sweep row ==")
print(to.sweep_csv({"n": [16], "S": [16, 32, 64], "decider": "exact", "seeds": [0, 1]}))
