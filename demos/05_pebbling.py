"""The pebbling game: strategies, bounds, and the network correspondence.

Doubling along a path of length L costs 3^(log2 L) moves with log2(L) + 2
pebbles, and any on-path of the switching network replays as a legal
move sequence.  That a fixed pebble budget reaches no farther is checked
by exhaustive configuration search in the tests (``tests/oracles.py``).
"""

import math

import swnet as sw
from swnet import pebbling as pb

print("== the doubling strategy ==")
for L in (1, 2, 4, 8):
    g = sw.layered_path(L + 1)
    moves = pb.strategy_moves(g, list(range(1, L + 2)))
    final, peak = pb.replay(g, 1, moves)
    print(f"L={L}: {len(moves):2d} moves (= 3^{int(math.log2(L))}), "
          f"peak {peak} pebbles (bound {int(math.log2(L)) + 2}), end {sorted(final)}")

print("\n== a trace ==")
g = sw.layered_path(5)
print(pb.format_trace(4, [1, 2, 3, 4, 5], pb.strategy_moves(g, [1, 2, 3, 4, 5])))

print("== network witness -> pebbling moves ==")
g = sw.from_edges(4, [(1, 2), (2, 3), (3, 4)])
net = sw.build(4, 2, root=1)
ok, path = sw.accepts(net, sw.GraphOracle(g), 3)  # reach vertex 4
moves = pb.path_to_moves(net, path, start=1)
final, peak = pb.replay(g, 1, moves)
print(f"witness of {len(path)} network edges -> {len(moves)} legal moves, "
      f"peak {peak} pebbles, final config {sorted(final)}")
