"""Tour of the recursive switching network.

Builds the depth-ell networks for a small vertex count, shows how edges
are addressed, how query labels are read off the block path, and that
source-to-sink connectivity through on-edges decides bounded-length
directed reachability.
"""

import swnet as sw
from swnet.network import leaf_symbols

n = 4

print("== sizes ==")
for ell in range(3):
    st = sw.structure(n, ell)
    print(f"depth {ell}: {st.edge_count:4d} edges, {st.vertex_count:4d} vertices "
          f"(edge set is Sigma^{ell} x [n], |Sigma| = {2 * n + 1})")

print("\n== edge addressing and query labels (depth 1, root 2) ==")
net = sw.build(n, 1, root=2)
tags, _ = leaf_symbols(n, 1)  # edge e is sink slot e % n of leaf e // n
label_from, label_to = net.struct.label_arrays(net.root)
for e in [0, 5, n, 7 * n + 2]:
    print(f"edge {e:3d}: block path tags {tags[e // n].tolist()}, sink slot {e % n}, "
          f"query label {(int(label_from[e]), int(label_to[e]))}")

print("\n== connectivity == (graph: 1 -> 2 -> 3, plus 4 isolated)")
g = sw.from_edges(n, [(1, 2), (2, 3)])
for ell in range(3):
    net = sw.build(n, ell, root=1)
    acc = sw.accepts_all(net, sw.GraphOracle(g))
    dist = sw.bfs_distances(g, 1)
    row = {v: (bool(acc[v - 1]), dist[v - 1]) for v in range(2, n + 1)}
    print(f"depth {ell} (length bound {2**ell}): accepts/(distance) per target = {row}")

print("\n== witness paths stay short ==")
net = sw.build(n, 2, root=1)
ok, path = sw.accepts(net, sw.GraphOracle(g), 2)  # reach vertex 3
print(f"reach 3 within 4 steps: {ok}; witness uses {len(path)} network edges "
      f"(bound {3**2})")
