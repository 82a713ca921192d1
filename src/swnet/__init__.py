"""Switching-network reachability toolkit.

A numpy library for desk-scale verification of a quantum-style algorithm
for bounded-length directed st-connectivity: the recursive switching
network, its flow and circulation bases, simulated state preparation and
span-program evaluation, the pebbling game behind the correctness argument,
the space-bounded outer BFS, and time-space tradeoff accounting.
"""

from .graphs import (
    Digraph,
    GraphOracle,
    INF,
    attach_source_path,
    bfs_distance,
    bfs_distances,
    complete,
    from_edges,
    layered_path,
    pad_to_power_of_two,
    random_digraph,
    read_graph_file,
    write_graph_file,
)
from .network import (
    NetStructure,
    SwitchingNet,
    accepts,
    accepts_all,
    build,
    on_edge_mask,
    structure,
)

__all__ = [
    "Digraph", "GraphOracle", "INF", "attach_source_path", "bfs_distance", "bfs_distances", "complete",
    "from_edges", "layered_path", "pad_to_power_of_two", "random_digraph", "read_graph_file",
    "write_graph_file", "NetStructure", "SwitchingNet", "accepts", "accepts_all", "build", "on_edge_mask",
    "structure",
]
