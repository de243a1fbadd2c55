"""Metric dimension of forests: exact algorithms, counting series, limit laws."""

from .graph import (
    UNREACHABLE,
    ComponentKind,
    ComponentPartition,
    DistanceProfile,
    Graph,
    GraphError,
    bfs_distances,
    connected_components,
    distance_profile,
    parse_graph,
    serialize_graph,
)
from .metric_dimension import (
    ResolvingWitness,
    brute_force_beta,
    forest_beta,
    graph_beta,
    is_resolving,
    slater_tree_beta,
)

__all__ = [
    "UNREACHABLE",
    "ComponentKind",
    "ComponentPartition",
    "DistanceProfile",
    "Graph",
    "GraphError",
    "ResolvingWitness",
    "bfs_distances",
    "brute_force_beta",
    "connected_components",
    "distance_profile",
    "forest_beta",
    "graph_beta",
    "is_resolving",
    "parse_graph",
    "serialize_graph",
    "slater_tree_beta",
]

__version__ = "0.1.0"
