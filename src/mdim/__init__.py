"""Metric dimension of forests: exact algorithms, counting series, limit laws.

The graph names below load `mdim.graph` (and with it numpy) on first
access, so `mdim series`, `mdim dist` and the other commands that build no
graph start without numpy.
"""

from importlib import import_module

_EXPORTS = {
    "UNREACHABLE": "graph",
    "ComponentKind": "graph",
    "ComponentPartition": "graph",
    "DistanceProfile": "graph",
    "Graph": "graph",
    "GraphError": "graph",
    "bfs_distances": "graph",
    "connected_components": "graph",
    "distance_profile": "graph",
    "parse_graph": "graph",
    "serialize_graph": "graph",
    "ResolvingWitness": "metric_dimension",
    "brute_force_beta": "metric_dimension",
    "forest_beta": "metric_dimension",
    "graph_beta": "metric_dimension",
    "is_resolving": "metric_dimension",
    "slater_tree_beta": "metric_dimension",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
