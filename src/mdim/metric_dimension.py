"""Exact metric dimension.

For forests this is linear time via Slater's leaf/branch-vertex
characterization; for arbitrary small graphs an exhaustive subset search
serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .graph import (
    ComponentPartition,
    Graph,
    GraphError,
    bfs_distances,
    connected_components,
    distance_profile,
    induced_subgraph,
)


class NotATreeError(ValueError):
    pass


class NotAForestError(ValueError):
    pass


class SizeCapError(ValueError):
    """Graph too large for the exhaustive search."""


class ComponentTooLargeError(ValueError):
    """A non-tree component exceeds the brute-force cap."""

    def __init__(self, size: int, edges: int, cap: int):
        super().__init__(f"non-tree component of size {size} exceeds cap {cap}")
        self.size = size
        self.edges = edges
        self.cap = cap


@dataclass(frozen=True)
class ResolvingWitness:
    beta: int
    witness: tuple[int, ...]


def _solve(g: Graph, parts: ComponentPartition, brute_cap: int) -> ResolvingWitness:
    """Metric dimension of `g` from its component partition, in one pass.

    Tree components follow Slater's rule, |L| - |K|: a walk from each leaf
    through degree-2 vertices ends at a branch vertex (its terminal) or, on a
    path, at the other endpoint.  The witness keeps a path's smaller endpoint
    and, elsewhere, every leaf except the smallest-labelled one at each
    terminal.  Non-tree components go to the exhaustive search, after all of
    them are checked against `brute_cap`.  Isolated vertices join the
    witness, except that with >= 2 components the largest-labelled one is
    left out: it is the unique vertex with an all-unreachable profile.
    """
    cyclic = parts.cyclic
    non_tree = cyclic.nonzero()[0].tolist()
    for c in non_tree:
        if parts.sizes[c] > brute_cap:
            raise ComponentTooLargeError(int(parts.sizes[c]), int(parts.edge_counts[c]), brute_cap)
    witness: list[int] = []
    for c in non_tree:
        sub, labels = induced_subgraph(g, (parts.component_of == c).nonzero()[0])
        witness.extend(labels[v] for v in brute_force_beta(sub, size_cap=brute_cap).witness)
    degrees = g.degrees
    leaves = ((degrees == 1) & ~cyclic[parts.component_of]).nonzero()[0].tolist()
    deg, ptr, nbr = degrees.tolist(), g.indptr.tolist(), g.indices.tolist()
    terminals: set[int] = set()
    for leaf in leaves:
        prev, cur = leaf, nbr[ptr[leaf]]
        while deg[cur] == 2:
            a, b = nbr[ptr[cur]], nbr[ptr[cur] + 1]
            prev, cur = cur, (b if a == prev else a)
        if deg[cur] == 1:
            if leaf < cur:
                witness.append(leaf)
        elif cur in terminals:
            witness.append(leaf)
        else:
            terminals.add(cur)
    isolated = (degrees == 0).nonzero()[0].tolist()
    witness.extend(isolated[:-1] if len(parts.sizes) >= 2 else isolated)
    return ResolvingWitness(len(witness), tuple(sorted(witness)))


def slater_tree_beta(t: Graph) -> ResolvingWitness:
    """Metric dimension of a tree with a witness.

    Single vertex: 1 (by convention).  Path: 1, witnessed by an endpoint.
    Otherwise |L| - |K|, witnessed by the leaves minus the smallest-labelled
    leaf attached to each important vertex.
    """
    parts = connected_components(t)
    if len(parts.sizes) != 1:
        raise NotATreeError(f"graph has {len(parts.sizes)} components, a tree has 1")
    if parts.cyclic[0]:
        raise NotATreeError("graph contains a cycle")
    return _solve(t, parts, 0)


def forest_beta(f: Graph) -> ResolvingWitness:
    """Metric dimension of a forest (composition of per-tree values)."""
    if f.n == 0:
        raise NotAForestError("empty graph")
    parts = connected_components(f)
    if np.count_nonzero(parts.cyclic):
        raise NotAForestError("graph contains a cycle")
    return _solve(f, parts, 0)


def graph_beta(g: Graph, brute_cap: int = 12) -> ResolvingWitness:
    """Metric dimension of an arbitrary graph with small non-tree parts.

    Tree components use Slater; non-tree components fall back to the
    exhaustive search and must have at most `brute_cap` vertices.  When
    several exceed it, the error names the one holding the smallest label.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    return _solve(g, connected_components(g), brute_cap)


def is_resolving(g: Graph, landmarks: Iterable[int]) -> bool:
    """True iff all n distance vectors to `landmarks` are pairwise distinct."""
    return len(set(distance_profile(g, landmarks).rows)) == g.n


def brute_force_beta(g: Graph, size_cap: int = 12) -> ResolvingWitness:
    """Minimum resolving set by exhaustive search (independent oracle).

    Subsets are enumerated by increasing size and lexicographically within a
    size, so the result is the lexicographically least minimum witness.  The
    search reads only the BFS distance table, not the component partition
    that the solver it checks relies on.
    """
    if g.n > size_cap:
        raise SizeCapError(f"n={g.n} exceeds size cap {size_cap}")
    if g.n == 0:
        raise GraphError("empty graph")
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            if len(set(zip(*(dist[r] for r in cand)))) == g.n:
                return ResolvingWitness(size, cand)
    raise AssertionError("unreachable: the full vertex set always resolves")
