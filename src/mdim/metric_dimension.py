"""Exact metric dimension.

For forests this is Slater's leaf/branch-vertex characterization, computed
in O(m log L) array work for a longest leg L; for arbitrary small graphs an
exhaustive subset search serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import (
    ComponentPartition,
    Graph,
    GraphError,
    bfs_distances,
    connected_components,
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
    """Metric dimension of `g` from its component partition, in array passes.

    Slater's rule, |L| - |K|, on the tree components: CSR slot e, the edge
    a -> b = indices[e], steps to b's other slot if b has degree 2 in a tree,
    and pointer doubling (O(log L) rounds for a longest leg L) takes each
    leaf to its terminal, a branch vertex or a path's other end.  One mask
    keeps a path's smaller end, every leaf but the smallest at each
    terminal, the exhaustive search's witness of each non-tree component
    (all checked against `brute_cap` first), and each isolated vertex but,
    with >= 2 components, the largest (its distance vector is all unreachable).
    """
    cyclic = parts.cyclic
    non_tree = cyclic.nonzero()[0].tolist()
    for c in non_tree:
        if parts.sizes[c] > brute_cap:
            raise ComponentTooLargeError(int(parts.sizes[c]), int(parts.edge_counts[c]), brute_cap)
    ptr, nbr, deg = g.indptr, g.indices, g.degrees
    mask = deg == 0
    if len(parts.sizes) >= 2 and np.count_nonzero(mask):
        mask[mask.nonzero()[0][-1]] = False
    leaf, step = deg == 1, deg[nbr] == 2
    if non_tree:  # a cycle's degree-2 vertices would keep the doubling from a fixed point
        in_tree = ~cyclic[parts.component_of]
        leaf, step = leaf & in_tree, step & in_tree[nbr]
        for c in non_tree:
            sub, labels = induced_subgraph(g, (parts.component_of == c).nonzero()[0])
            mask[[labels[v] for v in brute_force_beta(sub, size_cap=brute_cap).witness]] = True
    head = ptr[nbr]  # slot e = (a -> b) steps to b's slot that does not lead back to a
    walk = np.where(step, head + (nbr[head] == np.arange(g.n).repeat(deg)), np.arange(len(nbr)))
    jumped = walk[walk]
    while np.count_nonzero(jumped != walk):
        walk, jumped = jumped, jumped[jumped]
    leaves = leaf.nonzero()[0]
    term = nbr[walk[ptr[leaves]]]
    smallest = np.full(g.n, g.n)
    np.minimum.at(smallest, term, leaves)
    mask[leaves] = np.where(leaf[term], leaves < term, leaves != smallest[term])
    witness = mask.nonzero()[0].tolist()
    return ResolvingWitness(len(witness), tuple(witness))


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
