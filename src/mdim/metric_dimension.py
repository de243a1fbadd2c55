"""Exact metric dimension.

For forests this is Slater's leaf/branch-vertex characterization, computed
in O(m log L) array work for a longest leg L; for arbitrary small graphs an
exhaustive subset search serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .graph import (
    ComponentPartition,
    Graph,
    GraphError,
    bfs_distances,
    check_blocks,
    connected_components,
    induced_subgraph,
)


# The default size cap of the exhaustive search, and its fixed ceiling: on
# stars of 13-20 vertices the search takes 0.03 s to 4.6 s, about x2.1 per
# vertex (Python 3.11, 2-core x86-64), so any cap stops at 20 vertices.
BRUTE_CAP = 12
BRUTE_MAX_VERTICES = 20


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


@dataclass(frozen=True, eq=False, repr=False)
class ResolvingWitness:
    """A metric dimension `beta` and a resolving set of that size, `witness`,
    in increasing order.

    `members` is that tuple, or the solver's boolean vertex mask, which
    `witness` turns into the tuple on first read: `mdim mc` reads only `beta`.
    """

    beta: int
    members: tuple[int, ...] | np.ndarray

    @cached_property
    def witness(self) -> tuple[int, ...]:
        if isinstance(self.members, np.ndarray):
            return tuple(self.members.nonzero()[0].tolist())
        return self.members

    def __eq__(self, other):
        if not isinstance(other, ResolvingWitness):
            return NotImplemented
        return (self.beta, self.witness) == (other.beta, other.witness)

    def __hash__(self) -> int:
        return hash((self.beta, self.witness))

    def __repr__(self) -> str:
        return f"ResolvingWitness(beta={self.beta}, witness={self.witness})"


def _solve(parts: ComponentPartition, brute_cap: int, block: int | None = None) -> ResolvingWitness:
    """Metric dimension of `parts.graph` from its component partition, in array passes.

    Slater's rule, |L| - |K|, on the tree components: CSR slot e, the edge
    a -> b = indices[e], steps to b's other slot if b has degree 2 in a tree,
    and pointer doubling (O(log L) rounds for a longest leg L) takes each
    leaf to its terminal, a branch vertex or a path's other end.  One mask
    keeps a path's smaller end, every leaf but the smallest at each
    terminal, the exhaustive search's witness of each non-tree component
    (all checked against `brute_cap` first), and each isolated vertex but,
    with >= 2 components, the largest (its distance vector is all unreachable).
    `beta` counts the mask, and the witness tuple is built from it only when
    read.  The per-component arrays are read only when `parts.is_forest`, the
    test k = n - m, fails.

    A `block` splits the graph into consecutive blocks of that many
    vertices, the graphs of a disjoint union (`check_blocks`), and the
    isolated-vertex rule then holds in each block: the mask counts each
    graph's metric dimension in its own block.  Without one, the graph is a
    single block and its component count is `parts.count`.
    """
    non_tree = [] if parts.is_forest else parts.cyclic.nonzero()[0].tolist()
    for c in non_tree:
        if parts.sizes[c] > brute_cap:
            raise ComponentTooLargeError(int(parts.sizes[c]), int(parts.edge_counts[c]), brute_cap)
    g = parts.graph
    ptr, nbr, deg = g.indptr, g.indices, g.degrees
    mask = deg == 0
    if block is None:
        block, several = g.n, [0] if parts.count >= 2 else []
    else:  # the blocks with >= 2 roots
        roots = parts.smallest == np.arange(g.n)
        several = (np.count_nonzero(roots.reshape(-1, block), axis=1) >= 2).nonzero()[0]
    if len(several):  # in each, the largest isolated vertex; a block with none has its last vertex unmasked
        rows = mask.reshape(-1, block)
        rows[several, block - 1 - rows[several, ::-1].argmax(axis=1)] = False
    leaf, step = deg == 1, deg[nbr] == 2
    if non_tree:  # a cycle's degree-2 vertices would keep the doubling from a fixed point
        in_tree = ~parts.cyclic[parts.component_of]
        leaf, step = leaf & in_tree, step & in_tree[nbr]
        for c in non_tree:
            sub, labels = induced_subgraph(g, (parts.component_of == c).nonzero()[0])
            mask[[labels[v] for v in brute_force_beta(sub, size_cap=brute_cap).witness]] = True
    head = ptr[nbr]  # slot e = (a -> b) steps to b's slot that does not lead back to a
    walk = np.where(step, head + (nbr[head] == g.sources), np.arange(len(nbr)))
    jumped = walk[walk]
    while np.count_nonzero(jumped != walk):
        walk, jumped = jumped, jumped[jumped]
    leaves = leaf.nonzero()[0]
    term = nbr[walk[ptr[leaves]]]
    smallest = np.full(g.n, g.n)
    np.minimum.at(smallest, term, leaves)
    mask[leaves] = np.where(leaf[term], leaves < term, leaves != smallest[term])
    return ResolvingWitness(int(np.count_nonzero(mask)), mask)


def slater_tree_beta(t: Graph) -> ResolvingWitness:
    """Metric dimension of a tree with a witness.

    Single vertex: 1 (by convention).  Path: 1, witnessed by an endpoint.
    Otherwise |L| - |K|, witnessed by the leaves minus the smallest-labelled
    leaf attached to each important vertex.  The tree checks (k = 1, and
    k = n - m) run on `connected_components`, which reads the partition a
    uniform tree's sampler handed over.
    """
    parts = connected_components(t)
    if parts.count != 1:
        raise NotATreeError(f"graph has {parts.count} components, a tree has 1")
    if not parts.is_forest:
        raise NotATreeError("graph contains a cycle")
    return _solve(parts, 0)


def forest_beta(f: Graph) -> ResolvingWitness:
    """Metric dimension of a forest (composition of per-tree values)."""
    if f.n == 0:
        raise NotAForestError("empty graph")
    parts = connected_components(f)
    if not parts.is_forest:
        raise NotAForestError("graph contains a cycle")
    return _solve(parts, 0)


def forest_betas(f: Graph, n: int) -> list[int]:
    """Metric dimension of each forest in a disjoint union of forests on n
    vertices each, forest i on vertices i*n..(i+1)*n-1, as the batch
    samplers return it: one Slater pass over the union, with the
    isolated-vertex rule applied per block."""
    check_blocks(f, n)
    parts = connected_components(f)
    if not parts.is_forest:
        raise NotAForestError("graph contains a cycle")
    return np.count_nonzero(_solve(parts, 0, n).members.reshape(-1, n), axis=1).tolist()


def graph_beta(g: Graph, brute_cap: int = BRUTE_CAP) -> ResolvingWitness:
    """Metric dimension of an arbitrary graph with small non-tree parts.

    Tree components use Slater; non-tree components fall back to the
    exhaustive search and must have at most `brute_cap` vertices.  When
    several exceed it, the error names the one holding the smallest label;
    the search itself refuses any above `BRUTE_MAX_VERTICES`.
    A graph whose component count is n - m is a forest and goes straight to
    Slater's rule; only one that fails that test builds per-component arrays
    to find its non-tree components.  The witness tuple is built on first read.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    return _solve(connected_components(g), brute_cap)


def check_brute_size(n: int, size_cap: int) -> None:
    """Refuse an exhaustive search over n vertices above `size_cap` or `BRUTE_MAX_VERTICES`."""
    if n > size_cap:
        raise SizeCapError(f"n={n} exceeds size cap {size_cap}")
    if n > BRUTE_MAX_VERTICES:
        raise SizeCapError(f"n={n} exceeds the exhaustive-search ceiling of {BRUTE_MAX_VERTICES} vertices")


def brute_force_beta(g: Graph, size_cap: int = BRUTE_CAP) -> ResolvingWitness:
    """Minimum resolving set by exhaustive search (independent oracle).

    Subsets are enumerated by increasing size and lexicographically within a
    size, so the result is the lexicographically least minimum witness.  The
    search reads only the BFS distance table, not the component partition
    that the solver it checks relies on.
    """
    check_brute_size(g.n, size_cap)
    if g.n == 0:
        raise GraphError("empty graph")
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for cand in combinations(range(g.n), size):
            if len(set(zip(*(dist[r] for r in cand)))) == g.n:
                return ResolvingWitness(size, cand)
    raise AssertionError("unreachable: the full vertex set always resolves")
