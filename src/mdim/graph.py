"""Labelled undirected simple graphs: distances, components, edge-list I/O.

Vertices are dense integer labels 0..n-1. A graph is stored in CSR form
(compressed sparse rows): the neighbours of v, in increasing order, are
`indices[indptr[v]:indptr[v + 1]]`. Graphs are immutable after construction
(the arrays are read-only), so they can be shared freely across
threads/processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np


class GraphError(ValueError):
    """A graph refused: malformed input (self-loop, duplicate edge, bad
    vertex id, ...), or one a solver cannot take (empty, not a tree or
    forest, above a size cap)."""


# Distance between vertices in different components: never equal to an int,
# and hashable, so distance vectors can be dict/set keys.
UNREACHABLE = None


def _edge_array(n: int, edges) -> tuple[object, np.ndarray]:
    """`edges` as given (materialised once) and as an (m, 2) int64 array.

    Ids beyond int64 become -1 in the array: out of range either way, and
    the error message quotes them from the materialised pairs.
    """
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        arr = np.array([[x if 0 <= x < n else -1 for x in e] for e in pairs], dtype=np.int64)
    if arr.size == 0:
        return pairs, arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    return pairs, arr


def _raise_first_offending(n: int, pairs, u: np.ndarray, v: np.ndarray) -> None:
    """Raise the GraphError for the first pair that is out of range, a
    self-loop, or a repeat of an earlier pair."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    key = np.where(bad, -1 - np.arange(len(u)), lo * n + hi)
    order = np.argsort(key, kind="stable")
    bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # later copies
    a, b = pairs[int(bad.argmax())]
    if not (0 <= a < n and 0 <= b < n):
        raise GraphError(f"edge ({a},{b}) out of range for n={n}")
    if a == b:
        raise GraphError(f"self-loop at vertex {a}")
    raise GraphError(f"duplicate edge ({a},{b})")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 in CSR form.

    `sources` holds the row of each CSR slot: slot e is the edge
    sources[e] -> indices[e].
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    sources: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph from an (m, 2) int array or an iterable of (u, v) pairs.

        The first offending pair, in input order, is named in the error:
        out of range, then self-loop, then a repeat of an earlier pair.
        """
        check_vertex_limit(n)
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        pairs, arr = _edge_array(n, edges)
        check_edge_limit(len(arr))
        u, v = arr[:, 0], arr[:, 1]
        # every edge in both directions as the key source * n + target, sorted:
        # a self-loop or a repeated pair makes two neighbouring keys equal
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        # as unsigned, a negative id wraps past n too
        if np.count_nonzero(arr.view(np.uint64) >= n) or np.count_nonzero(keys[1:] == keys[:-1]):
            _raise_first_offending(n, pairs, u, v)
        sources = keys // max(n, 1)  # n = 0 has no keys
        indices = keys - sources * n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        indptr.flags.writeable = indices.flags.writeable = sources.flags.writeable = False
        return cls(n, indptr, indices, sources)

    @cached_property
    def component_labels(self) -> tuple[np.ndarray, int]:
        """Each vertex's smallest label, read-only, and the component count,
        computed by hook-and-compress on first read unless the sampler that
        built the graph filled them in (`_with_components`).  Holds the
        arrays, not a `ComponentPartition`, which would point back at the
        graph."""
        half = self.sources < self.indices
        smallest = _smallest_labels(self.n, self.sources[half], self.indices[half])
        smallest.flags.writeable = False
        return smallest, int(np.count_nonzero(smallest == np.arange(self.n)))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, derived from the arrays on first read."""
        flat, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[ptr[v] : ptr[v + 1]]) for v in range(self.n))

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        keep = self.sources < self.indices
        return zip(self.sources[keep].tolist(), self.indices[keep].tolist())


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from `source`; UNREACHABLE outside its component."""
    if not 0 <= source < g.n:
        raise GraphError(f"source {source} out of range for n={g.n}")
    adj = g.adj
    dist: list = [UNREACHABLE] * g.n
    dist[source] = 0
    visited = [source]  # doubles as the BFS queue: the loop reads what it appends
    for u in visited:
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] is UNREACHABLE:
                dist[w] = du
                visited.append(w)
    return dist


class ComponentKind(Enum):
    ISOLATED_VERTEX = "isolated-vertex"
    PATH = "path"
    NON_PATH_TREE = "non-path-tree"
    NON_TREE = "non-tree"


_KINDS = tuple(ComponentKind)  # indexed by the codes `ComponentPartition.kinds` computes


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Components numbered in the order of their smallest vertex.

    Holds the graph, each vertex's smallest label (`smallest`, the minimum
    of its component) and the component count k (`count`); `is_forest`
    reads only k. The per-vertex array `component_of`, the per-component
    arrays `sizes`, `edge_counts` and `branched` (has a vertex of degree
    > 2), and the tuple views `components` and `kinds` are derived on first
    read.
    """

    graph: Graph
    smallest: np.ndarray
    count: int

    @property
    def is_forest(self) -> bool:
        """True when no component has a cycle, decided as k = n - m: a
        component of s vertices has at least s - 1 edges, and exactly
        s - 1 when it is a tree."""
        return self.count == self.graph.n - self.graph.edge_count

    @cached_property
    def component_of(self) -> np.ndarray:
        # at each root r: the number of roots below r, its component's number
        number = np.cumsum(self.smallest == np.arange(self.graph.n)) - 1
        return number[self.smallest]

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.component_of, minlength=self.count)

    @cached_property
    def edge_counts(self) -> np.ndarray:
        # every edge fills two CSR slots, both in its component
        return np.bincount(self.component_of[self.graph.sources], minlength=self.count) // 2

    @cached_property
    def branched(self) -> np.ndarray:
        return np.bincount(self.component_of[self.graph.degrees > 2], minlength=self.count) > 0

    @property
    def cyclic(self) -> np.ndarray:
        """Per component: True when it has a cycle (as many edges as vertices, or more)."""
        return self.edge_counts >= self.sizes

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's vertices in increasing order."""
        flat = np.argsort(self.component_of, kind="stable").tolist()
        ends = np.cumsum(self.sizes).tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))

    @cached_property
    def kinds(self) -> tuple[ComponentKind, ...]:
        codes = np.where(self.sizes == 1, 0, np.where(self.cyclic, 3, np.where(self.branched, 2, 1)))
        return tuple(_KINDS[c] for c in codes.tolist())


def _smallest_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component, for edges u < v, by
    hook-and-compress (Shiloach & Vishkin, J. Algorithms 1982): hook every
    root joined by an edge to a smaller root onto the smallest such root,
    then point every vertex at its root; repeat until no edge joins two
    roots. A parent is always smaller than its child, so the roots are the
    component minima.
    """
    parent = np.arange(n)
    lo, hi = u, v  # at first every vertex is a root
    while len(lo):
        np.minimum.at(parent, hi, lo)
        while True:
            grand = parent[parent]
            if not np.count_nonzero(grand != parent):
                break
            parent = grand
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        lo, hi = pu[cross], pv[cross]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return parent


def connected_components(g: Graph) -> ComponentPartition:
    """Partition into components, each classified by shape, from
    `Graph.component_labels`: the labels the sampler handed over, else
    hook-and-compress, run at most once per graph."""
    return ComponentPartition(g, *g.component_labels)


def _with_components(g: Graph, smallest: np.ndarray, count: int) -> Graph:
    """`g` carrying the partition its builder knows by construction: each
    vertex's smallest label (int64) and the component count.  The caller
    vouches for it; the tests check every sampler against hook-and-compress
    on a freshly built graph."""
    smallest.flags.writeable = False
    g.__dict__["component_labels"] = (smallest, count)  # where the cached_property keeps its value
    return g


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph on `vertices` relabelled to 0..k-1; returns (subgraph, old labels)."""
    verts = np.sort(np.fromiter(vertices, dtype=np.int64))
    index = np.full(g.n, -1)
    index[verts] = np.arange(len(verts))
    src, dst = index[g.sources], index[g.indices]
    keep = (src >= 0) & (src < dst)
    return Graph.from_edges(len(verts), np.stack((src[keep], dst[keep]), axis=1)), verts.tolist()


MAX_VERTICES = 10**6  # largest n that `Graph.from_edges` accepts
MAX_EDGES = 10**7  # largest edge count that `Graph.from_edges` accepts


def check_vertex_limit(n: int) -> None:
    """Reject n > MAX_VERTICES, before the caller allocates per vertex."""
    if n > MAX_VERTICES:
        raise GraphError(f"n={n} exceeds the vertex limit {MAX_VERTICES}")


def check_edge_limit(m: int) -> None:
    """Reject m > MAX_EDGES, before the caller allocates per edge."""
    if m > MAX_EDGES:
        raise GraphError(f"m={m} edges exceeds the edge limit {MAX_EDGES}")


def check_blocks(g: Graph, block: int) -> None:
    """Reject `g` unless it is a disjoint union of graphs on consecutive
    blocks of `block` vertices: n a multiple of `block` and no edge between
    two blocks."""
    if block < 1 or g.n % block:
        raise GraphError(f"n={g.n} is not a whole number of blocks of {block} vertices")
    crossing = g.sources // block != g.indices // block
    if np.count_nonzero(crossing):
        e = int(crossing.argmax())  # CSR order: the first crossing slot has the smaller end as its source
        raise GraphError(f"edge ({g.sources[e]},{g.indices[e]}) joins two blocks of {block} vertices")


def _content_lines(text: str) -> list[str]:
    return [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]


def _header(lines: list[str]) -> tuple[int, int]:
    if not lines:
        raise GraphError("empty graph text")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        return int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"malformed header {lines[0]!r}") from exc


def parse_header(text: str) -> tuple[int, int]:
    """The counts (n, m) from the header line of edge-list text.

    Builds no graph, so a caller can bound n before `parse_graph` allocates
    its CSR arrays of n + 1 int64 entries (`indptr` alone is 8 MB at n = 10**6).
    """
    return _header(_content_lines(text))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v".

    A header with n > MAX_VERTICES or m > MAX_EDGES is rejected before
    anything is built.
    """
    lines = _content_lines(text)
    n, m = _header(lines)
    check_vertex_limit(n)
    check_edge_limit(m)
    if m != len(lines) - 1:
        raise GraphError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"malformed edge line {ln!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: edges normalized to u < v and sorted."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
