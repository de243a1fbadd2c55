"""Labelled undirected simple graphs: distances, components, edge-list I/O.

Vertices are dense integer labels 0..n-1. Graphs are immutable after
construction, so they can be shared freely across threads/processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad vertex id, ...)."""


# Distance between vertices in different components: never equal to an int,
# and hashable, so distance profiles can be dict/set keys.
UNREACHABLE = None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_vertex_limit(n)
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        neighbours: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
            neighbours[u].append(v)
            neighbours[v].append(u)
        return cls(n, tuple(tuple(sorted(ns)) for ns in neighbours))

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from `source`; UNREACHABLE outside its component."""
    if not 0 <= source < g.n:
        raise GraphError(f"source {source} out of range for n={g.n}")
    dist: list = [UNREACHABLE] * g.n
    dist[source] = 0
    visited = [source]  # doubles as the BFS queue: the loop reads what it appends
    for u in visited:
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] is UNREACHABLE:
                dist[w] = du
                visited.append(w)
    return dist


@dataclass(frozen=True)
class DistanceProfile:
    """Per-vertex vectors of hop distances to an ordered landmark list."""

    landmarks: tuple[int, ...]
    rows: tuple[tuple, ...]


def distance_profile(g: Graph, landmarks: Iterable[int]) -> DistanceProfile:
    marks = tuple(landmarks)
    if len(set(marks)) != len(marks):
        raise GraphError(f"duplicate landmark in {marks}")
    for r in marks:
        if not 0 <= r < g.n:
            raise GraphError(f"landmark {r} out of range for n={g.n}")
    columns = [bfs_distances(g, r) for r in marks]
    rows = tuple(tuple(col[v] for col in columns) for v in range(g.n))
    return DistanceProfile(marks, rows)


class ComponentKind(Enum):
    ISOLATED_VERTEX = "isolated-vertex"
    PATH = "path"
    NON_PATH_TREE = "non-path-tree"
    NON_TREE = "non-tree"


@dataclass(frozen=True)
class ComponentPartition:
    assignment: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    kinds: tuple[ComponentKind, ...]


def connected_components(g: Graph) -> ComponentPartition:
    """Partition into components, each classified by shape."""
    assignment = [-1] * g.n
    components: list[tuple[int, ...]] = []
    kinds: list[ComponentKind] = []
    for start in range(g.n):
        if assignment[start] >= 0:
            continue
        cid = len(components)
        assignment[start] = cid
        comp = [start]
        for u in comp:  # BFS with `comp` as its queue
            for w in g.adj[u]:
                if assignment[w] < 0:
                    assignment[w] = cid
                    comp.append(w)
        comp.sort()
        size = len(comp)
        edges = sum(len(g.adj[v]) for v in comp) // 2
        if size == 1:
            kind = ComponentKind.ISOLATED_VERTEX
        elif edges >= size:
            kind = ComponentKind.NON_TREE
        elif all(len(g.adj[v]) <= 2 for v in comp):
            kind = ComponentKind.PATH
        else:
            kind = ComponentKind.NON_PATH_TREE
        components.append(tuple(comp))
        kinds.append(kind)
    return ComponentPartition(tuple(assignment), tuple(components), tuple(kinds))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph on `vertices` relabelled to 0..k-1; returns (subgraph, old labels)."""
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[w])
        for u in verts
        for w in g.adj[u]
        if u < w and w in index
    ]
    return Graph.from_edges(len(verts), edges), verts


MAX_VERTICES = 10**6  # largest n that `Graph.from_edges` accepts


def check_vertex_limit(n: int) -> None:
    """Reject n > MAX_VERTICES, before the caller allocates per vertex."""
    if n > MAX_VERTICES:
        raise GraphError(f"n={n} exceeds the vertex limit {MAX_VERTICES}")


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
    one adjacency list per vertex.
    """
    return _header(_content_lines(text))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v".

    A header with n > MAX_VERTICES is rejected before anything is built.
    """
    lines = _content_lines(text)
    n, m = _header(lines)
    check_vertex_limit(n)
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
