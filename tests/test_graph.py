import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import bfs_partition, checked_adjacency, complete_graph, path_graph, star_graph
from mdim.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    UNREACHABLE,
    ComponentKind,
    Graph,
    GraphError,
    bfs_distances,
    check_edge_limit,
    connected_components,
    induced_subgraph,
    parse_graph,
    parse_header,
    serialize_graph,
)


def random_graph(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph.from_edges(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, sorted(edges))


graphs = st.composite(random_graph)()


def sparse_graph(draw, max_n=60):
    """About n random pairs on n vertices: trees, long paths and a few cycles."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ends = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=n))
    return Graph.from_edges(n, sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b}))


sparse_graphs = st.composite(sparse_graph)()


def relabelled(edges, n, seed):
    """`edges` with vertex v renamed perm[v] for a seeded random permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    return Graph.from_edges(n, perm[np.asarray(edges)])


def star_of_paths(legs, length):
    """Centre n-1 (the largest label) joined to `legs` paths of `length` vertices."""
    n = legs * length + 1
    edges = [(n - 1, leg * length) for leg in range(legs)]
    edges += [(leg * length + i, leg * length + i + 1) for leg in range(legs) for i in range(length - 1)]
    return n, edges


def cycle_with_pendant_trees(cycle, tree_size, seed):
    """A cycle on 0..cycle-1, each vertex the root of a random tree on
    `tree_size` vertices (each new vertex joins a uniform earlier one)."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    n = cycle
    for root in range(cycle):
        block = [root]
        for _ in range(tree_size - 1):
            edges.append((block[int(rng.integers(len(block)))], n))
            block.append(n)
            n += 1
    return n, edges


class TestUnreachable:
    def test_equal_only_to_itself(self):
        assert UNREACHABLE == UNREACHABLE
        assert not UNREACHABLE == 0
        assert UNREACHABLE != 3
        assert UNREACHABLE != -1

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(UNREACHABLE)) is UNREACHABLE


class TestBfs:
    def test_path(self):
        assert bfs_distances(path_graph(3), 0) == [0, 1, 2]

    def test_two_isolated_vertices(self):
        g = Graph.from_edges(2, [])
        assert bfs_distances(g, 0) == [0, UNREACHABLE]

    def test_star_from_leaf(self):
        assert bfs_distances(star_graph(3), 1) == [1, 0, 2, 2]

    def test_complete_graph(self):
        g = complete_graph(4)
        assert bfs_distances(g, 0) == [0, 1, 1, 1]
        assert bfs_distances(g, 1) == [1, 0, 1, 1]

    def test_forest_with_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]

    def test_source_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), 3)

    @given(graphs)
    def test_self_distance_and_component_support(self, g):
        parts = connected_components(g)
        for v in range(g.n):
            dist = bfs_distances(g, v)
            assert dist[v] == 0
            for w in range(g.n):
                same = parts.component_of[v] == parts.component_of[w]
                assert (dist[w] == UNREACHABLE) == (not same)

    @given(graphs)
    def test_triangle_inequality(self, g):
        dist = [bfs_distances(g, v) for v in range(g.n)]
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    duv, dvw, duw = dist[u][v], dist[v][w], dist[u][w]
                    if UNREACHABLE in (duv, dvw, duw):
                        continue
                    assert duw <= duv + dvw


class TestComponents:
    def test_edgeless(self):
        parts = connected_components(Graph.from_edges(3, []))
        assert len(parts.components) == 3
        assert all(k is ComponentKind.ISOLATED_VERTEX for k in parts.kinds)

    def test_path_kind(self):
        parts = connected_components(path_graph(5))
        assert parts.kinds == (ComponentKind.PATH,)

    def test_triangle_kind(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert connected_components(g).kinds == (ComponentKind.NON_TREE,)

    def test_star_kind(self):
        assert connected_components(star_graph(3)).kinds == (ComponentKind.NON_PATH_TREE,)

    @given(graphs)
    def test_partition(self, g):
        parts = connected_components(g)
        seen = sorted(v for comp in parts.components for v in comp)
        assert seen == list(range(g.n))
        for comp, kind in zip(parts.components, parts.kinds):
            edges = sum(len(g.adj[v]) for v in comp) // 2
            assert (kind is ComponentKind.NON_TREE) == (edges >= len(comp))


class TestComponentsOracle:
    """`connected_components` against the BFS partition in `helpers`."""

    @staticmethod
    def assert_matches(g):
        parts = connected_components(g)
        assignment, components, kinds = bfs_partition(g)
        # count and is_forest (k = n - m) first, before any derived array is read
        assert parts.count == len(components)
        assert parts.is_forest == (ComponentKind.NON_TREE not in kinds)
        assert g.sources.tolist() == [v for v in range(g.n) for _ in g.adj[v]]
        assert tuple(parts.component_of.tolist()) == assignment
        assert parts.components == components
        assert parts.kinds == kinds
        assert parts.sizes.tolist() == [len(c) for c in components]
        assert parts.edge_counts.tolist() == [sum(g.degree(v) for v in c) // 2 for c in components]
        return parts

    @given(graphs)
    def test_dense_small(self, g):
        self.assert_matches(g)

    @given(sparse_graphs)
    def test_sparse(self, g):
        self.assert_matches(g)

    def test_path_labelled_decreasing(self):
        n = 10_000
        g = Graph.from_edges(n, [(v, v - 1) for v in range(n - 1, 0, -1)])
        assert self.assert_matches(g).kinds == (ComponentKind.PATH,)

    def test_path_shuffled_labels(self):
        n = 10_000
        g = relabelled([(i, i + 1) for i in range(n - 1)], n, seed=1)
        assert self.assert_matches(g).kinds == (ComponentKind.PATH,)

    def test_star_of_long_paths(self):
        n, edges = star_of_paths(legs=40, length=250)
        for g in (Graph.from_edges(n, edges), relabelled(edges, n, seed=2)):
            assert self.assert_matches(g).kinds == (ComponentKind.NON_PATH_TREE,)

    def test_cycle_with_pendant_trees(self):
        n, edges = cycle_with_pendant_trees(cycle=300, tree_size=20, seed=3)
        for g in (Graph.from_edges(n, edges), relabelled(edges, n, seed=4)):
            assert self.assert_matches(g).kinds == (ComponentKind.NON_TREE,)

    def test_many_components(self):
        n, edges = cycle_with_pendant_trees(cycle=5, tree_size=30, seed=5)
        parts = [(n, edges), star_of_paths(3, 40), (7, []), (1, [])]
        base, union = 0, []
        for size, es in parts:
            union += [(u + base, v + base) for u, v in es]
            base += size
        self.assert_matches(relabelled(union, base, seed=6))

    def test_empty_graph(self):
        parts = self.assert_matches(Graph.from_edges(0, []))
        assert parts.components == () and len(parts.sizes) == 0
        assert parts.count == 0 and parts.is_forest

    def test_edgeless(self):
        parts = self.assert_matches(Graph.from_edges(5, []))
        assert parts.count == 5 and parts.is_forest

    def test_triangle_and_isolated_vertices(self):
        # k = 4 components, n - m = 6 - 3 = 3: one surplus edge, a cycle
        g = Graph.from_edges(6, [(1, 3), (3, 5), (1, 5)])
        parts = self.assert_matches(g)
        assert parts.count == 4 and not parts.is_forest
        assert parts.kinds.count(ComponentKind.NON_TREE) == 1

    def test_two_trees_and_a_unicyclic_component(self):
        # a path on 0..3, a star on 4..8, and C4 on 9..12 with a pendant 13
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (4, 8)]
        edges += [(9, 10), (10, 11), (11, 12), (9, 12), (12, 13)]
        for seed in range(3):
            parts = self.assert_matches(relabelled(edges, 14, seed=seed))
            assert parts.count == 3 and not parts.is_forest
            forest = self.assert_matches(relabelled(edges[:7], 14, seed=seed))
            assert forest.count == 7 and forest.is_forest


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_first_offending_edge_named(self):
        cases = [
            (3, [(0, 1), (2, 2), (1, 0), (0, 5)], "self-loop at vertex 2"),
            (3, [(0, 1), (1, 0), (2, 2)], "duplicate edge (1,0)"),
            (3, [(1, 2), (3, 3), (2, 1)], "edge (3,3) out of range for n=3"),
            (3, [(0, -1)], "edge (0,-1) out of range for n=3"),
            (2, [(0, 99999999999999999999)], "edge (0,99999999999999999999) out of range for n=2"),
            (2, [(1, 1), (0, 2**64)], "self-loop at vertex 1"),
            (2, [(0, 1), (-(2**70), 1)], f"edge ({-(2**70)},1) out of range for n=2"),
            (-1, [], "vertex count must be non-negative, got -1"),
        ]
        for n, edges, message in cases:
            with pytest.raises(GraphError) as info:
                Graph.from_edges(n, edges)
            assert str(info.value) == message

    @given(
        st.integers(min_value=0, max_value=8),
        st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=14),
    )
    def test_matches_set_based_check(self, n, edges):
        try:
            want = checked_adjacency(n, edges)
        except GraphError as exc:
            want = str(exc)
        for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
            try:
                got = Graph.from_edges(n, given_edges).adj
            except GraphError as exc:
                got = str(exc)
            assert got == want

    def test_array_and_pair_inputs_agree(self):
        edges = [(3, 1), (0, 2), (2, 3), (4, 0)]
        a = Graph.from_edges(5, edges)
        b = Graph.from_edges(5, np.array(edges))
        c = Graph.from_edges(5, iter(edges))
        assert a.indptr.tolist() == b.indptr.tolist() == c.indptr.tolist() == [0, 2, 3, 5, 7, 8]
        assert a.indices.tolist() == b.indices.tolist() == c.indices.tolist() == [2, 4, 3, 0, 3, 1, 2, 0]
        assert a.adj == ((2, 4), (3,), (0, 3), (1, 2), (0,))

    def test_rejects_non_pairs(self):
        with pytest.raises(GraphError, match="pairs"):
            Graph.from_edges(3, [(0, 1, 2)])

    def test_arrays_read_only(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            g.indices[0] = 3
        with pytest.raises(ValueError):
            g.indptr[1] = 0
        with pytest.raises(ValueError):
            g.sources[0] = 1

    def test_edge_limit(self):
        check_edge_limit(MAX_EDGES)
        with pytest.raises(GraphError, match=f"m={MAX_EDGES + 1} edges exceeds the edge limit {MAX_EDGES}"):
            check_edge_limit(MAX_EDGES + 1)
        with pytest.raises(GraphError, match="exceeds the edge limit"):
            parse_graph(f"3 {MAX_EDGES + 1}\n0 1\n")

    def test_vertex_limit_checked_before_allocation(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="exceeds the vertex limit"):
                Graph.from_edges(MAX_VERTICES + 1, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_induced_subgraph(self):
        sub, labels = induced_subgraph(path_graph(5), [1, 2, 4])
        assert labels == [1, 2, 4]
        assert list(sub.edges()) == [(0, 1)]

    @given(graphs, st.data())
    def test_induced_subgraph_matches_adjacency(self, g, data):
        verts = data.draw(st.sets(st.integers(0, g.n - 1)))
        sub, labels = induced_subgraph(g, verts)
        index = {v: i for i, v in enumerate(sorted(verts))}
        want = sorted((index[u], index[w]) for u in verts for w in g.adj[u] if u < w and w in index)
        assert labels == sorted(verts)
        assert sub.n == len(verts) and list(sub.edges()) == want


class TestIo:
    def test_parse_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g.adj == path_graph(3).adj

    def test_self_loop_error(self):
        with pytest.raises(GraphError):
            parse_graph("2 1\n0 0")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            parse_graph("3 2\n0 1")

    def test_malformed_line(self):
        with pytest.raises(GraphError):
            parse_graph("2 1\n0 1 2")

    def test_header_only(self):
        assert parse_header("\n  1000000 2\n0 1\n") == (1000000, 2)
        for text in ("", "\n \n", "3\n", "3 x\n"):
            with pytest.raises(GraphError):
                parse_header(text)

    def test_header_ignores_the_rest(self):
        assert parse_header("3 1\n0 1 2\n") == (3, 1)
        assert parse_header(" \r\n\x0c 4 0 \x85garbage") == (4, 0)

    @given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x1e\x1f\x85\u2028\u2029\u00a012x", max_size=12))
    def test_header_matches_first_content_line(self, text):
        # the header is the first line str.splitlines gives that is not blank
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            expected = "empty graph text"
        elif len(lines[0].split()) != 2:
            expected = f"malformed header {lines[0]!r}, expected 'n m'"
        else:
            try:
                expected = tuple(int(tok) for tok in lines[0].split())
            except ValueError:
                expected = f"malformed header {lines[0]!r}"
        try:
            got = parse_header(text)
        except GraphError as exc:
            got = str(exc)
        assert got == expected

    def test_vertex_limit(self):
        with pytest.raises(GraphError, match="exceeds the vertex limit"):
            parse_graph(f"{MAX_VERTICES + 1} 0\n")

    def test_canonical_serialization(self):
        text = "3 2\n1 2\n1 0"
        assert serialize_graph(parse_graph(text)) == "3 2\n0 1\n1 2\n"

    @given(graphs)
    def test_round_trip(self, g):
        text = serialize_graph(g)
        back = parse_graph(text)
        assert back.n == g.n and back.adj == g.adj
        assert serialize_graph(back) == text
