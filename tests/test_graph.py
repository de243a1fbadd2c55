import pickle

import pytest
from hypothesis import given, strategies as st

from helpers import complete_graph, path_graph, star_graph
from mdim.graph import (
    MAX_VERTICES,
    UNREACHABLE,
    ComponentKind,
    Graph,
    GraphError,
    bfs_distances,
    connected_components,
    distance_profile,
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
                same = parts.assignment[v] == parts.assignment[w]
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


class TestDistanceProfile:
    def test_path_single_landmark(self):
        prof = distance_profile(path_graph(3), [0])
        assert prof.rows == ((0,), (1,), (2,))

    def test_complete_graph(self):
        prof = distance_profile(complete_graph(4), [0, 1])
        assert prof.rows == ((0, 1), (1, 0), (1, 1), (1, 1))

    def test_forest_with_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        prof = distance_profile(g, [0])
        assert prof.rows == ((0,), (1,), (UNREACHABLE,))

    def test_duplicate_landmark_rejected(self):
        with pytest.raises(GraphError):
            distance_profile(path_graph(3), [0, 0])

    def test_landmark_out_of_range(self):
        with pytest.raises(GraphError):
            distance_profile(path_graph(3), [5])


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
