import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_resolving,
    leg_counts,
    path_graph,
    prufer_decode,
    slater_walk_witness,
    star_graph,
)
import mdim.metric_dimension
from mdim.generators import SeededRng, _graphs, sample_gnp, sample_uniform_forest, sample_uniform_tree
from mdim.graph import Graph, GraphError, connected_components
from mdim.metric_dimension import (
    BRUTE_MAX_VERTICES,
    ComponentTooLargeError,
    NotAForestError,
    NotATreeError,
    ResolvingWitness,
    SizeCapError,
    _solve,
    brute_force_beta,
    check_brute_size,
    forest_beta,
    forest_betas,
    graph_beta,
    slater_tree_beta,
)


def spider(leg_lengths):
    """Center 0 with pendant paths of the given lengths."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


class TestDecoration:
    """Slater's rule read off the leaves and the terminals of their walks."""

    def test_star(self):
        # leaves 1, 2, 3 all end at the centre: 3 leaves - 1 important vertex
        assert slater_tree_beta(star_graph(3)) == ResolvingWitness(2, (2, 3))

    def test_path_has_no_important(self):
        # with no branch vertex the witness is the smaller endpoint
        assert slater_tree_beta(path_graph(4)) == ResolvingWitness(1, (0,))

    def test_spider_two_step_legs(self):
        # leaves 2, 4, 6 walk through 1, 3, 5 to the centre; 2 is dropped
        assert slater_tree_beta(spider([2, 2, 2])) == ResolvingWitness(2, (4, 6))

    def test_important_vertices_have_degree_three(self):
        # the degree-2 vertices 3, 5, 6 are walked through, not terminals, so
        # leaves 1, 2, 4, 7 share the one important vertex 0
        assert slater_tree_beta(spider([1, 1, 2, 3])) == ResolvingWitness(3, (2, 4, 7))

    def test_results_equal_and_hash_as_literals(self):
        # the solver builds its witness tuple on first read; a literal holds it from the start
        literal = ResolvingWitness(2, (2, 3))
        for res in (slater_tree_beta(star_graph(3)), forest_beta(star_graph(3)), graph_beta(star_graph(3))):
            assert res == literal and hash(res) == hash(literal) and {res, literal} == {literal}
            assert repr(res) == repr(literal) == "ResolvingWitness(beta=2, witness=(2, 3))"
        assert slater_tree_beta(star_graph(3)) != ResolvingWitness(2, (1, 3))
        assert forest_beta(Graph.from_edges(3, [])) == ResolvingWitness(2, (0, 1))

    def test_not_a_tree(self):
        with pytest.raises(NotATreeError):
            slater_tree_beta(cycle_graph(4))
        with pytest.raises(NotATreeError):
            slater_tree_beta(Graph.from_edges(3, [(0, 1)]))


class TestSlater:
    def test_long_path(self):
        res = slater_tree_beta(path_graph(7))
        assert res.beta == 1
        assert res.witness == (0,)

    def test_star(self):
        res = slater_tree_beta(star_graph(3))
        assert res.beta == 2
        assert res.witness == (2, 3)  # smallest associated leaf (1) removed

    def test_double_star(self):
        # two adjacent centers with two leaves each: 4 leaves - 2 important
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert slater_tree_beta(g).beta == 2

    def test_single_vertex(self):
        res = slater_tree_beta(Graph.from_edges(1, []))
        assert res.beta == 1 and res.witness == (0,)

    def test_two_vertices_is_path(self):
        assert slater_tree_beta(Graph.from_edges(2, [(0, 1)])).beta == 1


class TestForest:
    def test_two_isolated_vertices(self):
        res = forest_beta(Graph.from_edges(2, []))
        assert res.beta == 1
        assert is_resolving(Graph.from_edges(2, []), res.witness)

    def test_path_plus_isolated(self):
        g = disjoint_union(path_graph(3), Graph.from_edges(1, []))
        res = forest_beta(g)
        assert res.beta == 1

    def test_star_plus_path(self):
        g = disjoint_union(star_graph(3), path_graph(4))
        res = forest_beta(g)
        assert res.beta == 3
        assert is_resolving(g, res.witness)

    def test_rejects_cycles(self):
        with pytest.raises(NotAForestError):
            forest_beta(cycle_graph(3))
        # one cycle among trees and isolated vertices: k = n - m fails by one
        for g in (disjoint_union(cycle_graph(3), Graph.from_edges(4, [])), disjoint_union(path_graph(5), cycle_graph(4))):
            with pytest.raises(NotAForestError, match="graph contains a cycle"):
                forest_beta(g)

    def test_single_isolated_vertex(self):
        assert forest_beta(Graph.from_edges(1, [])).beta == 1

    def test_all_isolated(self):
        g = Graph.from_edges(5, [])
        res = forest_beta(g)
        assert res.beta == 4
        assert is_resolving(g, res.witness)


class TestIsResolving:
    def test_path_endpoint(self):
        assert is_resolving(path_graph(3), [0])

    def test_triangle_single_vertex_fails(self):
        assert not is_resolving(cycle_graph(3), [0])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_empty_landmarks_resolve_only_up_to_one_vertex(self, n):
        assert is_resolving(Graph.from_edges(n, []), []) == (n <= 1)

    @given(st.integers(min_value=1, max_value=8))
    def test_full_vertex_set(self, n):
        g = complete_graph(n) if n >= 2 else Graph.from_edges(1, [])
        assert is_resolving(g, range(n))


class TestBruteForce:
    def test_complete_graph(self):
        assert brute_force_beta(complete_graph(4)).beta == 3

    def test_cycle(self):
        assert brute_force_beta(cycle_graph(5)).beta == 2

    def test_path(self):
        res = brute_force_beta(path_graph(6))
        assert res.beta == 1 and res.witness == (0,)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            brute_force_beta(path_graph(13))

    def test_ceiling_holds_whatever_the_cap(self):
        # a star one vertex above the ceiling would search for about 15 s
        star = star_graph(BRUTE_MAX_VERTICES)
        with pytest.raises(SizeCapError, match=f"ceiling of {BRUTE_MAX_VERTICES} vertices"):
            brute_force_beta(star, size_cap=star.n)
        with pytest.raises(SizeCapError, match="ceiling"):
            graph_beta(disjoint_union(cycle_graph(star.n), path_graph(2)), brute_cap=star.n)
        check_brute_size(BRUTE_MAX_VERTICES, 40)  # the ceiling itself is searched

    def test_lexicographic_minimum(self):
        res = brute_force_beta(star_graph(3))
        assert res.witness == (1, 2)

    def test_respects_unreachable_convention(self):
        g = Graph.from_edges(3, [])
        assert brute_force_beta(g).beta == 2


class TestOracleEquivalence:
    def test_exhaustive_small_trees(self):
        from helpers import enumerate_trees, split_blocks

        for n in range(2, 7):
            for t in (t for union in enumerate_trees(n) for t in split_blocks(union, n)):
                s = slater_tree_beta(t)
                b = brute_force_beta(t)
                assert s.beta == b.beta, tuple(t.edges())
                assert is_resolving(t, s.witness)
                assert is_resolving(t, b.witness)
                if n >= 2:
                    assert 1 <= s.beta <= n - 1

    def test_random_forests(self):
        from mdim.generators import SeededRng, sample_uniform_forest

        rng = SeededRng(1234, 0).generator()
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            f = sample_uniform_forest(n, rng)
            fw = forest_beta(f)
            bw = brute_force_beta(f)
            assert fw.beta == bw.beta, tuple(f.edges())
            assert is_resolving(f, fw.witness)

    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_random_trees_match(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        t = prufer_decode(seq)
        assert slater_tree_beta(t).beta == brute_force_beta(t).beta


class TestLegCharacterization:
    @given(st.integers(min_value=4, max_value=8), st.data())
    def test_leg_sum_equals_slater(self, n, data):
        # |L| - |K| agrees with the sum over branch vertices of (legs - 1) on non-paths
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        t = prufer_decode(seq)
        if all(t.degree(v) <= 2 for v in range(t.n)):
            return
        leg_sum = sum(c - 1 for c in leg_counts(t).values() if c > 1)
        assert slater_tree_beta(t).beta == leg_sum


class TestGraphBeta:
    def test_matches_forest_beta_on_forests(self):
        g = disjoint_union(star_graph(3), path_graph(4), Graph.from_edges(1, []))
        assert graph_beta(g).beta == forest_beta(g).beta

    def test_cycle_component_brute_forced(self):
        g = disjoint_union(cycle_graph(5), path_graph(3))
        assert graph_beta(g).beta == 2 + 1

    def test_large_non_tree_component_raises(self):
        with pytest.raises(ComponentTooLargeError):
            graph_beta(cycle_graph(20))

    def test_composition_matches_whole_graph_brute_force(self):
        g = disjoint_union(cycle_graph(4), Graph.from_edges(2, []), path_graph(2))
        assert graph_beta(g).beta == brute_force_beta(g).beta
        w = graph_beta(g)
        assert is_resolving(g, w.witness)

    def test_oversize_checked_before_brute_force(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return brute_force_beta(*args, **kwargs)

        monkeypatch.setattr(mdim.metric_dimension, "brute_force_beta", counting)
        g = disjoint_union(cycle_graph(3), cycle_graph(15))
        with pytest.raises(ComponentTooLargeError) as info:
            graph_beta(g)
        assert info.value.size == 15
        assert calls == []

    @pytest.mark.parametrize("sizes", [(20, 13), (13, 20)])
    def test_oversize_reported_by_smallest_label(self, sizes):
        g = disjoint_union(*(cycle_graph(k) for k in sizes))
        with pytest.raises(ComponentTooLargeError) as info:
            graph_beta(g)
        assert info.value.size == sizes[0]


def solved(solver, g, brute_cap=12):
    """The solver's witness, or the oversize component's (size, edges, cap)."""
    try:
        return solver(connected_components(g), brute_cap)
    except ComponentTooLargeError as exc:
        return exc.size, exc.edges, exc.cap


def relabelled(g, perm):
    """`g` with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def forest_piece(draw):
    """A Prüfer tree, a path, a K2 or an isolated vertex."""
    kind = draw(st.sampled_from(["prufer", "path", "k2", "isolated"]))
    if kind == "prufer":
        n = draw(st.integers(3, 9))
        return prufer_decode(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    return path_graph({"path": draw(st.integers(3, 7)), "k2": 2, "isolated": 1}[kind])


@st.composite
def cycle_with_pendants(draw):
    """A cycle of length <= 8 with up to three pendant paths, each hung from
    any vertex already placed (so a path may hang from another path)."""
    k = draw(st.integers(3, 8))
    edges = [(i, (i + 1) % k) for i in range(k)]
    n = k
    for _ in range(draw(st.integers(0, 3))):
        prev = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 3))):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


class TestWalkOracle:
    """The pointer-doubling solver against the per-leaf walk it replaced."""

    @given(st.lists(st.one_of(forest_piece(), cycle_with_pendants()), min_size=1, max_size=6), st.data())
    def test_unions_match_walk(self, pieces, data):
        g = disjoint_union(*pieces)
        g = relabelled(g, data.draw(st.permutations(range(g.n))))
        res = solved(_solve, g)
        assert res == solved(slater_walk_witness, g)
        if isinstance(res, ResolvingWitness):
            # `mdim exact` hands the witness to json.dumps: a tuple of Python ints
            assert res.beta == len(res.witness)
            assert type(res.witness) is tuple and all(type(v) is int for v in res.witness)

    @pytest.mark.parametrize(
        "sample",
        [
            lambda rng: sample_gnp(10**4, 0.5 / 10**4, rng),
            lambda rng: sample_gnp(4000, 0.9 / 4000, rng),
            lambda rng: sample_uniform_tree(1000, rng),
            lambda rng: sample_uniform_forest(500, rng),
        ],
        ids=["gnp-1e4-0.5", "gnp-4000-0.9", "tree-1000", "forest-500"],
    )
    def test_sampled_graphs_match_walk(self, sample):
        for stream in range(10):
            g = sample(SeededRng(7, stream).generator())
            assert solved(_solve, g) == solved(slater_walk_witness, g), stream

    def test_spider_with_one_long_leg(self):
        # the doubling needs about log2(2e5) = 18 rounds, a lockstep walk 2e5
        g = spider([3, 200_000, 1, 2])
        assert solved(_solve, g) == solved(slater_walk_witness, g) == ResolvingWitness(3, (200_003, 200_004, 200_006))

    def test_long_paths(self):
        # one path in decreasing labels, one in shuffled labels; the smaller end is kept
        n = 100_000
        for along in (np.arange(n)[::-1], np.random.default_rng(0).permutation(n)):
            g = Graph.from_edges(n, np.stack((along[:-1], along[1:]), axis=1))
            expected = ResolvingWitness(1, (int(min(along[0], along[-1])),))
            assert solved(_solve, g) == solved(slater_walk_witness, g) == expected

    def test_pure_cycle_beside_tree(self):
        # every vertex of C7 has degree 2: the doubling must stop on them
        g = disjoint_union(cycle_graph(7), spider([2, 1, 3]), path_graph(3))
        assert solved(_solve, g) == solved(slater_walk_witness, g)
        assert _solve(connected_components(g), 12).beta == 2 + 2 + 1

    def test_caterpillar_with_degree_three_spine(self):
        # spine 0..k-1; the ends carry two leaves, the inner vertices one
        k = 50
        edges = [(i, i + 1) for i in range(k - 1)]
        hangs = [0, 0, *range(1, k - 1), k - 1, k - 1]
        edges += [(v, k + j) for j, v in enumerate(hangs)]
        g = Graph.from_edges(k + len(hangs), edges)
        assert set(g.degrees[:k].tolist()) == {3}
        assert solved(_solve, g) == solved(slater_walk_witness, g) == ResolvingWitness(2, (k + 1, k + len(hangs) - 1))


@st.composite
def labelled_forest(draw, n):
    """Any labelled forest on n vertices: each vertex is a root or hangs from
    a smaller one, then the labels are permuted."""
    parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) if v else None for v in range(n)]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[v], perm[p]) for v, p in enumerate(parents) if p is not None])


def forest_unions(min_size=1):
    """(n, forests): 1-40 forests on one size n in 1..9."""
    return st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(labelled_forest(n), min_size=min_size, max_size=40))
    )


class TestForestBetas:
    """One Slater pass over a disjoint union against `forest_beta` on each
    forest alone: the isolated-vertex rule must hold block by block."""

    @given(forest_unions())
    @example((1, [Graph.from_edges(1, [])] * 3))  # single vertices: beta 1 each
    @example((5, [Graph.from_edges(5, [])] * 4))  # edgeless blocks: n - 1 each
    @example((4, [Graph.from_edges(4, [(0, 1)]), path_graph(4), Graph.from_edges(4, [(2, 3)]), Graph.from_edges(4, [])]))
    def test_matches_forest_beta_per_block(self, case):
        n, forests = case
        assert forest_betas(disjoint_union(*forests), n) == [forest_beta(f).beta for f in forests]

    @given(forest_unions(min_size=2), st.data())
    def test_an_edge_between_blocks_raises(self, case, data):
        n, forests = case
        union = disjoint_union(*forests)
        u = data.draw(st.integers(0, union.n - n - 1))
        v = data.draw(st.integers((u // n + 1) * n, union.n - 1))
        crossing = Graph.from_edges(union.n, [*union.edges(), (u, v)])  # still a forest
        with pytest.raises(GraphError, match=rf"edge \({u},{v}\) joins two blocks of {n} vertices"):
            forest_betas(crossing, n)

    def test_sampler_epilogue_checks_blocks(self):
        # one component on labels 1 and 2 of a union of two graphs on 2 vertices
        labels, smallest = np.array([1, 2]), np.array([0, 1, 1, 3])
        with pytest.raises(GraphError, match=r"edge \(1,2\) joins two blocks of 2 vertices"):
            _graphs(2, labels, [np.empty(0, dtype=np.int64)], smallest, 3)

    def test_rejects_a_partial_block_and_a_cycle(self):
        with pytest.raises(GraphError, match="n=5 is not a whole number of blocks of 2 vertices"):
            forest_betas(path_graph(5), 2)
        with pytest.raises(NotAForestError, match="graph contains a cycle"):
            forest_betas(disjoint_union(path_graph(3), cycle_graph(3)), 3)

    def test_empty_union(self):
        assert forest_betas(Graph.from_edges(0, []), 4) == []
