import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    chi_square_ok,
    enumerate_trees,
    forest_count_takacs,
    forest_counts_recurrence,
    pair_from_index,
    prufer_edges_walk,
    randbelow_words,
)
from mdim.generators import (
    ForestCountTable,
    SeededRng,
    _forest_count,
    _pairs_from_indices,
    _prufer_edges,
    _randbelow,
    forest_counts,
    prufer_decode,
    sample_gnp,
    sample_uniform_forest,
    sample_uniform_tree,
)
from mdim.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphError,
    connected_components,
    parse_graph,
    serialize_graph,
)
from mdim.metric_dimension import forest_beta, slater_tree_beta


def edge_key(g):
    return tuple(g.edges())


class Handed:
    """Checks the partition each sampled graph carries against hook-and-compress
    on a freshly built graph: each smallest label, its dtype, and the count.

    Graphs are checked in batches, by one `connected_components` over the
    disjoint union of the batch, built anew by `Graph.from_edges` so that no
    sampler hands it labels: its smallest labels are each graph's,
    shifted by the graph's offset, and its roots in each block are that
    graph's count.  So a law test that draws 10^5 graphs pays one
    hook-and-compress per batch, not one per graph.
    """

    def __init__(self, batch: int = 10_000):
        self.batch = batch
        self.held = []  # arrays only: holding the graphs, with their `adj` tuples, slows the collector

    def __call__(self, g):
        # filled in by the sampler; read first, the property would run hook-and-compress itself
        assert "component_labels" in vars(g)
        self.held.append((g.n, g.sources, g.indices, *g.component_labels))
        if len(self.held) >= self.batch:
            self.check()
        return g

    def check(self):
        held, self.held = self.held, []
        if not held:
            return
        sizes, sources, indices, smallest, counts = zip(*held)
        sizes = np.array(sizes)
        starts = np.cumsum(sizes) - sizes
        shift = np.repeat(starts, [len(s) for s in sources])
        src, dst = np.concatenate(sources) + shift, np.concatenate(indices) + shift
        fresh = connected_components(Graph.from_edges(int(sizes.sum()), np.stack((src, dst), axis=1)[src < dst]))
        assert {s.dtype for s in smallest} == {fresh.smallest.dtype}
        assert np.array_equal(np.concatenate(smallest) + np.repeat(starts, sizes), fresh.smallest)
        roots = np.add.reduceat(fresh.smallest == np.arange(len(fresh.smallest)), starts)
        assert roots.tolist() == list(counts)


@pytest.fixture
def handed():
    batch = Handed()
    yield batch
    batch.check()


class TestPruferDecode:
    def test_star_center_zero(self, handed):
        g = handed(prufer_decode([0]))
        assert edge_key(g) == ((0, 1), (0, 2))

    def test_single_edge(self, handed):
        assert edge_key(handed(prufer_decode([]))) == ((0, 1),)

    def test_bijection_n4(self, handed):
        from itertools import product

        images = {edge_key(handed(prufer_decode(seq))) for seq in product(range(4), repeat=2)}
        assert len(images) == 16

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            prufer_decode([5])

    @pytest.mark.parametrize("seq,first", [([1, 7, -1, 9], 7), ([0, -3, 9, 2], -3), ([2, 0, 5], 5)])
    def test_names_first_out_of_range_entry(self, seq, first):
        with pytest.raises(ValueError, match=f"sequence entry {first} out of range for n={len(seq) + 2}"):
            prufer_decode(seq)
        with pytest.raises(ValueError, match=f"sequence entry {first} out of range"):
            prufer_decode(np.array(seq, dtype=np.int64))

    @pytest.mark.parametrize("seq", [[0.5], [1.0, 2.0], np.array([0.5]), ["1"], [[0, 1]]])
    def test_rejects_non_integer_entries(self, seq):
        with pytest.raises(ValueError, match="1-D integer sequence"):
            prufer_decode(seq)

    def test_unsigned_entries(self):
        seq = np.array([3, 0, 3], dtype=np.uint64)
        assert _prufer_edges(seq).tolist() == [list(e) for e in prufer_edges_walk([3, 0, 3])]
        with pytest.raises(ValueError, match="sequence entry 5 out of range"):
            prufer_decode(np.array([5, 2**64 - 1], dtype=np.uint64))

    def test_edges_match_walk_exhaustive(self):
        from itertools import product

        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                edges = _prufer_edges(seq)
                assert edges.dtype == np.int64 and edges.shape == (n - 1, 2)
                assert edges.tolist() == [list(e) for e in prufer_edges_walk(seq)], seq

    @pytest.mark.parametrize("n", [8, 100, 1000, 5000])
    def test_edges_match_walk_random(self, n):
        rng = SeededRng(31, n).generator()
        for _ in range(200 if n <= 100 else 10):
            seq = rng.integers(0, n, size=n - 2)
            assert _prufer_edges(seq).tolist() == [list(e) for e in prufer_edges_walk(seq.tolist())]

    def test_decodes_are_trees(self, handed):
        for n in (5, 6, 7):
            rng = SeededRng(99, n).generator()
            seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
            t = handed(prufer_decode(seq))
            assert t.n == n and t.edge_count == n - 1
            assert len(connected_components(t).components) == 1


class TestRandbelow:
    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_matches_word_loop(self, words):
        # bounds just above a power of two reject about half the draws
        for bound in (2 ** (64 * words - 1) + 1, 2 ** (64 * words) - 1, 3 ** (40 * words)):
            a, b = SeededRng(5, words).generator(), SeededRng(5, words).generator()
            assert [_randbelow(a, bound) for _ in range(200)] == [randbelow_words(b, bound) for _ in range(200)]
            assert a.integers(0, 1000, size=5).tolist() == b.integers(0, 1000, size=5).tolist()
            assert a.choice(50, size=5, replace=False).tolist() == b.choice(50, size=5, replace=False).tolist()

    def test_forest_count_bounds(self):
        table = forest_counts(300)
        a, b = SeededRng(6, 0).generator(), SeededRng(6, 0).generator()
        for m in (1, 2, 10, 100, 300):
            assert _randbelow(a, table.f[m]) == randbelow_words(b, table.f[m])
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            _randbelow(SeededRng(0).generator(), 0)


class TestEnumerateTrees:
    @pytest.mark.parametrize("n,count", [(4, 16), (6, 1296), (7, 16807)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_trees(n)) == count

    def test_range_check(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(1))
        with pytest.raises(ValueError):
            list(enumerate_trees(9))


class TestUniformTree:
    def test_tiny_sizes(self, handed):
        rng = SeededRng(0, 0).generator()
        assert handed(sample_uniform_tree(1, rng)).n == 1
        assert edge_key(handed(sample_uniform_tree(2, rng))) == ((0, 1),)

    def test_uniform_n3(self, handed):
        rng = SeededRng(42, 0).generator()
        counts = Counter(edge_key(handed(sample_uniform_tree(3, rng))) for _ in range(100_000))
        probs = {edge_key(t): 1 / 3 for t in enumerate_trees(3)}
        assert len(counts) == 3
        assert chi_square_ok(counts, probs, 100_000)

    def test_uniform_n4(self, handed):
        rng = SeededRng(43, 0).generator()
        counts = Counter(edge_key(handed(sample_uniform_tree(4, rng))) for _ in range(100_000))
        probs = {edge_key(t): 1 / 16 for t in enumerate_trees(4)}
        assert len(counts) == 16
        assert chi_square_ok(counts, probs, 100_000)

    def test_star_frequency_n4(self, handed):
        rng = SeededRng(44, 0).generator()
        total = 100_000
        stars = sum(
            1
            for _ in range(total)
            if max(map(len, handed(sample_uniform_tree(4, rng)).adj)) == 3
        )
        p = 4 / 16
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(stars / total - p) < 3.5 * sigma


class TestForestCounts:
    def test_small_values(self):
        tab = forest_counts(6)
        assert tab.f[0] == 1 and tab.f[1] == 1 and tab.f[2] == 2 and tab.f[3] == 7

    def test_tree_counts(self):
        tab = forest_counts(8)
        assert tab.t[1] == 1 and tab.t[2] == 1 and tab.t[3] == 3 and tab.t[8] == 8**6

    def test_recurrence_is_consistent(self):
        tab = forest_counts(25)
        for m in (5, 12, 25):
            assert tab.component_cumweights(m)[-1] == tab.f[m]

    def test_matches_recurrence(self):
        tab = forest_counts(200)
        t, f = forest_counts_recurrence(200)
        assert tab.t == tuple(t) and tab.f == tuple(f)

    def test_matches_takacs(self):
        assert forest_counts(300).f == tuple(forest_count_takacs(m) for m in range(301))

    @pytest.mark.parametrize("m", [500, 1000, 2000])
    def test_matches_takacs_large(self, m):
        assert _forest_count(m) == forest_count_takacs(m)

    def test_cumweights_match_comb_sum(self):
        full = forest_counts(60)
        tab = ForestCountTable(full.t, full.f)  # no weights cached by other tests
        for m in range(1, 61):
            want, acc = [], 0
            for k in range(m, 0, -1):
                acc += math.comb(m - 1, k - 1) * tab.t[k] * tab.f[m - k]
                want.append(acc)
            assert tab.component_cumweights(m) == want

    def test_oeis_a001858(self):
        assert forest_counts(10).f == (
            1, 1, 2, 7, 38, 291, 2932, 36961, 561948, 10026505, 205608536,
        )

    @pytest.mark.parametrize("m", [1, 12])
    def test_cumweights_check_is_live(self, m):
        tab = forest_counts(12)
        f = list(tab.f)
        f[m] += 1
        with pytest.raises(AssertionError):
            ForestCountTable(tab.t, tuple(f)).component_cumweights(m)

    def test_matches_forest_series(self, system30):
        tab = forest_counts(20)
        for n in range(21):
            assert sum(system30.G.count_poly(n).terms.values()) == tab.f[n]


class TestUniformForest:
    def test_two_singletons_probability(self, handed):
        rng = SeededRng(7, 0).generator()
        total = 40_000
        empty = sum(1 for _ in range(total) if handed(sample_uniform_forest(2, rng)).edge_count == 0)
        sigma = math.sqrt(0.25 / total)
        assert abs(empty / total - 0.5) < 3.5 * sigma

    def test_empty_graph_probability_n3(self, handed):
        rng = SeededRng(8, 0).generator()
        total = 70_000
        empty = sum(1 for _ in range(total) if handed(sample_uniform_forest(3, rng)).edge_count == 0)
        p = 1 / 7
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(empty / total - p) < 3.5 * sigma

    def test_component_size_law_n6(self, handed):
        tab = forest_counts(6)
        probs = {
            k: math.comb(5, k - 1) * tab.t[k] * tab.f[6 - k] / tab.f[6]
            for k in range(1, 7)
        }
        rng = SeededRng(9, 0).generator()
        total = 100_000
        counts = Counter()
        for _ in range(total):
            f = handed(sample_uniform_forest(6, rng))
            parts = connected_components(f)
            comp0 = parts.components[parts.component_of[0]]
            counts[len(comp0)] += 1
        assert chi_square_ok(counts, probs, total)

    def test_isolated_vertex_marginal(self, handed):
        # P(vertex 0 isolated in a uniform forest on n) = f_{n-1}/f_n
        total = 30_000
        for n in range(2, 11):
            tab = forest_counts(n)
            p = tab.f[n - 1] / tab.f[n]
            rng = SeededRng(100 + n, 0).generator()
            hits = sum(
                1
                for _ in range(total)
                if len(handed(sample_uniform_forest(n, rng)).adj[0]) == 0
            )
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(hits / total - p) < 4 * sigma, n


class TestGnp:
    def test_p_zero(self):
        rng = SeededRng(1, 0).generator()
        assert sample_gnp(50, 0.0, rng).edge_count == 0

    def test_p_one(self):
        rng = SeededRng(1, 0).generator()
        assert sample_gnp(20, 1.0, rng).edge_count == 20 * 19 // 2

    def test_p_out_of_range(self):
        rng = SeededRng(1, 0).generator()
        with pytest.raises(ValueError):
            sample_gnp(5, 1.5, rng)

    def test_mean_edge_count(self):
        n, c, reps = 10_000, 0.5, 40
        counts = []
        for i in range(reps):
            rng = SeededRng(11, i).generator()
            counts.append(sample_gnp(n, c / n, rng).edge_count)
        total = n * (n - 1) // 2
        p = c / n
        mean_target = total * p
        sigma = math.sqrt(total * p * (1 - p) / reps)
        assert abs(np.mean(counts) - mean_target) < 3.5 * sigma

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_pair_decoder_every_index(self, n):
        total = n * (n - 1) // 2
        got = _pairs_from_indices(np.arange(total), n, total).tolist()
        assert got == [list(pair_from_index(i, n, total)) for i in range(total)]
        assert got == [[i, j] for i in range(n) for j in range(i + 1, n)]

    def test_pair_decoder_at_the_vertex_limit(self):
        # row starts and ends, where a float sqrt one off would pick the wrong row
        n = MAX_VERTICES
        total = n * (n - 1) // 2
        starts = [i * (2 * n - i - 1) // 2 for i in (0, 1, 2, 1000, n // 2, n - 3, n - 2)]
        idx = sorted({k + d for k in starts for d in (-1, 0, 1) if 0 <= k + d < total})
        idx += SeededRng(3, 0).generator().integers(0, total, size=2000).tolist()
        got = _pairs_from_indices(np.array(idx), n, total).tolist()
        assert got == [list(pair_from_index(i, n, total)) for i in idx]

    def test_edge_limit_checked_before_drawing_pairs(self):
        import tracemalloc

        rng = SeededRng(1, 0).generator()
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=f"edges exceeds the edge limit {MAX_EDGES}"):
                sample_gnp(100_000, 1.0, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_moderate_density_simple(self):
        rng = SeededRng(2, 0).generator()
        g = sample_gnp(12, 0.7, rng)
        for u, v in g.edges():
            assert u < v
        assert g.edge_count == len(set(g.edges()))


class TestDeterminism:
    def test_same_seed_same_graph(self, handed):
        for sampler, n, hands_partition in (
            (sample_uniform_tree, 200, True),
            (lambda n, r: sample_uniform_forest(n, r), 60, True),
            (lambda n, r: sample_gnp(n, 2.0 / n, r), 500, False),
        ):
            a = sampler(n, SeededRng(5, 3).generator())
            b = sampler(n, SeededRng(5, 3).generator())
            assert serialize_graph(a) == serialize_graph(b)
            if hands_partition:
                handed(a)
            else:  # G(n,p) leaves its partition to hook-and-compress in `Graph.component_labels`
                assert "component_labels" not in vars(a)

    def test_streams_differ(self, handed):
        a = handed(sample_uniform_tree(100, SeededRng(5, 0).generator()))
        b = handed(sample_uniform_tree(100, SeededRng(5, 1).generator()))
        assert serialize_graph(a) != serialize_graph(b)


class TestHandedPartition:
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
        )
    )
    @example((1, []))
    @example((2, []))
    @example((60, [59] * 58))
    def test_random_pruefer_sequences(self, case):
        n, seq = case
        handed = Handed()  # checked inside the example, so that hypothesis can shrink a failure
        t = handed(sample_uniform_tree(1, SeededRng(0).generator()) if n == 1 else prufer_decode(seq))
        handed.check()
        assert t.n == n
        smallest, count = t.component_labels
        assert count == 1 and not smallest.any()

    @given(st.integers(1, 40), st.integers(0, 2**32))
    @example(1, 0)
    def test_random_forests(self, n, seed):
        handed = Handed()
        f = handed(sample_uniform_forest(n, SeededRng(seed).generator()))
        handed.check()
        assert f.component_labels[1] == n - f.edge_count

    # (n, seed) drawing each extreme: no edge at all, and a single tree
    @pytest.mark.parametrize("n,seed,count", [(3, 12, 3), (4, 120, 4), (5, 1020, 5), (12, 0, 1), (40, 1, 1)])
    def test_all_isolated_and_single_tree(self, handed, n, seed, count):
        f = handed(sample_uniform_forest(n, SeededRng(seed).generator()))
        assert f.component_labels[1] == count

    @pytest.mark.parametrize(
        "build",
        [lambda: Graph.from_edges(4, [(0, 1), (2, 3)]), lambda: parse_graph("4 2\n0 1\n2 3\n")],
        ids=["from_edges", "parse_graph"],
    )
    def test_other_graphs_compute_their_own(self, build, monkeypatch):
        import mdim.graph

        real, calls = mdim.graph._smallest_labels, []

        def counted(n, u, v):
            calls.append(n)
            return real(n, u, v)

        g = build()
        assert "component_labels" not in vars(g)
        monkeypatch.setattr(mdim.graph, "_smallest_labels", counted)
        assert forest_beta(g).beta == 2
        smallest, count = g.component_labels
        assert connected_components(g).count == 2
        assert calls == [4]  # hook-and-compress ran once, on first read
        assert smallest.tolist() == [0, 0, 2, 2] and count == 2

    def test_sampled_graphs_skip_hook_and_compress(self, monkeypatch):
        import mdim.graph

        def refuse(n, u, v):
            raise AssertionError("hook-and-compress ran on a sampled graph")

        tree = sample_uniform_tree(300, SeededRng(4).generator())
        forest = sample_uniform_forest(300, SeededRng(4).generator())
        monkeypatch.setattr(mdim.graph, "_smallest_labels", refuse)
        assert slater_tree_beta(tree).beta >= 1
        assert forest_beta(forest).beta >= 1

    def test_exact_still_rejects_a_triangle(self, tmp_path, capsys):
        from mdim.cli import main

        path = tmp_path / "triangle.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        assert main(["exact", "--graph", str(path)]) == 2
        assert "graph contains a cycle" in capsys.readouterr().err
