import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    block_edges,
    chi_square_ok,
    enumerate_trees,
    forest_count_takacs,
    forest_counts_recurrence,
    pair_from_index,
    prufer_decode,
    prufer_edges_walk,
    randbelow_words,
)
import mdim.generators
from mdim.generators import (
    ForestCountTable,
    SeededRng,
    _forest_count,
    _pairs_from_indices,
    _prufer_edges,
    _randbelow,
    forest_counts,
    sample_gnp,
    sample_uniform_forest,
    sample_uniform_forests,
    sample_uniform_tree,
    sample_uniform_trees,
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


def batched(sample, n, rng, total, batch=10_000):
    """`total` graphs from the batch entry `sample`, all drawn from `rng` in
    turn, as unions of `batch` graphs: the draws of `total` single calls."""
    for start in range(0, total, batch):
        yield sample(n, [rng] * min(batch, total - start))


def decoded(seqs):
    """The edges one `_prufer_edges` call gives for these sequences, each
    tree's rows shifted back to its own labels."""
    sizes = np.array([len(seq) + 2 for seq in seqs], dtype=np.int64)
    flat = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in seqs])
    return _prufer_edges(flat, sizes) - np.repeat(np.cumsum(sizes) - sizes, sizes - 1)[:, None]


def walked(seqs):
    """The oracle's edges for these sequences, concatenated."""
    return np.array([e for seq in seqs for e in prufer_edges_walk(list(seq))], dtype=np.int64).reshape(-1, 2)


def handed(g):
    """Check the partition a sampled graph or union carries against
    hook-and-compress on the same edges, built anew by `Graph.from_edges`
    so that no sampler hands it labels: each smallest label, its dtype, and
    the count.  A law test that draws 10^5 graphs in unions of 10^4 pays one
    hook-and-compress per union, not one per graph."""
    # filled in by the sampler; read first, the property would run hook-and-compress itself
    assert "component_labels" in vars(g)
    smallest, count = g.component_labels
    half = g.sources < g.indices
    fresh = connected_components(Graph.from_edges(g.n, np.stack((g.sources[half], g.indices[half]), axis=1)))
    assert smallest.dtype == fresh.smallest.dtype
    assert np.array_equal(smallest, fresh.smallest) and count == fresh.count
    return g


def edgeless_blocks(g, n):
    """How many blocks of a union have no edge."""
    return np.count_nonzero(~g.degrees.reshape(-1, n).any(axis=1))


def block_counts(g, n):
    """The component count of each block of a union, read off the partition it carries."""
    smallest, _ = g.component_labels
    return np.count_nonzero((smallest == np.arange(g.n)).reshape(-1, n), axis=1)


class TestPruferDecode:
    def test_star_center_zero(self):
        g = handed(prufer_decode([0]))
        assert edge_key(g) == ((0, 1), (0, 2))

    def test_single_edge(self):
        assert edge_key(handed(prufer_decode([]))) == ((0, 1),)

    def test_bijection_n4(self):
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
        assert np.array_equal(_prufer_edges(seq, [5]), walked([[3, 0, 3]]))
        assert edge_key(prufer_decode(seq)) == edge_key(Graph.from_edges(5, prufer_edges_walk([3, 0, 3])))
        with pytest.raises(ValueError, match="sequence entry 5 out of range"):
            prufer_decode(np.array([5, 2**64 - 1], dtype=np.uint64))

    def test_edges_match_walk_exhaustive(self):
        # every sequence with n <= 8, 280,392 trees: in one call per n and all
        # in a single call, and one tree per call up to n = 7 (at n = 8, one
        # call per tree, about 48 us each on a 2-core x86-64 host, adds 12 s)
        from itertools import product

        every_seq, every_walk = [], []
        for n in range(2, 9):
            seqs = list(product(range(n), repeat=n - 2))
            want = walked(seqs)
            if n <= 7:
                for i, seq in enumerate(seqs):
                    edges = _prufer_edges(np.array(seq, dtype=np.int64), [n])
                    assert edges.dtype == np.int64 and edges.shape == (n - 1, 2)
                    assert np.array_equal(edges, want[i * (n - 1) : (i + 1) * (n - 1)]), seq
            assert np.array_equal(decoded(seqs), want), n
            every_seq += seqs
            every_walk.append(want)
        assert len(every_seq) == 280_392
        assert np.array_equal(decoded(every_seq), np.concatenate(every_walk))

    @pytest.mark.parametrize("n", [8, 100, 1000, 5000])
    def test_edges_match_walk_random(self, n):
        rng = SeededRng(31, n).generator()
        seqs = [rng.integers(0, n, size=n - 2) for _ in range(200 if n <= 100 else 10)]
        for seq in seqs:
            assert np.array_equal(_prufer_edges(seq, [n]), walked([seq]))
        assert np.array_equal(decoded(seqs), walked(seqs))

    @given(
        st.lists(
            st.integers(2, 200).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)),
            min_size=1,
            max_size=20,
        )
    )
    @example([[]])
    @example([[0] * 198, [], [199] * 198, list(range(199, 1, -1))])
    def test_batches_match_walk(self, seqs):
        assert np.array_equal(decoded(seqs), walked(seqs))

    @settings(max_examples=8)
    @given(
        st.lists(
            st.integers(201, 2000).flatmap(
                lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_large_batches_match_walk(self, seqs):
        assert np.array_equal(decoded(seqs), walked(seqs))

    def test_descending_sequence(self, monkeypatch):
        # the slowest to settle seen: about log2(n) + 1 rounds
        n = 10**5
        seq = np.arange(n - 1, 1, -1)
        monkeypatch.setattr(mdim.generators, "PRUFER_MAX_ROUNDS", 18)
        assert np.array_equal(_prufer_edges(seq, [n]), walked([seq]))

    def test_round_cap_raises(self, monkeypatch):
        seq = np.arange(99, 1, -1)
        want = walked([seq])
        monkeypatch.setattr(mdim.generators, "PRUFER_MAX_ROUNDS", 1)
        assert _prufer_edges(np.empty(0, dtype=np.int64), [2]).tolist() == [[0, 1]]  # settles in its one round
        with pytest.raises(AssertionError, match="did not settle in 1 rounds"):
            _prufer_edges(seq, [100])
        monkeypatch.undo()
        assert np.array_equal(_prufer_edges(seq, [100]), want)

    def test_decodes_are_trees(self):
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
        assert sum(u.n // n for u in enumerate_trees(n)) == count

    def test_range_check(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(1))
        with pytest.raises(ValueError):
            list(enumerate_trees(9))


class TestUniformTree:
    def test_tiny_sizes(self):
        rng = SeededRng(0, 0).generator()
        assert handed(sample_uniform_tree(1, rng)).n == 1
        assert edge_key(handed(sample_uniform_tree(2, rng))) == ((0, 1),)

    def test_uniform_n3(self):
        rng = SeededRng(42, 0).generator()
        counts = Counter(e for u in batched(sample_uniform_trees, 3, rng, 100_000) for e in block_edges(handed(u), 3))
        probs = {e: 1 / 3 for u in enumerate_trees(3) for e in block_edges(u, 3)}
        assert len(counts) == 3
        assert chi_square_ok(counts, probs, 100_000)

    def test_uniform_n4(self):
        rng = SeededRng(43, 0).generator()
        counts = Counter(e for u in batched(sample_uniform_trees, 4, rng, 100_000) for e in block_edges(handed(u), 4))
        probs = {e: 1 / 16 for u in enumerate_trees(4) for e in block_edges(u, 4)}
        assert len(counts) == 16
        assert chi_square_ok(counts, probs, 100_000)

    def test_star_frequency_n4(self):
        rng = SeededRng(44, 0).generator()
        total = 100_000
        stars = sum(
            np.count_nonzero(handed(u).degrees.reshape(-1, 4).max(axis=1) == 3)
            for u in batched(sample_uniform_trees, 4, rng, total)
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
    def test_two_singletons_probability(self):
        rng = SeededRng(7, 0).generator()
        total = 40_000
        empty = sum(edgeless_blocks(handed(f), 2) for f in batched(sample_uniform_forests, 2, rng, total))
        sigma = math.sqrt(0.25 / total)
        assert abs(empty / total - 0.5) < 3.5 * sigma

    def test_empty_graph_probability_n3(self):
        rng = SeededRng(8, 0).generator()
        total = 70_000
        empty = sum(edgeless_blocks(handed(f), 3) for f in batched(sample_uniform_forests, 3, rng, total))
        p = 1 / 7
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(empty / total - p) < 3.5 * sigma

    def test_component_size_law_n6(self):
        tab = forest_counts(6)
        probs = {
            k: math.comb(5, k - 1) * tab.t[k] * tab.f[6 - k] / tab.f[6]
            for k in range(1, 7)
        }
        rng = SeededRng(9, 0).generator()
        total = 100_000
        counts = Counter()
        for f in batched(sample_uniform_forests, 6, rng, total):
            blocks = handed(f).component_labels[0].reshape(-1, 6)
            counts.update(np.count_nonzero(blocks == blocks[:, :1], axis=1).tolist())  # vertex 0's component
        assert chi_square_ok(counts, probs, total)

    def test_isolated_vertex_marginal(self):
        # P(vertex 0 isolated in a uniform forest on n) = f_{n-1}/f_n
        total = 30_000
        for n in range(2, 11):
            tab = forest_counts(n)
            p = tab.f[n - 1] / tab.f[n]
            rng = SeededRng(100 + n, 0).generator()
            hits = sum(np.count_nonzero(handed(f).degrees[::n] == 0) for f in batched(sample_uniform_forests, n, rng, total))
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


def same_graphs(batch, singles):
    """Block i of the union `batch` is the graph singles[i], and carries its
    partition: the same smallest labels, shifted by the block's offset, and
    the same count."""
    n = batch.n // len(singles)
    assert batch.n == n * len(singles)
    assert block_edges(handed(batch), n) == [edge_key(handed(b)) for b in singles]
    smallest, count = batch.component_labels
    for i, b in enumerate(singles):
        assert np.array_equal(smallest[i * n : (i + 1) * n] - i * n, b.component_labels[0])
    assert block_counts(batch, n).tolist() == [b.component_labels[1] for b in singles]
    assert count == sum(b.component_labels[1] for b in singles)
    return True


class TestBatchEntries:
    """Block i of a batch is the graph a single call draws from generator i."""

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_trees_match_single_draws(self, n):
        a, b = SeededRng(61, n).generator(), SeededRng(61, n).generator()
        k = 5 if n == 1000 else 40
        assert same_graphs(sample_uniform_trees(n, [a] * k), [sample_uniform_tree(n, b) for _ in range(k)])
        assert a.integers(0, 2**40) == b.integers(0, 2**40)  # both generators made the same draws

    @pytest.mark.parametrize("n", range(1, 13))
    def test_forests_match_single_draws(self, n):
        a, b = SeededRng(62, n).generator(), SeededRng(62, n).generator()
        batch = sample_uniform_forests(n, [a] * 40)
        assert same_graphs(batch, [sample_uniform_forest(n, b) for _ in range(40)])
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    def test_one_generator_each(self):
        for sample, single, n in ((sample_uniform_trees, sample_uniform_tree, 50), (sample_uniform_forests, sample_uniform_forest, 30)):
            batch = sample(n, [SeededRng(63, i).generator() for i in range(10)])
            assert same_graphs(batch, [single(n, SeededRng(63, i).generator()) for i in range(10)])

    # (n, seed) drawing each extreme: no edge at all, and a single tree
    @pytest.mark.parametrize("n,seed,count", [(3, 12, 3), (4, 120, 4), (5, 1020, 5), (12, 0, 1), (40, 1, 1)])
    def test_forest_extremes_in_a_batch(self, n, seed, count):
        seeds = [seed, seed + 1, seed, seed + 2, seed]
        batch = sample_uniform_forests(n, [SeededRng(s).generator() for s in seeds])
        assert block_counts(batch, n)[::2].tolist() == [count] * 3
        assert same_graphs(batch, [sample_uniform_forest(n, SeededRng(s).generator()) for s in seeds])

    def test_batches_with_no_tree_to_decode(self):
        for n, seed in ((1, 0), (3, 12)):  # every forest all isolated
            batch = sample_uniform_forests(n, [SeededRng(seed).generator(), SeededRng(seed).generator()])
            assert block_counts(handed(batch), n).tolist() == [n, n]
            assert batch.n == 2 * n and batch.edge_count == 0
        for empty in (sample_uniform_trees(5, []), sample_uniform_forests(5, [])):
            assert handed(empty).n == 0 and empty.component_labels[1] == 0


class TestDeterminism:
    def test_same_seed_same_graph(self):
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

    def test_streams_differ(self):
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
        t = handed(sample_uniform_tree(1, SeededRng(0).generator()) if n == 1 else prufer_decode(seq))
        assert t.n == n
        smallest, count = t.component_labels
        assert count == 1 and not smallest.any()

    @given(st.integers(1, 40), st.integers(0, 2**32))
    @example(1, 0)
    def test_random_forests(self, n, seed):
        f = handed(sample_uniform_forest(n, SeededRng(seed).generator()))
        assert f.component_labels[1] == n - f.edge_count

    # (n, seed) drawing each extreme: no edge at all, and a single tree
    @pytest.mark.parametrize("n,seed,count", [(3, 12, 3), (4, 120, 4), (5, 1020, 5), (12, 0, 1), (40, 1, 1)])
    def test_all_isolated_and_single_tree(self, n, seed, count):
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
