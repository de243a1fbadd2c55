import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import block_edges, compose, conv_oracle, enumerate_trees, pointed_series, y_collapse
from mdim.graph import Graph
from mdim.metric_dimension import brute_force_beta, forest_beta, forest_betas
from mdim.series import (
    _DEG_MASK,
    TruncatedSeries,
    UVPoly,
    YPoly,
    _conv,
    beta_distribution,
    series_system,
    tree_series,
    x_times,
)

U = UVPoly({(1, 0): 1})
V = UVPoly({(0, 1): 1})
ONE = UVPoly({(0, 0): 1})


def prufer_degrees(n):
    """The (n, n^(n-2)) degree table of all labelled trees on n >= 2 vertices,
    one column per Pruefer sequence in `enumerate_trees` order: a vertex's
    degree is 1 plus its number of occurrences in the sequence."""
    seqs = np.indices((n,) * (n - 2)).reshape(n - 2, n ** (n - 2))  # one sequence per column
    return 1 + (seqs[:, None, :] == np.arange(n)[:, None]).sum(axis=0)


def count_mobiles(n):
    """Rooted trees with a root half-edge and no degree-2 vertices.

    The half-edge counts toward the root's degree, so the root may not be a
    tree-leaf (n >= 2) and no other vertex may have tree-degree 2: a root
    qualifies when its degree is not 1 and it holds every degree 2 there is.
    """
    if n == 1:
        return 1
    deg = prufer_degrees(n)
    twos = (deg == 2).sum(axis=0)
    return int(np.count_nonzero((deg != 1) & (twos == (deg == 2))))


def valuation(series):
    """Index of the first nonzero coefficient."""
    return next(n for n, c in enumerate(series.counts) if c)


@pytest.fixture(scope="module")
def sys12():
    return series_system(12)


@pytest.fixture(scope="module")
def dist12():
    # the y-collapsed chain that `mdim dist` reads
    return series_system(12, at_y=True)


def test_system_cache_ignores_call_form():
    # one cache entry per (order, at_y), however the call spells them
    assert series_system(12) is series_system(12, at_y=False)
    assert series_system(12, True) is series_system(12, at_y=True)


class TestSolveP:
    def test_first_coefficient_is_u(self, sys12):
        assert sys12.P.count_poly(1) == U

    def test_satisfies_defining_equation(self, sys12):
        # rebuild the right-hand side with generic series arithmetic
        P = sys12.P
        N = P.order
        minus_ux = x_times(N, UVPoly({(1, 0): -1}))
        Q = minus_ux.exp().poly_mul(ONE - V) + x_times(N, V, 0)
        rhs = (
            x_times(N, UVPoly({(1, 0): 1, (0, 0): -1}))
            + x_times(N, UVPoly({(1, 0): 1, (1, 1): -1}), power=2)
            + (Q * P.exp()).shift_x()
            - P.shift_x()
        )
        assert rhs == P

    def test_u_v_one_specialization(self, sys12):
        # at u = v = 1 the series satisfies P = x (exp(P) - P)
        N = sys12.P.order
        counts = [UVPoly({(0, 0): sum(c.terms.values())}) for c in sys12.P.counts]
        P11 = TruncatedSeries(N, counts)
        assert (P11.exp() - P11).shift_x() == P11

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_prufer_degrees_match_trees(self, n):
        expected = [row for union in enumerate_trees(n) for row in union.degrees.reshape(-1, n).tolist()]
        assert prufer_degrees(n).T.tolist() == expected

    def test_counts_match_enumeration(self, sys12):
        for n in range(1, 9):
            got = sum(sys12.P.count_poly(n).terms.values())
            assert got == count_mobiles(n), n

    def test_order_validation(self):
        with pytest.raises(ValueError):
            series_system(-1)

    def test_order_zero(self):
        assert series_system(0).G.count_poly(0) == ONE


class TestMobileSplit:
    def test_partition_identity(self, sys12):
        assert x_times(sys12.order, U) + sys12.U + sys12.V == sys12.P

    def test_exp_A_from_exp_P(self):
        # exp(A) = exp(P) exp(-ux), against the series exponential of A = P - ux
        from mdim.series import _solve_P

        P, E = _solve_P(30, U, V)
        exp_mux = x_times(30, U.scale(-1)).exp()
        assert [exp_mux.count_poly(n) for n in range(31)] == [UVPoly({(n, 0): (-1) ** n}) for n in range(31)]
        assert E * exp_mux == (P - x_times(30, U)).exp()

    def test_U_valuation(self, sys12):
        assert valuation(sys12.U) == 3

    def test_V_valuation(self, sys12):
        # smallest root-avoids-leaf mobile: root plus two 3-vertex branches
        assert valuation(sys12.V) >= 4
        assert valuation(sys12.V) == 7


@pytest.fixture(scope="module")
def pointed12(sys12):
    return pointed_series(sys12)


class TestRootedSpecial:
    def test_pointed_isolated_vertex_term(self, pointed12):
        assert pointed12[1].count_poly(1) == U

    def test_pointing_relation(self, sys12, pointed12):
        # x d/dx S = S_dot, i.e. counts satisfy n * S_n = (S_dot)_n
        S_dot = pointed12[1]
        for n in range(sys12.order + 1):
            assert sys12.S.count_poly(n).scale(n) == S_dot.count_poly(n), n

    def test_non_negative_counts(self, pointed12):
        for series in pointed12:
            for n in range(series.order + 1):
                assert all(c > 0 for c in series.count_poly(n).terms.values())

    def test_dissymmetry_builds_S(self, system45):
        # the direct S of `series_system` against S_dot - S_arrow/2
        S_arrow, S_dot = pointed_series(system45)
        assert S_dot - S_arrow.half() == system45.S


def test_at_y_system_matches_bivariate(system45):
    # the y-collapsed chain against the bivariate oracle it replaces in `dist`
    at_y = series_system(45, at_y=True)
    for name in "PUVSTG":
        fast, slow = getattr(at_y, name), getattr(system45, name)
        for n in range(46):
            assert fast.count_poly(n).terms == y_collapse(slow.count_poly(n)), (name, n)


# taylor displays frozen as exact rationals, keyed by (deg_u, deg_v)
S_EXPECTED = {
    1: {(1, 0): F(1)},
    2: {(1, 0): F(1, 2)},
    3: {},
    4: {(3, 1): F(1, 6)},
    5: {(4, 1): F(1, 24)},
    6: {(4, 2): F(1, 8), (5, 1): F(1, 120)},
    7: {(6, 1): F(1, 720), (5, 2): F(1, 12)},
    8: {(7, 1): F(1, 5040), (5, 3): F(1, 8), (6, 2): F(5, 144)},
}

T_EXPECTED = {
    1: {(1, 0): F(1)},
    2: {(1, 0): F(1, 2)},
    3: {(1, 0): F(1, 2)},
    4: {(1, 0): F(1, 2), (3, 1): F(1, 6)},
    5: {(1, 0): F(1, 2), (3, 1): F(1, 2), (4, 1): F(1, 24)},
    6: {
        (1, 0): F(1, 2),
        (4, 2): F(1, 8),
        (3, 1): F(1),
        (4, 1): F(1, 6),
        (5, 1): F(1, 120),
    },
    7: {
        (1, 0): F(1, 2),
        (3, 1): F(5, 3),
        (4, 1): F(5, 12),
        (5, 1): F(1, 24),
        (6, 1): F(1, 720),
        (4, 2): F(5, 8),
        (5, 2): F(1, 12),
    },
}


class TestSpecialSeries:
    def test_taylor_coefficients(self, sys12):
        for n, want in S_EXPECTED.items():
            assert sys12.S.coefficient(n) == want, n

    def test_no_cubic_term(self, sys12):
        assert not sys12.S.count_poly(3)

    def test_only_path_terms_lack_v(self, sys12):
        # u-only terms are exactly ux and u x^2 / 2
        for n in range(3, sys12.order + 1):
            for (a, b) in sys12.S.count_poly(n).terms:
                assert b >= 1, (n, a, b)


class TestTreeSeries:
    def test_taylor_coefficients(self, sys12):
        for n, want in T_EXPECTED.items():
            assert sys12.T.coefficient(n) == want, n

    def test_cayley_counts(self, system30):
        for n in range(2, 31):
            total = sum(system30.T.count_poly(n).terms.values())
            assert total == n ** (n - 2), n

    def test_path_terms(self, sys12):
        for n in range(3, 13):
            assert sys12.T.count_poly(n).terms[(1, 0)] * 2 == math.factorial(n)


class TestForestSeries:
    def test_reduces_to_exp_T_at_y_one(self, sys12):
        # setting u = v = 1: G must equal exp(T) = exp(T - ux) exp(ux)
        expT = (sys12.T - x_times(sys12.order, U)).exp()
        for n in range(sys12.order + 1):
            lhs = sum(sys12.G.count_poly(n).terms.values())
            rhs = sum(
                math.comb(n, k) * sum(expT.count_poly(n - k).terms.values())
                for k in range(n + 1)
            )
            assert lhs == rhs

    def test_forest_counts_cross_module(self, system30):
        from mdim.generators import forest_counts

        tab = forest_counts(20)
        for n in range(21):
            assert sum(system30.G.count_poly(n).terms.values()) == tab.f[n], n

    def test_n2_distribution(self, dist12):
        assert beta_distribution(dist12.G, 2).pmf == {1: F(1)}


class TestBetaDistribution:
    def test_tree_n4(self, dist12):
        dist = beta_distribution(dist12.T, 4)
        assert dist.pmf == {1: F(12, 16), 2: F(4, 16)}

    def test_tree_n6_mean_matches_enumeration(self, dist12):
        total = 0
        acc = 0
        for union in enumerate_trees(6):
            assert union.component_labels[1] == union.n // 6  # one tree per block
            betas = forest_betas(union, 6)
            acc += sum(betas)
            total += len(betas)
        assert beta_distribution(dist12.T, 6).mean() == F(acc, total)

    def test_forest_n3_matches_brute_force(self, dist12):
        # all 7 labelled forests on 3 vertices, uniformly weighted
        forests = [Graph.from_edges(3, [])]
        forests += [Graph.from_edges(3, [e]) for e in ((0, 1), (0, 2), (1, 2))]
        forests += [
            Graph.from_edges(3, [(0, 1), (1, 2)]),
            Graph.from_edges(3, [(0, 1), (0, 2)]),
            Graph.from_edges(3, [(0, 2), (1, 2)]),
        ]
        hist = Counter(brute_force_beta(f).beta for f in forests)
        want = {b: F(c, len(forests)) for b, c in hist.items()}
        assert beta_distribution(dist12.G, 3).pmf == want

    def test_support_bounds(self, system30_at_y):
        for n in range(2, 31):
            dist = beta_distribution(system30_at_y.T, n)
            assert sum(dist.pmf.values()) == 1
            assert all(1 <= b <= n - 1 for b in dist.pmf)

    def test_out_of_range(self, dist12):
        with pytest.raises(ValueError):
            beta_distribution(dist12.T, 13)

    def test_rejects_the_bivariate_chain(self, sys12):
        # its `terms` are keyed (deg_u, deg_v), not by the mark y
        with pytest.raises(TypeError):
            beta_distribution(sys12.T, 4)


class TestTriangleOfTruth:
    # n = 2..7 is exhausted by tests/test_acceptance.py::test_criterion_4_oracle_triangle
    def test_n8_slater_exhaustive_brute_sampled(self, dist12):
        # slater covers all 8^6 trees of n = 8 and brute force a fixed slice;
        # the exhaustive brute-force pass stops at n = 7
        # (one `forest_betas` call per union of 2^12 trees, so every 64th tree
        # overall is every 64th of each union)
        hist = Counter()
        total = 0
        brute_checked = 0
        for union in enumerate_trees(8):
            assert union.component_labels[1] == union.n // 8  # one tree per block
            betas = forest_betas(union, 8)
            hist.update(betas)
            total += len(betas)
            for edges, b in zip(block_edges(union, 8)[::64], betas[::64]):
                assert brute_force_beta(Graph.from_edges(8, edges)).beta == b
                brute_checked += 1
        pmf = beta_distribution(dist12.T, 8).pmf
        assert {b: F(c, total) for b, c in hist.items()} == pmf
        assert brute_checked == 4096

    @pytest.mark.parametrize("n", range(1, 6))
    def test_forest_pmf_vs_both_oracles(self, n, dist12):
        # every labelled forest on n vertices: the acyclic edge subsets of K_n
        from mdim.graph import ComponentKind, connected_components

        pairs = list(itertools.combinations(range(n), 2))
        hist_forest = Counter()
        hist_brute = Counter()
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if ComponentKind.NON_TREE in connected_components(g).kinds:
                continue
            hist_forest[forest_beta(g).beta] += 1
            hist_brute[brute_force_beta(g).beta] += 1
        total = sum(hist_forest.values())
        assert total == [1, 2, 7, 38, 291][n - 1]
        pmf = beta_distribution(dist12.G, n).pmf
        assert {b: F(c, total) for b, c in hist_forest.items()} == pmf
        assert hist_forest == hist_brute


small_polys = st.builds(
    lambda d: UVPoly(d),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-4, 4),
        max_size=3,
    ),
)


def _series(order, polys, zero_const=True):
    counts = list(polys)
    if zero_const:
        counts[0] = UVPoly()
    return TruncatedSeries(order, counts)


series_val1 = st.builds(
    lambda ps: _series(5, ps), st.lists(small_polys, min_size=6, max_size=6)
)


class TestSeriesAlgebra:
    @given(series_val1, series_val1)
    def test_exp_is_a_homomorphism(self, a, b):
        assert (a + b).exp() == a.exp() * b.exp()

    @given(series_val1, series_val1, series_val1)
    def test_compose_associativity(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(series_val1, series_val1, series_val1)
    def test_compose_is_linear_on_the_left(self, a, b, c):
        assert compose(a + b, c) == compose(a, c) + compose(b, c)

    def test_exact_div(self):
        assert UVPoly({(1, 0): 6, (0, 2): -4}).exact_div(2) == UVPoly({(1, 0): 3, (0, 2): -2})
        with pytest.raises(AssertionError):
            UVPoly({(1, 0): 6, (0, 2): 3}).exact_div(2)

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            x_times(4, ONE, 0).exp()

    def test_tree_series_agrees_with_generic_composition(self, sys12):
        # T = (1-x) S(x/(1-x)) recomputed through the generic compose
        N = 9
        S = TruncatedSeries(N, sys12.S.counts[: N + 1])
        sub = TruncatedSeries(
            N, [UVPoly()] + [UVPoly({(0, 0): math.factorial(n)}) for n in range(1, N + 1)]
        )  # x/(1-x): every count is n!
        comp = compose(S, sub)
        one_minus_x = TruncatedSeries(
            N,
            [UVPoly({(0, 0): 1}), UVPoly({(0, 0): -1})] + [UVPoly()] * (N - 1),
        )
        assert one_minus_x * comp == tree_series(S)


# Laurent polynomials in y with coefficients up to 2^20 and at most 4 terms:
# every product fits a 64-bit slot (l1 norm below 2^44)
laurent = st.dictionaries(st.integers(-4, 4), st.integers(-(2**20), 2**20), max_size=4)


def _uv(powers):
    """A `UVPoly` whose y-collapse is this Laurent polynomial: y^k is u^k, or v^-k if k < 0."""
    return UVPoly({(max(k, 0), max(-k, 0)): c for k, c in powers.items()})


class TestPackedRing:
    @given(laurent, laurent, st.integers(-50, 50))
    def test_matches_uvpoly(self, a, b, s):
        pa, pb, ua, ub = YPoly(a, 64), YPoly(b, 64), _uv(a), _uv(b)
        pairs = [
            (pa, ua),
            (pa + pb, ua + ub),
            (pa - pb, ua - ub),
            (pa * pb, ua * ub),
            (pa.scale(s), ua.scale(s)),
            ((pa * pb).scale(6).exact_div(3), (ua * ub).scale(2)),
            (pa - pa, ua - ua),
            ((pa + pb) - pb, ua),
        ]
        for packed, oracle in pairs:
            assert packed.terms == y_collapse(oracle)
            assert bool(packed) == bool(oracle)
        assert (pa == pb) == (ua == ub)
        assert (pa + pb) - pb == pa  # equal across different low exponents
        assert pa - pa == pa.const(0) and not pa - pa

    def test_decode_guard_is_live(self):
        # a coefficient of 2^63 wraps to -2^63 in a 64-bit slot; the bound
        # stops the decode before it can return that
        big = YPoly({-1: 2**63, 2: 1}, 64)
        with pytest.raises(AssertionError):
            big.terms
        with pytest.raises(AssertionError):
            big.tightened()
        with pytest.raises(AssertionError):
            big.exact_div(1)
        # the product's bound is propagated: (2^32 + 1)^2 > 2^63
        wide = YPoly({0: 2**32, 1: 1}, 64)
        assert wide.terms == {0: 2**32, 1: 1}
        with pytest.raises(AssertionError):
            (wide * wide).terms
        assert YPoly({-1: 2**63, 2: 1}, 128).terms == {-1: 2**63, 2: 1}

    def test_exact_div_keeps_remainder_check(self):
        assert YPoly({1: 6, -2: -4}, 64).exact_div(2) == YPoly({1: 3, -2: -2}, 64)
        with pytest.raises(AssertionError):
            YPoly({1: 6, -2: 3}, 64).exact_div(2)

    @pytest.mark.parametrize("order", [*range(31), 60])
    def test_chain_decodes_within_its_slot_width(self, order):
        # every count of T and G decodes (the guard does not trip), and the
        # decoded totals are Cayley's n^(n-2) and the forest counts f_n
        from mdim.generators import forest_counts

        sys_ = series_system(order, at_y=True)
        f = forest_counts(order).f
        for n in range(order + 1):
            assert sum(sys_.T.count_poly(n).terms.values()) == (n ** (n - 2) if n >= 2 else n), n
            assert sum(sys_.G.count_poly(n).terms.values()) == f[n], n


# the counts of two series at order 6, so n runs over odd and even values
uv_counts = st.lists(small_polys, min_size=7, max_size=7)
# products of `laurent` counts summed with weights C(6, k) stay below 2^50
y_counts = st.lists(laurent.map(lambda d: YPoly(d, 64)), min_size=7, max_size=7)


class TestDot:
    @given(st.one_of(st.tuples(uv_counts, uv_counts), st.tuples(y_counts, y_counts)))
    def test_conv_matches_the_pair_by_pair_sum(self, ab):
        a, b = ab
        for n in range(len(a)):
            want = conv_oracle(a, b, n)
            got = _conv(a, b, n)
            assert got == want and got.terms == want.terms, n
            # a square folds its mirrored pairs; a copy of the list does not
            square, unfolded = _conv(a, a, n), conv_oracle(a, list(a), n)
            assert square == _conv(a, list(a), n) == unfolded and square.terms == unfolded.terms, n

    @given(y_counts, y_counts, st.integers(0, 6))
    def test_y_dot_bound_covers_its_l1_norm(self, a, b, n):
        d = a[0].dot([(a[k], b[n - k], math.comb(n, k)) for k in range(n + 1)])
        l1 = sum(map(abs, d.terms.values()))
        assert d.bound >= l1
        assert d.tightened().bound == l1

    def test_y_dot_keeps_the_decode_guard(self):
        # (2^32 + 1)^2 > 2^63: the sum's bound stops the decode, in `dot` as in `*`
        wide = YPoly({0: 2**32, 1: 1}, 64)
        with pytest.raises(AssertionError):
            wide.dot([(wide, wide, 1)]).terms
        with pytest.raises(AssertionError):
            _conv([wide], [wide], 0)

    def test_y_dot_rejects_mixed_widths(self):
        a, b = YPoly({0: 1}, 64), YPoly({1: 1}, 128)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a.dot([(a, b, 1)])
        with pytest.raises(ValueError):
            b.dot([(a, a, 1)])
        with pytest.raises(ValueError):
            _conv([a, a], [b, b], 1)


# degrees next to 0 and next to the largest one a `UVPoly` key holds
edge_degrees = st.one_of(st.integers(0, 3), st.integers(_DEG_MASK - 3, _DEG_MASK))
# degrees whose pairwise sums still fit the field
half_degrees = st.one_of(st.integers(0, 3), st.integers(_DEG_MASK // 2 - 3, _DEG_MASK // 2))


def _uv_polys(degrees):
    return st.dictionaries(st.tuples(degrees, degrees), st.integers(-3, 3), max_size=5)


class TestPackedKeys:
    @given(_uv_polys(edge_degrees))
    def test_terms_round_trip(self, d):
        assert UVPoly(d).terms == {k: c for k, c in d.items() if c}

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (_DEG_MASK + 1, 0), (0, _DEG_MASK + 1)])
    def test_degree_outside_the_field_raises(self, key):
        with pytest.raises(ValueError):
            UVPoly({key: 1})

    @given(_uv_polys(half_degrees), _uv_polys(half_degrees))
    def test_product_adds_degrees(self, d, e):
        want = Counter()
        for (a1, b1), c1 in d.items():
            for (a2, b2), c2 in e.items():
                want[a1 + a2, b1 + b2] += c1 * c2
        assert (UVPoly(d) * UVPoly(e)).terms == {k: c for k, c in want.items() if c}

    def test_exact_div_names_the_degrees(self):
        with pytest.raises(AssertionError, match=r"of \(0, 2\) not divisible by 2"):
            UVPoly({(1, 0): 6, (0, 2): 3}).exact_div(2)
