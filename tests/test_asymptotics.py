import math

import pytest

from helpers import C_closed_mp, C_series, rho_stencil, sum_c_series, tau_partial_sums
from mdim.asymptotics import (
    C_closed,
    c_curve,
    tree_constants,
    _relation,
)

E = math.e


class TestSolveRho:
    # rho(1) as solved by Newton's method inside tree_constants
    def test_value_at_one(self):
        assert abs(tree_constants().rho1 - 1 / (E - 1)) < 1e-14

    def test_residual(self):
        assert abs(_relation(tree_constants().rho1, 1.0)) < 1e-14


class TestRhoDerivatives:
    def test_values(self):
        c = tree_constants()
        d1, d2 = c.rho_d1, c.rho_d2
        assert abs(d1 - (-0.12960268)) < 1e-7
        assert abs(d2 - 0.11039081) < 1e-6

    def test_methods_agree(self):
        # implicit differentiation against finite differences of brentq roots
        c = tree_constants()
        d1, d2 = c.rho_d1, c.rho_d2
        fd1, fd2 = rho_stencil()
        assert abs(d1 - fd1) < 1e-8
        assert abs(d2 - fd2) < 1e-8


class TestTreeConstants:
    def test_all_targets(self):
        c = tree_constants()
        assert abs(c.rho1 - 1 / (E - 1)) < 1e-12
        assert abs(c.R1 - 1 / E) < 1e-12
        assert abs(c.R_d1 - (-0.05178617)) < 1e-6
        assert abs(c.R_d2 - 0.03562445) < 1e-6
        assert abs(c.mu - 0.14076941) < 1e-6
        assert abs(c.sigma2 - 0.063748151) < 1e-6

    def test_internal_identities(self):
        c = tree_constants()
        assert c.R1 == pytest.approx(c.rho1 / (1 + c.rho1), abs=1e-15)
        assert c.mu == pytest.approx(-c.R_d1 / c.R1, abs=1e-15)
        ratio = c.R_d1 / c.R1
        assert c.sigma2 == pytest.approx(-c.R_d2 / c.R1 - ratio + ratio**2, abs=1e-15)
        assert c.sigma2 > 0


class TestTau:
    def test_partial_sums_increase_to_one(self):
        sums = tau_partial_sums(30)
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 1.0
        assert 0.85 < sums[-1]

    def test_saddle_value(self):
        tau = (E - 2) / (E - 1)
        rho1 = 1 / (E - 1)
        gap30 = abs(tau_partial_sums(30)[-1] - rho1 - tau)
        gap12 = abs(tau_partial_sums(12)[-1] - rho1 - tau)
        assert gap30 < gap12
        assert gap30 < 0.12

    def test_geometric_convergence_inside_radius(self):
        from mdim.series import series_system

        P = series_system(30).P
        x = 0.9 / (E - 1)
        terms = [
            sum(P.count_poly(n).terms.values()) / math.factorial(n) * x**n
            for n in range(3, 31)
        ]
        ratios = [b / a for a, b in zip(terms, terms[1:]) if a > 0]
        assert all(r < 1 for r in ratios[5:])


class TestCClosed:
    def test_limit_at_one(self):
        assert abs(C_closed(1 - 1e-12) - 0.55339767) < 1e-7

    def test_value_at_zero(self):
        assert C_closed(0.0) == 1.0

    def test_strictly_between_half_and_one(self):
        for i in range(100):
            c = i / 100
            val = C_closed(c)
            assert 0.5 < val <= 1.0
            if c > 0:
                assert val < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            C_closed(1.0)
        with pytest.raises(ValueError):
            C_closed(-0.1)


class TestCSeries:
    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_agrees_with_closed_form(self, c):
        assert abs(C_closed(c) - C_series(c)) < 1e-10

    def test_path_sum_geometric_identity(self):
        # the path contribution alone is (c/2) e^{-c} / (1 - c e^{-c})
        c = 0.5
        ratio = c * math.exp(-c)
        direct = sum(0.5 * c ** (k - 1) * math.exp(-(k - 1) * c) for k in range(2, 200))
        assert direct == pytest.approx(0.5 * ratio / (1 - ratio), abs=1e-15)

    def test_truncation_index(self):
        for c in (0.1, 0.5, 0.95):
            assert sum_c_series(c, math, 1e-15)[1] <= 60

    def test_extended_precision(self):
        import mpmath

        d = abs(C_closed_mp(0.5, 50) - C_series(0.5, tol=1e-40, dps=50))
        assert d < mpmath.mpf("1e-38")


class TestCCurve:
    def test_endpoints(self):
        table = c_curve(0.0, 0.9, 0.1)
        assert table[0] == (0.0, C_closed(0.0))
        assert table[-1][0] == pytest.approx(0.9)
        assert table[-1][1] == pytest.approx(C_closed(0.9))

    def test_monotone_decreasing(self):
        values = [C for _, C in c_curve(0.0, 0.99, 0.01)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_flattens_toward_limit(self):
        values = [C for _, C in c_curve(0.9, 0.99, 0.01)]
        assert abs(values[-1] - 0.5534) < 5e-3
        drops = [a - b for a, b in zip(values, values[1:])]
        assert all(d < 0.01 for d in drops)

    def test_validation(self):
        with pytest.raises(ValueError):
            c_curve(0.5, 0.4, 0.01)
        with pytest.raises(ValueError):
            c_curve(0.0, 1.0, 0.01)
        for step in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                c_curve(0.0, 0.5, step)

    def test_grid_size_cap(self):
        assert len(c_curve(0.0, 0.9999, 1e-4)) == 10_000
        with pytest.raises(ValueError, match="more than 10000 points"):
            c_curve(0.0, 0.99, 1e-5)
