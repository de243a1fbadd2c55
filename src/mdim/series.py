"""Exact truncated power series over bivariate (u, v) polynomials.

The series are exponential in x: the stored coefficient of x^n is the
labelled-count polynomial n! * [x^n], which keeps the whole pipeline in
integer arithmetic; `coefficient(n)` divides back out to exact Fractions.
Powers of u mark leaves, powers of v mark non-leaf vertices adjacent to a
leaf, and substituting (u, v) = (y, 1/y) turns the exponent difference
deg_u - deg_v into the metric dimension mark.

`series_system` is the one builder of the chain: mobiles P (implicitly
defined), the split P = ux + U + V by whether the root touches a leaf,
unrooted degree-2-free trees S, the edge-subdivision substitution
T = (1-x) S(x/(1-x)), and finally forests G, built only when read.
`mdim dist` and `mdim series --at-y` read only the mark y = u/v, so they
build the same chain with v := 1/u (`at_y=True`): each count collapses to a
Laurent polynomial in u alone, keyed (deg_u - deg_v, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import comb, factorial

Key = tuple[int, int]  # (power of u, power of v)


class UVPoly:
    """Polynomial in (u, v) with exact coefficients; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, object] | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def _raw(cls, terms: dict) -> "UVPoly":
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UVPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"UVPoly({self.terms!r})"

    def __add__(self, other: "UVPoly") -> "UVPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return UVPoly._raw(out)

    def __sub__(self, other: "UVPoly") -> "UVPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "UVPoly") -> "UVPoly":
        if not self.terms or not other.terms:
            return _P_ZERO
        out: dict[Key, object] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return UVPoly._raw(out)

    def scale(self, s) -> "UVPoly":
        if not s:
            return _P_ZERO
        return UVPoly._raw({k: c * s for k, c in self.terms.items()})

    def exact_div(self, d: int) -> "UVPoly":
        """Divide integer coefficients by d; a remainder is an internal error."""
        out: dict[Key, object] = {}
        for k, c in self.terms.items():
            q, r = divmod(c, d)
            if r:
                raise AssertionError(f"coefficient {c} of {k} not divisible by {d}")
            out[k] = q
        return UVPoly._raw(out)

    def to_fractions(self, den: int) -> dict[Key, Fraction]:
        return {k: Fraction(c) / den for k, c in self.terms.items()}

    def y_powers(self) -> dict[int, object]:
        """Coefficients after (u, v) -> (y, 1/y): key is deg_u - deg_v."""
        out: dict[int, object] = {}
        for (a, b), c in self.terms.items():
            k = a - b
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return out


_P_ZERO = UVPoly()
_P_ONE = UVPoly({(0, 0): 1})
_P_U = UVPoly({(1, 0): 1})
_P_V = UVPoly({(0, 1): 1})
_P_INV_U = UVPoly({(-1, 0): 1})  # v := 1/u, the y-collapse (a, b) -> (a - b, 0)


class TruncatedSeries:
    """Series sum_{n<=order} c_n x^n / n! with UVPoly counts c_n."""

    __slots__ = ("order", "counts")

    def __init__(self, order: int, counts: list[UVPoly]):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if len(counts) != order + 1:
            raise ValueError("counts length must be order + 1")
        self.counts = counts

    # -- access ---------------------------------------------------------
    def count_poly(self, n: int) -> UVPoly:
        """n! * [x^n]: the labelled count polynomial."""
        if not 0 <= n <= self.order:
            raise ValueError(f"n={n} outside truncation order {self.order}")
        return self.counts[n]

    def coefficient(self, n: int) -> dict[Key, Fraction]:
        """[x^n] as exact rationals keyed by (deg_u, deg_v)."""
        return self.count_poly(n).to_fractions(factorial(n))

    def y_coefficient(self, n: int) -> dict[int, Fraction]:
        """[x^n] after u=y, v=1/y, keyed by the power of y."""
        den = factorial(n)
        return {k: Fraction(c) / den for k, c in self.count_poly(n).y_powers().items()}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.counts == other.counts
        )

    # -- ring operations --------------------------------------------------
    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = min(self.order, other.order)
        return TruncatedSeries(N, [self.counts[n] + other.counts[n] for n in range(N + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = min(self.order, other.order)
        return TruncatedSeries(N, [_conv(self.counts, other.counts, n) for n in range(N + 1)])

    def poly_mul(self, p: UVPoly) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c * p for c in self.counts])

    def scale(self, s) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c.scale(s) for c in self.counts])

    def shift_x(self) -> "TruncatedSeries":
        """Multiply by x (counts pick up the factor n from relabelling)."""
        out = [_P_ZERO]
        for n in range(1, self.order + 1):
            out.append(self.counts[n - 1].scale(n))
        return TruncatedSeries(self.order, out)

    def half(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c.exact_div(2) for c in self.counts])

    def exp(self) -> "TruncatedSeries":
        """Series exponential via B_n = sum C(n-1,k-1) A_k B_{n-k}; needs A_0 = 0."""
        if self.counts[0]:
            raise ValueError("exp requires zero constant term")
        a = self.counts[1:]
        b = [_P_ONE]
        for n in range(1, self.order + 1):
            b.append(_conv(a, b, n - 1))
        return TruncatedSeries(self.order, b)


def _conv(a: list[UVPoly], b: list[UVPoly], n: int) -> UVPoly:
    """n! [x^n] of the product of two series given by their counts a and b."""
    acc = _P_ZERO
    for k in range(n + 1):
        x, y = a[k], b[n - k]
        if x and y:
            acc = acc + (x * y).scale(comb(n, k))
    return acc


def x_times(order: int, poly: UVPoly, power: int = 1) -> TruncatedSeries:
    """The series poly * x^power at the given truncation order."""
    counts = [_P_ZERO] * (order + 1)
    if power <= order:
        counts[power] = poly.scale(factorial(power))
    return TruncatedSeries(order, counts)


def _exp_ux(order: int, sign: int) -> TruncatedSeries:
    """exp(sign * ux): the x^n count is (sign u)^n."""
    return TruncatedSeries(order, [UVPoly({(n, 0): sign**n}) for n in range(order + 1)])


# ---------------------------------------------------------------------------
# The generating-function chain.
# ---------------------------------------------------------------------------


def _solve_P(order: int, v: UVPoly) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Solve the mobile equation for P (see `series_system`); return P and exp(P).

    Every appearance of P on the right carries a factor x, so the x^n count
    only needs counts of order < n: the fixed point is reached coefficient by
    coefficient, updating exp(P) incrementally along the way.
    """
    a: list[UVPoly] = [_P_ZERO]  # counts of P
    e: list[UVPoly] = [_P_ONE]  # counts of exp(P)
    q = _exp_ux(order, -1).poly_mul(_P_ONE - v).counts
    q[0] = _P_ONE  # q = v + (1-v) exp(-ux) = 1 + (1-v)(exp(-ux) - 1)
    # 1! (u - 1) and 2! u(1 - v)
    base = {1: _P_U - _P_ONE, 2: (_P_U * (_P_ONE - v)).scale(2)}
    for n in range(1, order + 1):
        rhs = (_conv(q, e, n - 1) - a[n - 1]).scale(n)
        a.append(rhs + base[n] if n in base else rhs)
        e.append(_conv(a[1:], e, n - 1))
    return TruncatedSeries(order, a), TruncatedSeries(order, e)


def tree_series(S: TruncatedSeries) -> TruncatedSeries:
    """All labelled trees: re-insert degree-2 vertices on every edge.

    A tree on n vertices has n-1 edges, so x^m -> x^m (1-x)^(-m+1), i.e.
    T = (1-x) S(x/(1-x)).  With counts: [x^n] S(x/(1-x)) picks up binomial
    weights C(n-1, m-1) from (1-x)^(-m).
    """
    N = S.order
    comp = [_P_ZERO] * (N + 1)
    for n in range(1, N + 1):
        acc = _P_ZERO
        nf = factorial(n)
        for m in range(1, n + 1):
            s = S.counts[m]
            if s:
                acc = acc + s.scale(nf // factorial(m) * comb(n - 1, m - 1))
        comp[n] = acc
    out = [_P_ZERO] * (N + 1)
    for n in range(1, N + 1):
        out[n] = comp[n] - comp[n - 1].scale(n)
    return TruncatedSeries(N, out)


def forest_series(T: TruncatedSeries, v: UVPoly) -> TruncatedSeries:
    """Forests: G = exp(T - ux) (1 + v (exp(ux) - 1)) + u(1 - v) x.

    Sets of non-trivial trees, times an optional non-empty set of isolated
    vertices carrying one balancing v (one isolated vertex is already
    resolved by its all-unreachable distance vector).  The lone vertex,
    counted as uv by the product, has beta = 1 like every path: the x term
    turns its count into u.
    """
    N = T.order
    core = (T - x_times(N, _P_U)).exp()
    iso = _exp_ux(N, 1).poly_mul(v)
    iso.counts[0] = _P_ONE  # 1 + v (exp(ux) - 1)
    return core * iso + x_times(N, _P_U * (_P_ONE - v))


@dataclass(frozen=True)
class BetaDistribution:
    """Exact distribution of the metric dimension at size n."""

    n: int
    pmf: dict[int, Fraction]

    def mean(self) -> Fraction:
        return sum((Fraction(b) * p for b, p in self.pmf.items()), Fraction(0))

    def variance(self) -> Fraction:
        m = self.mean()
        return sum((p * (Fraction(b) - m) ** 2 for b, p in self.pmf.items()), Fraction(0))


def beta_distribution(series: TruncatedSeries, n: int) -> BetaDistribution:
    """Distribution of the mark y = u/v read off the x^n coefficient."""
    if not 1 <= n <= series.order:
        raise ValueError(f"n={n} outside series order {series.order}")
    weights = series.count_poly(n).y_powers()
    total = sum(weights.values())
    if total <= 0:
        raise ValueError(f"empty class at size {n}")
    pmf = {b: Fraction(w, total) for b, w in sorted(weights.items())}
    return BetaDistribution(n, pmf)


@dataclass(frozen=True)
class SeriesSystem:
    """The chain at one truncation order, each series built at most once.

    The tree chain P -> S -> T is solved on construction.  U, V and G are
    leaves that nothing else in the chain reads, so each is built on its
    first read.
    """

    order: int
    v: UVPoly  # the non-leaf mark: v, or 1/u in the y-collapsed chain
    P: TruncatedSeries
    E: TruncatedSeries  # exp(P), a by-product of solving for P
    S: TruncatedSeries
    T: TruncatedSeries

    @cached_property
    def _exp_A(self) -> TruncatedSeries:
        return self.E * _exp_ux(self.order, -1)

    @cached_property
    def U(self) -> TruncatedSeries:
        ux = x_times(self.order, _P_U)
        return (self.E - self._exp_A - ux).shift_x().poly_mul(self.v)

    @cached_property
    def V(self) -> TruncatedSeries:
        A = self.P - x_times(self.order, _P_U)
        return (self._exp_A - x_times(self.order, _P_ONE, 0) - A).shift_x()

    @cached_property
    def G(self) -> TruncatedSeries:
        return forest_series(self.T, self.v)


# Bivariate `series` needs the cap: its tree chain takes 0.4 s at order 45 and
# 0.65 s at 50, and `--which G` adds 1.4 s and 2.5 s for the forest
# exponential, growing about like order^6.5.  The y-collapsed chain of `dist`
# and `series --at-y` takes 0.3 + 0.2 s (G) at order 50 and 5-5.5 + 2.6-3.1 s
# at 100.
MAX_ORDER = 100


@cache
def series_system(order: int, at_y: bool = False) -> SeriesSystem:
    """Solve the tree chain P -> S -> T at one truncation order, once per process.

    With `at_y` the same chain runs with v := 1/u, the ring map
    (u, v) -> (y, 1/y): every count keeps only keys (k, 0), k = deg_u - deg_v,
    so `y_powers` and `beta_distribution` read it unchanged.

    Mobiles are rooted trees with a root half-edge and no degree-2 vertices.
    Their series P(x, u, v) is the unique zero-constant-term solution of
        P = (u-1)x + u(1-v)x^2 + (v + (1-v)exp(-ux)) x exp(P) - xP.
    Splitting off the single-vertex mobile, P = ux + U + V with A = P - ux:
    U roots touch a leaf, U = vx(exp(P) - exp(A) - ux), and V roots do not,
    V = x(exp(A) - 1 - A), with exp(A) = exp(P) exp(-ux).  Over degree-2-free
    trees, vertex-pointed minus half of edge-pointed trees counts each tree
    once (vertices outnumber edges by one): S = S_dot - S_arrow/2.
    Substituting V, U + vV = vx(exp(P) - 1 - P) and
    P^2 = A^2 + 2uxA + u^2x^2 into that difference leaves
        S = ux + ux^2/2 - u^2vx^3/2 + (1 - uvx^2) A - (1 + x) A^2/2;
    then `tree_series` gives T.  U, V and G (`forest_series`) are built
    when first read from the returned `SeriesSystem`.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"series order {order} outside 0..{MAX_ORDER}")
    v = _P_INV_U if at_y else _P_V
    uv = _P_U * v
    P, E = _solve_P(order, v)
    ux = x_times(order, _P_U)
    A = P - ux
    A2 = A * A
    S = (
        ux
        + A
        - A.shift_x().shift_x().poly_mul(uv)
        + (x_times(order, _P_U, 2) - x_times(order, _P_U * uv, 3)).half()
        - (A2 + A2.shift_x()).half()
    )
    return SeriesSystem(order, v, P, E, S, tree_series(S))
