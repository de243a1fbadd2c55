"""Exact truncated power series over two coefficient rings.

The series are exponential in x: the stored coefficient of x^n is the
labelled-count polynomial n! * [x^n], which keeps the whole pipeline in
integer arithmetic; `coefficient(n)` divides back out to exact Fractions.
Powers of u mark leaves, powers of v mark non-leaf vertices adjacent to a
leaf, and substituting (u, v) = (y, 1/y) turns the exponent difference
deg_u - deg_v into the metric dimension mark.

`series_system` is the one builder of the chain: mobiles P (implicitly
defined), the split P = ux + U + V by whether the root touches a leaf,
unrooted degree-2-free trees S, the edge-subdivision substitution
T = (1-x) S(x/(1-x)), and finally forests G, built only when read.  The
chain is written once; its marks u and v are parameters, and their ring
decides how every count is held:

- `UVPoly`, a dict from (deg_u, deg_v), packed into the one int key
  deg_u << 16 | deg_v, to an int, for the bivariate chain of `mdim series`.
- `YPoly`, for the chain that `mdim dist` and `mdim series --at-y` read,
  with u = y and v = 1/y.  A Laurent polynomial sum_k c_k y^k is one Python
  int, its value at y = 2^B, sum_k c_k 2^(B (k - lo)), with its low exponent
  lo (Kronecker substitution).  So +, -, * and scale are each one big-int
  operation, and the value is exact whatever B is.  The slot width B is
  fixed per chain by `_slot_width(order)`.

A ring supplies +, -, *, `scale`, `exact_div`, `const`, `tightened`, `terms`
and `dot`.  Each ring has one read, `terms`: a dict from the ring's own
exponent, (deg_u, deg_v) or the power of y, to its integer count.  So the
y-collapse is decided in one place, the marks u and v that `series_system`
passes.

Each x^n count of a product is the binomial convolution
sum_k C(n, k) a_k b_(n-k).  `_conv` lists its weighted pairs once, with the
mirrored pairs of a square folded into one of double weight, and hands them
to the ring's `dot(pairs)`, which sums w * x * y into one accumulator: one
dict for `UVPoly`, whose `*` is `dot` of one pair, and one int for `YPoly`.

Only reading a `YPoly` back (`terms`, `exact_div`) needs every
|c_k| < 2^(B-1), so that B-bit slots hold them without carries.  Each
`YPoly` therefore carries an upper bound on its l1 norm sum_k |c_k|:
products multiply bounds, sums add them, `scale` multiplies by |s| and
`exact_div` divides.  A decode raises AssertionError unless the bound is
below 2^(B-1), so a too-narrow slot fails loudly and never gives a wrong
coefficient.  `YPoly.dot` adds |w| times the product of the bounds for each
pair.  `_conv` then calls `tightened` on the sum, which decodes it once and
resets its bound to the exact l1 norm: one decode per count keeps the bounds
within a few bits of the true counts.

`mdim.cli` and this module, the numpy-free path of `mdim series` and `mdim
dist`, import no `dataclasses`, which loads `inspect`, `ast`, `dis` and
`tokenize` (about 6 ms); modules that import numpy, which loads `inspect`, may.
"""

from __future__ import annotations

from functools import cache, cached_property
from fractions import Fraction
from math import comb, factorial

Key = tuple[int, int]  # (power of u, power of v)

# A `UVPoly` keeps the term u^a v^b under the one int a << _DEG_BITS | b, so
# the key of a product is the sum of its factors' keys.  That sum carries
# from deg_v into deg_u only if a product's deg_v reaches 2^16.  u and v each
# mark one vertex, so the x^n count of every series in the chain, and every
# product that `_conv` forms for it, has deg_u <= n and deg_v <= n: within
# `MAX_ORDER` = 100 no product comes near the field.  With deg_u < 2^14 a
# key is also one 30-bit CPython digit.
_DEG_BITS = 16
_DEG_MASK = (1 << _DEG_BITS) - 1  # the largest degree the constructor accepts


class UVPoly:
    """Polynomial in (u, v) with exact coefficients; zero terms are dropped.

    `_terms` maps the packed key deg_u << _DEG_BITS | deg_v to its coefficient;
    `terms` unpacks it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Key, object] | None = None):
        packed = {}
        for (a, b), c in (terms or {}).items():
            if not (0 <= a <= _DEG_MASK and 0 <= b <= _DEG_MASK):
                raise ValueError(f"degree ({a}, {b}) outside 0..{_DEG_MASK}")
            if c:
                packed[a << _DEG_BITS | b] = c
        self._terms = packed

    @classmethod
    def _raw(cls, terms: dict) -> "UVPoly":
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @property
    def terms(self) -> dict[Key, object]:
        """The nonzero coefficients, keyed by (deg_u, deg_v)."""
        return {(k >> _DEG_BITS, k & _DEG_MASK): c for k, c in self._terms.items()}

    def const(self, c: int) -> "UVPoly":
        """The constant c in this ring."""
        return UVPoly._raw({0: c} if c else {})

    def tightened(self) -> "UVPoly":
        """Itself: a dict has nothing to decode or bound (see `YPoly.tightened`)."""
        return self

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UVPoly) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"UVPoly({self.terms!r})"

    def __add__(self, other: "UVPoly") -> "UVPoly":
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return UVPoly._raw(out)

    def __sub__(self, other: "UVPoly") -> "UVPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "UVPoly") -> "UVPoly":
        return self.dot(((self, other, 1),))

    def dot(self, pairs) -> "UVPoly":
        """sum w * x * y over the triples (x, y, w), into one dict."""
        out: dict[int, object] = {}
        get = out.get
        for x, y, w in pairs:
            ys = y._terms.items()
            for k1, c1 in x._terms.items():
                c1 *= w
                for k2, c2 in ys:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return UVPoly._raw({k: c for k, c in out.items() if c})

    def scale(self, s) -> "UVPoly":
        if not s:
            return _P_ZERO
        return UVPoly._raw({k: c * s for k, c in self._terms.items()})

    def exact_div(self, d: int) -> "UVPoly":
        """Divide integer coefficients by d; a remainder is an internal error."""
        out: dict[int, object] = {}
        for k, c in self._terms.items():
            q, r = divmod(c, d)
            if r:
                key = (k >> _DEG_BITS, k & _DEG_MASK)
                raise AssertionError(f"coefficient {c} of {key} not divisible by {d}")
            out[k] = q
        return UVPoly._raw(out)


_P_ZERO = UVPoly()
_P_U = UVPoly({(1, 0): 1})
_P_V = UVPoly({(0, 1): 1})


class YPoly:
    """Laurent polynomial in y with integer coefficients, packed into one int.

    `val` is sum_k c_k 2^(width (k - lo)); `bound` is at least sum_k |c_k|.
    Both operands of a ring operation must share `width`.
    """

    __slots__ = ("val", "lo", "bound", "width")

    def __init__(self, powers: dict[int, int], width: int):
        if width < 8 or width % 8:
            raise ValueError(f"slot width {width} is not a positive multiple of 8")
        self.lo = min(powers, default=0)
        self.val = sum(c << width * (k - self.lo) for k, c in powers.items())
        self.bound = sum(abs(c) for c in powers.values())
        self.width = width

    @classmethod
    def _raw(cls, val: int, lo: int, bound: int, width: int) -> "YPoly":
        poly = object.__new__(cls)
        poly.val, poly.lo, poly.bound, poly.width = val, lo, bound, width
        return poly

    def const(self, c: int) -> "YPoly":
        """The constant c in this ring."""
        return YPoly._raw(c, 0, abs(c), self.width)

    def _slots(self) -> list[int]:
        """The coefficients of y^lo, y^(lo+1), ... (bias trick on whole bytes)."""
        w = self.width
        half = 1 << w - 1
        if self.bound >= half:
            raise AssertionError(
                f"coefficient bound of {self.bound.bit_length()} bits overflows a {w}-bit slot"
            )
        nbytes = w // 8
        # a top coefficient c_m != 0 gives |val| >= 2^(w m - 1), so n > m slots
        n = abs(self.val).bit_length() // w + 1
        bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")  # half in every slot
        raw = (self.val + bias).to_bytes(nbytes * n, "little")
        return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, len(raw), nbytes)]

    def tightened(self) -> "YPoly":
        """The same polynomial with its bound reset to its l1 norm, zero low slots dropped."""
        cs = self._slots()
        k = next((i for i, c in enumerate(cs) if c), 0)
        return YPoly._raw(self.val >> self.width * k, self.lo + k, sum(map(abs, cs)), self.width)

    @property
    def terms(self) -> dict[int, int]:
        """The nonzero coefficients, keyed by the power of y."""
        return {self.lo + i: c for i, c in enumerate(self._slots()) if c}

    def __bool__(self) -> bool:
        return bool(self.val)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YPoly) or other.width != self.width:
            return False
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        return a.val == b.val << a.width * (b.lo - a.lo)

    def __repr__(self) -> str:
        return f"YPoly(lo={self.lo}, val={self.val}, bound={self.bound}, width={self.width})"

    def __add__(self, other: "YPoly") -> "YPoly":
        w = self.width
        if other.width != w:
            raise ValueError(f"slot widths {w} and {other.width} differ")
        if not other.val:
            return self
        if not self.val:
            return other
        d = other.lo - self.lo
        if d >= 0:
            return YPoly._raw(self.val + (other.val << w * d), self.lo, self.bound + other.bound, w)
        return YPoly._raw((self.val << -w * d) + other.val, other.lo, self.bound + other.bound, w)

    def __sub__(self, other: "YPoly") -> "YPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "YPoly") -> "YPoly":
        if other.width != self.width:
            raise ValueError(f"slot widths {self.width} and {other.width} differ")
        return YPoly._raw(self.val * other.val, self.lo + other.lo, self.bound * other.bound, self.width)

    def dot(self, pairs) -> "YPoly":
        """sum w * x * y over the triples (x, y, w), into one int aligned at the lowest lo."""
        width = self.width
        lo = min((x.lo + y.lo for x, y, _ in pairs), default=0)
        val = bound = 0
        for x, y, w in pairs:
            if x.width != width or y.width != width:
                raise ValueError(f"slot widths {x.width} and {y.width} differ from {width}")
            val += x.val * y.val * w << width * (x.lo + y.lo - lo)
            bound += x.bound * y.bound * abs(w)
        return YPoly._raw(val, lo, bound, width)

    def scale(self, s: int) -> "YPoly":
        return YPoly._raw(self.val * s, self.lo, self.bound * abs(s), self.width)

    def exact_div(self, d: int) -> "YPoly":
        """Divide integer coefficients by d; a remainder is an internal error."""
        for i, c in enumerate(self._slots()):
            if c % d:
                raise AssertionError(f"coefficient {c} of y^{self.lo + i} not divisible by {d}")
        return YPoly._raw(self.val // d, self.lo, self.bound // d, self.width)


_Coeff = UVPoly | YPoly  # a count of x^n in either ring


def _slot_width(order: int) -> int:
    """Bits per y-power slot of the packed chain at this order.

    floor(N log2 N) + 16 bits, rounded up to whole bytes and at least 64:
    304 at N = 50, 680 at N = 100.  The decode guard checks every read.
    """
    bits = (order**order).bit_length() - 1 + 16
    return max(64, -(-bits // 8) * 8)


class TruncatedSeries:
    """Series sum_{n<=order} c_n x^n / n! with `UVPoly` or `YPoly` counts c_n."""

    __slots__ = ("order", "counts")

    def __init__(self, order: int, counts: list[_Coeff]):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if len(counts) != order + 1:
            raise ValueError("counts length must be order + 1")
        self.counts = counts

    # -- access ---------------------------------------------------------
    def count_poly(self, n: int) -> _Coeff:
        """n! * [x^n]: the labelled count polynomial."""
        if not 0 <= n <= self.order:
            raise ValueError(f"n={n} outside truncation order {self.order}")
        return self.counts[n]

    def coefficient(self, n: int) -> dict[Key | int, Fraction]:
        """[x^n] as exact rationals, keyed as the counts' `terms`."""
        den = factorial(n)
        return {k: Fraction(c, den) for k, c in self.count_poly(n).terms.items()}

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

    def poly_mul(self, p: _Coeff) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c * p for c in self.counts])

    def scale(self, s) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c.scale(s) for c in self.counts])

    def shift_x(self) -> "TruncatedSeries":
        """Multiply by x (counts pick up the factor n from relabelling)."""
        out = [self.counts[0].const(0)]
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
        b = [self.counts[0].const(1)]
        for n in range(1, self.order + 1):
            b.append(_conv(a, b, n - 1))
        return TruncatedSeries(self.order, b)


def _conv(a: list[_Coeff], b: list[_Coeff], n: int) -> _Coeff:
    """n! [x^n] of the product of two series given by their counts a and b.

    The pairs (a_k, b_(n-k)) with no zero factor go to the ring's `dot` with
    weight C(n, k).  A square (a is b) sends each mirrored pair k < n - k once,
    with weight 2 C(n, k), plus the middle pair for even n.
    """
    if a is b:
        pairs = [(a[k], a[n - k], 2 * comb(n, k)) for k in range((n + 1) // 2) if a[k] and a[n - k]]
        if not n % 2 and a[n // 2]:
            pairs.append((a[n // 2], a[n // 2], comb(n, n // 2)))
    else:
        pairs = [(a[k], b[n - k], comb(n, k)) for k in range(n + 1) if a[k] and b[n - k]]
    return a[0].dot(pairs).tightened()


def x_times(order: int, poly: _Coeff, power: int = 1) -> TruncatedSeries:
    """The series poly * x^power at the given truncation order."""
    zero, term = poly.const(0), poly.scale(factorial(power))
    return TruncatedSeries(order, [term if n == power else zero for n in range(order + 1)])


# ---------------------------------------------------------------------------
# The generating-function chain.
# ---------------------------------------------------------------------------


def _solve_P(order: int, u: _Coeff, v: _Coeff) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Solve the mobile equation for P (see `series_system`); return P and exp(P).

    Every appearance of P on the right carries a factor x, so the x^n count
    only needs counts of order < n: the fixed point is reached coefficient by
    coefficient, updating exp(P) incrementally along the way.
    """
    one = u.const(1)
    a = [one.const(0)]  # counts of P
    e = [one]  # counts of exp(P)
    # q = v + (1-v) exp(-ux)
    q = (x_times(order, u.scale(-1)).exp().poly_mul(one - v) + x_times(order, v, 0)).counts
    # the base terms (u - 1)x + u(1 - v)x^2
    base = (x_times(order, u - one) + x_times(order, u * (one - v), 2)).counts
    for n in range(1, order + 1):
        a.append((_conv(q, e, n - 1) - a[n - 1]).scale(n) + base[n])
        e.append(_conv(a[1:], e, n - 1))
    return TruncatedSeries(order, a), TruncatedSeries(order, e)


def tree_series(S: TruncatedSeries) -> TruncatedSeries:
    """All labelled trees: re-insert degree-2 vertices on every edge.

    A tree on n vertices has n-1 edges, so x^m -> x^m (1-x)^(-m+1), i.e.
    T = (1-x) S(x/(1-x)).  With counts: [x^n] S(x/(1-x)) picks up binomial
    weights C(n-1, m-1) from (1-x)^(-m).
    """
    N = S.order
    zero = S.counts[0].const(0)
    comp = [zero]
    for n in range(1, N + 1):
        acc = zero
        nf = factorial(n)
        for m in range(1, n + 1):
            s = S.counts[m]
            if s:
                acc = acc + s.scale(nf // factorial(m) * comb(n - 1, m - 1))
        comp.append(acc)
    return TruncatedSeries(N, [zero] + [comp[n] - comp[n - 1].scale(n) for n in range(1, N + 1)])


def forest_series(T: TruncatedSeries, u: _Coeff, v: _Coeff) -> TruncatedSeries:
    """Forests: G = exp(T - ux) (1 + v (exp(ux) - 1)) + u(1 - v) x.

    Sets of non-trivial trees, times an optional non-empty set of isolated
    vertices carrying one balancing v (one isolated vertex is already
    resolved by its all-unreachable distance vector).  The lone vertex,
    counted as uv by the product, has beta = 1 like every path: the x term
    turns its count into u.
    """
    N, one = T.order, u.const(1)
    core = (T - x_times(N, u)).exp()
    iso = x_times(N, u).exp().poly_mul(v) + x_times(N, one - v, 0)  # 1 + v (exp(ux) - 1)
    return core * iso + x_times(N, u * (one - v))


class BetaDistribution:
    """Exact distribution of the metric dimension at size n."""

    def __init__(self, n: int, pmf: dict[int, Fraction]):
        self.n, self.pmf = n, pmf

    def mean(self) -> Fraction:
        return sum((Fraction(b) * p for b, p in self.pmf.items()), Fraction(0))

    def variance(self) -> Fraction:
        m = self.mean()
        return sum((p * (Fraction(b) - m) ** 2 for b, p in self.pmf.items()), Fraction(0))


def beta_distribution(series: TruncatedSeries, n: int) -> BetaDistribution:
    """Distribution of the mark y read off the x^n count of a y-collapsed series."""
    if not 1 <= n <= series.order:
        raise ValueError(f"n={n} outside series order {series.order}")
    count = series.count_poly(n)
    if not isinstance(count, YPoly):
        raise TypeError("beta_distribution reads the y-collapsed chain, series_system(order, at_y=True)")
    weights = count.terms
    total = sum(weights.values())
    if total <= 0:
        raise ValueError(f"empty class at size {n}")
    pmf = {b: Fraction(w, total) for b, w in sorted(weights.items())}
    return BetaDistribution(n, pmf)


class SeriesSystem:
    """The chain at one truncation order, each series built at most once.

    u marks leaves and v non-leaf vertices (y and 1/y in the y-collapsed
    chain); E = exp(P) is a by-product of solving for P.  The tree chain
    P -> S -> T is solved on construction.  U, V and G are leaves that
    nothing else in the chain reads, so each is built on its first read and
    cached in the instance `__dict__`.
    """

    def __init__(
        self, order: int, u: _Coeff, v: _Coeff,
        P: TruncatedSeries, E: TruncatedSeries, S: TruncatedSeries, T: TruncatedSeries,
    ):
        self.order, self.u, self.v = order, u, v
        self.P, self.E, self.S, self.T = P, E, S, T

    @cached_property
    def _exp_A(self) -> TruncatedSeries:
        return self.E * x_times(self.order, self.u.scale(-1)).exp()

    @cached_property
    def U(self) -> TruncatedSeries:
        ux = x_times(self.order, self.u)
        return (self.E - self._exp_A - ux).shift_x().poly_mul(self.v)

    @cached_property
    def V(self) -> TruncatedSeries:
        A = self.P - x_times(self.order, self.u)
        return (self._exp_A - x_times(self.order, self.u.const(1), 0) - A).shift_x()

    @cached_property
    def G(self) -> TruncatedSeries:
        return forest_series(self.T, self.u, self.v)


# Bivariate `series` needs the cap: its tree chain takes 0.21-0.25 s at order
# 45 and 0.30-0.37 s at 50, and `--which G` adds 0.87-1.09 s and 1.6-2.1 s for
# the forest exponential, so the whole build nearly doubles from 45 to 50.  The
# packed y-collapsed chain of `dist` and `series --at-y` takes 0.07-0.08 +
# 0.03-0.04 s (G) at order 50 and 2.2-3.0 + 1.4-1.8 s at 100 (Python 3.11,
# 2-core x86-64 host shared with other jobs).
MAX_ORDER = 100


def series_system(order: int, at_y: bool = False) -> SeriesSystem:
    """Solve the tree chain P -> S -> T at one truncation order, once per process.

    With `at_y` the same chain runs over `YPoly` with u = y and v = 1/y, the
    ring map (u, v) -> (y, 1/y), at the slot width `_slot_width(order)`;
    its counts' `terms` are keyed by the power of y, which `beta_distribution`
    reads.

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
    return _system(order, at_y)


@cache
def _system(order: int, at_y: bool) -> SeriesSystem:
    """The memo behind `series_system`, keyed on (order, at_y) positionally:
    `functools.cache` keys on the call form, so series_system(45) and
    series_system(45, at_y=False) would otherwise build the chain twice."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"series order {order} outside 0..{MAX_ORDER}")
    if at_y:
        width = _slot_width(order)
        u, v = YPoly({1: 1}, width), YPoly({-1: 1}, width)
    else:
        u, v = _P_U, _P_V
    uv = u * v
    P, E = _solve_P(order, u, v)
    ux = x_times(order, u)
    A = P - ux
    A2 = A * A
    S = (
        ux
        + A
        - A.shift_x().shift_x().poly_mul(uv)
        + (x_times(order, u, 2) - x_times(order, u * uv, 3)).half()
        - (A2 + A2.shift_x()).half()
    )
    return SeriesSystem(order, u, v, P, E, S, tree_series(S))


series_system.cache_clear = _system.cache_clear
