"""Shared test utilities: chi-square goodness of fit, small graph builders, leg
counts, and a generic series composition oracle."""

from __future__ import annotations

from math import factorial

from scipy.stats import chi2

from mdim.graph import Graph
from mdim.series import TruncatedSeries, UVPoly


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return Graph.from_edges(n, edges)


def leg_counts(t: Graph) -> dict[int, int]:
    """Bare-path branches (legs) at each vertex of degree >= 3.

    Walks outward from each branch vertex, the opposite direction to the
    solver's leaf walks, so it checks Slater's rule independently.
    """
    legs = {}
    for v in range(t.n):
        if t.degree(v) < 3:
            continue
        legs[v] = 0
        for first in t.adj[v]:
            prev, cur = v, first
            while t.degree(cur) == 2:
                a, b = t.adj[cur]
                prev, cur = cur, (b if a == prev else a)
            legs[v] += t.degree(cur) == 1
    return legs


def chi_square_ok(observed: dict, probs: dict, total: int, alpha: float = 0.01) -> bool:
    """Goodness-of-fit check; cells with expected count < 5 are pooled."""
    cells = sorted(probs, key=lambda k: probs[k], reverse=True)
    pooled: list[tuple[float, float]] = []
    obs_acc = exp_acc = 0.0
    for key in cells:
        obs_acc += observed.get(key, 0)
        exp_acc += probs[key] * total
        if exp_acc >= 5:
            pooled.append((obs_acc, exp_acc))
            obs_acc = exp_acc = 0.0
    if exp_acc > 0 and pooled:
        o, e = pooled[-1]
        pooled[-1] = (o + obs_acc, e + exp_acc)
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    df = len(pooled) - 1
    if df < 1:
        return True
    return stat <= chi2.ppf(1 - alpha, df)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Composition outer(inner(x)); `inner` must have zero constant term.

    Runs through ordinary coefficients with Fraction arithmetic (Horner),
    so it is exact but not tuned for large orders.
    """
    if inner.counts[0]:
        raise ValueError("composition requires inner constant term 0")
    N = min(outer.order, inner.order)
    a = [outer.counts[n].exact_div(factorial(n)) for n in range(N + 1)]
    b = [inner.counts[n].exact_div(factorial(n)) for n in range(N + 1)]
    res = [a[N]] + [UVPoly()] * N
    for m in range(N - 1, -1, -1):
        nxt = [UVPoly()] * (N + 1)
        for i in range(N + 1):
            if not res[i]:
                continue
            for j in range(1, N + 1 - i):
                if b[j]:
                    nxt[i + j] = nxt[i + j] + res[i] * b[j]
        nxt[0] = nxt[0] + a[m]
        res = nxt
    return TruncatedSeries(N, [res[n].scale(factorial(n)) for n in range(N + 1)])
