"""Shared test utilities: chi-square goodness of fit, small graph builders, leg
counts, and the reference oracles the library is checked against: the
resolving-set check, the per-leaf Slater walk, the set-based edge check, the
BFS component partition, the scalar pair-index decoder, the tuple-list
Pruefer decoder and the checked one-sequence decode, the word-by-word
big-integer draw, Takacs' closed form and
the recurrence for the forest counts, tree enumeration in disjoint unions
and the blocks of a union, exact rational coefficients, generic series
composition, the count-by-count product of two series, the exp-based mobile
solver and mobile split, the running-sum edge subdivision, the pointed
series of the dissymmetry theorem, the y-collapse of a
bivariate count, the term-by-term series for C(c), the mobile series'
partial sums, a finite-difference stencil for rho, and a CSV reader for
`mdim mc` output."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import comb, factorial, isqrt
from typing import Iterator

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2

from mdim.asymptotics import _c_closed, _relation, tree_constants
from mdim.generators import _graphs
from mdim.graph import ComponentKind, ComponentPartition, Graph, GraphError, bfs_distances, induced_subgraph
from mdim.metric_dimension import ComponentTooLargeError, ResolvingWitness, brute_force_beta
from mdim.series import SeriesSystem, TruncatedSeries, UVPoly, _conv, series_system, x_times


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


def slater_walk_witness(parts: ComponentPartition, brute_cap: int) -> ResolvingWitness:
    """`_solve` by walking from each leaf, one vertex at a time, through
    degree-2 vertices to its terminal, and sorting the witness labels in
    Python: the oracle for the solver's pointer doubling over CSR slots."""
    g = parts.graph
    cyclic = parts.cyclic
    non_tree = cyclic.nonzero()[0].tolist()
    for c in non_tree:
        if parts.sizes[c] > brute_cap:
            raise ComponentTooLargeError(int(parts.sizes[c]), int(parts.edge_counts[c]), brute_cap)
    witness: list[int] = []
    for c in non_tree:
        sub, labels = induced_subgraph(g, (parts.component_of == c).nonzero()[0])
        witness.extend(labels[v] for v in brute_force_beta(sub, size_cap=brute_cap).witness)
    degrees = g.degrees
    leaves = ((degrees == 1) & ~cyclic[parts.component_of]).nonzero()[0].tolist()
    deg, ptr, nbr = degrees.tolist(), g.indptr.tolist(), g.indices.tolist()
    terminals: set[int] = set()
    for leaf in leaves:
        prev, cur = leaf, nbr[ptr[leaf]]
        while deg[cur] == 2:
            a, b = nbr[ptr[cur]], nbr[ptr[cur] + 1]
            prev, cur = cur, (b if a == prev else a)
        if deg[cur] == 1:
            if leaf < cur:
                witness.append(leaf)
        elif cur in terminals:
            witness.append(leaf)
        else:
            terminals.add(cur)
    isolated = (degrees == 0).nonzero()[0].tolist()
    witness.extend(isolated[:-1] if len(parts.sizes) >= 2 else isolated)
    return ResolvingWitness(len(witness), tuple(sorted(witness)))


def is_resolving(g: Graph, landmarks) -> bool:
    """True iff the n vectors of hop distances to `landmarks` are pairwise
    distinct. With no landmarks every vector is empty, so only n <= 1 holds."""
    columns = [bfs_distances(g, r) for r in landmarks]
    return len({tuple(col[v] for col in columns) for v in range(g.n)}) == g.n


def checked_adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency tuples by a per-edge scan with a set of seen pairs,
    raising the first error in edge order: the oracle for the array checks
    and CSR build in `Graph.from_edges` (the vertex limit is left to it)."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    neighbours: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        neighbours[u].append(v)
        neighbours[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in neighbours)


def bfs_partition(g: Graph):
    """Components by breadth-first search from each unvisited vertex in
    increasing order, as (assignment, components, kinds): the oracle for the
    hook-and-compress labelling in `Graph.component_labels`, read through
    `connected_components`."""
    assignment = [-1] * g.n
    components: list[tuple[int, ...]] = []
    kinds: list[ComponentKind] = []
    for start in range(g.n):
        if assignment[start] >= 0:
            continue
        cid = len(components)
        assignment[start] = cid
        comp = [start]
        for u in comp:  # BFS with `comp` as its queue
            for w in g.adj[u]:
                if assignment[w] < 0:
                    assignment[w] = cid
                    comp.append(w)
        comp.sort()
        size = len(comp)
        edges = sum(len(g.adj[v]) for v in comp) // 2
        if size == 1:
            kind = ComponentKind.ISOLATED_VERTEX
        elif edges >= size:
            kind = ComponentKind.NON_TREE
        elif all(len(g.adj[v]) <= 2 for v in comp):
            kind = ComponentKind.PATH
        else:
            kind = ComponentKind.NON_PATH_TREE
        components.append(tuple(comp))
        kinds.append(kind)
    return tuple(assignment), tuple(components), tuple(kinds)


def pair_from_index(idx: int, n: int, total: int) -> tuple[int, int]:
    """Pair (i, j), i < j, with index `idx` in the row-major enumeration of
    the C(n,2) = `total` pairs, in exact integer arithmetic: the oracle for
    the vectorised decoder in `sample_gnp`."""
    rev = total - 1 - idx
    t = (isqrt(8 * rev + 1) - 1) // 2
    i = n - 2 - t
    j = idx - i * (2 * n - i - 1) // 2 + i + 1
    return i, j


def prufer_decode(seq) -> Graph:
    """Decode one Pruefer sequence of length n-2 into the labelled tree on
    n >= 2 vertices, checking each entry first."""
    arr = np.asarray(seq)
    n = arr.size + 2
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"expected a 1-D integer sequence, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = (arr < 0) | (arr >= n)
        raise ValueError(f"sequence entry {arr[bad.argmax()]} out of range for n={n}")
    return _graphs(n, np.arange(n), [arr.astype(np.int64)], np.zeros(n, dtype=np.int64), 1)


def prufer_edges_walk(seq) -> list[tuple[int, int]]:
    """Edges of the labelled tree with Pruefer sequence `seq`, one (leaf, entry)
    tuple per step from a degree count: the oracle for the edge arrays of
    `_prufer_edges`."""
    n = len(seq) + 2
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} out of range for n={n}")
        deg[x] += 1
    edges = []
    ptr = 0  # smallest vertex never yet used as the removed leaf
    leaf = -1
    for x in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, x))
        deg[x] -= 1
        leaf = x if deg[x] == 1 and x < ptr else -1
    if leaf < 0:
        while deg[ptr] != 1:
            ptr += 1
        leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def randbelow_words(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) from 64-bit words drawn by `rng.integers`,
    rejecting draws >= bound: the oracle for `_randbelow`'s raw words."""
    bits = bound.bit_length()
    words = (bits + 63) // 64
    while True:
        r = 0
        for w in rng.integers(0, 2**64, size=words, dtype=np.uint64):
            r = (r << 64) | int(w)
        r >>= words * 64 - bits
        if r < bound:
            return r


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


def coefficient(series: TruncatedSeries, n: int) -> dict:
    """[x^n] as exact rationals, keyed as the counts' `terms`."""
    den = factorial(n)
    return {k: Fraction(c, den) for k, c in series.count_poly(n).terms.items()}


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """Composition outer(inner(x)); `inner` must have zero constant term.

    Runs through ordinary coefficients with Fraction arithmetic (Horner),
    so it is exact but not tuned for large orders.
    """
    if inner.counts[0]:
        raise ValueError("composition requires inner constant term 0")
    N = min(outer.order, inner.order)
    a = [outer.counts[n].scale(Fraction(1, factorial(n))) for n in range(N + 1)]
    b = [inner.counts[n].scale(Fraction(1, factorial(n))) for n in range(N + 1)]
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


def conv_oracle(a: list, b: list, n: int):
    """n! [x^n] of the product of the series with counts a and b, one
    product, one scaled copy and one sum per pair: the check on `_conv`,
    which hands its weighted pairs to the ring's `dot` instead."""
    acc = a[0].const(0)
    for k in range(n + 1):
        x, y = a[k], b[n - k]
        if x and y:
            acc = acc + (x * y).scale(comb(n, k))
    return acc.tightened()


def solve_P_by_exp(order: int, u, v) -> tuple[TruncatedSeries, TruncatedSeries]:
    """P and exp(P) by the mobile equation as written, the check on
    `mdim.series._solve_P`, which solves its exp-free log-derivative instead.

    P = (u-1)x + u(1-v)x^2 + q x exp(P) - xP with q = v + (1-v) exp(-ux):
    every P on the right carries a factor x, so the x^n count needs only
    counts of order < n, and exp(P) is updated alongside, count by count.
    """
    one = u.const(1)
    a = [one.const(0)]  # counts of P
    e = [one]  # counts of exp(P)
    q = (x_times(order, u.scale(-1)).exp().poly_mul(one - v) + x_times(order, v, 0)).counts
    base = (x_times(order, u - one) + x_times(order, u * (one - v), 2)).counts
    for n in range(1, order + 1):
        a.append((_conv(q, e, n - 1) - a[n - 1]).scale(n) + base[n])
        e.append(_conv(a[1:], e, n - 1))
    return TruncatedSeries(order, a), TruncatedSeries(order, e)


def mobile_split_by_exp(P: TruncatedSeries, u, v) -> tuple[TruncatedSeries, TruncatedSeries]:
    """U and V by their exponential forms, with A = P - ux,
        U = vx(exp(P) - exp(A) - ux),   V = x(exp(A) - 1 - A),
    each exponential taken by `TruncatedSeries.exp`: the check on
    `SeriesSystem.U` and `.V`, which solve W D = R for W = x exp(A) instead.
    """
    N = P.order
    ux = x_times(N, u)
    A = P - ux
    exp_A = A.exp()
    U = (P.exp() - exp_A - ux).shift_x().poly_mul(v)
    V = (exp_A - x_times(N, u.const(1), 0) - A).shift_x()
    return U, V


def tree_series_by_running_sums(S: TruncatedSeries) -> TruncatedSeries:
    """T = (1-x) S(x/(1-x)) through the running sums
    comp_n = sum_m n!/m! C(n-1, m-1) S_m of S(x/(1-x)) and the differences
    T_n = comp_n - n comp_(n-1): the check on `mdim.series.tree_series`,
    which takes one weighted `dot` of the S_m per order."""
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


def pointed_series(sys_: SeriesSystem) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Edge-pointed and vertex-pointed degree-2-free trees, (S_arrow, S_dot),
    from the chain's mobiles; the dissymmetry theorem gives S = S_dot - S_arrow/2.

    Cutting a marked oriented edge into an ordered pair of mobiles gives
        S_arrow = ux^2 + 2uxU + 2uvxV + (U + V)^2,
    and splitting a marked vertex on its degree (0, 1, or >= 3 with or
    without a leaf child) gives
        S_dot = ux + ux^2 + uxU + uvxV
                + (1-v)x(exp(A) - 1 - A - A^2/2) + vx(exp(P) - 1 - P - P^2/2),
    with A = P - ux.
    """
    P, U, V = sys_.P, sys_.U, sys_.V
    N = sys_.order
    u, v = UVPoly({(1, 0): 1}), UVPoly({(0, 1): 1})
    one = x_times(N, UVPoly({(0, 0): 1}), 0)
    ux, ux2 = x_times(N, u), x_times(N, u, power=2)
    A = P - ux
    uxU = U.shift_x().poly_mul(u)
    uvxV = V.shift_x().poly_mul(u * v)
    W = U + V
    S_arrow = ux2 + uxU.scale(2) + uvxV.scale(2) + W * W
    S_dot = (
        ux
        + ux2
        + uxU
        + uvxV
        + (A.exp() - one - A - (A * A).half()).shift_x().poly_mul(UVPoly({(0, 0): 1}) - v)
        + (P.exp() - one - P - (P * P).half()).shift_x().poly_mul(v)
    )
    return S_arrow, S_dot


def y_collapse(poly: UVPoly) -> dict[int, int]:
    """A bivariate count after (u, v) -> (y, 1/y): nonzero sums keyed by deg_u - deg_v.

    The cross-check between the two chains: the y-collapsed chain's `YPoly.terms`
    must equal this collapse of the bivariate chain's count.
    """
    out: dict[int, int] = {}
    for (a, b), c in poly.terms.items():
        out[a - b] = out.get(a - b, 0) + c
    return {k: c for k, c in out.items() if c}


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labelled trees on n vertices, 2 <= n <= 8, in the
    lexicographic order of their Pruefer sequences, as disjoint unions of
    2^12 trees (fewer in the last): tree i of a union on the block of labels
    i*n..(i+1)*n-1, as the batch samplers return them.  Each union carries
    its partition, and `block_edges` and `split_blocks` take it apart."""
    if not 2 <= n <= 8:
        raise ValueError(f"enumeration supported for 2 <= n <= 8, got {n}")
    seqs = list(np.array(list(product(range(n), repeat=n - 2)), dtype=np.int64))
    for start in range(0, len(seqs), 2**12):  # all 8^6 trees at once would hold 130 MB more
        chunk = seqs[start : start + 2**12]
        total = n * len(chunk)
        yield _graphs(n, np.arange(total), chunk, np.arange(0, total, n).repeat(n), len(chunk))


def block_edges(g: Graph, n: int) -> list[tuple[tuple[int, int], ...]]:
    """The edges of each graph in a disjoint union on consecutive blocks of n
    vertices, relabelled to 0..n-1, as (u, v) with u < v in lexicographic
    order: what `edges()` gives on each graph alone."""
    keep = g.sources < g.indices
    u, v = g.sources[keep], g.indices[keep]
    base = u // n * n
    pairs = list(zip((u - base).tolist(), (v - base).tolist()))
    starts = np.searchsorted(u, np.arange(0, g.n, n)).tolist()  # CSR order: u is sorted
    return [tuple(pairs[a:b]) for a, b in zip(starts, starts[1:] + [len(pairs)])]


def split_blocks(g: Graph, n: int) -> list[Graph]:
    """The graphs of a disjoint union on consecutive blocks of n vertices,
    each relabelled to 0..n-1 and built anew, so it computes its own partition."""
    return [Graph.from_edges(n, edges) for edges in block_edges(g, n)]


def forest_counts_recurrence(n: int) -> tuple[list[int], list[int]]:
    """Tree counts t_0..t_n and forest counts f_0..f_n from the recurrence
    f_m = sum_k C(m-1,k-1) t_k f_(m-k) (peel off the component of the
    smallest label); the oracle for the table `forest_counts` builds."""
    t = [0] + [k ** (k - 2) if k > 1 else 1 for k in range(1, n + 1)]
    f = [1] + [0] * n
    for m in range(1, n + 1):
        f[m] = sum(math.comb(m - 1, k - 1) * t[k] * f[m - k] for k in range(1, m + 1))
    return t, f


def forest_count_takacs(m: int) -> int:
    """Labelled forests on m vertices, by Takacs' closed form (1990):

        (m+1) f_m = sum_{j <= m/2} (-1)^j (2j+1) C(m,2j) (2j-1)!! (m+1)^(m-2j),

    evaluated by Horner's rule in (m+1)^2 with c_j = C(m,2j) (2j-1)!!; the
    oracle for the Hermite recurrence in `_forest_count`.
    """
    x = (m + 1) ** 2
    c = acc = 1
    for j in range(1, m // 2 + 1):
        c = c * (m - 2 * j + 2) * (m - 2 * j + 1) // (2 * j)
        term = (2 * j + 1) * c
        acc = acc * x + (-term if j & 1 else term)
    if m & 1:
        return acc  # the odd power (m+1)^1 cancels the division
    f, rem = divmod(acc, m + 1)
    if rem:
        raise AssertionError(f"closed form for f_{m} not divisible by {m + 1}")
    return f


def sum_c_series(c, m, tol):
    """Term-by-term sums behind C(c), over the math backend `m`.

    Returns the value and the largest index k either sum reached; both sums
    stop when the next term drops below `tol`.
    """
    emc = m.exp(-c)
    q = (1 - (c + 1) * emc) / (1 - c * emc)
    s_branch = c * 0
    term = c**3 / 6
    k = 3
    kmax = 3
    while term >= tol:
        s_branch += term * (1 - q**k)
        k += 1
        term = term * c / k
        kmax = k
    s_path = c * 0
    ratio = c * emc
    term = ratio / 2
    k = 2
    while term >= tol:
        s_path += term
        term *= ratio
        k += 1
        kmax = max(kmax, k)
    return emc * (1 + c - s_branch - s_path), kmax


def C_series(c: float, tol: float = 1e-15, dps: int | None = None):
    """Same constant as `mdim.asymptotics.C_closed`, by direct summation.

    `dps` switches to mpmath with that many significant digits.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c={c} outside (0, 1)")
    if dps is None:
        return sum_c_series(c, math, tol)[0]
    with mpmath.workdps(dps):
        return sum_c_series(mpmath.mpf(c), mpmath, mpmath.mpf(tol))[0]


def C_closed_mp(c: float, dps: int):
    """`mdim.asymptotics.C_closed` at `dps` significant digits: the library's
    own closed form evaluated over mpmath."""
    with mpmath.workdps(dps):
        return _c_closed(mpmath.mpf(c), mpmath)


def tau_partial_sums(order: int) -> list[float]:
    """Partial sums of the mobile series at its singularity, u = v = 1.

    The limit is 1 = rho(1) + (e-2)/(e-1); the partial sums increase to it
    from below (all counts are non-negative).
    """
    P = series_system(order).P
    rho1 = tree_constants().rho1
    sums = []
    acc = 0.0
    for n in range(order + 1):
        cnt = sum(P.count_poly(n).terms.values())
        acc += float(cnt) / factorial(n) * rho1**n
        sums.append(acc)
    return sums


def rho_stencil(h: float = 1e-3) -> tuple[float, float]:
    """rho'(1) and rho''(1) by 5-point finite differences of rho(y), each
    rho(1 + kh) found by `brentq` on the library's singularity relation over
    the bracket [0.1, 2.0], which holds only the root near 0.58."""
    r = {
        k: brentq(_relation, 0.1, 2.0, args=(1.0 + k * h,), xtol=1e-15)
        for k in (-2, -1, 0, 1, 2)
    }
    fd1 = (r[-2] - 8.0 * r[-1] + 8.0 * r[1] - r[2]) / (12.0 * h)
    fd2 = (-r[-2] + 16.0 * r[-1] - 30.0 * r[0] + 16.0 * r[1] - r[2]) / (12.0 * h * h)
    return fd1, fd2


def parse_csv_betas(text: str) -> list[int | None]:
    """Read back the per-replicate column of `render_csv` output."""
    betas: list[int | None] = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            break
        _, _, val = line.partition(",")
        betas.append(int(val) if val else None)
    return betas
