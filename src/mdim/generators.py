"""Random generators: uniform labelled trees and forests, G(n,p).

All samplers draw from a named, splittable RNG (PCG64 seeded through a
SeedSequence spawn key), so replicate i of a run is reproducible bit-for-bit
from (seed, stream=i) alone.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it with this module, not in the first replicate

from .graph import Graph, _with_components, check_edge_limit, check_vertex_limit


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle; stream = replicate index."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 0")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


def _randbelow(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bounds."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    words = (bits + 63) // 64
    excess = words * 64 - bits
    while True:
        # the same words rng.integers(0, 2**64, size=words, dtype=np.uint64)
        # draws, the first most significant
        raw = rng.bit_generator.random_raw(words)[::-1].astype("<u8", copy=False)
        r = int.from_bytes(raw.tobytes(), "little") >> excess
        if r < bound:
            return r


def _prufer_edges(seq: Sequence[int] | np.ndarray) -> np.ndarray:
    """The (n-1, 2) int64 edges of the labelled tree on n = len(seq) + 2 vertices
    with Pruefer sequence `seq`: the leaf removed at each step, joined to the
    sequence entry of that step, and the last leaf joined to n-1."""
    arr = np.asarray(seq)
    n = arr.size + 2
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"expected a 1-D integer sequence, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = (arr < 0) | (arr >= n)
        raise ValueError(f"sequence entry {arr[bad.argmax()]} out of range for n={n}")
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:-1, 1] = arr
    edges[-1, 1] = n - 1
    rest = np.bincount(edges[:-1, 1], minlength=n).tolist()  # occurrences not yet consumed
    leaves = [0] * (n - 1)
    ptr = 0  # smallest vertex never yet used as the removed leaf
    leaf = -1
    for i, x in enumerate(arr.tolist()):
        if leaf < 0:
            while rest[ptr]:
                ptr += 1
            leaf = ptr
            ptr += 1
        leaves[i] = leaf
        rest[x] -= 1
        # chain directly when x became a leaf below the scan pointer
        leaf = x if not rest[x] and x < ptr else -1
    leaves[-1] = leaf if leaf >= 0 else ptr  # every count is now 0: ptr is a leaf
    edges[:, 0] = leaves
    return edges


def _tree(n: int, edges) -> Graph:
    """The tree on n vertices with these edges, carrying its partition: one
    component, whose smallest label is 0."""
    return _with_components(Graph.from_edges(n, edges), np.zeros(n, dtype=np.int64), 1)


def prufer_decode(seq: Sequence[int] | np.ndarray) -> Graph:
    """Decode a Pruefer sequence of length n-2 into the labelled tree on n >= 2 vertices."""
    return _tree(len(seq) + 2, _prufer_edges(seq))


def sample_uniform_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform labelled tree on n vertices (single vertex for n=1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_vertex_limit(n)
    if n == 1:
        return _tree(1, [])
    return prufer_decode(rng.integers(0, n, size=n - 2))


@dataclass(frozen=True)
class ForestCountTable:
    """Exact counts: t[k] labelled trees on k vertices, f[m] labelled forests on m."""

    t: tuple[int, ...]
    f: tuple[int, ...]
    _cums: dict = field(default_factory=dict, repr=False, compare=False)

    def component_cumweights(self, m: int) -> list[int]:
        """Cumulative weights for the size k of the component holding the
        smallest label, listed for k = m down to 1 (heaviest sizes first)."""
        cached = self._cums.get(m)
        if cached is None:
            acc = 0
            c = 1  # C(m-1, k-1)
            cached = []
            for k in range(m, 0, -1):
                acc += c * self.t[k] * self.f[m - k]
                cached.append(acc)
                c = c * (k - 1) // (m - k + 1)
            if acc != self.f[m]:
                raise AssertionError("forest count recurrence violated")
            self._cums[m] = cached
        return cached


def _forest_count(m: int) -> int:
    """Labelled forests on m vertices, f_m = He_m(m+1) - m He_(m-1)(m+1), by
    the probabilists' Hermite recurrence He_(k+1)(x) = x He_k(x) - k He_(k-1)(x).

    Lagrange inversion of exp(R - R^2/2), R = z exp(R) the rooted trees, gives
    f_m = (m-1)! [w^(m-1)] (1-w) exp((m+1)w - w^2/2); with exp(xw - w^2/2) =
    sum_k He_k(x) w^k / k! and one more recurrence step, that is the form above.
    """
    x = m + 1
    prev, cur = 0, 1  # He_(k-1)(x), He_k(x) at k = 0
    for k in range(m):
        prev, cur = cur, x * cur - k * prev
    return cur - m * prev


MAX_FOREST_VERTICES = 2000  # forest_counts(2000) takes about 1.7 s; cost grows like n^2.9


@lru_cache(maxsize=8)
def forest_counts(n: int) -> ForestCountTable:
    """Big-integer tables t_k = k^(k-2) and the forest counts f_0..f_n.

    Each f_m comes from the Hermite recurrence in `_forest_count`, m steps
    in integers; `component_cumweights` checks it against the recurrence
    f_m = sum_k C(m-1,k-1) t_k f_(m-k) at every m the sampler visits.  n
    above MAX_FOREST_VERTICES is rejected up front.
    """
    if not 0 <= n <= MAX_FOREST_VERTICES:
        raise ValueError(f"n={n} outside 0..{MAX_FOREST_VERTICES} for uniform forests")
    t = [0] * (n + 1)
    for k in range(1, n + 1):
        t[k] = 1 if k == 1 else k ** (k - 2)
    f = [_forest_count(m) for m in range(n + 1)]
    return ForestCountTable(tuple(t), tuple(f))


def sample_uniform_forest(n: int, rng: np.random.Generator) -> Graph:
    """Uniform labelled forest on n vertices.

    Peels off the component containing the smallest unused label, whose size k
    has probability C(m-1,k-1) t_k f_{m-k} / f_m among m remaining labels; the
    component itself is then a uniform tree on its label set.  The counts
    come from the `forest_counts` cache, built on the first call for n.
    The forest carries its partition: each anchor is the smallest label of
    its component.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = forest_counts(n)
    available = np.arange(n)
    parts = [np.empty((0, 2), dtype=np.int64)]
    smallest = np.arange(n)  # an isolated vertex is its own anchor
    count = 0
    while available.size:
        count += 1
        m = available.size
        cums = table.component_cumweights(m)
        r = _randbelow(rng, table.f[m])
        k = m - bisect_right(cums, r)
        if k == 1:
            available = available[1:]
        else:
            taken = np.zeros(m, dtype=bool)
            taken[0] = True  # the anchor, then k-1 distinct others
            taken[rng.choice(m - 1, size=k - 1, replace=False) + 1] = True
            members = available[taken]
            available = available[~taken]
            smallest[members] = members[0]
            parts.append(members[_prufer_edges(rng.integers(0, k, size=k - 2))])
    return _with_components(Graph.from_edges(n, np.concatenate(parts)), smallest, count)


def _pairs_from_indices(idx: np.ndarray, n: int, total: int) -> np.ndarray:
    """Invert the row-major upper-triangle enumeration of pairs (i < j):
    the (m, 2) array of pairs with the given indices."""
    rev = total - 1 - idx  # pair (i, j) counted from the end lies in row n - 2 - t
    # truncation is the floor: the root is non-negative
    t = ((np.sqrt(8 * rev + 1) - 1) * 0.5).astype(np.int64)
    t -= (t * (t + 1) >> 1) > rev  # a float sqrt below 2^53 is at most one off
    t += ((t + 1) * (t + 2) >> 1) <= rev
    i = n - 2 - t
    j = idx - (i * (2 * n - i - 1) >> 1) + i + 1
    return np.stack((i, j), axis=1)


def _distinct_indices(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    """k distinct pair indices in [0, total), sorted: draws of the missing
    count, repeated until none is missing."""
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < k:
        # the sorted union; np.union1d gives the same but hashes first, 15x slower
        merged = np.sort(np.concatenate((picked, rng.integers(0, total, size=k - len(picked)))))
        picked = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    return picked


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi G(n,p): each of the C(n,2) edges present independently.

    Draws the edge count m, then m distinct pair indices by rejection; for
    m > C(n,2)/2 it draws the absent pairs instead and masks them out of all
    C(n,2) pair indices, so dense p at large n costs O(n^2) time and memory.
    An m above MAX_EDGES is rejected before any pair index is drawn.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_vertex_limit(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    total = n * (n - 1) // 2
    m = int(rng.binomial(total, p)) if total > 0 else 0
    check_edge_limit(m)
    if m <= total // 2:
        chosen = _distinct_indices(rng, total, m)
    else:
        present = np.ones(total, dtype=bool)
        present[_distinct_indices(rng, total, total - m)] = False
        chosen = np.flatnonzero(present)
    return Graph.from_edges(n, _pairs_from_indices(chosen, n, total))
