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

from .graph import Graph, _with_components, check_blocks, check_edge_limit, check_vertex_limit


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


# Rounds of the fixed point in `_prufer_edges`, counting the final check: at
# most 5 were seen on random sequences up to n = 10^6, and about log2(n) + 1
# on the descending sequence n-1, ..., 2: 20 at n = 10^6 (MAX_VERTICES).
PRUFER_MAX_ROUNDS = 64


def _prufer_edges(seqs: np.ndarray, sizes) -> np.ndarray:
    """Decode the Pruefer sequences of several labelled trees, concatenated in
    `seqs`: tree j has sizes[j] >= 2 vertices and sizes[j] - 2 entries, each
    in 0..sizes[j]-1.  Returns the (sum(sizes) - len(sizes), 2) int64 edges of
    their disjoint union: tree j's labels are shifted by the sizes before it,
    and its rows follow theirs.  In each tree, row t joins the leaf removed
    at step t to entry t, and the last row joins the last leaf to the tree's
    top label, sizes[j] - 1.

    All trees are decoded by one fixed point over last occurrences, in array
    passes (Greenlaw & Petreschi, Discrete Appl. Math. 2000).  In one tree,
    let r(v) be the last step at which v is an entry.  A chain vertex leaves
    at step r(v) + 1, as soon as it is a leaf; the other vertices below the
    top, the pool, take the remaining steps in increasing order.  Steps
    0..r(v) leave r(v) + 1 - #{chain w : r(w) < r(v)} steps to the pool, and
    v - #{chain w : w < v} pool vertices lie below v.  So v is a chain vertex
    when r(v) >= 0, v is not the top, and its slack r(v) + 1 - v exceeds
    #{chain w : r(w) < r(v)} - #{chain w : w < v}: every pool vertex below v
    has left before v becomes a leaf.  With global steps t and labels v, tree
    j's slack is t + 1 - v + 2j; the chain vertices of earlier trees count on
    both sides of the test and those of later trees on neither, so the trees
    do not interact.  The test is iterated from the set with slack > 0 until
    the chain set stops changing.

    Any fixed point is the true decode, in which each step removes the
    smallest leaf.  A chain vertex leaves at the step after its last
    occurrence, when it is a leaf and every pool vertex below it has gone; a
    smaller chain vertex is by then gone or not yet a leaf.  A pool vertex
    fails the test, so it leaves after its last occurrence; smaller pool
    vertices left before it, and a smaller chain vertex that is a leaf left at
    the step after its last occurrence, which is not a pool step.

    Termination is not proved: past PRUFER_MAX_ROUNDS rounds an
    AssertionError is raised.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    trees = sizes.size
    ends = sizes.cumsum()
    total = int(ends[-1]) if trees else 0
    tops = ends - 1
    tree_of = np.repeat(np.arange(trees), sizes - 2)  # the tree of each entry
    entries = seqs + (ends - sizes)[tree_of]
    steps = np.arange(entries.size)
    last = np.zeros(total, dtype=np.int64) - 1
    np.maximum.at(last, entries, steps)
    last[tops] = -1
    cand = (last[entries] == steps).nonzero()[0]  # the candidates' last steps, in order
    v = entries[cand]
    slack = cand + 1 - v + 2 * tree_of[cand]
    chain = slack > 0
    marks = np.zeros(total + 1, dtype=np.int64)
    for _ in range(PRUFER_MAX_ROUNDS):
        marks[v + 1] = chain
        below = marks.cumsum()[v]  # chain vertices with smaller labels
        before = chain.cumsum() - chain  # chain vertices whose last step is earlier
        settled = slack > before - below
        if not (settled != chain).any():
            break
        chain = settled
    else:
        raise AssertionError(f"Pruefer decode did not settle in {PRUFER_MAX_ROUNDS} rounds")
    edges = np.empty((total - trees, 2), dtype=np.int64)
    left = v[chain]
    slots = cand[chain] + tree_of[cand[chain]] + 1
    edges[slots, 0] = left
    taken = np.zeros(total - trees, dtype=bool)
    taken[slots] = True
    pool = np.zeros(total, dtype=bool)
    pool[left] = True
    pool[tops] = True
    edges[~taken, 0] = (~pool).nonzero()[0]
    edges[steps + tree_of, 1] = entries
    edges[tops - 1 - np.arange(trees), 1] = tops  # each tree's last row
    return edges


def _graphs(n: int, labels: np.ndarray, seqs, smallest: np.ndarray, count: int) -> Graph:
    """The disjoint union of graphs on n vertices each, graph i on the block
    of labels i*n..(i+1)*n-1, whose non-trivial components have these
    Pruefer sequences and label sets (`labels`, concatenated component by
    component).  One `_prufer_edges` call decodes every component and one
    `Graph.from_edges` builds the union, which carries the partition
    (smallest, count) handed over; `check_blocks` then asserts that no edge
    leaves its block, the range check a graph of its own would make."""
    sizes = [len(seq) + 2 for seq in seqs]
    edges = labels[_prufer_edges(np.concatenate([np.empty(0, dtype=np.int64), *seqs]), sizes)]
    union = Graph.from_edges(len(smallest), edges)
    check_blocks(union, n)
    return _with_components(union, smallest, count)


def sample_uniform_trees(n: int, rngs: Sequence[np.random.Generator]) -> Graph:
    """Uniform labelled trees on n vertices, one per generator (a single
    vertex for n = 1), as their disjoint union: tree i on the block of labels
    i*n..(i+1)*n-1.  Each generator draws its tree's Pruefer sequence in
    turn, and one `_prufer_edges` call decodes them all."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_vertex_limit(n)
    total = n * len(rngs)
    seqs = [rng.integers(0, n, size=n - 2) for rng in rngs if n > 1]
    return _graphs(n, np.arange(total), seqs, np.arange(0, total, n).repeat(n), len(rngs))


def sample_uniform_tree(n: int, rng: np.random.Generator) -> Graph:
    """Uniform labelled tree on n vertices (single vertex for n=1)."""
    return sample_uniform_trees(n, [rng])


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


def check_forest_limit(n: int) -> None:
    """Reject n outside 0..MAX_FOREST_VERTICES, before the caller builds the
    count table or any output."""
    if not 0 <= n <= MAX_FOREST_VERTICES:
        raise ValueError(f"n={n} outside 0..{MAX_FOREST_VERTICES} for uniform forests")


@lru_cache(maxsize=8)
def forest_counts(n: int) -> ForestCountTable:
    """Big-integer tables t_k = k^(k-2) and the forest counts f_0..f_n.

    Each f_m comes from the Hermite recurrence in `_forest_count`, m steps
    in integers; `component_cumweights` checks it against the recurrence
    f_m = sum_k C(m-1,k-1) t_k f_(m-k) at every m the sampler visits.  n
    above MAX_FOREST_VERTICES is rejected up front.
    """
    check_forest_limit(n)
    t = [0] * (n + 1)
    for k in range(1, n + 1):
        t[k] = 1 if k == 1 else k ** (k - 2)
    f = [_forest_count(m) for m in range(n + 1)]
    return ForestCountTable(tuple(t), tuple(f))


def sample_uniform_forests(n: int, rngs: Sequence[np.random.Generator]) -> Graph:
    """Uniform labelled forests on n vertices, one per generator, as their
    disjoint union: forest i on the block of labels i*n..(i+1)*n-1.

    Each forest peels off the component containing the smallest unused label,
    whose size k has probability C(m-1,k-1) t_k f_{m-k} / f_m among m
    remaining labels; the component itself is then a uniform tree on its
    label set, drawn as its Pruefer sequence.  Each generator makes all of
    its forest's draws in turn, straight into its block's labels, and one
    `_prufer_edges` call then decodes every component of the batch.  The
    counts come from the `forest_counts` cache, built on the first call for
    n.  The union carries its partition: each anchor is the smallest label
    of its component.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = forest_counts(n)
    labels = [np.empty(0, dtype=np.int64)]  # each tree's labels, tree by tree; np.concatenate needs one array
    seqs = []
    smallest = np.arange(n * len(rngs))  # an isolated vertex is its own anchor
    count = 0
    for start in range(0, smallest.size, n):
        rng = rngs[start // n]
        available = np.arange(start, start + n)
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
                labels.append(members)
                seqs.append(rng.integers(0, k, size=k - 2))
    return _graphs(n, np.concatenate(labels), seqs, smallest, count)


def sample_uniform_forest(n: int, rng: np.random.Generator) -> Graph:
    """Uniform labelled forest on n vertices (`sample_uniform_forests`)."""
    return sample_uniform_forests(n, [rng])


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
