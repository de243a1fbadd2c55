"""Correctness gates on what `mdim` commands print.

Each gate reads what `mdim` commands print and returns a list of failures (empty
means the output passed). The gates use only the standard library, so they
check the program without trusting any of its code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import factorial


# The constant each model's mean/n converges to (see experiments.predicted_constants).
MEAN_CONSTANTS = ("predicted_mu", "predicted_C", "predicted_beta_over_n")


def check_mc(text: str, mean_rtol: float) -> list[str]:
    """`mdim mc --format json`: mean/n within `mean_rtol` of the prediction.

    KS and skewness are recorded by `mc_summary` but not gated: their bounds
    assume about 500 or more replicates.
    """
    summary = json.loads(text)["summary"]
    if "mean_over_n" not in summary:
        return ["all replicates excluded"]
    predicted = [summary[k] for k in MEAN_CONSTANTS if k in summary]
    if len(predicted) != 1:
        return [f"expected one of {MEAN_CONSTANTS}, found {len(predicted)}"]
    want, got = predicted[0], summary["mean_over_n"]
    err = abs(got - want) / abs(want)
    if err > mean_rtol:
        return [f"mean/n {got:.6g} vs {want:.6g}: relative error {err:.4f} > {mean_rtol}"]
    return []


def mc_summary(text: str) -> dict:
    """The figures of an `mdim mc` run that the benchmark reports."""
    doc = json.loads(text)
    keys = ("replicates", "included", "excluded", "mean_over_n", "ks_statistic", "skewness")
    out = {k: doc["summary"][k] for k in keys if k in doc["summary"]}
    out["betas"] = doc["betas"]
    return out


def _tree_beta(adj: list[list[int]], comp: list[int]) -> int:
    """Slater: 1 for a path, otherwise leaves minus exterior major vertices
    (degree >= 3 with a bare path to some leaf), found by walking out of
    each major vertex."""
    majors = [v for v in comp if len(adj[v]) >= 3]
    if not majors:
        return 1
    leaves = sum(len(adj[v]) == 1 for v in comp)
    exterior = 0
    for v in majors:
        for w in adj[v]:
            prev = v
            while len(adj[w]) == 2:
                prev, w = w, adj[w][0] if adj[w][0] != prev else adj[w][1]
            if len(adj[w]) == 1:
                exterior += 1
                break
    return leaves - exterior


def _brute_beta(adj: list[list[int]], comp: list[int]) -> int:
    """Smallest landmark set giving every vertex of a connected graph its own
    distance vector."""
    dist = {}
    for s in comp:
        d, frontier = {s: 0}, [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in d:
                        d[w] = d[u] + 1
                        nxt.append(w)
            frontier = nxt
        dist[s] = d
    for k in range(1, len(comp) + 1):
        for marks in combinations(comp, k):
            if len({tuple(dist[m][v] for m in marks) for v in comp}) == len(comp):
                return k
    raise AssertionError("the full vertex set always resolves")


def graph_beta(text: str, cap: int = 12) -> int | None:
    """Metric dimension of the graph printed by `mdim sample-*`, computed from
    scratch with the program's conventions: per-component values summed, an
    isolated vertex counting 1 except that one rides free beside other
    components. None when a non-tree component has more than `cap` vertices,
    which the program excludes."""
    lines = text.splitlines()
    n, m = map(int, lines[0].split())
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[1 : m + 1]:
        u, v = map(int, line.split())
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    total, components, isolated = 0, 0, False
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        components += 1
        edges = sum(len(adj[v]) for v in comp) // 2
        if len(comp) == 1:
            isolated = True
            total += 1
        elif edges == len(comp) - 1:
            total += _tree_beta(adj, comp)
        elif len(comp) > cap:
            return None
        else:
            total += _brute_beta(adj, comp)
    return total - (isolated and components >= 2)


def check_betas(text: str, graphs: dict[int, str]) -> list[str]:
    """`mdim mc --format json`: the beta of each replicate in `graphs`
    (replicate -> its graph from `mdim sample-*`) equals `graph_beta`."""
    betas = json.loads(text)["betas"]
    failures = []
    for i, graph in graphs.items():
        want = graph_beta(graph)
        if betas[i] != want:
            failures.append(f"replicate {i}: beta {betas[i]}, recomputed {want}")
    return failures


def check_series(text: str) -> list[str]:
    """`mdim series --which T`: sum_b [x^n] T * n! = n^(n-2) for 1 <= n <= order (Cayley)."""
    doc = json.loads(text)
    if doc.get("which") != "T":
        return [f"gate covers --which T only, got {doc.get('which')!r}"]
    coeffs = doc["coefficients"]
    failures = []
    for n in range(1, doc["order"] + 1):
        total = sum(Fraction(v) for v in coeffs.get(str(n), {}).values()) * factorial(n)
        want = 1 if n == 1 else n ** (n - 2)
        if total != want:
            failures.append(f"n={n}: coefficients sum to {total}/n!, Cayley gives {want}")
    return failures


def check_dist(text: str) -> list[str]:
    """`mdim dist`: the pmf is positive and sums to 1; mean and variance match it."""
    doc = json.loads(text)
    pmf = {int(b): Fraction(p) for b, p in doc["pmf"].items()}
    failures = []
    if any(p <= 0 for p in pmf.values()):
        failures.append("pmf has a non-positive entry")
    if sum(pmf.values()) != 1:
        failures.append(f"pmf sums to {sum(pmf.values())}")
    mean = sum(b * p for b, p in pmf.items())
    variance = sum(p * (b - mean) ** 2 for b, p in pmf.items())
    if Fraction(doc["mean"]) != mean:
        failures.append(f"printed mean {doc['mean']} != pmf mean {mean}")
    if Fraction(doc["variance"]) != variance:
        failures.append(f"printed variance {doc['variance']} != pmf variance {variance}")
    return failures


def check_output(argv: list[str], text: str, mean_rtol: float | None) -> list[str]:
    if argv[0] == "mc":
        return check_mc(text, mean_rtol)
    if argv[0] == "series":
        return check_series(text)
    if argv[0] == "dist":
        return check_dist(text)
    return [f"no gate for command {argv[0]!r}"]


def check_traced(untraced: list[str], traced: list[str]) -> list[str]:
    """The traced run must print exactly what the untraced run printed."""
    failures = []
    for k, (a, b) in enumerate(zip(untraced, traced, strict=True)):
        if a == b:
            continue
        da, db = json.loads(a), json.loads(b)
        part = "betas" if "betas" in da else "coefficients" if "coefficients" in da else "pmf"
        same = da.get(part) == db.get(part)
        failures.append(f"command {k}: traced output differs ({part} {'equal' if same else 'differ'})")
    return failures
