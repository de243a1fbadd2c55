"""Command-line interface: `mdim <subcommand>`."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def _read_graph(path: str):
    from .graph import parse_graph

    with open(path) as fh:
        return parse_graph(fh.read())


def _print_witness(res) -> None:
    print(json.dumps({"beta": res.beta, "witness": list(res.witness)}))


def cmd_exact(args) -> int:
    from .metric_dimension import forest_beta

    _print_witness(forest_beta(_read_graph(args.graph)))
    return 0


def cmd_brute(args) -> int:
    from .graph import parse_graph, parse_header
    from .metric_dimension import BRUTE_CAP, brute_force_beta, check_brute_size

    cap = BRUTE_CAP if args.cap is None else args.cap
    with open(args.graph) as fh:
        text = fh.read()
    check_brute_size(parse_header(text)[0], cap)  # before parse_graph allocates CSR arrays
    _print_witness(brute_force_beta(parse_graph(text), size_cap=cap))
    return 0


def _emit_graph(g) -> None:
    from .graph import serialize_graph

    sys.stdout.write(serialize_graph(g))


def cmd_sample_tree(args) -> int:
    from .generators import SeededRng, sample_uniform_tree

    rng = SeededRng(args.seed, args.stream).generator()
    _emit_graph(sample_uniform_tree(args.n, rng))
    return 0


def cmd_sample_forest(args) -> int:
    from .generators import SeededRng, sample_uniform_forest

    rng = SeededRng(args.seed, args.stream).generator()
    _emit_graph(sample_uniform_forest(args.n, rng))
    return 0


def cmd_sample_gnp(args) -> int:
    from .generators import SeededRng, sample_gnp

    if args.c is not None and args.n == 0:
        raise ValueError("--c needs --n >= 1 (p = c/n)")
    p = args.p if args.p is not None else args.c / args.n
    rng = SeededRng(args.seed, args.stream).generator()
    _emit_graph(sample_gnp(args.n, p, rng))
    return 0


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_series(args) -> int:
    from .series import series_system

    sys_ = series_system(args.order, at_y=args.at_y)
    series = getattr(sys_, args.which)
    key = (lambda b: f"y^{b}") if args.at_y else (lambda k: f"u^{k[0]} v^{k[1]}")
    doc = {"which": args.which, "order": args.order, "coefficients": {}}
    for n in range(args.order + 1):
        terms = {key(k): _frac(c) for k, c in sorted(series.coefficient(n).items())}
        if terms:
            doc["coefficients"][str(n)] = terms
    print(json.dumps(doc, indent=2))
    return 0


def cmd_dist(args) -> int:
    from .series import beta_distribution, series_system

    if args.n < 1:
        raise ValueError(f"n={args.n} must be >= 1")
    sys_ = series_system(args.n, at_y=True)
    series = sys_.T if args.model == "tree" else sys_.G
    dist = beta_distribution(series, args.n)
    doc = {
        "model": args.model,
        "n": args.n,
        "pmf": {str(b): _frac(p) for b, p in dist.pmf.items()},
        "mean": _frac(dist.mean()),
        "variance": _frac(dist.variance()),
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_constants(args) -> int:
    from dataclasses import asdict

    from .asymptotics import tree_constants

    print(json.dumps(asdict(tree_constants()), indent=2))
    return 0


def cmd_c_curve(args) -> int:
    from .asymptotics import c_curve

    table = c_curve(args.min, args.max, args.step)
    print("c,C")
    for c, C in table:
        print(f"{c:.6g},{C!r}")
    return 0


def cmd_mc(args) -> int:
    from .experiments import ExperimentConfig, check_tolerances, emit, run_experiment

    cfg = ExperimentConfig(
        model=args.model,
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
        c=args.c,
        p_exponent=args.p_exponent,
        output=args.out,
        format=args.format,
    )
    result = run_experiment(cfg)
    text = emit(result)
    if not args.out:
        sys.stdout.write(text)
    if args.assert_tolerances:
        failures = check_tolerances(result)
        if failures:
            for f in failures:
                print(f"TOLERANCE BREACH: {f}", file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="metric dimension of a forest (linear time)")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("brute", help="metric dimension by exhaustive search")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=int)  # default BRUTE_CAP, read in cmd_brute: parsing loads no numpy
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("sample-tree", help="uniform random labelled tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample_tree)

    p = sub.add_parser("sample-forest", help="uniform random labelled forest")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample_forest)

    p = sub.add_parser("sample-gnp", help="Erdos-Renyi G(n,p); --c means p=c/n")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--c", type=float)
    g.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample_gnp)

    p = sub.add_parser("series", help="exact series coefficients as rationals")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--which", choices=["P", "U", "V", "S", "T", "G"], default="T")
    p.add_argument("--at-y", action="store_true", dest="at_y")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("dist", help="exact distribution of the metric dimension")
    p.add_argument("--model", choices=["tree", "forest"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("constants", help="limiting constants of the uniform model")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("c-curve", help="CSV table of the G(n,p) mean constant")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=0.99)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(func=cmd_c_curve)

    p = sub.add_parser("mc", help="Monte Carlo experiment")
    p.add_argument("--model", choices=["uniform-tree", "uniform-forest", "gnp"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--c", type=float)
    p.add_argument("--p-exponent", type=float, dest="p_exponent")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--assert", action="store_true", dest="assert_tolerances")
    p.set_defaults(func=cmd_mc)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"mdim: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("mdim: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
