"""Command-line interface: `mdim <subcommand>`."""

from __future__ import annotations

import argparse
import json
import sys


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


def cmd_sample_uniform(args) -> int:
    """`sample-tree` and `sample-forest`: the uniform sampler the command names."""
    from .generators import SeededRng, sample_uniform_forest, sample_uniform_tree

    sample = sample_uniform_tree if args.command == "sample-tree" else sample_uniform_forest
    rng = SeededRng(args.seed, args.stream).generator()
    _emit_graph(sample(args.n, rng))
    return 0


def cmd_sample_gnp(args) -> int:
    from .generators import SeededRng, sample_gnp

    if args.c is not None and args.n == 0:
        raise ValueError("--c needs --n >= 1 (p = c/n)")
    p = args.p if args.p is not None else args.c / args.n
    rng = SeededRng(args.seed, args.stream).generator()
    _emit_graph(sample_gnp(args.n, p, rng))
    return 0


def _frac(x) -> str:
    """A Fraction as "p/q", or "p" when it is whole."""
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


def _graph_args(p) -> None:
    p.add_argument("--graph", required=True)


def _brute_args(p) -> None:
    _graph_args(p)
    p.add_argument("--cap", type=int)  # default BRUTE_CAP, read in cmd_brute: parsing loads no numpy


def _seed_args(p) -> None:
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--stream", type=int, default=0)


def _sample_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    _seed_args(p)


def _gnp_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--c", type=float)
    g.add_argument("--p", type=float)
    _seed_args(p)


def _series_args(p) -> None:
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--which", choices=["P", "U", "V", "S", "T", "G"], default="T")
    p.add_argument("--at-y", action="store_true", dest="at_y")


def _dist_args(p) -> None:
    p.add_argument("--model", choices=["tree", "forest"], required=True)
    p.add_argument("--n", type=int, required=True)


def _no_args(p) -> None:
    pass


def _c_curve_args(p) -> None:
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=0.99)
    p.add_argument("--step", type=float, default=0.01)


def _mc_args(p) -> None:
    p.add_argument("--model", choices=["uniform-tree", "uniform-forest", "gnp"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--c", type=float)
    p.add_argument("--p-exponent", type=float, dest="p_exponent")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--assert", action="store_true", dest="assert_tolerances")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `mdim` parser. When `command` names a subcommand, only that
    subparser is built; otherwise all of them, for the top-level help and
    errors."""
    # each subcommand once: name, help line, argument adder, handler; built
    # on each call, so a handler replaced on the module is the one used
    table = (
        ("exact", "metric dimension of a forest (linear time)", _graph_args, cmd_exact),
        ("brute", "metric dimension by exhaustive search", _brute_args, cmd_brute),
        ("sample-tree", "uniform random labelled tree", _sample_args, cmd_sample_uniform),
        ("sample-forest", "uniform random labelled forest", _sample_args, cmd_sample_uniform),
        ("sample-gnp", "Erdos-Renyi G(n,p); --c means p=c/n", _gnp_args, cmd_sample_gnp),
        ("series", "exact series coefficients as rationals", _series_args, cmd_series),
        ("dist", "exact distribution of the metric dimension", _dist_args, cmd_dist),
        ("constants", "limiting constants of the uniform model", _no_args, cmd_constants),
        ("c-curve", "CSV table of the G(n,p) mean constant", _c_curve_args, cmd_c_curve),
        ("mc", "Monte Carlo experiment", _mc_args, cmd_mc),
    )
    chosen = [row for row in table if row[0] == command] or table
    # one subparser alone still names them all in the top-level usage line
    metavar = "{" + ",".join(row[0] for row in table) + "}" if len(chosen) == 1 else None
    ap = argparse.ArgumentParser(prog="mdim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_, add_args, func in chosen:
        p = sub.add_parser(name, help=help_)
        add_args(p)
        p.set_defaults(func=func)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
