"""The mdim benchmark: `mdim` commands as users run them, one at a time.

Usage:
    python3 bench/run.py --workload {mc-uniform,mc-gnp,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
Each operation runs in a fresh interpreter (`child.py`) with MDIM_WORKERS=1,
one after another (a closed loop with one client), so process caches start
cold as on every `mdim` call. A workload alternates its two operations until
`--seconds` have passed, and runs each at least once. Operation k of a run
draws its `mdim mc --seed` from `random.Random(--seed)`; the exact commands
take no seed, so their outputs must be the same on every run.

--trace 0 reports the end-to-end metrics, measured with tracing off. A rate
is results (beta values for `mc`, commands otherwise) over the summed time of
the operations; it and set-up time are scaled by the host's speed, measured
by `child.calibrate()` before the child imports mdim and after the operation,
because the shared host drifts by tens of percent within seconds.
--trace 1 runs every operation twice, untraced and then with spans around
the calls into each layer (`child.py`), and reports the per-layer split and
the tracing overhead; the traced run must print exactly what the untraced
one printed.

Every output passes the gates in `gates.py`; for a few replicates of each
`mc` command they recompute beta from the graph `mdim sample-*` prints. The report, then one JSON line
{"correct", "attempted", "failed", "metrics"} go to stdout; everything else
(provenance, per-operation records and output hashes, exclusion diagnostics,
spans) goes to bench/results/<workload>-trace<t>.json. The exit code is 0
only when every output is correct; 2 when mdim cannot be imported from the
checkout, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

from child import SETUP_FAILED
from gates import check_betas, check_output, check_traced, mc_summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 100
# Rates and set-up times are scaled to a host on which the two runs of
# child.calibrate() around an operation take this long (an unloaded 2-core
# x86-64 host). The unscaled figures are kept in the full record.
CALIBRATION_REF_S = 0.23
# An operation slows by about this power of the calibration loop's slowdown.
# The least-squares slope of log rate on log calibration time was 0.66-0.95
# over the operations and set-up of the three workloads on a loaded 2-core
# host; it reads below 1 partly because two short calibrations sample the
# load during a multi-second operation with error.
LOAD_EXPONENT = 0.8
# Replicates per `mdim mc` command whose beta gates.graph_beta recomputes.
BETA_CHECKS = 5


@dataclass(frozen=True)
class Op:
    name: str
    reported_as: str  # the figure this operation stands for in the report
    commands: tuple[tuple[str, ...], ...]

    def argv(self, seed: int) -> list[list[str]]:
        return [list(c) + (["--seed", str(seed)] if c[0] == "mc" else []) for c in self.commands]


@dataclass(frozen=True)
class Workload:
    modules: tuple[str, ...]  # imported before the first command, timed as set-up
    ops: tuple[Op, ...]


def _mc(*args: str) -> tuple[str, ...]:
    return ("mc", *args, "--format", "json")


# Each operation runs for one to four seconds on an unloaded 2-core x86-64 machine:
# long enough to average over many replicates, short enough that a 40 s run
# holds several of each.
WORKLOADS = {
    # Sampling and the tree solver do nearly all the work.
    "mc-uniform": Workload(
        ("mdim.cli", "mdim.experiments"),
        (
            Op("op1", "tree_betas_per_s", (_mc("--model", "uniform-tree", "--n", "1000", "--replicates", "800"),)),
            Op("op2", "forest_betas_per_s", (_mc("--model", "uniform-forest", "--n", "500", "--replicates", "500"),)),
        ),
    ),
    # Component decomposition and the solver dominate; near-critical
    # replicates add brute force and exclusions.
    "mc-gnp": Workload(
        ("mdim.cli", "mdim.experiments"),
        (
            Op("op1", "gnp_sparse_betas_per_s", (_mc("--model", "gnp", "--c", "0.5", "--n", "10000", "--replicates", "30"),)),
            Op("op2", "gnp_critical_betas_per_s", (_mc("--model", "gnp", "--c", "0.9", "--n", "4000", "--replicates", "100"),)),
        ),
    ),
    # The series ring does all the work: bivariate coefficients rendered in
    # full, then y-specialised coefficients read by two dist commands that
    # share one cold system.
    "exact": Workload(
        ("mdim.cli", "mdim.series"),
        (
            Op("op1", "series_uv_s", (("series", "--order", "45", "--which", "T"),)),
            Op("op2", "dist_s", (("dist", "--model", "tree", "--n", "50"), ("dist", "--model", "forest", "--n", "50"))),
        ),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "op1_results_per_s": "1/s",
    "op2_results_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced run: span self times, counts, ratios.
SPAN_TIMES = (
    "generators.rng",
    "generators.sample_tree",
    "generators.sample_forest",
    "generators.sample_gnp",
    "generators.forest_counts",
    "graph.components",
    "metric_dimension.solve",
    "metric_dimension.brute",
    "series.system",
    "series.pmf",
    "asymptotics.constants",
    "experiments.summary",
    "experiments.emit",
)
COUNTS = {
    "generators.forest_counts_bits": "bits",
    "generators.edges": "count",
    "graph.kind.isolated": "count",
    "graph.kind.path": "count",
    "graph.kind.tree": "count",
    "graph.kind.non_tree": "count",
    "graph.oversize.cyclomatic1": "count",
    "graph.oversize.cyclomatic2plus": "count",
    "metric_dimension.brute_calls": "count",
    "metric_dimension.excluded": "count",
    "series.terms": "count",
    "series.coeff_bits_max": "bits",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    **COUNTS,
    "series.render_s": "s",
    "metric_dimension.solve_over_components": "ratio",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.useful_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def beta_checks(argv: list[str], seed: int) -> list[tuple[int, list[str]]]:
    """A few replicates of an `mdim mc` command, each with the `mdim sample-*`
    command that prints its graph (replicate i uses RNG stream i)."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    model = opts["--model"]
    base = ["sample-" + model.removeprefix("uniform-"), "--n", opts["--n"], "--seed", opts["--seed"]]
    if model == "gnp":
        base += ["--c", opts["--c"]]
    replicates = int(opts["--replicates"])
    picks = random.Random(seed).sample(range(replicates), min(BETA_CHECKS, replicates))
    return [(i, base + ["--stream", str(i)]) for i in sorted(picks)]


class SetupError(RuntimeError):
    """mdim cannot be imported from the checkout."""


class ChildFailed(RuntimeError):
    pass


def spawn(modules, commands, trace: bool, extra=()) -> dict:
    """Run one operation in a fresh interpreter, then the untimed `extra`
    commands; return its result object with its host slowdown."""
    spec = json.dumps(
        {"root": ROOT, "modules": list(modules), "commands": commands, "extra": list(extra), "trace": trace}
    )
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in path if p),
        MDIM_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    # time.monotonic is CLOCK_MONOTONIC, shared with the child, which
    # reports when its imports finished.
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"operation exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == SETUP_FAILED:
        raise SetupError("mdim cannot be imported from the checkout's src/")
    if proc.returncode != 0:
        raise ChildFailed(f"operation exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result.pop("ready_monotonic") - spawned - result["calibration_s"][0]
    result["host_slowdown"] = (sum(result["calibration_s"]) / CALIBRATION_REF_S) ** LOAD_EXPONENT
    return result


def layer_values(traced: dict) -> dict[str, float]:
    self_s, counters = traced["self_s"], traced["counters"]
    values = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_TIMES}
    values.update({k: counters.get(k, 0) for k in (*COUNTS, "replicates.attempted", "replicates.included")})
    # What a command's root span keeps for itself is the CLI's rendering for
    # series and dist, and argument handling for mc.
    values["series.render_s"] = self_s.get("cli.series", 0.0) + self_s.get("cli.dist", 0.0)
    values["experiments.run_s"] = traced["blocking_s"].get("experiments.run", 0.0)
    values["experiments.self_s"] = self_s.get("experiments.run", 0.0)
    values["cli.self_s"] = self_s.get("cli.mc", 0.0) + self_s.get("cli.parse", 0.0)
    values["trace.overhead_s"] = traced["overhead_s"]
    return values


def run_op(workload: Workload, op: Op, seed: int, trace: bool) -> dict:
    """One operation: the untraced commands and their gates, and, when
    tracing, the traced commands and their comparison with the untraced."""
    commands = op.argv(seed)
    rec = {"op": op.name, "seed": seed, "commands": commands, "failures": []}
    checks = [beta_checks(argv, seed) if argv[0] == "mc" else [] for argv in commands]
    try:
        plain = spawn(workload.modules, commands, trace=False, extra=[a for c in checks for _, a in c])
    except ChildFailed as exc:
        rec["failures"].append(str(exc))
        rec["failed"] = len(commands)
        return rec
    rec.update(
        setup_s=plain["setup_s"],
        wall_s=sum(plain["walls"]),
        rss_mb=plain["rss_mb"],
        calibration_s=plain["calibration_s"],
        host_slowdown=plain["host_slowdown"],
    )
    rec["sha256"] = [hashlib.sha256(t.encode()).hexdigest() for t in plain["outputs"]]
    graphs = iter(plain["extra_outputs"])
    failed, results, mc = 0, 0, []
    for argv, text, check in zip(commands, plain["outputs"], checks):
        sampled = {i: next(graphs) for i, _ in check}
        errs = check_output(argv, text, plain.get("mean_rtol"))
        if sampled and not errs:
            errs = check_betas(text, sampled)
        rec["failures"] += errs
        failed += bool(errs)
        if argv[0] == "mc":
            summary = mc_summary(text)
            mc.append({k: v for k, v in summary.items() if k != "betas"})
            results += summary["included"]
        else:
            results += 1
    rec.update(failed=failed, results=results, mc=mc)
    if trace:
        try:
            traced = spawn(workload.modules, commands, trace=True)
        except ChildFailed as exc:
            rec["failures"].append(f"traced: {exc}")
            rec["failed"] = len(commands)
            return rec
        errs = check_traced(plain["outputs"], traced["outputs"])
        rec["failures"] += errs
        if errs:
            rec["failed"] = len(commands)
        rec["layers"] = layer_values(traced)
        # Scaled blocking time of the traced run against the untraced wall:
        # what tracing overhead and drift left over, reported, not a metric.
        traced_s = sum(traced["walls"]) / traced["host_slowdown"]
        overhead_s = traced["overhead_s"] / traced["host_slowdown"]
        rec["unexplained_s"] = traced_s - overhead_s - rec["wall_s"] / rec["host_slowdown"]
        rec["diagnostics"] = traced["diagnostics"]
        rec["spans"] = traced["spans"]
    return rec


def end_to_end(records: list[dict], ops: tuple[Op, ...]) -> dict[str, dict]:
    """setup_s is the median over operations; a rate is the run's results
    over its operations' summed time, which weighs each by its length."""
    ok = [r for r in records if "wall_s" in r]
    setup = [r["setup_s"] / r["host_slowdown"] for r in ok]
    metrics = {"setup_s": (statistics.median(setup), len(setup))}
    for op in ops:
        runs = [r for r in ok if r["op"] == op.name]
        if not runs:
            raise ValueError(f"{op.name} never completed")
        scaled_s = sum(r["wall_s"] / r["host_slowdown"] for r in runs)
        metrics[f"{op.name}_results_per_s"] = (sum(r["results"] for r in runs) / scaled_s, len(runs))
    metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in ok), len(ok))
    return {k: {"value": v, "unit": END_TO_END[k], "samples": n} for k, (v, n) in metrics.items()}


def per_layer(records: list[dict], ops: tuple[Op, ...]) -> dict[str, dict]:
    """Median of each value over runs of one operation, then summed over the
    workload's operations (largest for *_max): the cost of one pass."""
    total: dict[str, float] = {}
    per_op = [[r["layers"] for r in records if r["op"] == op.name and "layers" in r] for op in ops]
    for runs in per_op:
        for key in runs[0]:
            v = statistics.median(run[key] for run in runs)
            total[key] = max(total.get(key, 0), v) if key.endswith("_max") else total.get(key, 0) + v
    comps = total["graph.components_s"]
    total["metric_dimension.solve_over_components"] = total["metric_dimension.solve_s"] / comps if comps else 0.0
    tried = total.pop("replicates.attempted")
    included = total.pop("replicates.included")
    total["experiments.useful_ratio"] = included / tried if tried else 0.0
    samples = min(len(runs) for runs in per_op)
    return {k: {"value": total[k], "unit": u, "samples": samples} for k, u in PER_LAYER.items()}


def determinism_failures(records: list[dict], ops: tuple[Op, ...]) -> list[str]:
    """Seedless commands must print the same bytes on every run."""
    out = []
    for op in ops:
        if any(c[0] == "mc" for c in op.commands):
            continue
        hashes = {tuple(r["sha256"]) for r in records if r["op"] == op.name and "sha256" in r}
        if len(hashes) > 1:
            out.append(f"{op.name}: outputs differ between runs")
    return out


def provenance(seed: int) -> dict:
    def git(*args: str) -> str | None:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "MDIM_WORKERS": "1",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops: tuple[Op, ...] | None = None) -> dict:
    workload = WORKLOADS[name]
    ops = ops or workload.ops
    draw = random.Random(seed)
    records: list[dict] = []
    start = time.monotonic()

    def done() -> bool:
        ran = {r["op"] for r in records}
        return time.monotonic() - start >= seconds and all(op.name in ran for op in ops)

    while not done():
        for op in ops:
            if done():
                break
            records.append(run_op(workload, op, draw.randrange(1, 2**31), trace))
    failures = [f"{r['op']} seed {r['seed']}: {f}" for r in records for f in r["failures"]]
    failures += determinism_failures(records, ops)
    attempted = sum(len(r["commands"]) for r in records)
    failed = sum(r["failed"] for r in records)
    try:
        metrics = per_layer(records, ops) if trace else end_to_end(records, ops)
    except (KeyError, IndexError, ValueError) as exc:
        failures.append(f"metrics incomplete: {exc!r}")
        metrics = {}
    return {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "ops": [{"name": op.name, "reported_as": op.reported_as, "commands": op.commands} for op in ops],
        "records": records,
    }


def report(doc: dict) -> list[str]:
    """Human-readable lines: metrics by name and unit with sample counts."""
    lines = [f"mdim benchmark: workload {doc['workload']}, trace {int(doc['trace'])}, {doc['seconds']} s"]
    lines.append("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    lines.append(f"{'metric':42} {'value':>16} {'unit':6} samples")
    for k, m in doc["metrics"].items():
        lines.append(f"{k:42} {m['value']:16.6g} {m['unit']:6} {m['samples']}")
    records = [r for r in doc["records"] if "wall_s" in r]
    for op in doc["ops"]:
        scaled = doc["metrics"].get(f"{op['name']}_results_per_s")
        if scaled:
            runs = [r for r in records if r["op"] == op["name"]]
            raw = sum(r["results"] for r in runs) / sum(r["wall_s"] for r in runs)
            per_s = op["reported_as"].endswith("per_s")
            value, unscaled, unit = (scaled["value"], raw, "1/s") if per_s else (1 / scaled["value"], 1 / raw, "s")
            lines.append(
                f"{op['name']} is {op['reported_as']}: {value:.6g} {unit} scaled to the reference host, "
                f"{unscaled:.6g} {unit} unscaled, over {scaled['samples']} runs"
            )
    tried = sum(m["replicates"] for r in records for m in r["mc"])
    if tried:
        lost = sum(m["excluded"] for r in records for m in r["mc"])
        lost += sum(m["replicates"] - m["excluded"] for r in records if r["failed"] for m in r["mc"])
        lines.append(f"fail_rate (excluded or failed replicates / attempted): {lost / tried:.6g} ({lost}/{tried})")
    else:
        lines.append(f"fail_rate (failed / attempted commands): {doc['failed'] / doc['attempted']:.6g}")
    left = [r["unexplained_s"] / r["wall_s"] for r in records if "unexplained_s" in r]
    if left:
        lines.append(
            f"traced blocking time minus tracing overhead minus untraced wall, scaled: "
            f"median {statistics.median(left):+.2%} of the untraced wall over {len(left)} runs (host drift)"
        )
    excl = [e for r in doc["records"] for runs in r.get("diagnostics", {}).get("exclusions", []) for e in runs]
    if excl:
        by_cyc: dict[int, int] = {}
        for e in excl:
            by_cyc[e["cyclomatic"]] = by_cyc.get(e["cyclomatic"], 0) + 1
        sizes = [e["size"] for e in excl]
        lines.append(f"exclusions by cyclomatic number {dict(sorted(by_cyc.items()))}, sizes {min(sizes)}..{max(sizes)}")
    lines += [f"FAILURE {f}" for f in doc["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mdim", "__init__.py")):
        print(f"bench: no mdim package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print("\n".join(report(doc)))
    print(f"full record: {os.path.relpath(path, ROOT)}")
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in doc["metrics"].items()}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] and not doc["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
