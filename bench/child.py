"""One benchmark operation, run in a fresh interpreter by `run.py`.

Usage: python3 child.py '<json spec>'

The spec names the checkout root, the modules to import before the first
command, the `mdim` commands of the operation (argument lists), untimed
commands to run after them (graphs for the beta gate), and whether to trace.
Every command runs through `mdim.cli.main` with stdout captured, between two
runs of `calibrate()`. Traced, the
public names the CLI looks up in `mdim.cli`, `mdim.experiments` and
`mdim.series` are first wrapped from outside with a span each (`Tracing`), so
the traced run is the program's own code path; its output must equal the
untraced one byte for byte, which `run.py` checks.

The last stdout line is one JSON object. Exit code 3 means mdim could not be
imported from the checkout's `src/`; any other failure exits nonzero through
the traceback.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter, deque
from fractions import Fraction
from time import perf_counter

SETUP_FAILED = 3


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of graph, dict and big-int work.

    The host is shared, and its speed drifts by tens of percent from one
    second to the next. Timed just before and after an operation, this loop
    slows down with it, so `run.py` can scale the operation's rate to a host
    of fixed speed. The collector is off while it runs, so the objects and
    collector settings the program leaves behind do not change its time.
    Small tables keep it from raising the peak RSS.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for _ in range(24):
            n = 6000
            adj: list[list[int]] = [[] for _ in range(n)]
            for v in range(1, n):
                u = (v * 7919) % 10007 % v  # a scattered earlier vertex, so a tree
                adj[u].append(v)
                adj[v].append(u)
            depth = [-1] * n
            depth[0] = 0
            queue = deque([0])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if depth[w] < 0:
                        depth[w] = depth[u] + 1
                        queue.append(w)
            table = {(i * 7919) % 100003: (i, depth[i]) for i in range(n)}
            for _, (a, b) in sorted(table.items()):
                acc ^= a + b
            acc ^= (7**3000 * 11**2500).bit_length()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, probe].

    A probe span holds work the traced run adds to look inside a layer
    (component census, brute-force timing). It is not on the path that
    blocks the result, so it is left out of blocking times.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, probe]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def timed(self, fn, name: str):
        """`fn` with a span named `name` around every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def blocking_span_count(self) -> int:
        """Spans whose own cost lands in blocking time: those not inside a probe."""
        inside: list[bool] = []
        for _, _, _, parent, _ in self.spans:
            inside.append(parent >= 0 and (inside[parent] or self.spans[parent][4]))
        return inside.count(False)

    def totals(self) -> tuple[dict[str, float], dict[str, float], list[float]]:
        """Per-name self time, per-name blocking duration, and the blocking
        duration of each root span (one per command)."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        children = [0.0] * len(self.spans)
        probed = [0.0] * len(self.spans)
        for i, (_, _, _, parent, probe) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += dur[i]
            if probe:
                while parent >= 0:
                    probed[parent] += dur[i]
                    parent = self.spans[parent][3]
        self_s: Counter = Counter()
        blocking: Counter = Counter()
        roots = []
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            self_s[name] += dur[i] - children[i]
            blocking[name] += dur[i] - probed[i]
            if parent < 0:
                roots.append(dur[i] - probed[i])
        return dict(self_s), dict(blocking), roots


def span_cost(calls: int = 20000) -> float:
    """Seconds one call through `Tracer.timed` adds to the wrapped call."""

    def noop():
        return None

    wrapped = Tracer().timed(noop, "x")
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(perf_counter() - start - bare, 0.0) / calls


def run_cli(commands: list[list[str]], tracer: Tracer | None = None) -> dict:
    """Each command through `mdim.cli.main`, timed; traced, each is a root
    span named after its subcommand."""
    from mdim.cli import main as cli_main

    outputs, walls = [], []
    for argv in commands:
        buf = io.StringIO()
        root = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = perf_counter()
        with contextlib.redirect_stdout(buf), root:
            rc = cli_main(argv)
        walls.append(perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"mdim {' '.join(argv)} exited with {rc}")
        outputs.append(buf.getvalue())
    return {"outputs": outputs, "walls": walls}


KIND_COUNTER = {
    "isolated-vertex": "graph.kind.isolated",
    "path": "graph.kind.path",
    "non-path-tree": "graph.kind.tree",
    "non-tree": "graph.kind.non_tree",
}


class Tracing:
    """Spans, counters and diagnostics of one operation's traced commands.

    `install` replaces public names of the program's modules with wrappers
    that time each call, so the CLI runs its own code and finds the wrappers
    where it looks the names up. Self time left in a command's root span is
    the CLI's own work: rendering the JSON for `series` and `dist`, argument
    handling for `mc`.
    """

    def __init__(self) -> None:
        self.tr = Tracer()
        self.counters: Counter = Counter()
        self.diagnostics: dict[str, list] = {"kinds": [], "exclusions": []}
        self._kinds: Counter = Counter()
        self._exclusions: list[dict] = []
        self._graphs = 0  # graph_beta calls in the running experiment: the replicate index

    def install(self) -> None:
        import mdim.cli as cli
        import mdim.experiments as ex
        import mdim.series as se

        timed = self.tr.timed
        cli.build_parser = timed(cli.build_parser, "cli.parse")
        ex.SeededRng.generator = timed(ex.SeededRng.generator, "generators.rng")
        for name, span in (
            ("sample_uniform_tree", "generators.sample_tree"),
            ("sample_uniform_forest", "generators.sample_forest"),
            ("sample_gnp", "generators.sample_gnp"),
        ):
            setattr(ex, name, self._sampler(getattr(ex, name), span))
        ex.forest_counts = self._forest_counts(ex.forest_counts)
        ex.slater_tree_beta = timed(ex.slater_tree_beta, "metric_dimension.solve")
        ex.forest_beta = timed(ex.forest_beta, "metric_dimension.solve")
        ex.graph_beta = self._graph_beta(ex.graph_beta)
        ex.predicted_constants = timed(ex.predicted_constants, "asymptotics.constants")
        ex.run_experiment = self._run_experiment(ex.run_experiment)
        ex.ExperimentResult.summary = timed(ex.ExperimentResult.summary, "experiments.summary")
        ex.emit = timed(ex.emit, "experiments.emit")
        se.series_system = timed(se.series_system, "series.system")
        se.beta_distribution = timed(se.beta_distribution, "series.pmf")

    def run(self, commands: list[list[str]]) -> dict:
        self.install()
        result = run_cli(commands, self.tr)
        for argv, text in zip(commands, result["outputs"]):
            if argv[0] != "mc":
                self._count_rationals(json.loads(text))
        self_s, blocking, roots = self.tr.totals()
        result.update(
            walls=roots,
            self_s=self_s,
            blocking_s=blocking,
            overhead_s=span_cost() * self.tr.blocking_span_count(),
            counters=dict(self.counters),
            diagnostics=self.diagnostics,
            spans=self.tr.spans,
        )
        return result

    def _sampler(self, fn, name: str):
        def sample(*args, **kwargs):
            with self.tr.span(name):
                g = fn(*args, **kwargs)
            self.counters["generators.edges"] += g.edge_count
            return g

        return sample

    def _forest_counts(self, fn):
        def forest_counts(n):
            with self.tr.span("generators.forest_counts"):
                table = fn(n)
            self.counters["generators.forest_counts_bits"] += sum(x.bit_length() for x in table.t + table.f)
            return table

        return forest_counts

    def _run_experiment(self, fn):
        def run_experiment(cfg):
            self._kinds, self._exclusions, self._graphs = Counter(), [], 0
            with self.tr.span("experiments.run"):
                result = fn(cfg)
            included = sum(b is not None for b in result.betas)
            self.counters.update(self._kinds)
            self.counters["metric_dimension.excluded"] += len(self._exclusions)
            self.counters["replicates.attempted"] += len(result.betas)
            self.counters["replicates.included"] += included
            self.diagnostics["kinds"].append(dict(self._kinds))
            self.diagnostics["exclusions"].append(self._exclusions)
            return result

        return run_experiment

    def _graph_beta(self, fn):
        from mdim.metric_dimension import ComponentTooLargeError

        def graph_beta(g, brute_cap=12):
            replicate, self._graphs = self._graphs, self._graphs + 1
            with self.tr.span("trace.probe", probe=True):
                oversize = self._census(g, brute_cap)
            try:
                with self.tr.span("metric_dimension.solve"):
                    return fn(g, brute_cap=brute_cap)
            except ComponentTooLargeError as exc:
                if not oversize or oversize[0][0] != exc.size:
                    raise RuntimeError(f"replicate {replicate}: solver excluded size {exc.size}, census saw {oversize}")
                self._exclusions.append({"replicate": replicate, "size": exc.size, "cyclomatic": oversize[0][1]})
                raise

        return graph_beta

    def _census(self, g, cap: int) -> list[tuple[int, int]]:
        """Count component kinds, time brute force on each small non-tree
        component, and return (size, cyclomatic number) of each oversize one."""
        from mdim.graph import ComponentKind, connected_components, induced_subgraph
        from mdim.metric_dimension import brute_force_beta

        with self.tr.span("graph.components"):
            parts = connected_components(g)
        oversize = []
        for comp, kind in zip(parts.components, parts.kinds):
            self._kinds[KIND_COUNTER[kind.value]] += 1
            if kind is not ComponentKind.NON_TREE:
                continue
            size = len(comp)
            cyclomatic = sum(g.degree(v) for v in comp) // 2 - size + 1
            if size > cap:
                bucket = "cyclomatic1" if cyclomatic == 1 else "cyclomatic2plus"
                self.counters[f"graph.oversize.{bucket}"] += 1
                oversize.append((size, cyclomatic))
            else:
                with self.tr.span("metric_dimension.brute"):
                    brute_force_beta(induced_subgraph(g, comp)[0], size_cap=cap)
                self.counters["metric_dimension.brute_calls"] += 1
        return oversize

    def _count_rationals(self, doc: dict) -> None:
        if "coefficients" in doc:
            values = [Fraction(v) for terms in doc["coefficients"].values() for v in terms.values()]
        else:
            values = [Fraction(v) for v in doc["pmf"].values()]
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)
        self.counters["series.terms"] += len(values)
        self.counters["series.coeff_bits_max"] = max(self.counters["series.coeff_bits_max"], bits)


def main(argv: list[str]) -> int:
    before = calibrate()  # before mdim is imported, so untouched by it
    spec = json.loads(argv[1])
    src = os.path.join(os.path.abspath(spec["root"]), "src")
    try:
        for name in spec["modules"]:
            importlib.import_module(name)
        import mdim
    except ImportError as exc:
        print(f"bench: cannot import mdim from {src}: {exc}", file=sys.stderr)
        return SETUP_FAILED
    if not os.path.abspath(mdim.__file__).startswith(src + os.sep):
        print(f"bench: mdim imported from {mdim.__file__}, not from {src}", file=sys.stderr)
        return SETUP_FAILED
    ready = time.monotonic()
    if spec["trace"]:
        result = Tracing().run(spec["commands"])
    else:
        result = run_cli(spec["commands"])
    result["calibration_s"] = [before, calibrate()]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["extra_outputs"] = run_cli(spec["extra"])["outputs"]
    experiments = sys.modules.get("mdim.experiments")
    if experiments is not None:
        result["mean_rtol"] = experiments.MEAN_RTOL
    result["ready_monotonic"] = ready
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
