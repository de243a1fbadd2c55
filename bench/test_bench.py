"""Tests of the benchmark itself: python3 -m pytest -q bench

They run the real machinery (fresh interpreters, gates, traced runs) on
small operations, so the whole file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import gates
import run
from child import Tracer
from run import Op, Workload, _mc

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

SMALL = {
    "mc-uniform": (
        Op("op1", "tree_betas_per_s", (_mc("--model", "uniform-tree", "--n", "400", "--replicates", "150"),)),
        Op("op2", "forest_betas_per_s", (_mc("--model", "uniform-forest", "--n", "500", "--replicates", "150"),)),
    ),
    "mc-gnp": (
        Op("op1", "gnp_sparse_betas_per_s", (_mc("--model", "gnp", "--c", "0.5", "--n", "2000", "--replicates", "20"),)),
        Op("op2", "gnp_critical_betas_per_s", (_mc("--model", "gnp", "--c", "0.9", "--n", "1000", "--replicates", "60"),)),
    ),
    "exact": (
        Op("op1", "series_uv_s", (("series", "--order", "12", "--which", "T"),)),
        Op("op2", "dist_s", (("dist", "--model", "tree", "--n", "9"), ("dist", "--model", "forest", "--n", "9"))),
    ),
}


def small_run(workload: str, seed: int, trace: bool) -> dict:
    return run.run_workload(workload, seed, 0, trace, ops=SMALL[workload])


def cli_output(argv: list[str]) -> str:
    return run.spawn(("mdim.cli",), [argv], trace=False)["outputs"][0]


def test_benchmark_json_names_what_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMALL))
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, workload, Workload(run.WORKLOADS[workload].modules, SMALL[workload]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    last = json.loads(out.getvalue().splitlines()[-1])
    assert rc == 0, out.getvalue()
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in last["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    for name in want:
        assert name in out.getvalue(), f"{name} missing from the printed report"


@pytest.mark.parametrize("seed", [7, 2024])
def test_traced_run_reproduces_the_untraced_betas(seed):
    doc = small_run("mc-gnp", seed, trace=True)
    assert doc["correct"], doc["failures"]
    for rec in doc["records"]:
        assert "layers" in rec and not rec["failures"]
        (excl,) = rec["diagnostics"]["exclusions"]
        assert len(excl) == rec["mc"][0]["excluded"]
        assert all(e["size"] > 12 and e["cyclomatic"] >= 1 for e in excl)
        assert rec["layers"]["metric_dimension.solve_s"] > 0 and rec["layers"]["graph.components_s"] > 0
        assert 0 < rec["layers"]["trace.overhead_s"] < 0.05 * rec["wall_s"]
    argv = SMALL["mc-gnp"][1].argv(seed)
    plain = run.spawn(("mdim.cli",), argv, trace=False)["outputs"]
    traced = run.spawn(("mdim.cli",), argv, trace=True)["outputs"]
    assert json.loads(plain[0])["betas"] == json.loads(traced[0])["betas"]
    assert gates.check_traced(plain, traced) == []


def test_traced_run_splits_the_exact_commands():
    doc = small_run("exact", 3, trace=True)
    assert doc["correct"], doc["failures"]
    layers = {k: m["value"] for k, m in doc["metrics"].items()}
    assert layers["series.system_s"] > 0 and layers["series.pmf_s"] > 0 and layers["series.render_s"] > 0
    assert layers["generators.rng_s"] == 0 and layers["experiments.run_s"] == 0


def test_second_seed_gives_other_inputs_and_passes_the_same_checks():
    a, b = (small_run("mc-uniform", seed, trace=False) for seed in (7, 2024))
    assert a["correct"] and b["correct"]
    assert a["metrics"].keys() == b["metrics"].keys()
    assert a["records"][0]["sha256"] != b["records"][0]["sha256"]


def test_traced_check_trips_on_a_changed_beta():
    text = cli_output(SMALL["mc-gnp"][0].argv(5)[0])
    doc = json.loads(text)
    doc["betas"][0] += 1
    (failure,) = gates.check_traced([text], [json.dumps(doc)])
    assert "betas differ" in failure


@pytest.mark.parametrize("op", [SMALL["mc-uniform"][0], SMALL["mc-uniform"][1], SMALL["mc-gnp"][1]])
def test_beta_gate_recomputes_sampled_replicates(op):
    (argv,) = op.argv(11)
    checks = run.beta_checks(argv, 11)
    assert len(checks) == run.BETA_CHECKS
    got = run.spawn(("mdim.cli",), [argv], trace=False, extra=[a for _, a in checks])
    text, graphs = got["outputs"][0], dict(zip((i for i, _ in checks), got["extra_outputs"]))
    assert gates.check_betas(text, graphs) == []
    doc = json.loads(text)
    i = checks[0][0]
    doc["betas"][i] = (doc["betas"][i] or 0) + 1
    (failure,) = gates.check_betas(json.dumps(doc), graphs)
    assert failure.startswith(f"replicate {i}:")


def test_independent_beta_on_small_graphs():
    def text(n, edges):
        return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"

    assert gates.graph_beta(text(1, [])) == 1
    assert gates.graph_beta(text(4, [(0, 1), (1, 2), (2, 3)])) == 1  # path
    assert gates.graph_beta(text(4, [(0, 1), (0, 2), (0, 3)])) == 2  # star K1,3
    assert gates.graph_beta(text(5, [(0, 1), (1, 2), (2, 0), (3, 4)])) == 3  # triangle + edge
    assert gates.graph_beta(text(3, [(0, 1)])) == 1  # edge + isolated vertex riding free
    assert gates.graph_beta(text(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])) == 3  # K4
    cycle = [(i, (i + 1) % 13) for i in range(13)]
    assert gates.graph_beta(text(13, cycle)) is None


def test_a_failing_operation_is_reported_not_a_crash(monkeypatch, capsys):
    broken = (SMALL["exact"][0], Op("op2", "dist_s", (("dist", "--model", "tree", "--n", "-3"),)))
    monkeypatch.setitem(run.WORKLOADS, "exact", Workload(run.WORKLOADS["exact"].modules, broken))
    rc = run.main(["--workload", "exact", "--seed", "1", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc != 0
    assert not last["correct"] and last["failed"] >= 1 and last["attempted"] == 2


def test_mc_gate_trips_on_a_corrupted_mean():
    text = cli_output(SMALL["mc-uniform"][0].argv(5)[0])
    assert gates.check_mc(text, 0.03) == []
    doc = json.loads(text)
    doc["summary"]["mean_over_n"] *= 1.05
    assert gates.check_mc(json.dumps(doc), 0.03)


def test_series_gate_trips_on_a_corrupted_coefficient():
    text = cli_output(["series", "--order", "10", "--which", "T"])
    assert gates.check_series(text) == []
    doc = json.loads(text)
    terms = doc["coefficients"]["7"]
    key = next(iter(terms))
    terms[key] = str(gates.Fraction(terms[key]) + gates.Fraction(1, 5040))
    assert [f[:4] for f in gates.check_series(json.dumps(doc))] == ["n=7:"]
    del doc["coefficients"]["9"]
    assert [f[:4] for f in gates.check_series(json.dumps(doc))] == ["n=7:", "n=9:"]


@pytest.mark.parametrize("field", ["pmf", "mean", "variance"])
def test_dist_gate_trips_on_a_corrupted_pmf(field):
    text = cli_output(["dist", "--model", "forest", "--n", "7"])
    assert gates.check_dist(text) == []
    doc = json.loads(text)
    if field == "pmf":
        b = next(iter(doc["pmf"]))
        doc["pmf"][b] = str(gates.Fraction(doc["pmf"][b]) * 2)
    else:
        doc[field] = str(gates.Fraction(doc[field]) + gates.Fraction(1, 10**6))
    assert gates.check_dist(json.dumps(doc))


def test_tracer_blocking_time_excludes_probes():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("a"):
            time.sleep(0.01)
        with tr.span("probe", probe=True):
            with tr.span("b"):
                time.sleep(0.01)
    self_s, blocking, roots = tr.totals()
    (root,) = roots
    assert root == pytest.approx(self_s["op"] + self_s["a"], abs=1e-9)
    assert blocking["op"] == pytest.approx(root)
    assert self_s["b"] >= 0.01 and root < self_s["a"] + 0.009


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
