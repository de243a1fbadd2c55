import json

import pytest

from mdim.cli import main


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestExactAndBrute:
    def test_exact(self, capsys, star_file, tmp_path):
        isolated = tmp_path / "isolated.txt"
        isolated.write_text("3 0\n")
        for path, doc in [(star_file, {"beta": 2, "witness": [2, 3]}), (isolated, {"beta": 2, "witness": [0, 1]})]:
            assert run_cli(capsys, "exact", "--graph", str(path)) == (0, json.dumps(doc) + "\n")

    def test_brute(self, capsys, star_file):
        code, out = run_cli(capsys, "brute", "--graph", star_file)
        assert code == 0
        assert json.loads(out) == {"beta": 2, "witness": [1, 2]}

    def test_brute_cap(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("14 0\n")
        code = main(["brute", "--graph", str(path), "--cap", "12"])
        assert code == 2
        assert "exceeds size cap" in capsys.readouterr().err

    def test_brute_ceiling(self, tmp_path, capsys):
        # refused from the header before any search: a star one vertex above
        # the ceiling would otherwise search for about 15 s
        import time

        from mdim.metric_dimension import BRUTE_MAX_VERTICES

        n = BRUTE_MAX_VERTICES + 1
        path = tmp_path / "star.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"0 {i}\n" for i in range(1, n)))
        t0 = time.perf_counter()
        code = main(["brute", "--graph", str(path), "--cap", "40"])
        elapsed = time.perf_counter() - t0
        assert code == 2
        assert capsys.readouterr().err == (
            f"mdim: error: n={n} exceeds the exhaustive-search ceiling of {BRUTE_MAX_VERTICES} vertices\n"
        )
        assert elapsed < 1.0

    def test_brute_cap_default_is_brute_cap(self, tmp_path, capsys):
        # without --cap, `cmd_brute` applies BRUTE_CAP: one vertex more is
        # refused, and BRUTE_CAP edgeless vertices are searched
        from mdim.metric_dimension import BRUTE_CAP

        path = tmp_path / "e.txt"
        path.write_text(f"{BRUTE_CAP + 1} 0\n")
        assert main(["brute", "--graph", str(path)]) == 2
        assert capsys.readouterr().err == f"mdim: error: n={BRUTE_CAP + 1} exceeds size cap {BRUTE_CAP}\n"
        path.write_text(f"{BRUTE_CAP} 0\n")
        code, out = run_cli(capsys, "brute", "--graph", str(path))
        assert code == 0
        assert json.loads(out) == {"beta": BRUTE_CAP - 1, "witness": list(range(BRUTE_CAP - 1))}

    def test_brute_cap_checked_before_allocation(self, tmp_path, capsys):
        # building the graph would take CSR arrays of n + 1 int64 entries:
        # `indptr` alone is 8 MB at n = 10**6
        import tracemalloc

        path = tmp_path / "big.txt"
        path.write_text("1000000 0\n")
        tracemalloc.start()
        try:
            code = main(["brute", "--graph", str(path), "--cap", "12"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "n=1000000 exceeds size cap 12" in capsys.readouterr().err
        assert peak < 8 * 2**20


    def test_exact_vertex_limit_checked_before_allocation(self, tmp_path, capsys):
        import tracemalloc

        path = tmp_path / "big.txt"
        path.write_text("1000001 0\n")
        tracemalloc.start()
        try:
            code = main(["exact", "--graph", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "n=1000001 exceeds the vertex limit 1000000" in capsys.readouterr().err
        assert peak < 8 * 2**20


    @pytest.mark.parametrize("command", ["exact", "brute"])
    def test_empty_graph_refused(self, tmp_path, capsys, command):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert main([command, "--graph", str(path)]) == 2
        assert capsys.readouterr() == ("", "mdim: error: empty graph\n")

    def test_exact_vertex_id_beyond_int64(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("2 1\n0 99999999999999999999\n")
        assert main(["exact", "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mdim: error: edge (0,99999999999999999999) out of range for n=2\n"


class TestSamplers:
    def test_sample_tree_edge_list(self, capsys):
        code, out = run_cli(capsys, "sample-tree", "--n", "12", "--seed", "3")
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == ["12", "11"]

    def test_sample_tree_deterministic(self, capsys):
        _, a = run_cli(capsys, "sample-tree", "--n", "30", "--seed", "9")
        _, b = run_cli(capsys, "sample-tree", "--n", "30", "--seed", "9")
        assert a == b

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample-tree", "--n", "5", "--seed", "-1"], "seed=-1 must be >= 0"),
            (["sample-forest", "--n", "5", "--stream", "-3"], "stream=-3 must be >= 0"),
            (["sample-gnp", "--n", "5", "--c", "0.5", "--stream", "-2"], "stream=-2 must be >= 0"),
        ],
    )
    def test_negative_seed_or_stream_named(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"mdim: error: {message}\n"

    def test_sample_forest(self, capsys):
        code, out = run_cli(capsys, "sample-forest", "--n", "15", "--seed", "1")
        assert code == 0
        n, m = map(int, out.splitlines()[0].split())
        assert n == 15 and m <= 14

    @pytest.mark.parametrize("argv", [["sample-forest"], ["mc", "--model", "uniform-forest", "--out", "r.csv"]])
    def test_forest_limit_checked_before_counting(self, capsys, monkeypatch, tmp_path, argv):
        from mdim import generators

        def no_count(m):
            raise AssertionError("forest counts built past the limit")

        monkeypatch.setattr(generators, "_forest_count", no_count)
        monkeypatch.chdir(tmp_path)
        n = generators.MAX_FOREST_VERTICES + 1
        assert main([*argv, "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err == f"mdim: error: n={n} outside 0..{n - 1} for uniform forests\n"
        assert not (tmp_path / "r.csv").exists()  # rejected before the output is created

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-tree"],
            ["sample-gnp", "--c", "0.5"],
            ["mc", "--model", "uniform-tree", "--replicates", "1"],
            ["mc", "--model", "gnp", "--c", "0.5", "--replicates", "1"],
        ],
    )
    def test_vertex_limit_checked_before_sampling(self, capsys, monkeypatch, argv):
        from mdim import experiments, generators
        from mdim.graph import MAX_VERTICES

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} called past the vertex limit")

        def no_sample(*args):
            raise AssertionError("sampler called past the vertex limit")

        monkeypatch.setattr(generators.SeededRng, "generator", lambda self: NoDraws())
        monkeypatch.setattr(experiments, "sample_uniform_trees", no_sample)
        monkeypatch.setattr(experiments, "sample_gnp", no_sample)
        n = MAX_VERTICES + 1
        assert main([*argv, "--n", str(n)]) == 2
        assert capsys.readouterr().err == f"mdim: error: n={n} exceeds the vertex limit {n - 1}\n"

    def test_sample_gnp(self, capsys):
        code, out = run_cli(capsys, "sample-gnp", "--n", "100", "--c", "0.5", "--seed", "4")
        assert code == 0
        from mdim.graph import parse_graph

        g = parse_graph(out)
        assert g.n == 100

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-gnp", "--n", "100000", "--p", "1"],
            ["mc", "--model", "gnp", "--p-exponent", "0", "--n", "100000", "--replicates", "1"],
        ],
    )
    def test_edge_limit_exits_before_drawing_pairs(self, capsys, argv):
        import tracemalloc

        from mdim.graph import MAX_EDGES

        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        m = 100_000 * 99_999 // 2
        assert capsys.readouterr().err == f"mdim: error: m={m} edges exceeds the edge limit {MAX_EDGES}\n"
        assert peak < 8 * 2**20

    def test_sample_gnp_c_needs_vertices(self, capsys):
        # p = c/n has no value at n = 0
        assert main(["sample-gnp", "--n", "0", "--c", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mdim: error: ")
        assert captured.err.count("\n") == 1


class TestSeriesCommands:
    def test_series_rationals(self, capsys):
        code, out = run_cli(capsys, "series", "--order", "6", "--which", "S")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"]["4"] == {"u^3 v^1": "1/6"}
        assert "3" not in doc["coefficients"]

    def test_series_at_y(self, capsys):
        code, out = run_cli(capsys, "series", "--order", "4", "--which", "T", "--at-y")
        doc = json.loads(out)
        assert doc["coefficients"]["4"] == {"y^1": "1/2", "y^2": "1/6"}

    def test_dist_tree(self, capsys):
        code, out = run_cli(capsys, "dist", "--model", "tree", "--n", "4")
        doc = json.loads(out)
        assert doc["pmf"] == {"1": "3/4", "2": "1/4"}

    def test_dist_forest(self, capsys):
        code, out = run_cli(capsys, "dist", "--model", "forest", "--n", "3")
        doc = json.loads(out)
        assert doc["pmf"] == {"1": "6/7", "2": "1/7"}

    def test_dist_forest_single_vertex(self, capsys):
        # the lone vertex has beta = 1, as forest_beta and brute_force_beta say
        code, out = run_cli(capsys, "dist", "--model", "forest", "--n", "1")
        assert code == 0
        assert json.loads(out)["pmf"] == {"1": "1"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--order", "12", "--which", which, *at_y]
            for which in "PST"
            for at_y in ([], ["--at-y"])
        ]
        + [["dist", "--model", "tree", "--n", "12"]],
        ids=" ".join,
    )
    def test_tree_reads_skip_forest_series(self, capsys, monkeypatch, argv):
        import mdim.series

        def no_forest(T, u, v):
            raise AssertionError("forest series built for a read that needs only the tree chain")

        monkeypatch.setattr(mdim.series, "forest_series", no_forest)
        mdim.series.series_system.cache_clear()
        assert main(argv) == 0

    def test_dist_builds_forest_series_once(self, capsys, monkeypatch):
        # the benchmark's exact op2: `dist` tree, then forest, in one process
        import mdim.series

        real, calls = mdim.series.forest_series, []

        def counted(T, u, v):
            calls.append(T.order)
            return real(T, u, v)

        monkeypatch.setattr(mdim.series, "forest_series", counted)
        mdim.series.series_system.cache_clear()
        assert main(["dist", "--model", "tree", "--n", "12"]) == 0
        assert calls == []
        for _ in range(2):
            assert main(["dist", "--model", "forest", "--n", "12"]) == 0
        assert calls == [12]

    @pytest.mark.parametrize(
        "argv",
        [["series", "--order", "101"], ["dist", "--model", "tree", "--n", "101"]],
    )
    def test_order_cap(self, capsys, monkeypatch, argv):
        # the bound is checked before any series is built
        import mdim.series

        def no_build(order, u, v):
            raise AssertionError("series built past the order cap")

        monkeypatch.setattr(mdim.series, "_solve_P", no_build)
        assert main(argv) == 2
        assert "mdim: error: series order 101 outside 0..100" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -3])
    def test_dist_rejects_n_below_one(self, capsys, monkeypatch, n):
        # rejected before any series is built, naming the n that was given
        import mdim.series

        def no_build(order, u, v):
            raise AssertionError("series built for n < 1")

        monkeypatch.setattr(mdim.series, "_solve_P", no_build)
        assert main(["dist", "--model", "tree", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mdim: error: n={n} must be >= 1\n"

    def test_series_system_is_built_once(self, capsys, monkeypatch):
        # `series --at-y` and `dist` share one memoised system per (order, at_y)
        import mdim.series

        calls = {"P": 0, "G": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(mdim.series, "_solve_P", counting("P", mdim.series._solve_P))
        monkeypatch.setattr(mdim.series, "forest_series", counting("G", mdim.series.forest_series))
        mdim.series.series_system.cache_clear()
        assert main(["series", "--order", "12", "--at-y"]) == 0
        assert calls == {"P": 1, "G": 0}
        assert main(["dist", "--model", "forest", "--n", "12"]) == 0
        assert calls == {"P": 1, "G": 1}
        assert mdim.series.series_system(12, at_y=True) is mdim.series.series_system(12, at_y=True)
        assert calls == {"P": 1, "G": 1}


class TestErrors:
    def test_memory_error_exit_code(self, capsys, monkeypatch):
        import mdim.cli

        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(mdim.cli, "cmd_constants", out_of_memory)
        assert main(["constants"]) == 2
        assert capsys.readouterr().err == "mdim: error: out of memory\n"


class TestConstantsCommands:
    def test_constants_json(self, capsys):
        code, out = run_cli(capsys, "constants")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mu"] - 0.14076941) < 1e-6
        assert abs(doc["sigma2"] - 0.063748151) < 1e-6
        assert set(doc) == {"rho1", "rho_d1", "rho_d2", "R1", "R_d1", "R_d2", "mu", "sigma2"}

    def test_c_curve_csv(self, capsys):
        code, out = run_cli(capsys, "c-curve", "--min", "0", "--max", "0.2", "--step", "0.1")
        lines = out.strip().splitlines()
        assert lines[0] == "c,C"
        assert len(lines) == 4
        c0, C0 = lines[1].split(",")
        assert float(c0) == 0.0 and float(C0) == 1.0

    def test_c_curve_grid_cap(self, capsys, monkeypatch):
        # the grid size is checked before any point is computed
        import mdim.asymptotics

        def no_point(c):
            raise AssertionError("c-curve point computed past the grid cap")

        monkeypatch.setattr(mdim.asymptotics, "C_closed", no_point)
        assert main(["c-curve", "--step", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mdim: error: grid has more than 10000 points\n"

    @pytest.mark.parametrize("argv", [["--step", "0"], ["--min", "0.5", "--max", "0.2"], ["--step", "inf"]])
    def test_c_curve_error_prints_no_header(self, capsys, argv):
        assert main(["c-curve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mdim: error: ")
        # a bad step is named as such: inf is not c = 0 * inf = nan at the first point
        assert ("step must be positive and finite" in captured.err) == ("--step" in argv)


class TestMonteCarlo:
    def test_mc_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "r.csv"
        code, _ = run_cli(
            capsys,
            "mc", "--model", "uniform-tree", "--n", "50", "--replicates", "120",
            "--seed", "7", "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("replicate,beta\n")
        assert "# summary" in text

    @pytest.mark.parametrize(
        "model, args, replicates",
        [
            ("uniform-tree", "--n 1000 --seed 5", 4),
            ("uniform-forest", "--n 500 --seed 5", 4),
            ("gnp", "--n 2000 --c 0.5 --seed 5", 4),
            ("uniform-tree", "--n 200000 --seed 7", 1),
            ("uniform-forest", "--n 1000 --seed 7", 1),
        ],
    )
    def test_mc_matches_exact_on_each_stream(self, tmp_path, capsys, model, args, replicates):
        # replicate i of `mc` and `exact` on stream i's sample give the same beta:
        # the partition a uniform sampler hands over against hook-and-compress on
        # the parsed graph, and for G(n,p) (forests on these streams) the labels
        # `Graph.component_labels` computes
        args = args.split()
        code, out = run_cli(capsys, "mc", "--model", model, *args, "--replicates", str(replicates), "--format", "json")
        assert code == 0
        betas = json.loads(out)["betas"]
        sampler = "sample-" + model.removeprefix("uniform-")
        path = tmp_path / "g.txt"
        for stream in range(replicates):
            code, graph = run_cli(capsys, sampler, *args, "--stream", str(stream))
            assert code == 0
            path.write_text(graph)
            code, out = run_cli(capsys, "exact", "--graph", str(path))
            assert (code, json.loads(out)["beta"]) == (0, betas[stream]), stream

    def test_mc_stdout_json(self, capsys):
        code, out = run_cli(
            capsys,
            "mc", "--model", "uniform-tree", "--n", "50", "--replicates", "110",
            "--seed", "7", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["config"]["n"] == 50
        assert len(doc["betas"]) == 110

    def test_mc_assert_failure_exit_code(self, capsys):
        # at n=50 the lattice spacing alone keeps the KS statistic above the
        # threshold, so --assert must exit nonzero
        code, _ = run_cli(
            capsys,
            "mc", "--model", "uniform-tree", "--n", "50", "--replicates", "200",
            "--seed", "7", "--assert",
        )
        assert code == 1

    @pytest.mark.parametrize("p_exponent", ["-1000", "-1", "nan"])
    def test_mc_negative_p_exponent(self, capsys, p_exponent):
        code = main(["mc", "--model", "gnp", "--n", "10000", "--p-exponent", p_exponent, "--replicates", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"mdim: error: p_exponent={float(p_exponent)} must be >= 0\n"

    def test_mc_out_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        from mdim import experiments

        def no_sample(*args):
            raise AssertionError("replicate sampled for an unwritable --out")

        monkeypatch.setattr(experiments, "sample_uniform_trees", no_sample)
        out_file = tmp_path / "missing" / "r.csv"
        argv = ["mc", "--model", "uniform-tree", "--n", "1000", "--replicates", "300", "--out", str(out_file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("mdim: error: [Errno 2] No such file or directory")
        assert err.count("\n") == 1 and not out_file.parent.exists()

    # sampling fails on the first replicate: C(5000, 2) edges at p = 1 exceed the edge limit
    FAILING_MC = ["mc", "--model", "gnp", "--p-exponent", "0", "--n", "5000", "--replicates", "3"]

    def test_mc_failure_removes_the_out_file_it_created(self, tmp_path, capsys):
        from mdim.graph import MAX_EDGES

        out_file = tmp_path / "F.csv"
        assert main([*self.FAILING_MC, "--out", str(out_file)]) == 2
        assert capsys.readouterr().err == f"mdim: error: m=12497500 edges exceeds the edge limit {MAX_EDGES}\n"
        assert not out_file.exists()

    def test_mc_failure_keeps_an_existing_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "F.csv"
        out_file.write_text("replicate,beta\n0,7\n")
        assert main([*self.FAILING_MC, "--out", str(out_file)]) == 2
        assert "edge limit" in capsys.readouterr().err
        assert out_file.read_text() == "replicate,beta\n0,7\n"


SUBCOMMANDS = ["exact", "brute", "sample-tree", "sample-forest", "sample-gnp", "series", "dist", "constants", "c-curve", "mc"]
TOP_USAGE = """usage: mdim [-h]
            {exact,brute,sample-tree,sample-forest,sample-gnp,series,dist,constants,c-curve,mc}
            ...
"""
TOP_HELP = (
    TOP_USAGE
    + """
Command-line interface: `mdim <subcommand>`.

positional arguments:
  {exact,brute,sample-tree,sample-forest,sample-gnp,series,dist,constants,c-curve,mc}
    exact               metric dimension of a forest (linear time)
    brute               metric dimension by exhaustive search
    sample-tree         uniform random labelled tree
    sample-forest       uniform random labelled forest
    sample-gnp          Erdos-Renyi G(n,p); --c means p=c/n
    series              exact series coefficients as rationals
    dist                exact distribution of the metric dimension
    constants           limiting constants of the uniform model
    c-curve             CSV table of the G(n,p) mean constant
    mc                  Monte Carlo experiment

options:
  -h, --help            show this help message and exit
"""
)


def parser_output(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits (help or usage error)."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    """`main` builds only the subparser that argv[0] names; what it prints
    must equal what the parser with every subcommand prints."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_named_command_builds_one_subparser(self):
        from mdim.cli import build_parser

        for name in SUBCOMMANDS:
            (sub,) = build_parser(name)._subparsers._group_actions
            assert list(sub.choices) == [name]
        (sub,) = build_parser()._subparsers._group_actions
        assert list(sub.choices) == SUBCOMMANDS

    # --help, an unknown option (the top-level usage error) and, where the
    # command has one, a missing required option (the subcommand's)
    @pytest.mark.parametrize(
        "argv",
        [[name, flag] for name in SUBCOMMANDS for flag in ("--help", "--nope")]
        + [[name] for name in SUBCOMMANDS if name not in ("series", "constants", "c-curve")]
        + [["sample-gnp", "--n", "5"], ["sample-gnp", "--n", "5", "--c", "1", "--p", "0.2"], ["mc", "--model", "x", "--n", "3"]],
    )
    def test_subcommand_output_equals_full_parser(self, capsys, argv):
        from mdim.cli import build_parser

        full = parser_output(capsys, build_parser().parse_args, argv)
        assert parser_output(capsys, main, argv) == full
        assert full[0] == (0 if "--help" in argv else 2)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--help"], (0, TOP_HELP, "")),
            ([], (2, "", TOP_USAGE + "mdim: error: the following arguments are required: command\n")),
            (
                ["bogus"],
                (
                    2,
                    "",
                    TOP_USAGE + "mdim: error: argument command: invalid choice: 'bogus' (choose from "
                    + ", ".join(f"'{name}'" for name in SUBCOMMANDS) + ")\n",
                ),
            ),
        ],
    )
    def test_top_level_output(self, capsys, argv, expected):
        assert parser_output(capsys, main, argv) == expected


def fresh_python(*args):
    """A new interpreter run with `args`, importing mdim from src/."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_python_stdout(code):
    """stdout of `code` run by a new interpreter."""
    run = fresh_python("-c", code)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_python_m_mdim_cli(tmp_path):
    # the module's __main__ guard: `python -m mdim.cli` needs no installed console script
    assert fresh_python("-m", "mdim.cli", "--help").returncode == 0
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    run = fresh_python("-m", "mdim.cli", "exact", "--graph", str(path))
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "mdim: error: graph contains a cycle\n")


class TestDependencies:
    def test_cli_import_leaves_out_mpmath(self):
        # mpmath serves only the tests' extended-precision checks
        code = "import sys, mdim.cli, mdim.experiments; print('mpmath' in sys.modules)"
        assert fresh_python_stdout(code) == "False\n"

    def test_mc_runs_leave_out_scipy(self):
        # components are labelled in numpy alone, and Phi for the KS distance
        # is a port of Cephes' ndtr; scipy would add about 0.14 s and 18 MB
        # to every `mdim mc` run. The uniform-tree run reaches the KS path.
        code = (
            "import contextlib, io, sys\n"
            "import mdim.experiments\n"
            "from mdim.cli import main\n"
            "runs = [['--model', 'uniform-tree', '--n', '100', '--replicates', '300'],\n"
            "        ['--model', 'uniform-forest', '--n', '50', '--replicates', '20'],\n"
            "        ['--model', 'gnp', '--c', '0.9', '--n', '2000', '--replicates', '3']]\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    rcs = [main(['mc', *argv]) for argv in runs]\n"
            "print(rcs, 'ks_statistic,' in out.getvalue(), [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert fresh_python_stdout(code) == "[0, 0, 0] True []\n"

    def test_experiments_import_leaves_out_process_pools(self):
        # replicates run serially; the pool modules cost about 4 ms and 0.4 MB
        code = (
            "import sys, mdim.experiments\n"
            "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)"
        )
        assert fresh_python_stdout(code) == "False False\n"

    def test_package_import_loads_no_submodule(self):
        code = "import sys, mdim; print([m for m in sys.modules if m.startswith('mdim.')], 'numpy' in sys.modules)"
        assert fresh_python_stdout(code) == "[] False\n"

    def test_series_commands_leave_out_numpy(self):
        # they build no graph; numpy would add about 10 MB and 60 ms to each.
        # The constants need no root finder from scipy either.
        code = (
            "import contextlib, io, sys\n"
            "import mdim\n"
            "from mdim.cli import main\n"
            "runs = [['dist', '--model', 'forest', '--n', '8'], ['series', '--order', '6'],\n"
            "        ['constants'], ['c-curve']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [main(argv) for argv in runs]\n"
            "print(rcs, 'numpy' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert fresh_python_stdout(code) == "[0, 0, 0, 0] False []\n"

    @pytest.mark.parametrize(
        "argv", [["dist", "--model", "forest", "--n", "6"], ["series", "--order", "6", "--which", "T"]]
    )
    def test_series_commands_leave_out_dataclasses(self, argv):
        # dataclasses loads inspect, ast, dis and tokenize: about 6 ms of each command
        code = (
            "import contextlib, io, sys\n"
            "from mdim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(rc, [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules])"
        )
        assert fresh_python_stdout(code) == "0 []\n"

    def test_mc_leaves_out_fractions(self):
        # only the exact commands print rationals
        code = (
            "import contextlib, io, sys\n"
            "from mdim.cli import main\n"
            "argv = ['mc', '--model', 'uniform-forest', '--n', '20', '--replicates', '5']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(argv)\n"
            "print(rc, 'fractions' in sys.modules)"
        )
        assert fresh_python_stdout(code) == "0 False\n"

    def test_third_party_imports_are_declared(self):
        import ast
        import re
        import sys
        import tomllib
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
        imported = set()
        for path in (root / "src" / "mdim").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"mdim"}
        assert third_party == declared, (third_party, declared)
