import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from helpers import chi_square_ok, parse_csv_betas
from mdim import experiments
from mdim.experiments import (
    _MAXLOG,
    DegenerateSampleError,
    ExperimentConfig,
    ExperimentResult,
    _ndtr,
    check_tolerances,
    emit,
    normality_stats,
    render_csv,
    render_json,
    run_experiment,
)


def small_cfg(**kw):
    base = dict(model="uniform-tree", n=60, replicates=150, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_gnp_requires_exactly_one_density(self):
        with pytest.raises(ValueError):
            ExperimentConfig("gnp", 100, 10, 1).validate()
        with pytest.raises(ValueError):
            ExperimentConfig("gnp", 100, 10, 1, c=0.5, p_exponent=1.5).validate()
        ExperimentConfig("gnp", 100, 10, 1, c=0.5).validate()
        ExperimentConfig("gnp", 100, 10, 1, p_exponent=1.5).validate()

    def test_tree_models_take_no_density(self):
        with pytest.raises(ValueError):
            ExperimentConfig("uniform-tree", 100, 10, 1, c=0.5).validate()

    @pytest.mark.parametrize("c", [1.0, 1.5, -0.1, float("nan")])
    def test_c_outside_closed_form_domain(self, c, monkeypatch):
        # rejected before any replicate is sampled, with C_closed's message
        import mdim.experiments

        def no_sample(*args):
            raise AssertionError("replicate sampled with an invalid c")

        monkeypatch.setattr(mdim.experiments, "sample_gnp", no_sample)
        with pytest.raises(ValueError, match=rf"^c={c} outside \[0, 1\)$"):
            run_experiment(ExperimentConfig("gnp", 20000, 100, 7, c=c))

    @pytest.mark.parametrize("p_exponent", [-1000.0, -1.0, float("nan")])
    def test_p_exponent_below_zero(self, p_exponent, monkeypatch):
        # n ** -p_exponent is no probability: rejected before any replicate is sampled
        import mdim.experiments

        def no_sample(*args):
            raise AssertionError("replicate sampled with an invalid p_exponent")

        monkeypatch.setattr(mdim.experiments, "sample_gnp", no_sample)
        with pytest.raises(ValueError, match=rf"^p_exponent={p_exponent} must be >= 0$"):
            run_experiment(ExperimentConfig("gnp", 10_000, 1, 7, p_exponent=p_exponent))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig("uniform-tree", 10, 1, -1).validate()

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig("uniform-tree", 100, 0, 1).validate()

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            ExperimentConfig("zigzag", 100, 10, 1).validate()

    def test_edge_probability(self):
        assert ExperimentConfig("gnp", 200, 1, 1, c=0.5).edge_probability() == 0.5 / 200
        cfg = ExperimentConfig("gnp", 100, 1, 1, p_exponent=1.5)
        assert cfg.edge_probability() == pytest.approx(100 ** -1.5)


class TestNormalityStats:
    def test_standard_normal_calibration(self):
        rng = np.random.Generator(np.random.PCG64(12345))
        stats = normality_stats(rng.standard_normal(100_000))
        assert abs(stats.skewness) < 0.03
        assert stats.ks_statistic < 0.005

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            normality_stats([5.0] * 200)

    def test_minimum_size(self):
        with pytest.raises(DegenerateSampleError):
            normality_stats([1.0, 2.0] * 10)

    def test_detects_skewed_distribution(self):
        rng = np.random.Generator(np.random.PCG64(1))
        stats = normality_stats(rng.exponential(size=50_000))
        assert stats.skewness > 1.5
        assert stats.ks_statistic > 0.05


def ulp_walk(edge, k):
    """The 2k + 1 doubles nearest to the positive double edge, in order."""
    return (np.array([edge]).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def ndtr_inputs():
    rng = np.random.Generator(np.random.PCG64(17))
    tiny = np.finfo(np.float64).tiny
    halves = [
        np.abs(rng.standard_normal(220_000)) * 4.0,
        rng.uniform(0.0, 45.0, 150_000),
        10.0 ** rng.uniform(-320.0, 300.0, 20_000),  # subnormal up to huge
        rng.uniform(0.0, tiny, 5_000),  # subnormal
        np.array([0.0, 5e-324, tiny, 1e300, np.inf]),
    ]
    # each branch edge of ndtr: |x| = 1 and 8 with x = a/sqrt(2), and the
    # underflow cut x^2 = MAXLOG, both densely and ulp by ulp
    for edge in (math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG)):
        halves += [np.linspace(edge - 0.5, edge + 0.5, 30_000), ulp_walk(edge, 5_000)]
    half = np.concatenate(halves)
    return np.concatenate([half, -half, [np.nan, -np.nan]])


class TestNdtr:
    def test_bitwise_equal_to_scipy(self):
        a = ndtr_inputs()
        assert a.size >= 1_000_000
        got = np.array([_ndtr(v) for v in a.tolist()])
        want = ndtr(a)
        diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert diff.size == 0, [(a[i], got[i], want[i]) for i in diff[:5]]


class TestSummary:
    def test_only_degenerate_samples_go_without_normality_stats(self, monkeypatch):
        res = run_experiment(small_cfg())
        assert "ks_statistic" in res.summary()

        def broken(samples):
            raise ValueError("fault in Phi")

        monkeypatch.setattr(experiments, "normality_stats", broken)
        with pytest.raises(ValueError, match="fault in Phi"):
            res.summary()


class TestRunExperiment:
    def test_uniform_tree_betas_are_reasonable(self):
        res = run_experiment(small_cfg())
        assert len(res.betas) == 150
        assert res.excluded_count == 0
        assert all(1 <= b <= 59 for b in res.included)

    def test_exact_law_matches_series_pmf(self, system30_at_y):
        from mdim.series import beta_distribution

        res = run_experiment(
            ExperimentConfig(model="uniform-tree", n=8, replicates=100_000, seed=21)
        )
        pmf = beta_distribution(system30_at_y.T, 8).pmf
        counts = Counter(res.included)
        assert chi_square_ok(counts, {b: float(p) for b, p in pmf.items()}, 100_000)

    def test_forest_model_runs(self):
        res = run_experiment(
            ExperimentConfig(model="uniform-forest", n=40, replicates=120, seed=5)
        )
        s = res.summary()
        assert s["included"] == 120
        assert 0 < s["mean_over_n"] < 1

    def test_gnp_exclusion_reporting(self):
        cfg = ExperimentConfig(model="gnp", n=4000, replicates=400, seed=2, c=0.5)
        res = run_experiment(cfg)
        s = res.summary()
        assert s["excluded"] == sum(1 for b in res.betas if b is None)
        # non-tree components above the cap are rare in this regime
        assert res.exclusion_rate < 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="near c=1 unicyclic components regularly exceed any workable "
        "brute-force cap, so the <1% exclusion target is unattainable there",
    )
    def test_gnp_exclusion_near_critical(self):
        cfg = ExperimentConfig(model="gnp", n=4000, replicates=200, seed=2, c=0.9)
        res = run_experiment(cfg)
        assert res.exclusion_rate < 0.01

    def test_sparse_regime_beta_close_to_n(self):
        # the o(1) defect shrinks like n^-0.5; n must be large for the 0.99 bar
        cfg = ExperimentConfig(model="gnp", n=10_000, replicates=10, seed=2, p_exponent=1.5)
        res = run_experiment(cfg)
        assert res.summary()["mean_over_n"] > 0.99
        assert not check_tolerances(res)


class TestUniformChunks:
    """Uniform replicates are sampled a chunk at a time, at most
    UNIFORM_CHUNK_VERTICES vertices per chunk; replicate i is still the
    graph a single call draws from stream i."""

    @staticmethod
    def single_betas(cfg):
        from mdim.generators import SeededRng, sample_uniform_forest, sample_uniform_tree
        from mdim.metric_dimension import forest_beta, slater_tree_beta

        if cfg.model == "uniform-tree":
            sample, solve = sample_uniform_tree, slater_tree_beta
        else:
            sample, solve = sample_uniform_forest, forest_beta
        return [solve(sample(cfg.n, SeededRng(cfg.seed, i).generator())).beta for i in range(cfg.replicates)]

    @pytest.mark.parametrize(
        "model,n,replicates,chunks",
        [
            ("uniform-tree", 1000, 10, [4, 4, 2]),
            ("uniform-forest", 500, 11, [8, 3]),
            ("uniform-tree", 5000, 3, [1, 1, 1]),  # n above the chunk: a chunk of one
            ("uniform-tree", 1, 5, [5]),
            ("uniform-forest", 1, 5, [5]),
        ],
    )
    def test_betas_match_single_draws(self, monkeypatch, model, n, replicates, chunks):
        name = "sample_uniform_trees" if model == "uniform-tree" else "sample_uniform_forests"
        real, sizes = getattr(experiments, name), []

        def sample(n, rngs):
            sizes.append(len(rngs))
            return real(n, rngs)

        monkeypatch.setattr(experiments, name, sample)
        cfg = ExperimentConfig(model, n, replicates, 17)
        assert run_experiment(cfg).betas == self.single_betas(cfg)
        assert sizes == chunks

    @pytest.mark.parametrize("model", ["uniform-tree", "uniform-forest"])
    def test_many_chunk_boundaries(self, monkeypatch, model):
        monkeypatch.setattr(experiments, "UNIFORM_CHUNK_VERTICES", 20)
        cfg = ExperimentConfig(model, 6, 23, 18)  # chunks of 3: seven full, then 2
        assert run_experiment(cfg).betas == self.single_betas(cfg)


class TestTolerances:
    @pytest.mark.parametrize(
        "replicates,message",
        [(150, "zero variance"), (100, "zero variance"), (99, "too few replicates for normality diagnostics")],
    )
    def test_normality_diagnostics_missing(self, replicates, message):
        # every tree on one vertex has beta = 1, so the sample variance is 0
        failures = check_tolerances(run_experiment(small_cfg(n=1, replicates=replicates)))
        assert len(failures) == 3  # mean/n, variance/n, then normality
        assert failures[-1] == message


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = render_csv(run_experiment(small_cfg()))
        b = render_csv(run_experiment(small_cfg()))
        assert a == b


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        res = run_experiment(small_cfg(output=str(path)))
        text = emit(res)
        assert path.read_text() == text
        betas = parse_csv_betas(text)
        assert betas == res.betas
        clone = ExperimentResult(res.config, betas, res.predicted)
        assert clone.summary() == res.summary()

    def test_json_config_echo(self):
        res = run_experiment(small_cfg())
        import json

        doc = json.loads(render_json(res))
        assert doc["schema"] == "mdim-experiment/1"
        assert doc["config"]["seed"] == 3
        assert doc["config"]["model"] == "uniform-tree"
        assert doc["config"]["n"] == 60

    def test_csv_has_stable_header(self):
        text = render_csv(run_experiment(small_cfg()))
        lines = text.splitlines()
        assert lines[0] == "replicate,beta"
        assert lines[1] == "0," + str(run_experiment(small_cfg()).betas[0])

    def test_unknown_format(self):
        res = run_experiment(small_cfg())
        with pytest.raises(ValueError):
            emit(ExperimentResult(replace(res.config, format="xml"), res.betas, res.predicted))


class TestVarianceScaling:
    def test_gnp_variance_per_vertex_stable(self):
        # linear-variance check on a light grid; the acceptance suite runs
        # the full-size version
        ratios = {}
        for n in (1000, 2000):
            cfg = ExperimentConfig(model="gnp", n=n, replicates=300, seed=2, c=0.5)
            ratios[n] = run_experiment(cfg).summary()["variance_over_n"]
        vals = list(ratios.values())
        assert max(vals) / min(vals) < 1.25
