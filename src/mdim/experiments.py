"""Monte Carlo harness: sample graphs, compute metric dimension, summarize.

Replicate i always uses RNG stream i, and results are reduced in replicate
order, so output is byte-identical for a given config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import asymptotics
# sample_uniform_tree, sample_uniform_forest, slater_tree_beta and forest_beta go
# unused here, but bench/child.py wraps them by name in this module, as it wraps
# graph_beta, so they stay imported
from .generators import (
    SeededRng,
    check_forest_limit,
    forest_counts,
    sample_gnp,
    sample_uniform_forest,
    sample_uniform_forests,
    sample_uniform_tree,
    sample_uniform_trees,
)
from .graph import check_vertex_limit
from .metric_dimension import (
    BRUTE_CAP,
    ComponentTooLargeError,
    NotATreeError,
    forest_beta,
    forest_betas,
    graph_beta,
    slater_tree_beta,
)

MODELS = ("uniform-tree", "uniform-forest", "gnp")
SCHEMA = "mdim-experiment/1"


class DegenerateSampleError(ValueError):
    """Too few samples, or all equal: no normality statistics."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n: int
    replicates: int
    seed: int
    c: float | None = None
    p_exponent: float | None = None
    output: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_vertex_limit(self.n)
        if self.model == "uniform-forest":
            check_forest_limit(self.n)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        has_c = self.c is not None
        has_exp = self.p_exponent is not None
        if self.model == "gnp":
            if has_c == has_exp:
                raise ValueError("model gnp requires exactly one of c or p_exponent")
            if has_c and not 0.0 <= self.c < 1.0:  # C_closed's domain, NaN included
                raise ValueError(f"c={self.c} outside [0, 1)")
            if has_exp and not self.p_exponent >= 0.0:  # NaN included
                raise ValueError(f"p_exponent={self.p_exponent} must be >= 0")
        elif has_c or has_exp:
            raise ValueError(f"model {self.model} takes neither c nor p_exponent")

    def edge_probability(self) -> float:
        if self.c is not None:
            return self.c / self.n
        assert self.p_exponent is not None
        return self.n ** (-self.p_exponent)


@dataclass(frozen=True)
class NormalityStats:
    skewness: float
    excess_kurtosis: float
    ks_statistic: float


# Phi is ndtr from the Cephes Math Library (S. L. Moshier), ported with its
# coefficients and its order of operations, so it rounds bit for bit as the
# compiled Cephes ndtr does. With x = a/sqrt(2): erf(x) = x T(x^2)/U(x^2) for
# |x| < 1, and for x >= 1 erfc(x) = exp(-x^2) P(x)/Q(x) below 8 and
# exp(-x^2) R(x)/S(x) beyond, cut to 0 once x^2 > MAXLOG = ln(DBL_MAX).
# U, Q and S are monic: their leading 1.0 is Cephes' p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coeffs: tuple[float, ...]) -> float:
    ans = coeffs[0]
    for c in coeffs[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Standard normal CDF."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        erf = x * _polevl(x * x, _ERF_T) / _polevl(x * x, _ERF_U)
        return 0.5 + 0.5 * erf
    if z * z > _MAXLOG:
        erfc = 0.0
    elif z < 8.0:
        erfc = math.exp(-z * z) * _polevl(z, _ERFC_P) / _polevl(z, _ERFC_Q)
    else:
        erfc = math.exp(-z * z) * _polevl(z, _ERFC_R) / _polevl(z, _ERFC_S)
    return 1.0 - 0.5 * erfc if x > 0.0 else 0.5 * erfc


def normality_stats(samples) -> NormalityStats:
    """Moments of the standardized sample and its KS distance to a standard normal."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    if m < 100:
        raise DegenerateSampleError(f"need >= 100 samples, got {m}")
    mean = x.mean()
    var = x.var(ddof=1)
    if var == 0.0:
        raise DegenerateSampleError("zero-variance samples")
    z = (x - mean) / math.sqrt(var)
    m2 = np.mean(z * z)
    m3 = np.mean(z**3)
    m4 = np.mean(z**4)
    skew = float(m3 / m2**1.5)
    exkurt = float(m4 / (m2 * m2) - 3.0)
    zs = np.sort(z)
    cdf = np.array([_ndtr(v) for v in zs.tolist()])
    grid = np.arange(1, m + 1) / m
    ks = float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))
    return NormalityStats(skew, exkurt, ks)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    betas: list[int | None]  # per replicate; None = excluded
    predicted: dict[str, float] = field(default_factory=dict)

    @property
    def included(self) -> list[int]:
        return [b for b in self.betas if b is not None]

    @property
    def excluded_count(self) -> int:
        return sum(1 for b in self.betas if b is None)

    @property
    def exclusion_rate(self) -> float:
        return self.excluded_count / len(self.betas)

    def summary(self) -> dict[str, float]:
        xs = np.asarray(self.included, dtype=float)
        n = self.config.n
        out = {
            "replicates": len(self.betas),
            "included": int(xs.size),
            "excluded": self.excluded_count,
            "exclusion_rate": self.exclusion_rate,
        }
        if xs.size == 0:
            return out
        out["mean"] = float(xs.mean())
        out["variance"] = float(xs.var(ddof=1)) if xs.size > 1 else 0.0
        out["mean_over_n"] = out["mean"] / n
        out["variance_over_n"] = out["variance"] / n
        try:
            stats = normality_stats(xs)
            out["skewness"] = stats.skewness
            out["excess_kurtosis"] = stats.excess_kurtosis
            out["ks_statistic"] = stats.ks_statistic
        except DegenerateSampleError:  # fewer than 100 samples, or all equal
            pass
        for k, v in self.predicted.items():
            out[f"predicted_{k}"] = v
        return out


# Replicates are sampled in chunks of at most this many vertices, or of one
# replicate, and a uniform chunk is decoded, built and solved as one union.
# Medians of 10 interleaved runs on a 2-core x86-64 host (Python 3.11), for
# `mdim mc --model uniform-tree --n 1000 --replicates 800` and
# `--model uniform-forest --n 500 --replicates 500`: 2^12 took 0.160 s and
# 0.110 s at 35.7 and 36.7 MB peak RSS; 2^10 took 0.236 and 0.135 s; 2^13
# was faster on trees (0.151 s, 10 of 10) but not on forests (4 of 10), with
# 0.4-0.5 MB more RSS; 2^14 took 0.156 and 0.107 s with 1.7-1.9 MB more.
CHUNK_VERTICES = 2**12


def _betas(cfg: ExperimentConfig) -> list[int | None]:
    """Betas of the replicates, in order, sampled a chunk at a time; None
    marks a G(n,p) replicate excluded for a component above BRUTE_CAP.  A
    uniform chunk is one graph, the union of its replicates, solved by one
    `forest_betas` call; a G(n,p) chunk is solved a graph at a time.  The
    samplers and solvers are looked up at each call, so wrappers installed
    on this module see every one."""
    per_chunk = max(1, CHUNK_VERTICES // cfg.n)
    betas = []
    for start in range(0, cfg.replicates, per_chunk):
        rngs = [SeededRng(cfg.seed, i).generator() for i in range(start, min(start + per_chunk, cfg.replicates))]
        if cfg.model == "uniform-tree":
            union = sample_uniform_trees(cfg.n, rngs)
            if union.component_labels[1] != len(rngs):  # with forest_betas' checks: every block is one tree
                raise NotATreeError(f"{union.component_labels[1]} components in a union of {len(rngs)} trees")
            betas += forest_betas(union, cfg.n)
        elif cfg.model == "uniform-forest":
            betas += forest_betas(sample_uniform_forests(cfg.n, rngs), cfg.n)
        else:
            for g in [sample_gnp(cfg.n, cfg.edge_probability(), rng) for rng in rngs]:
                try:
                    betas.append(graph_beta(g).beta)
                except ComponentTooLargeError:
                    betas.append(None)
    return betas


def predicted_constants(cfg: ExperimentConfig) -> dict[str, float]:
    if cfg.model in ("uniform-tree", "uniform-forest"):
        const = asymptotics.tree_constants()
        return {"mu": const.mu, "sigma2": const.sigma2}
    if cfg.c is not None:
        return {"C": asymptotics.C_closed(cfg.c)}
    return {"beta_over_n": 1.0}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all replicates (stream i for replicate i) and collect statistics."""
    cfg.validate()
    created = bool(cfg.output) and not os.path.exists(cfg.output)
    if cfg.output:
        open(cfg.output, "a").close()  # an unwritable output fails before any sampling
    try:
        if cfg.model == "uniform-forest":
            # builds the cached count table here, where bench/child.py times it apart from sampling
            forest_counts(cfg.n)
        return ExperimentResult(cfg, _betas(cfg), predicted_constants(cfg))
    except BaseException:
        if created:  # a failed run leaves no empty output behind, and an existing file as it was
            os.remove(cfg.output)
        raise


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def render_csv(result: ExperimentResult) -> str:
    lines = ["replicate,beta"]
    for i, b in enumerate(result.betas):
        lines.append(f"{i},{'' if b is None else b}")
    lines.append("")
    lines.append("# summary")
    lines.append("key,value")
    cfg = result.config
    for k in ("model", "n", "replicates", "seed", "c", "p_exponent"):
        v = getattr(cfg, k)
        if v is not None:
            lines.append(f"{k},{_fmt(v)}")
    for k, v in result.summary().items():
        lines.append(f"{k},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def render_json(result: ExperimentResult) -> str:
    cfg = {k: v for k, v in asdict(result.config).items() if v is not None}
    cfg["brute_cap"] = BRUTE_CAP
    doc = {
        "schema": SCHEMA,
        "config": cfg,
        "betas": result.betas,
        "summary": result.summary(),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit(result: ExperimentResult) -> str:
    """Render the result in its configured format, writing it to the
    configured output file if there is one; returns the rendered text."""
    fmt = result.config.format
    if fmt == "csv":
        text = render_csv(result)
    elif fmt == "json":
        text = render_json(result)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if result.config.output:
        with open(result.config.output, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Tolerance checks shared by the CLI --assert flag and the acceptance suite.
# ---------------------------------------------------------------------------

MEAN_RTOL = 0.03
VAR_RTOL = 0.25
KS_MAX = 0.05
SKEW_MAX = 0.15
SPARSE_BETA_FRACTION = 0.99


def check_tolerances(result: ExperimentResult) -> list[str]:
    """Return a list of human-readable tolerance violations (empty = pass)."""
    cfg = result.config
    s = result.summary()
    if "mean_over_n" not in s:
        return ["all replicates excluded"]
    failures = []

    def rel(name: str, got: float, want: float, rtol: float) -> None:
        err = abs(got - want) / abs(want)
        if err > rtol:
            failures.append(f"{name}: {got:.6g} vs {want:.6g} (rel err {err:.3f} > {rtol})")

    if cfg.model in ("uniform-tree", "uniform-forest"):
        rel("mean/n vs mu", s["mean_over_n"], result.predicted["mu"], MEAN_RTOL)
        rel("variance/n vs sigma2", s["variance_over_n"], result.predicted["sigma2"], VAR_RTOL)
        if "ks_statistic" not in s:  # normality_stats needs >= 100 samples, not all equal
            enough = s["included"] >= 100
            failures.append("zero variance" if enough else "too few replicates for normality diagnostics")
        else:
            if s["ks_statistic"] >= KS_MAX:
                failures.append(f"KS {s['ks_statistic']:.4f} >= {KS_MAX}")
            if abs(s["skewness"]) >= SKEW_MAX:
                failures.append(f"|skewness| {abs(s['skewness']):.4f} >= {SKEW_MAX}")
    elif cfg.c is not None:
        rel("mean/n vs C", s["mean_over_n"], result.predicted["C"], MEAN_RTOL)
        if "ks_statistic" in s and s["ks_statistic"] >= KS_MAX:
            failures.append(f"KS {s['ks_statistic']:.4f} >= {KS_MAX}")
    else:
        frac = s["mean_over_n"]
        if frac <= SPARSE_BETA_FRACTION:
            failures.append(f"beta/n {frac:.4f} <= {SPARSE_BETA_FRACTION}")
    return failures
