"""Reproducible simulation harness: population builders, a replicate
runner producing per-replicate conditional rates for the fitted rule
families, scenario files, and preset scenarios exercising the
asymptotic regimes at desk scale."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import SparsityReport, build_lda, build_lda_known_sigma, build_oracle, build_slda
from .errors import DataError, DomainError, SldaError
from .evaluate import (
    RateReport,
    conditional_rate,
    conditional_rate_mc,
    cv_grid_search,
    default_grids,
)
from .io import fmt_float, read_kv, read_matrix
from .model import Dataset, NORMAL, STUDENT_T, PopulationSpec, ThresholdConfig
from .numerics import sample_mvn, sample_mvt, substream

METHODS = ("slda", "lda", "lda_known_sigma", "oracle")


@dataclass(frozen=True)
class PopulationRecipe:
    """Generator recipe for a synthetic two-class population.

    ``delta_pattern`` is (count, magnitude) placing ``count`` equal
    signal components at evenly spaced indices, or an explicit vector.
    ``sigma_pattern`` is ("identity",), ("ar1", rho), ("banded", width,
    value) or ("from_file", path). mu_2 = 0 and mu_1 = delta.
    """

    p: int
    delta_pattern: tuple
    sigma_pattern: tuple = ("identity",)
    distribution: str = NORMAL
    df: int | None = None


def _build_delta(recipe: PopulationRecipe) -> np.ndarray:
    pattern = recipe.delta_pattern
    if isinstance(pattern, tuple) and len(pattern) == 2 and np.isscalar(pattern[0]):
        count, magnitude = int(pattern[0]), float(pattern[1])
        if not (1 <= count <= recipe.p):
            raise DomainError(f"delta count {count} outside 1..p={recipe.p}")
        if magnitude == 0.0:
            raise DomainError("delta magnitude must be nonzero")
        delta = np.zeros(recipe.p)
        delta[np.arange(count) * (recipe.p // count)] = magnitude
        return delta
    delta = np.asarray(pattern, dtype=float)
    if delta.shape != (recipe.p,):
        raise DomainError(f"explicit delta has shape {delta.shape}, expected ({recipe.p},)")
    if not np.any(delta):
        raise DomainError("explicit delta must be nonzero")
    return delta


def _build_sigma(recipe: PopulationRecipe) -> np.ndarray:
    kind = recipe.sigma_pattern[0]
    p = recipe.p
    if kind == "identity":
        return np.eye(p)
    if kind == "ar1":
        rho = float(recipe.sigma_pattern[1])
        if not abs(rho) < 1.0:
            raise DomainError(f"ar1 requires |rho| < 1, got {rho}")
        idx = np.arange(p)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    if kind == "banded":
        width, value = int(recipe.sigma_pattern[1]), float(recipe.sigma_pattern[2])
        sigma = np.eye(p)
        for k in range(1, width + 1):
            sigma += value * (np.eye(p, k=k) + np.eye(p, k=-k))
        lam_min = float(np.linalg.eigvalsh(sigma)[0])
        if lam_min <= 0.0:
            raise DomainError(f"banded pattern is not positive definite (min eigenvalue {lam_min:.3e})")
        return sigma
    if kind == "from_file":
        return read_matrix(recipe.sigma_pattern[1])
    raise DomainError(f"unknown sigma pattern {kind!r}")


def build_population(recipe: PopulationRecipe) -> PopulationSpec:
    """Materialize a PopulationSpec from a recipe (SPD verified)."""
    delta = _build_delta(recipe)
    sigma = _build_sigma(recipe)
    means = np.vstack([delta, np.zeros(recipe.p)])
    return PopulationSpec(means=means, covariance=sigma,
                          distribution=recipe.distribution, df=recipe.df)


@dataclass(frozen=True)
class GridSpec:
    """Cross-validation grid over the threshold constants."""

    m1_grid: tuple[float, ...] | None = None  # None = data-driven default
    m2_grid: tuple[float, ...] | None = None
    alpha: float = 0.3


@dataclass(frozen=True)
class Scenario:
    """One simulation experiment: population, sample sizes, methods,
    threshold selection policy, replicate count and master seed."""

    name: str
    population: PopulationSpec | PopulationRecipe
    n1: int
    n2: int
    methods: tuple[str, ...]
    cv: ThresholdConfig | GridSpec | None
    reps: int
    seed: int
    n_mc: int = 100_000

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.n_mc < 1:
            raise DomainError(f"n_mc must be >= 1, got {self.n_mc}")
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError("class sample sizes must be >= 2")
        for m in self.methods:
            if m not in METHODS:
                raise DomainError(f"unknown method {m!r}; expected subset of {METHODS}")

    def resolve_population(self) -> PopulationSpec:
        if isinstance(self.population, PopulationSpec):
            return self.population
        return build_population(self.population)


@dataclass(frozen=True)
class ReplicateRecord:
    """Outcome of a single replicate: per-method rate reports, the SLDA
    threshold constants actually used, and its sparsity report."""

    replicate_index: int
    rates: dict[str, RateReport]
    chosen_m1: float | None = None
    chosen_m2: float | None = None
    sparsity: SparsityReport | None = None
    error: str | None = None


def _draw_dataset(pop: PopulationSpec, n1: int, n2: int, gen) -> Dataset:
    if pop.distribution == STUDENT_T:
        x1 = sample_mvt(pop.means[0], pop.chol, pop.df, gen, size=n1)
        x2 = sample_mvt(pop.means[1], pop.chol, pop.df, gen, size=n2)
    else:
        x1 = sample_mvn(pop.means[0], pop.chol, gen, size=n1)
        x2 = sample_mvn(pop.means[1], pop.chol, gen, size=n2)
    features = np.vstack([x1, x2])
    labels = np.concatenate([np.ones(n1, dtype=int), np.full(n2, 2, dtype=int)])
    return Dataset(features=features, labels=labels, class_counts=(n1, n2))


def _run_replicate(scenario: Scenario, pop: PopulationSpec, k: int) -> ReplicateRecord:
    gen = substream(scenario.seed, k)
    try:
        dataset = _draw_dataset(pop, scenario.n1, scenario.n2, gen)
        rules = {}
        chosen_m1 = chosen_m2 = None
        sparsity = None
        for method in scenario.methods:
            if method == "slda":
                config = scenario.cv
                if config is None or isinstance(config, GridSpec):
                    spec = config or GridSpec()
                    m1_grid, m2_grid = spec.m1_grid, spec.m2_grid
                    if m1_grid is None or m2_grid is None:
                        auto_m1, auto_m2 = default_grids(dataset, spec.alpha)
                        m1_grid = m1_grid or tuple(auto_m1)
                        m2_grid = m2_grid or tuple(auto_m2)
                    surface = cv_grid_search(dataset, m1_grid, m2_grid, spec.alpha)
                    config = ThresholdConfig(m1=surface.best[0], m2=surface.best[1],
                                             alpha=spec.alpha)
                rules[method], sparsity = build_slda(dataset, config)
                chosen_m1, chosen_m2 = config.m1, config.m2
            elif method == "lda":
                rules[method] = build_lda(dataset)
            elif method == "lda_known_sigma":
                rules[method] = build_lda_known_sigma(dataset, pop.chol)
            else:
                rules[method] = build_oracle(pop)
        if pop.distribution == NORMAL:
            rates = {m: conditional_rate(rule, pop) for m, rule in rules.items()}
        else:
            # one Monte Carlo pass per replicate, shared across methods
            rates = conditional_rate_mc(rules, pop, scenario.n_mc, gen)
        return ReplicateRecord(replicate_index=k, rates=rates, chosen_m1=chosen_m1,
                               chosen_m2=chosen_m2, sparsity=sparsity)
    except SldaError as exc:
        return ReplicateRecord(replicate_index=k, rates={}, error=str(exc))


@dataclass(frozen=True)
class MethodSummary:
    method: str
    count: int
    mean: float
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class ScenarioSummary:
    scenario: str
    reps: int
    failed: int
    methods: tuple[MethodSummary, ...]


def summarize_records(scenario: Scenario, records: list[ReplicateRecord]) -> ScenarioSummary:
    """Per-method mean/median/quartiles over the successful replicates."""
    failed = sum(1 for r in records if r.error is not None)
    summaries = []
    for method in scenario.methods:
        vals = np.array([r.rates[method].conditional_rate
                         for r in records if r.error is None])
        if vals.size:
            summaries.append(MethodSummary(
                method=method, count=int(vals.size), mean=float(vals.mean()),
                median=float(np.quantile(vals, 0.5)), q1=float(np.quantile(vals, 0.25)),
                q3=float(np.quantile(vals, 0.75))))
        else:
            summaries.append(MethodSummary(method=method, count=0, mean=math.nan,
                                           median=math.nan, q1=math.nan, q3=math.nan))
    return ScenarioSummary(scenario=scenario.name, reps=scenario.reps, failed=failed,
                           methods=tuple(summaries))


def run_scenario(scenario: Scenario, threads: int = 1):
    """Run every replicate and summarize.

    Replicate k draws everything from the substream (seed, k), so the
    output is independent of the number of worker threads and of which
    other replicates run. Failures are recorded in place, never
    resampled.
    """
    pop = scenario.resolve_population()
    pop.chol  # factor once, before any worker needs it
    indices = range(scenario.reps)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda k: _run_replicate(scenario, pop, k), indices))
    else:
        records = [_run_replicate(scenario, pop, k) for k in indices]
    return records, summarize_records(scenario, records)


# ---------------------------------------------------------------------------
# scenario file (flat key = value text)
# ---------------------------------------------------------------------------

def read_scenario(path) -> Scenario:
    """Parse a flat key-value scenario file.

    Required keys: p, n1, n2, methods, reps, seed plus a delta pattern
    (delta_count + delta_magnitude, or delta_values) and a sigma pattern
    (sigma = identity | ar1 | banded | from_file with its parameters).
    Threshold selection: fixed m1 + m2 (+ alpha), or grid_m1 + grid_m2.
    """
    kv = read_kv(path)
    try:
        p = int(kv["p"])
        if "delta_values" in kv:
            delta = tuple(float(v) for v in kv["delta_values"].split(","))
            delta_pattern: tuple = np.array(delta)
        else:
            delta_pattern = (int(kv["delta_count"]), float(kv["delta_magnitude"]))
        sigma_kind = kv.get("sigma", "identity")
        if sigma_kind == "identity":
            sigma_pattern: tuple = ("identity",)
        elif sigma_kind == "ar1":
            sigma_pattern = ("ar1", float(kv["rho"]))
        elif sigma_kind == "banded":
            sigma_pattern = ("banded", int(kv["width"]), float(kv["value"]))
        elif sigma_kind == "from_file":
            sigma_pattern = ("from_file", kv["sigma_file"])
        else:
            raise DataError(f"{path}: unknown sigma pattern {sigma_kind!r}")
        distribution = kv.get("distribution", NORMAL)
        df = int(kv["df"]) if distribution == STUDENT_T else None
        recipe = PopulationRecipe(p=p, delta_pattern=delta_pattern,
                                  sigma_pattern=sigma_pattern,
                                  distribution=distribution, df=df)
        alpha = float(kv.get("alpha", "0.3"))
        if "m1" in kv and "m2" in kv:
            cv: ThresholdConfig | GridSpec | None = ThresholdConfig(
                m1=float(kv["m1"]), m2=float(kv["m2"]), alpha=alpha)
        elif "grid_m1" in kv or "grid_m2" in kv:
            cv = GridSpec(
                m1_grid=tuple(float(v) for v in kv["grid_m1"].split(",")) if "grid_m1" in kv else None,
                m2_grid=tuple(float(v) for v in kv["grid_m2"].split(",")) if "grid_m2" in kv else None,
                alpha=alpha)
        else:
            cv = None
        return Scenario(
            name=kv.get("name", Path(path).stem),
            population=recipe,
            n1=int(kv["n1"]), n2=int(kv["n2"]),
            methods=tuple(m.strip() for m in kv["methods"].split(",")),
            cv=cv,
            reps=int(kv["reps"]),
            seed=int(kv["seed"]),
            n_mc=int(kv.get("n_mc", "100000")))
    except KeyError as exc:
        raise DataError(f"{path}: missing scenario key {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_scenario(path, scenario: Scenario) -> None:
    """Serialize a recipe-backed Scenario to the flat key-value format."""
    if not isinstance(scenario.population, PopulationRecipe):
        raise DomainError("only recipe-backed scenarios can be written to file")
    rec = scenario.population
    lines = [f"name = {scenario.name}", f"p = {rec.p}"]
    if isinstance(rec.delta_pattern, tuple) and len(rec.delta_pattern) == 2 \
            and np.isscalar(rec.delta_pattern[0]):
        lines += [f"delta_count = {int(rec.delta_pattern[0])}",
                  f"delta_magnitude = {fmt_float(rec.delta_pattern[1])}"]
    else:
        lines.append("delta_values = " + ",".join(fmt_float(v) for v in rec.delta_pattern))
    kind = rec.sigma_pattern[0]
    lines.append(f"sigma = {kind}")
    if kind == "ar1":
        lines.append(f"rho = {fmt_float(rec.sigma_pattern[1])}")
    elif kind == "banded":
        lines += [f"width = {int(rec.sigma_pattern[1])}",
                  f"value = {fmt_float(rec.sigma_pattern[2])}"]
    elif kind == "from_file":
        lines.append(f"sigma_file = {rec.sigma_pattern[1]}")
    lines.append(f"distribution = {rec.distribution}")
    if rec.df is not None:
        lines.append(f"df = {rec.df}")
    lines += [f"n1 = {scenario.n1}", f"n2 = {scenario.n2}",
              "methods = " + ",".join(scenario.methods)]
    if isinstance(scenario.cv, ThresholdConfig):
        lines += [f"m1 = {fmt_float(scenario.cv.m1)}", f"m2 = {fmt_float(scenario.cv.m2)}",
                  f"alpha = {fmt_float(scenario.cv.alpha)}"]
    elif isinstance(scenario.cv, GridSpec):
        if scenario.cv.m1_grid is not None:
            lines.append("grid_m1 = " + ",".join(fmt_float(v) for v in scenario.cv.m1_grid))
        if scenario.cv.m2_grid is not None:
            lines.append("grid_m2 = " + ",".join(fmt_float(v) for v in scenario.cv.m2_grid))
        lines.append(f"alpha = {fmt_float(scenario.cv.alpha)}")
    lines += [f"reps = {scenario.reps}", f"seed = {scenario.seed}", f"n_mc = {scenario.n_mc}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# record emission (strings; the cli module owns the files)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)

REPLICATE_COLUMNS = ("scenario", "replicate", "method", "rate", "stderr", "n_mc",
                     "m1", "m2", "q_hat", "nnz_offdiag", "pd_flag", "degenerate", "error")


def records_to_csv(scenario: Scenario, records: list[ReplicateRecord]) -> str:
    """Long-format CSV, one row per replicate per method (boxplot-ready)."""
    lines = [",".join(REPLICATE_COLUMNS)]
    for rec in records:
        if rec.error is not None:
            lines.append(",".join(_fmt(v) for v in (
                scenario.name, rec.replicate_index, "", "", "", "", "", "", "", "", "", "",
                rec.error.replace(",", ";"))))
            continue
        for method in scenario.methods:
            report = rec.rates[method]
            is_slda = method == "slda"
            sparsity = rec.sparsity if is_slda else None
            lines.append(",".join(_fmt(v) for v in (
                scenario.name,
                rec.replicate_index,
                method,
                report.conditional_rate,
                report.stderr,
                report.n_mc,
                rec.chosen_m1 if is_slda else None,
                rec.chosen_m2 if is_slda else None,
                sparsity.q_hat if sparsity else None,
                sparsity.nnz_offdiag if sparsity else None,
                sparsity.pd_flag if sparsity else None,
                report.degenerate,
                "")))
    return "\n".join(lines) + "\n"


def summary_to_text(summary: ScenarioSummary) -> str:
    lines = [
        f"scenario {summary.scenario}",
        f"replicates {summary.reps}",
        f"failed {summary.failed}",
        "method count mean median q1 q3",
    ]
    for m in summary.methods:
        lines.append(" ".join([m.method, str(m.count), _fmt(m.mean), _fmt(m.median),
                               _fmt(m.q1), _fmt(m.q3)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

def preset_scenarios() -> dict[str, Scenario]:
    """Named desk-scale scenarios for the theory regimes.

    - thm1_regime: p grows slower than sqrt(n); plain LDA still near
      optimal.
    - thm2_worst: covariance known, p/n large, fixed separation; the
      known-covariance LDA sits near random guessing.
    - thm2_constant: separation^2 proportional to sqrt(p/n); the limit
      rate is strictly between 0 and 1/2.
    - bicklev_worst: p >> n with a generalized-inverse LDA (near-worst)
      against a sparse-threshold SLDA.
    - thm3_sparse: sparse mean difference with a banded covariance; the
      SLDA regime.
    - sec5_t3: thm3_sparse with a t(3) population (covariance inflates
      by df/(df-2) = 3; the recipe matrix is the scale matrix).
    """
    presets = {}
    presets["thm1_regime"] = Scenario(
        name="thm1_regime",
        population=PopulationRecipe(p=15, delta_pattern=(15, 0.3)),
        n1=5000, n2=5000,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=2.0, m2=1.0, alpha=0.3),
        reps=20, seed=1101)
    presets["thm2_worst"] = Scenario(
        name="thm2_worst",
        population=PopulationRecipe(p=5000, delta_pattern=(1, 1.0)),
        n1=50, n2=50,
        methods=("lda_known_sigma", "oracle"),
        cv=None,
        reps=50, seed=1102)
    presets["thm2_constant"] = Scenario(
        name="thm2_constant",
        population=PopulationRecipe(p=4000, delta_pattern=(4, 1.7783)),
        n1=50, n2=50,
        methods=("lda_known_sigma", "oracle"),
        cv=None,
        reps=50, seed=1103)
    presets["bicklev_worst"] = Scenario(
        name="bicklev_worst",
        population=PopulationRecipe(p=500, delta_pattern=(9, 1.0)),
        n1=20, n2=20,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=1.65, m2=1.40, alpha=0.3),
        reps=50, seed=1104)
    presets["thm3_sparse"] = Scenario(
        name="thm3_sparse",
        population=PopulationRecipe(p=500, delta_pattern=(10, 1.0),
                                    sigma_pattern=("banded", 1, 0.3)),
        n1=30, n2=30,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=2.2, m2=1.55, alpha=0.3),
        reps=50, seed=1105)
    presets["sec5_t3"] = Scenario(
        name="sec5_t3",
        population=PopulationRecipe(p=500, delta_pattern=(10, 1.0),
                                    sigma_pattern=("banded", 1, 0.3),
                                    distribution=STUDENT_T, df=3),
        n1=30, n2=30,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=1.71, m2=1.78, alpha=0.3),
        reps=50, seed=1106)
    return presets
