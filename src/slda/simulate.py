"""Reproducible simulation harness: population builders, a replicate
runner producing per-replicate conditional rates for the fitted rule
families, scenario files, and preset scenarios exercising the
asymptotic regimes at desk scale."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classify import SparsityReport, build_lda, build_lda_known_sigma, build_oracle, build_slda
from .errors import DataError, DomainError, NotPositiveDefiniteError, SldaError
from .evaluate import RateReport, conditional_rate, cv_grid_search
from .io import float_list, fmt_float, number, read_kv, read_matrix
from .model import DEFAULT_ALPHA, Dataset, NORMAL, STUDENT_T, PopulationSpec, ThresholdConfig
from .numerics import sample_mvn, sample_mvt, substream

METHODS = ("slda", "lda", "lda_known_sigma", "oracle")


# the keys that each sigma kind reads
_SIGMA_KEYS = {"identity": (), "ar1": ("rho",), "banded": ("width", "value"),
               "from_file": ("sigma_file",)}
# the parser of each optional population key in a scenario file (None keeps the text)
_POPULATION_KEYS = {"delta_count": number(int), "delta_magnitude": number(float),
                    "delta_values": float_list, "sigma": None, "rho": number(float),
                    "width": number(int), "value": number(float), "sigma_file": None,
                    "distribution": None, "df": number(int)}


def _population_keys(sigma: str, distribution: str, explicit_delta: bool) -> tuple[str, ...]:
    # the optional keys that this sigma kind, distribution and delta form read
    delta = ("delta_values",) if explicit_delta else ("delta_count", "delta_magnitude")
    df = ("df",) if distribution == STUDENT_T else ()
    return ("sigma", "distribution", *delta, *_SIGMA_KEYS.get(sigma, ()), *df)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class PopulationRecipe:
    """A synthetic two-class population, mu_1 = delta and mu_2 = 0, in
    the keys of a scenario file (see README). A key that the sigma kind,
    distribution and delta form need and lack, or set but do not read,
    or a bad value raises DomainError naming the key."""

    p: int
    delta_count: int | None = None
    delta_magnitude: float | None = None
    delta_values: tuple[float, ...] | None = None
    sigma: str = "identity"
    rho: float | None = None
    width: int | None = None
    value: float | None = None
    sigma_file: str | None = None
    distribution: str = NORMAL
    df: int | None = None

    def __post_init__(self):
        if not _is_int(self.p) or self.p < 1:
            raise DomainError(f"p: must be an integer >= 1, got {self.p!r}")
        if self.sigma not in _SIGMA_KEYS:
            raise DomainError(f"sigma: unknown kind {self.sigma!r}; expected {', '.join(_SIGMA_KEYS)}")
        if self.distribution not in (NORMAL, STUDENT_T):
            raise DomainError(f"distribution: unknown distribution {self.distribution!r}; "
                              f"expected {NORMAL} or {STUDENT_T}")
        reads = _population_keys(self.sigma, self.distribution, self.delta_values is not None)
        given = [key for key in _POPULATION_KEYS if getattr(self, key) is not None]
        for what, keys in (("missing", [key for key in reads if key not in given]),
                           ("unused", [key for key in given if key not in reads])):
            if keys:
                raise DomainError(f"{what} population key(s) {', '.join(map(repr, keys))}")
        if self.delta_values is not None:
            object.__setattr__(self, "delta_values", tuple(map(float, self.delta_values)))
            if len(self.delta_values) != self.p:
                raise DomainError(f"delta_values: {len(self.delta_values)} values for p = {self.p}")
            if not any(self.delta_values):
                raise DomainError("delta_values: must not be all zero")
        elif not _is_int(self.delta_count) or not 1 <= self.delta_count <= self.p:
            raise DomainError(f"delta_count: must be an integer in 1..p = {self.p}, "
                              f"got {self.delta_count!r}")
        elif self.delta_magnitude == 0.0:
            raise DomainError("delta_magnitude: must be nonzero")
        if self.sigma == "ar1" and not abs(self.rho) < 1.0:
            raise DomainError(f"rho: ar1 requires |rho| < 1, got {self.rho}")
        if self.sigma == "banded" and (not _is_int(self.width) or self.width < 0):
            raise DomainError(f"width: must be an integer >= 0, got {self.width!r}")
        if self.distribution == STUDENT_T and (not _is_int(self.df) or self.df < 1):
            raise DomainError(f"df: must be an integer >= 1, got {self.df!r}")


def _build_delta(recipe: PopulationRecipe) -> np.ndarray:
    if recipe.delta_values is not None:
        return np.array(recipe.delta_values)
    delta = np.zeros(recipe.p)
    delta[np.arange(recipe.delta_count) * (recipe.p // recipe.delta_count)] = recipe.delta_magnitude
    return delta


def _build_sigma(recipe: PopulationRecipe) -> np.ndarray:
    p = recipe.p
    if recipe.sigma == "identity":
        return np.ones(p)  # the diagonal of I
    if recipe.sigma == "from_file":
        try:
            return read_matrix(recipe.sigma_file)
        except DataError as exc:
            raise DataError(f"sigma_file: {exc}") from None
    lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    if recipe.sigma == "ar1":
        return float(recipe.rho) ** lag
    # the band with no loop over its width: entries are exactly 1, value or +0.0
    sigma = np.where(lag <= min(recipe.width, p), float(recipe.value), 0.0)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def build_population(recipe: PopulationRecipe) -> PopulationSpec:
    """Materialize a PopulationSpec from a recipe, its covariance
    factored: a Sigma that is not positive definite raises DomainError."""
    means = np.vstack([_build_delta(recipe), np.zeros(recipe.p)])
    pop = PopulationSpec(means=means, covariance=_build_sigma(recipe),
                         distribution=recipe.distribution, df=recipe.df)
    try:
        pop.chol  # cached: every consumer of the population needs the factor
    except NotPositiveDefiniteError as exc:
        raise DomainError(f"sigma pattern {recipe.sigma!r} is not positive "
                          f"definite (pivot {exc.pivot_index})") from None
    return pop


@dataclass(frozen=True)
class GridSpec:
    """Cross-validation grid over the threshold constants. Every point
    of the given grids is checked by ThresholdConfig when it is built."""

    m1_grid: tuple[float, ...] | None = None  # None = data-driven default
    m2_grid: tuple[float, ...] | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.m1_grid == () or self.m2_grid == ():
            raise DomainError("a cross-validation grid must be non-empty")
        for m1 in self.m1_grid or (0.0,):  # 0.0 stands in for a data-driven grid
            for m2 in self.m2_grid or (0.0,):
                ThresholdConfig(m1=m1, m2=m2, alpha=self.alpha)


@dataclass(frozen=True)
class Scenario:
    """One simulation experiment: population, sample sizes, methods,
    threshold selection policy, replicate count and master seed."""

    name: str
    population: PopulationRecipe
    n1: int
    n2: int
    methods: tuple[str, ...]
    cv: ThresholdConfig | GridSpec | None
    reps: int
    seed: int
    n_mc: int = 100_000  # checked, but unused: every rate of a replicate is closed form

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.n_mc < 1:
            raise DomainError(f"n_mc must be >= 1, got {self.n_mc}")
        if self.n1 < 2 or self.n2 < 2:
            raise DomainError("class sample sizes must be >= 2")
        cross_validates = "slda" in self.methods and not isinstance(self.cv, ThresholdConfig)
        if cross_validates and min(self.n1, self.n2) < 3:
            raise DomainError("slda cross-validates its thresholds, and leave-one-out "
                              "cross-validation requires every class count >= 3; "
                              f"got n1 = {self.n1}, n2 = {self.n2}")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise DomainError(f"unknown method {m!r}; expected subset of {METHODS}")
            if m in self.methods[:i]:
                raise DomainError(f"method {m!r} is listed twice")

    def resolve_population(self) -> PopulationSpec:
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
    # class 1's rows, then class 2's, drawn straight into one array
    features = np.empty((n1 + n2, pop.p))
    for mean, rows in zip(pop.means, (features[:n1], features[n1:])):
        if pop.distribution == STUDENT_T:
            sample_mvt(mean, pop.chol, pop.df, gen, out=rows)
        else:
            sample_mvn(mean, pop.chol, gen, out=rows)
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
                    surface = cv_grid_search(dataset, spec.m1_grid, spec.m2_grid, spec.alpha)
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
        rates = {m: conditional_rate(rule, pop) for m, rule in rules.items()}
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

    Required keys: p, n1, n2, methods, reps, seed plus the population's
    keys, the fields of PopulationRecipe. Threshold selection, read only
    when methods has slda: fixed m1 + m2, or grid_m1 and/or grid_m2 (an
    omitted grid is the data-driven one), each with an optional alpha. A
    value that does not parse (or a float that is not finite), a bad
    population value, or a key that the file's choices leave unused,
    raises DataError naming the key.
    """
    kv = read_kv(path)
    take = kv.pop  # each key is taken where it is used; what is left is unused
    integer, real = number(int), number(float)

    def num(parse, key, *default):
        text = take(key, *default)
        return text if parse is None else parse(text, key)

    try:
        methods = tuple(m.strip() for m in take("methods").split(","))
        kv.setdefault("sigma", PopulationRecipe.sigma)
        kv.setdefault("distribution", PopulationRecipe.distribution)
        reads = _population_keys(kv["sigma"], kv["distribution"], "delta_values" in kv)
        recipe = PopulationRecipe(p=num(integer, "p"),
                                  **{key: num(_POPULATION_KEYS[key], key) for key in reads})
        cv: ThresholdConfig | GridSpec | None = None  # and without slda, no key is read
        if "slda" in methods and "m1" in kv and "m2" in kv:
            cv = ThresholdConfig(m1=num(real, "m1"), m2=num(real, "m2"),
                                 alpha=num(real, "alpha", DEFAULT_ALPHA))
        elif "slda" in methods and ("grid_m1" in kv or "grid_m2" in kv):
            m1_grid, m2_grid = (float_list(take(key), key) if key in kv else None
                                for key in ("grid_m1", "grid_m2"))
            cv = GridSpec(m1_grid=m1_grid, m2_grid=m2_grid,
                          alpha=num(real, "alpha", DEFAULT_ALPHA))
        fields = dict(name=take("name", Path(path).stem), population=recipe,
                      n1=num(integer, "n1"), n2=num(integer, "n2"), methods=methods, cv=cv,
                      reps=num(integer, "reps"), seed=num(integer, "seed"),
                      n_mc=num(integer, "n_mc", "100000"))
        if kv:
            raise DataError(f"unused scenario key(s) {', '.join(map(repr, kv))}")
        return Scenario(**fields)
    except KeyError as exc:
        raise DataError(f"{path}: missing scenario key {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


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
    """Long-format CSV, one row per replicate per method (boxplot-ready),
    or one row with the error of a failed replicate. Each row is a
    mapping from REPLICATE_COLUMNS; a column it leaves out is empty."""
    rows = []
    for rec in records:
        base = dict(scenario=scenario.name, replicate=rec.replicate_index)
        if rec.error is not None:
            rows.append(dict(base, error=rec.error.replace(",", ";")))
            continue
        for method in scenario.methods:
            report = rec.rates[method]
            row = dict(base, method=method, rate=report.conditional_rate, stderr=report.stderr,
                       n_mc=report.n_mc, degenerate=report.degenerate)
            if method == "slda":
                row.update(m1=rec.chosen_m1, m2=rec.chosen_m2)
                if rec.sparsity is not None:
                    row.update(q_hat=rec.sparsity.q_hat, nnz_offdiag=rec.sparsity.nnz_offdiag,
                               pd_flag=rec.sparsity.pd_flag)
            rows.append(row)
    lines = [",".join(REPLICATE_COLUMNS)]
    lines += [",".join(_fmt(row.get(col)) for col in REPLICATE_COLUMNS) for row in rows]
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
        population=PopulationRecipe(p=15, delta_count=15, delta_magnitude=0.3),
        n1=5000, n2=5000,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=2.0, m2=1.0, alpha=0.3),
        reps=20, seed=1101)
    presets["thm2_worst"] = Scenario(
        name="thm2_worst",
        population=PopulationRecipe(p=5000, delta_count=1, delta_magnitude=1.0),
        n1=50, n2=50,
        methods=("lda_known_sigma", "oracle"),
        cv=None,
        reps=50, seed=1102)
    presets["thm2_constant"] = replace(
        presets["thm2_worst"], name="thm2_constant", seed=1103,
        population=PopulationRecipe(p=4000, delta_count=4, delta_magnitude=1.7783))
    presets["bicklev_worst"] = Scenario(
        name="bicklev_worst",
        population=PopulationRecipe(p=500, delta_count=9, delta_magnitude=1.0),
        n1=20, n2=20,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=1.65, m2=1.40, alpha=0.3),
        reps=50, seed=1104)
    presets["thm3_sparse"] = Scenario(
        name="thm3_sparse",
        population=PopulationRecipe(p=500, delta_count=10, delta_magnitude=1.0,
                                    sigma="banded", width=1, value=0.3),
        n1=30, n2=30,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=2.2, m2=1.55, alpha=0.3),
        reps=50, seed=1105)
    thm3 = presets["thm3_sparse"]
    presets["sec5_t3"] = replace(
        thm3, name="sec5_t3", cv=ThresholdConfig(m1=1.71, m2=1.78, alpha=0.3), seed=1106,
        population=replace(thm3.population, distribution=STUDENT_T, df=3))
    return presets
