"""Misclassification-rate computation: closed-form conditional rates
against two-class normal and t populations, Monte Carlo rates for
multi-class rules and populations, empirical test rates, and
leave-one-out cross-validation with grid search over the threshold
constants (M1, M2)."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import build_slda_grid, classify, classify_many, maximin_labels, pair_columns
from .diagnostics import mahalanobis_delta
from .errors import DataError, DomainError, ShapeError, SldaError
from .estimation import centered_rows, class_means, compute_an, compute_tn, pooled_covariance
from .model import (DEFAULT_ALPHA, NORMAL, Dataset, GridSpec, LinearRule, PopulationSpec,
                    ThresholdConfig)
from .numerics import std_normal_cdf, student_t_cdf

CLOSED_FORM = "closed_form"
MONTE_CARLO = "monte_carlo"
EMPIRICAL = "empirical"


@dataclass(frozen=True)
class RateReport:
    """Misclassification rate, equal-weight average of per-class errors."""

    conditional_rate: float
    per_class_error: tuple[float, ...]
    method: str
    n_mc: int | None = None
    stderr: float | None = None
    degenerate: bool = False


def optimal_rate(pop: PopulationSpec) -> RateReport:
    """Rate of the optimal (Bayes, equal priors) rule: Phi(-Delta_p/2).

    Only defined here for normal populations; for a t population use
    conditional_rate with build_oracle's rule, which gives its exact rate.
    """
    if pop.distribution != NORMAL:
        raise DomainError("optimal_rate has a closed form only for normal populations")
    if pop.n_classes != 2:
        raise DomainError("optimal_rate requires a two-class population")
    rate = std_normal_cdf(-0.5 * mahalanobis_delta(pop))
    return RateReport(conditional_rate=rate, per_class_error=(rate, rate), method=CLOSED_FORM)


def conditional_rate(rule: LinearRule, pop: PopulationSpec) -> RateReport:
    """Closed-form conditional rate of a linear rule under a normal or
    t two-class population.

    Class-1 error is P(w'x < c | mu_1) = F((c - w'mu_1)/sigma_w) and
    class-2 error F((w'mu_2 - c)/sigma_w) with sigma_w = sqrt(w'Sigma w),
    where F is Phi, or F_df under a t population: the score w'x of an
    elliptical t vector is w'mu_k + sigma_w T with T ~ t(df) and Sigma
    its scale matrix. A degenerate rule classifies everything to class
    1, so its errors are (0, 1) and the rate exactly 1/2.
    """
    if pop.n_classes != 2:
        raise DomainError("conditional_rate requires a two-class population")
    if rule.p != pop.p:
        raise ShapeError(f"rule dimension {rule.p} != population dimension {pop.p}")
    if rule.degenerate:
        return RateReport(conditional_rate=0.5, per_class_error=(0.0, 1.0),
                          method=CLOSED_FORM, degenerate=True)
    w, c = rule.weights, rule.cutoff
    cov = pop.covariance  # a matrix, or the (p,) vector d of diag(d)
    sigma_w = math.sqrt(float(w @ (cov * w if cov.ndim == 1 else cov @ w)))

    def cdf(x):
        return std_normal_cdf(x) if pop.distribution == NORMAL else student_t_cdf(x, pop.df)

    e1 = cdf((c - float(w @ pop.means[0])) / sigma_w)
    e2 = cdf((float(w @ pop.means[1]) - c) / sigma_w)
    return RateReport(conditional_rate=0.5 * (e1 + e2), per_class_error=(e1, e2),
                      method=CLOSED_FORM)


def _class_scores(pop: PopulationSpec, cls: int, weights: np.ndarray,
                  n_mc: int, gen: np.random.Generator) -> np.ndarray:
    # Scores of n_mc draws from class ``cls`` against each weight column,
    # drawn in score space. The centred scores W'(x - mu) = W'L z are
    # N(0, W'Sigma W), or elliptical t with that scale; with R from the
    # QR of L'W, R'R = W'L L'W = W'Sigma W, so z @ R with z of width
    # rows(R) = min(p, m) has exactly the same joint law. QR, unlike a
    # Cholesky of W'Sigma W, cannot fail: a zero column of W (degenerate
    # rule) gives an exactly zero column of R, so its scores stay +-0.0.
    r = np.linalg.qr(pop.chol.lower_t(weights), mode="r")
    z = gen.standard_normal((n_mc, r.shape[0]))
    raw = z @ r
    if pop.distribution != NORMAL:
        raw = raw * np.sqrt(pop.df / gen.chisquare(pop.df, n_mc))[:, None]
    return raw + pop.means[cls - 1] @ weights


def _binomial_report(errors: list[float], n_mc: int, degenerate: bool = False) -> RateReport:
    rate = float(np.mean(errors))
    var = sum(e * (1.0 - e) / n_mc for e in errors) / (len(errors) ** 2)
    return RateReport(conditional_rate=rate, per_class_error=tuple(errors),
                      method=MONTE_CARLO, n_mc=n_mc, stderr=math.sqrt(var),
                      degenerate=degenerate)


def conditional_rate_mc(rules: dict, pop: PopulationSpec, n_mc: int,
                        gen: np.random.Generator) -> dict[str, RateReport]:
    """Monte Carlo conditional rates of named LinearRules or MultiRules.

    Draws n_mc samples per class from the population's distribution
    (normal or t), scores them against every rule's pair columns in one
    pass, labels them by the maximin decision, and averages each rule's
    per-class error rates with equal weights. The reported stderr is the
    binomial standard error of that average. Each class's scores are
    drawn in score space, n_mc rows of min(p, m) normals for m columns,
    with their exact joint law; the rules share these draws (common
    random numbers), so a rule's estimate in a joint call differs from
    its estimate alone only by Monte Carlo noise.
    """
    if n_mc < 1:
        raise DomainError(f"n_mc must be >= 1, got {n_mc}")
    if not rules:
        raise DomainError("conditional_rate_mc needs at least one rule")
    k = pop.n_classes
    names = list(rules)
    layout = [pair_columns(rules[name]) for name in names]
    for name, (k_rule, _, _) in zip(names, layout):
        if k_rule != k:
            raise ShapeError(f"rule has {k_rule} classes, population {k}")
        if rules[name].p != pop.p:
            raise ShapeError(f"rule dimension {rules[name].p} != population dimension {pop.p}")
    columns = [rule for _, _, cols in layout for rule in cols]
    weights = np.column_stack([rule.weights for rule in columns])
    cutoffs = np.array([rule.cutoff for rule in columns])
    errors = np.empty((len(names), k))
    for cls in range(1, k + 1):
        scores = _class_scores(pop, cls, weights, n_mc, gen) - cutoffs
        start = 0
        for j, (_, pairs, _) in enumerate(layout):
            labels = maximin_labels(scores[:, start:start + len(pairs)], pairs, k)
            errors[j, cls - 1] = np.mean(labels != cls)
            start += len(pairs)
    return {name: _binomial_report([float(e) for e in errors[j]], n_mc,
                                   degenerate=getattr(rules[name], "degenerate", False))
            for j, name in enumerate(names)}


def empirical_rate(rule, test: Dataset) -> RateReport:
    """Per-class misclassified fraction on a labeled test set,
    averaged with equal class weights."""
    n_classes = pair_columns(rule)[0]
    if test.n_classes != n_classes:
        raise DataError(
            f"test set has {test.n_classes} classes; rule expects {n_classes} "
            "(a class with no test samples has undefined error)"
        )
    predicted = classify_many(rule, test.features)
    errors = []
    for cls in range(1, n_classes + 1):
        mask = test.labels == cls
        errors.append(float(np.mean(predicted[mask] != cls)))
    return RateReport(conditional_rate=float(np.mean(errors)),
                      per_class_error=tuple(errors), method=EMPIRICAL)


def _require_loocv(dataset: Dataset) -> None:
    if min(dataset.class_counts) < 3:
        raise DataError("leave-one-out cross-validation requires every class count >= 3")
    if dataset.n_classes != 2:
        raise DomainError("leave-one-out cross-validation requires a two-class dataset")


def _loocv_grid(dataset: Dataset, m1_grid, m2_grid, alpha: float, threads: int):
    # Leave-one-out over a product grid, fold-major: each fold centres its
    # rows once and thresholds and factors at most once per M1, forming S
    # only for an M1 that fails the variance screen (build_slda_grid). Returns,
    # per point in grid order, the count of misclassified held-out samples
    # and the first (fold, SldaError) of a failed refit, or None. Folds run
    # on ``threads`` threads and are summed in fold order.
    points = len(m1_grid) * len(m2_grid)

    def fold(i):
        # refit without sample i (t_n, a_n recomputed with n - 1), then
        # classify it: per point, whether it is missed, or the refit's error
        try:
            fits = build_slda_grid(dataset.drop(i), m1_grid, m2_grid, alpha)
        except SldaError as exc:
            return [exc.with_traceback(None)] * points  # its frames hold S
        x, label = dataset.features[i], int(dataset.labels[i])
        return [fit if isinstance(fit, SldaError) else classify(fit[0][(1, 2)], x) != label
                for fit in fits]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(fold, range(dataset.n)))
    else:
        outcomes = map(fold, range(dataset.n))
    wrong = [0] * points
    failed = [None] * points
    for i, row in enumerate(outcomes):
        for j, outcome in enumerate(row):
            if isinstance(outcome, SldaError):
                if failed[j] is None:
                    failed[j] = (i, outcome)
            else:
                wrong[j] += outcome
    return wrong, failed


def loocv_rate(dataset: Dataset, config: ThresholdConfig) -> float:
    """Leave-one-out cross-validation estimate of the SLDA rate.

    Each fold refits on the remaining n-1 samples (thresholds t_n, a_n
    recomputed with n-1) and classifies the held-out point; the return
    value is the unweighted mean of the n error indicators.
    """
    _require_loocv(dataset)
    wrong, failed = _loocv_grid(dataset, [config.m1], [config.m2], config.alpha, threads=1)
    if failed[0] is not None:
        i, exc = failed[0]
        raise SldaError(f"LOOCV refit failed on fold {i}: {exc}") from exc
    return wrong[0] / dataset.n


@dataclass(frozen=True)
class CvSurface:
    """Grid of (M1, M2) pairs with their LOOCV scores and the winner.

    ``forced_worst`` counts the points scored 1.0 because a fold's refit
    at them failed, not because every held-out sample was missed.
    """

    grid: tuple[tuple[float, float], ...]
    scores: tuple[float, ...]
    best: tuple[float, float]
    best_score: float
    forced_worst: int


def cv_grid_search(dataset: Dataset, m1_grid=None, m2_grid=None, alpha: float = DEFAULT_ALPHA,
                   threads: int = 1) -> CvSurface:
    """Leave-one-out rate of SLDA at every point of the product grid,
    and the point with the minimum.

    A grid given as None is the data-driven one of ``default_grids``.
    Before any fold runs, a dataset that cannot be cross-validated (K != 2,
    a class with fewer than 3 samples, a class mean that overflows)
    raises, and so do grids and alpha that GridSpec rejects (an empty
    grid, alpha outside (0, 1/2), or an M1 or M2 that is negative or not
    finite).

    Ties are broken toward the most sparse rule: largest M2, then
    largest M1. A point is scored 1.0 (worst) instead of aborting the
    scan when a fold's refit at it fails; ``forced_worst`` counts those
    points. The loop is fold-major (one variance screen per fold, one
    factor per fold and M1, shared by every M2), and with threads > 1
    the folds run concurrently; their counts are summed in fold order,
    so the surface is identical to the sequential one.
    """
    _require_loocv(dataset)
    class_means(dataset)  # raises for a class sum that overflows
    if m1_grid is None or m2_grid is None:
        auto_m1, auto_m2 = default_grids(dataset, alpha)
        m1_grid = auto_m1 if m1_grid is None else m1_grid
        m2_grid = auto_m2 if m2_grid is None else m2_grid
    spec = GridSpec(m1_grid, m2_grid, alpha)  # raises for an empty grid or a bad point
    grid = [(m1, m2) for m1 in spec.m1_grid for m2 in spec.m2_grid]
    wrong, failed = _loocv_grid(dataset, spec.m1_grid, spec.m2_grid, alpha, threads)
    scores = [count / dataset.n if failure is None else 1.0
              for count, failure in zip(wrong, failed)]
    j = min(range(len(grid)), key=lambda j: (scores[j], -grid[j][1], -grid[j][0]))
    return CvSurface(grid=tuple(grid), scores=tuple(scores), best=grid[j], best_score=scores[j],
                     forced_worst=sum(failure is not None for failure in failed))


def default_grids(dataset: Dataset, alpha: float = DEFAULT_ALPHA):
    """Data-driven (M1, M2) grids when the caller supplies none.

    Seven M2 values are log-spaced so that a_n sweeps the 50th to 99.9th
    percentile of |delta_hat_j|; M1 likewise from the off-diagonal
    |S_jl| percentiles against t_n's scale factor.
    """
    if dataset.n_classes != 2:
        raise DomainError("default_grids requires a two-class dataset")
    means, centered = centered_rows(dataset)
    s = pooled_covariance(centered)
    delta = means[0] - means[1]
    if not (np.isfinite(s).all() and np.isfinite(delta).all()):
        raise DomainError("default_grids: the pooled covariance or the mean difference "
                          "is not finite")
    n, p = dataset.n, dataset.p
    scale_a = compute_an(1.0, n, p, alpha)
    scale_t = compute_tn(1.0, n, p)

    def log_spaced(values, scale):
        lo = max(float(np.quantile(values, 0.5)), 1e-12)
        hi = max(float(np.quantile(values, 0.999)), lo * (1.0 + 1e-9))
        return list(np.exp(np.linspace(math.log(lo), math.log(hi), 7)) / scale)

    offdiag = s[np.triu(np.ones((p, p), dtype=bool), k=1)]
    np.abs(offdiag, out=offdiag)
    m1_grid = log_spaced(offdiag, scale_t)
    m2_grid = log_spaced(np.abs(delta), scale_a)
    return m1_grid, m2_grid
