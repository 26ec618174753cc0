"""Misclassification-rate computation: closed-form conditional rates
against two-class normal and t populations, empirical rates of any rule
on a labelled test set, and leave-one-out cross-validation with grid
search over the threshold constants (M1, M2)."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import build_slda_grid, classify, classify_many, pair_columns
from .diagnostics import mahalanobis_delta
from .errors import DataError, DomainError, ShapeError, SldaError
from .estimation import centered_rows, class_means, compute_an, compute_tn, pooled_covariance
from .model import (DEFAULT_ALPHA, NORMAL, Dataset, GridSpec, LinearRule, PopulationSpec,
                    ThresholdConfig)
from .numerics import pow2_scaled, std_normal_cdf, student_t_cdf

CLOSED_FORM = "closed_form"
EMPIRICAL = "empirical"


@dataclass(frozen=True)
class RateReport:
    """Misclassification rate, equal-weight average of per-class errors."""

    conditional_rate: float
    per_class_error: tuple[float, ...]
    method: str
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
    1, so its errors are (0, 1) and the rate exactly 1/2. The rate does
    not depend on the length of (w, c), so both are first scaled by the
    power of two of pow2_scaled(w), which keeps w'Sigma w from under- or
    overflowing and leaves the bits of the rate unchanged.
    """
    if pop.n_classes != 2:
        raise DomainError("conditional_rate requires a two-class population")
    if rule.p != pop.p:
        raise ShapeError(f"rule dimension {rule.p} != population dimension {pop.p}")
    if rule.degenerate:
        return RateReport(conditional_rate=0.5, per_class_error=(0.0, 1.0),
                          method=CLOSED_FORM, degenerate=True)
    w, e = pow2_scaled(rule.weights)
    c = math.ldexp(rule.cutoff, -e)
    cov = pop.covariance  # a matrix, or the (p,) vector d of diag(d)
    sigma_w = math.sqrt(float(w @ (cov * w if cov.ndim == 1 else cov @ w)))

    def cdf(x):
        return std_normal_cdf(x) if pop.distribution == NORMAL else student_t_cdf(x, pop.df)

    e1 = cdf((c - float(w @ pop.means[0])) / sigma_w)
    e2 = cdf((float(w @ pop.means[1]) - c) / sigma_w)
    return RateReport(conditional_rate=0.5 * (e1 + e2), per_class_error=(e1, e2),
                      method=CLOSED_FORM)


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


def map_in_order(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on ``threads`` worker threads when threads > 1."""
    # no pool for one thread: a one-worker pool raised perfbench's peak RSS
    # from 79 to 92 MB on sim_known and from 84 to 88 MB on sim_t3
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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

    outcomes = map_in_order(fold, range(dataset.n), threads)
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
