"""Two-class rule construction: LDA, known-covariance LDA, thresholded
SLDA and the oracle rule with true parameters, plus the one labelling
step: a LinearRule assigns class 1 iff w'x >= c."""

from __future__ import annotations

import numpy as np

from .errors import DataError, DomainError, NotPositiveDefiniteError, ShapeError, SldaError
from .estimation import (
    _threshold_in_place,
    centered_rows,
    class_means,
    compute_an,
    compute_tn,
    diagonal_screen,
    pinv_solve,
    pooled_covariance,
    pooled_spectrum,
    pooled_variances,
    threshold_delta,
)
from .model import (Dataset, LinearRule, PopulationSpec, SparsityReport, ThresholdConfig,
                    require_two_class)
from .numerics import SymOperator, cholesky_spd, invert_sparse_sym, spd_solve


def _rule(w: np.ndarray, mid: np.ndarray) -> LinearRule:
    # "class 1 iff w'x >= w'mid"; w = 0 is the degenerate rule (cutoff 0.0).
    return LinearRule(weights=w, cutoff=float(w @ mid))


def build_lda(dataset: Dataset) -> LinearRule:
    """Classical LDA: w = S^{-1} delta_hat, or the Moore-Penrose
    generalized inverse of S when S is singular (p > n - K, or a failed
    Cholesky pivot), applied through the thin SVD of the centred rows
    without forming S (pooled_spectrum, pinv_solve). An S that overflows
    raises DomainError on either path."""
    require_two_class(dataset.n_classes, "build_lda")
    means, centered = centered_rows(dataset)
    delta = means[0] - means[1]
    w = None
    # Cholesky of S, not the thin SVD, where S can be full rank: 4x to 11x faster
    if dataset.n - dataset.n_classes >= dataset.p:
        s = pooled_covariance(centered)
        if not np.isfinite(s).all():
            raise DomainError("build_lda: the pooled covariance overflows")
        try:
            w = spd_solve(cholesky_spd(s), delta)
        except NotPositiveDefiniteError:
            pass
    if w is None:
        w = pinv_solve(*pooled_spectrum(centered), delta)
    return _rule(w, 0.5 * (means[0] + means[1]))


def build_lda_known_sigma(dataset: Dataset, sigma) -> LinearRule:
    """LDA with the covariance known: w = Sigma^{-1} delta_hat.

    ``sigma`` is the SPD matrix or its precomputed SymOperator (reused
    across replicates by the simulation harness).
    """
    require_two_class(dataset.n_classes, "build_lda_known_sigma")
    means = class_means(dataset)
    factor = sigma if isinstance(sigma, SymOperator) else cholesky_spd(sigma)
    if factor.dim != dataset.p:
        raise ShapeError(f"sigma dimension {factor.dim} != {dataset.p}")
    return _rule(spd_solve(factor, means[0] - means[1]), 0.5 * (means[0] + means[1]))


def build_slda_grid(dataset: Dataset, m1_grid, m2_grid, alpha: float) -> list:
    """SLDA fits at every (M1, M2) of a product grid, in grid order (M1
    outer, M2 inner): each is (rule, report), the LinearRule and its
    SparsityReport, or the SldaError that factoring Sigma-tilde raised.

    The centred rows and their variances are computed once. An M1 whose
    t_n passes diagonal_screen has Sigma-tilde = diag(S) exactly, so the
    screened M1s share one set of fits at O(np) cost. S is formed only
    when some M1 fails the screen, and is never copied: hard thresholds
    nest (an entry kept at t >= t' is kept at t' with the same value), so
    the unscreened t_n are taken in ascending order and each thresholds
    S in place, after the fits of the one before it are done; one that
    keeps no pair is diag(S), and goes on as the variances. The last of
    them is factored with overwrite_a, so an eigenvalue floor works in
    S's buffer, which no later key reads. Sigma-tilde
    is factored at most once per distinct t_n, when the first M2 that
    keeps a component of delta needs it, so a failed factor fails only
    those points; an emptied delta gets the degenerate rule. The grid
    values must be valid ThresholdConfig constants; an error of the
    whole fit (K != 2, p < 2, a bad alpha) is raised.
    """
    require_two_class(dataset.n_classes, "build_slda")
    n, p = dataset.n, dataset.p
    t_ns = [compute_tn(m1, n, p) for m1 in m1_grid]
    a_ns = [compute_an(m2, n, p, alpha) for m2 in m2_grid]
    means, centered = centered_rows(dataset)
    variances = pooled_variances(centered)
    screen = diagonal_screen(variances, n)
    # every screened M1 has the key ``screen``, and shares its fits
    keys = [min(t_n, screen) for t_n in t_ns]
    s = pooled_covariance(centered) if any(key < screen for key in keys) else None
    del centered
    delta, mid = means[0] - means[1], 0.5 * (means[0] + means[1])
    tildes = [threshold_delta(delta, a_n) for a_n in a_ns]
    last = max((key for key in keys if key < screen), default=None)
    fits = {}
    for key in sorted(set(keys)):
        nnz = _threshold_in_place(s, key) if key < screen else 0
        fits[key] = _fits_at_m1(s if nnz else variances, nnz, tildes, mid, p,
                                overwrite_a=key == last)
    return [fit for key in keys for fit in fits[key]]


def _fits_at_m1(sigma_tilde, nnz: int, tildes: list, mid: np.ndarray, p: int, *,
                overwrite_a: bool) -> list:
    # The fits of one Sigma-tilde (a matrix, or its (p,) diagonal) at every M2.
    # A point that needs no factor reports pd_flag True, as nothing was
    # factored for it.
    op = None
    fits = []
    for tilde in tildes:
        needed = tilde.any()
        if needed and op is None:
            try:
                op = invert_sparse_sym(sigma_tilde, overwrite_a=overwrite_a)
            except SldaError as exc:
                # kept without its traceback, whose frames would keep
                # Sigma-tilde alive for as long as a caller holds the error
                op = exc.with_traceback(None)
        if needed and isinstance(op, SldaError):
            fits.append(op)
            continue
        rule = _rule(spd_solve(op, tilde) if needed else np.zeros(p), mid)
        report = SparsityReport(p=p, q_hat=np.count_nonzero(tilde), nnz_offdiag=nnz,
                                pd_flag=not needed or op.pd_flag)
        fits.append((rule, report))
    return fits


def build_slda(dataset: Dataset, config: ThresholdConfig) -> tuple[LinearRule, SparsityReport]:
    """Sparse LDA: threshold S off-diagonals at t_n and delta_hat at a_n,
    then w = Sigma-tilde^{-1} delta-tilde and cutoff w' xbar.

    If thresholding empties delta the rule is returned degenerate
    (w = 0, everything classified to class 1) rather than failing, so
    cross-validation scans stay total.
    """
    (fit,) = build_slda_grid(dataset, [config.m1], [config.m2], config.alpha)
    if isinstance(fit, SldaError):
        raise fit
    return fit


def build_oracle(pop: PopulationSpec) -> LinearRule:
    """Optimal rule from the true parameters: w = Sigma^{-1} delta,
    cutoff w' mu-bar."""
    return _rule(spd_solve(pop.chol, pop.delta), pop.mid)


def labels_from_scores(scores: np.ndarray) -> np.ndarray:
    """Class labels 1 or 2 of the scores w'x - c: class 1 iff the score
    is >= 0, so a tie at 0 (or -0.0) goes to class 1."""
    return np.where(scores >= 0, 1, 2)


def contrast_scores(rule: LinearRule, x: np.ndarray) -> np.ndarray:
    """The (m,) scores w'x - c of the rows of an (m, p) matrix. A row
    with a non-finite score (a NaN or Inf feature, or a w'x that
    overflows) has no label, and raises DataError naming the first."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != rule.p:
        raise ShapeError(f"features shape {x.shape} incompatible with p={rule.p}")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = x @ rule.weights - rule.cutoff
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = bad[0]
        raise DataError(f"row {i} has a non-finite score ({scores[i]}); "
                        "a feature is NaN or Inf, or w'x overflows")
    return scores


def classify_many(rule: LinearRule, x: np.ndarray) -> np.ndarray:
    """Class labels 1 or 2 of the rows of an (m, p) matrix:
    labels_from_scores of contrast_scores."""
    return labels_from_scores(contrast_scores(rule, x))


def classify(rule: LinearRule, x: np.ndarray) -> int:
    """Class label of one sample; the boundary w'x = c goes to class 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rule.p,):
        raise ShapeError(f"classify: sample shape {x.shape} != ({rule.p},)")
    return int(classify_many(rule, x[None, :])[0])
