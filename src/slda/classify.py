"""Rule construction: LDA, known-covariance LDA, thresholded SLDA, the
oracle rule with true parameters, and the pairwise multi-class
extension. Rules assign class 1 iff w'x >= c."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, ShapeError
from .estimation import (
    ClassSummary,
    class_means,
    default_pseudo_rtol,
    invert_sparse_sym,
    nnz_offdiag,
    pseudo_inverse_sym,
    summarize,
    compute_an,
    compute_tn,
    threshold_covariance,
    threshold_delta,
    DEFAULT_FLOOR_EPS,
)
from .model import Dataset, LinearRule, MultiRule, PopulationSpec, ThresholdConfig
from .numerics import SpdFactor, cholesky_spd, spd_solve


@dataclass(frozen=True)
class SparsityReport:
    """Sparsity of a fitted SLDA rule: kept counts and their fractions."""

    p: int
    q_hat: int
    nnz_offdiag: int
    pd_flag: bool
    degenerate: bool

    @property
    def frac_delta_kept(self) -> float:
        return self.q_hat / self.p

    @property
    def frac_cov_kept(self) -> float:
        if self.p < 2:
            return 0.0
        return 2.0 * self.nnz_offdiag / (self.p * (self.p - 1))


def _two_class(summary: ClassSummary, what: str):
    if summary.delta_hat is None:
        raise DomainError(f"{what} requires a two-class dataset")


def build_lda(dataset: Dataset) -> LinearRule:
    """Classical LDA: w = S^{-1} delta_hat, or a Moore-Penrose
    generalized inverse of S when S is singular (p > n - K)."""
    summary = summarize(dataset)
    _two_class(summary, "build_lda")
    s = summary.pooled_cov
    rule_w = None
    if dataset.n - dataset.n_classes >= dataset.p:
        try:
            rule_w = spd_solve(cholesky_spd(s), summary.delta_hat)
        except NotPositiveDefiniteError:
            rule_w = None
    if rule_w is None:
        op = pseudo_inverse_sym(s, rtol=default_pseudo_rtol(dataset.p))
        rule_w = op.apply(summary.delta_hat)
    c = float(rule_w @ summary.grand_mid)
    return LinearRule(weights=rule_w, cutoff=c, degenerate=not np.any(rule_w))


def build_lda_known_sigma(dataset: Dataset, sigma) -> LinearRule:
    """LDA with the covariance known: w = Sigma^{-1} delta_hat.

    ``sigma`` is the SPD matrix or its precomputed SpdFactor (reused
    across replicates by the simulation harness).
    """
    if dataset.n_classes != 2:
        raise DomainError("build_lda_known_sigma requires a two-class dataset")
    means = class_means(dataset)
    delta_hat = means[0] - means[1]
    factor = sigma if isinstance(sigma, SpdFactor) else cholesky_spd(np.asarray(sigma, dtype=float))
    if factor.dim != dataset.p:
        raise ShapeError(f"sigma dimension {factor.dim} != {dataset.p}")
    w = spd_solve(factor, delta_hat)
    c = float(w @ (0.5 * (means[0] + means[1])))
    return LinearRule(weights=w, cutoff=c, degenerate=not np.any(w))


def build_slda(dataset: Dataset, config: ThresholdConfig,
               floor_eps: float = DEFAULT_FLOOR_EPS) -> tuple[LinearRule, SparsityReport]:
    """Sparse LDA: threshold S off-diagonals at t_n and delta_hat at a_n,
    then w = Sigma-tilde^{-1} delta-tilde and cutoff w' xbar.

    If thresholding empties delta the rule is returned degenerate
    (w = 0, everything classified to class 1) rather than failing, so
    cross-validation scans stay total.
    """
    summary = summarize(dataset)
    _two_class(summary, "build_slda")
    n, p = dataset.n, dataset.p
    t_n = compute_tn(config.m1, n, p)
    a_n = compute_an(config.m2, n, p, config.alpha)
    sigma_tilde = threshold_covariance(summary.pooled_cov, t_n)
    nnz = nnz_offdiag(sigma_tilde)
    delta_tilde = threshold_delta(summary.delta_hat, a_n)
    if delta_tilde.q_hat == 0:
        rule = LinearRule(weights=np.zeros(p), cutoff=0.0, degenerate=True)
        report = SparsityReport(p=p, q_hat=0, nnz_offdiag=nnz,
                                pd_flag=True, degenerate=True)
        return rule, report
    op = invert_sparse_sym(sigma_tilde, floor_eps=floor_eps)
    w = op.apply(delta_tilde.vector)
    c = float(w @ summary.grand_mid)
    rule = LinearRule(weights=w, cutoff=c, degenerate=not np.any(w))
    report = SparsityReport(p=p, q_hat=delta_tilde.q_hat, nnz_offdiag=nnz,
                            pd_flag=op.pd_flag, degenerate=rule.degenerate)
    return rule, report


def build_oracle(pop: PopulationSpec) -> LinearRule:
    """Optimal rule from the true parameters: w = Sigma^{-1} delta,
    cutoff w' mu-bar."""
    w = spd_solve(pop.chol, pop.delta)
    c = float(w @ pop.mid)
    return LinearRule(weights=w, cutoff=c, degenerate=not np.any(w))


def score(rule: LinearRule, x: np.ndarray) -> float:
    """Signed decision score w'x - c (class 1 iff >= 0)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rule.p,):
        raise ShapeError(f"classify: sample shape {x.shape} != ({rule.p},)")
    return float(rule.weights @ x - rule.cutoff)


def classify(rule: LinearRule, x: np.ndarray) -> int:
    """Class label in {1, 2}; the boundary w'x = c goes to class 1."""
    return 1 if score(rule, x) >= 0.0 else 2


def classify_many(rule: LinearRule, x: np.ndarray) -> np.ndarray:
    """Vectorized classify over the rows of an (m, p) matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != rule.p:
        raise ShapeError(f"classify_many: features shape {x.shape} incompatible with p={rule.p}")
    return np.where(x @ rule.weights >= rule.cutoff, 1, 2)


def build_slda_multi(dataset: Dataset, config: ThresholdConfig,
                     floor_eps: float = DEFAULT_FLOOR_EPS) -> MultiRule:
    """Pairwise SLDA for K >= 3 classes.

    One Sigma-tilde is shared (pooled S over all classes, thresholded at
    t_n) and every pairwise delta_hat_kl is thresholded at the common
    a_n, matching the two-class construction contrast by contrast.
    """
    if dataset.n_classes < 3:
        raise DomainError(f"build_slda_multi requires K >= 3, got K={dataset.n_classes}")
    summary = summarize(dataset)
    n, p, k = dataset.n, dataset.p, dataset.n_classes
    t_n = compute_tn(config.m1, n, p)
    a_n = compute_an(config.m2, n, p, config.alpha)
    sigma_tilde = threshold_covariance(summary.pooled_cov, t_n)
    op = invert_sparse_sym(sigma_tilde, floor_eps=floor_eps)
    pairwise = {}
    for a in range(1, k):
        for b in range(a + 1, k + 1):
            delta_ab = summary.class_means[a - 1] - summary.class_means[b - 1]
            tilde = threshold_delta(delta_ab, a_n)
            if tilde.q_hat == 0:
                rule = LinearRule(weights=np.zeros(p), cutoff=0.0, degenerate=True)
            else:
                w = op.apply(tilde.vector)
                mid = 0.5 * (summary.class_means[a - 1] + summary.class_means[b - 1])
                rule = LinearRule(weights=w, cutoff=float(w @ mid), degenerate=not np.any(w))
            pairwise[(a, b)] = rule
    return MultiRule(pairwise=pairwise, n_classes=k)


def classify_multi(rule: MultiRule, x: np.ndarray) -> int:
    """Class label in 1..K by the maximin pairwise score.

    Returns the k maximizing min_{l != k} s_kl(x). Whenever some k has
    every pairwise score >= 0 that k wins (all rivals' minima are <= 0
    by antisymmetry), so this extends the all-pairs rule to probes where
    no class dominates outright. Ties go to the lowest index.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (rule.p,):
        raise ShapeError(f"classify_multi: sample shape {x.shape} != ({rule.p},)")
    return int(classify_multi_many(rule, x[None, :])[0])


def maximin_labels(pair_scores: np.ndarray, pairs: list[tuple[int, int]],
                   k: int) -> np.ndarray:
    """Maximin class labels in 1..k from pairwise contrast scores.

    Column j of the (m, len(pairs)) ``pair_scores`` holds s_ab for
    ``pairs[j] = (a, b)``; the reversed contrast s_ba is its negation.
    Each row goes to the class c maximizing min_{l != c} s_cl, ties to
    the lowest index. With k = 2 and the single pair (1, 2) this is the
    linear rule "class 1 iff s_12 >= 0", the tie at 0 (or -0.0)
    included.
    """
    pair_scores = np.asarray(pair_scores, dtype=float)
    worst = np.full((pair_scores.shape[0], k), np.inf)  # self-contrast never binds
    for j, (a, b) in enumerate(pairs):
        np.minimum(worst[:, a - 1], pair_scores[:, j], out=worst[:, a - 1])
        np.minimum(worst[:, b - 1], -pair_scores[:, j], out=worst[:, b - 1])
    return np.argmax(worst, axis=1) + 1


def classify_multi_many(rule: MultiRule, x: np.ndarray) -> np.ndarray:
    """Vectorized classify_multi over the rows of an (m, p) matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != rule.p:
        raise ShapeError(f"classify_multi_many: features shape {x.shape} incompatible with p={rule.p}")
    pairs = sorted(rule.pairwise)
    scores = np.column_stack([x @ rule.pairwise[ab].weights - rule.pairwise[ab].cutoff
                              for ab in pairs])
    return maximin_labels(scores, pairs, rule.n_classes)
