"""Sample statistics and thresholding estimators: class means, pooled
covariance S (divisor n, the MLE), hard-thresholded Sigma-tilde and
delta-tilde, and the inverse / generalized-inverse strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, ShapeError, UnusableMatrixError
from .model import Dataset
from .numerics import (
    EIGEN_FLOOR,
    PSEUDO,
    SymOperator,
    cholesky_spd,
    diagonal_of,
    eigen_sym,
)

# Eigenvalue floor of invert_sparse_sym, relative to lambda_max.
FLOOR_EPS = 1e-8


@dataclass(frozen=True)
class ClassSummary:
    """Per-class means, pooled covariance and two-class derived vectors.

    ``delta_hat`` and ``grand_mid`` are None for K >= 3 (pairwise
    contrasts are formed from ``class_means`` instead).
    """

    class_means: np.ndarray          # (K, p)
    pooled_cov: np.ndarray           # (p, p), divisor n
    delta_hat: np.ndarray | None     # xbar_1 - xbar_2
    grand_mid: np.ndarray | None     # (xbar_1 + xbar_2)/2


def class_means(dataset: Dataset) -> np.ndarray:
    """Per-class feature means, shape (K, p)."""
    x = dataset.features
    means = np.empty((dataset.n_classes, dataset.p))
    for cls in range(1, dataset.n_classes + 1):
        means[cls - 1] = x[dataset.labels == cls].mean(axis=0)
    return means


def summarize(dataset: Dataset) -> ClassSummary:
    """Maximum likelihood class means and pooled covariance.

    S = (1/n) sum_k sum_i (x_ki - xbar_k)(x_ki - xbar_k)', divisor n
    rather than n-K. numpy forms the Gram matrix of the centred rows
    with a symmetric rank-k update, so S is exactly symmetric.
    """
    x = dataset.features
    n, p = x.shape
    k = dataset.n_classes
    means = class_means(dataset)
    centered = np.empty_like(x)
    for cls in range(1, k + 1):
        mask = dataset.labels == cls
        centered[mask] = x[mask] - means[cls - 1]
    s = centered.T @ centered
    s /= n
    if k == 2:
        delta = means[0] - means[1]
        mid = 0.5 * (means[0] + means[1])
    else:
        delta = None
        mid = None
    return ClassSummary(class_means=means, pooled_cov=s, delta_hat=delta, grand_mid=mid)


def compute_tn(m1: float, n: int, p: int) -> float:
    """Covariance threshold t_n = M1 sqrt(log p / n) (natural log)."""
    if p < 2:
        raise DomainError(f"compute_tn requires p >= 2, got {p}")
    if n < 1:
        raise DomainError(f"compute_tn requires n >= 1, got {n}")
    return float(m1) * math.sqrt(math.log(p) / n)


def compute_an(m2: float, n: int, p: int, alpha: float) -> float:
    """Mean-difference threshold a_n = M2 (log p / n)^alpha."""
    if p < 2:
        raise DomainError(f"compute_an requires p >= 2, got {p}")
    if n < 1:
        raise DomainError(f"compute_an requires n >= 1, got {n}")
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie strictly inside (0, 1/2), got {alpha}")
    return float(m2) * (math.log(p) / n) ** alpha


def threshold_covariance(s: np.ndarray, t_n: float) -> np.ndarray:
    """Sigma-tilde: S with off-diagonal entries |s_jl| <= t_n set to 0.0.

    Off-diagonal entries with |s_jl| > t_n (strict) keep their value and
    the diagonal is copied exactly. With t_n = 0 only exact zeros are
    dropped, so the result equals the input.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"threshold_covariance requires a square matrix, got {s.shape}")
    keep = s > t_n
    keep |= s < -t_n  # |s_jl| > t_n without a p x p float temporary
    sigma = np.where(keep, s, 0.0)
    np.fill_diagonal(sigma, np.diagonal(s))
    return sigma


def nnz_offdiag(sigma_tilde: np.ndarray) -> int:
    """Number of nonzero strictly-upper-triangle entries of a symmetric
    matrix; for a t_n >= 0 threshold, the number of kept pairs."""
    return (np.count_nonzero(sigma_tilde) - np.count_nonzero(np.diagonal(sigma_tilde))) // 2


@dataclass(frozen=True)
class ThresholdedDelta:
    """Hard-thresholded mean-difference vector with its kept-index set."""

    vector: np.ndarray   # dense, zeros where dropped
    kept: np.ndarray     # indices with |delta_hat_j| > a_n

    @property
    def q_hat(self) -> int:
        return int(self.kept.shape[0])


def threshold_delta(delta_hat: np.ndarray, a_n: float) -> ThresholdedDelta:
    """Keep components with |delta_hat_j| > a_n (strict), zero the rest."""
    if a_n < 0:
        raise DomainError(f"a_n must be >= 0, got {a_n}")
    d = np.asarray(delta_hat, dtype=float)
    keep = np.abs(d) > a_n
    out = np.where(keep, d, 0.0)
    return ThresholdedDelta(vector=out, kept=np.flatnonzero(keep))


def invert_sparse_sym(sigma_tilde: np.ndarray) -> SymOperator:
    """Invert a thresholded covariance, falling back to an eigenvalue floor.

    cholesky_spd is attempted first (O(p) when sigma_tilde is diagonal).
    If a pivot fails, eigenvalues are floored at FLOOR_EPS * lambda_max
    and the operator is flagged (pd_flag False, floor_count = number
    floored); a diagonal sigma_tilde is its own eigendecomposition.
    Thresholding can destroy positive definiteness, so callers should
    surface the flag. An asymmetric input raises DomainError.
    """
    try:
        return cholesky_spd(sigma_tilde)
    except NotPositiveDefiniteError:
        pass
    d = diagonal_of(sigma_tilde)
    if d is None:
        eig = eigen_sym(sigma_tilde)
        values, vectors = eig.eigenvalues, eig.eigenvectors
    else:
        values, vectors = d, None
    lam_max = float(values.max())
    if lam_max <= 0:
        raise UnusableMatrixError(
            f"thresholded covariance has no positive part (lambda_max={lam_max:.3e})"
        )
    floor = FLOOR_EPS * lam_max
    floored = np.maximum(values, floor)
    n_floored = int(np.sum(values < floor))
    return SymOperator(kind=EIGEN_FLOOR, dim=values.shape[0], pd_flag=False,
                       floor_count=n_floored, diagonal=d,
                       _vectors=vectors, _inv_values=1.0 / floored)


def pseudo_inverse_sym(s: np.ndarray, rtol: float) -> SymOperator:
    """Moore-Penrose pseudo-inverse of a symmetric matrix.

    Eigenvalues with |lambda| > rtol * max|lambda| are inverted, the
    rest zeroed. If everything falls below the cutoff the operator is
    the zero map (floor_count == dim).
    """
    if rtol <= 0:
        raise DomainError(f"rtol must be > 0, got {rtol}")
    eig = eigen_sym(np.asarray(s, dtype=float))
    absvals = np.abs(eig.eigenvalues)
    cutoff = rtol * (absvals.max() if absvals.size else 0.0)
    keep = absvals > cutoff
    inv = np.zeros_like(eig.eigenvalues)
    inv[keep] = 1.0 / eig.eigenvalues[keep]
    return SymOperator(kind=PSEUDO, dim=eig.eigenvalues.shape[0],
                       pd_flag=False, floor_count=int(np.sum(~keep)),
                       _vectors=eig.eigenvectors, _inv_values=inv)


def default_pseudo_rtol(p: int) -> float:
    """Spectral-cutoff default: p times double-precision epsilon."""
    return p * np.finfo(float).eps
