"""Sample statistics and thresholding estimators: class means and the
centred rows, the pooled covariance S (divisor n, the MLE) and its
diagonal, hard-thresholded Sigma-tilde and delta-tilde, and the inverse
/ generalized-inverse strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, NumericalError, ShapeError, UnusableMatrixError
from .model import Dataset
from .numerics import EIGEN_FLOOR, SymOperator, check_symmetric, cholesky_spd, eigen_sym

# Eigenvalue floor of invert_sparse_sym, relative to lambda_max.
FLOOR_EPS = 1e-8

# Columns per block of pooled_variances, and rows per block of the
# thresholding pass (p = 7129: 1.4 MiB of masks per block).
_VAR_BLOCK = 64
_ROW_BLOCK = 64


def class_means(dataset: Dataset) -> np.ndarray:
    """Per-class feature means, shape (K, p). A sum that overflows gives
    an Inf mean, without a warning, as in pooled_covariance."""
    x = dataset.features
    means = np.empty((dataset.n_classes, dataset.p))
    with np.errstate(over="ignore"):
        for cls in range(1, dataset.n_classes + 1):
            means[cls - 1] = x[dataset.labels == cls].mean(axis=0)
    return means


def centered_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Class means (K, p) and the rows less their class mean (n, p)."""
    x = dataset.features
    means = class_means(dataset)
    centered = np.empty_like(x)
    for cls in range(1, dataset.n_classes + 1):
        mask = dataset.labels == cls
        centered[mask] = x[mask] - means[cls - 1]
    return means, centered


def pooled_covariance(centered: np.ndarray) -> np.ndarray:
    """S = C'C / n of the centred rows C, the maximum likelihood pooled
    covariance (1/n) sum_k sum_i (x_ki - xbar_k)(x_ki - xbar_k)'. numpy
    forms the Gram matrix with a symmetric rank-k update, so S is exactly
    symmetric. A product that overflows is left as Inf or NaN, without a
    warning, for the consumer of S to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = centered.T @ centered
    s /= centered.shape[0]
    return s


def pooled_variances(centered: np.ndarray) -> np.ndarray:
    """diag(S) of pooled_covariance(centered), bit for bit, in O(np)
    time and O(p) memory.

    Each block of _VAR_BLOCK columns goes through the same symmetric
    rank-k update as the whole C'C, which accumulates a diagonal entry in
    the same order. A one-column tail would go to a dot product instead
    and round differently, so it joins the block before it; a column sum
    of squares also rounds differently (up to 6e-16 relative).
    """
    n, p = centered.shape
    starts = list(range(0, p, _VAR_BLOCK))
    if len(starts) > 1 and p - starts[-1] == 1:
        starts.pop()
    variances = np.empty(p)
    with np.errstate(over="ignore", invalid="ignore"):  # as in pooled_covariance
        for a, b in zip(starts, starts[1:] + [p]):
            block = centered[:, a:b]
            variances[a:b] = np.diagonal(block.T @ block)
    variances /= n
    return variances


def pooled_pinv_solve(centered: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S^+ b, the Moore-Penrose inverse of S = pooled_covariance(centered)
    applied to the vector b, without forming S.

    With the thin SVD C = U diag(sv) V' of the n x p centred rows,
    S = V diag(lam) V' with lam = sv^2 / n, so S^+ b = V diag(1/lam) V' b
    over the kept lam, in O(n^2 p) time rather than the O(p^3) of an
    eigendecomposition of S (the rank is at most n - K when p > n - K).
    lam > p eps lam_max is kept and the rest is zeroed, so a zero S
    gives the zero vector. Non-finite rows (LAPACK's SVD may not return
    on an Inf) or an S that overflows raise DomainError, an SVD that
    fails to converge NumericalError.
    """
    n, p = centered.shape
    if not np.isfinite(centered).all():
        raise DomainError("pooled_pinv_solve: centred rows have NaN or Inf entries")
    try:
        _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pooled_pinv_solve: SVD failed to converge: {exc}") from exc
    with np.errstate(over="ignore"):
        lam = sv * sv / n
    if not math.isfinite(lam[0]):  # sv is sorted descending
        raise DomainError("pooled_pinv_solve: the pooled covariance overflows")
    keep = lam > p * np.finfo(float).eps * lam.max()
    kept = vt[keep]
    return kept.T @ ((kept @ b) / lam[keep])


def diagonal_screen(variances: np.ndarray, n: int) -> float:
    """A threshold at and above which Sigma-tilde = diag(S): every
    off-diagonal entry of pooled_covariance(C) has |s_jl| <= it, where
    ``variances`` = pooled_variances(C) and C has n rows. inf when a
    variance is not finite, so that no t_n passes.

    The bound is (1 + g) sqrt(s1 + tau) sqrt(s2 + tau), with s1 >= s2
    the two largest variances, g = 4 (n + 2) eps and tau the smallest
    normal number. In exact arithmetic |c_j'c_l| <= |c_j| |c_l|
    (Cauchy-Schwarz). A computed dot product of length n, in any order
    and with or without fused multiply-adds, is within n u of the sum of
    |products| (u = eps/2), plus an absolute 2^-1074 per product that
    underflows; so fl(c_j'c_l) is at most (1 + n u) |c_j| |c_l| in
    modulus, and fl(|c_j|^2) at least (1 - n u) |c_j|^2. Dividing by n
    costs one more rounding each. Together |s_jl| <= (1 + (n + 1) eps)
    sqrt(s_jj s_ll) to first order, and tau covers the underflow terms.
    The sums, square roots and products that evaluate the bound cost
    five more roundings, so (n + 3.5) eps suffices and g leaves a margin
    of more than 3 (n eps < 0.01 assumed, which holds for any n that
    fits in memory). A bound that overflows is inf, and the screen
    does not fire.
    """
    variances = np.asarray(variances, dtype=float)
    p = variances.shape[0]
    if p < 2:
        raise DomainError(f"diagonal_screen requires p >= 2, got {p}")
    if not np.isfinite(variances).all():
        return math.inf
    s2, s1 = (float(v) for v in np.partition(variances, p - 2)[p - 2:])
    tau = float(np.finfo(float).tiny)
    gamma = 4.0 * (n + 2) * float(np.finfo(float).eps)
    return (1.0 + gamma) * (math.sqrt(s1 + tau) * math.sqrt(s2 + tau))


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
    dropped, so the result equals the input. S itself is not changed.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"threshold_covariance requires a square matrix, got {s.shape}")
    return _threshold_in_place(s.copy(), t_n)


def _threshold_in_place(s: np.ndarray, t_n: float) -> np.ndarray:
    """threshold_covariance for a square float S that the caller no
    longer needs: S is overwritten with Sigma-tilde and returned.

    Row blocks of _ROW_BLOCK rows are masked at a time, so no p x p
    temporary is made; a NaN is dropped, as by the comparison it fails.
    """
    diagonal = np.diagonal(s).copy()
    for i in range(0, s.shape[0], _ROW_BLOCK):
        block = s[i:i + _ROW_BLOCK]
        keep = block > t_n
        keep |= block < -t_n  # |s_jl| > t_n without a float temporary
        block[~keep] = 0.0
    np.fill_diagonal(s, diagonal)
    return s


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
    surface the flag. An asymmetric input raises DomainError. The input
    is checked and scanned for off-diagonal entries once, for both paths.
    """
    checked = check_symmetric(sigma_tilde, "invert_sparse_sym")
    try:
        return cholesky_spd(checked)
    except NotPositiveDefiniteError:
        pass
    d = checked.diagonal
    if d is None:
        eig = eigen_sym(checked)
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
