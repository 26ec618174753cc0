"""Sample statistics and thresholding estimators: class means and the
centred rows, the pooled covariance S (divisor n, the MLE) and its
diagonal, the diagonal screen, hard-thresholded Sigma-tilde and
delta-tilde, and S's spectrum and generalized inverse from one thin SVD."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError
from .model import Dataset

# Columns per block of pooled_variances, and rows per block of the
# thresholding pass (p = 7129: 1.4 MiB of masks per block).
_VAR_BLOCK = 64
_ROW_BLOCK = 64


def class_means(dataset: Dataset) -> np.ndarray:
    """Per-class feature means, shape (K, p). Finite features whose class
    sum overflows (values near 1e308) raise DomainError naming the class
    and the first feature whose mean is not finite."""
    x = dataset.features
    means = np.empty((dataset.n_classes, dataset.p))
    with np.errstate(over="ignore"):
        for cls in range(1, dataset.n_classes + 1):
            means[cls - 1] = x[dataset.labels == cls].mean(axis=0)
    bad = np.argwhere(~np.isfinite(means))
    if bad.size:
        cls, j = bad[0]
        raise DomainError(f"class {cls + 1} mean of feature {j + 1} is not finite: "
                          "the class sum overflows")
    return means


def centered_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Class means (K, p) and the rows less their class mean (n, p), in
    the memory order of the rows. Each row's class mean is gathered into
    the output, which then takes x - mean in place: every cell gets the
    subtraction it would get class by class, so the bits are the same,
    and no per-class copy of the rows is made."""
    x = dataset.features
    means = class_means(dataset)
    centered = np.empty_like(x)
    # labels lie in 1..K, so "clip" never clips; it lets take write to out unbuffered
    np.take(means, dataset.labels - 1, axis=0, out=centered, mode="clip")
    np.subtract(x, centered, out=centered)
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


def pooled_spectrum(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, vt): S = pooled_covariance(centered) = vt' diag(lam) vt, from
    the thin SVD C = U diag(sv) V' of the n x p centred rows, without
    forming S: lam = sv^2 / n, descending, and the rows of vt are their
    eigenvectors. It costs O(n^2 p) rather than the O(p^3) of an
    eigendecomposition of S. S's other p - min(n, p) eigenvalues are
    exact zeros, and its rank is at most n - K when p > n - K.
    Non-finite rows (LAPACK's SVD may not return on an Inf) or an S that
    overflows raise DomainError, an SVD that fails to converge
    NumericalError.
    """
    if not np.isfinite(centered).all():
        raise DomainError("pooled_spectrum: centred rows have NaN or Inf entries")
    try:
        _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pooled_spectrum: SVD failed to converge: {exc}") from exc
    with np.errstate(over="ignore"):
        lam = sv * sv / centered.shape[0]
    if not math.isfinite(lam[0]):
        raise DomainError("pooled_spectrum: the pooled covariance overflows")
    return lam, vt


def pinv_solve(lam: np.ndarray, vt: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S^+ b, the Moore-Penrose inverse of S = vt' diag(lam) vt (as from
    pooled_spectrum) applied to the vector b: V diag(1/lam) V' b over the
    kept lam. lam > p eps lam_max is kept and the rest is zeroed, so a
    zero S gives the zero vector."""
    keep = lam > vt.shape[1] * np.finfo(float).eps * lam[0]
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


def _threshold_in_place(s: np.ndarray, t_n: float) -> np.ndarray:
    """Sigma-tilde, written over the square float S, which the caller no
    longer needs: off-diagonal entries |s_jl| <= t_n are set to 0.0, those
    with |s_jl| > t_n (strict) and the diagonal keep their value.

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


def threshold_delta(delta_hat: np.ndarray, a_n: float) -> np.ndarray:
    """delta-tilde: components with |delta_hat_j| > a_n (strict) kept, the
    rest zeroed. A kept component is nonzero and a NaN is never kept, so
    q_hat = np.count_nonzero(delta-tilde)."""
    if a_n < 0:
        raise DomainError(f"a_n must be >= 0, got {a_n}")
    d = np.asarray(delta_hat, dtype=float)
    return np.where(np.abs(d) > a_n, d, 0.0)
