"""Sparsity and regularity diagnostics: the row-wise covariance
sparsity measure C_{h,p}, the mean-difference measure D_{g,p}, the
Mahalanobis separation, threshold bracket counts, the rate quantities
s_n / d_n / b_n and the eigenvalue/mean-gap condition check."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .model import PopulationSpec
from .numerics import pow2_scaled, spd_solve


def sparsity_C(sigma: np.ndarray, h: float) -> float:
    """Row-wise sparsity of a symmetric matrix: max_j sum_l |sigma_jl|^h.

    0^0 counts as 0, so at h = 0 this is the maximum number of nonzero
    entries in a row. A (p,) vector d stands for diag(d): row j holds d_j.
    """
    if not (0.0 <= h < 1.0):
        raise DomainError(f"h must lie in [0, 1), got {h}")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 1:
        sigma = sigma[:, None]
    elif sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ShapeError(f"sparsity_C requires a square matrix or a (p,) diagonal, "
                         f"got {sigma.shape}")
    if h == 0.0:
        # a per-row count of the entries with |sigma_jl| > 0 (NaN is not)
        nonzero = np.count_nonzero(sigma, axis=1) - np.count_nonzero(np.isnan(sigma), axis=1)
        return float(nonzero.max())
    mag = np.abs(sigma)
    powered = np.where(mag > 0.0, mag ** h, 0.0)
    return float(powered.sum(axis=1).max())


def sparsity_D(delta: np.ndarray, g: float) -> float:
    """Mean-difference sparsity: sum_j delta_j^{2g} with 0^0 := 0."""
    if not (0.0 <= g < 1.0):
        raise DomainError(f"g must lie in [0, 1), got {g}")
    delta = np.asarray(delta, dtype=float)
    mag = np.abs(delta)
    return float(np.where(mag > 0.0, mag ** (2.0 * g), 0.0).sum())


def mahalanobis_delta(pop: PopulationSpec) -> float:
    """Separation Delta_p = sqrt(delta' Sigma^{-1} delta), Cholesky solve.
    Delta_p is homogeneous in delta, so the form is taken at
    pow2_scaled(delta), where it neither under- nor overflows, and its
    root scaled back: the bits of the unscaled formula."""
    delta, e = pow2_scaled(pop.delta)
    return math.ldexp(math.sqrt(float(delta @ spd_solve(pop.chol, delta))), e)


def lemma2_counts(delta: np.ndarray, a_n: float, r: float) -> tuple[int, int]:
    """Bracket counts around a threshold a_n with window factor r > 1.

    Returns (q_n0, q_n): the number of components with |delta_j| > r a_n
    and with |delta_j| > a_n / r. The count of estimated components
    above a_n falls inside [q_n0, q_n] with probability tending to one.
    """
    if r <= 1.0:
        raise DomainError(f"r must be > 1, got {r}")
    if a_n < 0.0:
        raise DomainError(f"a_n must be >= 0, got {a_n}")
    mag = np.abs(np.asarray(delta, dtype=float))
    q_n0 = int(np.sum(mag > r * a_n))
    q_n = int(np.sum(mag > a_n / r))
    return q_n0, q_n


def rate_quantities(n: int, p: int, h: float, g: float, c_hp: float, d_gp: float,
                    q_n: int, delta_p: float, a_n: float) -> tuple[float, float, float]:
    """Consistency-rate quantities (s_n, d_n, b_n), natural logs, at the
    mean-difference threshold a_n >= 0.

    s_n = p sqrt(log p)/sqrt(n) governs plain-LDA consistency;
    d_n = C_{h,p} (log p / n)^{(1-h)/2} the thresholded-covariance error;
    b_n = max{d_n, a_n^{1-g} sqrt(D_{g,p})/Delta_p,
              sqrt(C_{h,p} q_n)/(Delta_p sqrt(n))} the SLDA optimality rate.
    """
    if p < 2:
        raise DomainError(f"rate_quantities requires p >= 2, got {p}")
    if n < 1:
        raise DomainError(f"rate_quantities requires n >= 1, got {n}")
    if not (0.0 <= h < 1.0) or not (0.0 <= g < 1.0):
        raise DomainError("h and g must lie in [0, 1)")
    if delta_p <= 0.0:
        raise DomainError(f"rate_quantities requires Delta_p > 0, got {delta_p}")
    if q_n < 0:
        raise DomainError(f"q_n must be >= 0, got {q_n}")
    if a_n < 0.0:
        raise DomainError(f"a_n must be >= 0, got {a_n}")
    log_p = math.log(p)
    s_n = p * math.sqrt(log_p) / math.sqrt(n)
    d_n = c_hp * (log_p / n) ** ((1.0 - h) / 2.0)
    b_n = max(
        d_n,
        a_n ** (1.0 - g) * math.sqrt(d_gp) / delta_p,
        math.sqrt(c_hp * q_n) / (delta_p * math.sqrt(n)),
    )
    return s_n, d_n, b_n


def eigen_range(sigma: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix: min and max of a
    (p,) vector d, which stands for diag(d), else from eigvalsh of sigma,
    or of 0.5 sigma + 0.5 sigma' when sigma is not exactly symmetric
    (halved first, so no entry near the float limit overflows)."""
    if sigma.ndim == 1:
        return float(sigma.min()), float(sigma.max())
    if not np.array_equal(sigma, sigma.T):
        sigma = 0.5 * sigma + 0.5 * sigma.T
    eigvals = np.linalg.eigvalsh(sigma)
    return float(eigvals[0]), float(eigvals[-1])


def condition_check(eig_min: float, eig_max: float, max_delta_sq: float, c0: float) -> bool:
    """The bounded-eigenvalue and bounded-mean-gap regularity conditions
    with constant c0 > 1: Sigma's eigenvalues (eig_min, eig_max, from
    eigen_range) and max_j delta_j^2 all lie in [1/c0, c0]."""
    if c0 <= 1.0:
        raise DomainError(f"c0 must be > 1, got {c0}")
    lo, hi = 1.0 / c0, c0
    return lo <= eig_min and eig_max <= hi and lo <= max_delta_sq <= hi


def cumulative_proportions(delta_hat: np.ndarray) -> np.ndarray:
    """Cumulative shares of the sorted squared components of delta_hat.

    Entry l is sum_{j<=l} delta_(j)^2 / ||delta||^2 with the squares
    sorted descending; monotone nondecreasing and ending exactly at 1.
    The shares do not depend on the length of delta_hat, so it is first
    scaled by pow2_scaled, which keeps ||delta||^2 from under- or
    overflowing and leaves the bits of the shares unchanged.
    """
    d = pow2_scaled(np.asarray(delta_hat, dtype=float))[0]
    cum = np.cumsum(np.sort(d * d)[::-1])
    total = cum[-1]
    if total <= 0.0:
        raise DomainError("cumulative_proportions requires a nonzero vector")
    return cum / total
