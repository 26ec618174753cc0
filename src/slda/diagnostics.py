"""Sparsity and regularity diagnostics: the row-wise covariance
sparsity measure C_{h,p}, the mean-difference measure D_{g,p}, the
Mahalanobis separation, threshold bracket counts, the rate quantities
s_n / d_n / a_n / b_n and eigenvalue/mean-gap condition checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .estimation import compute_an
from .model import PopulationSpec
from .numerics import diagonal_of, spd_solve


def sparsity_C(sigma: np.ndarray, h: float) -> float:
    """Row-wise sparsity of a symmetric matrix: max_j sum_l |sigma_jl|^h.

    0^0 counts as 0, so at h = 0 this is the maximum number of nonzero
    entries in a row.
    """
    if not (0.0 <= h < 1.0):
        raise DomainError(f"h must lie in [0, 1), got {h}")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ShapeError(f"sparsity_C requires a square matrix, got {sigma.shape}")
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
    """Separation Delta_p = sqrt(delta' Sigma^{-1} delta), Cholesky solve."""
    w = spd_solve(pop.chol, pop.delta)
    return math.sqrt(float(pop.delta @ w))


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
                    q_n: int, delta_p: float, alpha: float,
                    m2: float = 1.0) -> tuple[float, float, float, float]:
    """Consistency-rate quantities (s_n, d_n, a_n, b_n), natural logs.

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
    log_p = math.log(p)
    s_n = p * math.sqrt(log_p) / math.sqrt(n)
    d_n = c_hp * (log_p / n) ** ((1.0 - h) / 2.0)
    a_n = compute_an(m2, n, p, alpha)
    b_n = max(
        d_n,
        a_n ** (1.0 - g) * math.sqrt(d_gp) / delta_p,
        math.sqrt(c_hp * q_n) / (delta_p * math.sqrt(n)),
    )
    return s_n, d_n, a_n, b_n


@dataclass(frozen=True)
class ConditionReport:
    """Whether eigenvalues of Sigma and max_j delta_j^2 sit in [1/c0, c0]."""

    c0: float
    eig_min: float
    eig_max: float
    max_delta_sq: float
    eig_ok: bool
    delta_ok: bool

    @property
    def passed(self) -> bool:
        return self.eig_ok and self.delta_ok


def eigen_range(sigma: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix: min and max of the
    diagonal when every off-diagonal entry is zero, else from eigvalsh
    of 0.5 (sigma + sigma')."""
    d = diagonal_of(sigma)
    if d is not None:
        return float(d.min()), float(d.max())
    eigvals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    return float(eigvals[0]), float(eigvals[-1])


def condition_check(pop: PopulationSpec, c0: float) -> ConditionReport:
    """Check the bounded-eigenvalue and bounded-mean-gap regularity
    conditions with constant c0 > 1."""
    if c0 <= 1.0:
        raise DomainError(f"c0 must be > 1, got {c0}")
    eig_min, eig_max = eigen_range(pop.covariance)
    max_delta_sq = float(np.max(pop.delta ** 2))
    lo, hi = 1.0 / c0, c0
    return ConditionReport(
        c0=c0,
        eig_min=eig_min,
        eig_max=eig_max,
        max_delta_sq=max_delta_sq,
        eig_ok=(lo <= eig_min and eig_max <= hi),
        delta_ok=(lo <= max_delta_sq <= hi),
    )


def cumulative_proportions(delta_hat: np.ndarray) -> np.ndarray:
    """Cumulative shares of the sorted squared components of delta_hat.

    Entry l is sum_{j<=l} delta_(j)^2 / ||delta||^2 with the squares
    sorted descending; monotone nondecreasing and ending exactly at 1.
    """
    d = np.asarray(delta_hat, dtype=float)
    sq = np.sort(d * d)[::-1]
    cum = np.cumsum(sq)
    total = cum[-1]
    if total <= 0.0:
        raise DomainError("cumulative_proportions requires a nonzero vector")
    return cum / total


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of the sparsity/regularity quantities for one problem.

    ``norm_delta_sq`` accompanies ``max_delta_sq`` because the theory
    constrains the largest component while separation grows with the
    full squared norm; both are reported and interpretation is left to
    the experimenter.
    """

    delta_p: float
    c_hp: float
    d_gp: float
    h: float
    g: float
    q_n0: int
    q_n: int
    q_hat: int
    s_n: float
    d_n: float
    a_n: float
    b_n: float
    eig_min: float
    eig_max: float
    max_delta_sq: float
    norm_delta_sq: float
