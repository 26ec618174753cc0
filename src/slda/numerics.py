"""Scalar normal-distribution functions, RNG streams, samplers and
symmetric-matrix factorizations used by every other module.

The normal CDF goes through the complementary error function; the tail
has a dedicated log-domain path (Laplace continued fraction for the
Mills ratio) so quantities like log Phi(-40) are computed without
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DomainError, NotPositiveDefiniteError, NumericalError, ShapeError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# x above this uses the continued-fraction log-tail; below it, erfc is
# exact and nowhere near underflow.
_TAIL_SWITCH = 8.0

# Relative asymmetry tolerated before factorization refuses the input.
_SYM_RTOL = 1e-8

# Rows per block of the asymmetry check (p = 7129: 7 MiB of temporaries
# where the whole a - a.T took 388 MiB).
_SYM_BLOCK = 64


# ---------------------------------------------------------------------------
# scalar normal distribution
# ---------------------------------------------------------------------------

def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x).

    Evaluated as erfc(-x/sqrt(2))/2; absolute error is at the level of
    double-precision rounding.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite input, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def _mills_ratio_cf(x: float, depth: int = 80) -> float:
    # Laplace continued fraction for Phi(-x)/phi(x):
    #   m(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...))))
    # Converges rapidly for x of a few and up; depth 80 is far past
    # double precision for x >= 8.
    t = 0.0
    for k in range(depth, 0, -1):
        t = k / (x + t)
    return 1.0 / (x + t)


def std_normal_log_tail(x: float) -> float:
    """Natural log of the upper tail Phi(-x) for x >= 0.

    For moderate x this is log(erfc(x/sqrt(2))/2); past the switch point
    the Mills ratio continued fraction keeps full relative accuracy at
    arguments where the tail itself underflows.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"std_normal_log_tail requires finite x >= 0, got {x}")
    if x <= _TAIL_SWITCH:
        return math.log(0.5 * math.erfc(x / _SQRT2))
    return -0.5 * x * x - _LOG_SQRT_2PI + math.log(_mills_ratio_cf(x))


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for substream ``index`` of a 64-bit ``seed``.

    Built on the counter-based Philox generator keyed by
    (seed, index), so the stream for replicate k never depends on how
    many other substreams exist or in what order they are drawn from.
    """
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream(seed: int) -> np.random.Generator:
    """Top-level generator for ``seed`` (substream 0)."""
    return substream(seed, 0)


# ---------------------------------------------------------------------------
# symmetric factorizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of a symmetric positive definite matrix."""

    dim: int
    lower: np.ndarray
    log_determinant: float


@dataclass(frozen=True)
class EigenSym:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns match eigenvalues


def _symmetrize(a: np.ndarray, what: str) -> np.ndarray:
    # Checks, but does not rebuild: potrf and eigh read only the lower
    # triangle, and every matrix the package builds is exactly symmetric.
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError(f"{what} requires dimension >= 1")
    scale = max(float(a.max()), -float(a.min()))  # max |a_jl| without a |a| copy
    if not math.isfinite(scale):
        raise DomainError(f"{what}: input has NaN or Inf entries")
    # max |a_jl - a_lj| over row blocks of the upper triangle: each block
    # holds _SYM_BLOCK rows, so no p x p temporary is made, and the max is
    # the same number as over the full a - a.T.
    n = a.shape[0]
    skew = 0.0
    for i in range(0, n, _SYM_BLOCK):
        j = min(i + _SYM_BLOCK, n)
        block = a[i:j, i:] - a[i:, i:j].T
        skew = max(skew, float(np.abs(block, out=block).max()))
    if scale > 0 and skew > _SYM_RTOL * scale:
        raise DomainError(
            f"{what}: input asymmetry {skew:.3e} exceeds {_SYM_RTOL:.0e} relative"
        )
    return a


def cholesky_spd(a: np.ndarray) -> SpdFactor:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle is read; asymmetry beyond 1e-8 relative is an
    error rather than silently absorbed. A non-positive pivot raises
    NotPositiveDefiniteError carrying the 0-based pivot index.
    """
    a = _symmetrize(a, "cholesky_spd")
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot_index=info - 1)
    if info < 0:
        raise NumericalError(f"cholesky_spd: illegal argument {-info} to LAPACK potrf")
    log_det = 2.0 * float(np.sum(np.log(np.diag(c))))
    return SpdFactor(dim=a.shape[0], lower=c, log_determinant=log_det)


def eigen_sym(a: np.ndarray) -> EigenSym:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = _symmetrize(a, "eigen_sym")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen_sym failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return EigenSym(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def spd_solve(factor: SpdFactor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the Cholesky factor of A (vector or matrix b)."""
    from scipy.linalg import cho_solve

    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.dim:
        raise ShapeError(f"spd_solve: rhs length {b.shape[0]} != dimension {factor.dim}")
    return cho_solve((factor.lower, True), b)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _apply_lower(factor: SpdFactor, z: np.ndarray) -> np.ndarray:
    # L z for (p,) or z L' for (m, p). A diagonal factor multiplies
    # elementwise, which equals the matmul exactly (the off-diagonal
    # contributions are exact zeros) at a fraction of the cost.
    if np.count_nonzero(factor.lower) == factor.dim:
        return z * np.diagonal(factor.lower)
    if z.ndim == 1:
        return factor.lower @ z
    return z @ factor.lower.T


def sample_mvn(mean, factor: SpdFactor, gen: np.random.Generator, size: int | None = None):
    """Draw from N(mean, L L') given the Cholesky factor L.

    Returns a (p,) vector, or an (size, p) matrix when ``size`` is given.
    Output is mean + L z with z standard normal from ``gen``, so the
    result is fully determined by the generator state.
    """
    mean = np.asarray(mean, dtype=float)
    p = factor.dim
    if mean.shape != (p,):
        raise ShapeError(f"sample_mvn: mean shape {mean.shape} != ({p},)")
    if size is None:
        return mean + _apply_lower(factor, gen.standard_normal(p))
    return mean + _apply_lower(factor, gen.standard_normal((size, p)))


def sample_mvt(mean, factor: SpdFactor, df: int, gen: np.random.Generator,
               size: int | None = None):
    """Draw from a multivariate t with ``df`` degrees of freedom.

    ``factor`` is the Cholesky factor of the SCALE matrix Sigma; the
    covariance of the draw is df/(df-2) * Sigma when df > 2. Each draw is
    mean + L z sqrt(df/w) with z standard normal and w chi-square(df),
    both taken from ``gen`` (z first, then w).
    """
    mean = np.asarray(mean, dtype=float)
    p = factor.dim
    if mean.shape != (p,):
        raise ShapeError(f"sample_mvt: mean shape {mean.shape} != ({p},)")
    df = int(df)
    if df < 1:
        raise DomainError(f"sample_mvt: df must be >= 1, got {df}")
    if size is None:
        z = gen.standard_normal(p)
        w = gen.chisquare(df)
        return mean + _apply_lower(factor, z) * math.sqrt(df / w)
    z = gen.standard_normal((size, p))
    w = gen.chisquare(df, size)
    return mean + _apply_lower(factor, z) * np.sqrt(df / w)[:, None]
