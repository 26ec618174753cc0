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
from scipy.linalg import cho_solve
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
# symmetric operators
# ---------------------------------------------------------------------------

DIAGONAL = "diagonal"
CHOLESKY = "cholesky"
EIGEN_FLOOR = "eigen_floor"
PSEUDO = "pseudo"


@dataclass(frozen=True, eq=False)
class SymOperator:
    """A symmetric matrix A with its inverse, or a generalized inverse,
    in the form the structure of A allows; spd_solve applies it.

    ``kind`` follows from the input:
    - "diagonal": A = diag(d), d > 0, held as d, l = sqrt(d) and
      r = 1/l, so solves, draws and products cost O(p);
    - "cholesky": A = L L' with L from LAPACK potrf;
    - "eigen_floor" and "pseudo": V diag(inv) V' from an
      eigendecomposition with floored (eigen_floor) or zeroed (pseudo)
      eigenvalues; V is None when A is diagonal (V = I).

    ``pd_flag`` is True on the two factored kinds; ``floor_count``
    counts floored or zeroed eigenvalues. ``diagonal`` is d whenever A
    has no nonzero off-diagonal entry, else None.
    """

    kind: str
    dim: int
    pd_flag: bool = True
    floor_count: int = 0
    diagonal: np.ndarray | None = None
    _factor: np.ndarray | None = None      # l (diagonal) or L (cholesky)
    _recip: np.ndarray | None = None       # r = 1/l (diagonal)
    _vectors: np.ndarray | None = None     # V (eigen kinds)
    _inv_values: np.ndarray | None = None  # inv (eigen kinds)

    def _require_factor(self, what: str) -> None:
        if self.kind not in (DIAGONAL, CHOLESKY):
            raise DomainError(f"{what} needs a factored operator, got kind {self.kind!r}")

    @property
    def lower(self) -> np.ndarray:
        """Dense lower Cholesky factor L, built on demand for a diagonal A."""
        self._require_factor("lower")
        return np.diag(self._factor) if self.kind == DIAGONAL else self._factor

    @property
    def log_determinant(self) -> float:
        """log det A = 2 sum log l_jj."""
        self._require_factor("log_determinant")
        root = self._factor if self.kind == DIAGONAL else np.diag(self._factor)
        return 2.0 * float(np.sum(np.log(root)))

    def lower_t(self, w: np.ndarray) -> np.ndarray:
        """L' w for a (p,) vector or a (p, m) matrix of columns."""
        self._require_factor("lower_t")
        if self.kind == CHOLESKY:
            return self._factor.T @ w
        return self._factor * w if w.ndim == 1 else self._factor[:, None] * w


@dataclass(frozen=True)
class EigenSym:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns match eigenvalues


def diagonal_of(a: np.ndarray) -> np.ndarray | None:
    """A copy of the diagonal of the square matrix ``a`` when every
    off-diagonal entry is exactly zero, else None.

    One count_nonzero pass over ``a``; a NaN counts as nonzero.
    """
    a = np.asarray(a, dtype=float)
    d = a.diagonal()
    if np.count_nonzero(a) != np.count_nonzero(d):
        return None
    return d.copy()


def _symmetrize(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    # Checks, but does not rebuild: potrf and eigh read only the lower
    # triangle, and every matrix the package builds is exactly symmetric.
    # Returns (a, diagonal_of(a)); a diagonal matrix is symmetric, so
    # only its diagonal is scanned.
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError(f"{what} requires dimension >= 1")
    d = diagonal_of(a)
    if d is not None:
        if not np.isfinite(d).all():
            raise DomainError(f"{what}: input has NaN or Inf entries")
        return a, d
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
    return a, None


@dataclass(frozen=True, eq=False)
class CheckedSym:
    """A square float matrix that passed the input checks of cholesky_spd
    and eigen_sym (finite entries, asymmetry within 1e-8 relative), with
    its ``diagonal`` when no off-diagonal entry is nonzero, else None.

    Both functions take it in place of an array and skip their checks,
    so a caller that tries one after the other scans the matrix once.
    ``matrix`` may be None when ``diagonal`` is set (a finite diagonal
    matrix that was never formed): cholesky_spd then reads only the
    diagonal, and eigen_sym must not be called.
    """

    matrix: np.ndarray | None
    diagonal: np.ndarray | None


def check_symmetric(a: np.ndarray | CheckedSym, what: str) -> CheckedSym:
    """The checks cholesky_spd and eigen_sym apply to their input, run
    once; ``what`` names the caller in the DomainError or ShapeError.
    A CheckedSym is returned as it is."""
    if isinstance(a, CheckedSym):
        return a
    return CheckedSym(*_symmetrize(a, what))


def cholesky_spd(a: np.ndarray | CheckedSym) -> SymOperator:
    """Factor a symmetric positive definite matrix: a "diagonal"
    operator when every off-diagonal entry is zero, else "cholesky".

    Only the lower triangle is read; asymmetry beyond 1e-8 relative is an
    error rather than silently absorbed. A non-positive pivot raises
    NotPositiveDefiniteError carrying the 0-based pivot index (for a
    diagonal, the first d_j <= 0, where potrf would stop). ``a`` may be a
    CheckedSym, which is not checked again.
    """
    checked = check_symmetric(a, "cholesky_spd")
    a, d = checked.matrix, checked.diagonal
    if d is not None:
        bad = np.flatnonzero(d <= 0.0)
        if bad.size:
            raise NotPositiveDefiniteError(pivot_index=int(bad[0]))
        root = np.sqrt(d)
        return SymOperator(kind=DIAGONAL, dim=d.shape[0], diagonal=d,
                           _factor=root, _recip=1.0 / root)
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot_index=info - 1)
    if info < 0:
        raise NumericalError(f"cholesky_spd: illegal argument {-info} to LAPACK potrf")
    return SymOperator(kind=CHOLESKY, dim=a.shape[0], _factor=c)


def eigen_sym(a: np.ndarray | CheckedSym) -> EigenSym:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.
    ``a`` may be a CheckedSym, which is not checked again."""
    a = check_symmetric(a, "eigen_sym").matrix
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen_sym failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return EigenSym(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def spd_solve(op: SymOperator, b: np.ndarray) -> np.ndarray:
    """Apply the inverse (or generalized inverse) held by ``op`` to a
    vector or to the columns of a matrix b."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != op.dim:
        raise ShapeError(f"spd_solve: rhs length {b.shape[0]} != dimension {op.dim}")
    if op.kind == CHOLESKY:
        # no finite-scan of L: potrf's input was checked
        return cho_solve((op._factor, True), b, check_finite=False)
    if op.kind == DIAGONAL:
        # two multiplies by 1/l, as potrs does: (b / l) / l rounds differently
        r = op._recip if b.ndim == 1 else op._recip[:, None]
        return (b * r) * r
    inv = op._inv_values if b.ndim == 1 else op._inv_values[:, None]
    if op._vectors is None:
        return inv * b
    return op._vectors @ (inv * (op._vectors.T @ b))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _apply_lower(op: SymOperator, z: np.ndarray) -> np.ndarray:
    # L z for (p,) or z L' for (m, p); a diagonal L scales the columns.
    if op.kind == DIAGONAL:
        return z * op._factor
    op._require_factor("sampling")
    if z.ndim == 1:
        return op._factor @ z
    return z @ op._factor.T


def sample_mvn(mean, factor: SymOperator, gen: np.random.Generator, size: int | None = None):
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


def sample_mvt(mean, factor: SymOperator, df: int, gen: np.random.Generator,
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
