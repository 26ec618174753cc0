"""Scalar normal and Student t distribution functions, RNG streams,
samplers and the symmetric operator used by every other module.
cholesky_spd factors a symmetric positive definite matrix, or a diagonal
one given as its (p,) vector, after one input check; invert_sparse_sym
falls back from it to an eigenvalue floor, and spd_solve applies either.

The normal CDF goes through the complementary error function; the log
of its tail is scipy's log_ndtr, so quantities like log Phi(-40) are
computed without underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dormqr, dstevd, dsytrd, dsytrd_lwork, get_lapack_funcs

from .errors import DomainError, NotPositiveDefiniteError, NumericalError, ShapeError, UnusableMatrixError

_SQRT2 = math.sqrt(2.0)

# Relative asymmetry tolerated before factorization refuses the input.
_SYM_RTOL = 1e-8

# Eigenvalue floor of invert_sparse_sym, relative to lambda_max.
FLOOR_EPS = 1e-8

# Rows per block of the asymmetry check (p = 7129: 7 MiB of temporaries
# where the whole a - a.T took 388 MiB), and of the in-place transpose and
# reflector move of invert_sparse_sym.
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


def std_normal_log_tail(x: float) -> float:
    """Natural log of the upper tail Phi(-x) for x >= 0, by scipy's
    log_ndtr, which keeps full relative accuracy at arguments where the
    tail itself underflows.
    """
    from scipy.special import log_ndtr  # imported on first call, as in student_t_cdf

    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"std_normal_log_tail requires finite x >= 0, got {x}")
    return float(log_ndtr(-x))


def student_t_cdf(x: float, df: int) -> float:
    """Student t distribution function F_df(x) for an integer df >= 1.

    Evaluated by scipy's stdtr (a regularized incomplete beta function),
    within 1e-13 relative of a high-precision reference in both tails.
    """
    # imported here, not with the module: scipy.special adds about 60 ms
    # to the import of scipy.linalg, and only t rates need it
    from scipy.special import stdtr

    x, df = float(x), check_df(df, "student_t_cdf")
    if not math.isfinite(x):
        raise DomainError(f"student_t_cdf requires finite input, got {x}")
    return float(stdtr(df, x))


def pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e v, e) with max |2^-e v_j| in [1/2, 1), e = 0 for a zero v: a
    scaling exact for every entry that stays normal, which brings a
    quadratic form in v that under- or overflows back into range."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return np.ldexp(v, -e), e


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


@dataclass(frozen=True, eq=False)
class SymOperator:
    """A symmetric matrix A with its inverse, or a generalized inverse,
    in the form the structure of A allows; spd_solve applies it.

    ``kind`` follows from the shape of the input:
    - "diagonal": A = diag(d) given as its (p,) vector d > 0, held as
      l = sqrt(d) and r = 1/l, so solves and draws cost O(p);
    - "cholesky": a (p, p) matrix A = L L' with L from LAPACK potrf;
    - "eigen_floor": Q Z diag(inv) Z' Q' with floored eigenvalues
      (invert_sparse_sym): A = Q T Q' from LAPACK sytrd, Q held as its
      p - 1 Householder reflectors and their tau, and T = Z diag(values) Z'
      from stevd. The eigenvectors V = Q Z are
      never formed. Z and Q are None when A was given as its (p,)
      diagonal or is 1 x 1 (V = I). The reflectors may be a view into
      the buffer of the caller's A (invert_sparse_sym with overwrite_a).

    ``pd_flag`` is True on the two factored kinds, the only ones the
    samplers draw from; ``floor_count`` counts floored eigenvalues.
    """

    kind: str
    dim: int
    floor_count: int = 0
    _factor: np.ndarray | None = None      # l (diagonal) or L (cholesky)
    _recip: np.ndarray | None = None       # r = 1/l (diagonal)
    _vectors: np.ndarray | None = None     # Z (eigen_floor)
    _inv_values: np.ndarray | None = None  # inv (eigen_floor)
    _reflectors: np.ndarray | None = None  # Q's vectors, (p-1, p-1) Fortran (eigen_floor)
    _tau: np.ndarray | None = None         # Q's scalars, (p-1,) (eigen_floor)

    @property
    def pd_flag(self) -> bool:
        return self.kind != EIGEN_FLOOR


def _symmetrize(a: np.ndarray, what: str) -> np.ndarray:
    # Checks, but does not rebuild: potrf and sytrd read only the lower
    # triangle, and every matrix the package builds is exactly symmetric.
    # A (p,) vector d stands for diag(d) and gets an O(p) finite check.
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[0] != a.shape[-1]:
        raise ShapeError(f"{what} requires a square matrix or a (p,) diagonal, "
                         f"got shape {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError(f"{what} requires dimension >= 1")
    scale = max(float(a.max()), -float(a.min()))  # max |a_jl| without a |a| copy
    if not math.isfinite(scale):
        raise DomainError(f"{what}: input has NaN or Inf entries")
    if a.ndim == 1:
        return a
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


def cholesky_spd(a: np.ndarray) -> SymOperator:
    """Factor a symmetric positive definite matrix ("cholesky"), or the
    diagonal matrix diag(d) given as its (p,) vector d ("diagonal", in
    O(p)). A matrix always takes potrf, whatever its zeros.

    Only the lower triangle is read; asymmetry beyond 1e-8 relative is an
    error rather than silently absorbed. A non-positive pivot raises
    NotPositiveDefiniteError carrying the 0-based pivot index (for a
    diagonal, the first d_j <= 0, where potrf would stop).
    """
    a = _symmetrize(a, "cholesky_spd")
    if a.ndim == 1:
        bad = np.flatnonzero(a <= 0.0)
        if bad.size:
            raise NotPositiveDefiniteError(pivot_index=int(bad[0]))
        root = np.sqrt(a)
        return SymOperator(kind=DIAGONAL, dim=a.shape[0], _factor=root, _recip=1.0 / root)
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot_index=info - 1)
    if info < 0:
        raise NumericalError(f"cholesky_spd: illegal argument {-info} to LAPACK potrf")
    return SymOperator(kind=CHOLESKY, dim=a.shape[0], _factor=c)


def invert_sparse_sym(sigma_tilde: np.ndarray, *, overwrite_a: bool = False) -> SymOperator:
    """Invert a thresholded covariance, falling back to an eigenvalue floor.

    ``sigma_tilde`` is a square matrix, or the (p,) vector d of a
    diagonal one, diag(d). cholesky_spd is attempted first (O(p) for the
    vector) and checks the input, once for both paths: an asymmetric or
    non-finite input raises DomainError. If a pivot fails, eigenvalues
    are floored at FLOOR_EPS * lambda_max and the operator is flagged
    (pd_flag False, floor_count = number floored). The vector (or a
    1 x 1 matrix) is its own eigendecomposition; a matrix is reduced to
    tridiagonal T = Q' A Q by LAPACK sytrd and T's eigenvalues and
    vectors Z come from stevd (ascending), so A's eigenvectors Q Z are
    never formed: spd_solve applies Q, Z, Z' and Q'. Thresholding can
    destroy positive definiteness, so callers should surface the flag.

    The floor reduces a private C-ordered copy of the matrix, whose
    buffer then holds Q's reflectors, so by default the input is never
    changed. With ``overwrite_a`` a C-contiguous writeable float matrix
    is not copied: it is reduced in its own buffer, the operator's
    ``_reflectors`` is a view into it, and its values are gone. The
    operator is the same, bit for bit.
    """
    try:
        return cholesky_spd(sigma_tilde)
    except NotPositiveDefiniteError:
        pass
    a = np.asarray(sigma_tilde, dtype=float)  # checked by cholesky_spd
    vectors = reflectors = tau = None
    if a.ndim == 2 and a.shape[0] > 1:
        if not (overwrite_a and a.flags.c_contiguous and a.flags.writeable):
            a = a.copy()
        reflectors, diag, off, tau = _tridiagonalize(a)
        values, vectors, info = dstevd(diag, off)
        if info != 0:
            raise NumericalError(f"invert_sparse_sym: LAPACK stevd failed (info {info})")
    else:
        values = a.reshape(-1)
    lam_max = float(values.max())
    if lam_max <= 0:
        raise UnusableMatrixError(
            f"thresholded covariance has no positive part (lambda_max={lam_max:.3e})"
        )
    floor = FLOOR_EPS * lam_max
    floored = np.maximum(values, floor)
    n_floored = int(np.sum(values < floor))
    return SymOperator(kind=EIGEN_FLOOR, dim=values.shape[0], floor_count=n_floored,
                       _vectors=vectors, _inv_values=1.0 / floored, _reflectors=reflectors, _tau=tau)


def _tridiagonalize(a: np.ndarray):
    # A = Q T Q' by sytrd on the lower triangle, as potrf reads it, in the
    # buffer of the C-contiguous a: Q's reflectors as a (p-1, p-1) Fortran
    # view of that buffer, T's diagonal and off-diagonal, and Q's tau.
    # a is first transposed where it lies, row strip with column strip, so
    # that its Fortran view a.T holds a's bits in sytrd's memory order
    # (a nearly symmetric a included), and sytrd overwrites a.T.
    p = a.shape[0]
    for i in range(0, p, _SYM_BLOCK):
        j = min(i + _SYM_BLOCK, p)
        strip = a[i:j, i:].copy()
        a[i:j, i:] = a[i:, i:j].T
        a[i:, i:j] = strip.T
    lwork, _ = dsytrd_lwork(p, lower=1)
    c, diag, off, tau, info = dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info < 0:
        raise NumericalError(f"invert_sparse_sym: illegal argument {-info} to LAPACK sytrd")
    # Q = H(1)...H(p-1): the vector of H(i) lies below the diagonal of
    # column i of c[1:, :-1], its leading 1 implied. Those columns move to
    # a (p-1, p-1) Fortran view at the start of the buffer, a block at a
    # time: a block lands before the source of the next one starts, and
    # numpy copies a source that overlaps its destination first.
    m = p - 1
    flat = a.reshape(-1)
    for k in range(0, m, _SYM_BLOCK):
        k1 = min(k + _SYM_BLOCK, m)
        flat[k * m:k1 * m].reshape(k1 - k, m)[...] = c[1:, k:k1].T
    return flat[:m * m].reshape((m, m), order="F"), diag, off, tau


def _apply_q(op: SymOperator, b: np.ndarray, trans: str) -> np.ndarray:
    # Q b ("N") or Q' b ("T") for the sytrd Q = H(1)...H(p-1) of an
    # eigen_floor operator; the reflectors act on rows 1..p-1 only. The
    # minimum workspace selects LAPACK's unblocked ormqr, which is faster
    # than the blocked one for the few columns a fit solves.
    tail = b[1:].reshape(op.dim - 1, -1)
    out, _, info = dormqr("L", trans, op._reflectors, op._tau, tail, max(1, tail.shape[1]))
    if info < 0:
        raise NumericalError(f"spd_solve: illegal argument {-info} to LAPACK ormqr")
    return np.concatenate((b[:1], out.reshape(b[1:].shape)))


def spd_solve(op: SymOperator, b: np.ndarray) -> np.ndarray:
    """Apply the inverse (or floored inverse) held by ``op`` to a
    vector or to the columns of a matrix b. On an eigen_floor matrix
    that is Q (Z (inv * Z' (Q' b))): two reflector sweeps of O(p^2 m)
    and two products with Z."""
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
    z = op._vectors
    return _apply_q(op, z @ (inv * (z.T @ _apply_q(op, b, "T"))), "N")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def check_df(df, what: str) -> int:
    """df as an int; DomainError unless it is an integer >= 1 (not a bool)."""
    if (isinstance(df, (bool, np.bool_)) or not isinstance(df, (int, float, np.integer))
            or not (df >= 1 and float(df).is_integer())):
        raise DomainError(f"{what}: df must be an integer >= 1, got {df!r}")
    return int(df)


def _sample(what, mean, factor: SymOperator, gen, size, out, df=None) -> np.ndarray:
    # The one sampling body: out <- mean + L z, times sqrt(df/w) per draw
    # for a t, in place in a (p,) draw or (m, p) rows; all z, then w, from gen.
    mean = np.asarray(mean, dtype=float)
    p = factor.dim
    if mean.shape != (p,):
        raise ShapeError(f"{what}: mean shape {mean.shape} != ({p},)")
    if out is None:
        out = np.empty(p if size is None else (size, p))
    elif (size is not None or out.ndim not in (1, 2) or out.shape[-1] != p
          or out.dtype != np.float64 or not out.flags.c_contiguous):
        raise ShapeError(f"{what}: out must be a C-contiguous float (p,) or (m, {p}) array")
    if factor.kind == DIAGONAL:
        gen.standard_normal(out=out)
        out *= factor._factor
    elif factor.kind == CHOLESKY:
        np.matmul(gen.standard_normal(out.shape), factor._factor.T, out=out)
    else:
        raise DomainError(f"sampling needs a factored operator, got kind {factor.kind!r}")
    if df is not None:
        out *= np.sqrt(df / gen.chisquare(df, out.shape[:-1]))[..., None]
    out += mean
    return out


def sample_mvn(mean, factor: SymOperator, gen: np.random.Generator, size: int | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Draw mean + L z from N(mean, L L'), z standard normal from ``gen``:
    a (p,) vector, (size, p) rows when ``size`` is given, or ``out`` (a
    C-contiguous (p,) or (m, p) float array, instead of ``size``) filled in
    place and returned. The bits depend only on the generator state."""
    return _sample("sample_mvn", mean, factor, gen, size, out)


def sample_mvt(mean, factor: SymOperator, df: int, gen: np.random.Generator,
               size: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Draw mean + L z sqrt(df/w) from a multivariate t, df an integer >= 1:
    L factors the SCALE matrix Sigma (the covariance is df/(df-2) Sigma for
    df > 2), z is standard normal and w chi-square(df), z first, then w,
    from ``gen``. ``size`` and ``out`` are as in sample_mvn."""
    return _sample("sample_mvt", mean, factor, gen, size, out, check_df(df, "sample_mvt"))
