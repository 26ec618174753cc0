"""Core data types shared by all modules: datasets, population
specifications, fitted linear rules and threshold configuration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DomainError, ShapeError
from .numerics import SymOperator, check_df, cholesky_spd

NORMAL = "normal"
STUDENT_T = "student_t"


@dataclass(frozen=True)
class Dataset:
    """Labeled sample matrix: n rows, p features, labels in 1..K.

    Construct through validate_dataset; the fields are trusted
    downstream (every class count >= 2, all features finite).
    """

    features: np.ndarray  # (n, p)
    labels: np.ndarray    # (n,) ints in 1..K
    class_counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_counts)

    def drop(self, i: int) -> "Dataset":
        """Dataset with sample i removed (for leave-one-out refits),
        through validate_dataset: a class left with fewer than 2 samples
        raises DataError."""
        return validate_dataset(np.delete(self.features, i, axis=0), np.delete(self.labels, i))


def require_two_class(n_classes: int, what: str, of: str = "dataset") -> None:
    """Raise DomainError unless a dataset or population has two classes."""
    if n_classes != 2:
        raise DomainError(f"{what} requires a two-class {of}")


def require_finite(features: np.ndarray) -> None:
    """Raise DataError naming the first NaN or Inf cell (0-based row, column)."""
    bad = ~np.isfinite(features)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"non-finite feature value at row {r}, column {c}")


def validate_dataset(features, labels) -> Dataset:
    """Check raw features/labels and build a Dataset.

    Raises DataError naming the offending row/column for NaN or Inf
    cells, ragged rows, labels outside 1..K or above n, or classes with
    fewer than two samples.
    """
    try:
        feats = np.asarray(features, dtype=float)
    except ValueError as exc:
        raise DataError(f"features are not a rectangular numeric matrix: {exc}") from None
    if feats.ndim != 2:
        raise DataError(f"features must be a 2-d matrix of equal-length rows, got ndim={feats.ndim}")
    labs = np.asarray(labels)
    if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
        raise DataError(
            f"labels must be a vector of length n={feats.shape[0]}, got shape {labs.shape}"
        )
    if not np.all(labs == np.floor(labs)):
        raise DataError("labels must be integers")
    # checked before the int cast and the class count, which would take
    # memory in proportion to the largest label
    if labs.max(initial=0) > feats.shape[0]:
        r = int(np.argmax(labs))
        raise DataError(f"label {labs[r]} at row {r} exceeds n={feats.shape[0]}: "
                        "classes 1..K need >= 2 samples each")
    labs = labs.astype(int)

    require_finite(feats)

    if labs.min(initial=1) < 1:
        r = int(np.argmin(labs))
        raise DataError(f"label {labs[r]} at row {r} is outside 1..K")
    k = int(labs.max())
    if k < 2:
        raise DataError("need >= 2 classes")
    counts = np.bincount(labs, minlength=k + 1)[1:]
    for cls, cnt in enumerate(counts, start=1):
        if cnt < 2:
            raise DataError(f"class {cls} has {cnt} samples; every class needs >= 2")
    return Dataset(features=feats, labels=labs, class_counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class PopulationSpec:
    """True class means, common covariance and distribution kind.

    ``covariance`` is a (p, p) SPD matrix, or the (p,) vector d of the
    diagonal matrix diag(d). ``distribution`` is "normal" or
    "student_t"; for the latter, ``covariance`` is the SCALE matrix of
    the elliptical t (the actual covariance is df/(df-2) times it when
    df > 2).
    """

    means: np.ndarray       # (K, p)
    covariance: np.ndarray  # (p, p) SPD, or (p,) positive diagonal
    distribution: str = NORMAL
    df: int | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ShapeError("means must be a (K, p) matrix with K >= 2")
        p = means.shape[1]
        if cov.shape not in ((p, p), (p,)):
            raise ShapeError(f"covariance shape {cov.shape} is not (p, p) or (p,) with p={p}")
        if not np.isfinite(means).all():
            raise DomainError("population means must be finite")
        if self.distribution not in (NORMAL, STUDENT_T):
            raise DomainError(f"unknown distribution {self.distribution!r}")
        if self.distribution == STUDENT_T:
            check_df(self.df, "student_t population")
        if means.shape[0] == 2 and np.array_equal(means[0], means[1]):
            raise DomainError("two-class population requires mu_1 != mu_2")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance", cov)

    @property
    def p(self) -> int:
        return self.means.shape[1]

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @cached_property
    def chol(self) -> SymOperator:
        """The factored covariance, diagonal or Cholesky (raises if not SPD)."""
        return cholesky_spd(self.covariance)

    @property
    def delta(self) -> np.ndarray:
        """Mean difference mu_1 - mu_2 (two-class populations)."""
        require_two_class(self.n_classes, "delta", of="population")
        return self.means[0] - self.means[1]

    @property
    def mid(self) -> np.ndarray:
        """Midpoint (mu_1 + mu_2)/2 (two-class populations)."""
        require_two_class(self.n_classes, "mid", of="population")
        return 0.5 * (self.means[0] + self.means[1])


@dataclass(frozen=True)
class LinearRule:
    """Fitted linear discriminant: assign class 1 iff w'x >= c."""

    weights: np.ndarray
    cutoff: float

    @property
    def p(self) -> int:
        return self.weights.shape[0]

    @property
    def degenerate(self) -> bool:
        """True exactly when w is the zero vector; such a rule classifies
        everything to class 1 by the tie convention."""
        return not self.weights.any()


@dataclass(frozen=True)
class SparsityReport:
    """Sparsity of a fitted SLDA rule: kept counts and their fractions."""

    p: int
    q_hat: int
    nnz_offdiag: int
    pd_flag: bool

    @property
    def frac_delta_kept(self) -> float:
        return self.q_hat / self.p

    @property
    def frac_cov_kept(self) -> float:
        if self.p < 2:
            return 0.0
        return 2.0 * self.nnz_offdiag / (self.p * (self.p - 1))


# alpha of ThresholdConfig, and of every command, grid and scenario that
# does not set one.
DEFAULT_ALPHA = 0.3


@dataclass(frozen=True)
class ThresholdConfig:
    """Constants (M1, M2, alpha) of the two hard thresholds.

    The covariance threshold is t_n = M1 sqrt(log p / n) and the
    mean-difference threshold a_n = M2 (log p / n)^alpha.
    """

    m1: float
    m2: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise DomainError(f"alpha must lie strictly inside (0, 1/2), got {self.alpha}")
        if not (np.isfinite(self.m1) and np.isfinite(self.m2)):
            raise DomainError("M1 and M2 must be finite")
        if self.m1 < 0 or self.m2 < 0:
            raise DomainError("M1 and M2 must be nonnegative")


@dataclass(frozen=True)
class GridSpec:
    """Cross-validation grids over the threshold constants, each stored
    as a tuple of floats (None: the data-driven grid). An empty grid, or
    a point that ThresholdConfig rejects, raises DomainError."""

    m1_grid: tuple[float, ...] | None = None
    m2_grid: tuple[float, ...] | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        for name in ("m1_grid", "m2_grid"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.m1_grid == () or self.m2_grid == ():
            raise DomainError("a cross-validation grid must be non-empty")
        for m1 in self.m1_grid or (0.0,):  # 0.0 stands in for a data-driven grid
            for m2 in self.m2_grid or (0.0,):
                ThresholdConfig(m1=m1, m2=m2, alpha=self.alpha)
