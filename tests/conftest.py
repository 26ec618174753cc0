import csv
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from slda.estimation import centered_rows, pooled_covariance
from slda.io import LABEL_COLUMN, fmt_float
from slda.model import Dataset, PopulationSpec


def random_spd(rng, p, eig_lo=0.5, eig_hi=2.0):
    """SPD matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = rng.uniform(eig_lo, eig_hi, p)
    return (q * eigs) @ q.T


def random_population(rng, p, eig_lo=0.5, eig_hi=2.0, delta_scale=1.0):
    sigma = random_spd(rng, p, eig_lo, eig_hi)
    delta = rng.standard_normal(p) * delta_scale
    mu2 = rng.standard_normal(p)
    return PopulationSpec(means=np.vstack([mu2 + delta, mu2]), covariance=sigma)


def bits_equal(a, b) -> bool:
    """Same shape and the same IEEE bits (signed zeros and NaNs included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def two_class_dataset(x1, x2):
    """Dataset from two feature blocks (class 1 rows, then class 2 rows)."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    features = np.vstack([x1, x2])
    labels = np.concatenate([np.ones(len(x1), dtype=int), np.full(len(x2), 2, dtype=int)])
    return Dataset(features=features, labels=labels,
                   class_counts=(len(x1), len(x2)))


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Dataset CSV: header f1..fp then "class", 17 significant digits."""
    header = [f"f{j + 1}" for j in range(dataset.p)] + [LABEL_COLUMN]
    lines = [",".join(header)]
    for i in range(dataset.n):
        vals = [fmt_float(v) for v in dataset.features[i]]
        vals.append(str(int(dataset.labels[i])))
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_matrix(path, a) -> None:
    """Matrix CSV with no header, 17 significant digits."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    lines = [",".join(fmt_float(v) for v in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_read_table(path, labeled: bool):
    """The dataset-CSV reader as it was before the bulk parse: csv.reader
    rows, then float() per feature cell and int() per label. Returns
    (features, labels), labels an empty list when not ``labeled``; raises
    ValueError on the first bad row. The reference of the equivalence
    test of slda.io._read_table."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
        features, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, header has {len(header)}")
            if label_idx is not None:
                label = row.pop(label_idx)
                if labeled:
                    labels.append(int(label))
            features.append([float(v) for v in row])
    return np.array(features), labels


def threshold_covariance(s, t_n):
    """Reference Sigma-tilde: a copy of S with the off-diagonal entries
    |s_jl| <= t_n (a NaN included) set to 0.0, those with |s_jl| > t_n
    kept, and the diagonal copied exactly. S itself is not changed. The
    reference of slda.estimation._threshold_in_place."""
    s = np.asarray(s, dtype=float)
    out = np.where(np.abs(s) > t_n, s, 0.0)
    np.fill_diagonal(out, np.diagonal(s))
    return out


def dense_lower(op):
    """Dense lower Cholesky factor L of a "diagonal" or "cholesky"
    SymOperator; a diagonal one holds l = sqrt(d), so L = diag(l)."""
    assert op.kind in ("diagonal", "cholesky"), op.kind
    return np.diag(op._factor) if op.kind == "diagonal" else op._factor


def mc_rate(rule, pop, n_mc, gen):
    """Monte Carlo (rate, stderr) of a two-class LinearRule, the
    reference of the closed-form conditional_rate. Each class's scores
    are drawn in score space: w'(x - mu) = w'L z is N(0, w'Sigma w), or
    elliptical t with that scale, and R from the QR of L'w has
    R'R = w'Sigma w, so z @ R with z of shape (n_mc, rows of R) has the
    same law. A draw goes to class 1 iff its score w'x - c is >= 0. The
    stderr is the binomial one of the equal-weight mean of the two
    class errors."""
    w = rule.weights[:, None]
    r = np.linalg.qr(dense_lower(pop.chol).T @ w, mode="r")
    errors = []
    for cls in (1, 2):
        raw = gen.standard_normal((n_mc, r.shape[0])) @ r
        if pop.distribution != "normal":
            raw = raw * np.sqrt(pop.df / gen.chisquare(pop.df, n_mc))[:, None]
        scores = raw + pop.means[cls - 1] @ w - np.array([rule.cutoff])
        labels = np.where(scores[:, 0] >= 0, 1, 2)
        errors.append(float(np.mean(labels != cls)))
    var = sum(e * (1.0 - e) / n_mc for e in errors) / 4
    return float(np.mean(errors)), math.sqrt(var)


class Summary(NamedTuple):
    class_means: np.ndarray  # (K, p)
    pooled_cov: np.ndarray   # S, divisor n
    delta_hat: np.ndarray    # xbar_1 - xbar_2
    grand_mid: np.ndarray    # (xbar_1 + xbar_2) / 2


def summarize(ds) -> Summary:
    """Class means, S and the (1, 2) contrast from the package's pieces,
    centered_rows and pooled_covariance, with the bits the fits use."""
    means, centered = centered_rows(ds)
    return Summary(means, pooled_covariance(centered), means[0] - means[1],
                   0.5 * (means[0] + means[1]))


def eigh_descending(a):
    """Reference eigendecomposition of a symmetric matrix: numpy eigh,
    then eigenvalues and their vectors sorted descending. Returns
    (values, vectors)."""
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def eigh_floor_solve(a, b, floor_eps):
    """Reference eigen_floor solve of a symmetric matrix: the eigh of a
    with eigenvalues below floor_eps * lambda_max raised to it, applied
    to a vector or to the columns of b. Returns (x, floor_count)."""
    values, vectors = eigh_descending(a)
    floor = floor_eps * values[0]
    inv = 1.0 / np.maximum(values, floor)
    x = vectors @ ((inv if b.ndim == 1 else inv[:, None]) * (vectors.T @ b))
    return x, int(np.sum(values < floor))


def eigh_pseudo_inverse_lda(ds):
    """Reference generalized-inverse LDA: the eigh of S with eigenvalues
    |lambda| <= p eps max|lambda| zeroed. Returns (w, cutoff)."""
    summary = summarize(ds)
    values, vectors = np.linalg.eigh(summary.pooled_cov)
    keep = np.abs(values) > ds.p * np.finfo(float).eps * np.abs(values).max()
    inv = np.zeros_like(values)
    inv[keep] = 1.0 / values[keep]
    w = vectors @ (inv * (vectors.T @ summary.delta_hat))
    return w, float(w @ summary.grand_mid)


@pytest.fixture
def rng():
    return np.random.default_rng(20231101)


def leukemia_like(seed, p, counts=(47, 25), signal=1.0):
    """Independent integer-valued genes shaped like the Golub leukemia
    set: baselines log-uniform on [100, 5000], scales log-uniform on
    [20, 300] (so M1 = 1e7 leaves Sigma-tilde diagonal) and a random
    third of the genes shifted by +-U(250, 1000) * signal in class 1."""
    gen = np.random.default_rng(seed)
    base = np.exp(gen.uniform(np.log(100.0), np.log(5000.0), p))
    scale = np.exp(gen.uniform(np.log(20.0), np.log(300.0), p))
    shift = np.zeros(p)
    genes = gen.permutation(p)[: p // 3]
    shift[genes] = gen.choice([-1.0, 1.0], genes.size) * gen.uniform(250.0, 1000.0, genes.size) * signal
    x1 = np.rint(base + shift + scale * gen.standard_normal((counts[0], p)))
    x2 = np.rint(base + scale * gen.standard_normal((counts[1], p)))
    return two_class_dataset(x1, x2)


def nnz_offdiag(sigma_tilde):
    """Number of nonzero strictly-upper-triangle entries of a symmetric
    matrix; for a t_n >= 0 threshold, the number of kept pairs. The
    reference of the count slda.estimation._threshold_in_place returns."""
    return (np.count_nonzero(sigma_tilde) - np.count_nonzero(np.diagonal(sigma_tilde))) // 2
