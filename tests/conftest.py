from typing import NamedTuple

import numpy as np
import pytest

from slda.estimation import centered_rows, pooled_covariance
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
