"""Seeded input generators for the benchmark workloads.

Every generator draws from numpy's Philox keyed by (seed, stream), never
from the slda package, so the inputs a run hands to the program depend
only on the seed and the size. The program receives the written files
and nothing else.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Stream indices keep the generators independent of one another.
_CV_STREAM = 1
_LEUK_STREAM = 2


def philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([int(seed) % 2**64, int(stream) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray, prefix: str = "f") -> None:
    """Dataset CSV in the package's format: header, features, ``class``.

    Values print with 17 significant digits, which reads back to the
    same doubles, so a reference computed from ``features`` sees exactly
    what the program parses.
    """
    header = ",".join([f"{prefix}{j + 1}" for j in range(features.shape[1])] + ["class"])
    rows = [",".join(["%.17g" % v for v in row] + [str(int(c))])
            for row, c in zip(features, labels)]
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def thm3_sparse_training(seed: int, n_per_class: int = 30, p: int = 500):
    """Training set drawn from the ``thm3_sparse`` population.

    delta has 10 unit components at evenly spaced indices, Sigma is
    banded with width 1 and off-diagonal 0.3, mu_2 = 0; class 1 rows
    come first, as in the simulation harness.
    """
    gen = philox(seed, _CV_STREAM)
    delta = np.zeros(p)
    count = min(10, p)
    delta[np.arange(count) * (p // count)] = 1.0
    sigma = np.eye(p) + 0.3 * (np.eye(p, k=1) + np.eye(p, k=-1))
    lower = np.linalg.cholesky(sigma)
    z = gen.standard_normal((2 * n_per_class, p))
    x = z @ lower.T
    x[:n_per_class] += delta
    labels = np.repeat([1, 2], n_per_class)
    return x, labels


def cv_grid(x: np.ndarray, labels: np.ndarray, alpha: float = 0.3, size: int = 7):
    """The fixed (M1, M2) grid of the cv_grid workload.

    The candidate grids follow the seed's ``default_grids`` recipe,
    frozen here so that a change to that function cannot change this
    workload: log-spaced between the 50th and 99.9th percentiles of
    |S_jl| (off-diagonal) and |delta_hat_j|, divided by the scale
    factors of t_n and a_n. From them the grid takes the middle M1 (an
    indefinite Sigma-tilde, so the eigen_floor path) plus one M1 at the
    diagonal-only limit (twice max_j s_jj over the fold-size t_n scale,
    so every fold's Sigma-tilde is diagonal and takes the Cholesky
    path), and the 3rd and 5th M2 values, so that each M1 is fitted with
    two M2 values.
    """
    n, p = x.shape
    means = np.array([x[labels == k].mean(axis=0) for k in (1, 2)])
    centered = x - means[labels - 1]
    s = centered.T @ centered / n
    delta = np.abs(means[0] - means[1])
    offdiag = np.abs(s[np.triu_indices(p, k=1)])
    log_ratio = math.log(p) / n

    def log_spaced(values, scale):
        lo = max(float(np.quantile(values, 0.5)), 1e-12)
        hi = max(float(np.quantile(values, 0.999)), lo * (1.0 + 1e-9))
        return np.exp(np.linspace(math.log(lo), math.log(hi), size)) / scale

    m1_default = log_spaced(offdiag, math.sqrt(log_ratio))
    m2_default = log_spaced(delta, log_ratio ** alpha)
    m1_diagonal = 2.0 * float(np.max(np.diag(s))) / math.sqrt(math.log(p) / (n - 1))
    m1_grid = [float(m1_default[size // 2]), m1_diagonal]
    m2_grid = [float(m2_default[2]), float(m2_default[4])]
    return m1_grid, m2_grid


def leukemia_like(seed: int, p: int = 7129, n_train=(47, 25), n_test=(20, 14)):
    """Synthetic data with the shape of the Golub leukemia set.

    Recipe (independent genes, integer-valued like the real arrays):
    - baseline expression mu_2j log-uniform on [100, 5000];
    - per-gene scale sigma_j log-uniform on [20, 300], so max s_jj stays
      far below t_n = 1e7 sqrt(log p / n) and Sigma-tilde is diagonal at
      M1 = 1e7, as in the real data;
    - a random third of the genes get mu_1j - mu_2j = +-U(250, 1000),
      the rest 0, so M2 = 300 (a_n about 160) keeps about a third;
    - rows are mu_k + sigma_j z rounded to integers; 47 + 25 training
      rows (ALL = class 1, AML = class 2) and 20 + 14 held-out rows.
    """
    gen = philox(seed, _LEUK_STREAM)
    base = np.exp(gen.uniform(math.log(100.0), math.log(5000.0), p))
    scale = np.exp(gen.uniform(math.log(20.0), math.log(300.0), p))
    signal = gen.permutation(p)[: p // 3]
    delta = np.zeros(p)
    delta[signal] = gen.choice([-1.0, 1.0], signal.size) * gen.uniform(250.0, 1000.0, signal.size)

    def draw(counts):
        mu = (base + delta, base)
        x = np.vstack([np.rint(mu[k] + scale * gen.standard_normal((m, p)))
                       for k, m in enumerate(counts)])
        return x, np.repeat([1, 2], counts)

    train = draw(n_train)
    test = draw(n_test)
    return train, test
