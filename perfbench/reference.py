"""Reference results the benchmark checks the program's outputs against.

These are written from the paper's formulas with numpy and scipy only,
never by calling slda, and they run outside the timed phase. Where the
workload's structure allows (identity or diagonal covariance) the
reference takes the closed-form shortcut rather than the program's
general path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import get_lapack_funcs

FLOOR_EPS = 1e-8


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _class_stats(x: np.ndarray, labels: np.ndarray):
    means = np.array([x[labels == k].mean(axis=0) for k in (1, 2)])
    return means, means[0] - means[1], 0.5 * (means[0] + means[1])


def _inverse(sigma: np.ndarray):
    """Cholesky solve when Sigma-tilde is positive definite, otherwise the
    eigenvalue floor at FLOOR_EPS * lambda_max; returns (solve, kind)."""
    a = 0.5 * (sigma + sigma.T)
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    lower, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    if info == 0:
        return (lambda v: cho_solve((lower, True), v)), "cholesky"
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    inv = 1.0 / np.maximum(vals, FLOOR_EPS * float(vals[0]))
    return (lambda v: vecs @ (inv * (vecs.T @ v))), "eigen_floor"


def loocv_surface(x, labels, m1_grid, m2_grid, alpha):
    """Leave-one-out error rate of SLDA at every (M1, M2), grid order.

    Fold-major: one pooled covariance per fold and one inverse per
    (fold, M1). Returns the rates and how many (fold, M1) inverses took
    each path, plus the largest kept off-diagonal count per M1.
    """
    n, p = x.shape
    wrong = np.zeros((len(m1_grid), len(m2_grid)), dtype=int)
    paths = {"cholesky": 0, "eigen_floor": 0}
    max_kept = [0] * len(m1_grid)
    for i in range(n):
        xs, ls = np.delete(x, i, axis=0), np.delete(labels, i)
        m = n - 1
        means, delta, mid = _class_stats(xs, ls)
        centered = np.empty_like(xs)
        for k in (1, 2):
            centered[ls == k] = xs[ls == k] - means[k - 1]
        s = centered.T @ centered / m
        s = 0.5 * (s + s.T)
        for a, m1 in enumerate(m1_grid):
            t_n = float(m1) * math.sqrt(math.log(p) / m)
            kept = np.abs(s) > t_n
            np.fill_diagonal(kept, False)
            max_kept[a] = max(max_kept[a], int(kept.sum()) // 2)
            sigma = np.where(kept, s, 0.0)
            np.fill_diagonal(sigma, np.diag(s))
            solve = None
            for b, m2 in enumerate(m2_grid):
                a_n = float(m2) * (math.log(p) / m) ** alpha
                d = np.where(np.abs(delta) > a_n, delta, 0.0)
                if not d.any():
                    predicted = 1  # degenerate rule: everything to class 1
                else:
                    if solve is None:
                        solve, kind = _inverse(sigma)
                        paths[kind] += 1
                    w = solve(d)
                    c = float(w @ mid)
                    predicted = 1 if float(w @ x[i] - c) >= 0.0 else 2
                wrong[a, b] += predicted != int(labels[i])
    rates = [float(wrong[a, b]) / n for a in range(len(m1_grid)) for b in range(len(m2_grid))]
    return rates, paths, max_kept


def known_sigma_rates(seed: int, reps: int, n1: int, n2: int, p: int):
    """Closed-form rates of known-Sigma LDA and the oracle for the
    ``thm2_worst`` population (Sigma = I, delta = e_1, mu_2 = 0).

    Replicate k draws class 1 then class 2 rows from Philox keyed
    (seed, k), as the simulation harness does. With Sigma = I the rule is
    w = delta_hat, so the rate needs no factorization.
    """
    delta = np.zeros(p)
    delta[0] = 1.0
    out = []
    for k in range(reps):
        key = np.array([int(seed) % 2**64, k % 2**64], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        x1 = delta + gen.standard_normal((n1, p))
        x2 = gen.standard_normal((n2, p))
        x = np.vstack([x1, x2])
        labels = np.repeat([1, 2], (n1, n2))
        _, w, mid = _class_stats(x, labels)
        c = float(w @ mid)
        sd = math.sqrt(float(w @ w))
        e1 = _phi((c - float(w @ delta)) / sd)
        e2 = _phi((0.0 - c) / sd)
        out.append({"lda_known_sigma": 0.5 * (e1 + e2), "oracle": _phi(-0.5)})
    return out


def diagonal_slda(train_x, train_labels, test_x, m1, m2, alpha):
    """SLDA fit and predictions when Sigma-tilde is diagonal.

    Returns weights, cutoff, q_hat, predicted test labels, the smallest
    test |score| (how far the predictions are from a tie) and whether
    max_j s_jj < t_n, the condition that makes Sigma-tilde diagonal.
    """
    n, p = train_x.shape
    means, delta, mid = _class_stats(train_x, train_labels)
    centered = train_x - means[train_labels - 1]
    s_diag = np.einsum("ij,ij->j", centered, centered) / n
    t_n = float(m1) * math.sqrt(math.log(p) / n)
    a_n = float(m2) * (math.log(p) / n) ** alpha
    kept = np.abs(delta) > a_n
    w = np.where(kept, delta, 0.0) / s_diag
    c = float(w @ mid)
    scores = test_x @ w - c
    return {
        "weights": w,
        "cutoff": c,
        "q_hat": int(kept.sum()),
        "predicted": np.where(scores >= 0.0, 1, 2),
        "min_abs_score": float(np.min(np.abs(scores))),
        "diagonal": bool(np.max(s_diag) < t_n),
    }
