"""Power-of-two scale oracle: features times 2^k, with M1 times 4^k and M2
times 2^k, must give the same fits bit for bit.

Multiplying by a power of two is exact in IEEE arithmetic away from
overflow and underflow, and every path of a fit is homogeneous: S and
Sigma-tilde scale by 4^k, delta-hat and the thresholds t_n, a_n by 4^k
and 2^k, so the kept sets, q_hat, pd_flag and the floor count do not
move, the weights w = Sigma-tilde^-1 delta-tilde scale by 2^-k and the
cutoffs w'mid, labels and LOOCV scores stay equal. The check needs no
second implementation, and reaches the in-place nested thresholds, the
eigenvalue floor, the screened diagonal and the thin-SVD cut.

The draw's values lie near 1, so with k in [-20, 20] every matrix norm
stays within about 1e+-13, far from the norms at which LAPACK stevd and
gesdd rescale their input internally (below about 1e-138 or above
1e138); such a rescaling would break exactness, so it is kept out of
reach here.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits_equal, summarize, threshold_covariance
from slda.classify import build_lda, build_slda_grid, classify_many
from slda.estimation import centered_rows, compute_tn, diagonal_screen, pooled_variances
from slda.evaluate import cv_grid_search, loocv_rate
from slda.model import ThresholdConfig
from slda.numerics import invert_sparse_sym, substream
from slda.simulate import PopulationRecipe, _draw_dataset, build_population

ALPHA = 0.3
# On this draw (p = 40, n = 30): M1 0.3 and 1.0 give an indefinite
# Sigma-tilde (eigen_floor), 1.5 keeps 4 pairs and factors (cholesky),
# 5.0 and 1e7 pass the variance screen (the (p,) diagonal).
M1_GRID = (0.3, 1.0, 1.5, 5.0, 1e7)
M2_GRID = (0.5, 1.5)

_POP = build_population(PopulationRecipe(p=40, delta_pattern=(4, 1.0),
                                         sigma_pattern=("banded", 1, 0.3)))
DATA = _draw_dataset(_POP, 15, 15, substream(2024, 0))
SCALE_K = st.integers(-20, 20)


def scaled(k):
    return dataclasses.replace(DATA, features=DATA.features * 2.0 ** k)


def test_grid_takes_every_path():
    _, centered = centered_rows(DATA)
    screen = diagonal_screen(pooled_variances(centered), DATA.n)
    s = summarize(DATA).pooled_cov
    kinds = [invert_sparse_sym(threshold_covariance(s, t)).kind if t < screen else "screened"
             for t in (compute_tn(m1, DATA.n, DATA.p) for m1 in M1_GRID)]
    assert kinds == ["eigen_floor", "eigen_floor", "cholesky", "screened", "screened"]
    assert DATA.p > DATA.n - 2  # build_lda takes the thin SVD


@settings(max_examples=41, deadline=None)
@given(k=SCALE_K)
def test_slda_grid_fits(k):
    base = build_slda_grid(DATA, M1_GRID, M2_GRID, ALPHA)
    fits = build_slda_grid(scaled(k), [m1 * 4.0 ** k for m1 in M1_GRID],
                           [m2 * 2.0 ** k for m2 in M2_GRID], ALPHA)
    for (rules, report), (rules_k, report_k) in zip(base, fits, strict=True):
        assert report_k == report  # q_hat, nnz_offdiag, pd_flag, degenerate
        rule, rule_k = rules[(1, 2)], rules_k[(1, 2)]
        assert bits_equal(rule_k.weights, rule.weights * 2.0 ** -k)
        assert bits_equal(rule_k.cutoff, rule.cutoff)
        assert np.array_equal(classify_many(rule_k, scaled(k).features),
                              classify_many(rule, DATA.features))


@settings(max_examples=41, deadline=None)
@given(k=SCALE_K)
def test_floor_counts(k):
    s, s_k = summarize(DATA).pooled_cov, summarize(scaled(k)).pooled_cov
    assert bits_equal(s_k, s * 4.0 ** k)
    for m1 in M1_GRID[:3]:
        op = invert_sparse_sym(threshold_covariance(s, compute_tn(m1, DATA.n, DATA.p)))
        op_k = invert_sparse_sym(threshold_covariance(s_k, compute_tn(m1 * 4.0 ** k, DATA.n,
                                                                      DATA.p)))
        assert (op_k.kind, op_k.pd_flag, op_k.floor_count) == (op.kind, op.pd_flag,
                                                                op.floor_count)


@settings(max_examples=41, deadline=None)
@given(k=SCALE_K)
def test_lda_thin_svd(k):
    rule, rule_k = build_lda(DATA), build_lda(scaled(k))
    assert bits_equal(rule_k.weights, rule.weights * 2.0 ** -k)
    assert bits_equal(rule_k.cutoff, rule.cutoff)
    assert np.array_equal(classify_many(rule_k, scaled(k).features),
                          classify_many(rule, DATA.features))


@settings(max_examples=20, deadline=None)
@given(k=SCALE_K)
def test_cv_surface_and_loocv(k):
    m1s, m2s = (1.0, 5.0), (0.5,)
    base = cv_grid_search(DATA, m1s, m2s, ALPHA)
    surface = cv_grid_search(scaled(k), [m1 * 4.0 ** k for m1 in m1s],
                             [m2 * 2.0 ** k for m2 in m2s], ALPHA)
    assert surface.scores == base.scores and surface.best_score == base.best_score
    assert surface.forced_worst == base.forced_worst
    assert surface.best == (base.best[0] * 4.0 ** k, base.best[1] * 2.0 ** k)
    config = ThresholdConfig(m1=m1s[0] * 4.0 ** k, m2=m2s[0] * 2.0 ** k, alpha=ALPHA)
    assert loocv_rate(scaled(k), config) == base.scores[0]
