"""Power-of-two scale oracle: features times 2^k, with M1 times 4^k and M2
times 2^k, must give the same fits bit for bit.

Multiplying by a power of two is exact in IEEE arithmetic away from
overflow and underflow, and every path of a fit is homogeneous: S and
Sigma-tilde scale by 4^k, delta-hat and the thresholds t_n, a_n by 4^k
and 2^k, so the kept sets, q_hat, pd_flag and the floor count do not
move, the weights w = Sigma-tilde^-1 delta-tilde scale by 2^-k and the
cutoffs w'mid, labels and LOOCV scores stay equal. The check needs no
second implementation, and reaches the in-place nested thresholds, the
eigenvalue floor, the screened diagonal and the thin-SVD cut. The same
holds through the command line, whose files carry 17 significant
digits and so read back the scaled values exactly.

The draw's values lie near 1, so with k in [-20, 20] every matrix norm
stays within about 1e+-13, far from the norms at which LAPACK stevd and
gesdd rescale their input internally (below about 1e-138 or above
1e138); such a rescaling would break exactness, so it is kept out of
reach here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits_equal, summarize, threshold_covariance, write_dataset_csv
from slda.classify import build_lda, build_slda_grid, classify_many
from slda.estimation import centered_rows, compute_tn, diagonal_screen, pooled_variances
from slda.cli import main
from slda.evaluate import cv_grid_search, loocv_rate
from slda.io import fmt_float, read_model
from slda.model import ThresholdConfig
from slda.numerics import invert_sparse_sym, substream
from slda.simulate import PopulationRecipe, _draw_dataset, build_population

ALPHA = 0.3
# On this draw (p = 40, n = 30): M1 0.3 and 1.0 give an indefinite
# Sigma-tilde (eigen_floor), 1.5 keeps 4 pairs and factors (cholesky),
# 5.0 and 1e7 pass the variance screen (the (p,) diagonal).
M1_GRID = (0.3, 1.0, 1.5, 5.0, 1e7)
M2_GRID = (0.5, 1.5)

_POP = build_population(PopulationRecipe(p=40, delta_count=4, delta_magnitude=1.0,
                                         sigma="banded", width=1, value=0.3))
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
    for (rule, report), (rule_k, report_k) in zip(base, fits, strict=True):
        assert report_k == report  # q_hat, nnz_offdiag, pd_flag
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


def run(capsys, *argv):
    assert main(list(argv)) == 0
    return dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())


@pytest.fixture(params=[3, -2])
def csvs(request, tmp_path):
    # the training CSV at scale 1 and at scale 2^k
    k = request.param
    paths = tmp_path / "base.csv", tmp_path / "scaled.csv"
    write_dataset_csv(paths[0], DATA)
    write_dataset_csv(paths[1], scaled(k))
    return k, paths


@pytest.mark.parametrize("m1", M1_GRID[1:4], ids=["eigen_floor", "cholesky", "screened"])
def test_cli_fit_and_predict(csvs, tmp_path, capsys, m1):
    k, (base, scaled_csv) = csvs
    models, predictions = [], []
    for csv, scale in ((base, 1.0), (scaled_csv, 2.0 ** k)):
        model, pred = tmp_path / f"{scale}.model", tmp_path / f"{scale}.pred"
        printed = run(capsys, "fit", "--train", str(csv), "--m1", fmt_float(m1 * scale ** 2),
                      "--m2", fmt_float(0.5 * scale), "--out", str(model))
        del printed["model"]
        run(capsys, "predict", "--model", str(model), "--test", str(csv), "--out", str(pred))
        models.append((read_model(model), printed))
        predictions.append(pred.read_bytes())
    ((rule, meta), printed), ((rule_k, meta_k), printed_k) = models
    assert bits_equal(rule_k.weights, rule.weights * 2.0 ** -k)
    assert printed_k == printed  # q_hat, nnz_offdiag, pd_flag and the fractions
    for key in ("c", "q_hat", "nnz_offdiag", "pd_flag", "degenerate"):
        assert meta_k[key] == meta[key]
    assert predictions[1] == predictions[0]


def test_cli_cv(csvs, tmp_path, capsys):
    k, (base, scaled_csv) = csvs
    surfaces = []
    for csv, scale in ((base, 1.0), (scaled_csv, 2.0 ** k)):
        out = tmp_path / f"{scale}.cv"
        printed = run(capsys, "cv", "--train", str(csv),
                      "--grid-m1", ",".join(fmt_float(m1 * scale ** 2) for m1 in M1_GRID),
                      "--grid-m2", ",".join(fmt_float(m2 * scale) for m2 in M2_GRID),
                      "--out", str(out))
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        surfaces.append(([row[2] for row in rows], printed))
    (scores, printed), (scores_k, printed_k) = surfaces
    assert scores_k == scores
    for key in ("best_score", "forced_worst"):
        assert printed_k[key] == printed[key]
    assert float(printed_k["best_m1"]) == float(printed["best_m1"]) * 4.0 ** k
    assert float(printed_k["best_m2"]) == float(printed["best_m2"]) * 2.0 ** k


def test_cli_diagnose_train(csvs, tmp_path, capsys):
    k, (base, scaled_csv) = csvs
    printed, printed_k = (run(capsys, "diagnose", "--train", str(csv), "--m2", fmt_float(scale),
                              "--out", str(tmp_path / "cum.csv"))
                          for csv, scale in ((base, 1.0), (scaled_csv, 2.0 ** k)))
    for key in ("delta_p", "q_hat"):
        assert printed_k[key] == printed[key]
    for key in ("eig_min", "eig_max"):
        assert float(printed_k[key]) == float(printed[key]) * 4.0 ** k
