"""Rate computation: closed forms, Monte Carlo cross-checks, empirical
rates, LOOCV and the (M1, M2) grid search."""

import math
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from conftest import leukemia_like, random_population, random_spd, summarize, two_class_dataset
from slda import evaluate
from slda.classify import build_oracle, build_slda, classify
from slda.diagnostics import lemma2_counts
from slda.errors import DataError, DomainError, ShapeError, SldaError
from slda.estimation import (
    compute_an,
    compute_tn,
    invert_sparse_sym,
    threshold_covariance,
)
from slda.evaluate import (
    conditional_rate,
    conditional_rate_mc,
    cv_grid_search,
    empirical_rate,
    loocv_rate,
    optimal_rate,
)
from slda.model import NORMAL, Dataset, LinearRule, PopulationSpec, ThresholdConfig
from slda.numerics import sample_mvn, std_normal_cdf, substream

mp.mp.dps = 30


def t_rate(rule, pop):
    """Exact rate of a linear rule under a two-class t population: the
    score w'x is univariate t(df) with scale sqrt(w' Sigma w)."""
    from scipy.special import stdtr

    w, c = rule.weights, rule.cutoff
    sw = math.sqrt(w @ pop.covariance @ w)
    e1 = stdtr(pop.df, (c - w @ pop.means[0]) / sw)
    e2 = stdtr(pop.df, (w @ pop.means[1] - c) / sw)
    return 0.5 * (e1 + e2)


def full_dimensional_scores(pop, cls, weights, n_mc, gen):
    """The draw that evaluate._class_scores made before it drew in score
    space: n_mc x p standard normals z, projected as z @ (L' W). Kept as
    the reference path of the equivalence test; it has the same joint
    law as the score-space draw, so the two give the same rates within
    Monte Carlo error."""
    z = gen.standard_normal((n_mc, pop.p))
    raw = z @ (pop.chol.lower.T @ weights)
    if pop.distribution != NORMAL:
        raw = raw * np.sqrt(pop.df / gen.chisquare(pop.df, n_mc))[:, None]
    return raw + pop.means[cls - 1] @ weights


class IdentityNormals:
    """Stand-in generator whose normal matrix is the identity, so that a
    score draw returns its factor; records the shapes it was asked for."""

    def __init__(self):
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return np.eye(*shape)


def draw(pop, n1, n2, gen):
    x1 = sample_mvn(pop.means[0], pop.chol, gen, size=n1)
    x2 = sample_mvn(pop.means[1], pop.chol, gen, size=n2)
    return two_class_dataset(x1, x2)


class TestOptimalRate:
    def test_vanishing_separation_approaches_half(self):
        pop = PopulationSpec(means=np.array([[1e-9, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        assert optimal_rate(pop).conditional_rate == pytest.approx(0.5, abs=1e-9)

    def test_unit_example(self):
        pop = PopulationSpec(means=np.array([[2.0, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        report = optimal_rate(pop)
        assert report.conditional_rate == pytest.approx(0.1586553, abs=5e-8)
        assert report.per_class_error[0] == report.per_class_error[1]

    def test_three_percent_population(self):
        # separation chosen so the optimal rate is 3%
        target = 2.0 * 1.8808
        pop = PopulationSpec(means=np.array([[target, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        assert optimal_rate(pop).conditional_rate == pytest.approx(0.03, abs=1e-4)

    def test_t_population_unsupported(self):
        pop = PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.eye(1),
                             distribution="student_t", df=3)
        with pytest.raises(DomainError):
            optimal_rate(pop)


class TestConditionalRate:
    def test_oracle_identity(self, rng):
        # conditional rate of the oracle rule equals the optimal rate to
        # floating-point accuracy, across random SPD populations
        for _ in range(100):
            p = int(rng.integers(2, 51))
            pop = random_population(rng, p)
            got = conditional_rate(build_oracle(pop), pop).conditional_rate
            want = optimal_rate(pop).conditional_rate
            assert abs(got - want) <= 1e-12

    def test_hand_computed_example(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             covariance=np.eye(2))
        rule = LinearRule(weights=np.array([1.0, 0.0]), cutoff=0.5)
        report = conditional_rate(rule, pop)
        expected = float((mp.ncdf(-0.5) + mp.ncdf(-1.5)) / 2)
        assert report.conditional_rate == pytest.approx(expected, abs=1e-12)
        assert report.conditional_rate == pytest.approx(0.187672, abs=5e-7)
        assert report.per_class_error[0] == pytest.approx(0.308538, abs=5e-7)
        assert report.per_class_error[1] == pytest.approx(0.066807, abs=5e-7)

    def test_degenerate_rule_is_half(self, rng):
        pop = random_population(rng, 3)
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0, degenerate=True)
        report = conditional_rate(rule, pop)
        assert report.conditional_rate == 0.5
        assert report.per_class_error == (0.0, 1.0)
        assert report.degenerate

    def test_scale_invariance(self, rng):
        pop = random_population(rng, 5)
        w = rng.standard_normal(5)
        c = float(w @ pop.mid)
        base = conditional_rate(LinearRule(weights=w, cutoff=c), pop).conditional_rate
        for s in (1e-4, 7.0, 1e5):
            scaled = conditional_rate(LinearRule(weights=s * w, cutoff=s * c), pop)
            assert scaled.conditional_rate == pytest.approx(base, rel=1e-12)

    def test_t_population_rejected(self):
        pop = PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.eye(1),
                             distribution="student_t", df=3)
        with pytest.raises(DomainError):
            conditional_rate(LinearRule(weights=np.ones(1), cutoff=0.0), pop)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_sigma_w_bit_exact_against_dense_product(self, rng, diagonal):
        # sigma_w^2 = w'(d * w) on a diagonal Sigma, w'(Sigma w) otherwise:
        # both give the bits of the dense product
        p = 300
        sigma = np.diag(rng.uniform(0.1, 50.0, p)) if diagonal else random_spd(rng, p)
        pop = PopulationSpec(means=np.vstack([rng.standard_normal(p), np.zeros(p)]),
                             covariance=sigma)
        assert (pop.chol.kind == "diagonal") == diagonal
        for _ in range(50):
            w = rng.standard_normal(p)
            if diagonal:
                assert w @ (pop.chol.diagonal * w) == w @ (sigma @ w)
            c = float(w @ pop.mid) + rng.standard_normal()
            sigma_w = math.sqrt(float(w @ (sigma @ w)))
            e1 = std_normal_cdf((c - float(w @ pop.means[0])) / sigma_w)
            e2 = std_normal_cdf((float(w @ pop.means[1]) - c) / sigma_w)
            report = conditional_rate(LinearRule(weights=w, cutoff=c), pop)
            assert report.per_class_error == (e1, e2)


class TestConditionalRateMc:
    def test_always_class_one(self, rng):
        pop = random_population(rng, 3)
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0, degenerate=True)
        report = conditional_rate_mc({"r": rule}, pop, 5000, substream(1, 0))["r"]
        assert report.per_class_error == (0.0, 1.0)
        assert report.conditional_rate == 0.5
        # next to a live rule, the zero column of the score factor keeps
        # the degenerate scores at +-0.0, under the normal and under t(3)
        for distribution in ("normal", "student_t"):
            both = PopulationSpec(means=pop.means, covariance=pop.covariance,
                                  distribution=distribution, df=3)
            joint = conditional_rate_mc({"d": rule, "o": build_oracle(both)}, both, 5000,
                                        substream(1, 1))
            assert joint["d"].per_class_error == (0.0, 1.0)
            assert joint["d"].conditional_rate == 0.5
            assert 0.0 < joint["o"].conditional_rate < 0.5

    def test_deterministic(self, rng):
        pop = random_population(rng, 4)
        rule = build_oracle(pop)
        a = conditional_rate_mc({"r": rule}, pop, 20_000, substream(5, 1))["r"]
        b = conditional_rate_mc({"r": rule}, pop, 20_000, substream(5, 1))["r"]
        assert a.conditional_rate == b.conditional_rate

    def test_matches_closed_form(self, rng):
        pop = random_population(rng, 8)
        w = rng.standard_normal(8)
        rule = LinearRule(weights=w, cutoff=float(w @ pop.mid))
        cf = conditional_rate(rule, pop).conditional_rate
        mc = conditional_rate_mc({"r": rule}, pop, 100_000, substream(6, 2))["r"]
        assert abs(cf - mc.conditional_rate) <= 3.5 * mc.stderr

    def test_t_population_matches_univariate_t_tail(self, rng):
        # linear scores of an elliptical t are univariate t after
        # standardizing by sqrt(w' Sigma w): an independent closed form
        p = 6
        sigma = np.eye(p) + 0.2
        delta = rng.standard_normal(p)
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=sigma,
                             distribution="student_t", df=3)
        w = rng.standard_normal(p)
        rule = LinearRule(weights=w, cutoff=float(w @ (0.5 * delta)))
        expected = t_rate(rule, pop)
        mc = conditional_rate_mc({"r": rule}, pop, 200_000, substream(7, 3))["r"]
        assert abs(mc.conditional_rate - expected) <= 4 * mc.stderr

    def test_joint_reports_match_individual_distribution(self, rng):
        # same rule twice in a joint pass gives identical estimates
        pop = random_population(rng, 5)
        rule = build_oracle(pop)
        out = conditional_rate_mc({"a": rule, "b": rule}, pop, 50_000, substream(8, 0))
        assert out["a"].conditional_rate == out["b"].conditional_rate

    @pytest.mark.parametrize("distribution", ["normal", "student_t"])
    def test_joint_estimates_match_exact_rates(self, rng, distribution):
        # every rule of a joint call lies within 4 stderr of its own exact
        # rate: the closed form under the normal, the univariate t tail
        # under t(3)
        base = random_population(rng, 6)
        pop = PopulationSpec(means=base.means, covariance=base.covariance,
                             distribution=distribution, df=3)
        w = rng.standard_normal(6)
        rules = {"a": build_oracle(pop), "b": LinearRule(weights=w, cutoff=float(w @ pop.mid))}
        joint = conditional_rate_mc(rules, pop, 20_000, substream(10, 1))
        for name, rule in rules.items():
            if distribution == "normal":
                exact = conditional_rate(rule, pop).conditional_rate
            else:
                exact = t_rate(rule, pop)
            assert abs(joint[name].conditional_rate - exact) <= 4 * joint[name].stderr

    @pytest.mark.parametrize("case", ["linear_normal", "linear_t3", "multi_k3"])
    def test_score_space_matches_full_dimensional_draw(self, rng, monkeypatch, case):
        # the score-space draw against the n_mc x p draw it replaced, on
        # independent substreams: the two rates agree within 4 stderr of
        # their difference
        from conftest import random_spd
        from test_classify import oracle_multi_rule

        p, n_mc = 8, 50_000
        if case == "multi_k3":
            means = rng.standard_normal((3, p))
            sigma = random_spd(rng, p)
            pop = PopulationSpec(means=means, covariance=sigma)
            rule = oracle_multi_rule(means, sigma)
        else:
            base = random_population(rng, p)
            pop = PopulationSpec(means=base.means, covariance=base.covariance,
                                 distribution="normal" if case == "linear_normal" else "student_t",
                                 df=3)
            w = rng.standard_normal(p)
            rule = LinearRule(weights=w, cutoff=float(w @ pop.mid))
        new = conditional_rate_mc({"r": rule}, pop, n_mc, substream(15, 0))["r"]
        monkeypatch.setattr(evaluate, "_class_scores", full_dimensional_scores)
        old = conditional_rate_mc({"r": rule}, pop, n_mc, substream(15, 1))["r"]
        bound = 4 * math.sqrt(old.stderr ** 2 + new.stderr ** 2)
        assert abs(new.conditional_rate - old.conditional_rate) <= bound

    @pytest.mark.parametrize("p, m", [(7, 3), (2, 6)])
    def test_score_factor_reproduces_gram(self, rng, p, m):
        # with z = I the scores are the factor R itself: R'R = W'Sigma W,
        # and the draw is n_mc x min(p, m), never n_mc x p
        pop = PopulationSpec(means=np.vstack([np.zeros(p), rng.standard_normal(p)]),
                             covariance=random_population(rng, p).covariance)
        w = rng.standard_normal((p, m))
        rows = min(p, m)
        gen = IdentityNormals()
        r = evaluate._class_scores(pop, 1, w, rows, gen)
        assert gen.shapes == [(rows, rows)]
        assert r.shape == (rows, m)
        gram = w.T @ pop.covariance @ w
        np.testing.assert_allclose(r.T @ r, gram, rtol=1e-12, atol=1e-12 * np.abs(gram).max())

    def test_wrong_p_linear_rule_rejected(self, rng):
        pop = random_population(rng, 4)
        rule = LinearRule(weights=np.ones(3), cutoff=0.0)
        with pytest.raises(ShapeError):
            conditional_rate_mc({"r": rule}, pop, 100, substream(11, 0))
        with pytest.raises(ShapeError):
            conditional_rate_mc({"ok": build_oracle(pop), "r": rule}, pop, 100, substream(11, 0))

    def test_wrong_p_multi_rule_rejected(self, rng):
        from test_classify import oracle_multi_rule
        from conftest import random_spd

        means = rng.standard_normal((3, 4))
        pop = PopulationSpec(means=means, covariance=random_spd(rng, 4))
        rule = oracle_multi_rule(means[:, :3], random_spd(rng, 3))
        with pytest.raises(ShapeError):
            conditional_rate_mc({"r": rule}, pop, 100, substream(12, 0))

    def test_class_count_mismatch_rejected(self, rng):
        from test_classify import oracle_multi_rule
        from conftest import random_spd

        means = rng.standard_normal((3, 4))
        sigma = random_spd(rng, 4)
        three = PopulationSpec(means=means, covariance=sigma)
        two = PopulationSpec(means=means[:2], covariance=sigma)
        with pytest.raises(ShapeError):
            conditional_rate_mc({"r": LinearRule(weights=np.ones(4), cutoff=0.0)},
                                three, 100, substream(13, 0))
        with pytest.raises(ShapeError):
            conditional_rate_mc({"r": oracle_multi_rule(means, sigma)}, two, 100, substream(13, 0))

    def test_empty_rules_and_bad_n_mc_rejected(self, rng):
        pop = random_population(rng, 3)
        with pytest.raises(DomainError):
            conditional_rate_mc({}, pop, 100, substream(14, 0))
        with pytest.raises(DomainError):
            conditional_rate_mc({"r": build_oracle(pop)}, pop, 0, substream(14, 0))

    @pytest.mark.parametrize("k, p", [(3, 4), (4, 2)], ids=["k3_p4", "k4_p2"])
    def test_multiclass_against_nearest_mean_oracle(self, rng, k, p):
        # average per-class error of the all-pairs rule under a K = 3
        # population, and under K = 4 at p = 2 (6 pair columns > p, so the
        # score factor is 2 x 6), cross-checked by an independent
        # full-dimensional sampler + nearest-Mahalanobis-mean brute force
        from test_classify import nearest_mahalanobis, oracle_multi_rule

        means = rng.standard_normal((k, p)) * 1.2
        from conftest import random_spd

        sigma = random_spd(rng, p)
        pop = PopulationSpec(means=means, covariance=sigma)
        rule = oracle_multi_rule(means, sigma)
        mc = conditional_rate_mc({"r": rule}, pop, 100_000, substream(9, 4))["r"]
        checker = np.random.default_rng(321)
        errs = []
        for cls in range(k):
            x = checker.multivariate_normal(means[cls], sigma, size=100_000,
                                            method="cholesky")
            labels = nearest_mahalanobis(means, sigma, x)
            errs.append(np.mean(labels != cls + 1))
        expected = float(np.mean(errs))
        assert abs(mc.conditional_rate - expected) <= 5 * mc.stderr + 0.003
        assert len(mc.per_class_error) == k


class TestEmpiricalRate:
    def make_rule(self):
        return LinearRule(weights=np.array([1.0, 0.0]), cutoff=0.0)

    def test_all_correct(self):
        ds = two_class_dataset([[1.0, 0.0], [2.0, 1.0]], [[-1.0, 0.0], [-2.0, 1.0]])
        assert empirical_rate(self.make_rule(), ds).conditional_rate == 0.0

    def test_all_wrong(self):
        ds = two_class_dataset([[-1.0, 0.0], [-2.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]])
        assert empirical_rate(self.make_rule(), ds).conditional_rate == 1.0

    def test_counting(self):
        # 1 of 4 class-1 wrong, 0 of 4 class-2 wrong -> (0.25 + 0)/2
        ds = two_class_dataset(
            [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [-1.0, 0.0]],
            [[-1.0, 1.0], [-2.0, 1.0], [-3.0, 1.0], [-4.0, 1.0]])
        report = empirical_rate(self.make_rule(), ds)
        assert report.conditional_rate == 0.125
        assert report.per_class_error == (0.25, 0.0)

    def test_class_count_mismatch_rejected(self, rng):
        from test_classify import oracle_multi_rule

        rule = oracle_multi_rule(rng.standard_normal((3, 2)), np.eye(2))
        two_cls = two_class_dataset(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        with pytest.raises(DataError):
            empirical_rate(rule, two_cls)

    def test_multiclass_counting(self, rng):
        from test_classify import oracle_multi_rule

        means = np.array([[6.0, 0.0], [0.0, 6.0], [-6.0, -6.0]])
        rule = oracle_multi_rule(means, np.eye(2))
        features = np.vstack([means[c] + 0.1 * rng.standard_normal((4, 2))
                              for c in range(3)])
        ds = Dataset(features=features, labels=np.repeat([1, 2, 3], 4),
                     class_counts=(4, 4, 4))
        report = empirical_rate(rule, ds)
        assert report.conditional_rate == 0.0
        assert report.per_class_error == (0.0, 0.0, 0.0)


class TestLoocv:
    def separable(self, rng):
        x1 = np.column_stack([10.0 + 0.01 * rng.standard_normal(6),
                              rng.standard_normal(6)])
        x2 = np.column_stack([-10.0 + 0.01 * rng.standard_normal(6),
                              rng.standard_normal(6)])
        return two_class_dataset(x1, x2)

    def test_zero_on_separable(self, rng):
        assert loocv_rate(self.separable(rng), ThresholdConfig(m1=1.0, m2=1.0, alpha=0.3)) == 0.0

    def test_degenerate_config_gives_class2_fraction(self, rng):
        ds = two_class_dataset(rng.standard_normal((7, 3)), rng.standard_normal((5, 3)))
        rate = loocv_rate(ds, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
        assert rate == 5 / 12

    def test_requires_three_per_class(self, rng):
        ds = two_class_dataset(rng.standard_normal((2, 3)), rng.standard_normal((5, 3)))
        with pytest.raises(DataError):
            loocv_rate(ds, ThresholdConfig(m1=1.0, m2=1.0, alpha=0.3))

    def test_in_unit_interval(self, rng):
        ds = two_class_dataset(rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
        rate = loocv_rate(ds, ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        assert 0.0 <= rate <= 1.0

    def test_expectation_identity(self):
        # E[LOOCV] = [n1 R(n1-1, n2) + n2 R(n1, n2-1)] / n, checked by
        # Monte Carlo over 200 seeded replicates
        p, n1, n2 = 3, 6, 6
        delta = np.array([1.5, 0.0, 0.0])
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=np.eye(p))
        cfg = ThresholdConfig(m1=1.0, m2=1.0, alpha=0.3)
        loo_scores, true_rates = [], []
        for rep in range(200):
            gen = substream(717, rep)
            loo_scores.append(loocv_rate(draw(pop, n1, n2, gen), cfg))
            r1 = conditional_rate(build_slda(draw(pop, n1 - 1, n2, gen), cfg)[0], pop)
            r2 = conditional_rate(build_slda(draw(pop, n1, n2 - 1, gen), cfg)[0], pop)
            true_rates.append((n1 * r1.conditional_rate + n2 * r2.conditional_rate) / (n1 + n2))
        a, b = np.array(loo_scores), np.array(true_rates)
        se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) <= 3 * se


    def test_screened_leukemia_shape_matches_diagonal_reference(self):
        # 72 x 2000 with weak signals (a rate near 0.3), M1 = 1e7: every
        # fold passes the variance screen and fits the independence rule;
        # the reference fits it per fold in numpy, w_j = delta-tilde_j / s_jj
        ds = leukemia_like(72, 2000, signal=0.01)
        cfg = ThresholdConfig(m1=1e7, m2=3.0, alpha=0.3)
        classify_module = sys.modules["slda.classify"]
        with mock.patch.object(classify_module, "pooled_covariance",
                               side_effect=AssertionError("S formed")):
            rate = loocv_rate(ds, cfg)
        wrong, margin = 0, math.inf
        for i in range(ds.n):
            keep = np.arange(ds.n) != i
            x, labels = ds.features[keep], ds.labels[keep]
            n, p = x.shape
            means = np.array([x[labels == c].mean(axis=0) for c in (1, 2)])
            centered = x - means[labels - 1]
            s_diag = np.einsum("ij,ij->j", centered, centered) / n
            assert s_diag.max() < compute_tn(cfg.m1, n, p)
            delta = means[0] - means[1]
            w = np.where(np.abs(delta) > compute_an(cfg.m2, n, p, cfg.alpha), delta, 0.0) / s_diag
            score = ds.features[i] @ w - w @ (0.5 * (means[0] + means[1]))
            margin = min(margin, abs(score) / (np.abs(ds.features[i]) @ np.abs(w)))
            wrong += (1 if score >= 0.0 else 2) != ds.labels[i]
        assert margin > 1e-9  # no held-out score is near enough 0 to round across it
        assert 0.1 < rate == wrong / ds.n


class TestCvGridSearch:
    def test_single_point(self, rng):
        ds = two_class_dataset(rng.standard_normal((4, 3)) + 2.0, rng.standard_normal((4, 3)))
        surface = cv_grid_search(ds, [1.5], [0.7], 0.3)
        assert surface.grid == ((1.5, 0.7),)
        assert surface.best == (1.5, 0.7)
        assert surface.best_score == surface.scores[0]

    def test_zero_point_dominates_on_separable(self, rng):
        x1 = np.column_stack([8.0 + 0.1 * rng.standard_normal(5), rng.standard_normal(5)])
        x2 = np.column_stack([-8.0 + 0.1 * rng.standard_normal(5), rng.standard_normal(5)])
        ds = two_class_dataset(x1, x2)
        surface = cv_grid_search(ds, [0.0, 1.0], [0.0, 1e9], 0.3)
        zero_score = surface.scores[surface.grid.index((0.0, 0.0))]
        assert surface.best_score == min(surface.scores)
        assert zero_score == 0.0
        over = surface.scores[surface.grid.index((0.0, 1e9))]
        assert surface.best_score <= over

    def test_tie_breaks_toward_sparse(self, rng):
        x1 = np.column_stack([9.0 + 0.01 * rng.standard_normal(5), rng.standard_normal(5)])
        x2 = np.column_stack([-9.0 + 0.01 * rng.standard_normal(5), rng.standard_normal(5)])
        ds = two_class_dataset(x1, x2)
        surface = cv_grid_search(ds, [0.5, 1.0], [0.5, 1.0], 0.3)
        assert all(s == 0.0 for s in surface.scores)
        assert surface.best == (1.0, 1.0)

    def test_duplicated_grid_same_best(self, rng):
        ds = two_class_dataset(rng.standard_normal((5, 3)) + 1.5, rng.standard_normal((5, 3)))
        a = cv_grid_search(ds, [0.5, 2.0], [0.5, 2.0], 0.3)
        b = cv_grid_search(ds, [0.5, 2.0, 0.5, 2.0], [0.5, 2.0, 0.5, 2.0], 0.3)
        assert a.best == b.best and a.best_score == b.best_score

    def test_empty_grid_rejected(self, rng):
        ds = two_class_dataset(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        with pytest.raises(DomainError):
            cv_grid_search(ds, [], [1.0], 0.3)

    def test_default_grids_span_empirical_scales(self, rng):
        from slda.evaluate import default_grids

        ds = draw(random_population(rng, 30), 25, 25, substream(44, 0))
        m1_grid, m2_grid = default_grids(ds, alpha=0.3)
        assert len(m1_grid) == 7 and len(m2_grid) == 7
        assert all(v > 0 for v in m1_grid + m2_grid)
        assert m1_grid == sorted(m1_grid) and m2_grid == sorted(m2_grid)
        # a_n at the top of the grid reaches the upper |delta_hat| range
        summary_delta = np.abs(summarize(ds).delta_hat)
        top_a = compute_an(m2_grid[-1], ds.n, ds.p, 0.3)
        assert top_a >= np.quantile(summary_delta, 0.95)

    def test_default_grids_match_triu_indices_recipe(self, rng):
        # the boolean-mask gather takes the same values as the
        # np.triu_indices expression, so the grids are bit-identical
        from slda.evaluate import default_grids

        ds = draw(random_population(rng, 12), 9, 8, substream(45, 0))
        m1_grid, _ = default_grids(ds, alpha=0.3, size=5)
        s = summarize(ds).pooled_cov
        offdiag = np.abs(s[np.triu_indices(ds.p, k=1)])
        lo = max(float(np.quantile(offdiag, 0.5)), 1e-12)
        hi = max(float(np.quantile(offdiag, 0.999)), lo * (1.0 + 1e-9))
        want = np.exp(np.linspace(math.log(lo), math.log(hi), 5)) / compute_tn(1.0, ds.n, ds.p)
        assert [float(v) for v in m1_grid] == [float(v) for v in want]

    def test_chosen_threshold_recovers_support_bracket(self):
        # p = 100, n = 60, five strong and five window signals; the
        # CV-chosen M2's a_n puts the kept count inside the bracket from
        # the true delta in >= 16 of 20 seeded replicates
        p, n1, n2 = 100, 30, 30
        delta = np.zeros(p)
        delta[np.arange(5) * 20] = 1.3
        delta[np.arange(5) * 20 + 10] = 0.6
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=np.eye(p))
        inside = 0
        for rep in range(20):
            ds = draw(pop, n1, n2, substream(616, rep))
            surface = cv_grid_search(ds, [1.5, 3.0], [1.5, 1.9, 2.4], 0.3)
            m1_best, m2_best = surface.best
            a_n = compute_an(m2_best, n1 + n2, p, 0.3)
            q_n0, q_n = lemma2_counts(delta, a_n, 2.0)
            _, report = build_slda(ds, ThresholdConfig(m1=m1_best, m2=m2_best, alpha=0.3))
            inside += q_n0 <= report.q_hat <= q_n
        assert inside >= 16


def per_point_surface(dataset, m1_grid, m2_grid, alpha):
    """The grid-point-major loop cv_grid_search replaced: at every
    (M1, M2), every fold refits with build_slda; a point whose config or
    any refit raises scores 1.0. Kept as the reference of the fold-major
    loop; returns the scores and the count of points scored that way."""
    scores, forced = [], 0
    for m1 in m1_grid:
        for m2 in m2_grid:
            try:
                config = ThresholdConfig(m1=m1, m2=m2, alpha=alpha)
                if min(dataset.class_counts) < 3:
                    raise DataError("class count < 3")
                wrong = 0
                for i in range(dataset.n):
                    rule, _ = build_slda(dataset.drop(i), config)
                    wrong += classify(rule, dataset.features[i]) != int(dataset.labels[i])
                scores.append(wrong / dataset.n)
            except SldaError:
                scores.append(1.0)
                forced += 1
    return scores, forced


def shifted_two_class(seed, n1, n2, p, signal=3):
    gen = np.random.default_rng(seed)
    x1 = gen.standard_normal((n1, p))
    x1[:, :signal] += 1.5
    return two_class_dataset(x1, gen.standard_normal((n2, p)))


class TestFoldMajorCv:
    """cv_grid_search (fold-major: one summary per fold, one factor per
    fold and M1) against the per-point reference, bit for bit."""

    def test_equals_per_point_reference(self):
        # p > n: a middle M1 leaves an indefinite Sigma-tilde (eigen_floor)
        # and M1 = 50 a diagonal one; M2 = 1e9 is degenerate at every fold
        # and M2 = -1 is rejected by ThresholdConfig
        for seed in (7, 8):
            ds = shifted_two_class(seed, 10, 9, 30)
            s = summarize(ds).pooled_cov
            m1_grid = [0.64, 50.0]
            kinds = [invert_sparse_sym(threshold_covariance(s, compute_tn(m1, ds.n, ds.p))).kind
                     for m1 in m1_grid]
            assert kinds == ["eigen_floor", "diagonal"]
            m2_grid = [0.0, 1.0, 1e9, -1.0]
            surface = cv_grid_search(ds, m1_grid, m2_grid, 0.3)
            scores, forced = per_point_surface(ds, m1_grid, m2_grid, 0.3)
            assert list(surface.scores) == scores
            assert surface.forced_worst == forced == 2
            degenerate = [surface.scores[surface.grid.index((m1, 1e9))] for m1 in m1_grid]
            assert degenerate == [9 / 19, 9 / 19]

    def test_factor_failure_fails_only_points_that_factor(self):
        # features constant within each class: S = 0 at every fold, so
        # factoring Sigma-tilde raises UnusableMatrixError wherever delta
        # keeps a component (score 1.0), while a degenerate M2 needs no
        # factor and scores the class-2 fraction
        x1 = np.tile([1.0, 2.0, -1.0], (5, 1))
        x2 = np.tile([0.0, 2.5, 1.0], (4, 1))
        ds = two_class_dataset(x1, x2)
        m1_grid, m2_grid = [0.0, 1.0], [0.1, 1e9]
        surface = cv_grid_search(ds, m1_grid, m2_grid, 0.3)
        assert surface.scores == (1.0, 4 / 9, 1.0, 4 / 9)
        assert surface.forced_worst == 2
        assert surface.best == (1.0, 1e9)
        assert list(surface.scores) == per_point_surface(ds, m1_grid, m2_grid, 0.3)[0]
        with pytest.raises(SldaError, match="LOOCV refit failed on fold 0"):
            loocv_rate(ds, ThresholdConfig(m1=1.0, m2=0.1, alpha=0.3))
        assert loocv_rate(ds, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3)) == 4 / 9

    @pytest.mark.parametrize("case", ["small_class", "three_classes", "bad_alpha"])
    def test_whole_dataset_failure_forces_every_point(self, case, rng):
        alpha = 0.3
        if case == "small_class":
            ds = two_class_dataset(rng.standard_normal((2, 3)), rng.standard_normal((5, 3)))
        elif case == "three_classes":
            x = rng.standard_normal((12, 3))
            labels = np.repeat([1, 2, 3], 4)
            ds = Dataset(features=x, labels=labels, class_counts=(4, 4, 4))
        else:
            ds = two_class_dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
            alpha = 0.5
        surface = cv_grid_search(ds, [0.5, 2.0], [0.5, 2.0], alpha)
        assert surface.scores == (1.0,) * 4 and surface.forced_worst == 4

    def test_same_surface_on_any_thread_count(self):
        ds = shifted_two_class(9, 10, 9, 30)
        x1 = np.tile([1.0, 2.0, -1.0], (5, 1))
        flat = two_class_dataset(x1, np.tile([0.0, 2.5, 1.0], (4, 1)))
        for data, m2_grid in ((ds, [0.0, 1.0, 1e9]), (flat, [0.1, 1e9])):
            one = cv_grid_search(data, [0.64, 50.0], m2_grid, 0.3, threads=1)
            two = cv_grid_search(data, [0.64, 50.0], m2_grid, 0.3, threads=2)
            assert one == two
