"""Rate computation: closed forms, their Monte Carlo cross-checks,
empirical rates, LOOCV and the (M1, M2) grid search."""

import dataclasses
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    bits_equal,
    leukemia_like,
    mc_rate,
    nnz_offdiag,
    random_population,
    random_spd,
    summarize,
    threshold_covariance,
    two_class_dataset,
)
import slda
from slda import evaluate
from slda.classify import build_oracle, build_slda, classify, classify_many
from slda.diagnostics import lemma2_counts
from slda.errors import DataError, DomainError, ShapeError, SldaError
from slda.estimation import compute_an, compute_tn
from slda.evaluate import (
    conditional_rate,
    cv_grid_search,
    empirical_rate,
    loocv_rate,
    optimal_rate,
)
from slda.model import (
    Dataset,
    LinearRule,
    PopulationSpec,
    ThresholdConfig,
    validate_dataset,
)
from slda.numerics import invert_sparse_sym, sample_mvn, std_normal_cdf, student_t_cdf, substream

mp.mp.dps = 30


def t_population(pop, df=3):
    """``pop``'s means and covariance as the scale matrix of a t(df)."""
    return PopulationSpec(means=pop.means, covariance=pop.covariance,
                          distribution="student_t", df=df)


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
        normal = random_population(rng, 3)
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0)
        for pop in (normal, t_population(normal)):
            report = conditional_rate(rule, pop)
            assert report.conditional_rate == 0.5
            assert report.per_class_error == (0.0, 1.0)
            assert report.degenerate

    def test_scale_invariance(self, rng):
        normal = random_population(rng, 5)
        w = rng.standard_normal(5)
        c = float(w @ normal.mid)
        for pop in (normal, t_population(normal)):
            base = conditional_rate(LinearRule(weights=w, cutoff=c), pop).conditional_rate
            for s in (1e-4, 7.0, 1e5):
                scaled = conditional_rate(LinearRule(weights=s * w, cutoff=s * c), pop)
                assert scaled.conditional_rate == pytest.approx(base, rel=1e-12)

    def test_t_population_hand_computed(self):
        # t(1) is the Cauchy law: with sigma_w = 1 the class errors are
        # F(-1/2) = 1/2 - atan(1/2)/pi and F(-3/2) = 1/2 - atan(3/2)/pi
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [-1.0, 0.0]]), covariance=np.eye(2),
                             distribution="student_t", df=1)
        report = conditional_rate(LinearRule(weights=np.array([1.0, 0.0]), cutoff=0.5), pop)
        e1, e2 = 0.5 - math.atan(0.5) / math.pi, 0.5 - math.atan(1.5) / math.pi
        assert report.method == "closed_form"
        assert report.per_class_error == pytest.approx((e1, e2), rel=1e-14)
        assert report.conditional_rate == pytest.approx(0.5 * (e1 + e2), rel=1e-14)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_t_population_errors_are_student_t_cdf(self, rng, diagonal):
        # the normal formula with F_df in place of Phi, at the same arguments
        p, df = 7, 3
        d = rng.uniform(0.5, 3.0, p)
        pop = PopulationSpec(means=np.vstack([rng.standard_normal(p), np.zeros(p)]),
                             covariance=d if diagonal else random_spd(rng, p),
                             distribution="student_t", df=df)
        cov = np.diag(d) if diagonal else pop.covariance
        for _ in range(20):
            w = rng.standard_normal(p)
            c = float(w @ pop.mid) + rng.standard_normal()
            sigma_w = math.sqrt(float(w @ (cov @ w)))
            e1 = student_t_cdf((c - float(w @ pop.means[0])) / sigma_w, df)
            e2 = student_t_cdf((float(w @ pop.means[1]) - c) / sigma_w, df)
            report = conditional_rate(LinearRule(weights=w, cutoff=c), pop)
            assert report.per_class_error == pytest.approx((e1, e2), rel=1e-14)

    def test_t_rate_exceeds_normal_rate(self, rng):
        # the same rule misclassifies more under t(3) tails than under the
        # normal with the same scale matrix
        normal = random_population(rng, 5)
        rule = build_oracle(normal)
        assert (conditional_rate(rule, t_population(normal)).conditional_rate
                > conditional_rate(rule, normal).conditional_rate)

    def test_multi_class_population_rejected(self, rng):
        means = rng.standard_normal((3, 2))
        pop = PopulationSpec(means=means, covariance=np.eye(2), distribution="student_t", df=3)
        with pytest.raises(DomainError, match="two-class"):
            conditional_rate(LinearRule(weights=np.ones(2), cutoff=0.0), pop)

    def test_wrong_p_rule_rejected(self, rng):
        pop = random_population(rng, 4)
        with pytest.raises(ShapeError, match="rule dimension 3"):
            conditional_rate(LinearRule(weights=np.ones(3), cutoff=0.0), pop)

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("distribution", ["normal", "student_t"])
    def test_power_of_two_scaling_is_bit_exact(self, rng, diagonal, distribution):
        # w'Sigma w underflows at 2^-600 (w, c) and overflows at 2^520;
        # both are taken again at the exact 2^-e scaling, which gives the
        # bits of the unscaled rule
        p = 5
        pop = PopulationSpec(means=np.vstack([rng.standard_normal(p), np.zeros(p)]),
                             covariance=rng.uniform(0.5, 2.0, p) if diagonal
                             else random_spd(rng, p),
                             distribution=distribution, df=3)
        for _ in range(10):
            w = rng.standard_normal(p)
            c = float(w @ pop.mid) + rng.standard_normal()
            base = conditional_rate(LinearRule(weights=w, cutoff=c), pop)
            for k in (-600, 520):
                scaled = conditional_rate(
                    LinearRule(weights=np.ldexp(w, k), cutoff=math.ldexp(c, k)), pop)
                assert scaled == base

    @pytest.mark.parametrize("k", [-300, 0, 300])
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("distribution", ["normal", "student_t"])
    def test_scaled_first_gives_the_unscaled_formula(self, rng, k, diagonal, distribution):
        # at 2^k (w, c), k in {-300, 0, 300}, w'Sigma w is in range unscaled:
        # the rate, taken at pow2_scaled(w), has the bits of the plain formula
        p = 7
        cov = rng.uniform(0.5, 2.0, p) if diagonal else random_spd(rng, p)
        pop = PopulationSpec(means=np.vstack([rng.standard_normal(p), rng.standard_normal(p)]),
                             covariance=cov, distribution=distribution, df=3)

        def cdf(x):
            return std_normal_cdf(x) if distribution == "normal" else student_t_cdf(x, 3)

        for _ in range(20):
            w = rng.standard_normal(p)
            c = math.ldexp(float(w @ pop.mid) + rng.standard_normal(), k)
            w = np.ldexp(w, k)
            sigma_w = math.sqrt(float(w @ (cov * w if diagonal else cov @ w)))
            e1 = cdf((c - float(w @ pop.means[0])) / sigma_w)
            e2 = cdf((float(w @ pop.means[1]) - c) / sigma_w)
            report = conditional_rate(LinearRule(weights=w, cutoff=c), pop)
            assert report.per_class_error == (e1, e2)
            assert report.conditional_rate == 0.5 * (e1 + e2)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_sigma_w_bit_exact_against_dense_product(self, rng, diagonal):
        # sigma_w^2 = w'(d * w) on a Sigma given as its (p,) diagonal d,
        # w'(Sigma w) on a matrix: both give the bits of the dense product
        p = 300
        d = rng.uniform(0.1, 50.0, p)
        sigma = np.diag(d) if diagonal else random_spd(rng, p)
        pop = PopulationSpec(means=np.vstack([rng.standard_normal(p), np.zeros(p)]),
                             covariance=d if diagonal else sigma)
        assert (pop.chol.kind == "diagonal") == diagonal
        for _ in range(50):
            w = rng.standard_normal(p)
            if diagonal:
                assert w @ (d * w) == w @ (sigma @ w)
            c = float(w @ pop.mid) + rng.standard_normal()
            sigma_w = math.sqrt(float(w @ (sigma @ w)))
            e1 = std_normal_cdf((c - float(w @ pop.means[0])) / sigma_w)
            e2 = std_normal_cdf((float(w @ pop.means[1]) - c) / sigma_w)
            report = conditional_rate(LinearRule(weights=w, cutoff=c), pop)
            assert report.per_class_error == (e1, e2)


class TestConditionalRateMc:
    """Rates by sampling from the population: conftest's mc_rate
    reference against the closed form of two-class LinearRules, and
    empirical_rate on a drawn test set for a K >= 3 rule."""

    def test_always_class_one(self, rng):
        # a zero w gives an exactly zero score factor, so every draw's
        # score is -c = +-0.0 and goes to class 1: the (0, 1) errors that
        # conditional_rate reports for a degenerate rule, normal and t(3)
        normal = random_population(rng, 3)
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0)
        for pop in (normal, t_population(normal)):
            assert conditional_rate(rule, pop).per_class_error == (0.0, 1.0)
            assert mc_rate(rule, pop, 5000, substream(1, 0)) == (0.5, 0.0)

    def test_matches_closed_form(self, rng):
        pop = random_population(rng, 8)
        w = rng.standard_normal(8)
        rule = LinearRule(weights=w, cutoff=float(w @ pop.mid))
        cf = conditional_rate(rule, pop).conditional_rate
        rate, stderr = mc_rate(rule, pop, 100_000, substream(6, 2))
        assert abs(cf - rate) <= 3.5 * stderr

    def test_t_population_matches_univariate_t_tail(self, rng):
        # linear scores of an elliptical t are univariate t after
        # standardizing by sqrt(w' Sigma w): conditional_rate's closed form
        # and the Monte Carlo reference check each other
        p = 6
        sigma = np.eye(p) + 0.2
        delta = rng.standard_normal(p)
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=sigma,
                             distribution="student_t", df=3)
        w = rng.standard_normal(p)
        rule = LinearRule(weights=w, cutoff=float(w @ (0.5 * delta)))
        expected = conditional_rate(rule, pop).conditional_rate
        rate, stderr = mc_rate(rule, pop, 200_000, substream(7, 3))
        assert abs(rate - expected) <= 4 * stderr

    @pytest.mark.parametrize("distribution", ["normal", "student_t"])
    def test_joint_estimates_match_exact_rates(self, rng, distribution):
        # the oracle and a perturbed rule each lie within 4 stderr of
        # their own exact rate: conditional_rate's closed form under the
        # normal and t(3)
        base = random_population(rng, 6)
        pop = PopulationSpec(means=base.means, covariance=base.covariance,
                             distribution=distribution, df=3)
        w = rng.standard_normal(6)
        rules = {"a": build_oracle(pop), "b": LinearRule(weights=w, cutoff=float(w @ pop.mid))}
        for rule in rules.values():
            exact = conditional_rate(rule, pop).conditional_rate
            rate, stderr = mc_rate(rule, pop, 20_000, substream(10, 1))
            assert abs(rate - exact) <= 4 * stderr

    @pytest.mark.parametrize("k, p", [(3, 4), (4, 2)], ids=["k3_p4", "k4_p2"])
    def test_multiclass_against_nearest_mean_oracle(self, rng, k, p):
        # the K >= 3 rate recipe: draw a labelled test set with
        # sample_mvn and take empirical_rate of the oracle MultiRule. The
        # maximin labels of the all-pairs oracle are the nearest-
        # Mahalanobis-mean labels of the same rows, so the rates are equal
        from test_classify import nearest_mahalanobis, oracle_multi_rule

        means = rng.standard_normal((k, p)) * 1.2
        sigma = random_spd(rng, p)
        pop = PopulationSpec(means=means, covariance=sigma)
        gen, n = substream(9, 4), 2000
        features = np.vstack([sample_mvn(mu, pop.chol, gen, size=n) for mu in means])
        test = validate_dataset(features, np.repeat(np.arange(1, k + 1), n))
        rule = oracle_multi_rule(means, sigma)
        report = empirical_rate(rule, test)
        labels = nearest_mahalanobis(means, sigma, test.features)
        assert np.array_equal(classify_many(rule, test.features), labels)
        errors = tuple(float(np.mean(labels[test.labels == cls] != cls))
                       for cls in range(1, k + 1))
        assert report.per_class_error == errors
        assert report.conditional_rate == float(np.mean(errors))
        assert 0.0 < report.conditional_rate < 1.0 - 1.0 / k


def test_rates_have_no_monte_carlo_engine():
    # every two-class rate is closed form; a K >= 3 rate is empirical_rate
    # on a drawn test set
    assert not hasattr(slda, "conditional_rate_mc")
    assert not hasattr(evaluate, "conditional_rate_mc")
    assert [f.name for f in dataclasses.fields(evaluate.RateReport)] == [
        "conditional_rate", "per_class_error", "method", "degenerate"]


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

    def test_wrong_p_rule_rejected(self, rng):
        # a LinearRule or a MultiRule of p = 3 against a test set of p = 4
        from test_classify import oracle_multi_rule

        linear = LinearRule(weights=np.ones(3), cutoff=0.0)
        multi = oracle_multi_rule(rng.standard_normal((3, 3)), random_spd(rng, 3))
        for rule, k in ((linear, 2), (multi, 3)):
            test = validate_dataset(rng.standard_normal((3 * k, 4)),
                                    np.repeat(np.arange(1, k + 1), 3))
            with pytest.raises(ShapeError, match="incompatible with p=3"):
                empirical_rate(rule, test)

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
        import slda.classify as classify_module

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
        m1_grid, _ = default_grids(ds, alpha=0.3)
        s = summarize(ds).pooled_cov
        offdiag = np.abs(s[np.triu_indices(ds.p, k=1)])
        lo = max(float(np.quantile(offdiag, 0.5)), 1e-12)
        hi = max(float(np.quantile(offdiag, 0.999)), lo * (1.0 + 1e-9))
        want = np.exp(np.linspace(math.log(lo), math.log(hi), 7)) / compute_tn(1.0, ds.n, ds.p)
        assert [float(v) for v in m1_grid] == [float(v) for v in want]

    @pytest.mark.parametrize("omit", ["both", "m1", "m2"])
    def test_omitted_grid_is_default_grid(self, rng, omit):
        # failed at the parent: a None grid was not accepted
        from slda.evaluate import default_grids

        ds = draw(random_population(rng, 8), 7, 6, substream(46, 0))
        auto_m1, auto_m2 = default_grids(ds, alpha=0.25)
        m1_grid = None if omit in ("both", "m1") else [0.5, 2.0]
        m2_grid = None if omit in ("both", "m2") else [0.3, 1.0]
        got = cv_grid_search(ds, m1_grid, m2_grid, 0.25)
        want = cv_grid_search(ds, auto_m1 if m1_grid is None else m1_grid,
                              auto_m2 if m2_grid is None else m2_grid, 0.25)
        assert got == want
        assert bits_equal(np.array(got.grid), np.array(want.grid))
        assert bits_equal(np.array(got.scores), np.array(want.scores))

    def test_omitted_grid_raises_where_default_grids_does(self, rng):
        # failed at the parent: a None grid was not accepted. The dataset is
        # checked before default_grids runs, so the message is the one an
        # explicit grid gets
        x = rng.standard_normal((3, 2))
        ds = validate_dataset(np.vstack([x, x + 1.0, x - 1.0]), np.repeat([1, 2, 3], 3))
        with pytest.raises(DomainError, match="cross-validation requires a two-class dataset"):
            cv_grid_search(ds, None, [1.0], 0.3)

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
    (M1, M2), every fold refits with build_slda; a point at which any
    refit raises scores 1.0. Kept as the reference of the fold-major
    loop; returns the scores and the count of points scored that way."""
    scores, forced = [], 0
    for m1 in m1_grid:
        for m2 in m2_grid:
            config = ThresholdConfig(m1=m1, m2=m2, alpha=alpha)
            try:
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
        for seed in (7, 8):
            ds = shifted_two_class(seed, 10, 9, 30)
            s = summarize(ds).pooled_cov
            m1_grid = [0.64, 50.0]
            tildes = [threshold_covariance(s, compute_tn(m1, ds.n, ds.p)) for m1 in m1_grid]
            assert invert_sparse_sym(tildes[0]).kind == "eigen_floor"
            assert nnz_offdiag(tildes[1]) == 0
            m2_grid = [0.0, 1.0, 1e9]
            surface = cv_grid_search(ds, m1_grid, m2_grid, 0.3)
            scores, forced = per_point_surface(ds, m1_grid, m2_grid, 0.3)
            assert list(surface.scores) == scores
            assert surface.forced_worst == forced == 0
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

    # failed at the parent with explicit grids: every point scored 1.0 and
    # was counted in forced_worst
    @pytest.mark.parametrize("case", ["small_class", "three_classes", "bad_alpha", "one_feature"])
    def test_whole_dataset_failure_raises(self, case, rng):
        alpha = 0.3
        if case == "small_class":
            ds = two_class_dataset(rng.standard_normal((2, 3)), rng.standard_normal((5, 3)))
        elif case == "one_feature":
            ds = two_class_dataset(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)))
        elif case == "three_classes":
            x = rng.standard_normal((12, 3))
            labels = np.repeat([1, 2, 3], 4)
            ds = Dataset(features=x, labels=labels, class_counts=(4, 4, 4))
        else:
            ds = two_class_dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
            alpha = 0.5
        with mock.patch.object(evaluate, "build_slda_grid", side_effect=AssertionError("fold")):
            with pytest.raises(SldaError) as default:
                cv_grid_search(ds, None, None, alpha)
            with pytest.raises(type(default.value)) as explicit:
                cv_grid_search(ds, [0.5, 2.0], [0.5, 2.0], alpha)
        assert str(explicit.value) == str(default.value)

    # failed at the parent: fold 0's refit raised, as "LOOCV refit failed
    # on fold 0: ..."
    @pytest.mark.parametrize("x1, x2, message", [
        ([[0.5], [1.5], [-1.0]], [[0.0], [2.0], [1.0]],
         "leave-one-out cross-validation requires p >= 2, got 1"),
        ([[0.5, 1.0], [-0.5, 2.0], [1.0, 0.0]], [[0.5, 1.0], [0.25, 1.7e308], [1.0, 1.7e308]],
         "class 2 mean of feature 2 is not finite: the class sum overflows"),
    ], ids=["one_feature", "class_sum_overflows"])
    def test_loocv_rate_checks_the_dataset_before_any_fold(self, x1, x2, message):
        ds = two_class_dataset(x1, x2)
        with mock.patch.object(evaluate, "build_slda_grid", side_effect=AssertionError("fold")):
            with pytest.raises(DomainError) as err:
                loocv_rate(ds, ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        assert str(err.value) == message

    # failed at the parent: the point was scored 1.0 and counted in
    # forced_worst
    @pytest.mark.parametrize("m1_grid, m2_grid, message", [
        ([math.nan, 1.0], [0.5], "finite"), ([1.0], [0.5, math.inf], "finite"),
        ([-1.0, 1.0], [0.5], "nonnegative"), ([1.0], [0.5, -1.0], "nonnegative"),
    ], ids=["m1_nan", "m2_inf", "m1_negative", "m2_negative"])
    def test_bad_grid_value_raises(self, m1_grid, m2_grid, message, rng):
        ds = two_class_dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
        with mock.patch.object(evaluate, "build_slda_grid", side_effect=AssertionError("fold")):
            with pytest.raises(DomainError, match=f"M1 and M2 must be {message}"):
                cv_grid_search(ds, m1_grid, m2_grid, 0.3)

    def test_same_surface_on_any_thread_count(self):
        ds = shifted_two_class(9, 10, 9, 30)
        x1 = np.tile([1.0, 2.0, -1.0], (5, 1))
        flat = two_class_dataset(x1, np.tile([0.0, 2.5, 1.0], (4, 1)))
        for data, m2_grid in ((ds, [0.0, 1.0, 1e9]), (flat, [0.1, 1e9])):
            one = cv_grid_search(data, [0.64, 50.0], m2_grid, 0.3, threads=1)
            two = cv_grid_search(data, [0.64, 50.0], m2_grid, 0.3, threads=2)
            assert one == two
