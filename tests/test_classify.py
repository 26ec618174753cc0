"""Rule families: LDA, known-covariance LDA, SLDA, oracle and the
pairwise multi-class extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_population, random_spd, two_class_dataset
from slda.classify import (
    build_lda,
    build_lda_known_sigma,
    build_oracle,
    build_slda,
    build_slda_multi,
    classify,
    classify_many,
    maximin_labels,
)
from slda.diagnostics import lemma2_counts
from slda.errors import DomainError
from slda.estimation import compute_an, summarize
from slda.model import (
    Dataset,
    LinearRule,
    MultiRule,
    PopulationSpec,
    ThresholdConfig,
)
from slda.numerics import cholesky_spd, sample_mvn, spd_solve, substream


def draw_two_class(pop, n1, n2, gen):
    x1 = sample_mvn(pop.means[0], pop.chol, gen, size=n1)
    x2 = sample_mvn(pop.means[1], pop.chol, gen, size=n2)
    return two_class_dataset(x1, x2)


class TestBuildLda:
    def test_separated_toy(self, rng):
        x1 = np.column_stack([3.0 + 0.01 * rng.standard_normal(10), rng.standard_normal(10)])
        x2 = np.column_stack([-3.0 + 0.01 * rng.standard_normal(10), rng.standard_normal(10)])
        ds = two_class_dataset(x1, x2)
        rule = build_lda(ds)
        assert abs(rule.weights[0]) > 10 * abs(rule.weights[1])
        assert np.array_equal(classify_many(rule, ds.features), ds.labels)

    def test_rank_deficient_uses_pseudo_inverse(self, rng):
        ds = two_class_dataset(rng.standard_normal((3, 10)), rng.standard_normal((3, 10)))
        rule = build_lda(ds)  # p = 10 > n = 6: S is singular
        assert np.all(np.isfinite(rule.weights))
        assert not rule.degenerate

    def test_direction_converges_to_oracle(self):
        gen = substream(2024, 0)
        sigma = np.array([[2.0, 0.5, 0.0, 0.0, 0.0],
                          [0.5, 1.5, 0.3, 0.0, 0.0],
                          [0.0, 0.3, 1.0, 0.2, 0.0],
                          [0.0, 0.0, 0.2, 1.2, 0.1],
                          [0.0, 0.0, 0.0, 0.1, 0.8]])
        delta = np.array([1.0, -0.5, 0.25, 0.0, 0.75])
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(5)]), covariance=sigma)
        ds = draw_two_class(pop, 5000, 5000, gen)
        w = build_lda(ds).weights
        target = spd_solve(pop.chol, delta)
        cosine = w @ target / (np.linalg.norm(w) * np.linalg.norm(target))
        assert cosine >= 0.99


class TestBuildLdaKnownSigma:
    def test_identity_gives_delta_hat(self, rng):
        ds = two_class_dataset(rng.standard_normal((5, 3)) + 1.0, rng.standard_normal((6, 3)))
        rule = build_lda_known_sigma(ds, np.eye(3))
        assert np.allclose(rule.weights, summarize(ds).delta_hat, rtol=1e-14)

    def test_scaling_sigma_scales_rule(self, rng):
        ds = two_class_dataset(rng.standard_normal((5, 3)) + 1.0, rng.standard_normal((6, 3)))
        sigma = random_spd(rng, 3)
        base = build_lda_known_sigma(ds, sigma)
        scaled = build_lda_known_sigma(ds, 4.0 * sigma)
        assert np.allclose(scaled.weights, base.weights / 4.0, rtol=1e-12)
        assert scaled.cutoff == pytest.approx(base.cutoff / 4.0, rel=1e-12)
        probes = rng.standard_normal((100, 3))
        assert np.array_equal(classify_many(base, probes), classify_many(scaled, probes))

    def test_diagonal_solve(self):
        # delta_hat = (1, -3), Sigma = diag(0.5, 0.5) -> w = (2, -6)
        ds = two_class_dataset([[0.0, 0.0], [2.0, 0.0]], [[0.0, 2.0], [0.0, 4.0]])
        rule = build_lda_known_sigma(ds, np.diag([0.5, 0.5]))
        assert np.allclose(rule.weights, [2.0, -6.0], rtol=1e-14)


class TestBuildSlda:
    def test_zero_thresholds_reduce_to_lda(self, rng):
        pop = random_population(rng, 20)
        ds = draw_two_class(pop, 100, 100, substream(31, 0))
        lda = build_lda(ds)
        slda, report = build_slda(ds, ThresholdConfig(m1=0.0, m2=0.0, alpha=0.3))
        assert np.max(np.abs(slda.weights - lda.weights)) <= 1e-10
        assert abs(slda.cutoff - lda.cutoff) <= 1e-10
        probes = rng.standard_normal((1000, 20))
        assert np.array_equal(classify_many(slda, probes), classify_many(lda, probes))
        assert report.q_hat == 20

    def test_huge_m2_degenerates(self, rng):
        ds = two_class_dataset(rng.standard_normal((5, 4)) + 1.0, rng.standard_normal((5, 4)))
        rule, report = build_slda(ds, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
        assert rule.degenerate and report.degenerate
        assert not np.any(rule.weights)
        assert classify(rule, np.full(4, -100.0)) == 1

    def test_sparsity_report_fractions(self, rng):
        ds = two_class_dataset(rng.standard_normal((15, 10)) + 1.0,
                               rng.standard_normal((15, 10)))
        _, report = build_slda(ds, ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        assert report.frac_delta_kept == report.q_hat / 10
        assert report.frac_cov_kept == 2 * report.nnz_offdiag / (10 * 9)

    def test_qhat_within_lemma_bracket(self):
        # sparse scenario: p = 200, ten unit signals, identity covariance,
        # n = 100, package-default constants; the kept count sits in the
        # bracket computed from the true delta in >= 18 of 20 seeded runs
        p, n1, n2 = 200, 50, 50
        delta = np.zeros(p)
        delta[np.arange(10) * (p // 10)] = 1.0
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=np.eye(p))
        cfg = ThresholdConfig(m1=2.0, m2=1.9)
        a_n = compute_an(cfg.m2, n1 + n2, p, cfg.alpha)
        q_n0, q_n = lemma2_counts(delta, a_n, r=2.0)
        inside = 0
        for rep in range(20):
            ds = draw_two_class(pop, n1, n2, substream(515, rep))
            _, report = build_slda(ds, cfg)
            inside += q_n0 <= report.q_hat <= q_n
        assert inside >= 18


class TestBuildOracle:
    def test_identity_sigma(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             covariance=np.eye(2))
        rule = build_oracle(pop)
        assert np.allclose(rule.weights, [2.0, 0.0], rtol=1e-14)
        assert rule.cutoff == pytest.approx(0.0, abs=1e-15)
        assert classify(rule, np.array([1.0, 0.0])) == 1
        assert classify(rule, np.array([-1.0, 0.0])) == 2

    def test_label_exchange_negates(self, rng):
        pop = random_population(rng, 4)
        flipped = PopulationSpec(means=pop.means[::-1].copy(), covariance=pop.covariance)
        a, b = build_oracle(pop), build_oracle(flipped)
        assert np.allclose(a.weights, -b.weights, rtol=1e-12)
        probes = rng.standard_normal((200, 4)) + pop.mid
        la = classify_many(a, probes)
        lb = classify_many(b, probes)
        # boundary has measure zero for random probes: labels swap
        assert np.array_equal(la, 3 - lb)

    def test_correlated_two_by_two(self):
        pop = PopulationSpec(means=np.array([[1.0, 1.0], [0.0, 0.0]]),
                             covariance=np.array([[2.0, 1.0], [1.0, 2.0]]))
        rule = build_oracle(pop)
        assert np.allclose(rule.weights, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


class TestClassify:
    def test_boundary_goes_to_class_one(self):
        rule = LinearRule(weights=np.array([1.0, 0.0]), cutoff=0.5)
        assert classify(rule, np.array([0.5, 123.0])) == 1
        assert classify(rule, np.array([0.49999, 0.0])) == 2
        rule = LinearRule(weights=np.array([2.0, -1.0]), cutoff=3.0)
        x = np.array([[2.0, 1.0], [1.0, -1.0], [1.0, 0.0], [4.0, 0.0]])  # w'x = 3, 3, 2, 8
        assert classify_many(rule, x).tolist() == [1, 1, 2, 1]

    def test_feature_rescaling_covariance(self, rng):
        # LDA rules transform covariantly: labels are unchanged when
        # train and probes are scaled together
        pop = random_population(rng, 6)
        ds = draw_two_class(pop, 30, 30, substream(77, 0))
        probes = rng.standard_normal((300, 6))
        s = 7.3
        scaled = Dataset(features=ds.features * s, labels=ds.labels,
                         class_counts=ds.class_counts)
        base = classify_many(build_lda(ds), probes)
        assert np.array_equal(base, classify_many(build_lda(scaled), probes * s))
        # SLDA: the threshold constants carry units, so they scale too
        # (M1 by s^2 against S, M2 by s against delta_hat)
        cfg = ThresholdConfig(m1=0.8, m2=0.9, alpha=0.3)
        cfg_scaled = ThresholdConfig(m1=0.8 * s * s, m2=0.9 * s, alpha=0.3)
        r1, _ = build_slda(ds, cfg)
        r2, _ = build_slda(scaled, cfg_scaled)
        assert np.array_equal(classify_many(r1, probes), classify_many(r2, probes * s))


def oracle_multi_rule(means, sigma):
    """Pairwise rules from true parameters (test-local oracle builder)."""
    factor = cholesky_spd(sigma)
    k = means.shape[0]
    pairwise = {}
    for a in range(1, k):
        for b in range(a + 1, k + 1):
            w = spd_solve(factor, means[a - 1] - means[b - 1])
            c = float(w @ (0.5 * (means[a - 1] + means[b - 1])))
            pairwise[(a, b)] = LinearRule(weights=w, cutoff=c, degenerate=False)
    return MultiRule(pairwise=pairwise, n_classes=k)


def nearest_mahalanobis(means, sigma, probes):
    """Brute-force assignment to the closest class mean, lowest index wins."""
    inv = np.linalg.inv(sigma)
    d = np.stack([np.einsum("ij,jk,ik->i", probes - mu, inv, probes - mu) for mu in means])
    return np.argmin(d, axis=0) + 1


class TestMultiClass:
    def test_pairwise_antisymmetry(self, rng):
        k, p = 3, 6
        means = rng.standard_normal((k, p)) * 2
        x = [means[c] + 0.3 * rng.standard_normal((8, p)) for c in range(k)]
        ds = Dataset(features=np.vstack(x),
                     labels=np.repeat(np.arange(1, k + 1), 8),
                     class_counts=(8, 8, 8))
        rule = build_slda_multi(ds, ThresholdConfig(m1=1.0, m2=0.1, alpha=0.3))
        probes = rng.standard_normal((50, p))
        pairs = sorted(rule.pairwise)
        s = np.column_stack([probes @ rule.pairwise[ab].weights - rule.pairwise[ab].cutoff
                             for ab in pairs])
        labels = classify_many(rule, probes)
        assert np.array_equal(labels, maximin_labels(s, pairs, k))
        # s_ba = -s_ab: stating every contrast reversed gives the same labels
        assert np.array_equal(maximin_labels(-s, [(b, a) for a, b in pairs], k), labels)
        # pairwise sign: the (1, 2) contrast on its own is the linear rule
        r12 = rule.pairwise[(1, 2)]
        pair_only = MultiRule(pairwise={(1, 2): r12}, n_classes=2)
        assert np.array_equal(classify_many(pair_only, probes), classify_many(r12, probes))

    def test_maximin_hand_cases(self):
        pairs = [(1, 2), (1, 3), (2, 3)]
        s = np.array([
            [1.0, 2.0, 3.0],    # class 1 beats both rivals
            [-1.0, 2.0, 3.0],   # class 2 beats both rivals
            [1.0, -1.0, -2.0],  # class 3 beats both rivals
            [1.0, -1.0, 1.0],   # a cycle: every worst score is -1, lowest index wins
            [0.0, 0.0, 0.0],    # all ties go to class 1
        ])
        assert maximin_labels(s, pairs, 3).tolist() == [1, 2, 3, 1, 1]
        # K = 2: a tie at either signed zero goes to class 1
        s2 = np.array([[0.0], [-0.0], [-np.inf], [np.inf], [-5e-324]])
        assert maximin_labels(s2, [(1, 2)], 2).tolist() == [1, 1, 2, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 4), m=st.integers(1, 30),
           cutoff=st.integers(-6, 6).filter(bool))
    def test_maximin_two_class_is_linear_rule(self, data, p, m, cutoff):
        # K = 2 with the single pair (1, 2) is "class 1 iff w'x >= c".
        # Small integers make w'x exact, so w'x == c ties happen exactly.
        ints = st.integers(-3, 3).map(float)
        w = data.draw(arrays(np.float64, p, elements=ints))
        x = data.draw(arrays(np.float64, (m, p), elements=ints))
        c = float(cutoff)
        expected = np.where(x @ w >= c, 1, 2)
        assert np.array_equal(maximin_labels((x @ w - c)[:, None], [(1, 2)], 2), expected)
        rule = LinearRule(weights=w, cutoff=c)
        assert np.array_equal(classify_many(rule, x), expected)
        assert [classify(rule, row) for row in x] == expected.tolist()

    def test_three_separated_classes_zero_training_error(self, rng):
        k, p = 3, 4
        means = np.array([[10.0, 0, 0, 0], [0, 10.0, 0, 0], [0, 0, 10.0, 0]])
        x = [means[c] + rng.standard_normal((10, p)) for c in range(k)]
        ds = Dataset(features=np.vstack(x),
                     labels=np.repeat(np.arange(1, k + 1), 10),
                     class_counts=(10, 10, 10))
        rule = build_slda_multi(ds, ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        assert np.array_equal(classify_many(rule, ds.features), ds.labels)

    def test_collinear_means_middle_interval(self):
        means = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        sigma = np.eye(2)
        rule = oracle_multi_rule(means, sigma)
        grid = np.column_stack([np.linspace(-4, 4, 81), np.zeros(81)])
        got = classify_many(rule, grid)
        expected = nearest_mahalanobis(means, sigma, grid)
        assert np.array_equal(got, expected)
        # interval structure: class 2 exactly between the boundaries
        assert np.all(got[np.abs(grid[:, 0]) < 1.0] == 2)
        assert np.all(got[grid[:, 0] < -1.0] == 1)
        assert np.all(got[grid[:, 0] > 1.0] == 3)

    def test_matches_nearest_mean_oracle_k4(self, rng):
        k, p = 4, 6
        means = rng.standard_normal((k, p)) * 1.5
        sigma = random_spd(rng, p)
        rule = oracle_multi_rule(means, sigma)
        probes = rng.standard_normal((1000, p)) + means.mean(axis=0)
        assert np.array_equal(classify_many(rule, probes),
                              nearest_mahalanobis(means, sigma, probes))

    def test_equidistant_tie_lowest_index(self):
        # origin is exactly equidistant from classes 1 and 2 (norms 1),
        # both of which dominate class 3; lowest index wins the tie
        means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        rule = oracle_multi_rule(means, np.eye(2))
        assert classify(rule, np.zeros(2)) == 1

    def test_probe_at_class_mean(self, rng):
        means = np.array([[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 8.0]])
        rule = oracle_multi_rule(means, np.eye(3))
        for c in range(3):
            assert classify(rule, means[c]) == c + 1

    def test_reduces_to_two_class_rule(self, rng):
        pop = random_population(rng, 5)
        rule2 = build_oracle(pop)
        multi = oracle_multi_rule(pop.means, pop.covariance)
        probes = rng.standard_normal((400, 5))
        assert np.array_equal(classify_many(multi, probes),
                              classify_many(rule2, probes))

    def test_every_pair_degenerate_needs_no_inverse(self):
        # within-class-constant features give S = 0, so Sigma-tilde has no
        # positive part; a huge M2 empties every contrast, and the fit
        # returns degenerate rules instead of factoring Sigma-tilde
        means = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 3.0]])
        ds = Dataset(features=np.repeat(means, 3, axis=0),
                     labels=np.repeat(np.arange(1, 4), 3), class_counts=(3, 3, 3))
        rule = build_slda_multi(ds, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
        assert sorted(rule.pairwise) == [(1, 2), (1, 3), (2, 3)]
        for pair_rule in rule.pairwise.values():
            assert pair_rule.degenerate and pair_rule.cutoff == 0.0
            assert not np.any(pair_rule.weights)
        assert np.array_equal(classify_many(rule, means), [1, 1, 1])

    def test_requires_three_classes(self, rng):
        ds = two_class_dataset(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
        with pytest.raises(DomainError):
            build_slda_multi(ds, ThresholdConfig(m1=1.0, m2=1.0, alpha=0.3))


# Sigma-tilde configurations of the SLDA property tests: a huge M1 keeps
# only the diagonal of S (the "diagonal" operator), M1 = 0 keeps all of S
# (n - 2 >= 2p, so S is positive definite: the "cholesky" operator).
SIGMA_TILDE_M1 = {"diagonal": 1e9, "dense": 0.0}


def seeded_two_class(seed, n1, n2, p):
    gen = np.random.default_rng(seed)
    shift = gen.standard_normal(p)
    x1 = gen.standard_normal((n1, p)) + shift
    x2 = gen.standard_normal((n2, p))
    return two_class_dataset(x1, x2)


def fit_on(ds, kind, m2):
    return build_slda(ds, ThresholdConfig(m1=SIGMA_TILDE_M1[kind], m2=m2, alpha=0.3))


class TestSldaProperties:
    @pytest.mark.parametrize("kind", sorted(SIGMA_TILDE_M1))
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6),
           extra1=st.integers(1, 8), extra2=st.integers(1, 8),
           m2=st.sampled_from([0.0, 0.3, 0.8, 1.5]))
    def test_label_swap_flips_rule(self, kind, seed, p, extra1, extra2, m2):
        # swapping labels 1 <-> 2 negates delta_hat exactly and leaves S as
        # it is, so w and the cutoff change sign bit for bit and every
        # sample off the boundary changes class
        ds = seeded_two_class(seed, 2 * p + extra1, 2 * p + extra2, p)
        swapped = Dataset(features=ds.features, labels=3 - ds.labels,
                          class_counts=ds.class_counts[::-1])
        rule, report = fit_on(ds, kind, m2)
        rule_s, report_s = fit_on(swapped, kind, m2)
        assert (report.nnz_offdiag == 0) == (kind == "diagonal")
        assert report.pd_flag and report_s.pd_flag
        assert np.array_equal(rule_s.weights, -rule.weights)
        assert rule_s.cutoff == -rule.cutoff
        assert rule_s.degenerate == rule.degenerate
        if rule.degenerate:
            return
        off_boundary = ds.features @ rule.weights != rule.cutoff
        labels = classify_many(rule, ds.features)
        labels_s = classify_many(rule_s, ds.features)
        assert np.array_equal(labels_s[off_boundary], 3 - labels[off_boundary])

    @pytest.mark.parametrize("kind", sorted(SIGMA_TILDE_M1))
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 6), data=st.data())
    def test_feature_permutation_permutes_weights(self, kind, seed, p, data):
        # S of permuted columns is the permuted S up to the summation order
        # of the Gram product, so w permutes to within 1e-10 of max |w|;
        # M2 = 0 keeps every nonzero component, so no rounding near a_n
        # can change the kept set
        perm = np.array(data.draw(st.permutations(range(p))))
        ds = seeded_two_class(seed, 2 * p + 3, 2 * p + 1, p)
        permuted = Dataset(features=ds.features[:, perm], labels=ds.labels,
                           class_counts=ds.class_counts)
        rule, report = fit_on(ds, kind, 0.0)
        rule_p, _ = fit_on(permuted, kind, 0.0)
        assert (report.nnz_offdiag == 0) == (kind == "diagonal")
        assert report.pd_flag
        scale = np.max(np.abs(rule.weights))
        assert np.max(np.abs(rule_p.weights - rule.weights[perm])) <= 1e-10 * scale
        assert rule_p.cutoff == pytest.approx(rule.cutoff, rel=1e-10, abs=1e-10 * scale)
