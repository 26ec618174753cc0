"""Rule families: LDA, known-covariance LDA, SLDA, oracle and the
pairwise multi-class extension."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    bits_equal,
    eigh_pseudo_inverse_lda,
    leukemia_like,
    nnz_offdiag,
    random_population,
    random_spd,
    summarize,
    threshold_covariance,
    two_class_dataset,
)
import slda.classify as CLASSIFY
from slda.classify import (
    build_lda,
    build_lda_known_sigma,
    build_oracle,
    build_slda,
    build_slda_grid,
    build_slda_multi,
    classify,
    classify_many,
    maximin_labels,
)
from slda.diagnostics import lemma2_counts
from slda.errors import (DataError, DomainError, NotPositiveDefiniteError, SldaError,
                         UnusableMatrixError)
from slda.estimation import (
    centered_rows,
    compute_an,
    compute_tn,
    diagonal_screen,
    pinv_solve,
    pooled_covariance,
    pooled_spectrum,
    threshold_delta,
)
from slda.model import (
    Dataset,
    LinearRule,
    MultiRule,
    PopulationSpec,
    ThresholdConfig,
)
from slda.numerics import cholesky_spd, invert_sparse_sym, sample_mvn, spd_solve, substream


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

    @pytest.mark.parametrize("p, n1, n2", [(10, 3, 4), (10, 5, 5), (500, 30, 30), (1500, 36, 36)])
    def test_singular_branch_matches_eigh_reference(self, p, n1, n2):
        # p > n - 2: the thin SVD of the centred rows gives the weights and
        # cutoff of the eigh pseudo-inverse of S within 1e-10 relative, and
        # the same labels on probes
        gen = np.random.default_rng(p + n1)
        x = gen.standard_normal((n1 + n2, p))
        x[:n1, :5] += 1.0
        ds = two_class_dataset(x[:n1], x[n1:])
        assert p > ds.n - 2
        rule = build_lda(ds)
        w, c = eigh_pseudo_inverse_lda(ds)
        assert np.max(np.abs(rule.weights - w)) <= 1e-10 * np.max(np.abs(w))
        assert rule.cutoff == pytest.approx(c, rel=1e-10)
        probes = 1.5 * gen.standard_normal((5000, p))
        assert np.array_equal(classify_many(rule, probes), np.where(probes @ w >= c, 1, 2))

    def test_singular_branch_never_forms_s(self):
        # p > n - 2 goes straight to the SVD; n - 2 >= p factors S
        gen = np.random.default_rng(3)
        wide = two_class_dataset(gen.standard_normal((4, 9)), gen.standard_normal((4, 9)))
        tall = two_class_dataset(gen.standard_normal((6, 3)), gen.standard_normal((6, 3)))
        with mock.patch.object(CLASSIFY, "pooled_covariance",
                               wraps=CLASSIFY.pooled_covariance) as forms_s:
            build_lda(wide)
            assert not forms_s.called
            build_lda(tall)
            assert forms_s.call_count == 1

    def test_failed_cholesky_falls_back_to_the_svd(self):
        # n - 2 >= p, but a constant feature makes S singular: potrf fails
        # and the weights are the thin-SVD pseudo-inverse's, bit for bit
        gen = np.random.default_rng(0)
        x = gen.standard_normal((40, 5))
        x[:20, 0] += 1.0
        x[:, 2] = 1.0
        ds = two_class_dataset(x[:20], x[20:])
        means, centered = centered_rows(ds)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_spd(pooled_covariance(centered))
        want = pinv_solve(*pooled_spectrum(centered), means[0] - means[1])
        assert bits_equal(build_lda(ds).weights, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 40),
           n1=st.integers(2, 8), n2=st.integers(2, 8))
    def test_label_swap_flips_singular_rule(self, seed, p, n1, n2):
        # on the SVD branch the centred rows do not change under a label
        # swap and delta_hat negates exactly, so w and the cutoff negate bit
        # for bit and every sample off the boundary changes class
        ds = seeded_two_class(seed, n1, n2, p)
        if ds.n - 2 >= p:  # the Cholesky branch is TestSldaProperties' case
            ds = seeded_two_class(seed, n1, n2, ds.n - 1)
        swapped = Dataset(features=ds.features, labels=3 - ds.labels,
                          class_counts=ds.class_counts[::-1])
        rule, rule_s = build_lda(ds), build_lda(swapped)
        assert bits_equal(rule_s.weights, -rule.weights)
        assert bits_equal(rule_s.cutoff, -rule.cutoff)
        assert not rule.degenerate and not rule_s.degenerate
        off_boundary = ds.features @ rule.weights != rule.cutoff
        labels = classify_many(rule, ds.features)
        labels_s = classify_many(rule_s, ds.features)
        assert np.array_equal(labels_s[off_boundary], 3 - labels[off_boundary])

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
        assert rule.degenerate and report.q_hat == 0
        assert not np.any(rule.weights)
        assert classify(rule, np.full(4, -100.0)) == 1

    def test_sparsity_report_fractions(self, rng):
        ds = two_class_dataset(rng.standard_normal((15, 10)) + 1.0,
                               rng.standard_normal((15, 10)))
        _, report = build_slda(ds, ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        assert report.frac_delta_kept == report.q_hat / 10
        assert report.frac_cov_kept == 2 * report.nnz_offdiag / (10 * 9)

    def test_grid_matches_one_fit_per_point(self, rng):
        # p > n: M1 = 0.64 leaves Sigma-tilde indefinite (eigen_floor), M1 = 50
        # diagonal; M2 = 1e9 needs no factor, so its report keeps pd_flag True
        # although the other M2 at that M1 factored
        x1 = rng.standard_normal((10, 30))
        x1[:, :3] += 1.5
        ds = two_class_dataset(x1, rng.standard_normal((9, 30)))
        m1_grid, m2_grid = [0.64, 50.0], [0.0, 1.0, 1e9]
        fits = build_slda_grid(ds, m1_grid, m2_grid, 0.3)
        points = [(m1, m2) for m1 in m1_grid for m2 in m2_grid]
        assert len(fits) == len(points)
        for (m1, m2), (rules, report) in zip(points, fits):
            rule, want = build_slda(ds, ThresholdConfig(m1=m1, m2=m2, alpha=0.3))
            assert np.array_equal(rules[(1, 2)].weights, rule.weights)
            assert rules[(1, 2)].cutoff == rule.cutoff
            assert report == want
        assert [report.pd_flag for _, report in fits] == [False, False, True, True, True, True]

    def test_grid_returns_factor_errors_without_frames(self):
        # S = 0: factoring raises UnusableMatrixError, which fails only the
        # points that keep a component; the returned error holds no frame
        ds = two_class_dataset(np.tile([1.0, 2.0, -1.0], (5, 1)),
                               np.tile([0.0, 2.5, 1.0], (4, 1)))
        failed, degenerate = build_slda_grid(ds, [1.0], [0.1, 1e9], 0.3)
        assert isinstance(failed, UnusableMatrixError) and failed.__traceback__ is None
        assert degenerate[0][(1, 2)].degenerate and degenerate[1].pd_flag
        with pytest.raises(UnusableMatrixError):
            build_slda(ds, ThresholdConfig(m1=1.0, m2=0.1, alpha=0.3))

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

    # failed at the parent: each of these rows was labelled class 1
    @pytest.mark.parametrize("row", [[math.nan, 0.0], [math.inf, math.inf],
                                     [1e308, -1e308], [0.0, -math.inf]],
                             ids=["nan", "inf_minus_inf", "overflow", "inf_score"])
    def test_non_finite_score_has_no_label(self, row):
        rule = LinearRule(weights=np.array([1.0, -1.0]), cutoff=0.0)
        x = np.array([[1.0, 2.0], [3.0, 1.0], row, row])
        with pytest.raises(DataError, match=r"^row 2 has a non-finite score"):
            classify_many(rule, x)
        with pytest.raises(DataError, match=r"^row 0 has a non-finite score"):
            classify(rule, np.array(row))

    def test_non_finite_score_of_any_contrast(self):
        # a MultiRule row whose (2, 3) contrast alone overflows
        w = np.array([1.0, 0.0])
        rule = MultiRule(pairwise={(1, 2): LinearRule(weights=w, cutoff=0.0),
                                   (1, 3): LinearRule(weights=w, cutoff=0.0),
                                   (2, 3): LinearRule(weights=np.array([0.0, 1e300]),
                                                      cutoff=0.0)},
                         n_classes=3)
        x = np.array([[1.0, 1.0], [1.0, 1e10]])
        with pytest.raises(DataError, match=r"^row 1 has a non-finite score \(inf\)"):
            classify_many(rule, x)

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
            pairwise[(a, b)] = LinearRule(weights=w, cutoff=c)
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8),
           extra1=st.integers(0, 6), extra2=st.integers(0, 6))
    def test_no_thresholds_is_lda(self, seed, p, extra1, extra2):
        # M1 = M2 = 0 keeps every nonzero entry of S and of delta_hat, and
        # n - 2 >= p makes S positive definite: both rules solve the same
        # Cholesky system, so the weights and the cutoff are equal bit for bit
        ds = seeded_two_class(seed, 2 + extra1, p + extra2, p)
        assert ds.n - 2 >= p
        rule, report = build_slda(ds, ThresholdConfig(m1=0.0, m2=0.0, alpha=0.3))
        lda = build_lda(ds)
        assert report.pd_flag and report.q_hat == p
        assert np.array_equal(rule.weights, lda.weights)
        assert rule.cutoff == lda.cutoff

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


def reference_fit(ds, m1, m2, alpha=0.3):
    # The fit from the public pieces, with S always formed: summarize
    # (conftest), threshold_covariance, invert_sparse_sym, spd_solve. Returns
    # ({pair: (w, cutoff)}, (q_hat, nnz_offdiag, pd_flag)), or the error
    # that factoring raised.
    n, p, k = ds.n, ds.p, ds.n_classes
    summary = summarize(ds)
    sigma = threshold_covariance(summary.pooled_cov, compute_tn(m1, n, p))
    a_n = compute_an(m2, n, p, alpha)
    means = summary.class_means
    pairs = [(a, b) for a in range(1, k) for b in range(a + 1, k + 1)]
    tildes = {(a, b): threshold_delta(means[a - 1] - means[b - 1], a_n) for a, b in pairs}
    needed = any(np.count_nonzero(t) for t in tildes.values())
    op = None
    if needed:
        try:
            op = invert_sparse_sym(sigma)
        except SldaError as exc:
            return exc
    rules = {}
    for a, b in pairs:
        t = tildes[(a, b)]
        w = spd_solve(op, t) if np.count_nonzero(t) else np.zeros(p)
        rules[(a, b)] = (w, float(w @ (0.5 * (means[a - 1] + means[b - 1]))))
    return rules, (np.count_nonzero(tildes[(1, 2)]), nnz_offdiag(sigma), not needed or op.pd_flag)


def same_fit(fit, want) -> bool:
    if isinstance(want, SldaError) or isinstance(fit, SldaError):
        return type(fit) is type(want) and str(fit) == str(want)
    rules, report = fit
    want_rules, (q_hat, nnz, pd_flag) = want
    return (sorted(rules) == sorted(want_rules)
            and all(bits_equal(rules[ab].weights, w) and bits_equal(rules[ab].cutoff, c)
                    and rules[ab].degenerate == (not np.any(w))
                    for ab, (w, c) in want_rules.items())
            and (report.q_hat, report.nnz_offdiag, report.pd_flag) == (q_hat, nnz, pd_flag))


def as_want(fit):
    # a fit of build_slda_grid in reference_fit's form, for same_fit
    rules, report = fit
    return ({ab: (r.weights, r.cutoff) for ab, r in rules.items()},
            (report.q_hat, report.nnz_offdiag, report.pd_flag))


def screen_m1(ds, factor):
    # the M1 whose t_n is ``factor`` times the screen's bound on ds
    variances = np.diag(summarize(ds).pooled_cov)
    return factor * diagonal_screen(variances, ds.n) / math.sqrt(math.log(ds.p) / ds.n)


class TestVarianceScreen:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 5, 63, 64, 65, 129]),
           k=st.sampled_from([2, 3]), extra=st.integers(0, 3),
           constant=st.booleans(), m2=st.sampled_from([0.0, 0.3, 1.0, 1e9]), data=st.data())
    def test_screened_fit_equals_public_pieces(self, seed, p, k, extra, constant, m2, data):
        # Two M1s above the bound (screened), one just below it (S formed,
        # and Sigma-tilde still diagonal) and a small one, repeated (S
        # formed, off-diagonal entries kept), in a drawn order that is not
        # ascending, so that the in-place chain must reorder them; every
        # point equals the reference bit for bit and S is formed once. A
        # constant feature has variance 0: eigen_floor, pd_flag 0.
        gen = np.random.default_rng(seed)
        counts = [3 + extra + c for c in range(k)]
        x = np.vstack([gen.standard_normal((m, p)) + gen.standard_normal(p) for m in counts])
        x *= np.exp(gen.uniform(-3.0, 3.0, p))
        if constant:
            x[:, gen.integers(p)] = 7.0
        ds = Dataset(features=x, labels=np.repeat(np.arange(1, k + 1), counts),
                     class_counts=tuple(counts))
        factors = data.draw(st.permutations([1.0 + 1e-12, 3.0, 1.0 - 1e-12, 0.05, 0.05])
                            .filter(lambda f: list(f) != sorted(f)))
        m1_grid = [screen_m1(ds, f) for f in factors]
        calls = []
        real = CLASSIFY.pooled_covariance
        with mock.patch.object(CLASSIFY, "pooled_covariance",
                               side_effect=lambda c: calls.append(1) or real(c)):
            fits = build_slda_grid(ds, m1_grid, [m2], 0.3)
        assert calls == [1]
        for m1, fit in zip(m1_grid, fits):
            assert same_fit(fit, reference_fit(ds, m1, m2))
        screened = fits[factors.index(1.0 + 1e-12)]
        if not isinstance(screened, SldaError):
            rules, report = screened
            factored = not all(rule.degenerate for rule in rules.values())
            assert report.nnz_offdiag == 0
            assert report.pd_flag == (not constant or not factored)

    @pytest.mark.parametrize("k", [2, 3])
    def test_screened_grid_touches_no_p_by_p_matrix(self, k):
        # every M1 passes the screen: S is never formed, thresholded,
        # counted or checked
        gen = np.random.default_rng(8)
        counts = [4] * k
        x = gen.standard_normal((4 * k, 70)) + np.repeat(gen.standard_normal((k, 70)), 4, axis=0)
        ds = Dataset(features=x, labels=np.repeat(np.arange(1, k + 1), counts),
                     class_counts=tuple(counts))
        m1_grid = [screen_m1(ds, 1.001), 1e9]
        forbidden = ("pooled_covariance", "_threshold_in_place")
        with mock.patch.multiple(CLASSIFY, **{name: mock.DEFAULT for name in forbidden}) as mocks:
            fits = build_slda_grid(ds, m1_grid, [0.0, 1e9], 0.3)
        assert not any(m.called for m in mocks.values())
        for (m1, m2), fit in zip([(a, b) for a in m1_grid for b in (0.0, 1e9)], fits):
            assert same_fit(fit, reference_fit(ds, m1, m2))

    @pytest.mark.parametrize("m2", [0.0, 1e9])
    def test_overflowing_variances_take_the_s_path(self, m2):
        # finite features whose squares overflow: the variances are inf,
        # so the screen cannot fire, and S's error (or its count of kept
        # entries) is the reference's
        gen = np.random.default_rng(3)
        ds = two_class_dataset(gen.standard_normal((5, 4)) * 1e160 + 1e160,
                               gen.standard_normal((4, 4)) * 1e160)
        want = reference_fit(ds, 1e300, m2)
        (fit,) = build_slda_grid(ds, [1e300], [m2], 0.3)
        assert same_fit(fit, want)
        if m2 == 0.0:
            assert isinstance(want, DomainError)
            with pytest.raises(DomainError, match="NaN or Inf"):
                build_slda(ds, ThresholdConfig(m1=1e300, m2=m2, alpha=0.3))

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_unscreened_m1_keeping_no_pair_is_the_vector(self, k, constant):
        # an M1 below the screen whose t_n is above every |s_jl|, j != l:
        # S is formed and thresholded, keeps no pair, and Sigma-tilde goes
        # to invert_sparse_sym as the (p,) variances (a matrix at the
        # parent), so each fit has the bits of the screened fit and of the
        # dense reference. A constant feature takes the floor.
        gen = np.random.default_rng(11)
        counts = [5] * k
        x = gen.standard_normal((5 * k, 40)) + np.repeat(gen.standard_normal((k, 40)), 5, axis=0)
        if constant:
            x[:, 3] = 7.0
        ds = Dataset(features=x, labels=np.repeat(np.arange(1, k + 1), counts),
                     class_counts=tuple(counts))
        s = summarize(ds).pooled_cov
        largest = float(np.max(np.abs(s - np.diag(np.diag(s)))))
        m1 = 0.5 * (largest / math.sqrt(math.log(ds.p) / ds.n) + screen_m1(ds, 1.0))
        t_n = compute_tn(m1, ds.n, ds.p)
        assert largest < t_n < diagonal_screen(np.diag(s), ds.n)
        m2_grid = [0.0, 0.5, 1e9]
        ndims = []
        real = CLASSIFY.invert_sparse_sym
        with mock.patch.object(CLASSIFY, "invert_sparse_sym", side_effect=lambda a, **kw:
                               ndims.append(np.ndim(a)) or real(a, **kw)):
            fits = build_slda_grid(ds, [m1, screen_m1(ds, 2.0)], m2_grid, 0.3)
        assert ndims == [1, 1]
        for m2, fit, (rules, report) in zip(m2_grid, fits[:3], fits[3:]):
            screened = ({ab: (r.weights, r.cutoff) for ab, r in rules.items()},
                        (report.q_hat, report.nnz_offdiag, report.pd_flag))
            assert same_fit(fit, screened)
            assert same_fit(fit, reference_fit(ds, m1, m2))
            assert fit[1].pd_flag == (not constant or m2 == 1e9)

    def test_screened_fit_never_allocates_p_by_p(self):
        # leukemia-shaped, p = 4000 at M1 = 1e7: the peak is a small
        # multiple of n p, far below a quarter of one p x p matrix
        ds = leukemia_like(5, 4000, counts=(12, 8))
        p = ds.p
        tracemalloc.start()
        try:
            rule, report = build_slda(ds, ThresholdConfig(m1=1e7, m2=300.0, alpha=0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.nnz_offdiag == 0 and report.pd_flag and 0 < report.q_hat < p
        assert peak < p * p * 8 / 4

    def test_dense_fit_thresholds_s_in_place(self):
        # three non-diagonal M1s at p = 2000 with nothing to factor (huge
        # M2): S is thresholded where it lies, in ascending t_n whatever
        # the grid order, so the peak is S plus O(n p) where a copy per M1
        # would add a second p x p matrix and two p x p masks
        ds = leukemia_like(6, 2000, counts=(12, 8))
        p = ds.p
        m1_grid = [1e4, 3e3, 2e4]
        s = summarize(ds).pooled_cov
        for m1 in m1_grid:
            assert 0 < nnz_offdiag(threshold_covariance(s, compute_tn(m1, ds.n, p)))
        del s
        matrix = p * p * 8
        tracemalloc.start()
        try:
            fits = build_slda_grid(ds, m1_grid, [1e9], 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for m1, fit in zip(m1_grid, fits):
            assert same_fit(fit, reference_fit(ds, m1, 1e9))
        assert matrix <= peak < 1.25 * matrix


class TestFloorInSBuffer:
    # The last unscreened Sigma-tilde of a grid is factored in S's buffer
    # (invert_sparse_sym with overwrite_a): the earlier M1s still see S
    # intact, and every fit has the bits of its own single-M1 fit.

    def test_floor_grid_matches_single_m1_fits(self):
        ds = leukemia_like(5, 120, counts=(7, 5))
        m1_grid = [2e4, 3e3, screen_m1(ds, 2.0), 1e4, 3e3]
        m2_grid = [0.0, 300.0, 1e9]
        flags = []
        real = CLASSIFY.invert_sparse_sym

        def recorded(a, overwrite_a=False):
            flags.append(overwrite_a)
            return real(a, overwrite_a=overwrite_a)

        with mock.patch.object(CLASSIFY, "invert_sparse_sym", side_effect=recorded):
            fits = build_slda_grid(ds, m1_grid, m2_grid, 0.3)
        assert flags == [False, False, True, False]  # ascending t_n, then the screened variances
        assert len(fits) == len(m1_grid) * len(m2_grid)
        for i, m1 in enumerate(m1_grid):
            single = build_slda_grid(ds, [m1], m2_grid, 0.3)
            for m2, fit, want in zip(m2_grid, fits[3 * i:3 * i + 3], single):
                assert same_fit(fit, as_want(want))
                assert same_fit(fit, reference_fit(ds, m1, m2))
                assert want[1].pd_flag == (m2 == 1e9 or i == 2)  # unscreened M1s take the floor

    def test_floor_fit_peaks_below_three_and_a_half_matrices(self):
        # p = 800, M1 = 1e4 keeps 25 453 pairs and takes the floor. In S's
        # buffer the fit peaks at S, stevd's Z and its p x p workspace
        # (3.02 p^2 doubles traced); a floor that copies its input adds a
        # fourth matrix (4.02)
        ds = leukemia_like(5, 800, counts=(12, 8))
        matrix = ds.p * ds.p * 8
        real = CLASSIFY.invert_sparse_sym

        def traced(factor):
            with mock.patch.object(CLASSIFY, "invert_sparse_sym", side_effect=factor):
                tracemalloc.start()
                try:
                    (fit,) = build_slda_grid(ds, [1e4], [0.0], 0.3)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert not fit[1].pd_flag and fit[1].nnz_offdiag > 0
            return fit, peak

        fit, peak = traced(real)
        copied, copied_peak = traced(lambda a, overwrite_a: real(a))
        assert peak < 3.5 * matrix <= 4 * matrix <= copied_peak
        assert same_fit(fit, as_want(copied))
