"""Sparsity measures, separation, bracket counts, rate quantities and
condition checks."""

import math

import numpy as np
import pytest

from conftest import random_spd
from slda.diagnostics import (
    condition_check,
    cumulative_proportions,
    eigen_range,
    lemma2_counts,
    mahalanobis_delta,
    rate_quantities,
    sparsity_C,
    sparsity_D,
)
from slda.errors import DomainError
from slda.model import PopulationSpec


class TestSparsityC:
    def test_identity(self):
        assert sparsity_C(np.eye(7), 0.0) == 1.0

    def test_tridiagonal_counts_three(self):
        p = 9
        sigma = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
        assert sparsity_C(sigma, 0.0) == 3.0

    def test_half_power(self):
        sigma = np.array([[1.0, 0.25], [0.25, 1.0]])
        assert sparsity_C(sigma, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_h_zero_equals_row_nonzero_count(self, rng):
        for _ in range(10):
            p = int(rng.integers(3, 100))
            sigma = random_spd(rng, p)
            mask = rng.random((p, p)) < 0.7
            mask = mask & mask.T
            sigma = np.where(mask, 0.0, sigma)
            np.fill_diagonal(sigma, 1.0)
            brute = max(int(np.sum(row != 0)) for row in sigma)
            assert sparsity_C(sigma, 0.0) == brute

    def test_domain(self):
        with pytest.raises(DomainError):
            sparsity_C(np.eye(2), 1.0)
        with pytest.raises(DomainError):
            sparsity_C(np.eye(2), -0.1)


class TestSparsityD:
    def test_g_zero_counts_nonzeros(self):
        assert sparsity_D(np.array([2.0, 0.0, 0.0]), 0.0) == 1.0

    def test_half_power_sums_magnitudes(self):
        assert sparsity_D(np.array([4.0, 1.0, 0.0]), 0.5) == pytest.approx(5.0, rel=1e-15)

    def test_zero_vector(self):
        assert sparsity_D(np.zeros(5), 0.3) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sparsity_D(np.ones(2), 1.0)


class TestMahalanobis:
    def test_identity(self):
        pop = PopulationSpec(means=np.array([[2.0, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        assert mahalanobis_delta(pop) == pytest.approx(2.0, rel=1e-14)

    def test_diagonal(self):
        pop = PopulationSpec(means=np.array([[1.0, 2.0], [0.0, 0.0]]),
                             covariance=np.diag([1.0, 4.0]))
        assert mahalanobis_delta(pop) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert mahalanobis_delta(pop) == pytest.approx(1.41421, abs=5e-6)

    def test_affine_invariance(self, rng):
        p = 10
        sigma = random_spd(rng, p)
        delta = rng.standard_normal(p)
        pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=sigma)
        base = mahalanobis_delta(pop)
        for _ in range(5):
            t = rng.standard_normal((p, p)) + np.eye(p) * 2
            new_sigma = t @ sigma @ t.T
            new_sigma = 0.5 * (new_sigma + new_sigma.T)
            new = PopulationSpec(means=np.vstack([t @ delta, np.zeros(p)]),
                                 covariance=new_sigma)
            assert mahalanobis_delta(new) == pytest.approx(base, rel=1e-8)


class TestLemma2Counts:
    def test_enumerated(self):
        q_n0, q_n = lemma2_counts(np.array([0.5, 0.15, 0.05, 0.0]), 0.2, 2.0)
        assert (q_n0, q_n) == (1, 2)

    def test_zero_threshold_counts_nonzeros(self):
        q_n0, q_n = lemma2_counts(np.array([0.5, 0.0, -0.1]), 0.0, 2.0)
        assert q_n0 == q_n == 2

    def test_large_r_limits(self):
        delta = np.array([1.0, -2.0, 0.0, 0.5])
        q_n0, q_n = lemma2_counts(delta, 0.4, 1e9)
        assert q_n0 == 0
        assert q_n == 3

    def test_r_domain(self):
        with pytest.raises(DomainError):
            lemma2_counts(np.ones(3), 0.1, 1.0)


class TestRateQuantities:
    def test_s_n_formula(self):
        s_n, _, _, _ = rate_quantities(1000, 10, 0.0, 0.0, 1.0, 1.0, 1, 1.0, 0.3)
        assert s_n == pytest.approx(10 * math.sqrt(math.log(10)) / math.sqrt(1000), rel=1e-15)
        assert s_n == pytest.approx(0.47985, abs=5e-5)

    def test_d_n_reduces_at_h_zero(self):
        for n, p in [(100, 272), (400, 1089)]:
            _, d_n, _, _ = rate_quantities(n, p, 0.0, 0.0, 1.0, 1.0, 1, 1.0, 0.3)
            assert d_n == pytest.approx(math.sqrt(math.log(p) / n), rel=1e-14)

    def test_b_n_is_max_of_terms(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 1000))
            p = int(rng.integers(2, 500))
            h = float(rng.uniform(0, 0.99))
            g = float(rng.uniform(0, 0.99))
            c_hp = float(rng.uniform(0.5, 20))
            d_gp = float(rng.uniform(0.1, 30))
            q_n = int(rng.integers(0, 50))
            delta_p = float(rng.uniform(0.2, 10))
            m2 = float(rng.uniform(0.3, 5))
            s_n, d_n, a_n, b_n = rate_quantities(n, p, h, g, c_hp, d_gp, q_n, delta_p, 0.3, m2=m2)
            terms = [d_n,
                     a_n ** (1 - g) * math.sqrt(d_gp) / delta_p,
                     math.sqrt(c_hp * q_n) / (delta_p * math.sqrt(n))]
            assert b_n == max(terms)

    def test_monotone_in_n(self):
        prev = None
        for n in (100, 200, 400, 800):
            s_n, d_n, a_n, _ = rate_quantities(n, 50, 0.2, 0.1, 2.0, 3.0, 5, 1.5, 0.3)
            if prev is not None:
                assert s_n < prev[0] and d_n < prev[1] and a_n < prev[2]
            prev = (s_n, d_n, a_n)

    def test_zero_separation_rejected(self):
        with pytest.raises(DomainError):
            rate_quantities(100, 10, 0.0, 0.0, 1.0, 1.0, 1, 0.0, 0.3)


class TestConditionCheck:
    def test_pass(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        report = condition_check(pop, 2.0)
        assert report.passed and report.eig_ok and report.delta_ok

    def test_eigenvalue_violation_reported(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             covariance=np.diag([10.0, 1.0]))
        report = condition_check(pop, 2.0)
        assert not report.passed and not report.eig_ok
        assert report.eig_max == pytest.approx(10.0)

    def test_small_gap_fails(self):
        pop = PopulationSpec(means=np.array([[0.1, 0.1], [0.0, 0.0]]),
                             covariance=np.eye(2))
        report = condition_check(pop, 2.0)
        assert not report.delta_ok
        assert report.max_delta_sq == pytest.approx(0.01)

    def test_c0_domain(self):
        pop = PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.eye(1))
        with pytest.raises(DomainError):
            condition_check(pop, 1.0)

    @pytest.mark.parametrize("d", [[3.5, 0.25, 7.0, 1.0], [2.0], [-1.0, 0.0, 4.0, 0.5]])
    def test_diagonal_range_equals_eigvalsh(self, d):
        # a diagonal Sigma (SPD or not) is read off its diagonal
        sigma = np.diag(d)
        ref = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        assert eigen_range(sigma) == (float(ref[0]), float(ref[-1]))
        pop = PopulationSpec(means=np.vstack([np.ones(len(d)), np.zeros(len(d))]),
                             covariance=sigma)
        report = condition_check(pop, 4.0)
        assert (report.eig_min, report.eig_max) == (float(ref[0]), float(ref[-1]))

    def test_dense_range_unchanged(self, rng):
        sigma = random_spd(rng, 6)
        ref = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        assert eigen_range(sigma) == (float(ref[0]), float(ref[-1]))


class TestCumulativeProportions:
    def test_hand_sorted(self):
        out = cumulative_proportions(np.array([3.0, 4.0]))
        assert np.allclose(out, [16.0 / 25.0, 1.0], rtol=1e-15)

    def test_equal_components(self):
        out = cumulative_proportions(np.full(5, 2.0))
        assert np.allclose(out, np.arange(1, 6) / 5.0, rtol=1e-12)

    def test_monotone_ends_at_one(self, rng):
        out = cumulative_proportions(rng.standard_normal(50))
        assert np.all(np.diff(out) >= 0)
        assert out[-1] == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cumulative_proportions(np.zeros(4))
