"""Sparsity measures, separation, bracket counts, rate quantities and
condition checks."""

import math
import warnings

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
from slda.estimation import compute_an
from slda.model import PopulationSpec
from slda.numerics import spd_solve


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

    def test_h_zero_count_equals_power_expression(self, rng):
        # h = 0 counts nonzero entries per row instead of building |sigma|,
        # |sigma|^h and a where() result; the value is the old expression's
        # for every input, signed zeros, infinities and NaN included
        def powered(sigma, h):
            mag = np.abs(sigma)
            return float(np.where(mag > 0.0, mag ** h, 0.0).sum(axis=1).max())

        specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5])
        for p in (1, 2, 7, 40):
            for _ in range(5):
                sigma = rng.standard_normal((p, p))
                cells = rng.random((p, p))
                sigma[cells < 0.5] = 0.0
                hit = cells > 0.8
                sigma[hit] = rng.choice(specials, int(hit.sum()))
                with np.errstate(invalid="ignore"):
                    assert sparsity_C(sigma, 0.0) == powered(sigma, 0.0)
        assert sparsity_C(np.full((3, 3), math.nan), 0.0) == 0.0

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


    @pytest.mark.parametrize("diagonal", [True, False])
    def test_underflowing_separation_scales_exactly(self, rng, diagonal):
        # delta' Sigma^{-1} delta underflows at 2^-700 delta; Delta_p is
        # then 2^-700 times the unscaled value, bit for bit (0.0 at the parent)
        p = 6
        sigma = rng.uniform(0.5, 2.0, p) if diagonal else random_spd(rng, p)
        delta = rng.standard_normal(p)
        base = mahalanobis_delta(PopulationSpec(means=np.vstack([delta, np.zeros(p)]),
                                                covariance=sigma))
        for k in (-700, 600):
            pop = PopulationSpec(means=np.vstack([np.ldexp(delta, k), np.zeros(p)]),
                                 covariance=sigma)
            assert mahalanobis_delta(pop) == math.ldexp(base, k)


    @pytest.mark.parametrize("k", [-300, 0, 300])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_scaled_first_gives_the_unscaled_formula(self, rng, k, diagonal):
        # at 2^k delta the form is in range unscaled: Delta_p, taken at
        # pow2_scaled(delta), has the bits of sqrt(delta' Sigma^{-1} delta)
        p = 9
        sigma = rng.uniform(0.5, 2.0, p) if diagonal else random_spd(rng, p)
        for _ in range(20):
            delta = np.ldexp(rng.standard_normal(p), k)
            pop = PopulationSpec(means=np.vstack([delta, np.zeros(p)]), covariance=sigma)
            assert mahalanobis_delta(pop) == math.sqrt(float(delta @ spd_solve(pop.chol, delta)))


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
        a_n = compute_an(1.0, 1000, 10, 0.3)
        s_n, _, _ = rate_quantities(1000, 10, 0.0, 0.0, 1.0, 1.0, 1, 1.0, a_n)
        assert s_n == pytest.approx(10 * math.sqrt(math.log(10)) / math.sqrt(1000), rel=1e-15)
        assert s_n == pytest.approx(0.47985, abs=5e-5)

    def test_d_n_reduces_at_h_zero(self):
        for n, p in [(100, 272), (400, 1089)]:
            a_n = compute_an(1.0, n, p, 0.3)
            _, d_n, _ = rate_quantities(n, p, 0.0, 0.0, 1.0, 1.0, 1, 1.0, a_n)
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
            a_n = compute_an(float(rng.uniform(0.3, 5)), n, p, 0.3)
            s_n, d_n, b_n = rate_quantities(n, p, h, g, c_hp, d_gp, q_n, delta_p, a_n)
            terms = [d_n,
                     a_n ** (1 - g) * math.sqrt(d_gp) / delta_p,
                     math.sqrt(c_hp * q_n) / (delta_p * math.sqrt(n))]
            assert b_n == max(terms)

    def test_monotone_in_n(self):
        prev = None
        for n in (100, 200, 400, 800):
            a_n = compute_an(1.0, n, 50, 0.3)
            s_n, d_n, _ = rate_quantities(n, 50, 0.2, 0.1, 2.0, 3.0, 5, 1.5, a_n)
            if prev is not None:
                assert s_n < prev[0] and d_n < prev[1] and a_n < prev[2]
            prev = (s_n, d_n, a_n)

    def test_zero_separation_rejected(self):
        with pytest.raises(DomainError):
            rate_quantities(100, 10, 0.0, 0.0, 1.0, 1.0, 1, 0.0, 0.5)

    @pytest.mark.parametrize("a_n", [-1.0, -5e-324])
    def test_negative_a_n_rejected(self, a_n):
        with pytest.raises(DomainError, match="a_n must be >= 0"):
            rate_quantities(100, 10, 0.0, 0.0, 1.0, 1.0, 1, 1.0, a_n)

    @pytest.mark.parametrize("a_n", [0.0, -0.0])
    def test_zero_a_n_accepted(self, a_n):
        # as in lemma2_counts, a_n = 0 keeps every nonzero component
        _, d_n, b_n = rate_quantities(100, 10, 0.0, 0.0, 1.0, 1.0, 1, 1.0, a_n)
        assert b_n == max(d_n, 0.0, 1.0 / math.sqrt(100))


def regularity(pop: PopulationSpec, c0: float) -> bool:
    """condition_check on the numbers slda diagnose --scenario passes it."""
    eig_min, eig_max = eigen_range(pop.covariance)
    return condition_check(eig_min, eig_max, float(np.max(pop.delta ** 2)), c0)


class TestConditionCheck:
    def test_pass(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             covariance=np.eye(2))
        assert regularity(pop, 2.0) is True

    def test_eigenvalue_violation_reported(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             covariance=np.diag([10.0, 1.0]))
        assert regularity(pop, 2.0) is False
        assert eigen_range(pop.covariance)[1] == pytest.approx(10.0)

    def test_small_gap_fails(self):
        pop = PopulationSpec(means=np.array([[0.1, 0.1], [0.0, 0.0]]),
                             covariance=np.eye(2))
        assert regularity(pop, 2.0) is False
        assert regularity(pop, 200.0) is True

    def test_c0_domain(self):
        for c0 in (1.0, 0.5, -2.0):
            with pytest.raises(DomainError, match="c0 must be > 1"):
                condition_check(1.0, 1.0, 1.0, c0)

    @pytest.mark.parametrize("c0", [4.0, 3.0, 1.0 + 2.0 ** -40])
    def test_bounds_are_inclusive(self, c0):
        lo, hi = 1.0 / c0, c0
        assert condition_check(lo, hi, lo, c0)
        assert condition_check(lo, hi, hi, c0)
        assert condition_check(lo, lo, lo, c0) and condition_check(hi, hi, hi, c0)
        below, above = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        for args in [(below, hi, lo), (lo, above, lo), (lo, hi, below), (lo, hi, above)]:
            assert not condition_check(*args, c0), args

    def test_nan_fails(self):
        nan = float("nan")
        for args in [(nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan)]:
            assert not condition_check(*args, 2.0), args

    @pytest.mark.parametrize("d", [[3.5, 0.25, 7.0, 1.0], [2.0], [-1.0, 0.0, 4.0, 0.5]])
    def test_diagonal_range_equals_eigvalsh(self, d):
        # a diagonal Sigma (SPD or not) is read off its diagonal
        sigma = np.diag(d)
        ref = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        assert eigen_range(sigma) == (float(ref[0]), float(ref[-1]))
        assert eigen_range(np.array(d)) == (float(ref[0]), float(ref[-1]))

    def test_range_of_sigma_that_does_not_factor(self):
        # eigen_range reads Sigma whether or not it is positive definite,
        # and a negative eigenvalue fails the check
        sigma = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        pop = PopulationSpec(means=np.vstack([np.ones(3), np.zeros(3)]), covariance=sigma)
        eig_min, eig_max = eigen_range(sigma)
        assert eig_min == pytest.approx(-1.0) and eig_max == pytest.approx(3.0)
        assert regularity(pop, 4.0) is False

    def test_dense_range_unchanged(self, rng):
        sigma = random_spd(rng, 6)
        ref = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
        assert eigen_range(sigma) == (float(ref[0]), float(ref[-1]))

    def test_range_near_overflow(self):
        # failed at the parent: 0.5 (sigma + sigma') overflowed to inf and
        # the range came back nan, with numpy's overflow warning
        sigma = np.array([[1e308, 5e307], [5e307, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = eigen_range(sigma)
        assert lo == pytest.approx(5e307, rel=1e-12)
        assert hi == pytest.approx(1.5e308, rel=1e-12)
        sigma[1, 0] = np.nextafter(5e307, np.inf)  # not exactly symmetric: halved first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigen_range(sigma) == pytest.approx((5e307, 1.5e308), rel=1e-12)


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

    def test_under_and_overflowing_norm_scales_exactly(self, rng):
        # ||delta||^2 underflows at 2^-600 delta and overflows at 2^520
        # delta; the shares are those of delta, bit for bit
        delta = rng.standard_normal(8)
        base = cumulative_proportions(delta)
        for k in (-600, 520):
            assert np.array_equal(cumulative_proportions(np.ldexp(delta, k)), base)

    @pytest.mark.parametrize("k", [-300, 0, 300])
    def test_scaled_first_gives_the_unscaled_formula(self, rng, k):
        # at 2^k delta ||delta||^2 is in range unscaled: the shares, taken at
        # pow2_scaled(delta), have the bits of the plain cumulative sum
        for _ in range(20):
            d = np.ldexp(rng.standard_normal(12), k)
            cum = np.cumsum(np.sort(d * d)[::-1])
            assert np.array_equal(cumulative_proportions(d), cum / cum[-1])
