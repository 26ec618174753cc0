"""Normal CDF / log-tail accuracy, tail inequalities, factorizations
and seeded samplers.

High-precision oracle: mpmath at 50 digits. The log-tail asymptotic
check uses an in-test Mills series independent of the implementation's
continued fraction.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import get_lapack_funcs

from slda.errors import DomainError, NotPositiveDefiniteError, ShapeError
from slda.numerics import (
    _SYM_BLOCK,
    cholesky_spd,
    diagonal_of,
    eigen_sym,
    sample_mvn,
    sample_mvt,
    spd_solve,
    std_normal_cdf,
    std_normal_log_tail,
    substream,
)

mp.mp.dps = 50

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def mills_series_log_tail(x, terms=10):
    # log of phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + 105/x^8 - ...)
    series = 0.0
    coef = 1.0
    for k in range(1, terms):
        coef *= -(2 * k - 1)
        series += coef / x ** (2 * k)
    return -0.5 * x * x - LOG_SQRT_2PI - math.log(x) + math.log1p(series)


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_minus_one(self):
        assert std_normal_cdf(-1.0) == pytest.approx(0.1586553, abs=5e-8)

    def test_rate_point_003(self):
        # threshold where the optimal misclassification rate is 3%
        assert std_normal_cdf(-1.8808) == pytest.approx(0.0300, abs=5e-5)

    def test_against_high_precision_oracle(self):
        xs = np.concatenate([np.linspace(-8.0, 8.0, 161), [-37.0, 37.0]])
        for x in xs:
            assert abs(std_normal_cdf(x) - float(mp.ncdf(x))) <= 1e-14

    def test_symmetry(self, rng):
        for x in np.concatenate([np.linspace(-10, 10, 101), rng.standard_normal(50) * 3]):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_monotone(self):
        xs = np.linspace(-12, 12, 2001)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestStdNormalLogTail:
    def test_at_zero(self):
        assert std_normal_log_tail(0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_at_one(self):
        assert std_normal_log_tail(1.0) == pytest.approx(-1.8410216, abs=5e-7)

    def test_large_x_against_mills_series(self):
        assert std_normal_log_tail(20.0) == pytest.approx(-203.9172, abs=5e-4)
        for x in (12.0, 20.0, 30.0, 40.0):
            assert std_normal_log_tail(x) == pytest.approx(mills_series_log_tail(x), rel=1e-10)

    def test_exp_matches_cdf_when_representable(self):
        for x in (0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 37.0):
            ref = float(mp.ncdf(-x))
            assert math.exp(std_normal_log_tail(x)) == pytest.approx(ref, rel=1e-12)

    def test_continuous_at_branch_switch(self):
        below = std_normal_log_tail(8.0)
        above = std_normal_log_tail(8.0 + 1e-12)
        assert abs(below - above) < 1e-10

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_log_tail(bad)


class TestMillsBounds:
    # two-sided gaussian tail inequality, phi-scaled:
    #   x/(1+x^2) phi(x) <= Phi(-x) <= phi(x)/x

    def test_linear_domain_grid(self):
        xs = np.geomspace(0.1, 8.0, 200)
        for x in xs:
            phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            tail = std_normal_cdf(-x)
            assert x / (1.0 + x * x) * phi <= tail <= phi / x

    def test_log_domain_grid(self):
        xs = np.geomspace(8.0, 40.0, 200)
        for x in xs:
            log_phi = -0.5 * x * x - LOG_SQRT_2PI
            log_tail = std_normal_log_tail(x)
            assert math.log(x / (1.0 + x * x)) + log_phi <= log_tail <= log_phi - math.log(x)


class TestTailRatioLimit:
    # For xi -> inf and tau*xi -> gamma, Phi(-sqrt(xi)(1-tau))/Phi(-sqrt(xi))
    # tends to e^gamma; checked in log domain at xi = 400.

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
    def test_log_ratio(self, gamma):
        xi = 400.0
        tau = gamma / xi
        diff = std_normal_log_tail(math.sqrt(xi) * (1.0 - tau)) - std_normal_log_tail(math.sqrt(xi))
        assert abs(diff - gamma) <= 0.02 * (1.0 + gamma)


class TestCholesky:
    def test_identity(self):
        f = cholesky_spd(np.eye(3))
        assert np.array_equal(f.lower, np.eye(3))
        assert f.log_determinant == 0.0

    def test_diagonal(self):
        f = cholesky_spd(np.diag([4.0, 9.0]))
        assert np.allclose(f.lower, np.diag([2.0, 3.0]))
        assert f.log_determinant == pytest.approx(math.log(36.0), rel=1e-14)

    def test_two_by_two_hand_elimination(self):
        # [[2,1],[1,2]]: l11 = sqrt(2), l21 = 1/sqrt(2), l22 = sqrt(2 - 1/2)
        f = cholesky_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[math.sqrt(2.0), 0.0],
                             [1.0 / math.sqrt(2.0), math.sqrt(1.5)]])
        assert np.allclose(f.lower, expected, rtol=1e-12)

    def test_failing_pivot_index(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot_index == 1
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_spd(np.array([[-1.0]]))
        assert err.value.pivot_index == 0

    def test_asymmetry_rejected(self):
        a = np.array([[1.0, 0.5], [0.49, 1.0]])
        with pytest.raises(DomainError):
            cholesky_spd(a)

    def test_mild_asymmetry_repaired(self):
        # tolerated, and only the lower triangle is read
        a = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        f = cholesky_spd(a)
        recon = f.lower @ f.lower.T
        assert np.allclose(recon, np.tril(a) + np.tril(a, -1).T, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("where", [(-1, -2), (-1, 0), (0, -1)])
    def test_asymmetry_in_last_partial_block_rejected(self, where):
        # the check runs over row blocks; an entry in the last, partial
        # block, paired with one in the same or the first block, is seen
        p = 2 * _SYM_BLOCK + 5
        a = 2.0 * np.eye(p)
        a[where] = 0.5
        a[where[::-1]] = 0.49
        for fn in (cholesky_spd, eigen_sym):
            with pytest.raises(DomainError, match="asymmetry"):
                fn(a)

    @pytest.mark.parametrize("where", [(-1, -2), (-1, 0), (0, -1)])
    def test_blockwise_tolerance_is_exact(self, where):
        # max |a| = 2, so 2e-8 is the largest asymmetry accepted; the
        # blockwise max is the exact max, so the edge sits where it did
        p = 2 * _SYM_BLOCK + 5
        a = 2.0 * np.eye(p)
        a[where[::-1]] = 0.5
        a[where] = 0.5 + 2e-8 * (1.0 - 1e-6)
        f = cholesky_spd(a)
        recon = f.lower @ f.lower.T
        assert np.allclose(recon, np.tril(a) + np.tril(a, -1).T, rtol=1e-12, atol=0.0)
        a[where] = 0.5 + 2e-8 * (1.0 + 1e-6)
        with pytest.raises(DomainError):
            cholesky_spd(a)

    def test_huge_entry_does_not_overflow(self):
        f = cholesky_spd(np.array([[1e308]]))
        assert f.lower[0, 0] == math.sqrt(1e308)
        assert eigen_sym(np.array([[1e308]])).eigenvalues[0] == 1e308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        a = np.eye(2)
        a[where] = a[where[::-1]] = bad
        for fn in (cholesky_spd, eigen_sym):
            with pytest.raises(DomainError, match="NaN or Inf"):
                fn(a)

    def test_exactly_symmetric_input_factors_as_before(self, rng):
        # skipping the 0.5 (A + A') rebuild changes nothing for an exactly
        # symmetric input: same factor bits, and the input is left alone
        from conftest import random_spd

        a = random_spd(rng, 30)
        a = 0.5 * (a + a.T)  # (q * eigs) @ q.T is symmetric only to rounding
        assert np.array_equal(a, a.T)
        before = a.copy()
        f = cholesky_spd(a)
        assert np.array_equal(a, before)
        rebuilt = cholesky_spd(0.5 * (a + a.T))
        assert f.lower.tobytes() == rebuilt.lower.tobytes()
        assert f.log_determinant == rebuilt.log_determinant

    def test_roundtrip_random_spd(self, rng):
        from conftest import random_spd

        for p in (1, 2, 7, 40, 200):
            a = random_spd(rng, p)
            f = cholesky_spd(a)
            recon = f.lower @ f.lower.T
            assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)
            sign, logdet = np.linalg.slogdet(a)
            assert sign > 0
            assert f.log_determinant == pytest.approx(logdet, rel=1e-9, abs=1e-9)

    def test_solve(self, rng):
        from conftest import random_spd

        a = random_spd(rng, 12)
        b = rng.standard_normal((12, 3))
        x = spd_solve(cholesky_spd(a), b)
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-11)


class TestEigenSym:
    def test_identity(self):
        e = eigen_sym(np.eye(2))
        assert np.array_equal(e.eigenvalues, [1.0, 1.0])

    def test_diagonal_with_negative(self):
        e = eigen_sym(np.diag([3.0, -1.0]))
        assert np.allclose(e.eigenvalues, [3.0, -1.0])
        assert np.allclose(np.abs(e.eigenvectors), np.eye(2))

    def test_two_by_two_characteristic_polynomial(self):
        # eigenvalues of [[a,b],[b,c]] from the quadratic formula
        a, b, c = 2.0, 1.0, 2.0
        disc = math.sqrt((a - c) ** 2 + 4 * b * b)
        expected = [(a + c + disc) / 2, (a + c - disc) / 2]
        e = eigen_sym(np.array([[a, b], [b, c]]))
        assert np.allclose(e.eigenvalues, expected, rtol=1e-14)

    def test_invariants_random(self, rng):
        for p in (2, 5, 30):
            a = rng.standard_normal((p, p))
            a = 0.5 * (a + a.T)
            e = eigen_sym(a)
            assert np.all(np.diff(e.eigenvalues) <= 0)
            v = e.eigenvectors
            recon = (v * e.eigenvalues) @ v.T
            assert np.linalg.norm(recon - a) <= 1e-8 * max(np.linalg.norm(a), 1.0)
            assert np.max(np.abs(v.T @ v - np.eye(p))) <= 1e-10


class TestStreams:
    def test_substreams_reproducible_and_order_free(self):
        a = substream(7, 3).standard_normal(5)
        substream(7, 1).standard_normal(100)  # unrelated stream consumption
        b = substream(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_substreams_distinct(self):
        a = substream(7, 1).standard_normal(8)
        b = substream(7, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_is_substream_zero(self):
        from slda.numerics import stream

        assert np.array_equal(stream(42).standard_normal(4),
                              substream(42, 0).standard_normal(4))


class TestSamplers:
    def test_mvn_deterministic(self):
        f = cholesky_spd(np.eye(2))
        x1 = sample_mvn(np.array([5.0, 5.0]), f, substream(7, 0))
        x2 = sample_mvn(np.array([5.0, 5.0]), f, substream(7, 0))
        assert np.array_equal(x1, x2)

    def test_mvn_law_of_large_numbers(self):
        f = cholesky_spd(np.eye(2))
        draws = sample_mvn(np.array([1.0, 2.0]), f, substream(11, 0), size=100_000)
        assert np.max(np.abs(draws.mean(axis=0) - [1.0, 2.0])) < 0.02

    def test_mvn_variance(self):
        f = cholesky_spd(np.diag([4.0, 1.0]))
        draws = sample_mvn(np.zeros(2), f, substream(12, 0), size=100_000)
        v = draws[:, 0].var()
        assert abs(v - 4.0) / 4.0 < 0.05

    def test_mvn_dense_factor_covariance(self, rng):
        from conftest import random_spd

        sigma = random_spd(rng, 3)
        f = cholesky_spd(sigma)
        draws = sample_mvn(np.zeros(3), f, substream(13, 0), size=200_000)
        emp = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(emp - sigma)) < 0.05

    def test_mvt_limit_matches_normal(self):
        f = cholesky_spd(np.eye(2))
        draws = sample_mvt(np.zeros(2), f, 1_000_000, substream(14, 0), size=100_000)
        assert abs(draws[:, 0].var() - 1.0) < 0.02

    def test_mvt_df3_variance(self):
        # var = df/(df-2) = 3; heavy tails make the estimate noisy, so
        # the band is wide and the seed fixed
        f = cholesky_spd(np.eye(2))
        draws = sample_mvt(np.zeros(2), f, 3, substream(15, 0), size=100_000)
        assert abs(draws[:, 0].var() - 3.0) / 3.0 < 0.2

    def test_mvt_deterministic(self):
        f = cholesky_spd(np.eye(3))
        x1 = sample_mvt(np.zeros(3), f, 3, substream(7, 5))
        x2 = sample_mvt(np.zeros(3), f, 3, substream(7, 5))
        assert np.array_equal(x1, x2)

    def test_shape_and_domain_errors(self):
        f = cholesky_spd(np.eye(2))
        with pytest.raises(ShapeError):
            sample_mvn(np.zeros(3), f, substream(0, 0))
        with pytest.raises(ShapeError):
            sample_mvt(np.zeros(3), f, 3, substream(0, 0))
        with pytest.raises(DomainError):
            sample_mvt(np.zeros(2), f, 0, substream(0, 0))


def potrf_lower(a):
    """Dense reference: LAPACK potrf's lower factor and its info code."""
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    return c, info


class TestDiagonalFastPath:
    # The diagonal operator against the dense potrf path it replaces.

    @staticmethod
    def diag_matrix(rng, p):
        return np.diag(rng.uniform(0.05, 300.0, p))

    @pytest.mark.parametrize("p", [1, 5, 500])
    def test_kind_and_factor(self, rng, p):
        a = self.diag_matrix(rng, p)
        op = cholesky_spd(a)
        assert op.kind == "diagonal" and op.pd_flag and op.floor_count == 0
        c, info = potrf_lower(a)
        assert info == 0
        assert np.array_equal(op.lower, c)
        assert op.log_determinant == 2.0 * float(np.sum(np.log(np.diag(c))))

    @pytest.mark.parametrize("p", [5, 500])
    def test_solve_bit_exact_against_cho_solve(self, rng, p):
        a = self.diag_matrix(rng, p)
        c, _ = potrf_lower(a)
        op = cholesky_spd(a)
        for b in (rng.standard_normal(p), rng.standard_normal((p, 4))):
            assert np.array_equal(spd_solve(op, b), cho_solve((c, True), b))

    @pytest.mark.parametrize("p", [5, 500])
    def test_lower_products_bit_exact(self, rng, p):
        a = self.diag_matrix(rng, p)
        c, _ = potrf_lower(a)
        op = cholesky_spd(a)
        gen_a, gen_b = substream(3, 1), substream(3, 1)
        assert np.array_equal(sample_mvn(np.zeros(p), op, gen_a, size=7),
                              np.zeros(p) + gen_b.standard_normal((7, p)) @ c.T)
        assert np.array_equal(sample_mvn(np.zeros(p), op, substream(4, 0)),
                              np.zeros(p) + c @ substream(4, 0).standard_normal(p))
        w = rng.standard_normal((p, 3))
        assert np.array_equal(op.lower_t(w), c.T @ w)
        assert np.array_equal(op.lower_t(w[:, 0]), c.T @ w[:, 0])

    @pytest.mark.parametrize("d, pivot", [([3.0, 2.0, 0.0, -1.0, 5.0], 2),
                                          ([4.0, -1.0], 1), ([-0.0], 0),
                                          ([1.0, 2.0, 3.0, -4.0], 3)])
    def test_pivot_index_matches_potrf(self, d, pivot):
        a = np.diag(d)
        _, info = potrf_lower(a)
        assert info - 1 == pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_spd(a)
        assert err.value.pivot_index == pivot

    def test_off_diagonal_entry_takes_dense_path(self):
        a = np.diag([2.0, 3.0, 4.0])
        a[0, 2] = a[2, 0] = 5e-324
        op = cholesky_spd(a)
        assert op.kind == "cholesky" and op.diagonal is None
        assert diagonal_of(a) is None
        assert np.array_equal(diagonal_of(np.diag([2.0, 3.0, 4.0])), [2.0, 3.0, 4.0])

    def test_nan_off_diagonal_is_not_diagonal(self):
        a = np.eye(3)
        a[0, 1] = math.nan
        assert diagonal_of(a) is None
        with pytest.raises(DomainError, match="NaN or Inf"):
            cholesky_spd(a)

    def test_factor_does_not_alias_input(self):
        a = np.diag([4.0, 9.0])
        op = cholesky_spd(a)
        a[0, 0] = 100.0
        assert np.array_equal(op.diagonal, [4.0, 9.0])
        assert np.array_equal(spd_solve(op, np.array([4.0, 9.0])), [1.0, 1.0])

    def test_eigen_kinds_have_no_lower_factor(self):
        from slda.estimation import invert_sparse_sym

        op = invert_sparse_sym(np.array([[1.0, 2.0], [2.0, 1.0]]))
        for what in ("lower", "log_determinant"):
            with pytest.raises(DomainError):
                getattr(op, what)
        with pytest.raises(DomainError):
            op.lower_t(np.ones(2))
        with pytest.raises(DomainError):
            sample_mvn(np.zeros(2), op, substream(0, 0))
