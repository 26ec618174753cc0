"""Normal CDF / log-tail and Student t CDF accuracy, tail inequalities,
factorizations and seeded samplers.

High-precision oracle: mpmath at 50 digits. The log-tail asymptotic
check uses an in-test Mills series independent of the implementation.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.linalg.lapack import get_lapack_funcs

from conftest import bits_equal, dense_lower
from slda.errors import DomainError, NotPositiveDefiniteError, ShapeError
from slda.numerics import (
    _SYM_BLOCK,
    SymOperator,
    cholesky_spd,
    invert_sparse_sym,
    sample_mvn,
    sample_mvt,
    spd_solve,
    std_normal_cdf,
    std_normal_log_tail,
    student_t_cdf,
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


def t_cdf_oracle(x, df):
    # F_df(x) = I_z(df/2, 1/2) / 2 with z = df/(df + x^2) for x <= 0,
    # and 1 minus that for x > 0 (regularized incomplete beta)
    x, df = mp.mpf(x), mp.mpf(df)
    half_tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, df / (df + x * x), regularized=True) / 2
    return half_tail if x <= 0 else 1 - half_tail


class TestStudentTCdf:
    @pytest.mark.parametrize("df", [1, 2, 3, 30])
    def test_against_incomplete_beta_oracle(self, df):
        xs = [-1e4, -1e3, -100.0, -30.0, -10.0, -3.0, -1.0, -0.25, 0.0, 0.5, 2.0, 3.0]
        for x in xs:
            want = t_cdf_oracle(x, df)
            assert abs(student_t_cdf(x, df) - float(want)) <= 1e-13 * float(want), (x, df)

    def test_cauchy_hand_values(self):
        # df = 1 is the Cauchy law: F(x) = 1/2 + atan(x)/pi
        assert student_t_cdf(0.0, 1) == 0.5
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, rel=1e-15)
        assert student_t_cdf(-1.0, 1) == pytest.approx(0.25, rel=1e-15)

    def test_heavier_tail_than_normal(self):
        for df in (1, 3, 30):
            assert student_t_cdf(-3.0, df) > std_normal_cdf(-3.0)

    @pytest.mark.parametrize("x, df", [(math.nan, 3), (math.inf, 3), (0.0, 0), (0.0, 2.5),
                                       (0.0, True)])
    def test_bad_input_rejected(self, x, df):
        with pytest.raises(DomainError):
            student_t_cdf(x, df)


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

    def test_continuous_and_decreasing_through_8(self):
        below = std_normal_log_tail(8.0)
        above = std_normal_log_tail(8.0 + 1e-12)
        assert abs(below - above) < 1e-10
        tail = [std_normal_log_tail(x) for x in np.linspace(7.0, 9.0, 201)]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_log_tail(bad)

    def test_relative_error_against_mpmath(self):
        # 0, the old branch point 8, and the far tail, where Phi(-x) is
        # about e^(-5e7) and far below the smallest double
        xs = np.concatenate([np.linspace(0.0, 40.0, 401), np.geomspace(40.0, 1e4, 200)[1:]])
        assert {0.0, 8.0, 1e4} <= set(xs.tolist())
        for x in xs:  # mp.dps is 50
            ref = mp.log(mp.ncdf(-mp.mpf(x)))
            assert abs((mp.mpf(std_normal_log_tail(x)) - ref) / ref) <= 1e-15, x


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
        assert np.array_equal(dense_lower(f), np.eye(3))

    def test_diagonal(self):
        f = cholesky_spd(np.diag([4.0, 9.0]))
        assert np.allclose(dense_lower(f), np.diag([2.0, 3.0]))

    def test_two_by_two_hand_elimination(self):
        # [[2,1],[1,2]]: l11 = sqrt(2), l21 = 1/sqrt(2), l22 = sqrt(2 - 1/2)
        f = cholesky_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[math.sqrt(2.0), 0.0],
                             [1.0 / math.sqrt(2.0), math.sqrt(1.5)]])
        assert np.allclose(dense_lower(f), expected, rtol=1e-12)

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
        recon = dense_lower(f) @ dense_lower(f).T
        assert np.allclose(recon, np.tril(a) + np.tril(a, -1).T, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("where", [(-1, -2), (-1, 0), (0, -1)])
    def test_asymmetry_in_last_partial_block_rejected(self, where):
        # the check runs over row blocks; an entry in the last, partial
        # block, paired with one in the same or the first block, is seen
        p = 2 * _SYM_BLOCK + 5
        a = 2.0 * np.eye(p)
        a[where] = 0.5
        a[where[::-1]] = 0.49
        for fn in (cholesky_spd, invert_sparse_sym):
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
        recon = dense_lower(f) @ dense_lower(f).T
        assert np.allclose(recon, np.tril(a) + np.tril(a, -1).T, rtol=1e-12, atol=0.0)
        a[where] = 0.5 + 2e-8 * (1.0 + 1e-6)
        with pytest.raises(DomainError):
            cholesky_spd(a)

    def test_huge_entry_does_not_overflow(self):
        f = cholesky_spd(np.array([[1e308]]))
        assert dense_lower(f)[0, 0] == math.sqrt(1e308)
        # eigenvalues +-1e308: the eigen floor raises -1e308 to 1e300
        op = invert_sparse_sym(np.array([[0.0, 1e308], [1e308, 0.0]]))
        assert op.kind == "eigen_floor" and op.floor_count == 1
        assert np.isfinite(op._inv_values).all()
        assert sorted(1.0 / op._inv_values) == pytest.approx([1e300, 1e308], rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        a = np.eye(2)
        a[where] = a[where[::-1]] = bad
        for fn in (cholesky_spd, invert_sparse_sym):
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
        assert dense_lower(f).tobytes() == dense_lower(rebuilt).tobytes()

    def test_roundtrip_random_spd(self, rng):
        from conftest import random_spd

        for p in (1, 2, 7, 40, 200):
            a = random_spd(rng, p)
            f = cholesky_spd(a)
            recon = dense_lower(f) @ dense_lower(f).T
            assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_solve(self, rng):
        from conftest import random_spd

        a = random_spd(rng, 12)
        b = rng.standard_normal((12, 3))
        x = spd_solve(cholesky_spd(a), b)
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-11)


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

    @pytest.mark.parametrize("df", [2.5, True, 1.5, 0.5])
    def test_mvt_rejects_a_df_it_would_truncate(self, df):
        # int(df) drew 2.5 as t(2), True as t(1) and 0.5 as an error of 0
        with pytest.raises(DomainError, match="df must be an integer >= 1"):
            sample_mvt(np.zeros(2), cholesky_spd(np.eye(2)), df, substream(0, 0), size=3)

    @pytest.mark.parametrize("kind", ["diagonal", "cholesky"])
    @pytest.mark.parametrize("df", [None, 3])
    def test_out_gives_the_bits_of_size(self, rng, kind, df):
        from conftest import random_spd

        p = 33
        f = cholesky_spd(rng.uniform(0.5, 2.0, p) if kind == "diagonal" else random_spd(rng, p))
        mean = rng.standard_normal(p)

        def draw(**kw):
            gen = substream(9, 1)
            if df is None:
                return sample_mvn(mean, f, gen, **kw)
            return sample_mvt(mean, f, df, gen, **kw)

        for size, shape in ((5, (5, p)), (None, (p,))):
            out = np.full(shape, np.nan)
            assert draw(out=out) is out
            assert bits_equal(out, draw(size=size))
        rows = np.full((8, p), np.nan)
        draw(out=rows[2:7])  # a block of rows of a larger array
        assert bits_equal(rows[2:7], draw(size=5))
        assert np.isnan(rows[:2]).all() and np.isnan(rows[7:]).all()

    def test_single_draw_keeps_the_matrix_vector_bits(self, rng):
        # one Cholesky draw is written as z L' into out; the bits are those
        # of mean + L z, the product it replaced
        from conftest import random_spd

        for p in (2, 33, 200):
            c = cholesky_spd(random_spd(rng, p))
            mean = rng.standard_normal(p)
            z = substream(4, p).standard_normal(p)
            assert bits_equal(sample_mvn(mean, c, substream(4, p)), mean + dense_lower(c) @ z)

    @pytest.mark.parametrize("out, size", [(np.zeros(3), None), (np.zeros((4, 3)), None),
                                           (np.zeros((4, 2)), 4), (np.zeros((2, 4, 2)), None),
                                           (np.zeros((4, 4))[:, :2], None),
                                           (np.zeros((4, 2), dtype=np.float32), None)])
    def test_out_must_be_a_float_block_of_rows(self, out, size):
        f = cholesky_spd(np.ones(2))
        with pytest.raises(ShapeError, match="out must be"):
            sample_mvn(np.zeros(2), f, substream(0, 0), size=size, out=out)
        with pytest.raises(ShapeError, match="out must be"):
            sample_mvt(np.zeros(2), f, 3, substream(0, 0), size=size, out=out)


def potrf_lower(a):
    """Dense reference: LAPACK potrf's lower factor and its info code."""
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(a, lower=1, clean=1, overwrite_a=0)
    return c, info


class TestDiagonalFastPath:
    # The diagonal operator of a (p,) vector d against the dense potrf
    # path of np.diag(d).

    @staticmethod
    def diag_vector(rng, p):
        return rng.uniform(0.05, 300.0, p)

    @pytest.mark.parametrize("p", [1, 5, 500])
    def test_kind_and_factor(self, rng, p):
        d = self.diag_vector(rng, p)
        op = cholesky_spd(d)
        assert op.kind == "diagonal" and op.pd_flag and op.floor_count == 0
        c, info = potrf_lower(np.diag(d))
        assert info == 0
        assert np.array_equal(dense_lower(op), c)

    @pytest.mark.parametrize("p", [5, 500])
    def test_solve_bit_exact_against_cho_solve(self, rng, p):
        d = self.diag_vector(rng, p)
        c, _ = potrf_lower(np.diag(d))
        op = cholesky_spd(d)
        for b in (rng.standard_normal(p), rng.standard_normal((p, 4))):
            assert np.array_equal(spd_solve(op, b), cho_solve((c, True), b))

    @pytest.mark.parametrize("p", [5, 500])
    def test_lower_products_bit_exact(self, rng, p):
        d = self.diag_vector(rng, p)
        c, _ = potrf_lower(np.diag(d))
        op = cholesky_spd(d)
        gen_a, gen_b = substream(3, 1), substream(3, 1)
        assert np.array_equal(sample_mvn(np.zeros(p), op, gen_a, size=7),
                              np.zeros(p) + gen_b.standard_normal((7, p)) @ c.T)
        assert np.array_equal(sample_mvn(np.zeros(p), op, substream(4, 0)),
                              np.zeros(p) + c @ substream(4, 0).standard_normal(p))

    @pytest.mark.parametrize("d, pivot", [([3.0, 2.0, 0.0, -1.0, 5.0], 2),
                                          ([4.0, -1.0], 1), ([-0.0], 0),
                                          ([1.0, 2.0, 3.0, -4.0], 3)])
    def test_pivot_index_matches_potrf(self, d, pivot):
        _, info = potrf_lower(np.diag(d))
        assert info - 1 == pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_spd(np.array(d))
        assert err.value.pivot_index == pivot

    def test_off_diagonal_entry_takes_dense_path(self):
        # a matrix always takes potrf: a tiny off-diagonal entry, and a
        # matrix that is diagonal, are never scanned for zeros
        a = np.diag([2.0, 3.0, 4.0])
        dense = cholesky_spd(a)
        a[0, 2] = a[2, 0] = 5e-324
        op = cholesky_spd(a)
        assert op.kind == dense.kind == "cholesky"
        assert cholesky_spd(np.array([2.0, 3.0, 4.0])).kind == "diagonal"

    def test_nan_off_diagonal_is_not_diagonal(self):
        a = np.eye(3)
        a[0, 1] = math.nan
        with pytest.raises(DomainError, match="NaN or Inf"):
            cholesky_spd(a)

    def test_factor_does_not_alias_input(self):
        d = np.array([4.0, 9.0])
        op = cholesky_spd(d)
        d[0] = 100.0
        assert np.array_equal(spd_solve(op, np.array([4.0, 9.0])), [1.0, 1.0])

    def test_eigen_kinds_have_no_lower_factor(self):
        op = invert_sparse_sym(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DomainError, match="sampling needs a factored operator"):
            sample_mvn(np.zeros(2), op, substream(0, 0))


def test_pd_flag_is_read_from_kind():
    # not a stored field: False exactly on the eigen floor, as each kind
    # reported it when it was one
    assert "pd_flag" not in {field.name for field in dataclasses.fields(SymOperator)}
    ops = [cholesky_spd(np.array([2.0, 3.0])), cholesky_spd(np.eye(2)),
           invert_sparse_sym(np.eye(2)), invert_sparse_sym(np.array([1.0, -1.0])),
           invert_sparse_sym(np.array([[1.0, 2.0], [2.0, 1.0]]))]
    assert [(op.kind, op.pd_flag) for op in ops] == [
        ("diagonal", True), ("cholesky", True), ("cholesky", True), ("eigen_floor", False),
        ("eigen_floor", False)]
