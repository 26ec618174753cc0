"""Sample statistics, hard thresholds and inverse strategies."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dstevd, dsytrd, dsytrd_lwork

from conftest import (bits_equal, dense_lower, eigh_descending, eigh_floor_solve, nnz_offdiag,
                      random_spd, summarize, threshold_covariance, two_class_dataset)
from slda import estimation, numerics
from slda.errors import (
    DomainError,
    NotPositiveDefiniteError,
    NumericalError,
    ShapeError,
    UnusableMatrixError,
)
from slda.estimation import (
    _threshold_in_place,
    centered_rows,
    class_means,
    compute_an,
    compute_tn,
    diagonal_screen,
    pinv_solve,
    pooled_covariance,
    pooled_spectrum,
    pooled_variances,
    threshold_delta,
)
from slda.model import validate_dataset
from slda.numerics import (FLOOR_EPS, cholesky_spd, invert_sparse_sym, sample_mvn, spd_solve,
                           substream)


class TestSummarize:
    def test_hand_computed_example(self):
        ds = two_class_dataset([[0.0, 0.0], [2.0, 0.0]], [[0.0, 2.0], [0.0, 4.0]])
        s = summarize(ds)
        assert np.array_equal(s.class_means, [[1.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(s.delta_hat, [1.0, -3.0])
        assert np.array_equal(s.grand_mid, [0.5, 1.5])
        # devs: class 1 (+-1, 0); class 2 (0, +-1); S = (1/4) diag(2, 2)
        assert np.array_equal(s.pooled_cov, np.diag([0.5, 0.5]))

    def test_identical_samples_give_zero_covariance(self):
        row1, row2 = [1.5, -2.25], [0.75, 3.5]
        ds = two_class_dataset([row1, row1], [row2, row2])
        s = summarize(ds)
        assert np.array_equal(s.pooled_cov, np.zeros((2, 2)))

    def test_duplication_invariance(self, rng):
        x1 = rng.standard_normal((4, 3))
        x2 = rng.standard_normal((5, 3))
        base = summarize(two_class_dataset(x1, x2))
        doubled = summarize(two_class_dataset(np.vstack([x1, x1]), np.vstack([x2, x2])))
        assert np.allclose(doubled.class_means, base.class_means, rtol=1e-12, atol=1e-14)
        assert np.allclose(doubled.pooled_cov, base.pooled_cov, rtol=1e-12, atol=1e-14)

    def test_permutation_invariance(self, rng):
        x1 = rng.standard_normal((6, 4))
        x2 = rng.standard_normal((7, 4))
        features = np.vstack([x1, x2])
        labels = np.array([1] * 6 + [2] * 7)
        perm = rng.permutation(13)
        a = summarize(validate_dataset(features, labels))
        b = summarize(validate_dataset(features[perm], labels[perm]))
        assert np.allclose(a.pooled_cov, b.pooled_cov, rtol=1e-12, atol=1e-14)
        assert np.allclose(a.class_means, b.class_means, rtol=1e-12, atol=1e-14)

    def test_pooled_cov_exactly_symmetric(self, rng):
        # S is the Gram matrix of the centred rows, formed without a
        # symmetrizing pass: C- and Fortran-ordered features, p > n and
        # K = 3 must all give S == S' bit for bit
        x1, x2 = rng.standard_normal((20, 15)), rng.standard_normal((22, 15))
        wide = rng.standard_normal((9, 120)) * np.logspace(-3, 3, 120)
        three = rng.standard_normal((18, 40))
        datasets = [
            two_class_dataset(x1, x2),
            validate_dataset(np.asfortranarray(np.vstack([x1, x2])), [1] * 20 + [2] * 22),
            validate_dataset(wide, [1] * 4 + [2] * 5),
            validate_dataset(np.asfortranarray(wide), [1] * 4 + [2] * 5),
            validate_dataset(three, [1] * 6 + [2] * 5 + [3] * 7),
        ]
        assert datasets[1].features.flags.f_contiguous
        for ds in datasets:
            s = summarize(ds).pooled_cov
            assert np.array_equal(s, s.T)


def masked_centering(ds):
    """The rows less their class mean, one masked copy per class: the
    loop that centered_rows' one gather-and-subtract pass replaced."""
    means = class_means(ds)
    centered = np.empty_like(ds.features)
    for cls in range(1, ds.n_classes + 1):
        mask = ds.labels == cls
        centered[mask] = ds.features[mask] - means[cls - 1]
    return centered


# |cell| <= 1e307 in at most 16 rows keeps every class sum finite
CELLS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e307, -1e307, 1.0]),
                  st.floats(-1e307, 1e307))


class TestCenteredRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 4), p=st.integers(1, 6), fortran=st.booleans())
    def test_bits_equal_per_class_reference(self, data, k, p, fortran):
        extra = data.draw(st.lists(st.integers(1, k), max_size=16 - 2 * k))
        labels = data.draw(st.permutations(list(range(1, k + 1)) * 2 + extra))  # interleaved
        x = data.draw(arrays(float, (len(labels), p), elements=CELLS))
        ds = validate_dataset(np.asarray(x, order="F" if fortran else "C"), labels)
        before = ds.features.copy()
        means, centered = centered_rows(ds)
        want = masked_centering(ds)
        assert bits_equal(means, class_means(ds)) and bits_equal(centered, want)
        assert centered.flags.f_contiguous == want.flags.f_contiguous
        assert bits_equal(ds.features, before)  # the rows are not written

    @pytest.mark.parametrize("cls", [1, 2])
    def test_overflowing_class_sum_names_class_and_feature(self, cls):
        # finite cells near 1e308 whose class sum overflows at feature 3
        rows = [[[1.0, 2.0, 0.5], [3.0, 4.0, 0.25], [5.0, 6.0, 1.0]] for _ in range(2)]
        rows[cls - 1] = [[1.0, 2.0, 1.7e308], [3.0, -4.0, 1.7e308], [5.0, 6.0, 1.0]]
        ds = two_class_dataset(*rows)
        for estimate in (class_means, centered_rows):
            with pytest.raises(DomainError, match=f"^class {cls} mean of feature 3 is not "
                                                  "finite: the class sum overflows$"):
                estimate(ds)


class TestThresholdFormulas:
    def test_tn_zero_constant(self):
        assert compute_tn(0.0, 100, 50) == 0.0

    def test_tn_formula(self):
        assert compute_tn(1.0, 100, 100) == pytest.approx(math.sqrt(math.log(100) / 100), rel=1e-15)
        assert compute_tn(1.0, 100, 100) == pytest.approx(0.2146, abs=5e-5)

    def test_tn_leukemia_scale(self):
        # M1 = 1e7 at p = 7129, n = 72
        assert compute_tn(1e7, 72, 7129) == pytest.approx(3.511e6, rel=1e-3)

    def test_an_zero_constant(self):
        assert compute_an(0.0, 100, 50, 0.3) == 0.0

    def test_an_formula(self):
        expected = (math.log(100) / 100) ** 0.3
        assert compute_an(1.0, 100, 100, 0.3) == pytest.approx(expected, rel=1e-15)
        assert compute_an(1.0, 100, 100, 0.3) == pytest.approx(0.3972, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            compute_tn(1.0, 100, 1)
        with pytest.raises(DomainError):
            compute_tn(1.0, 0, 10)
        with pytest.raises(DomainError):
            compute_an(1.0, 100, 10, 0.5)
        with pytest.raises(DomainError):
            compute_an(1.0, 100, 10, 0.0)


def kept_upper(s, t):
    """Upper-triangle pairs with |s_jl| > t, the reference kept set."""
    return set(zip(*(idx.tolist() for idx in np.nonzero(np.triu(np.abs(s) > t, 1)))))


class TestThresholdCovariance:
    def test_drops_small_offdiagonal(self):
        s = np.array([[2.0, 0.1], [0.1, 3.0]])
        t = threshold_covariance(s, 0.2)
        assert nnz_offdiag(t) == 0
        assert np.array_equal(t, np.diag([2.0, 3.0]))

    def test_zero_threshold_keeps_all_nonzero(self):
        s = np.array([[1.0, 0.0, -0.3],
                      [0.0, 2.0, 0.4],
                      [-0.3, 0.4, 3.0]])
        t = threshold_covariance(s, 0.0)
        assert nnz_offdiag(t) == 2  # the exact zero stays out
        assert np.array_equal(t, s)

    def test_enumerated_keeps(self):
        s = np.array([[1.0, 0.3, 0.05],
                      [0.3, 1.0, 0.25],
                      [0.05, 0.25, 1.0]])
        t = threshold_covariance(s, 0.2)
        assert nnz_offdiag(t) == 2
        assert kept_upper(t, 0.0) == {(0, 1), (1, 2)}
        assert np.array_equal(t, [[1.0, 0.3, 0.0], [0.3, 1.0, 0.25], [0.0, 0.25, 1.0]])

    def test_tie_at_threshold_dropped(self):
        s = np.array([[1.0, 0.2], [0.2, 1.0]])
        t = threshold_covariance(s, 0.2)
        assert nnz_offdiag(t) == 0
        assert t[0, 1] == 0.0 and t[1, 0] == 0.0

    def test_monotone_in_threshold(self, rng):
        s = random_spd(rng, 12)
        prev = None
        for t in (0.0, 0.05, 0.1, 0.3, 1.0):
            kept = kept_upper(s, t)
            got = threshold_covariance(s, t)
            assert kept_upper(got, 0.0) == kept
            if prev is not None:
                assert kept <= prev
            prev = kept

    def test_diagonal_copied_exactly(self, rng):
        s = random_spd(rng, 9)
        t = threshold_covariance(s, 10.0)
        assert np.array_equal(np.diag(t), np.diag(s))
        assert nnz_offdiag(t) == 0
        assert np.array_equal(t, np.diag(np.diag(s)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.integers(1, 8))
    def test_strict_rule_property(self, data, p):
        # the sampled values give exact zeros and ties with t
        ties = [0.0, -0.0, 0.25, -0.25, 0.5, -1.0, 1e-300, 3.0]
        elements = st.one_of(st.sampled_from(ties), st.floats(-5.0, 5.0))
        a = data.draw(arrays(float, (p, p), elements=elements))
        s = np.triu(a) + np.triu(a, 1).T
        t = data.draw(st.sampled_from([0.0, 1e-300, 0.25, 0.5, 2.0, 10.0]))
        got = threshold_covariance(s, t)
        assert np.array_equal(got, got.T)
        assert np.array_equal(np.diag(got), np.diag(s))
        off = ~np.eye(p, dtype=bool)
        expected = np.where(np.abs(s) > t, s, 0.0)
        assert np.array_equal(got[off], expected[off])
        assert not np.any(np.signbit(got[off]) & (np.abs(s[off]) <= t))  # dropped is +0.0
        assert nnz_offdiag(got) == len(kept_upper(s, t))


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=st.integers(1, 9))
    def test_in_place_matches_copy_bit_for_bit(self, data, p):
        # the in-place pass overwrites S with the very bits of the copy,
        # NaN and signed zeros included, in row blocks of any size
        elements = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, np.nan, np.inf]),
                             st.floats(-5.0, 5.0))
        a = data.draw(arrays(float, (p, p), elements=elements))
        s = np.triu(a) + np.triu(a, 1).T
        t = data.draw(st.sampled_from([0.0, 0.25, 2.0]))
        block = data.draw(st.sampled_from([1, 2, 64]))
        want = threshold_covariance(s, t)
        got = s.copy()
        with mock.patch.object(estimation, "_ROW_BLOCK", block):
            _threshold_in_place(got, t)
        assert bits_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.integers(1, 9))
    def test_ascending_in_place_chain_matches_copies(self, data, p):
        # hard thresholds nest: thresholding S in place at t_1 <= t_2 <= ...
        # gives threshold_covariance(S, t_i) bit for bit at every step, with
        # ties between steps, t = 0, t equal to some |s_jl| and +-0.0, NaN
        # and Inf entries
        elements = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, np.nan, np.inf]),
                             st.floats(-5.0, 5.0))
        a = data.draw(arrays(float, (p, p), elements=elements))
        s = np.triu(a) + np.triu(a, 1).T
        magnitudes = [abs(float(v)) for v in s.ravel() if math.isfinite(v)]
        ts = sorted(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 2.0]), st.floats(0.0, 6.0),
                      st.sampled_from(magnitudes or [0.0])),
            min_size=1, max_size=6)))
        block = data.draw(st.sampled_from([1, 2, 64]))
        chain = s.copy()
        for t in ts:
            with mock.patch.object(estimation, "_ROW_BLOCK", block):
                kept = _threshold_in_place(chain, t)
            assert bits_equal(chain, threshold_covariance(s, t))
            assert kept == nnz_offdiag(chain)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.integers(1, 9), block=st.sampled_from([1, 2, 64]))
    def test_count_is_kept_pairs(self, data, p, block):
        # the count the pass returns is nnz_offdiag of the reference
        # Sigma-tilde, with NaN, +-Inf, +-0.0, t = 0 and entries a hair
        # either side of t
        t = data.draw(st.sampled_from([0.0, 0.25, 1.5]))
        near = [t * (1.0 + 1e-12), t * (1.0 - 1e-12), t, -t * (1.0 + 1e-12), -t * (1.0 - 1e-12)]
        elements = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf] + near),
                             st.floats(-5.0, 5.0))
        a = data.draw(arrays(float, (p, p), elements=elements))
        s = np.triu(a) + np.triu(a, 1).T
        with mock.patch.object(estimation, "_ROW_BLOCK", block):
            kept = _threshold_in_place(s.copy(), t)
        assert kept == nnz_offdiag(threshold_covariance(s, t))

    def test_public_threshold_leaves_input_alone(self, rng):
        s = random_spd(rng, 6)
        before = s.copy()
        sigma = threshold_covariance(s, 0.3)
        assert sigma is not s and np.array_equal(s, before)


class TestVarianceScreen:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([2, 3, 17, 63, 64, 65, 66, 127, 128, 129, 193, 300]),
           n=st.sampled_from([4, 5, 20, 71, 72, 300]), fortran=st.booleans(),
           integer=st.booleans())
    def test_variances_are_diagonal_of_s(self, seed, p, n, fortran, integer):
        # the 64-column blocks (a one-column tail merged) give the bits of
        # diag(S) of the whole Gram product, for either memory order
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((n, p)) * np.exp(gen.uniform(-6.0, 6.0, p))
        if integer:
            x = np.rint(100.0 * x)
        x = np.asarray(x, order="F" if fortran else "C")
        labels = np.repeat([1, 2], [n // 2, n - n // 2])
        ds = validate_dataset(x, labels)
        _, centered = centered_rows(ds)
        assert bits_equal(pooled_variances(centered), np.diag(summarize(ds).pooled_cov))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), p=st.integers(2, 12),
           log_scale=st.floats(-320.0, 300.0), collinear=st.booleans())
    def test_bound_covers_every_off_diagonal(self, seed, n, p, log_scale, collinear):
        # Cauchy-Schwarz with rounding and underflow margins: no computed
        # |s_jl| exceeds the bound, even for (nearly) collinear columns,
        # whose |s_jl| sits at sqrt(s_jj s_ll), and for columns whose
        # products underflow
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((n, p))
        if collinear:
            x = x[:, :1] * gen.uniform(0.5, 2.0, p) * (1.0 + 1e-15 * gen.standard_normal((n, p)))
        x *= 10.0 ** (log_scale + gen.uniform(-20.0, 0.0, p))
        labels = np.repeat([1, 2], [n // 2, n - n // 2])
        ds = validate_dataset(x, labels)
        s = summarize(ds).pooled_cov
        bound = diagonal_screen(np.diag(s), n)
        off = ~np.eye(p, dtype=bool)
        if np.isfinite(s).all():
            assert np.max(np.abs(s[off])) <= bound
        else:
            assert bound == math.inf

    def test_underflowing_squares_are_covered(self):
        # column 0's squares underflow to 0, so s_00 = 0, while its
        # products with column 1 do not: s_01 > 0 = sqrt(s_00 s_11), and
        # only the tau term keeps the bound above it
        x = np.column_stack([np.array([1.0, -1.0, 2.0, -2.0, 1.0, -1.0]) * 1e-170,
                             np.array([1.0, -1.0, 2.0, -2.0, 3.0, -1.0]) * 1e100])
        s = summarize(validate_dataset(x, [1, 1, 1, 2, 2, 2])).pooled_cov
        assert s[0, 0] == 0.0 and s[0, 1] > 0.0
        assert s[0, 1] <= diagonal_screen(np.diag(s), 6)

    def test_collinear_columns_are_near_the_bound(self):
        # the rounding margin is small: identical columns put s_12 at
        # s_11 = s_22, within a few ulps below the bound
        x = np.repeat(np.arange(8.0)[:, None] / 3.0, 2, axis=1)
        s = summarize(validate_dataset(x, [1, 1, 1, 1, 2, 2, 2, 2])).pooled_cov
        bound = diagonal_screen(np.diag(s), 8)
        assert s[0, 1] == s[0, 0] <= bound <= s[0, 0] * (1.0 + 1e-13)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_variances_never_pass(self, bad):
        assert diagonal_screen(np.array([1.0, bad, 2.0]), 10) == math.inf

    def test_two_largest_variances(self):
        bound = diagonal_screen(np.array([4.0, 1.0, 9.0, 0.0]), 10)
        assert 6.0 < bound <= 6.0 * (1.0 + 1e-12)

    def test_requires_two_features(self):
        with pytest.raises(DomainError, match="p >= 2"):
            diagonal_screen(np.array([1.0]), 10)


class TestThresholdDelta:
    def test_basic(self):
        out = threshold_delta(np.array([0.5, -0.1, 0.3]), 0.2)
        assert np.array_equal(out, [0.5, 0.0, 0.3])
        assert np.count_nonzero(out) == 2
        assert np.array_equal(np.flatnonzero(out), [0, 2])

    def test_zero_threshold_keeps_exact_zeros_out(self):
        out = threshold_delta(np.array([0.5, 0.0, -0.3]), 0.0)
        assert np.array_equal(out, [0.5, 0.0, -0.3])
        assert np.count_nonzero(out) == 2

    def test_all_below_gives_empty(self):
        out = threshold_delta(np.array([0.1, -0.05]), 0.2)
        assert np.count_nonzero(out) == 0
        assert not np.any(out)

    def test_monotone(self, rng):
        d = rng.standard_normal(40)
        prev = None
        for a in (0.0, 0.3, 0.8, 2.0):
            kept = set(np.flatnonzero(threshold_delta(d, a)).tolist())
            if prev is not None:
                assert kept <= prev
            prev = kept


class TestInvertSparseSym:
    def test_identity(self):
        # I as its (p,) diagonal; the thresholded matrix takes potrf
        t = threshold_covariance(np.eye(4), 0.5)
        op = invert_sparse_sym(np.diagonal(t))
        assert op.kind == "diagonal" and op.pd_flag and op.floor_count == 0
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(spd_solve(op, v), v, rtol=1e-14)
        assert invert_sparse_sym(t).kind == "cholesky"
        assert bits_equal(spd_solve(invert_sparse_sym(t), v), spd_solve(op, v))

    def test_near_singular_closed_form(self):
        # [[1, rho], [rho, 1]]^{-1} first column = (1, -rho)/(1 - rho^2)
        rho = 0.999
        t = threshold_covariance(np.array([[1.0, rho], [rho, 1.0]]), 0.0)
        op = invert_sparse_sym(t)
        assert op.kind == "cholesky"
        got = spd_solve(op, np.array([1.0, 0.0]))
        denom = 1.0 - rho * rho
        assert np.allclose(got, [1.0 / denom, -rho / denom], rtol=1e-9)
        assert got[0] == pytest.approx(500.25, abs=1e-2)
        assert got[1] == pytest.approx(-499.75, abs=1e-2)

    def test_indefinite_falls_back_to_floor(self):
        t = threshold_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)
        op = invert_sparse_sym(t)
        assert op.kind == "eigen_floor"
        assert not op.pd_flag
        assert op.floor_count == 1  # eigenvalue -1 floored
        # still linear
        v1, v2 = np.array([1.0, 0.0]), np.array([0.5, -2.0])
        assert np.allclose(spd_solve(op, v1 + v2), spd_solve(op, v1) + spd_solve(op, v2),
                           rtol=1e-12)

    def test_nonpositive_matrix_unusable(self):
        with pytest.raises(UnusableMatrixError):
            invert_sparse_sym(np.diag([-1.0, -2.0]))

    def test_degenerate_diagonal_recorded(self):
        op = invert_sparse_sym(np.array([2.0, 1e-18]))
        # a positive diagonal factors in O(p), however ill-conditioned;
        # the pd flag records it
        assert op.kind == "diagonal"
        assert op.pd_flag and op.floor_count == 0

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(DomainError, match="asymmetry"):
            invert_sparse_sym(np.array([[2.0, 0.5], [0.1, 2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        a = np.array([[2.0, 3.0], [3.0, 2.0]])  # indefinite: Cholesky fails
        a[where] = a[where[::-1]] = bad
        with pytest.raises(DomainError, match="NaN or Inf"):
            invert_sparse_sym(a)

    @pytest.mark.parametrize("kind", ["eigen_floor", "cholesky", "diagonal_floor"])
    def test_input_checked_once(self, kind, rng, monkeypatch):
        # cholesky_spd's one check serves the Cholesky attempt and the
        # eigen floor; each path gives what it gives on a matrix it checks
        # itself
        import slda.numerics as numerics

        sigma = {"eigen_floor": np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]]),
                 "cholesky": random_spd(rng, 5),
                 "diagonal_floor": np.array([3.0, 0.0, -1.0])}[kind]
        calls = []
        real = numerics._symmetrize

        def counted(a, what):
            calls.append(what)
            return real(a, what)

        monkeypatch.setattr(numerics, "_symmetrize", counted)
        op = invert_sparse_sym(sigma)
        assert calls == ["cholesky_spd"]
        b = rng.standard_normal(sigma.shape[0])
        if kind == "cholesky":
            assert op.kind == "cholesky"
            assert np.array_equal(spd_solve(op, b), spd_solve(cholesky_spd(sigma), b))
        elif kind == "eigen_floor":
            ref, floor_count = eigh_floor_solve(sigma, b, FLOOR_EPS)
            assert (op.kind, op.pd_flag, op.floor_count) == ("eigen_floor", False, floor_count)
            np.testing.assert_allclose(spd_solve(op, b), ref, rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(ref)))
        else:
            assert op.kind == "eigen_floor" and op.floor_count == 2 and op._vectors is None
            assert np.array_equal(op._inv_values, 1.0 / np.maximum(sigma, FLOOR_EPS * 3.0))

    @pytest.mark.parametrize("d", [[3.0, 0.0, 2.0, 0.0, 1e-12],
                                   [5.0, -1.0, 0.0, 4.0],
                                   [2.0, 1e-9, 0.0] * 40])
    def test_diagonal_floor_matches_dense_reference(self, rng, d):
        # a constant feature gives s_jj = 0: the floor runs on the (p,)
        # diagonal in O(p); the reference is the dense eigendecomposition
        sigma = np.diag(d)
        op = invert_sparse_sym(np.array(d))
        assert op.kind == "eigen_floor" and op._vectors is None
        values, v = eigh_descending(sigma)
        floor = FLOOR_EPS * values[0]
        assert not op.pd_flag
        assert op.floor_count == int(np.sum(values < floor))
        inv = 1.0 / np.maximum(values, floor)
        for b in (rng.standard_normal(len(d)), rng.standard_normal((len(d), 3))):
            ref = v @ ((inv if b.ndim == 1 else inv[:, None]) * (v.T @ b))
            np.testing.assert_allclose(spd_solve(op, b), ref, rtol=1e-12, atol=0.0)


    def test_eigen_floor_invariants_random(self, rng):
        # sytrd + stevd on an indefinite Sigma-tilde: solves within 1e-12
        # relative (infinity norm) of the eigh-floor reference, the same
        # floor_count, pd_flag False, and T's eigenvectors Z orthonormal
        for p in (2, 5, 30):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            a = (q * np.linspace(2.0, -1.0, p)) @ q.T
            a = 0.5 * (a + a.T)
            op = invert_sparse_sym(a)
            assert op.kind == "eigen_floor" and not op.pd_flag
            z = op._vectors
            assert np.max(np.abs(z.T @ z - np.eye(p))) <= 1e-10
            assert spd_solve(op, np.zeros((p, 0))).shape == (p, 0)
            for b in (rng.standard_normal(p), rng.standard_normal((p, 4))):
                ref, floor_count = eigh_floor_solve(a, b, FLOOR_EPS)
                assert op.floor_count == floor_count >= 1
                got = spd_solve(op, b)
                assert got.shape == b.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_tiny_positive_eigenvalues_are_floored(self, rng):
        # eigenvalues in (0, FLOOR_EPS * lambda_max) are floored with the
        # negative ones: 1e-9 and 1e-12 sit below the floor 2e-8
        values = np.array([2.0, 1.0, 1e-9, 1e-12, -0.5, -1.0])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = (q * values) @ q.T
        a = 0.5 * (a + a.T)
        op = invert_sparse_sym(a)
        b = rng.standard_normal(6)
        ref, floor_count = eigh_floor_solve(a, b, FLOOR_EPS)
        assert op.floor_count == floor_count == 4
        assert np.max(np.abs(spd_solve(op, b) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), m=st.sampled_from([None, 1, 3]))
    @example(signs=[-1.0], seed=0, m=None)
    @example(signs=[1.0], seed=0, m=2)
    @example(signs=[1.0, -1.0], seed=1, m=None)
    @example(signs=[-1.0, 1.0], seed=2, m=3)
    def test_eigen_floor_matches_eigh_reference(self, signs, seed, m):
        # eigenvalues of either sign, at least 1e-2 of the largest in size:
        # each is far from FLOOR_EPS * lambda_max, so the reference's
        # floor_count is not at the mercy of rounding. A spectrum with no
        # positive part is unusable; a positive one takes Cholesky.
        p, r = len(signs), np.random.default_rng(seed)
        values = np.array(signs) * r.uniform(0.01, 1.0, p)
        q, _ = np.linalg.qr(r.standard_normal((p, p)))
        a = (q * values) @ q.T
        a = 0.5 * (a + a.T)
        b = r.standard_normal(p if m is None else (p, m))
        if values.max() <= 0:
            with pytest.raises(UnusableMatrixError):
                invert_sparse_sym(a)
            return
        op = invert_sparse_sym(a)
        ref, floor_count = eigh_floor_solve(a, b, FLOOR_EPS)
        assert (op.pd_flag, op.floor_count) == (floor_count == 0, floor_count)
        assert op.kind == ("cholesky" if op.pd_flag else "eigen_floor")
        got = spd_solve(op, b)
        assert got.shape == b.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(2, 15), seed=st.integers(0, 2**32 - 1))
    def test_eigen_floor_permutation_equivariant(self, p, seed):
        # P A P' is A with its coordinates relabelled: its floored solve of
        # P b is P times the solve of b, its floor_count the same
        r = np.random.default_rng(seed)
        values = np.concatenate(([1.0, -0.5], r.uniform(-1.0, 1.0, p - 2)))
        q, _ = np.linalg.qr(r.standard_normal((p, p)))
        a = (q * values) @ q.T
        a = 0.5 * (a + a.T)
        perm = r.permutation(p)
        b = r.standard_normal((p, 2))
        op, op_perm = invert_sparse_sym(a), invert_sparse_sym(a[np.ix_(perm, perm)])
        assert op.kind == op_perm.kind == "eigen_floor"
        assert op.floor_count == op_perm.floor_count
        x = spd_solve(op, b)
        assert np.max(np.abs(spd_solve(op_perm, b[perm]) - x[perm])) <= 1e-12 * np.max(np.abs(x))

    def test_solves_leave_operator_unchanged(self, rng):
        # ormqr writes the unit diagonal of the stored reflectors during a
        # call and restores it: a second solve gives the first one's bits
        a = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.5, 0.5, 3.0]])
        op = invert_sparse_sym(a)
        stored = [x.copy() for x in (op._reflectors, op._tau, op._vectors, op._inv_values)]
        b = rng.standard_normal((3, 2))
        assert bits_equal(spd_solve(op, b), spd_solve(op, b))
        after = (op._reflectors, op._tau, op._vectors, op._inv_values)
        assert all(bits_equal(x, y) for x, y in zip(stored, after))

    def test_stevd_failure_is_numerical_error(self):
        stevd = numerics.dstevd

        def no_convergence(d, e):
            values, vectors, _ = stevd(d, e)
            return values, vectors, 1

        with mock.patch.object(numerics, "dstevd", side_effect=no_convergence):
            with pytest.raises(NumericalError, match="invert_sparse_sym.*stevd"):
                invert_sparse_sym(np.array([[1.0, 2.0], [2.0, 1.0]]))


OPERATOR_FIELDS = ("_factor", "_recip", "_vectors", "_inv_values", "_reflectors", "_tau")


def same_operator(op, ref) -> bool:
    """Same kind, dimension and flags, and the bits of every field."""
    return ((op.kind, op.dim, op.pd_flag, op.floor_count)
            == (ref.kind, ref.dim, ref.pd_flag, ref.floor_count)
            and all(bits_equal(getattr(op, f), getattr(ref, f))
                    if getattr(ref, f) is not None else getattr(op, f) is None
                    for f in OPERATOR_FIELDS))


def copied_floor(a):
    """Reference eigen floor parts of a matrix, as the floor built them
    from a Fortran copy: sytrd on f2py's copy, its reflectors copied out,
    stevd, and the floored inverse eigenvalues. Returns (reflectors, tau,
    vectors, inv_values)."""
    lwork, _ = dsytrd_lwork(a.shape[0], lower=1)
    c, diag, off, tau, _ = dsytrd(a, lower=1, lwork=int(lwork))
    values, vectors, _ = dstevd(diag, off)
    inv = 1.0 / np.maximum(values, FLOOR_EPS * float(values.max()))
    return np.asfortranarray(c[1:, :-1]), tau, vectors, inv


def nearly_symmetric(r, values, skew):
    """Q diag(values) Q' from its lower triangle, with the upper triangle
    scaled by 1 + U(-skew, skew) entry by entry."""
    p = len(values)
    q, _ = np.linalg.qr(r.standard_normal((p, p)))
    a = (q * values) @ q.T
    a = np.tril(a) + np.tril(a, -1).T
    a[np.triu_indices(p, 1)] *= 1.0 + skew * r.uniform(-1.0, 1.0, p * (p - 1) // 2)
    return a


class TestOverwriteA:
    @settings(max_examples=80, deadline=None)
    @given(signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=12),
           seed=st.integers(0, 2**32 - 1), skew=st.sampled_from([0.0, 1e-12, 5e-9]),
           layout=st.sampled_from(["C", "F", "strided"]), block=st.sampled_from([1, 2, 5, 64]))
    @example(signs=[1.0, -1.0], seed=0, skew=5e-9, layout="C", block=1)
    @example(signs=[-1.0, 1.0], seed=1, skew=0.0, layout="C", block=64)
    @example(signs=[1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0], seed=4, skew=5e-9, layout="C",
             block=2)
    @example(signs=[1.0, -1.0], seed=2, skew=5e-9, layout="F", block=64)
    @example(signs=[1.0, -1.0], seed=3, skew=1e-12, layout="strided", block=64)
    def test_in_place_matches_copy_bit_for_bit(self, signs, seed, skew, layout, block):
        # a signed spectrum, its upper triangle off by up to 5e-9 relative
        # (inside the 1e-8 the check accepts): overwrite_a gives the
        # default call's operator and solves bit for bit, in blocks of any
        # size, and a floor has the bits of sytrd on a Fortran copy. Only
        # the floor of a C-contiguous matrix works in its buffer; any
        # other input is left as it was.
        r = np.random.default_rng(seed)
        a = nearly_symmetric(r, np.array(signs) * r.uniform(0.01, 1.0, len(signs)), skew)
        if layout == "F":
            given = np.asfortranarray(a)
        elif layout == "strided":
            given = np.zeros((a.shape[0], 2 * a.shape[0]))[:, ::2]
            given[...] = a
        else:
            given = a.copy()
        if max(signs) < 0:
            for matrix in (a, given):
                with pytest.raises(UnusableMatrixError):
                    invert_sparse_sym(matrix, overwrite_a=True)
            return
        ref = invert_sparse_sym(a)
        with mock.patch.object(numerics, "_SYM_BLOCK", block):
            op = invert_sparse_sym(given, overwrite_a=True)
        assert same_operator(op, ref)
        if op.kind == "eigen_floor":
            parts = (op._reflectors, op._tau, op._vectors, op._inv_values)
            assert all(bits_equal(x, y) for x, y in zip(parts, copied_floor(a)))
        b = r.standard_normal((a.shape[0], 2))
        for rhs in (b, b[:, 0]):
            assert bits_equal(spd_solve(op, rhs), spd_solve(ref, rhs))
        in_place = layout == "C" and op.kind == "eigen_floor"
        assert np.shares_memory(given, op._reflectors) == in_place
        assert in_place or bits_equal(given, a)

    @pytest.mark.parametrize("kind, sigma", [
        ("diagonal", np.array([2.0, 0.5, 3.0])),
        ("eigen_floor", np.array([2.0, 0.0, -1.0])),
        ("cholesky", np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])),
        ("cholesky", np.array([[4.0]])),
        ("eigen_floor", np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])),
    ])
    @pytest.mark.parametrize("call", [lambda a: invert_sparse_sym(a),
                                      lambda a: invert_sparse_sym(a, overwrite_a=False)])
    def test_public_call_leaves_input_alone(self, kind, sigma, call):
        before = sigma.copy()
        op = call(sigma)
        assert op.kind == kind
        assert bits_equal(sigma, before)
        assert not any(np.shares_memory(sigma, getattr(op, f)) for f in OPERATOR_FIELDS
                       if getattr(op, f) is not None)


DIAGONALS = {
    "positive": [3.5, 0.25, 7.0, 1.0, 2.0],
    "zeros_and_negatives": [3.0, 0.0, -1.0, 2.0, 1e-12],
    "p1": [2.0],
}


class TestDiagonalVectorInput:
    # A (p,) vector d stands for diag(d): cholesky_spd and invert_sparse_sym
    # give the solves, factor, floor_count and pd_flag of the dense
    # np.diag(d), which takes potrf or sytrd + stevd, bit for bit.

    @staticmethod
    def assert_same_operator(op, ref, rng):
        assert (op.dim, op.pd_flag, op.floor_count) == (ref.dim, ref.pd_flag, ref.floor_count)
        for b in (rng.standard_normal(op.dim), rng.standard_normal((op.dim, 3))):
            assert bits_equal(spd_solve(op, b), spd_solve(ref, b))

    @pytest.mark.parametrize("d", DIAGONALS.values(), ids=DIAGONALS.keys())
    def test_invert_matches_dense(self, rng, d):
        op, ref = invert_sparse_sym(np.array(d)), invert_sparse_sym(np.diag(d))
        self.assert_same_operator(op, ref, rng)
        assert (op.kind, ref.kind) == (("diagonal", "cholesky") if min(d) > 0
                                       else ("eigen_floor", "eigen_floor"))
        if min(d) > 0:
            assert bits_equal(dense_lower(op), dense_lower(ref))

    @pytest.mark.parametrize("d", [DIAGONALS["positive"], DIAGONALS["p1"]], ids=["positive", "p1"])
    def test_cholesky_matches_dense(self, rng, d):
        op, ref = cholesky_spd(np.array(d)), cholesky_spd(np.diag(d))
        self.assert_same_operator(op, ref, rng)
        assert (op.kind, ref.kind) == ("diagonal", "cholesky")
        assert bits_equal(dense_lower(op), dense_lower(ref))
        assert bits_equal(op._factor, np.diagonal(dense_lower(ref)))

    def test_cholesky_pivot_matches_dense(self):
        d = np.array(DIAGONALS["zeros_and_negatives"])
        for a in (d, np.diag(d)):
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky_spd(a)
            assert err.value.pivot_index == 1

    def test_nonpositive_vector_unusable(self):
        with pytest.raises(UnusableMatrixError):
            invert_sparse_sym(np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("d", [[4.0, 9.0], [4.0, -1.0]], ids=["cholesky", "floor"])
    def test_vector_not_aliased(self, d):
        vector = np.array(d)
        op = invert_sparse_sym(vector)
        vector[0] = 100.0
        assert spd_solve(op, np.array([4.0, 0.0]))[0] == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        d = np.array([1.0, bad, -2.0])
        for fn in (cholesky_spd, invert_sparse_sym):
            with pytest.raises(DomainError, match="NaN or Inf"):
                fn(d)

    @pytest.mark.parametrize("shape", [(0,), (2, 2, 2), ()], ids=["empty", "3d", "scalar"])
    def test_bad_shape_rejected(self, shape):
        for fn in (cholesky_spd, invert_sparse_sym):
            with pytest.raises(ShapeError):
                fn(np.ones(shape))


class TestPseudoInverse:
    # pinv_solve applies S^+ of S = C'C / n from pooled_spectrum, the thin
    # SVD of the centred rows C, so each case is given by its C

    def test_diagonal_with_null_direction(self):
        # C'C / 2 = diag(2, 0) exactly
        centered = np.array([[2.0, 0.0], [0.0, 0.0]])
        w = pinv_solve(*pooled_spectrum(centered), np.array([1.0, 1.0]))
        assert np.allclose(w, [0.5, 0.0])
        assert w[1] == 0.0

    def test_identity(self):
        # C'C / 4 = I exactly: every eigenvalue is 1 and nothing is cut
        centered = np.vstack([2.0 * np.eye(3), np.zeros(3)])
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(pinv_solve(*pooled_spectrum(centered), v), v, rtol=1e-14)

    def test_moore_penrose_property_rank_deficient(self, rng):
        # singular S from n = 5 draws in p = 10 dimensions
        x = rng.standard_normal((5, 10))
        xc = x - x.mean(axis=0)
        s = pooled_covariance(xc)
        s_pinv = np.column_stack([pinv_solve(*pooled_spectrum(xc), e) for e in np.eye(10)])
        assert np.linalg.norm(s @ s_pinv @ s - s) <= 1e-8 * np.linalg.norm(s)
        assert np.linalg.norm(s_pinv @ s @ s_pinv - s_pinv) <= 1e-8 * np.linalg.norm(s_pinv)
        assert np.allclose(s_pinv, s_pinv.T, rtol=0, atol=1e-12 * np.abs(s_pinv).max())

    def test_all_zero_gives_zero_operator(self):
        w = pinv_solve(*pooled_spectrum(np.zeros((4, 3))), np.ones(3))
        assert w.shape == (3,) and not np.any(w)

    @pytest.mark.parametrize("exponent, kept", [(-25, True), (-26, False)])
    def test_cut_is_p_eps_relative(self, exponent, kept):
        # p = 2, lambda = (1, a^2) / 2: a^2 = 4 eps clears the cut at
        # p eps lambda_max, a^2 = eps does not
        a = 2.0 ** exponent
        w = pinv_solve(*pooled_spectrum(np.array([[1.0, 0.0], [0.0, a]])), np.array([1.0, 1.0]))
        assert w[0] == pytest.approx(2.0, rel=1e-15)
        assert (w[1] != 0.0) == kept
        if kept:
            assert w[1] == pytest.approx(2.0 / a ** 2, rel=1e-12)

    @pytest.mark.parametrize("bad, message", [(math.inf, "NaN or Inf"), (-math.inf, "NaN or Inf"),
                                              (math.nan, "NaN or Inf"), (1e200, "overflows")])
    def test_non_finite_covariance_rejected(self, bad, message):
        # a non-finite centred row (LAPACK's SVD may not return on an Inf),
        # or a finite one whose square overflows
        centered = np.array([[bad, 1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, -3.0, 1.0]])
        with pytest.raises(DomainError, match=message):
            pooled_spectrum(centered)

    def test_svd_failure_is_numerical_error(self):
        with mock.patch.object(estimation.np.linalg, "svd",
                               side_effect=np.linalg.LinAlgError("SVD did not converge")):
            with pytest.raises(NumericalError, match="pooled_spectrum"):
                pooled_spectrum(np.eye(3))

    @pytest.mark.parametrize("n, p", [(8, 30), (40, 12)], ids=["wide", "tall"])
    def test_spectrum_is_eigvalsh_of_s(self, rng, n, p):
        # lam, descending, is S's spectrum on its row space, and the rest
        # of eigvalsh(S) is rounding noise about 0
        centered = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p)
        centered -= centered.mean(axis=0)
        lam, vt = pooled_spectrum(centered)
        ref = np.linalg.eigvalsh(pooled_covariance(centered))[::-1]
        tol = 1e-12 * ref[0]
        assert lam.shape == (min(n, p),) and vt.shape == (min(n, p), p)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.allclose(lam, ref[:lam.size], rtol=0.0, atol=tol)
        assert np.all(np.abs(ref[lam.size:]) <= tol)
        assert np.allclose(vt @ vt.T, np.eye(lam.size), rtol=0.0, atol=1e-12)
class TestOperatorNormConsistency:
    def test_error_shrinks_with_n(self):
        # tridiagonal truth at p = 200; the thresholded estimator's
        # spectral error at n = 800 beats n = 100 (median of 20 seeds)
        p = 200
        sigma = np.eye(p) + 0.3 * (np.eye(p, k=1) + np.eye(p, k=-1))
        factor = cholesky_spd(sigma)
        mu1 = np.zeros(p)
        mu1[0] = 1.0

        def median_error(n, seed_base):
            errs = []
            for rep in range(20):
                gen = substream(909 + seed_base, rep)
                x1 = sample_mvn(mu1, factor, gen, size=n // 2)
                x2 = sample_mvn(np.zeros(p), factor, gen, size=n // 2)
                s = summarize(two_class_dataset(x1, x2)).pooled_cov
                t_n = compute_tn(1.0, n, p)
                diff = threshold_covariance(s, t_n) - sigma
                errs.append(np.max(np.abs(np.linalg.eigvalsh(diff))))
            return float(np.median(errs))

        assert median_error(800, 1) < median_error(100, 2)
