"""Sample statistics, hard thresholds and inverse strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_spd, two_class_dataset
from slda.errors import DomainError, UnusableMatrixError
from slda.estimation import (
    FLOOR_EPS,
    compute_an,
    compute_tn,
    invert_sparse_sym,
    nnz_offdiag,
    pseudo_inverse_sym,
    summarize,
    threshold_covariance,
    threshold_delta,
)
from slda.model import validate_dataset
from slda.numerics import cholesky_spd, eigen_sym, sample_mvn, spd_solve, substream


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


class TestThresholdDelta:
    def test_basic(self):
        out = threshold_delta(np.array([0.5, -0.1, 0.3]), 0.2)
        assert np.array_equal(out.vector, [0.5, 0.0, 0.3])
        assert out.q_hat == 2
        assert np.array_equal(out.kept, [0, 2])

    def test_zero_threshold_keeps_exact_zeros_out(self):
        out = threshold_delta(np.array([0.5, 0.0, -0.3]), 0.0)
        assert np.array_equal(out.vector, [0.5, 0.0, -0.3])
        assert out.q_hat == 2

    def test_all_below_gives_empty(self):
        out = threshold_delta(np.array([0.1, -0.05]), 0.2)
        assert out.q_hat == 0
        assert not np.any(out.vector)

    def test_monotone(self, rng):
        d = rng.standard_normal(40)
        prev = None
        for a in (0.0, 0.3, 0.8, 2.0):
            kept = set(threshold_delta(d, a).kept.tolist())
            if prev is not None:
                assert kept <= prev
            prev = kept


class TestInvertSparseSym:
    def test_identity(self):
        t = threshold_covariance(np.eye(4), 0.5)
        op = invert_sparse_sym(t)
        assert op.kind == "diagonal" and op.pd_flag and op.floor_count == 0
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.allclose(spd_solve(op, v), v, rtol=1e-14)

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
        op = invert_sparse_sym(np.diag([2.0, 1e-18]))
        # a positive diagonal factors in O(p), however ill-conditioned;
        # the pd flag records it
        assert op.kind == "diagonal"
        assert op.pd_flag and op.floor_count == 0

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(DomainError, match="asymmetry"):
            invert_sparse_sym(np.array([[2.0, 0.5], [0.1, 2.0]]))

    @pytest.mark.parametrize("d", [[3.0, 0.0, 2.0, 0.0, 1e-12],
                                   [5.0, -1.0, 0.0, 4.0],
                                   [2.0, 1e-9, 0.0] * 40])
    def test_diagonal_floor_matches_dense_reference(self, rng, d):
        # a constant feature gives s_jj = 0: the floor runs on the diagonal
        # in O(p); the reference is the dense eigendecomposition it replaces
        sigma = np.diag(d)
        op = invert_sparse_sym(sigma)
        assert op.kind == "eigen_floor" and op.diagonal is not None
        eig = eigen_sym(sigma)
        floor = FLOOR_EPS * eig.eigenvalues[0]
        assert not op.pd_flag
        assert op.floor_count == int(np.sum(eig.eigenvalues < floor))
        inv = 1.0 / np.maximum(eig.eigenvalues, floor)
        v = eig.eigenvectors
        for b in (rng.standard_normal(len(d)), rng.standard_normal((len(d), 3))):
            ref = v @ ((inv if b.ndim == 1 else inv[:, None]) * (v.T @ b))
            np.testing.assert_allclose(spd_solve(op, b), ref, rtol=1e-12, atol=0.0)


class TestPseudoInverse:
    def test_diagonal_with_null_direction(self):
        op = pseudo_inverse_sym(np.diag([2.0, 0.0]), rtol=1e-12)
        assert np.allclose(spd_solve(op, np.array([1.0, 1.0])), [0.5, 0.0])
        assert op.floor_count == 1

    def test_identity(self):
        op = pseudo_inverse_sym(np.eye(3), rtol=1e-12)
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(spd_solve(op, v), v, rtol=1e-14)

    def test_moore_penrose_property_rank_deficient(self, rng):
        # singular S from n = 5 draws in p = 10 dimensions
        x = rng.standard_normal((5, 10))
        xc = x - x.mean(axis=0)
        s = xc.T @ xc / 5
        s = 0.5 * (s + s.T)
        op = pseudo_inverse_sym(s, rtol=1e-10)
        s_pinv = spd_solve(op, np.eye(10))
        assert np.linalg.norm(s @ s_pinv @ s - s) <= 1e-8 * np.linalg.norm(s)

    def test_all_zero_gives_zero_operator(self):
        op = pseudo_inverse_sym(np.zeros((3, 3)), rtol=1e-12)
        assert op.floor_count == 3
        assert not np.any(spd_solve(op, np.ones(3)))


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
