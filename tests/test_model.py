"""Dataset validation, population invariants and rule semantics."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import two_class_dataset
from slda.errors import DataError, DomainError, NotPositiveDefiniteError, ShapeError
from slda.model import (
    LinearRule,
    PopulationSpec,
    ThresholdConfig,
    validate_dataset,
)


class TestValidateDataset:
    def test_valid_two_class(self):
        ds = validate_dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 3.0]],
                              [1, 1, 2, 2])
        assert ds.class_counts == (2, 2)
        assert ds.n == 4 and ds.p == 2 and ds.n_classes == 2

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match=">= 2 classes"):
            validate_dataset([[0.0], [1.0], [2.0]], [1, 1, 1])

    def test_nan_cell_names_position(self):
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, column 1"):
            validate_dataset(x, [1, 1, 2, 2])

    def test_inf_cell_rejected(self):
        x = np.ones((4, 2))
        x[0, 0] = np.inf
        with pytest.raises(DataError):
            validate_dataset(x, [1, 1, 2, 2])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            validate_dataset([[1.0, 2.0], [1.0], [2.0, 2.0], [3.0, 3.0]], [1, 1, 2, 2])

    def test_label_below_one_rejected(self):
        with pytest.raises(DataError, match="outside 1..K"):
            validate_dataset(np.ones((4, 2)), [0, 1, 1, 2])

    @pytest.mark.parametrize("label, shown", [(2**53, "9007199254740992"), (6, "6"),
                                              (np.inf, "inf"), (1e300, "1e+300")])
    def test_label_above_n_rejected(self, label, shown):
        # a label above n cannot be a class with >= 2 samples; it is named
        # before any count of classes 1..label is made
        labels = np.array([1, 1, 2, 2, label], dtype=type(label))
        with pytest.raises(DataError, match=re.escape(f"label {shown} at row 4 exceeds n=5")):
            validate_dataset(np.ones((5, 2)), labels)

    def test_label_equal_to_n_reaches_class_count(self):
        with pytest.raises(DataError, match="class 2 has 0"):
            validate_dataset(np.ones((4, 2)), [1, 1, 4, 4])

    def test_missing_intermediate_class_rejected(self):
        with pytest.raises(DataError, match="class 2 has 0"):
            validate_dataset(np.arange(8.0).reshape(4, 2), [1, 1, 3, 3])

    def test_small_class_rejected(self):
        with pytest.raises(DataError, match="class 2 has 1"):
            validate_dataset(np.arange(10.0).reshape(5, 2), [1, 1, 1, 1, 2])

    def test_drop_updates_counts(self):
        ds = validate_dataset(np.arange(12.0).reshape(6, 2), [1, 1, 1, 2, 2, 2])
        sub = ds.drop(0)
        assert sub.class_counts == (2, 3)
        assert sub.n == 5
        with pytest.raises(DataError):
            sub.drop(0)  # class 1 would fall below 2


class TestPopulationSpec:
    def test_equal_means_rejected(self):
        mu = np.zeros((2, 3))
        with pytest.raises(DomainError):
            PopulationSpec(means=mu, covariance=np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_means_rejected(self, bad):
        mu = np.array([[1.0, bad, 0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            PopulationSpec(means=mu, covariance=np.eye(3))
        with pytest.raises(DomainError, match="finite"):
            PopulationSpec(means=mu[::-1], covariance=np.eye(3))

    def test_covariance_matrix_or_diagonal_vector(self):
        mu = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        vector = PopulationSpec(means=mu, covariance=np.array([1.0, 2.0, 3.0]))
        matrix = PopulationSpec(means=mu, covariance=np.diag([1.0, 2.0, 3.0]))
        assert (vector.chol.kind, matrix.chol.kind) == ("diagonal", "cholesky")
        for bad in (np.ones(2), np.ones(4), np.eye(2), np.ones((3, 2)), np.ones((1, 3)), 1.0):
            with pytest.raises(ShapeError, match="covariance shape"):
                PopulationSpec(means=mu, covariance=bad)

    def test_non_spd_covariance_fails_on_factor(self):
        pop = PopulationSpec(means=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            pop.chol

    def test_student_t_needs_df(self):
        with pytest.raises(DomainError):
            PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.eye(1),
                           distribution="student_t")

    @pytest.mark.parametrize("df", [2.5, True, 0, -3, math.inf, math.nan, "3"])
    def test_student_t_df_must_be_an_integer(self, df):
        # a df of 2.5 (or True) was accepted: the training rows were drawn
        # with df truncated to 2 (or 1), the Monte Carlo rates with 2.5
        with pytest.raises(DomainError, match="df must be an integer >= 1"):
            PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.ones(1),
                           distribution="student_t", df=df)

    @pytest.mark.parametrize("df", [1, 3, np.int64(3), 3.0])
    def test_student_t_integer_df_accepted(self, df):
        pop = PopulationSpec(means=np.array([[1.0], [0.0]]), covariance=np.ones(1),
                             distribution="student_t", df=df)
        assert pop.df == df

    def test_delta_and_mid(self):
        pop = PopulationSpec(means=np.array([[2.0, 0.0], [0.0, 2.0]]),
                             covariance=np.eye(2))
        assert np.array_equal(pop.delta, [2.0, -2.0])
        assert np.array_equal(pop.mid, [1.0, 1.0])


class TestLinearRule:
    def test_scale_invariance_of_labels(self, rng):
        from slda.classify import classify_many

        p = 6
        w = rng.standard_normal(p)
        c = rng.standard_normal()
        probes = rng.standard_normal((500, p))
        base = classify_many(LinearRule(weights=w, cutoff=c), probes)
        for s in (1e-6, 3.0, 1e6):
            scaled = classify_many(LinearRule(weights=s * w, cutoff=s * c), probes)
            assert np.array_equal(base, scaled)

    def test_degenerate_flag_semantics(self):
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0)
        from slda.classify import classify

        assert classify(rule, np.array([5.0, -1.0, 2.0])) == 1

    @settings(max_examples=200, deadline=None)
    @given(w=arrays(float, st.integers(1, 6),
                    elements=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1.0]), st.floats())),
           cutoff=st.floats(allow_nan=False))
    @example(w=np.zeros(3), cutoff=0.0)
    @example(w=np.array([-0.0, 0.0, -0.0]), cutoff=1.0)
    @example(w=np.array([0.0, -5e-324]), cutoff=0.0)
    @example(w=np.array([1.0, -2.0]), cutoff=0.5)
    def test_degenerate_is_read_off_the_weights(self, w, cutoff):
        rule = LinearRule(weights=w, cutoff=cutoff)
        assert rule.degenerate == (not w.any())
        assert type(rule.degenerate) is bool

    def test_degenerate_cannot_be_set(self):
        # a rule flagged degenerate whose weights label by w'x >= c would
        # get a rate of 1/2 from conditional_rate and a model file that
        # read_model rejects
        assert [f.name for f in dataclasses.fields(LinearRule)] == ["weights", "cutoff"]
        with pytest.raises(TypeError):
            LinearRule(weights=np.array([1.0, -2.0]), cutoff=0.5, degenerate=True)
        rule = LinearRule(weights=np.array([1.0, -2.0]), cutoff=0.5)
        with pytest.raises(AttributeError):
            rule.degenerate = True
        assert not rule.degenerate


class TestThresholdConfig:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1, 0.7])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            ThresholdConfig(m1=1.0, m2=1.0, alpha=alpha)

    def test_negative_constants_rejected(self):
        with pytest.raises(DomainError):
            ThresholdConfig(m1=-1.0, m2=0.0, alpha=0.3)
        with pytest.raises(DomainError):
            ThresholdConfig(m1=0.0, m2=np.inf, alpha=0.3)

    def test_zero_constants_allowed(self):
        cfg = ThresholdConfig(m1=0.0, m2=0.0, alpha=0.3)
        assert cfg.m1 == 0.0


class TestCsvRoundTrip:
    def test_bit_identical(self, rng, tmp_path):
        from conftest import write_dataset_csv
        from slda.io import read_dataset_csv

        x1 = rng.standard_normal((5, 4)) * np.pi
        x2 = rng.standard_normal((4, 4)) / 3.0
        ds = two_class_dataset(x1, x2)
        path = tmp_path / "round.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        # a second write is byte-identical
        path2 = tmp_path / "round2.csv"
        write_dataset_csv(path2, back)
        assert path.read_bytes() == path2.read_bytes()
