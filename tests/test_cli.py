"""End-to-end command-line behavior: file outputs, exit codes,
determinism across reruns and thread counts."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (eigh_pseudo_inverse_lda, summarize, two_class_dataset, write_dataset_csv,
                      write_matrix)
from slda.cli import _FLAGS, REQUIRED, _merge_config, build_parser, main
from slda.io import read_model
from slda.evaluate import optimal_rate
from slda.model import PopulationSpec
from slda.simulate import REPLICATE_COLUMNS, read_scenario


@pytest.fixture
def separable_csv(tmp_path, rng):
    x1 = np.column_stack([6.0 + 0.05 * rng.standard_normal(6), rng.standard_normal(6)])
    x2 = np.column_stack([-6.0 + 0.05 * rng.standard_normal(6), rng.standard_normal(6)])
    path = tmp_path / "train.csv"
    write_dataset_csv(path, two_class_dataset(x1, x2))
    return path


@pytest.fixture(params=[
    [[1e200, 0.5], [-1e200, -1.0], [3e200, 0.25]],   # the centred squares reach 4e400
    [[1.7e308, 0.5], [1.7e308, -1.0], [0.0, 0.25]],  # the class sum reaches 3.4e308
], ids=["gram", "class_sum"])
def overflowing_csv(request, tmp_path):
    # finite cells whose pooled covariance overflows
    path = tmp_path / "overflow.csv"
    write_dataset_csv(path, two_class_dataset(request.param,
                                              [[0.5, 1.0], [-0.5, 2.0], [1.0, 0.0]]))
    return path


class TestOverflowingCovariance:
    @pytest.mark.parametrize("command", [
        ["cv"],
        ["fit", "--m1", "0.3", "--m2", "0"],
        ["diagnose"],
    ], ids=["cv_default_grids", "fit", "diagnose_train"])
    def test_exits_2_without_numpy_warnings(self, overflowing_csv, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(command + ["--train", str(overflowing_csv), "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error [{command[0]}]: ")
        assert not out.exists()


    @pytest.mark.parametrize("command", [
        ["fit", "--m1", "0.3", "--m2", "0"],
        ["cv", "--grid-m1", "0.3", "--grid-m2", "0"],
    ], ids=["fit", "cv_given_grid"])
    def test_class_sum_overflow_names_the_class(self, tmp_path, capsys, command):
        # failed at the parent: fit named only cholesky_spd's NaN or Inf
        # input, and cv exited 0 with forced_worst 1 and the score 1.0
        path = tmp_path / "overflow.csv"
        write_dataset_csv(path, two_class_dataset([[0.5, 1.0], [-0.5, 2.0], [1.0, 0.0]],
                                                  [[0.5, 1.0], [0.25, 1.7e308], [1.0, 1.7e308]]))
        out = tmp_path / "out.txt"
        assert main(command + ["--train", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error [{command[0]}]: class 2 mean of feature 2 "
                                           "is not finite: the class sum overflows\n")
        assert not out.exists()


class TestFit:
    def test_fit_writes_model_and_report(self, separable_csv, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code = main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)])
        assert code == 0
        out = capsys.readouterr().out
        assert "q_hat" in out
        rule, meta = read_model(model)
        assert rule.p == 2
        assert int(meta["q_hat"]) <= 2

    def test_huge_m2_warns_but_succeeds(self, separable_csv, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code = main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "1e9",
                     "--out", str(model)])
        assert code == 0
        err = capsys.readouterr().err
        assert "class 1" in err
        rule, _ = read_model(model)
        assert rule.degenerate

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["fit", "--train", str(tmp_path / "nope.csv"), "--m1", "1",
                     "--m2", "1", "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_bad_alpha_exits_2(self, separable_csv, tmp_path):
        code = main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "1",
                     "--alpha", "0.6", "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_label_above_n_exits_2(self, tmp_path, capsys):
        # 2**53 is the largest label the reader admits; counting classes up
        # to it would ask for 64 PiB
        train = tmp_path / "train.csv"
        train.write_text("f1,class\n1,1\n2,1\n3,2\n4,2\n5,9007199254740992\n",
                         encoding="utf-8")
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(train), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)]) == 2
        assert "label 9007199254740992 at row 4 exceeds n=5" in capsys.readouterr().err
        assert not model.exists()


    def test_peak_is_the_table_and_its_features(self, tmp_path, capsys):
        # the reader streams the CSV into one loadtxt pass and the rows are
        # centred in one array, so fit and predict hold no list of row
        # strings and no per-class copy: the traced peak is the table, the
        # features cut from it and little more (2.2 tables, 4.7 when the
        # lines were read into a list). p = 2000 at a screened M1 keeps
        # the test under a second.
        p = 2000
        gen = np.random.default_rng(11)
        train, model = tmp_path / "train.csv", tmp_path / "model.txt"
        write_dataset_csv(train, two_class_dataset(gen.standard_normal((47, p)) + 0.5,
                                                   gen.standard_normal((25, p))))
        table_bytes = 72 * (p + 1) * 8
        for command in (["fit", "--train", str(train), "--m1", "1e7", "--m2", "0.5",
                         "--out", str(model)],
                        ["predict", "--model", str(model), "--test", str(train),
                         "--out", str(tmp_path / "predictions.csv")]):
            tracemalloc.start()
            try:
                code = main(command)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and peak < 2.5 * table_bytes, (command[0], peak / table_bytes)

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # features constant within each class give S = 0, which has no
        # positive part to invert once M2 = 0.1 keeps a component of delta
        train, model = tmp_path / "flat.csv", tmp_path / "model.txt"
        write_dataset_csv(train, two_class_dataset(np.tile([1.0, 2.0, -1.0], (5, 1)),
                                                   np.tile([0.0, 2.5, 1.0], (4, 1))))
        assert main(["fit", "--train", str(train), "--m1", "1", "--m2", "0.1",
                     "--out", str(model)]) == 3
        assert capsys.readouterr().err == ("numerical failure [fit]: thresholded covariance has "
                                           "no positive part (lambda_max=0.000e+00)\n")
        assert not model.exists()


class TestPredict:
    def test_round_trip_labels(self, separable_csv, tmp_path):
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(separable_csv),
                     "--out", str(pred)]) == 0
        lines = pred.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "predicted,score"
        labels = [int(row.split(",")[0]) for row in lines[1:]]
        scores = [float(row.split(",")[1]) for row in lines[1:]]
        assert labels == [1] * 6 + [2] * 6
        for lab, sc in zip(labels, scores):
            assert (lab == 1) == (sc >= 0)

    def test_single_row(self, separable_csv, tmp_path):
        model = tmp_path / "model.txt"
        main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
              "--out", str(model)])
        single = tmp_path / "one.csv"
        single.write_text("f1,f2\n5.5,0.1\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(single),
                     "--out", str(pred)]) == 0
        assert len(pred.read_text(encoding="utf-8").strip().splitlines()) == 2

    def test_tie_row_goes_to_class_one(self, tmp_path):
        # w'x = c exactly on the first row: score 0, label 1
        model = tmp_path / "model.txt"
        model.write_text("slda-model v1\np 2\nalpha 0.3\nm1 1\nm2 1\nc 3\n"
                         "degenerate 0\nweights\n2\n-1\n", encoding="utf-8")
        test = tmp_path / "test.csv"
        test.write_text("f1,f2\n2,1\n1,0\n4,0\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(test),
                     "--out", str(pred)]) == 0
        assert pred.read_text(encoding="utf-8").splitlines() == [
            "predicted,score", "1,0", "2,-1", "1,5"]

    def test_dimension_mismatch_exits_2(self, separable_csv, tmp_path):
        model = tmp_path / "model.txt"
        main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
              "--out", str(model)])
        wide = tmp_path / "wide.csv"
        wide.write_text("f1,f2,f3\n1,2,3\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--test", str(wide),
                     "--out", str(tmp_path / "p.csv")]) == 2


    @pytest.mark.parametrize("body, message", [("1,2\n3,nan\n", "row 1, column 1"),
                                               ("inf,2\n", "row 0, column 0"),
                                               ("1,2\n3\n", "line 3 has 1 fields")])
    def test_bad_test_rows_exit_2(self, separable_csv, tmp_path, capsys, body, message):
        model = tmp_path / "model.txt"
        main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
              "--out", str(model)])
        test = tmp_path / "test.csv"
        test.write_text("f1,f2\n" + body, encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(test),
                     "--out", str(pred)]) == 2
        assert message in capsys.readouterr().err
        assert not pred.exists()

    def test_non_finite_model_exits_2(self, separable_csv, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("slda-model v1\np 2\nalpha 0.3\nm1 1\nm2 1\nc inf\n"
                         "degenerate 0\nweights\nnan\n1.0\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(separable_csv),
                     "--out", str(pred)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not pred.exists()

    def test_overflowing_score_exits_2(self, tmp_path, capsys):
        # finite cells whose score w'x overflows past the float range
        model = tmp_path / "model.txt"
        model.write_text("slda-model v1\np 2\nalpha 0.3\nm1 1\nm2 1\nc 0\n"
                         "degenerate 0\nweights\n2\n2\n", encoding="utf-8")
        test = tmp_path / "test.csv"
        test.write_text("f1,f2\n1,1\n1e308,-1e308\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(test),
                     "--out", str(pred)]) == 2
        assert "row 1 has a non-finite score" in capsys.readouterr().err
        assert not pred.exists()


class TestHostileCsv:
    # each names its file line; the label cases apply to fit only, since
    # predict never parses a class column
    FEATURE_CASES = {
        "ragged_after_blank": ("1,2,1\n\n3,1\n", "line 4 has 2 fields, header has 3"),
        "non_numeric_after_blank": ("1,2,1\n\n3,x,1\n",
                                    "line 4: could not convert string to float: 'x'"),
        "hash_is_not_a_comment": ("1,2,1\n3 # c,4,2\n",
                                  "line 3: could not convert string to float: '3 # c'"),
        "header_only": ("", "no data rows"),
    }
    LABEL_CASES = {
        "label_1.0": ("1,2,1\n3,4,1.0\n", "line 3: invalid literal for int()"),
        "label_nan": ("1,2,1\n\n3,4,nan\n", "line 4: invalid literal for int()"),
        "label_empty": ("1,2,1\n3,4,\n", "line 3: invalid literal for int()"),
    }

    @pytest.mark.parametrize("body, message", [*FEATURE_CASES.values(), *LABEL_CASES.values()],
                             ids=[*FEATURE_CASES, *LABEL_CASES])
    def test_fit_exits_2(self, tmp_path, capsys, body, message):
        train = tmp_path / "train.csv"
        train.write_text("f1,f2,class\n" + body, encoding="utf-8")
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(train), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)]) == 2
        assert f"{train}: {message}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("body, message", FEATURE_CASES.values(), ids=FEATURE_CASES)
    def test_predict_exits_2(self, separable_csv, tmp_path, capsys, body, message):
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)]) == 0
        test = tmp_path / "test.csv"
        test.write_text("f1,f2,class\n" + body, encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--test", str(test),
                     "--out", str(pred)]) == 2
        assert f"{test}: {message}" in capsys.readouterr().err
        assert not pred.exists()


class TestCv:
    def test_single_point_grid(self, separable_csv, tmp_path, capsys):
        surface = tmp_path / "surface.csv"
        code = main(["cv", "--train", str(separable_csv), "--grid-m1", "1.0",
                     "--grid-m2", "0.5", "--out", str(surface)])
        assert code == 0
        lines = surface.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "m1,m2,loocv_rate"
        assert len(lines) == 2
        out = capsys.readouterr().out
        assert "best_score 0" in out

    def test_deterministic_across_threads(self, separable_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["cv", "--train", str(separable_csv), "--grid-m1", "0.5,1.5",
              "--grid-m2", "0.5,2.0", "--threads", "1", "--out", str(a)])
        main(["cv", "--train", str(separable_csv), "--grid-m1", "0.5,1.5",
              "--grid-m2", "0.5,2.0", "--threads", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threads_byte_identical_and_forced_count(self, tmp_path, capsys):
        # p > n: M1 = 0.64 takes the eigen_floor path at every fold, M1 = 50
        # the diagonal one. Features constant within each class give S = 0,
        # so the refit fails wherever delta keeps a component (M2 = 0.1):
        # those two points are forced, and M2 = 1e9 (degenerate) is not
        gen = np.random.default_rng(7)
        x1 = gen.standard_normal((10, 30))
        x1[:, :3] += 1.5
        wide, flat = tmp_path / "wide.csv", tmp_path / "flat.csv"
        write_dataset_csv(wide, two_class_dataset(x1, gen.standard_normal((9, 30))))
        write_dataset_csv(flat, two_class_dataset(np.tile([1.0, 2.0, -1.0], (5, 1)),
                                                  np.tile([0.0, 2.5, 1.0], (4, 1))))
        for path, m2_grid, forced in ((wide, "0,1,1e9", 0), (flat, "0.1,1e9", 2)):
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"surface{threads}.csv"
                assert main(["cv", "--train", str(path), "--grid-m1", "0.64,50",
                             "--grid-m2", m2_grid, "--threads", threads,
                             "--out", str(out)]) == 0
                outs.append(out.read_bytes())
                assert f"forced_worst {forced}\n" in capsys.readouterr().out
            assert outs[0] == outs[1]
            assert outs[0].decode().count(",1\n") == forced

    # an empty value must not fall back to the data-driven grid, and an
    # empty item must not be dropped
    @pytest.mark.parametrize("flag, value", [("--grid-m1", ""), ("--grid-m1", " "),
                                             ("--grid-m1", "1,,2"), ("--grid-m2", "0.5,")])
    def test_empty_grid_item_exits_2(self, separable_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        argv = ["cv", "--train", str(separable_csv), "--out", str(out)]
        for key, text in {"--grid-m1": "1", "--grid-m2": "0.5", flag: value}.items():
            argv += [key, text]
        assert main(argv) == 2
        assert f"{flag} has an empty item" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_grid_value_exits_2(self, separable_csv, tmp_path, capsys):
        # failed at the parent: exit 0, with the nan point scored 1 and
        # counted in forced_worst
        out = tmp_path / "s.csv"
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "nan,1",
                     "--grid-m2", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error [cv]: M1 and M2 must be finite\n"
        assert not out.exists()

    # failed at the parent with explicit grids: exit 0, every point scored
    # 1 and counted in forced_worst, while the default grids exited 2
    @pytest.mark.parametrize("case", ["three_classes", "bad_alpha", "one_feature"])
    def test_bad_input_exits_2_with_or_without_grids(self, tmp_path, capsys, rng, case):
        path = tmp_path / "train.csv"
        alpha = []
        if case == "three_classes":
            x = rng.standard_normal((12, 2)).tolist()
            rows = "\n".join(f"{a!r},{b!r},{k}" for (a, b), k in zip(x, [1, 2, 3] * 4))
            path.write_text("f1,f2,class\n" + rows + "\n", encoding="utf-8")
        elif case == "one_feature":
            write_dataset_csv(path, two_class_dataset(rng.standard_normal((4, 1)),
                                                      rng.standard_normal((4, 1))))
        else:
            write_dataset_csv(path, two_class_dataset(rng.standard_normal((5, 2)),
                                                      rng.standard_normal((5, 2))))
            alpha = ["--alpha", "0.6"]
        errors = []
        for grids in ([], ["--grid-m1", "1,2", "--grid-m2", "0.5"]):
            out = tmp_path / "s.csv"
            assert main(["cv", "--train", str(path), "--out", str(out)] + alpha + grids) == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == {
            "three_classes": "error [cv]: leave-one-out cross-validation requires a two-class "
                             "dataset\n",
            "bad_alpha": "error [cv]: alpha must lie strictly inside (0, 1/2), got 0.6\n",
            "one_feature": "error [cv]: leave-one-out cross-validation requires p >= 2, "
                           "got 1\n"}[case]

    def test_small_class_exits_2(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        write_dataset_csv(path, two_class_dataset(rng.standard_normal((2, 2)),
                                                  rng.standard_normal((4, 2))))
        assert main(["cv", "--train", str(path), "--grid-m1", "1", "--grid-m2", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_bad_threads_exits_2(self, separable_csv, tmp_path):
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "1", "--grid-m2", "1",
                     "--threads", "0", "--out", str(tmp_path / "s.csv")]) == 2


# p = 6, identity Sigma, n1 = n2 = 8; the caller adds the delta and the
# threshold selection
SCENARIO_BASE = "name = {name}\np = 6\nn1 = 8\nn2 = 8\nreps = 2\nseed = 7\n"
FIXED = "m1 = 1\nm2 = 0.8\nalpha = 0.3\n"


def write_scenario_text(tmp_path, name, methods, rest):
    path = tmp_path / "sc.txt"
    path.write_text(SCENARIO_BASE.format(name=name) + f"methods = {methods}\n" + rest,
                    encoding="utf-8")
    return path


def scenario_with_bad_mean(tmp_path, key, bad):
    """A scenario file whose delta (delta_magnitude or the first of its
    delta_values) is ``bad``."""
    delta = (f"delta_count = 2\ndelta_magnitude = {bad}\n" if key == "delta_magnitude"
             else f"delta_values = {bad},0.5,0,0,0,0\n")
    return write_scenario_text(tmp_path, "bad_mean", "slda,lda,oracle", delta + FIXED)


def bad_mean_message(path, key, bad):
    # delta_magnitude is a scalar key, held to the finite rule as it is read
    if key == "delta_magnitude":
        return f"{path}: delta_magnitude: must be finite, got {bad}"
    return "population means must be finite"


def scenario_with_sigma_file(tmp_path, sigma):
    """A p = 2 scenario whose Sigma is read from a matrix CSV."""
    sigma_path = tmp_path / "sigma.csv"
    write_matrix(sigma_path, np.array(sigma))
    path = tmp_path / "sc.txt"
    path.write_text("name = sigma_file\np = 2\ndelta_count = 1\ndelta_magnitude = 1\n"
                    f"sigma = from_file\nsigma_file = {sigma_path}\n"
                    "n1 = 8\nn2 = 8\nmethods = lda,oracle\nreps = 2\nseed = 7\n",
                    encoding="utf-8")
    return path


def small_scenario(tmp_path):
    """A two-replicate p = 6 scenario file for simulate and diagnose."""
    return write_scenario_text(tmp_path, "small", "slda,oracle",
                               "delta_count = 2\ndelta_magnitude = 1.5\n" + FIXED)


def huge_delta_scenario(tmp_path):
    """p = 3 with delta = (1e200, 0, 0): delta_1^2 overflows, and so does
    S's (1, 1) entry in a replicate, where the rows of feature 1 are
    1e200 + N(0, 1) and their centring leaves the rounding of 1e200."""
    path = tmp_path / "huge.txt"
    path.write_text("p = 3\nn1 = 10\nn2 = 10\nmethods = lda, oracle\nreps = 2\nseed = 1\n"
                    "delta_values = 1e200, 0, 0\n", encoding="utf-8")
    return path


BAD_MEANS = [("delta_values", "nan"), ("delta_values", "inf"), ("delta_magnitude", "inf"),
             ("delta_magnitude", "-inf")]


class TestSimulate:
    def test_preset_deterministic_reruns(self, tmp_path):
        args = ["simulate", "--scenario", "thm1_regime", "--reps", "2",
                "--seed", "4242"]
        assert main(args + ["--out", str(tmp_path / "a_")]) == 0
        assert main(args + ["--out", str(tmp_path / "b_")]) == 0
        assert (tmp_path / "a_replicates.csv").read_bytes() == \
               (tmp_path / "b_replicates.csv").read_bytes()
        assert (tmp_path / "a_summary.txt").read_bytes() == \
               (tmp_path / "b_summary.txt").read_bytes()

    def test_overflowing_class_sum_names_the_overflow(self, tmp_path, capsys):
        # delta_magnitude = 1e308 is finite, and eight draws near it
        # overflow class 1's sum; failed at the parent, where each error
        # row read "cholesky_spd: input has NaN or Inf entries"
        path = write_scenario_text(tmp_path, "overflow", "slda,lda,oracle",
                                   "delta_count = 2\ndelta_magnitude = 1e308\n" + FIXED)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o_")]) == 0
        lines = (tmp_path / "o_replicates.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",error")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == \
            ["class 1 mean of feature 1 is not finite: the class sum overflows"] * 2

    @pytest.mark.parametrize("distribution", ["normal", "student_t"])
    def test_rule_whose_variance_underflows(self, tmp_path, capsys, distribution):
        # at delta = (1e-200, 0, 0) the oracle's w'Sigma w is 0.0, and
        # Delta_p^2 underflows too; failed at the parent: simulate with
        # ZeroDivisionError, diagnose with "requires Delta_p > 0, got 0.0"
        path = tmp_path / "tiny.txt"
        path.write_text("p = 3\nn1 = 10\nn2 = 10\nmethods = lda, oracle\nreps = 2\nseed = 1\n"
                        f"delta_values = 1e-200, 0, 0\ndistribution = {distribution}\n"
                        + ("df = 3\n" if distribution == "student_t" else ""), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "u_")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "u_replicates.csv").read_text(encoding="utf-8").splitlines()[1:]]
        pop = read_scenario(path).resolve_population()
        normal = PopulationSpec(means=pop.means, covariance=pop.covariance)
        assert [float(row[3]) for row in rows if row[2] == "oracle"] == \
            [optimal_rate(normal).conditional_rate] * 2 == [0.5] * 2
        assert main(["diagnose", "--scenario", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        assert "delta_p 9.9999999999999998e-201\n" in capsys.readouterr().out

    def test_lda_whose_pooled_covariance_overflows(self, tmp_path):
        # n - 2 >= p sends LDA to Cholesky of S; failed at the parent, where
        # each error row read "cholesky_spd: input has NaN or Inf entries"
        path = huge_delta_scenario(tmp_path)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "h_")]) == 0
        lines = (tmp_path / "h_replicates.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",error")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == \
            ["build_lda: the pooled covariance overflows"] * 2

    def test_summary_has_all_methods(self, tmp_path):
        assert main(["simulate", "--scenario", "thm1_regime", "--reps", "2",
                     "--out", str(tmp_path / "x_")]) == 0
        text = (tmp_path / "x_summary.txt").read_text(encoding="utf-8")
        for m in ("slda", "lda", "oracle"):
            assert f"\n{m} " in text

    def test_scenario_file(self, tmp_path):
        path = write_scenario_text(tmp_path, "from_file", "slda,oracle",
                                   "delta_count = 2\ndelta_magnitude = 1.5\n" + FIXED)
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "f_")]) == 0
        header = (tmp_path / "f_replicates.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("scenario,replicate,method,rate")

    def test_unknown_scenario_lists_catalog(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "y_")]) == 2
        err = capsys.readouterr().err
        assert "thm2_worst" in err and "sec5_t3" in err

    @pytest.mark.parametrize("key, bad", BAD_MEANS)
    def test_non_finite_mean_exits_2(self, tmp_path, capsys, key, bad):
        path = scenario_with_bad_mean(tmp_path, key, bad)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "b_")]) == 2
        assert bad_mean_message(path, key, bad) in capsys.readouterr().err
        assert not (tmp_path / "b_replicates.csv").exists()


    @pytest.mark.parametrize("grids", ["grid_m1 = 0.5,1,2\ngrid_m2 = 0.5,1\n", ""],
                             ids=["grid", "default_grid"])
    def test_cross_validated_scenario_with_two_sample_class_exits_2(self, tmp_path, capsys,
                                                                     grids):
        # failed at the parent: exit 0 with failed 3, an error row per
        # replicate, since every LOOCV needs every class count >= 3
        path = tmp_path / "sc.txt"
        path.write_text("name = tiny\np = 6\nn1 = 2\nn2 = 8\nreps = 3\nseed = 7\n"
                        "methods = slda,oracle\ndelta_count = 2\ndelta_magnitude = 1.5\n"
                        + grids, encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "g_")]) == 2
        assert ("leave-one-out cross-validation requires every class count >= 3; "
                "got n1 = 2, n2 = 8") in capsys.readouterr().err
        assert not (tmp_path / "g_replicates.csv").exists()

    @pytest.mark.parametrize("keys, message", [
        ("grid_m1 = 1,2\nalpha = 0.6\n", "alpha must lie strictly inside (0, 1/2), got 0.6"),
        ("m1 = 1\nm2 = 0.5\nalpha = 0.6\n", "alpha must lie strictly inside (0, 1/2), got 0.6"),
        ("grid_m2 = 0.5,-1\n", "M1 and M2 must be nonnegative"),
        ("grid_m1 = 1,inf\ngrid_m2 = 0.5\n", "M1 and M2 must be finite"),
    ], ids=["grid_alpha", "fixed_alpha", "negative_m2", "infinite_m1"])
    def test_bad_threshold_keys_exit_2(self, tmp_path, capsys, keys, message):
        # the grid cases failed at the parent: exit 0, failed = reps
        path = write_scenario_text(tmp_path, "bad", "slda,oracle",
                                   "delta_count = 2\ndelta_magnitude = 1.5\n" + keys)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "a_")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a_replicates.csv").exists()

    @pytest.mark.parametrize("scenario, n_mc", [("sec5_t3", "0"), ("thm3_sparse", "-5")])
    def test_n_mc_below_one_exits_2(self, tmp_path, capsys, scenario, n_mc):
        assert main(["simulate", "--scenario", scenario, "--reps", "2", "--n-mc", n_mc,
                     "--out", str(tmp_path / "m_")]) == 2
        assert f"--n-mc: must be >= 1, got {n_mc}" in capsys.readouterr().err
        assert not (tmp_path / "m_replicates.csv").exists()

    def test_n_mc_is_checked_then_ignored(self, tmp_path):
        # every rate of simulate is closed form: --n-mc changes no byte,
        # and the replicates CSV has no n_mc or stderr column
        outs = []
        for n_mc in (["--n-mc", "5"], ["--n-mc", "1000000"], []):
            prefix = tmp_path / f"{len(outs)}_"
            assert main(["simulate", "--scenario", "sec5_t3", "--reps", "2",
                         "--out", str(prefix), *n_mc]) == 0
            outs.append([(tmp_path / f"{prefix.name}{name}").read_bytes()
                         for name in ("replicates.csv", "summary.txt")])
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][0].decode().splitlines()[0] == ",".join(REPLICATE_COLUMNS)

    def test_scenario_file_n_mc_zero_exits_2(self, tmp_path, capsys):
        # n_mc is no longer a scenario key: a good value is unused too
        for value in ("0", "5"):
            path = write_scenario_text(tmp_path, "no_draws", "slda,oracle",
                                       "delta_count = 2\ndelta_magnitude = 1.5\n" + FIXED
                                       + f"n_mc = {value}\n")
            assert main(["simulate", "--scenario", str(path),
                         "--out", str(tmp_path / "m_")]) == 2
            assert "unused scenario key(s) 'n_mc'" in capsys.readouterr().err
            assert not (tmp_path / "m_replicates.csv").exists()


    def test_repeated_scenario_key_exits_2(self, tmp_path, capsys):
        path = write_scenario_text(tmp_path, "twice", "slda,oracle",
                                   "delta_count = 2\ndelta_magnitude = 1.5\n" + FIXED
                                   + "seed = 99\n")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "r_")]) == 2
        assert "key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "r_replicates.csv").exists()

    def test_threshold_keys_without_slda_exit_2(self, tmp_path, capsys):
        # failed at the parent: exit 0, with m1, m2 and alpha never used
        path = write_scenario_text(tmp_path, "no_slda", "lda,oracle",
                                   "delta_count = 2\ndelta_magnitude = 1.5\n"
                                   "m1 = 1\nm2 = 0.5\nalpha = 0.1\n")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "k_")]) == 2
        assert "unused scenario key(s) 'm1', 'm2', 'alpha'" in capsys.readouterr().err
        assert not (tmp_path / "k_replicates.csv").exists()

    # failed at the parent: "unused scenario key(s) 'df'" for the first,
    # and for the second "delta count 0 outside 1..p=6" with no file or key
    @pytest.mark.parametrize("population, message", [
        ("delta_count = 2\ndelta_magnitude = 1\ndistribution = t\ndf = 3\n",
         "distribution: unknown distribution 't'; expected normal or student_t"),
        ("delta_count = 0\ndelta_magnitude = 1\n",
         "delta_count: must be an integer in 1..p = 6, got 0"),
    ], ids=["unknown_distribution", "zero_count"])
    def test_bad_population_key_names_file_and_key(self, tmp_path, capsys, population, message):
        path = write_scenario_text(tmp_path, "bad", "lda,oracle", population)
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "p_")]) == 2
        assert capsys.readouterr().err == f"error [simulate]: {path}: {message}\n"
        assert not (tmp_path / "p_replicates.csv").exists()

    def test_repeated_method_exits_2(self, tmp_path, capsys):
        # failed at the parent: exit 0, with every lda row written twice
        path = write_scenario_text(tmp_path, "twice", "lda,oracle,lda",
                                   "delta_count = 2\ndelta_magnitude = 1.5\n")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "t_")]) == 2
        assert "method 'lda' is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "t_replicates.csv").exists()

    @pytest.mark.parametrize("population", ["", "distribution = student_t\ndf = 3\n"],
                             ids=["normal", "student_t"])
    def test_identity_file_matches_identity_pattern(self, tmp_path, population):
        # Sigma = I read from a file is a dense 6 x 6 matrix (potrf); the
        # identity pattern is its (p,) diagonal (the O(p) operator): the
        # draws, fits and rates of every method have the same bytes
        eye = tmp_path / "eye.csv"
        write_matrix(eye, np.eye(6))
        rest = "delta_count = 2\ndelta_magnitude = 1.5\n" + FIXED + population
        methods = "slda,lda,lda_known_sigma,oracle"
        out = {}
        for sigma in ("sigma = identity\n", f"sigma = from_file\nsigma_file = {eye}\n"):
            path = write_scenario_text(tmp_path, "eye", methods, rest + sigma)
            prefix = tmp_path / f"{len(out)}_"
            assert main(["simulate", "--scenario", str(path), "--out", str(prefix)]) == 0
            out[sigma] = (tmp_path / f"{prefix.name}replicates.csv").read_bytes()
        identity, from_file = out.values()
        assert identity == from_file
        assert identity.count(b"\neye,") == 8


    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    @pytest.mark.parametrize("body, message", [
        (None, "[Errno 2] No such file or directory"),
        ("1,0\n0,x\n", "line 2: could not convert string to float: 'x'"),
    ], ids=["missing", "malformed"])
    def test_sigma_file_error_names_the_key(self, tmp_path, capsys, command, body, message):
        # failed at the parent: the scenario and matrix files were named,
        # the key sigma_file was not
        path = scenario_with_sigma_file(tmp_path, np.eye(2))
        sigma = tmp_path / "sigma.csv"
        if body is None:
            sigma.unlink()
        else:
            sigma.write_text(body, encoding="utf-8")
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o_")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {path}: sigma_file: {sigma}: ")
        assert message in err and err.count("\n") == 1
        assert list(tmp_path.glob("o_*")) == []


class TestSigmaNotPositiveDefinite:
    # failed at the parent: pop.chol raised NotPositiveDefiniteError, exit 3
    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_from_file_exits_2(self, tmp_path, capsys, command):
        path = scenario_with_sigma_file(tmp_path, [[1.0, 2.0], [2.0, 1.0]])
        out = tmp_path / "o_"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: ")
        assert "sigma pattern 'from_file' is not positive definite" in err
        assert list(tmp_path.glob("o_*")) == []


class TestDiagnose:
    def test_unknown_scenario_lists_catalog(self, tmp_path, capsys):
        # simulate and diagnose resolve a scenario name the same way
        assert main(["diagnose", "--scenario", "nope", "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert "thm2_worst" in err and "sec5_t3" in err

    @pytest.mark.parametrize("key, bad", BAD_MEANS)
    def test_non_finite_mean_exits_2(self, tmp_path, capsys, key, bad):
        path = scenario_with_bad_mean(tmp_path, key, bad)
        out_csv = tmp_path / "d.csv"
        assert main(["diagnose", "--scenario", str(path), "--out", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert bad_mean_message(path, key, bad) in captured.err
        assert "delta_p" not in captured.out and not out_csv.exists()

    @pytest.mark.parametrize("sources, message", [
        ([], "diagnose needs --train or --scenario"),
        (["--train", "train.csv", "--scenario", "thm3_sparse"],
         "diagnose takes --train or --scenario, not both"),
    ], ids=["neither", "both"])
    def test_train_xor_scenario(self, separable_csv, tmp_path, capsys, sources, message):
        sources = [str(separable_csv) if arg == "train.csv" else arg for arg in sources]
        out_csv = tmp_path / "d.csv"
        assert main(["diagnose", "--out", str(out_csv)] + sources) == 2
        assert capsys.readouterr().err == f"error [diagnose]: {message}\n"
        assert not out_csv.exists()

    def test_identity_population_row_count_one(self, tmp_path, capsys):
        path = tmp_path / "sc.txt"
        path.write_text("name = diag\np = 12\ndelta_count = 3\ndelta_magnitude = 1\n"
                        "n1 = 10\nn2 = 10\nmethods = oracle\nreps = 1\nseed = 1\n",
                        encoding="utf-8")
        out_csv = tmp_path / "cum.csv"
        assert main(["diagnose", "--scenario", str(path), "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "c_hp 1" in out
        assert "delta_p 1.7320508" in out
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "l,cumulative_proportion"
        assert len(lines) == 13
        assert lines[-1].endswith(",1")

    def test_huge_sigma_range_without_overflow(self, tmp_path, capsys):
        # failed at the parent: 0.5 (Sigma + Sigma') overflowed, and numpy
        # warned and printed eig_min nan
        path = scenario_with_sigma_file(tmp_path, [[1e308, 5e307], [5e307, 1e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["diagnose", "--scenario", str(path), "--out", str(tmp_path / "c.csv")])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        values = dict(line.split() for line in capsys.readouterr().out.splitlines()
                      if line.startswith("eig_"))
        assert float(values["eig_min"]) == pytest.approx(5e307, rel=1e-12)
        assert float(values["eig_max"]) == pytest.approx(1.5e308, rel=1e-12)

    def test_delta_squares_that_overflow_read_inf(self, tmp_path, capsys):
        # failed at the parent, where numpy warned of the overflow in
        # delta ** 2 and delta @ delta
        path = huge_delta_scenario(tmp_path)
        assert main(["diagnose", "--scenario", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "max_delta_sq inf" in lines and "norm_delta_sq inf" in lines
        assert captured.err == ""

    def test_train_input(self, separable_csv, tmp_path, capsys):
        assert main(["diagnose", "--train", str(separable_csv),
                     "--out", str(tmp_path / "c.csv")]) == 0
        out = capsys.readouterr().out
        assert "source sample" in out
        assert "q_hat" in out

    def test_train_delta_p_on_singular_s(self, tmp_path, capsys, rng):
        # p > n: Delta_p = sqrt(delta' S^+ delta) through the thin SVD of the
        # centred rows, against the eigh pseudo-inverse of S with the p eps cut
        ds = two_class_dataset(rng.standard_normal((6, 30)) + 0.5, rng.standard_normal((6, 30)))
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, ds)
        assert main(["diagnose", "--train", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        out = capsys.readouterr().out
        delta_p = float(next(line.split()[1] for line in out.splitlines()
                             if line.startswith("delta_p ")))
        w, _ = eigh_pseudo_inverse_lda(ds)
        assert delta_p == pytest.approx(np.sqrt(summarize(ds).delta_hat @ w), rel=1e-10)

    @pytest.mark.parametrize("n_per_class, p", [(6, 30), (6, 11), (6, 10), (20, 12)],
                             ids=["p_above_n", "p_n_minus_1", "p_n_minus_2", "tall"])
    def test_train_eigenvalues_from_the_thin_svd(self, tmp_path, capsys, rng, n_per_class, p):
        # failed at the parent, which took eigvalsh of S: eig_min is an
        # exact 0 when p > n - 2 (rank S <= n - 2), else S's least eigenvalue
        x = rng.standard_normal((2 * n_per_class, p)) * rng.uniform(0.5, 3.0, p)
        ds = two_class_dataset(x[:n_per_class] + 0.5, x[n_per_class:])
        path = tmp_path / "train.csv"
        write_dataset_csv(path, ds)
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
            assert main(["diagnose", "--train", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        values = dict(line.split() for line in capsys.readouterr().out.splitlines()
                      if line.startswith("eig_"))
        ref = np.linalg.eigvalsh(summarize(ds).pooled_cov)
        assert float(values["eig_max"]) == pytest.approx(ref[-1], rel=1e-12, abs=0.0)
        if p > ds.n - 2:
            assert values["eig_min"] == "0"
        else:
            assert float(values["eig_min"]) == pytest.approx(ref[0], rel=1e-10, abs=0.0)

    def test_zero_delta_exits_2(self, tmp_path):
        row = "1.0,2.0"
        path = tmp_path / "zero.csv"
        path.write_text("f1,f2,class\n" + "\n".join(
            [f"{row},1", f"{row},1", f"{row},2", f"{row},2"]) + "\n", encoding="utf-8")
        assert main(["diagnose", "--train", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 2


    # failed at the parent: --c0 was ignored without --scenario, exit 0
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_train_with_c0_exits_2(self, separable_csv, tmp_path, capsys, how):
        out = tmp_path / "c.csv"
        argv = ["diagnose", "--train", str(separable_csv), "--out", str(out)]
        if how == "flag":
            argv += ["--c0", "4"]
        else:
            cfg = tmp_path / "conf.txt"
            cfg.write_text("c0 = 4\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error [diagnose]: --c0 applies only to diagnose --scenario\n"
        assert captured.out == "" and not out.exists()

    def test_negative_m2_names_the_flag(self, tmp_path, capsys):
        # failed at the parent: the message named a_n, which the user never set
        out = tmp_path / "c.csv"
        assert main(["diagnose", "--scenario", str(small_scenario(tmp_path)), "--m2", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error [diagnose]: --m2: must be >= 0, got -1\n"
        assert not out.exists()

    # failed at the parent: exit 0, with a_n nan printed next to a finite b_n
    @pytest.mark.parametrize("flag, value", [("m2", "nan"), ("m2", "inf"), ("r", "inf"),
                                             ("c0", "nan")])
    def test_non_finite_scalar_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c.csv"
        assert main(["diagnose", "--scenario", str(small_scenario(tmp_path)),
                     f"--{flag}", value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error [diagnose]: --{flag}: must be finite, got {value}\n"
        assert captured.out == "" and not out.exists()


class TestUndecodableFile:
    # failed at the parent: each exited 2 with "'utf-8' codec can't
    # decode byte 0xff ...", naming no file
    @pytest.mark.parametrize("case", ["fit_train", "predict_test", "predict_model", "config",
                                      "scenario"])
    def test_exit_2_names_the_file(self, separable_csv, tmp_path, capsys, case):
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
                     "--out", str(model)]) == 0
        bad, out = tmp_path / "bad.txt", tmp_path / "out_"
        valid, argv = {
            "fit_train": (separable_csv, ["fit", "--train", bad, "--m1", "1", "--m2", "0.5"]),
            "predict_test": (separable_csv, ["predict", "--model", model, "--test", bad]),
            "predict_model": (model, ["predict", "--model", bad, "--test", separable_csv]),
            "config": (None, ["fit", "--train", separable_csv, "--config", bad]),
            "scenario": (small_scenario(tmp_path), ["simulate", "--scenario", bad]),
        }[case]
        text = valid.read_bytes() if valid else b"m1 = 1\nm2 = 0.5\n"
        bad.write_bytes(text + b"\xff\n")
        assert main([str(arg) for arg in argv] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{argv[0]}]: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert list(tmp_path.glob("out_*")) == []


class TestConfigFile:
    def test_config_supplies_missing_values(self, separable_csv, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("alpha = 0.25\nm2 = 0.5\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        code = main(["fit", "--train", str(separable_csv), "--m1", "1",
                     "--config", str(cfg), "--out", str(model)])
        assert code == 0
        _, meta = read_model(model)
        assert meta["alpha"] == "0.25"
        assert float(meta["m2"]) == 0.5

    def test_flags_override_config(self, separable_csv, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("alpha = 0.25\nm2 = 0.5\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        code = main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.7",
                     "--alpha", "0.35", "--config", str(cfg), "--out", str(model)])
        assert code == 0
        _, meta = read_model(model)
        assert float(meta["alpha"]) == 0.35
        assert float(meta["m2"]) == 0.7

    def test_repeated_key_exits_2(self, separable_csv, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("alpha = 0.25\nm2 = 0.5\nalpha = 0.35\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1",
                     "--config", str(cfg), "--out", str(model)]) == 2
        assert "key 'alpha' on line 3 repeats line 1" in capsys.readouterr().err
        assert not model.exists()

    def test_line_without_equals_exits_2(self, separable_csv, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("m2 0.5\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1",
                     "--config", str(cfg), "--out", str(model)]) == 2
        assert capsys.readouterr().err == (f"error [fit]: {cfg}: line 1 is not key = value: "
                                           "'m2 0.5'\n")
        assert not model.exists()

    # each of these ran at the parent with the key skipped
    @pytest.mark.parametrize("key", ["alhpa", "command", "func", "config", "threads"])
    def test_unknown_key_exits_2(self, separable_csv, tmp_path, capsys, key):
        # threads is a flag of cv and simulate, not of fit
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{key} = 0.1\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        assert main(["fit", "--train", str(separable_csv), "--m1", "1", "--m2", "0.5",
                     "--config", str(cfg), "--out", str(model)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: unknown key '{key}'" in err
        assert not model.exists()

    def test_dashed_key_names_a_flag(self, separable_csv, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("grid-m2 = 0.5,2\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.rsplit(",", 1)[0] for row in rows] == ["1,0.5", "1,2"]

    # as on the command line: no data-driven grid, no dropped item
    @pytest.mark.parametrize("line", ["grid-m1 =", "grid_m1 = 1,,2"])
    def test_empty_grid_item_exits_2(self, separable_csv, tmp_path, capsys, line):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["cv", "--train", str(separable_csv), "--grid-m2", "0.5",
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert "--grid-m1 has an empty item" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_after_merge_exits_2(self, tmp_path):
        assert main(["fit", "--m1", "1", "--m2", "1",
                     "--out", str(tmp_path / "m.txt")]) == 2


# the valid flags of each command (scenario and train filled in per test);
# every scalar numeric flag is probed on top of these
BASE_FLAGS = {
    "fit": {"train": None, "m1": "1", "m2": "0.5"},
    "cv": {"train": None, "grid-m1": "1", "grid-m2": "0.5"},
    "simulate": {"scenario": None, "reps": "2"},
    "diagnose": {"scenario": None},
}
SCALAR_FLAGS = [("fit", "m1"), ("fit", "m2"), ("fit", "alpha"), ("cv", "alpha"),
                ("cv", "threads"), ("simulate", "seed"), ("simulate", "reps"),
                ("simulate", "n-mc"), ("simulate", "threads"), ("diagnose", "h"),
                ("diagnose", "g"), ("diagnose", "r"), ("diagnose", "alpha"),
                ("diagnose", "m2"), ("diagnose", "c0")]
INTEGER_FLAGS = {"seed", "reps", "n-mc", "threads"}
BAD_VALUES = ["abc", "", "nan", "inf"]


class TestFlagBoundary:
    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, flag in SCALAR_FLAGS
        for value in BAD_VALUES + (["1.5"] if flag in INTEGER_FLAGS else [])])
    def test_bad_value_exits_2_naming_the_flag(self, separable_csv, tmp_path, capsys,
                                               command, flag, value, how):
        files = {"train": str(separable_csv), "scenario": str(small_scenario(tmp_path))}
        given = {key: text or files[key] for key, text in BASE_FLAGS[command].items()
                 if key != flag}
        given["out"] = str(tmp_path / ("out_" if command == "simulate" else "out.txt"))
        if how == "flag":
            given[flag] = value
        else:
            cfg = tmp_path / "conf.txt"
            cfg.write_text(f"{flag} = {value}\n", encoding="utf-8")
            given["config"] = str(cfg)
        argv = [command]
        for key, text in given.items():
            argv += [f"--{key}", text]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error [{command}]: --{flag}: ")
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_every_flag_is_a_config_key(self, tmp_path, command):
        # "1" parses under every flag's parser; required flags ride along
        # on the command line
        for attr in _FLAGS[command]:
            for key in {attr, attr.replace("_", "-")}:
                cfg = tmp_path / "conf.txt"
                cfg.write_text(f"{key} = 1\n", encoding="utf-8")
                argv = [command, "--config", str(cfg)]
                for other, flag in _FLAGS[command].items():
                    if other != attr and flag.default is REQUIRED:
                        argv += ["--" + other.replace("_", "-"), "1"]
                if command == "diagnose" and attr not in ("train", "scenario"):
                    argv += ["--scenario", "1"]
                args = build_parser().parse_args(argv)
                _merge_config(args)
                assert getattr(args, attr) in ("1", 1, (1.0,))

    @pytest.mark.parametrize("key", ["command", "func", "config"])
    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_non_flag_key_exits_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{cfg}: unknown key '{key}'" in capsys.readouterr().err


class TestStartup:
    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special adds about 60 ms to every command's start-up, and
        # only t rates need it (numerics.student_t_cdf imports it on call)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, slda.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
