"""End-to-end command-line behavior: file outputs, exit codes,
determinism across reruns and thread counts."""

import warnings

import numpy as np
import pytest

from conftest import eigh_pseudo_inverse_lda, summarize, two_class_dataset
from slda.cli import main
from slda.io import read_model, write_dataset_csv
from slda.model import ThresholdConfig
from slda.simulate import PopulationRecipe, Scenario, write_scenario


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
        # the diagonal one; M2 = -1 is rejected, so its two points are forced
        gen = np.random.default_rng(7)
        x1 = gen.standard_normal((10, 30))
        x1[:, :3] += 1.5
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, two_class_dataset(x1, gen.standard_normal((9, 30))))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"surface{threads}.csv"
            assert main(["cv", "--train", str(path), "--grid-m1", "0.64,50",
                         "--grid-m2", "0,1,1e9,-1", "--threads", threads,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
            assert "forced_worst 2\n" in capsys.readouterr().out
        assert outs[0] == outs[1]
        assert outs[0].decode().count(",1\n") >= 2

    def test_small_class_exits_2(self, tmp_path, rng):
        path = tmp_path / "small.csv"
        write_dataset_csv(path, two_class_dataset(rng.standard_normal((2, 2)),
                                                  rng.standard_normal((4, 2))))
        assert main(["cv", "--train", str(path), "--grid-m1", "1", "--grid-m2", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_threads_env_fallback(self, separable_csv, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SLDA_THREADS", "2")
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "0.5,1.5",
                     "--grid-m2", "0.5,2.0", "--out", str(a)]) == 0
        monkeypatch.delenv("SLDA_THREADS")
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "0.5,1.5",
                     "--grid-m2", "0.5,2.0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_threads_env_exits_2(self, separable_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SLDA_THREADS", "0")
        assert main(["cv", "--train", str(separable_csv), "--grid-m1", "1",
                     "--grid-m2", "1", "--out", str(tmp_path / "s.csv")]) == 2


def scenario_with_bad_mean(tmp_path, key, bad):
    """A scenario file whose delta (delta_magnitude or the first of its
    delta_values) is replaced by ``bad``."""
    pattern = (2, 1.5) if key == "delta_magnitude" else np.array([1.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    sc = Scenario(name="bad_mean", population=PopulationRecipe(p=6, delta_pattern=pattern),
                  n1=8, n2=8, methods=("slda", "lda", "oracle"),
                  cv=ThresholdConfig(m1=1.0, m2=0.8, alpha=0.3), reps=2, seed=7)
    path = tmp_path / "sc.txt"
    write_scenario(path, sc)
    lines = path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(key))
    lines[row] = f"{key} = {bad}" + ("" if key == "delta_magnitude" else ",0.5,0,0,0,0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    def test_summary_has_all_methods(self, tmp_path):
        assert main(["simulate", "--scenario", "thm1_regime", "--reps", "2",
                     "--out", str(tmp_path / "x_")]) == 0
        text = (tmp_path / "x_summary.txt").read_text(encoding="utf-8")
        for m in ("slda", "lda", "oracle"):
            assert f"\n{m} " in text

    def test_scenario_file(self, tmp_path):
        sc = Scenario(name="from_file",
                      population=PopulationRecipe(p=6, delta_pattern=(2, 1.5)),
                      n1=8, n2=8, methods=("slda", "oracle"),
                      cv=ThresholdConfig(m1=1.0, m2=0.8, alpha=0.3),
                      reps=2, seed=7)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
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
        assert "population means must be finite" in capsys.readouterr().err
        assert not (tmp_path / "b_replicates.csv").exists()


    @pytest.mark.parametrize("scenario, n_mc", [("sec5_t3", "0"), ("thm3_sparse", "-5")])
    def test_n_mc_below_one_exits_2(self, tmp_path, capsys, scenario, n_mc):
        assert main(["simulate", "--scenario", scenario, "--reps", "2", "--n-mc", n_mc,
                     "--out", str(tmp_path / "m_")]) == 2
        assert f"n_mc must be >= 1, got {n_mc}" in capsys.readouterr().err
        assert not (tmp_path / "m_replicates.csv").exists()

    def test_scenario_file_n_mc_zero_exits_2(self, tmp_path, capsys):
        sc = Scenario(name="no_draws", population=PopulationRecipe(p=6, delta_pattern=(2, 1.5)),
                      n1=8, n2=8, methods=("slda", "oracle"),
                      cv=ThresholdConfig(m1=1.0, m2=0.8, alpha=0.3), reps=2, seed=7)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
        text = path.read_text(encoding="utf-8")
        assert "n_mc = 100000" in text
        path.write_text(text.replace("n_mc = 100000", "n_mc = 0"), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "m_")]) == 2
        assert "n_mc must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m_replicates.csv").exists()


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
        assert "population means must be finite" in captured.err
        assert "delta_p" not in captured.out and not out_csv.exists()

    def test_identity_population_row_count_one(self, tmp_path, capsys):
        sc = Scenario(name="diag",
                      population=PopulationRecipe(p=12, delta_pattern=(3, 1.0)),
                      n1=10, n2=10, methods=("oracle",), cv=None, reps=1, seed=1)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
        out_csv = tmp_path / "cum.csv"
        assert main(["diagnose", "--scenario", str(path), "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "c_hp 1" in out
        assert "delta_p 1.7320508" in out
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "l,cumulative_proportion"
        assert len(lines) == 13
        assert lines[-1].endswith(",1")

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

    def test_zero_delta_exits_2(self, tmp_path):
        row = "1.0,2.0"
        path = tmp_path / "zero.csv"
        path.write_text("f1,f2,class\n" + "\n".join(
            [f"{row},1", f"{row},1", f"{row},2", f"{row},2"]) + "\n", encoding="utf-8")
        assert main(["diagnose", "--train", str(path),
                     "--out", str(tmp_path / "c.csv")]) == 2


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

    def test_missing_required_after_merge_exits_2(self, tmp_path):
        assert main(["fit", "--m1", "1", "--m2", "1",
                     "--out", str(tmp_path / "m.txt")]) == 2
