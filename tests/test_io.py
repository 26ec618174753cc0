"""File format round trips and parse errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import bits_equal, two_class_dataset
from slda.classify import SparsityReport
from slda.errors import DataError
from slda.io import (
    read_dataset_csv,
    read_feature_csv,
    read_matrix,
    read_model,
    write_dataset_csv,
    write_matrix,
    write_model,
)
from slda.model import LinearRule, ThresholdConfig
from slda.simulate import GridSpec, PopulationRecipe, Scenario, read_scenario, write_scenario


class TestDatasetCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        ds = two_class_dataset(rng.standard_normal((6, 3)) * 1e-7,
                               rng.standard_normal((5, 3)) * 1e9)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_missing_class_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="class"):
            read_dataset_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,class\n1,2,1\n3,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            read_dataset_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,class\nx,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            read_dataset_csv(path)


class TestFeatureCsv:
    def test_class_column_optional(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("f1,f2\n1.5,-2\n3,4\n", encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("f1,class,f2\n1.5,1,-2\n3,2,4\n", encoding="utf-8")
        expected = np.array([[1.5, -2.0], [3.0, 4.0]])
        assert np.array_equal(read_feature_csv(plain), expected)
        assert np.array_equal(read_feature_csv(labeled), expected)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1,2\n3,4,5\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            read_feature_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2\n1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 1, column 1"):
            read_feature_csv(path)


class TestMatrixCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        a = rng.standard_normal((4, 4)) * np.exp(rng.standard_normal((4, 4)) * 5)
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)


class TestModelFile:
    def test_round_trip(self, rng, tmp_path):
        rule = LinearRule(weights=rng.standard_normal(7), cutoff=float(rng.standard_normal()))
        cfg = ThresholdConfig(m1=1.5, m2=2.5, alpha=0.25)
        report = SparsityReport(p=7, q_hat=4, nnz_offdiag=2, pd_flag=True, degenerate=False)
        path = tmp_path / "model.txt"
        write_model(path, rule, cfg, report)
        back, meta = read_model(path)
        assert np.array_equal(back.weights, rule.weights)
        assert back.cutoff == rule.cutoff
        assert not back.degenerate
        assert meta["q_hat"] == "4"
        assert meta["alpha"] == "0.25"
        assert path.read_text(encoding="utf-8").startswith("slda-model v1\n")

    def test_degenerate_flag_round_trip(self, tmp_path):
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0, degenerate=True)
        path = tmp_path / "model.txt"
        write_model(path, rule, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
        back, _ = read_model(path)
        assert back.degenerate

    # finite doubles, with the ones a decimal round trip is likeliest to
    # lose: signed zeros, subnormals, the extremes of the range
    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
    VALUES = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=150, deadline=None)
    @given(weights=arrays(float, st.integers(1, 12), elements=VALUES), cutoff=VALUES,
           config=st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 1e300),
                            st.floats(1e-6, 0.499)),
           report=st.one_of(st.none(), st.tuples(st.integers(0, 10**9), st.integers(0, 10**12),
                                                 st.booleans())))
    def test_round_trip_is_value_exact(self, tmp_path_factory, weights, cutoff, config, report):
        path = tmp_path_factory.mktemp("model") / "model.txt"
        rule = LinearRule(weights=weights, cutoff=cutoff, degenerate=not np.any(weights))
        cfg = ThresholdConfig(m1=config[0], m2=config[1], alpha=config[2])
        sparsity = None if report is None else SparsityReport(
            p=weights.shape[0], q_hat=report[0], nnz_offdiag=report[1], pd_flag=report[2],
            degenerate=rule.degenerate)
        write_model(path, rule, cfg, sparsity)
        back, meta = read_model(path)
        assert bits_equal(back.weights, weights) and bits_equal(back.cutoff, cutoff)
        assert back.degenerate == rule.degenerate
        assert (float(meta["m1"]), float(meta["m2"]), float(meta["alpha"])) == config
        assert int(meta["p"]) == weights.shape[0]
        if report is None:
            assert not {"q_hat", "nnz_offdiag", "pd_flag"} & set(meta)
        else:
            assert (int(meta["q_hat"]), int(meta["nnz_offdiag"]), meta["pd_flag"]) == \
                (report[0], report[1], "1" if report[2] else "0")

    def test_header_required(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_model(path)

    def test_truncated_weights_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("slda-model v1\np 3\nalpha 0.3\nm1 1\nm2 1\nc 0\n"
                        "degenerate 0\nweights\n1.0\n2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="weight"):
            read_model(path)


    @pytest.mark.parametrize("cutoff, weight", [("inf", "1.0"), ("nan", "1.0"),
                                                ("0", "nan"), ("0", "-inf")])
    def test_non_finite_values_rejected(self, tmp_path, cutoff, weight):
        path = tmp_path / "model.txt"
        path.write_text(f"slda-model v1\np 2\nalpha 0.3\nm1 1\nm2 1\nc {cutoff}\n"
                        f"degenerate 0\nweights\n2.0\n{weight}\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-finite"):
            read_model(path)


class TestScenarioFile:
    def test_round_trip_fixed_config(self, tmp_path):
        sc = Scenario(name="toy",
                      population=PopulationRecipe(p=20, delta_pattern=(4, 1.25),
                                                  sigma_pattern=("banded", 1, 0.3)),
                      n1=12, n2=9, methods=("slda", "lda"),
                      cv=ThresholdConfig(m1=1.5, m2=0.75, alpha=0.3),
                      reps=7, seed=1234, n_mc=5000)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
        back = read_scenario(path)
        assert back == sc

    def test_round_trip_grid_and_t(self, tmp_path):
        sc = Scenario(name="toy_t",
                      population=PopulationRecipe(p=10, delta_pattern=(2, 1.0),
                                                  distribution="student_t", df=3),
                      n1=8, n2=8, methods=("slda", "oracle"),
                      cv=GridSpec(m1_grid=(1.0, 2.0), m2_grid=(0.5,), alpha=0.25),
                      reps=3, seed=55)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
        back = read_scenario(path)
        assert back == sc

    def test_explicit_delta_round_trip(self, tmp_path):
        sc = Scenario(name="explicit",
                      population=PopulationRecipe(p=3, delta_pattern=np.array([0.5, 0.0, -1.0])),
                      n1=5, n2=5, methods=("lda",), cv=None, reps=2, seed=3)
        path = tmp_path / "sc.txt"
        write_scenario(path, sc)
        back = read_scenario(path)
        assert np.array_equal(back.population.delta_pattern, sc.population.delta_pattern)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text("p = 5\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing scenario key"):
            read_scenario(path)

    def test_comments_and_spacing_tolerated(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text(
            "# a scenario\nname = c\np = 6\ndelta_count = 2\ndelta_magnitude = 1\n"
            "n1 = 5\nn2 = 5\nmethods = lda\nreps = 2\nseed = 9\n", encoding="utf-8")
        sc = read_scenario(path)
        assert sc.population.p == 6 and sc.cv is None


class TestImportGraph:
    def test_package_imports_are_top_level_and_acyclic(self):
        # every intra-package import sits at module level, and the module
        # graph has no cycle (io used to import simulate and back)
        import ast
        from pathlib import Path

        import slda

        graph = {}
        for path in Path(slda.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            top = set(tree.body)
            deps = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    assert node in top, f"{path.stem} imports .{node.module} inside a function"
                    deps |= {node.module} if node.module else {a.name for a in node.names}
            graph[path.stem] = deps - {"__init__"}
        graph.pop("__init__")
        done, stack = set(), []

        def visit(mod):
            assert mod not in stack, "import cycle: " + " -> ".join(stack + [mod])
            if mod in done:
                return
            stack.append(mod)
            for dep in graph[mod]:
                visit(dep)
            stack.pop()
            done.add(mod)

        for mod in graph:
            visit(mod)
