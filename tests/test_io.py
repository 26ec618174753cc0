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
    read_kv,
    read_matrix,
    read_model,
    write_dataset_csv,
    write_matrix,
    write_model,
)
from slda.model import LinearRule, ThresholdConfig
from slda.simulate import GridSpec, PopulationRecipe, Scenario, read_scenario


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

    @pytest.mark.parametrize("meta, weights, message", [
        ("p 3\ndegenerate 0\n", "1.0\n2.0\n", "expected 3 weight lines, found 2"),
        ("p 2\n", "1.0\n2.0\n3.0\n\n4.0\n", "expected 2 weight lines, found 4"),
        ("p 2\np 3\n", "1.0\n2.0\n3.0\n", "repeated key 'p'"),
        ("p 2\nc 1\n", "1.0\n2.0\n", "repeated key 'c'"),
        ("p 2\ndegenerate 1\n", "0.0\n2.0\n", "degenerate 1 contradicts"),
        ("p 2\ndegenerate 0\n", "0.0\n-0.0\n", "degenerate 0 contradicts"),
        ("p 2\ndegenerate yes\n", "1.0\n2.0\n", "degenerate yes contradicts"),
    ], ids=["too_few", "too_many", "repeated_p", "repeated_c", "degenerate_nonzero",
            "not_degenerate_zero", "degenerate_not_0_or_1"])
    def test_truncated_weights_rejected(self, tmp_path, meta, weights, message):
        # too few or too many weight lines, a repeated key, or a degenerate
        # flag that contradicts the weights
        path = tmp_path / "model.txt"
        path.write_text(f"slda-model v1\n{meta}alpha 0.3\nm1 1\nm2 1\nc 0\n"
                        f"weights\n{weights}", encoding="utf-8")
        with pytest.raises(DataError, match=message):
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
    def test_reads_fixed_config(self, tmp_path):
        sc = Scenario(name="toy",
                      population=PopulationRecipe(p=20, delta_pattern=(4, 1.25),
                                                  sigma_pattern=("banded", 1, 0.3)),
                      n1=12, n2=9, methods=("slda", "lda"),
                      cv=ThresholdConfig(m1=1.5, m2=0.75, alpha=0.3),
                      reps=7, seed=1234, n_mc=5000)
        path = tmp_path / "sc.txt"
        path.write_text(
            "name = toy\np = 20\ndelta_count = 4\ndelta_magnitude = 1.25\n"
            "sigma = banded\nwidth = 1\nvalue = 0.3\ndistribution = normal\n"
            "n1 = 12\nn2 = 9\nmethods = slda,lda\nm1 = 1.5\nm2 = 0.75\nalpha = 0.3\n"
            "reps = 7\nseed = 1234\nn_mc = 5000\n", encoding="utf-8")
        back = read_scenario(path)
        assert back == sc

    def test_reads_grid_and_t(self, tmp_path):
        sc = Scenario(name="toy_t",
                      population=PopulationRecipe(p=10, delta_pattern=(2, 1.0),
                                                  distribution="student_t", df=3),
                      n1=8, n2=8, methods=("slda", "oracle"),
                      cv=GridSpec(m1_grid=(1.0, 2.0), m2_grid=(0.5,), alpha=0.25),
                      reps=3, seed=55)
        path = tmp_path / "sc.txt"
        path.write_text(
            "name = toy_t\np = 10\ndelta_count = 2\ndelta_magnitude = 1\n"
            "sigma = identity\ndistribution = student_t\ndf = 3\n"
            "n1 = 8\nn2 = 8\nmethods = slda,oracle\ngrid_m1 = 1,2\ngrid_m2 = 0.5\n"
            "alpha = 0.25\nreps = 3\nseed = 55\nn_mc = 100000\n", encoding="utf-8")
        back = read_scenario(path)
        assert back == sc

    def test_reads_explicit_delta(self, tmp_path):
        sc = Scenario(name="explicit",
                      population=PopulationRecipe(p=3, delta_pattern=np.array([0.5, 0.0, -1.0])),
                      n1=5, n2=5, methods=("lda",), cv=None, reps=2, seed=3)
        path = tmp_path / "sc.txt"
        path.write_text(
            "name = explicit\np = 3\ndelta_values = 0.5,0,-1\n"
            "n1 = 5\nn2 = 5\nmethods = lda\nreps = 2\nseed = 3\n", encoding="utf-8")
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

    # each of these ran at the parent with the key silently dropped
    @pytest.mark.parametrize("extra, unused", [
        ("m1 = 2.0", "m1"),                            # m1 without m2
        ("nmc = 5", "nmc"),                            # misspelled n_mc
        ("m1 = 1\nm2 = 1\ngrid_m1 = 1,2", "grid_m1"),  # fixed constants and a grid
        ("rho = 0.5", "rho"),                          # sigma is identity, not ar1
        ("df = 3", "df"),                              # distribution is normal
        ("delta_values = 1,0,0,0,0,0", "delta_count"),  # delta_values wins
        ("alpha = 0.25", "alpha"),                     # default-grid CV ran at 0.3
    ], ids=["m1_alone", "misspelled", "fixed_and_grid", "rho_no_ar1", "df_no_t",
            "two_deltas", "alpha_alone"])
    def test_unused_key_rejected(self, tmp_path, extra, unused):
        path = tmp_path / "sc.txt"
        path.write_text(
            "p = 6\ndelta_count = 2\ndelta_magnitude = 1\nn1 = 5\nn2 = 5\n"
            f"methods = slda\nreps = 2\nseed = 9\n{extra}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"unused scenario key.*'{unused}'"):
            read_scenario(path)


    # failed at the parent: without slda the keys were still parsed into
    # Scenario.cv, never used, and the run went ahead
    @pytest.mark.parametrize("extra, unused", [
        ("m1 = 1\nm2 = 0.5\nalpha = 0.1", ["m1", "m2", "alpha"]),
        ("grid_m1 = 1,2", ["grid_m1"]),
        ("grid_m2 = 0.5\nalpha = 0.2", ["grid_m2", "alpha"]),
    ], ids=["fixed", "grid_m1", "grid_m2_alpha"])
    def test_threshold_keys_without_slda_rejected(self, tmp_path, extra, unused):
        path = tmp_path / "sc.txt"
        path.write_text(
            "p = 6\ndelta_count = 2\ndelta_magnitude = 1\nn1 = 5\nn2 = 5\n"
            f"methods = lda,oracle\nreps = 2\nseed = 9\n{extra}\n", encoding="utf-8")
        with pytest.raises(DataError, match="unused scenario key") as err:
            read_scenario(path)
        assert all(f"'{key}'" in str(err.value) for key in unused)


class TestKeyValueFile:
    def test_pairs_comments_and_spacing(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("# c\n a = 1 \n\nb=x = y  # tail\n", encoding="utf-8")
        assert read_kv(path) == {"a": "1", "b": "x = y"}

    def test_repeated_key_rejected(self, tmp_path):
        # last-wins would run with seed 99
        path = tmp_path / "kv.txt"
        path.write_text("seed = 1\np = 5\n\n seed = 99\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"key 'seed' on line 4 repeats line 1"):
            read_kv(path)

    @pytest.mark.parametrize("line", ["= 5", " = ", "#x\n  =5"],
                             ids=["no_key", "nothing", "after_comment"])
    def test_empty_key_rejected(self, tmp_path, line):
        path = tmp_path / "kv.txt"
        path.write_text(f"a = 1\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty key"):
            read_kv(path)


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

    def test_no_export_shadows_a_submodule(self):
        # a name that slda/__init__.py imports replaces the submodule
        # attribute of the same name, so "import slda.<name> as m" binds
        # the object and patching m patches nothing. The one known case is
        # the function classify (a FOUND line in CHANGES.md): renaming the
        # module fixes it, and goes with a benchmark change, since the
        # benchmark names a "classify" layer
        import ast
        import pkgutil
        from pathlib import Path

        import slda

        known = {"classify"}
        tree = ast.parse(Path(slda.__file__).read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        submodules = {info.name for info in pkgutil.iter_modules(slda.__path__)}
        assert exported & submodules <= known, \
            f"slda exports names of its submodules: {sorted(exported & submodules - known)}"
