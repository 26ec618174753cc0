"""File format round trips and parse errors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (bits_equal, reference_read_table, two_class_dataset, write_dataset_csv,
                      write_matrix)
from slda.classify import SparsityReport, build_lda, build_oracle, build_slda
from slda.errors import DataError
from slda.io import (
    _number,
    _read_table,
    fmt_float,
    read_dataset_csv,
    read_feature_csv,
    read_kv,
    read_matrix,
    read_model,
    write_model,
)
from slda.model import LinearRule, PopulationSpec, ThresholdConfig
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


# finite doubles, with the ones a decimal round trip is likeliest to
# lose: signed zeros, subnormals, the extremes of the range
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
        1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
FINITE = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(float))

# how a cell holding v may be written: 17 significant digits, the
# shortest repr, an integer literal when v is one, quoted, padded
CELL_FORMS = [fmt_float, repr,
              lambda v: f"{v:.0f}" if v.is_integer() and abs(v) < 1e15 else repr(v),
              lambda v: f'"{v!r}"', lambda v: f" {fmt_float(v)}\t"]
LABEL_FORMS = ["{}", "{:+d}", " {} ", '"{}"', "{:03d}"]


class TestReaderEquivalence:
    """The bulk reader against the csv.reader + float()/int() loop it
    replaced (conftest.reference_read_table): the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), p=st.integers(1, 5),
           where=st.sampled_from(["first", "middle", "last", "none"]),
           ending=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_bits_equal_reference(self, tmp_path_factory, data, n, p, where, ending):
        values = data.draw(arrays(float, (n, p), elements=FINITE))
        forms = data.draw(arrays(int, (n, p), elements=st.integers(0, len(CELL_FORMS) - 1)))
        labels = data.draw(st.lists(st.integers(-3, 10**6), min_size=n, max_size=n))
        label_forms = data.draw(st.lists(st.sampled_from(LABEL_FORMS), min_size=n, max_size=n))
        blanks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        at = {"first": 0, "middle": p // 2, "last": p, "none": None}[where]
        header = [f"f{j + 1}" for j in range(p)]
        if at is not None:
            header.insert(at, "class")
        lines = [",".join(header)]
        for i in range(n):
            cells = [CELL_FORMS[f](float(v)) for v, f in zip(values[i], forms[i])]
            if at is not None:
                cells.insert(at, label_forms[i].format(labels[i]))
            lines += [""] * blanks[i] + [",".join(cells)]
        path = tmp_path_factory.mktemp("eq") / "d.csv"
        path.write_bytes(ending.join(lines).encode("utf-8") + ending.encode())
        for labeled in ([True, False] if at is not None else [False]):
            features, got_labels = _read_table(path, labeled)
            want, want_labels = reference_read_table(path, labeled)
            assert bits_equal(features, want) and bits_equal(features, values)
            assert features.flags.c_contiguous and features.dtype == np.float64
            if labeled:
                assert got_labels.dtype == np.int64 and got_labels.tolist() == want_labels
            else:
                assert got_labels is None

    @settings(max_examples=400, deadline=None)
    @given(cell=st.text(st.sampled_from(list("0123456789+-.eEinfatyINFAN_ \t\x0c#x٣ ")),
                        max_size=8))
    def test_error_path_names_the_cell_the_bulk_parse_rejects(self, tmp_path_factory, cell):
        # a cell the bulk parse rejects is found again by the line scan,
        # which names its line; a cell it accepts has the bits of _number
        path = tmp_path_factory.mktemp("cell") / "d.csv"
        path.write_text(f"f1,f2\n0,0\n{cell},0\n", encoding="utf-8")
        try:
            want = _number(cell)
        except ValueError:
            with pytest.raises(DataError, match=r"d\.csv: line 3: could not convert string"):
                _read_table(path, labeled=False)
        else:
            features, _ = _read_table(path, labeled=False)
            assert bits_equal(features[1, 0], want) and bits_equal(want, float(cell))


class TestCsvGrammar:
    GOOD = "1,2,1\n1.5,2.5,1\n3,4,2\n3.5,4.25,2\n"

    @pytest.mark.parametrize("body, message", [
        ("1,2,1\n\n3,1\n", "line 4 has 2 fields, header has 3"),
        ("1,2,1\n\n3,1,2,2\n", "line 4 has 4 fields, header has 3"),
        ("1,2,1\n\n\n3,x,1\n", "line 5: could not convert string to float: 'x'"),
        ("1,2,1\n   \n", "line 3 has 1 fields, header has 3"),
        ("1,2\n\n3,4\n", "line 2 has 2 fields, header has 3"),
        (GOOD + "5,6,1.0\n", r"line 6: invalid literal for int\(\) with base 10: '1.0'"),
        (GOOD + "5,6,nan\n", r"line 6: invalid literal for int\(\) with base 10: 'nan'"),
        (GOOD + "5,6,\n", r"line 6: invalid literal for int\(\) with base 10: ''"),
        (GOOD + "5,6,9007199254740993\n", "line 6: label 9007199254740993 is out of range"),
        (GOOD + "3 # c,6,1\n", "line 6: could not convert string to float: '3 # c'"),
        (GOOD + "#3,6,1\n", "line 6: could not convert string to float: '#3'"),
        (GOOD.replace("3,4,2", "1_0,4,2"), "line 4: could not convert string to float: '1_0'"),
        (GOOD.replace("3,4,2", "٣,4,2"), "line 4: could not convert string to float"),
        ("", "no data rows"),
        ("\n\r\n\n", "no data rows"),
    ], ids=["ragged_after_blank", "extra_field", "non_numeric_after_blanks", "whitespace_line",
            "every_row_short",
            "label_1.0", "label_nan", "label_empty", "label_past_2_53", "hash_in_cell",
            "hash_at_line_start", "digit_group_underscore", "non_ascii_digit", "header_only",
            "only_blank_lines"])
    def test_hostile_body_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,class\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_dataset_csv(path)

    @pytest.mark.parametrize("header, body, message", [
        ("f1,f2,f3", "1,2\n3,4\n", "line 2 has 2 fields, header has 3"),
        ("f1,f2", "\n1,2,3\n3,4,5\n", "line 3 has 3 fields, header has 2"),
        ("class,f1", "1,2,3\n2,4,5\n", "line 2 has 3 fields, header has 2"),
    ], ids=["short", "long", "long_with_class"])
    def test_every_row_off_the_header_width(self, tmp_path, header, body, message):
        # the rows agree with each other, so only the header shows them wrong
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_feature_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        for read in (read_dataset_csv, read_feature_csv):
            with pytest.raises(DataError, match="empty file"):
                read(path)

    def test_feature_reader_skips_the_class_cells(self, tmp_path):
        # the class column is never parsed when only features are read
        path = tmp_path / "test.csv"
        path.write_text("f1,class,f2\n1,1.0,2\n3,,4\n5,x,6\n", encoding="utf-8")
        assert np.array_equal(read_feature_csv(path), [[1, 2], [3, 4], [5, 6]])

    def test_quoted_cells_blank_lines_and_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'f1,f2,class\r\n"1",2,1\r\n\r\n1.5," 2.5 ",1\r\r3,4,"2"\n\n'
                         b'3.5,+4.25e0,2\n\n')
        ds = read_dataset_csv(path)
        assert np.array_equal(ds.features, [[1, 2], [1.5, 2.5], [3, 4], [3.5, 4.25]])
        assert ds.labels.tolist() == [1, 1, 2, 2]

    @pytest.mark.parametrize("cell, where", [("nan", "row 2, column 1"),
                                             ("-inf", "row 2, column 1"),
                                             ("1e999", "row 2, column 1")])
    def test_non_finite_cells_reach_validation(self, tmp_path, cell, where):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,class\n" + self.GOOD.replace("3,4,2", f"3,{cell},2"),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"non-finite feature value at {where}"):
            read_dataset_csv(path)


class TestMatrixCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        a = rng.standard_normal((4, 4)) * np.exp(rng.standard_normal((4, 4)) * 5)
        path = tmp_path / "m.csv"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)

    @pytest.mark.parametrize("body, message", [
        ("1,2\nx,4\n", "line 2: could not convert string to float: 'x'"),
        ("1,2\n3,4,5\n", "line 2 has 3 fields, line 1 has 2"),
        ("# c\n\n1,2\n\n3,x\n", "line 5: could not convert string to float: 'x'"),
        ("# c\n1,2\n3\n", "line 3 has 1 fields, line 2 has 2"),
        ("1,2\n   \n3,4\n", "line 2 has 1 fields, line 1 has 2"),
        ('1,2\n"3",4\n', "line 2: could not convert string to float: '\"3\"'"),
    ], ids=["bad_cell", "extra_field", "bad_cell_after_comment_and_blanks",
            "short_row_after_comment", "whitespace_line", "quoted_cell"])
    def test_errors_name_the_file_line(self, tmp_path, body, message):
        path = tmp_path / "m.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("body", ["", "\n# only a comment\n\n"], ids=["empty", "comment_only"])
    def test_no_data_rows(self, tmp_path, body):
        # an error naming the file, with no numpy warning
        path = tmp_path / "m.csv"
        path.write_text(body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="m.csv: no data rows"):
                read_matrix(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# sigma\n1,0.5 # row 1\n\n0.5,2\n", encoding="utf-8")
        assert np.array_equal(read_matrix(path), [[1.0, 0.5], [0.5, 2.0]])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="No such file"):
            read_matrix(tmp_path / "nope.csv")
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n\xff,4\n")
        with pytest.raises(DataError, match="latin1.csv: 'utf-8' codec"):
            read_matrix(path)


class TestModelFile:
    def test_round_trip(self, rng, tmp_path):
        rule = LinearRule(weights=rng.standard_normal(7), cutoff=float(rng.standard_normal()))
        cfg = ThresholdConfig(m1=1.5, m2=2.5, alpha=0.25)
        report = SparsityReport(p=7, q_hat=4, nnz_offdiag=2, pd_flag=True)
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
        rule = LinearRule(weights=np.zeros(3), cutoff=0.0)
        path = tmp_path / "model.txt"
        write_model(path, rule, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
        back, _ = read_model(path)
        assert back.degenerate

    def test_builder_rules_survive_the_file(self, rng, tmp_path):
        # every rule build_slda, build_lda and build_oracle return is
        # written and read back, a degenerate SLDA fit among them
        p = 6
        ds = two_class_dataset(rng.standard_normal((8, p)) + 1.0, rng.standard_normal((7, p)))
        pop = PopulationSpec(means=np.vstack([np.ones(p), np.zeros(p)]), covariance=np.ones(p))
        fits = []
        for m1, m2 in [(0.0, 0.0), (1.0, 0.5), (1e7, 0.5), (1.0, 1e9)]:
            config = ThresholdConfig(m1=m1, m2=m2, alpha=0.3)
            fits.append((*build_slda(ds, config), config))
        fits += [(build_lda(ds), None, ThresholdConfig(m1=0.0, m2=0.0)),
                 (build_oracle(pop), None, ThresholdConfig(m1=0.0, m2=0.0))]
        assert [rule.degenerate for rule, _, _ in fits] == [False] * 3 + [True] + [False] * 2
        for j, (rule, report, config) in enumerate(fits):
            path = tmp_path / f"model{j}.txt"
            write_model(path, rule, config, report)
            back, meta = read_model(path)
            assert bits_equal(back.weights, rule.weights) and bits_equal(back.cutoff, rule.cutoff)
            assert back.degenerate == rule.degenerate
            assert meta["degenerate"] == ("1" if rule.degenerate else "0")

    VALUES = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=150, deadline=None)
    @given(weights=arrays(float, st.integers(1, 12), elements=VALUES), cutoff=VALUES,
           config=st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 1e300),
                            st.floats(1e-6, 0.499)),
           report=st.one_of(st.none(), st.tuples(st.integers(0, 10**9), st.integers(0, 10**12),
                                                 st.booleans())))
    def test_round_trip_is_value_exact(self, tmp_path_factory, weights, cutoff, config, report):
        path = tmp_path_factory.mktemp("model") / "model.txt"
        rule = LinearRule(weights=weights, cutoff=cutoff)
        cfg = ThresholdConfig(m1=config[0], m2=config[1], alpha=config[2])
        sparsity = None if report is None else SparsityReport(
            p=weights.shape[0], q_hat=report[0], nnz_offdiag=report[1], pd_flag=report[2])
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

    @settings(max_examples=150, deadline=None)
    @given(weights=arrays(float, st.integers(1, 40), elements=FINITE))
    def test_weight_lines_are_fmt_float_bytes(self, tmp_path_factory, weights):
        # the one format pass over all weights writes the bytes of one
        # fmt_float line per weight
        path = tmp_path_factory.mktemp("model") / "model.txt"
        write_model(path, LinearRule(weights=weights, cutoff=0.5),
                    ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3))
        head, sep, body = path.read_bytes().partition(b"\nweights\n")
        assert sep and b"weights" not in head
        assert body == "".join(fmt_float(w) + "\n" for w in weights).encode("utf-8")

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
        # p 0 would read a model that labels every row 1
        ("p 0\n", "", "line 2: p must be >= 1, got 0"),
        ("p -2\n", "1.0\n2.0\n", "line 2: p must be >= 1, got -2"),
    ], ids=["too_few", "too_many", "repeated_p", "repeated_c", "degenerate_nonzero",
            "not_degenerate_zero", "degenerate_not_0_or_1", "p_zero", "p_negative"])
    def test_truncated_weights_rejected(self, tmp_path, meta, weights, message):
        # too few or too many weight lines, a repeated key, a degenerate
        # flag that contradicts the weights, or a p below 1
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
                      population=PopulationRecipe(p=20, delta_count=4, delta_magnitude=1.25,
                                                  sigma="banded", width=1, value=0.3),
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
                      population=PopulationRecipe(p=10, delta_count=2, delta_magnitude=1.0,
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
                      population=PopulationRecipe(p=3, delta_values=(0.5, 0.0, -1.0)),
                      n1=5, n2=5, methods=("lda",), cv=None, reps=2, seed=3)
        path = tmp_path / "sc.txt"
        path.write_text(
            "name = explicit\np = 3\ndelta_values = 0.5,0,-1\n"
            "n1 = 5\nn2 = 5\nmethods = lda\nreps = 2\nseed = 3\n", encoding="utf-8")
        back = read_scenario(path)
        assert back == sc

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

    # the message names the key, not only "could not convert string to
    # float: ''"
    @pytest.mark.parametrize("key, value", [("grid_m1", "1,,2"), ("grid_m2", ""),
                                            ("delta_values", "1,0,0,0,0,")])
    def test_empty_list_item_names_the_key(self, tmp_path, key, value):
        delta = "" if key == "delta_values" else "delta_count = 2\ndelta_magnitude = 1\n"
        path = tmp_path / "sc.txt"
        path.write_text(f"p = 6\n{delta}n1 = 5\nn2 = 5\nmethods = slda\nreps = 2\nseed = 9\n"
                        f"{key} = {value}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{key} has an empty item"):
            read_scenario(path)


    # failed at the parent: Python's text without the key, or for
    # delta_magnitude = nan the population's message without the path
    @pytest.mark.parametrize("key, value, message", [
        ("reps", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("delta_count", "2.0", "invalid literal for int() with base 10: '2.0'"),
        ("rho", "abc", "could not convert string to float: 'abc'"),
        ("delta_magnitude", "nan", "must be finite, got nan"),
    ], ids=["reps_float", "delta_count_float", "rho_text", "delta_magnitude_nan"])
    def test_bad_number_names_the_key(self, tmp_path, key, value, message):
        keys = {"p": "6", "delta_count": "2", "delta_magnitude": "1", "sigma": "ar1",
                "rho": "0.5", "n1": "5", "n2": "5", "methods": "lda", "reps": "2",
                "seed": "9", key: value}
        path = tmp_path / "sc.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_scenario(path)
        assert str(err.value) == f"{path}: {key}: {message}"


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

    def test_diagnostics_takes_a_n_from_its_caller(self):
        # rate_quantities takes the caller's a_n, so diagnostics computes
        # no threshold and imports nothing from estimation
        import ast
        from pathlib import Path

        import slda.diagnostics

        tree = ast.parse(Path(slda.diagnostics.__file__).read_text(encoding="utf-8"))
        assert "estimation" not in {node.module for node in ast.walk(tree)
                                    if isinstance(node, ast.ImportFrom)}

    def test_operators_are_built_only_in_numerics(self):
        # the inverse of Sigma-tilde has one owner: no other module builds a
        # SymOperator, reads one of its private fields or calls LAPACK
        import dataclasses
        import re
        from pathlib import Path

        import slda
        from slda.numerics import SymOperator

        private = [f.name for f in dataclasses.fields(SymOperator) if f.name.startswith("_")]
        field_read = re.compile(r"\.(%s)\b" % "|".join(private))
        for path in Path(slda.__file__).parent.glob("*.py"):
            if path.stem != "numerics":
                text = path.read_text(encoding="utf-8")
                assert "SymOperator(" not in text and "lapack" not in text, path.stem
                assert not field_read.search(text), path.stem

    def test_no_export_shadows_a_submodule(self):
        # a name that slda/__init__.py imports replaces the submodule
        # attribute of the same name, so "import slda.<name> as m" binds
        # the object and patching m patches nothing
        import ast
        import pkgutil
        from pathlib import Path

        import slda

        known = set()
        tree = ast.parse(Path(slda.__file__).read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        submodules = {info.name for info in pkgutil.iter_modules(slda.__path__)}
        assert exported & submodules <= known, \
            f"slda exports names of its submodules: {sorted(exported & submodules - known)}"
