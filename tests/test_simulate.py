"""Population builders, the replicate runner and the preset catalog."""

import dataclasses
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import bits_equal, dense_lower
from slda.errors import DomainError
from slda.classify import build_oracle
from slda.evaluate import RateReport, conditional_rate, cv_grid_search, optimal_rate
from slda.io import fmt_float
from slda.model import ThresholdConfig, validate_dataset
from slda.numerics import substream
from slda.simulate import (
    _POPULATION_KEYS,
    _SIGMA_KEYS,
    METHODS,
    REPLICATE_COLUMNS,
    GridSpec,
    PopulationRecipe,
    Scenario,
    _build_sigma,
    _draw_dataset,
    build_population,
    preset_scenarios,
    records_to_csv,
    run_scenario,
    summarize_records,
    summary_to_text,
)


class TestBuildPopulation:
    def test_identity_with_count_pattern(self):
        pop = build_population(PopulationRecipe(p=50, delta_count=5, delta_magnitude=1.0))
        # I is its (p,) diagonal: no p x p matrix, and the O(p) factor
        assert np.array_equal(pop.covariance, np.ones(50)) and pop.covariance.shape == (50,)
        assert pop.chol.kind == "diagonal"
        assert np.sum(pop.delta == 1.0) == 5
        assert np.sum(pop.delta != 0.0) == 5
        from slda.diagnostics import mahalanobis_delta

        assert mahalanobis_delta(pop) == pytest.approx(np.sqrt(5.0), rel=1e-12)
        assert np.array_equal(pop.means[1], np.zeros(50))

    def test_ar1_exact_matrix(self):
        pop = build_population(PopulationRecipe(p=3, delta_count=1, delta_magnitude=1.0,
                                                sigma="ar1", rho=0.5))
        expected = np.array([[1.0, 0.5, 0.25],
                             [0.5, 1.0, 0.5],
                             [0.25, 0.5, 1.0]])
        assert np.array_equal(pop.covariance, expected)

    def test_banded_not_spd_rejected(self):
        with pytest.raises(DomainError, match="sigma pattern 'banded' is not positive definite"):
            build_population(PopulationRecipe(p=10, delta_count=1, delta_magnitude=1.0,
                                              sigma="banded", width=1, value=0.8))

    def test_from_file_round_trip(self, tmp_path, rng):
        from conftest import random_spd, write_matrix

        sigma = random_spd(rng, 4)
        path = tmp_path / "sigma.csv"
        write_matrix(path, sigma)
        pop = build_population(PopulationRecipe(p=4, delta_count=2, delta_magnitude=1.0,
                                                sigma="from_file", sigma_file=str(path)))
        assert np.array_equal(pop.covariance, sigma)

    def test_explicit_delta(self):
        delta = (0.0, 2.0, -1.0)
        pop = build_population(PopulationRecipe(p=3, delta_values=delta))
        assert np.array_equal(pop.delta, delta)

    # a count and a magnitude, or delta_values: the count is an integer
    # in 1..p, not a float, a bool or a sequence
    @pytest.mark.parametrize("p, fields, message", [
        (2, dict(delta_count=1.0), "delta_count: must be an integer in 1..p = 2, got 1.0"),
        (4, dict(delta_count=2.5), "delta_count: must be an integer in 1..p = 4, got 2.5"),
        (3, dict(delta_count=(1.0, 0.5, 0.0)), "delta_count: must be an integer in 1..p = 3, "
                                               "got (1.0, 0.5, 0.0)"),
        (3, dict(delta_count=True), "delta_count: must be an integer in 1..p = 3, got True"),
        (3, dict(delta_magnitude=None), "missing population key(s) 'delta_magnitude'"),
        (3, dict(delta_values=(1.0, 1.0, 1.0)), "unused population key(s) 'delta_count', "
                                                "'delta_magnitude'"),
        (3, dict(delta_count=0), "delta_count: must be an integer in 1..p = 3, got 0"),
        (3, dict(delta_count=4), "delta_count: must be an integer in 1..p = 3, got 4"),
    ], ids=["float_count", "fractional_count", "three_floats", "bool_count", "one_item",
            "three_items", "zero_count", "count_above_p"])
    def test_tuple_is_count_and_magnitude_only(self, p, fields, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            PopulationRecipe(**dict(dict(p=p, delta_count=2, delta_magnitude=0.5), **fields))

    @pytest.mark.parametrize("count", [2, np.int64(2), np.int32(2)])
    def test_integer_count_places_components(self, count):
        pop = build_population(PopulationRecipe(p=4, delta_count=count, delta_magnitude=1.5))
        assert np.array_equal(pop.delta, [1.5, 0.0, 1.5, 0.0])

    @pytest.mark.parametrize("explicit", [[1.0, 0.5], np.array([1.0, 0.5]), (1, 0.5)])
    def test_list_or_array_is_the_explicit_delta(self, explicit):
        # any sequence is held as a tuple of floats, so recipes compare equal
        recipe = PopulationRecipe(p=2, delta_values=explicit)
        assert recipe == PopulationRecipe(p=2, delta_values=(1.0, 0.5))
        assert np.array_equal(build_population(recipe).delta, [1.0, 0.5])

    # each key that the sigma kind, the distribution and the delta form
    # read must be set, and no other; width is an integer >= 0
    @pytest.mark.parametrize("fields, message", [
        (dict(sigma="banded", width=-3, value=0.3), "width: must be an integer >= 0, got -3"),
        (dict(sigma="banded", width=2.7, value=0.3), "width: must be an integer >= 0, got 2.7"),
        (dict(sigma="banded", width=True, value=0.3),
         "width: must be an integer >= 0, got True"),
        (dict(rho=5), "unused population key(s) 'rho'"),
        (dict(sigma="ar1", rho=0.5, value=9), "unused population key(s) 'value'"),
        (dict(sigma="ar1"), "missing population key(s) 'rho'"),
        (dict(sigma="banded", width=1), "missing population key(s) 'value'"),
        (dict(df=3), "unused population key(s) 'df'"),
        (dict(distribution="student_t"), "missing population key(s) 'df'"),
        (dict(sigma="wishart"), "sigma: unknown kind 'wishart'; "
                                "expected identity, ar1, banded, from_file"),
        (dict(distribution="t"), "distribution: unknown distribution 't'; "
                                 "expected normal or student_t"),
    ], ids=["negative_width", "float_width", "bool_width", "identity_extra", "ar1_extra",
            "ar1_no_rho", "banded_no_value", "df_no_t", "t_no_df", "unknown_sigma",
            "unknown_distribution"])
    def test_sigma_pattern_takes_exactly_its_parameters(self, fields, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            PopulationRecipe(**dict(dict(p=4, delta_count=1, delta_magnitude=1.0), **fields))

    @pytest.mark.parametrize("fields, message", [
        (dict(p=0), "p: must be an integer >= 1, got 0"),
        (dict(delta_magnitude=0.0), "delta_magnitude: must be nonzero"),
        (dict(delta_count=None, delta_magnitude=None, delta_values=(1.0, 2.0)),
         "delta_values: 2 values for p = 4"),
        (dict(delta_count=None, delta_magnitude=None, delta_values=(0.0, -0.0, 0.0, 0.0)),
         "delta_values: must not be all zero"),
        (dict(sigma="ar1", rho=-1.0), "rho: ar1 requires |rho| < 1, got -1.0"),
        (dict(distribution="student_t", df=0), "df: must be an integer >= 1, got 0"),
    ], ids=["p_zero", "zero_magnitude", "short_values", "zero_values", "rho_minus_one",
            "df_zero"])
    def test_bad_value_rejected_when_built(self, fields, message):
        # each was first rejected by build_population, at replicate time
        with pytest.raises(DomainError, match=re.escape(message)):
            PopulationRecipe(**dict(dict(p=4, delta_count=1, delta_magnitude=1.0), **fields))

    @pytest.mark.parametrize("width", [0, np.int64(2)])
    def test_banded_integer_width(self, width):
        pop = build_population(PopulationRecipe(p=4, delta_count=1, delta_magnitude=1.0,
                                                sigma="banded", width=width, value=0.25))
        idx = np.arange(4)
        near = np.abs(idx[:, None] - idx[None, :])
        want = np.where(near == 0, 1.0, np.where(near <= width, 0.25, 0.0))
        assert np.array_equal(pop.covariance, want)

    @pytest.mark.parametrize("p, width, value", [
        (1, 0, 0.3), (5, 1, 0.3), (6, 2, -0.2), (7, 3, 0.1), (4, 4, 0.05), (4, 9, -0.01),
        (30, 5, 1e-3),
    ])
    def test_banded_bits_equal_the_loop(self, p, width, value):
        # the loop that built Sigma before: one p x p update per band
        loop = np.eye(p)
        for k in range(1, width + 1):
            loop += value * (np.eye(p, k=k) + np.eye(p, k=-k))
        recipe = PopulationRecipe(p=p, delta_count=1, delta_magnitude=1.0, sigma="banded",
                                  width=width, value=value)
        assert bits_equal(_build_sigma(recipe), loop)

    def test_huge_band_width_is_one_pass(self):
        # the loop ran width times: 10**9 at p = 6 did not end in 10 s
        recipe = PopulationRecipe(p=6, delta_count=1, delta_magnitude=1.0, sigma="banded",
                                  width=10**12, value=0.1)
        start = time.perf_counter()
        sigma = _build_sigma(recipe)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(sigma, np.where(np.eye(6) == 1.0, 1.0, 0.1))

    def test_infinite_value_raises_no_warning(self):
        # inf * 0 off the band was a RuntimeWarning (an error under pytest)
        recipe = PopulationRecipe(p=3, delta_count=1, delta_magnitude=1.0, sigma="banded",
                                  width=1, value=np.inf)
        assert np.array_equal(_build_sigma(recipe), [[1.0, np.inf, 0.0], [np.inf, 1.0, np.inf],
                                                     [0.0, np.inf, 1.0]])

    def test_ar1_domain(self):
        with pytest.raises(DomainError):
            build_population(PopulationRecipe(p=3, delta_count=1, delta_magnitude=1.0,
                                              sigma="ar1", rho=1.0))


def test_key_table_fields_and_readme_agree():
    # a population key renamed or added in one of the three lists must
    # be renamed or added in all of them
    fields = {f.name for f in dataclasses.fields(PopulationRecipe)
              if f.default is not dataclasses.MISSING}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n  - population: "):]
    section = section[:section.index("\n  - ", 1)]
    named = set(re.findall(r"`([a-z][a-z0-9_]*)`", section)) - set(_SIGMA_KEYS)
    assert set(_POPULATION_KEYS) == fields == named - {"normal", "student_t"}


def readme_passage(start: str, end: str = "\n\n") -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    passage = readme[readme.index(start):]
    return passage[:passage.index(end)]


def test_readme_scenario_keys_agree():
    # the keys read_scenario takes: the scenario's own fields, p and the
    # population keys, and the threshold keys; a key left in the README
    # after the code drops it (or one added to the code alone) fails here
    own = {f.name for f in dataclasses.fields(Scenario)} - {"population", "cv"}
    thresholds = {f.name for f in dataclasses.fields(ThresholdConfig)} | {"grid_m1", "grid_m2"}
    keys = own | {"p"} | set(_POPULATION_KEYS) | thresholds
    assert own == {"name", "n1", "n2", "methods", "reps", "seed"}
    section = readme_passage("`slda.simulate.read_scenario`. Keys:")
    named = set(re.findall(r"`([a-z][a-z0-9_]*)`", section))
    assert named - set(METHODS) - set(_SIGMA_KEYS) - {"normal", "student_t"} == keys


def test_readme_lists_the_replicate_columns():
    bullet = readme_passage("- **Simulation output**")
    assert tuple(re.findall(r"`([a-z][a-z0-9_]*)`", bullet)) == REPLICATE_COLUMNS


def small_scenario(**overrides):
    base = dict(
        name="small",
        population=PopulationRecipe(p=8, delta_count=3, delta_magnitude=1.2),
        n1=10, n2=10,
        methods=("slda", "lda", "oracle"),
        cv=ThresholdConfig(m1=1.0, m2=0.8, alpha=0.3),
        reps=3, seed=99)
    base.update(overrides)
    return Scenario(**base)


class TestRunScenario:
    def test_rerun_is_bitwise_identical(self):
        sc = small_scenario()
        r1, s1 = run_scenario(sc)
        r2, s2 = run_scenario(sc)
        assert records_to_csv(sc, r1) == records_to_csv(sc, r2)
        assert summary_to_text(s1) == summary_to_text(s2)
        assert len(r1) == 3

    def test_thread_count_does_not_change_output(self):
        sc = small_scenario(reps=6)
        r1, _ = run_scenario(sc, threads=1)
        r4, _ = run_scenario(sc, threads=4)
        assert records_to_csv(sc, r1) == records_to_csv(sc, r4)

    def test_oracle_rate_equals_optimal_every_record(self):
        sc = small_scenario(reps=4)
        ropt = optimal_rate(sc.resolve_population()).conditional_rate
        records, _ = run_scenario(sc)
        for rec in records:
            assert rec.rates["oracle"].conditional_rate == ropt

    def test_cv_grid_records_chosen_constants(self):
        sc = small_scenario(reps=2, n1=6, n2=6,
                            cv=GridSpec(m1_grid=(1.0,), m2_grid=(0.5, 5.0), alpha=0.3))
        records, _ = run_scenario(sc)
        for rec in records:
            assert rec.chosen_m2 in (0.5, 5.0)
            assert rec.sparsity is not None

    def test_t_population_uses_closed_form(self):
        # every method's rate under t(3) is conditional_rate's closed form;
        # a RateReport has no Monte Carlo size or stderr, nor the scenario an n_mc
        sc = small_scenario(
            population=PopulationRecipe(p=8, delta_count=3, delta_magnitude=1.2,
                                        distribution="student_t", df=3),
            reps=2)
        pop = sc.resolve_population()
        records, _ = run_scenario(sc)
        for rec in records:
            for method in sc.methods:
                report = rec.rates[method]
                assert report.method == "closed_form"
            assert rec.rates["oracle"] == conditional_rate(build_oracle(pop), pop)
        assert not {"n_mc", "stderr"} & {field.name for field in dataclasses.fields(RateReport)}
        assert "n_mc" not in {field.name for field in dataclasses.fields(Scenario)}

    def test_normal_population_uses_closed_form(self):
        records, _ = run_scenario(small_scenario(reps=2))
        assert all(rec.rates["lda"].method == "closed_form" for rec in records)

    def test_failed_replicates_counted_not_fatal(self):
        sc = small_scenario(reps=3)
        records, _ = run_scenario(sc)
        broken = [records[0], dataclasses.replace(records[1], rates={}, error="boom"),
                  records[2]]
        summary = summarize_records(sc, broken)
        assert summary.failed == 1
        assert all(m.count == 2 for m in summary.methods)
        csv_text = records_to_csv(sc, broken)
        assert "boom" in csv_text

    def test_csv_rows_fill_every_column(self):
        # a failed replicate is one row with its scenario, index and error
        # (commas turned to semicolons); a method's row leaves the columns
        # of other methods empty
        sc = small_scenario(reps=2)
        records, _ = run_scenario(sc)
        broken = [dataclasses.replace(records[0], rates={}, error="bad, worse"), records[1]]
        lines = records_to_csv(sc, broken).splitlines()
        assert lines[0] == ",".join(REPLICATE_COLUMNS)
        assert lines[1] == "small,0,,,,,,,,,bad; worse"
        rows = {row[2]: row for row in (line.split(",") for line in lines[2:])}
        assert list(rows) == list(sc.methods)
        assert all(len(row) == len(REPLICATE_COLUMNS) for row in rows.values())
        sparsity = records[1].sparsity
        assert rows["slda"][4:10] == [fmt_float(sc.cv.m1), fmt_float(sc.cv.m2),
                                      str(sparsity.q_hat), str(sparsity.nnz_offdiag),
                                      "1" if sparsity.pd_flag else "0", "0"]
        assert rows["lda"][4:9] == [""] * 5 and rows["lda"][10] == ""

    def test_failed_replicates_of_p_1(self):
        sc = Scenario(name="p1", population=PopulationRecipe(p=1, delta_count=1, delta_magnitude=1.0),
                      n1=3, n2=3, methods=("slda", "lda"),
                      cv=ThresholdConfig(m1=1.0, m2=0.5, alpha=0.3), reps=2, seed=7)
        records, summary = run_scenario(sc)
        assert summary.failed == 2
        assert records_to_csv(sc, records).splitlines()[1:] == [
            f"p1,{k},,,,,,,,,compute_tn requires p >= 2; got 1" for k in range(2)]

    def test_invalid_method_rejected(self):
        with pytest.raises(DomainError):
            small_scenario(methods=("slda", "qda"))

    def test_repeated_method_rejected(self):
        # failed at the parent: every lda row was run and written twice
        with pytest.raises(DomainError, match="method 'lda' is listed twice"):
            small_scenario(methods=("lda", "oracle", "lda"))

    @pytest.mark.parametrize("field, value", [("reps", 0), ("reps", -5)])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be >= 1"):
            small_scenario(**{field: value})

    @pytest.mark.parametrize("cv", [GridSpec(), GridSpec(m1_grid=(1.0,))], ids=["default", "grid"])
    def test_cross_validated_slda_needs_three_per_class(self, cv):
        # failed at the parent: every replicate drew its data only to
        # record the LOOCV class-count error
        with pytest.raises(DomainError, match="requires every class count >= 3; "
                                              "got n1 = 10, n2 = 2"):
            small_scenario(n2=2, cv=cv)
        small_scenario(n1=3, n2=3, cv=cv)
        small_scenario(n2=2)  # fixed thresholds: no cross-validation
        small_scenario(n2=2, cv=GridSpec(), methods=("lda", "oracle"))

    @pytest.mark.parametrize("cv", [None, (1.0, 0.5), "default"], ids=["none", "pair", "text"])
    def test_cv_must_be_a_threshold_policy(self, cv):
        # None was the default grid before; a replicate would now meet it
        # as an AttributeError, so the scenario refuses it when built
        with pytest.raises(DomainError, match="cv must be a ThresholdConfig or a GridSpec"):
            small_scenario(cv=cv)


class TestGridSpec:
    @pytest.mark.parametrize("fields, message", [
        (dict(m1_grid=(1.0, 2.0), alpha=0.6), r"alpha must lie strictly inside \(0, 1/2\)"),
        (dict(alpha=0.0), r"alpha must lie strictly inside \(0, 1/2\)"),
        (dict(m2_grid=(0.5, -1.0)), "M1 and M2 must be nonnegative"),
        (dict(m1_grid=(1.0, float("nan")), m2_grid=(0.5,)), "M1 and M2 must be finite"),
        (dict(m1_grid=()), "must be non-empty"),
    ], ids=["grid_alpha", "default_grid_alpha", "negative_m2", "nan_m1", "empty"])
    def test_bad_grid_rejected_when_built(self, fields, message):
        # failed at the parent: the grid was first checked by each
        # replicate's cv_grid_search, which recorded an error row
        with pytest.raises(DomainError, match=message):
            GridSpec(**fields)

    def test_good_grids_accepted(self):
        GridSpec()
        GridSpec(m1_grid=(0.0, 1e7), m2_grid=(0.0, 2.5), alpha=0.49)

    def test_one_type_in_model(self):
        from slda import model, simulate

        assert simulate.GridSpec is model.GridSpec

    @pytest.mark.parametrize("grid", [[], (), np.array([]), [1.0, -1.0], [float("nan")]],
                             ids=["list", "tuple", "array", "negative", "nan"])
    @pytest.mark.parametrize("axis", ["m1_grid", "m2_grid"])
    def test_cv_grid_search_raises_what_grid_spec_raises(self, tiny_dataset, axis, grid):
        # failed at the parent: GridSpec took [] and np.array([]) raised
        # numpy's "operands could not be broadcast together", while
        # cv_grid_search raised "requires non-empty grids" for both
        grids = {"m1_grid": [1.0], "m2_grid": [0.5], axis: grid}
        with pytest.raises(DomainError) as spec:
            GridSpec(**grids)
        with pytest.raises(DomainError) as search:
            cv_grid_search(tiny_dataset, **grids)
        assert type(spec.value) is type(search.value)
        assert str(spec.value) == str(search.value)

    @pytest.mark.parametrize("grid", [[2.0, 1], (2.0, 1), np.array([2.0, 1.0])],
                             ids=["list", "tuple", "array"])
    def test_any_sequence_is_stored_as_floats(self, tiny_dataset, grid):
        # failed at the parent: GridSpec(m1_grid=np.array([2.0, 1.0]))
        # raised numpy's broadcast error; cv_grid_search took the array
        spec = GridSpec(m1_grid=grid, m2_grid=grid)
        assert spec.m1_grid == spec.m2_grid == (2.0, 1.0)
        assert all(type(v) is float for v in spec.m1_grid + spec.m2_grid)
        assert spec == GridSpec(m1_grid=(2.0, 1.0), m2_grid=(2.0, 1.0))
        surface = cv_grid_search(tiny_dataset, grid, grid)
        assert surface.grid == ((2.0, 2.0), (2.0, 1.0), (1.0, 2.0), (1.0, 1.0))


@pytest.fixture
def tiny_dataset(rng):
    x = rng.standard_normal((8, 3))
    x[:4, 0] += 2.0
    return validate_dataset(x, [1] * 4 + [2] * 4)


def stacked_draw(pop, n1, n2, gen):
    """The draw that _draw_dataset replaced, written out in numpy: each
    class a size= draw of its own from ``gen`` (all z, then w for a t),
    mean + z L' (z * l for a diagonal), then np.vstack."""
    blocks = []
    for mean, m in zip(pop.means, (n1, n2)):
        z = gen.standard_normal((m, pop.p))
        x = z * np.sqrt(pop.covariance) if pop.covariance.ndim == 1 else z @ dense_lower(pop.chol).T
        if pop.distribution == "student_t":
            x = x * np.sqrt(pop.df / gen.chisquare(pop.df, m))[:, None]
        blocks.append(mean + x)
    return np.vstack(blocks)


SIGMAS = [dict(), dict(sigma="banded", width=1, value=0.3)]  # a (p,) diagonal factor, and a Cholesky one
LAWS = [("normal", None), ("student_t", 3)]


class TestDrawDataset:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("law", LAWS)
    def test_bits_equal_the_stacked_draw(self, sigma, law):
        pop = build_population(PopulationRecipe(p=60, delta_count=6, delta_magnitude=1.0,
                                                distribution=law[0], df=law[1], **sigma))
        assert pop.chol.kind == ("diagonal" if not sigma else "cholesky")
        ds = _draw_dataset(pop, 7, 11, substream(1105, 4))
        assert bits_equal(ds.features, stacked_draw(pop, 7, 11, substream(1105, 4)))
        assert np.array_equal(ds.labels, [1] * 7 + [2] * 11) and ds.class_counts == (7, 11)

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("law", LAWS)
    def test_peak_memory_is_the_one_features_array(self, sigma, law):
        # The stacked draw peaked at twice the features (a t, more): both
        # class blocks, then their copy. One array drawn in place needs
        # only numpy's ufunc buffer and O(p) on top; a Cholesky draw adds
        # its z, one class block.
        p, n1, n2 = 1000, 40, 60
        pop = build_population(PopulationRecipe(p=p, delta_count=6, delta_magnitude=1.0,
                                                distribution=law[0], df=law[1], **sigma))
        gen = substream(1102, 0)
        tracemalloc.start()
        try:
            ds = _draw_dataset(pop, n1, n2, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = ds.features.nbytes + 8 * (np.getbufsize() + 2 * p)
        if pop.chol.kind == "cholesky":
            bound += 8 * max(n1, n2) * p
        assert peak <= bound


class TestPresets:
    def test_catalog_complete_and_valid(self):
        presets = preset_scenarios()
        required = {"thm1_regime", "thm2_worst", "thm2_constant",
                    "bicklev_worst", "thm3_sparse", "sec5_t3"}
        assert required <= set(presets)
        for name, sc in presets.items():
            assert sc.name == name
            assert sc.reps >= 1
            if name not in ("thm2_worst", "thm2_constant"):  # big ones verified in acceptance
                pop = sc.resolve_population()
                pop.chol  # SPD check

    def test_thm1_regime_dimensions(self):
        sc = preset_scenarios()["thm1_regime"]
        n = sc.n1 + sc.n2
        p = sc.population.p
        assert p == int(n ** 0.3)

    def test_sec5_t3_is_t_variant_of_thm3(self):
        presets = preset_scenarios()
        t3, base = presets["sec5_t3"], presets["thm3_sparse"]
        assert t3.population.distribution == "student_t"
        assert t3.population.df == 3
        assert t3.population.p == base.population.p
        assert (t3.n1, t3.n2) == (base.n1, base.n2)
        assert (t3.population.sigma, t3.population.width, t3.population.value) == \
               (base.population.sigma, base.population.width, base.population.value)

    def test_smoke_run_thm1(self):
        sc = dataclasses.replace(preset_scenarios()["thm1_regime"], reps=2)
        records, summary = run_scenario(sc)
        assert summary.failed == 0
        assert {m.method for m in summary.methods} == {"slda", "lda", "oracle"}

    def test_thm1_regime_near_optimal(self):
        # p growing like n^0.3: plain LDA and SLDA both track the
        # optimal rate closely (well inside 10% relative)
        sc = preset_scenarios()["thm1_regime"]
        ropt = optimal_rate(sc.resolve_population()).conditional_rate
        _, summary = run_scenario(sc)
        for m in summary.methods:
            if m.method in ("slda", "lda"):
                assert abs(m.mean - ropt) / ropt <= 0.10
