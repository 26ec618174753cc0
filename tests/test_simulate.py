"""Population builders, the replicate runner and the preset catalog."""

import dataclasses

import numpy as np
import pytest

from slda.errors import DomainError
from slda.evaluate import optimal_rate
from slda.model import ThresholdConfig
from slda.simulate import (
    GridSpec,
    PopulationRecipe,
    Scenario,
    build_population,
    preset_scenarios,
    records_to_csv,
    run_scenario,
    summarize_records,
    summary_to_text,
)


class TestBuildPopulation:
    def test_identity_with_count_pattern(self):
        pop = build_population(PopulationRecipe(p=50, delta_pattern=(5, 1.0)))
        assert np.sum(pop.delta == 1.0) == 5
        assert np.sum(pop.delta != 0.0) == 5
        from slda.diagnostics import mahalanobis_delta

        assert mahalanobis_delta(pop) == pytest.approx(np.sqrt(5.0), rel=1e-12)
        assert np.array_equal(pop.means[1], np.zeros(50))

    def test_ar1_exact_matrix(self):
        pop = build_population(PopulationRecipe(p=3, delta_pattern=(1, 1.0),
                                                sigma_pattern=("ar1", 0.5)))
        expected = np.array([[1.0, 0.5, 0.25],
                             [0.5, 1.0, 0.5],
                             [0.25, 0.5, 1.0]])
        assert np.array_equal(pop.covariance, expected)

    def test_banded_not_spd_rejected(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            build_population(PopulationRecipe(p=10, delta_pattern=(1, 1.0),
                                              sigma_pattern=("banded", 1, 0.8)))

    def test_from_file_round_trip(self, tmp_path, rng):
        from conftest import random_spd
        from slda.io import write_matrix

        sigma = random_spd(rng, 4)
        path = tmp_path / "sigma.csv"
        write_matrix(path, sigma)
        pop = build_population(PopulationRecipe(p=4, delta_pattern=(2, 1.0),
                                                sigma_pattern=("from_file", str(path))))
        assert np.array_equal(pop.covariance, sigma)

    def test_explicit_delta(self):
        delta = np.array([0.0, 2.0, -1.0])
        pop = build_population(PopulationRecipe(p=3, delta_pattern=delta))
        assert np.array_equal(pop.delta, delta)

    def test_ar1_domain(self):
        with pytest.raises(DomainError):
            build_population(PopulationRecipe(p=3, delta_pattern=(1, 1.0),
                                              sigma_pattern=("ar1", 1.0)))


def small_scenario(**overrides):
    base = dict(
        name="small",
        population=PopulationRecipe(p=8, delta_pattern=(3, 1.2)),
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

    def test_t_population_uses_monte_carlo(self):
        sc = small_scenario(
            population=PopulationRecipe(p=8, delta_pattern=(3, 1.2),
                                        distribution="student_t", df=3),
            reps=2, n_mc=5000)
        records, _ = run_scenario(sc)
        for rec in records:
            assert rec.rates["slda"].method == "monte_carlo"
            assert rec.rates["slda"].n_mc == 5000
            assert rec.rates["slda"].stderr is not None

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

    def test_invalid_method_rejected(self):
        with pytest.raises(DomainError):
            small_scenario(methods=("slda", "qda"))

    @pytest.mark.parametrize("field, value", [("reps", 0), ("n_mc", 0), ("n_mc", -5)])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be >= 1"):
            small_scenario(**{field: value})


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
        assert t3.population.sigma_pattern == base.population.sigma_pattern

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
