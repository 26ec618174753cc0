"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured quantities. Criterion 12 needs the user-supplied
leukemia CSV (SLDA_LEUKEMIA_CSV or data/golub.csv) and is skipped when
the file is absent.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import mc_rate, random_population, two_class_dataset
from slda.classify import build_lda, build_oracle, build_slda, classify, classify_many
from slda.diagnostics import lemma2_counts
from slda.estimation import compute_an
from slda.evaluate import conditional_rate, loocv_rate, optimal_rate
from slda.model import LinearRule, ThresholdConfig
from slda.numerics import sample_mvn, std_normal_cdf, std_normal_log_tail, substream
from slda.simulate import preset_scenarios, run_scenario
from slda.cli import main as cli_main


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def median_rate(summary, method):
    return next(m.median for m in summary.methods if m.method == method)


def test_c01_rate_formula_oracle_equivalence():
    # closed-form conditional rate vs Monte Carlo, 25 seeded pairs, p=20
    start = time.time()
    rng = np.random.default_rng(808)
    worst = 0.0
    for case in range(25):
        pop = random_population(rng, 20)
        oracle_w = build_oracle(pop).weights
        w = oracle_w + rng.standard_normal(20) * np.linalg.norm(oracle_w) * 0.4
        sigma_w = math.sqrt(w @ pop.covariance @ w)
        c = float(w @ pop.mid) + rng.uniform(-0.5, 0.5) * sigma_w
        rule = LinearRule(weights=w, cutoff=c)
        cf = conditional_rate(rule, pop).conditional_rate
        rate, stderr = mc_rate(rule, pop, 100_000, substream(909, case))
        worst = max(worst, abs(cf - rate) / stderr)
    elapsed = time.time() - start
    report("C1 rate-formula oracle equivalence",
           worst <= 3.0 and elapsed <= 30.0,
           f"worst |cf-mc|/stderr = {worst:.2f} (limit 3), {elapsed:.1f}s (limit 30s)")


def test_c02_optimality_identity():
    start = time.time()
    rng = np.random.default_rng(809)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 51))
        pop = random_population(rng, p)
        diff = abs(conditional_rate(build_oracle(pop), pop).conditional_rate
                   - optimal_rate(pop).conditional_rate)
        worst = max(worst, diff)
    elapsed = time.time() - start
    report("C2 optimality identity",
           worst <= 1e-12 and elapsed <= 10.0,
           f"worst |cond-opt| = {worst:.2e} (limit 1e-12), {elapsed:.1f}s (limit 10s)")


def test_c03_threshold_zero_reduction():
    rng = np.random.default_rng(810)
    pop = random_population(rng, 20)
    gen = substream(811, 0)
    x1 = sample_mvn(pop.means[0], pop.chol, gen, size=100)
    x2 = sample_mvn(pop.means[1], pop.chol, gen, size=100)
    ds = two_class_dataset(x1, x2)
    lda = build_lda(ds)
    slda, _ = build_slda(ds, ThresholdConfig(m1=0.0, m2=0.0, alpha=0.3))
    w_err = float(np.max(np.abs(lda.weights - slda.weights)))
    c_err = abs(lda.cutoff - slda.cutoff)
    probes = rng.standard_normal((1000, 20))
    same = np.array_equal(classify_many(lda, probes), classify_many(slda, probes))
    report("C3 threshold-zero reduction",
           w_err <= 1e-10 and c_err <= 1e-10 and same,
           f"max|dw| = {w_err:.2e}, |dc| = {c_err:.2e}, labels identical = {same}")


def test_c04_known_sigma_near_random_guessing():
    # p/n large with the covariance known: the rate concentrates near the
    # expansion value Phi(-Delta^2 / (2 sqrt(Delta^2 + 4p/n))), far above
    # the optimal rate
    start = time.time()
    scenario = preset_scenarios()["thm2_worst"]
    records, summary = run_scenario(scenario)
    mean_rate = next(m.mean for m in summary.methods if m.method == "lda_known_sigma")
    p = scenario.population.p
    n = scenario.n1 + scenario.n2
    predicted = std_normal_cdf(-1.0 / (2.0 * math.sqrt(1.0 + 4.0 * p / n)))
    r_opt = optimal_rate(scenario.resolve_population()).conditional_rate
    elapsed = time.time() - start
    report("C4 known-covariance LDA near-worst (p >> n)",
           abs(mean_rate - predicted) <= 0.02 and elapsed <= 300.0,
           f"mean = {mean_rate:.4f} vs predicted {predicted:.4f} (tol 0.02), "
           f"R_OPT = {r_opt:.3f}, {elapsed:.0f}s (limit 300s)")


def test_c05_sparse_regime_superiority():
    start = time.time()
    presets = preset_scenarios()
    details = []
    ok = True
    for name in ("bicklev_worst", "thm3_sparse"):
        scenario = presets[name]
        r_opt = optimal_rate(scenario.resolve_population()).conditional_rate
        _, summary = run_scenario(scenario)
        slda_med = median_rate(summary, "slda")
        lda_med = median_rate(summary, "lda")
        cond = slda_med <= 0.5 * lda_med and slda_med <= 3.0 * r_opt
        if name == "bicklev_worst":
            cond = cond and lda_med >= 0.35  # generalized-inverse LDA near-worst
        ok = ok and cond
        details.append(f"{name}: slda {slda_med:.3f} vs lda {lda_med:.3f}, "
                       f"3*R_OPT {3 * r_opt:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed <= 600.0
    report("C5 sparse-regime superiority", ok,
           "; ".join(details) + f", {elapsed:.0f}s (limit 600s)")


def test_c06_mills_bounds():
    bad = 0
    for x in np.geomspace(0.1, 8.0, 200):
        phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        tail = std_normal_cdf(-x)
        if not (x / (1.0 + x * x) * phi <= tail <= phi / x):
            bad += 1
    log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)
    for x in np.geomspace(8.0, 40.0, 200):
        log_phi = -0.5 * x * x - log_sqrt_2pi
        lt = std_normal_log_tail(x)
        if not (math.log(x / (1.0 + x * x)) + log_phi <= lt <= log_phi - math.log(x)):
            bad += 1
    report("C6 Mills bounds", bad == 0, f"{bad} of 400 grid points violated")


def test_c07_tail_ratio_limit():
    xi = 400.0
    worst = 0.0
    ok = True
    for gamma in (0.0, 1.0, 3.0):
        diff = (std_normal_log_tail(math.sqrt(xi) * (1.0 - gamma / xi))
                - std_normal_log_tail(math.sqrt(xi)))
        err = abs(diff - gamma)
        ok = ok and err <= 0.02 * (1.0 + gamma)
        worst = max(worst, err)
    report("C7 tail-ratio limit", ok, f"worst |log-ratio - gamma| = {worst:.4f}")


def test_c08_support_bracket():
    # thm3_sparse data-generating process with a threshold inside the
    # separation window: the kept count falls in [q_n0, q_n] from the
    # true delta in >= 90% of 20 fixed-seed replicates
    scenario = preset_scenarios()["thm3_sparse"]
    pop = scenario.resolve_population()
    n1, n2 = scenario.n1, scenario.n2
    n, p = n1 + n2, pop.p
    m2, alpha = 2.0, 0.3
    a_n = compute_an(m2, n, p, alpha)
    q_n0, q_n = lemma2_counts(pop.delta, a_n, r=2.0)
    inside = 0
    for rep in range(20):
        gen = substream(912, rep)
        x1 = sample_mvn(pop.means[0], pop.chol, gen, size=n1)
        x2 = sample_mvn(pop.means[1], pop.chol, gen, size=n2)
        _, sparsity = build_slda(two_class_dataset(x1, x2),
                                 ThresholdConfig(m1=2.2, m2=m2, alpha=alpha))
        inside += q_n0 <= sparsity.q_hat <= q_n
    report("C8 support-count bracket", inside >= 18,
           f"{inside}/20 replicates inside [{q_n0}, {q_n}] (need >= 18)")


def test_c09_loocv_exactness():
    rng = np.random.default_rng(913)
    x1 = np.column_stack([10.0 + 0.01 * rng.standard_normal(6), rng.standard_normal(6)])
    x2 = np.column_stack([-10.0 + 0.01 * rng.standard_normal(6), rng.standard_normal(6)])
    separable = two_class_dataset(x1, x2)
    zero = loocv_rate(separable, ThresholdConfig(m1=1.0, m2=1.0, alpha=0.3))
    ds = two_class_dataset(rng.standard_normal((7, 3)), rng.standard_normal((5, 3)))
    degen = loocv_rate(ds, ThresholdConfig(m1=1.0, m2=1e9, alpha=0.3))
    report("C9 LOOCV exactness",
           zero == 0.0 and degen == 5 / 12,
           f"separable = {zero}, degenerate = {degen} (want 0 and {5 / 12:.6f})")


def test_c10_t_population_ordering():
    start = time.time()
    scenario = preset_scenarios()["sec5_t3"]
    _, summary = run_scenario(scenario)
    slda_med = median_rate(summary, "slda")
    lda_med = median_rate(summary, "lda")
    elapsed = time.time() - start
    report("C10 t(3) population ordering",
           slda_med < lda_med and (lda_med - slda_med) >= 0.05,
           f"slda median {slda_med:.3f} vs lda median {lda_med:.3f} "
           f"(gap {lda_med - slda_med:.3f} >= 0.05), {elapsed:.0f}s")


def test_c11_determinism_across_runs_and_threads(tmp_path):
    base = ["simulate", "--scenario", "bicklev_worst", "--reps", "6", "--seed", "777"]
    pairs = []
    for tag, threads in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / f"{tag}_"
        assert cli_main(base + ["--threads", threads, "--out", str(out)]) == 0
        pairs.append(((tmp_path / f"{tag}_replicates.csv").read_bytes(),
                      (tmp_path / f"{tag}_summary.txt").read_bytes()))
    same = pairs[0] == pairs[1] == pairs[2]
    # and a t scenario, reduced size (closed-form rates; --n-mc is unused)
    tbase = ["simulate", "--scenario", "sec5_t3", "--reps", "2", "--n-mc", "2000",
             "--seed", "778"]
    tpairs = []
    for tag, threads in (("d", "2"), ("e", "1")):
        out = tmp_path / f"{tag}_"
        assert cli_main(tbase + ["--threads", threads, "--out", str(out)]) == 0
        tpairs.append((tmp_path / f"{tag}_replicates.csv").read_bytes())
    same_t = tpairs[0] == tpairs[1]
    report("C11 determinism", same and same_t,
           f"normal outputs identical = {same}, t outputs identical = {same_t}")


def leukemia_path():
    env = os.environ.get("SLDA_LEUKEMIA_CSV")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "golub.csv"
    return default if default.exists() else None


def test_c12_leukemia_reproduction():
    path = leukemia_path()
    if path is None:
        pytest.skip("leukemia CSV not supplied (set SLDA_LEUKEMIA_CSV or put data/golub.csv)")
    from slda.io import read_dataset_csv

    ds = read_dataset_csv(path)
    assert (ds.n, ds.p) == (72, 7129), f"expected 72 x 7129, got {ds.n} x {ds.p}"
    config = ThresholdConfig(m1=1e7, m2=300.0, alpha=0.3)
    _, sparsity = build_slda(ds, config)
    slda_loocv = loocv_rate(ds, config)
    wrong = 0
    for i in range(ds.n):
        sub = ds.drop(i)
        rule = build_lda(sub)
        wrong += classify(rule, ds.features[i]) != int(ds.labels[i])
    lda_loocv = wrong / ds.n
    ok = (sparsity.q_hat == 2492
          and abs(slda_loocv - 2 / 72) < 1e-12
          and abs(lda_loocv - 7 / 72) < 1e-12)
    report("C12 leukemia reproduction", ok,
           f"q_hat = {sparsity.q_hat} (want 2492), slda loocv = {slda_loocv:.4f} "
           f"(want {2 / 72:.4f}), lda loocv = {lda_loocv:.4f} (want {7 / 72:.4f})")
