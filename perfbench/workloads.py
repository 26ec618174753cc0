"""The four benchmark workloads.

Each workload writes its inputs from the seed (``setup``), hands the
runner the CLI argument lists of one timed iteration (``commands``),
reads the files the program wrote after the timed region (``record``)
and checks them against a reference or a statistical bound (``check``).
An operation is a replicate (sim_*), a grid point (cv_grid) or a CLI
command (leuk_fit); ``failed`` holds the operations that exited
non-zero, carried an error record, were forced to the worst CV score
or failed an output check.
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

import numpy as np

import generators
import reference

ALPHA = 0.3


def _read_replicates(path: Path):
    """Rows of a ``slda simulate`` replicates CSV, grouped by replicate."""
    by_rep: dict[int, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rep = by_rep.setdefault(int(row["replicate"]), {"error": "", "rates": {}})
            if row["error"]:
                rep["error"] = row["error"]
            else:
                rep["rates"][row["method"]] = float(row["rate"])
    return by_rep


class Workload:
    name = ""
    why = ""
    # Sizes by --size; "tiny" is for the smoke test only.
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = int(seed)
        self.size = dict(self.SIZES[size])
        self.workdir = workdir
        self.attempted = 0
        self.failed: set = set()
        self.notes: list[str] = []  # the first few failure reasons

    def fail(self, op, reason: str):
        self.failed.add(op)
        if len(self.notes) < 5:
            self.notes.append(f"{op}: {reason}")

    def setup(self) -> None:
        """Generate and write the inputs (no-op for preset workloads)."""

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def record(self, i: int, codes: list[int]) -> None:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class _Simulation(Workload):
    """``slda simulate`` on a preset; iteration i uses seed*1000 + i."""

    scenario = ""
    SHAPE: dict = {}  # the preset's n and p, recorded with the result

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.size.update(self.SHAPE)
        self.replicates: dict[int, dict] = {}  # iteration -> replicate rows

    def iteration_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def commands(self, i):
        argv = ["simulate", "--scenario", self.scenario, "--reps", str(self.size["reps"]),
                "--seed", str(self.iteration_seed(i)), "--threads", "1",
                "--out", str(self.workdir / f"it{i}_")]
        if self.size.get("n_mc") is not None:
            argv += ["--n-mc", str(self.size["n_mc"])]
        return [argv]

    def record(self, i, codes):
        reps = self.size["reps"]
        self.attempted += reps
        if codes[0] != 0:
            for k in range(reps):
                self.fail((i, k), f"exit code {codes[0]}")
            self.replicates[i] = {}
            return
        self.replicates[i] = _read_replicates(self.workdir / f"it{i}_replicates.csv")
        for k in range(reps):
            rep = self.replicates[i].get(k)
            if rep is None or rep["error"]:
                self.fail((i, k), "error record" if rep else "missing")


class SimT3(_Simulation):
    name = "sim_t3"
    why = ("sec5_t3 preset: Monte Carlo rates of a t(3) population dominate; "
           "target of the score-space Monte Carlo change")
    scenario = "sec5_t3"
    SHAPE = {"n": 60, "p": 500}
    SIZES = {"full": {"reps": 1, "n_mc": 100_000}, "tiny": {"reps": 3, "n_mc": 5_000}}
    GAP = 0.05

    def check(self):
        slda, lda = [], []
        for reps in self.replicates.values():
            for rep in reps.values():
                if not rep["error"]:
                    slda.append(rep["rates"]["slda"])
                    lda.append(rep["rates"]["lda"])
        if not slda:
            self.failed.add("c10")
            return [("sim_t3.c10_gap", False, "no successful replicate")]
        med_slda, med_lda = statistics.median(slda), statistics.median(lda)
        ok = med_slda < med_lda - self.GAP
        if not ok:
            self.failed.add("c10")
        return [("sim_t3.c10_gap", ok,
                 f"median slda {med_slda:.4f} < median lda {med_lda:.4f} - {self.GAP} "
                 f"over {len(slda)} replicates")]


class SimKnown(_Simulation):
    name = "sim_known"
    why = ("thm2_worst preset: known-Sigma LDA at p=5000 with closed-form rates; "
           "control for estimation and Monte Carlo changes")
    scenario = "thm2_worst"
    N1 = N2 = 50
    P = 5000
    SHAPE = {"n": N1 + N2, "p": P, "n_mc": None}  # closed-form rates, no Monte Carlo
    SIZES = {"full": {"reps": 10}, "tiny": {"reps": 1}}
    RTOL = 1e-12

    def check(self):
        worst = 0.0
        compared = 0
        for i, reps in self.replicates.items():
            expected = reference.known_sigma_rates(self.iteration_seed(i), self.size["reps"],
                                                   self.N1, self.N2, self.P)
            for k, ref in enumerate(expected):
                rep = reps.get(k)
                if rep is None or rep["error"]:
                    continue
                compared += 1
                for method, want in ref.items():
                    got = rep["rates"].get(method, math.nan)
                    err = abs(got - want) / abs(want)
                    worst = max(worst, math.inf if math.isnan(err) else err)
                    if not err <= self.RTOL:
                        self.fail((i, k), f"{method} rate {got!r} != {want!r}")
        ok = compared > 0 and worst <= self.RTOL
        detail = (f"{compared} replicates, max relative error {worst:.3g} "
                  f"(tolerance {self.RTOL:g}) {'; '.join(self.notes)}")
        return [("sim_known.closed_form_rates", ok, detail)]


class CvGrid(Workload):
    name = "cv_grid"
    why = ("slda cv on a thm3_sparse draw (n=60, p=500) over a fixed 2x2 grid: "
           "hundreds of refits, eigen_floor and Cholesky paths, no Monte Carlo")
    SIZES = {"full": {"n_per_class": 30, "p": 500}, "tiny": {"n_per_class": 6, "p": 40}}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.surfaces: dict[int, list] = {}

    def setup(self):
        self.x, self.labels = generators.thm3_sparse_training(
            self.seed, self.size["n_per_class"], self.size["p"])
        self.train = self.workdir / "train.csv"
        generators.write_csv(self.train, self.x, self.labels)
        self.m1_grid, self.m2_grid = generators.cv_grid(self.x, self.labels, ALPHA)
        self.size.update(n=self.x.shape[0], grid=len(self.m1_grid) * len(self.m2_grid),
                         m1_grid=self.m1_grid, m2_grid=self.m2_grid)

    def commands(self, i):
        return [["cv", "--train", str(self.train),
                 "--grid-m1", ",".join(repr(v) for v in self.m1_grid),
                 "--grid-m2", ",".join(repr(v) for v in self.m2_grid),
                 "--alpha", str(ALPHA), "--threads", "1",
                 "--out", str(self.workdir / "surface.csv")]]

    def record(self, i, codes):
        points = len(self.m1_grid) * len(self.m2_grid)
        self.attempted += points
        if codes[0] != 0:
            for j in range(points):
                self.fail((i, j), f"exit code {codes[0]}")
            self.surfaces[i] = []
            return
        with open(self.workdir / "surface.csv", newline="", encoding="utf-8") as fh:
            rows = [(float(r["m1"]), float(r["m2"]), float(r["loocv_rate"]))
                    for r in csv.DictReader(fh)]
        self.surfaces[i] = rows
        for j, row in enumerate(rows):
            if row[2] == 1.0:
                self.fail((i, j), "scored 1.0 (forced worst)")

    def check(self):
        rates, paths, max_kept = reference.loocv_surface(
            self.x, self.labels, self.m1_grid, self.m2_grid, ALPHA)
        points = [(m1, m2) for m1 in self.m1_grid for m2 in self.m2_grid]
        expected = [(m1, m2, r) for (m1, m2), r in zip(points, rates)]
        for i, rows in self.surfaces.items():
            for j, want in enumerate(expected):
                got = rows[j] if j < len(rows) else None
                if got != want:
                    self.fail((i, j), f"got {got}, want {want}")
        ok = bool(self.surfaces) and all(rows == expected for rows in self.surfaces.values())
        return [
            ("cv_grid.surface_equals_reference", ok,
             f"{len(expected)} points x {len(self.surfaces)} runs; "
             f"reference {rates} {'; '.join(self.notes)}"),
            ("cv_grid.diagonal_m1_is_diagonal", max_kept[-1] == 0,
             f"kept off-diagonal entries at the diagonal-limit M1: {max_kept[-1]}; "
             f"reference inverses by path {paths}"),
        ]


class LeukFit(Workload):
    name = "leuk_fit"
    why = ("slda fit then predict on a leukemia-shaped synthetic set (n=72, p=7129): "
           "file I/O and a 406 MB covariance, the memory-bound workload")
    SIZES = {"full": {"p": 7129}, "tiny": {"p": 300}}
    M1, M2 = 1e7, 300.0
    WEIGHT_RTOL = 1e-9

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.outputs: dict[int, dict] = {}

    def setup(self):
        (self.train_x, self.train_y), (self.test_x, self.test_y) = \
            generators.leukemia_like(self.seed, self.size["p"])
        self.train = self.workdir / "train.csv"
        self.test = self.workdir / "test.csv"
        generators.write_csv(self.train, self.train_x, self.train_y, prefix="g")
        generators.write_csv(self.test, self.test_x, self.test_y, prefix="g")
        self.size.update(n=self.train_x.shape[0], n_test=self.test_x.shape[0],
                         m1=self.M1, m2=self.M2, alpha=ALPHA)

    def commands(self, i):
        model = str(self.workdir / "model.txt")
        return [["fit", "--train", str(self.train), "--m1", repr(self.M1),
                 "--m2", repr(self.M2), "--alpha", str(ALPHA), "--out", model],
                ["predict", "--model", model, "--test", str(self.test),
                 "--out", str(self.workdir / "predictions.csv")]]

    def record(self, i, codes):
        self.attempted += 2
        out: dict = {}
        if codes[0] != 0:
            self.fail((i, "fit"), f"exit code {codes[0]}")
        else:
            lines = (self.workdir / "model.txt").read_text(encoding="utf-8").splitlines()
            start = lines.index("weights")
            out["meta"] = dict(line.split(None, 1) for line in lines[1:start])
            out["weights"] = np.array([float(v) for v in lines[start + 1:]])
        if codes[1] != 0:
            self.fail((i, "predict"), f"exit code {codes[1]}")
        else:
            with open(self.workdir / "predictions.csv", newline="", encoding="utf-8") as fh:
                out["predicted"] = np.array([int(r["predicted"]) for r in csv.DictReader(fh)])
        self.outputs[i] = out

    def check(self):
        ref = reference.diagonal_slda(self.train_x, self.train_y, self.test_x,
                                      self.M1, self.M2, ALPHA)
        worst = 0.0
        for i, out in self.outputs.items():
            if "weights" in out:
                meta, w = out["meta"], out["weights"]
                want = ref["weights"]
                if w.shape != want.shape:
                    self.fail((i, "fit"), f"{w.shape[0]} weights, want {want.shape[0]}")
                else:
                    err = np.abs(w - want) / np.where(want == 0.0, 1.0, np.abs(want))
                    worst = max(worst, float(np.max(err)))
                    if not np.all((err <= self.WEIGHT_RTOL) & ((w == 0.0) == (want == 0.0))):
                        self.fail((i, "fit"), f"weights differ, max relative {np.max(err):.3g}")
                if int(meta.get("q_hat", -1)) != ref["q_hat"]:
                    self.fail((i, "fit"), f"q_hat {meta.get('q_hat')} != {ref['q_hat']}")
                if meta.get("nnz_offdiag") != "0" or meta.get("pd_flag") != "1":
                    self.fail((i, "fit"), "Sigma-tilde not diagonal / not PD")
            if "predicted" in out and not np.array_equal(out["predicted"], ref["predicted"]):
                self.fail((i, "predict"), "predicted labels differ")
        runs = len(self.outputs)
        fit_ok = runs > 0 and not any(op[1] == "fit" for op in self.failed)
        predict_ok = runs > 0 and not any(op[1] == "predict" for op in self.failed)
        accuracy = float(np.mean(ref["predicted"] == self.test_y))
        return [
            ("leuk_fit.regime_is_diagonal", ref["diagonal"],
             "max_j s_jj < t_n at M1 = 1e7 in the reference"),
            ("leuk_fit.model_matches_reference", fit_ok,
             f"q_hat {ref['q_hat']} exact, weights within relative {self.WEIGHT_RTOL:g} "
             f"(max seen {worst:.3g}), nnz_offdiag 0, pd_flag 1; {'; '.join(self.notes)}"),
            ("leuk_fit.predictions_match_reference", predict_ok,
             f"{self.test_x.shape[0]} held-out labels exact; smallest |score| "
             f"{ref['min_abs_score']:.3g}; test accuracy {accuracy:.3f}"),
        ]


WORKLOADS = {w.name: w for w in (SimT3, SimKnown, CvGrid, LeukFit)}
