"""Command-line front end: fit, predict, cv, simulate and diagnose
subcommands over the stable file formats in slda.io.

Exit codes: 0 ok, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import io as sio
from .classify import build_slda, contrast_scores, maximin_labels, pair_columns
from .errors import DataError, DomainError, ShapeError, SldaError
from .estimation import (centered_rows, compute_an, compute_tn, pinv_solve, pooled_covariance,
                         pooled_spectrum, threshold_delta)
from .evaluate import cv_grid_search
from .model import DEFAULT_ALPHA, NORMAL, ThresholdConfig
from .simulate import (
    Scenario,
    preset_scenarios,
    read_scenario,
    records_to_csv,
    run_scenario,
    summary_to_text,
)

OK, BAD_INPUT, NUMERICAL = 0, 2, 3


# Fallback values applied after the flag/config merge. Every optional
# flag parses with default=None so that a config file can supply it;
# explicit flags always win.
_DEFAULTS = {
    "fit": {"alpha": DEFAULT_ALPHA},
    "predict": {},
    "cv": {"alpha": DEFAULT_ALPHA, "grid_m1": None, "grid_m2": None, "threads": "1"},
    "simulate": {"out": "slda_", "threads": "1"},
    "diagnose": {"h": "0.0", "g": "0.0", "r": "2.0", "alpha": DEFAULT_ALPHA,
                 "m2": "1.0", "c0": "4.0"},
}

_REQUIRED = {
    "fit": ("train", "m1", "m2", "out"),
    "predict": ("model", "test", "out"),
    "cv": ("train", "out"),
    "simulate": ("scenario",),
    "diagnose": ("out",),
}


def _merge_config(args: argparse.Namespace) -> None:
    # flags (not None) > config file > built-in defaults
    if getattr(args, "config", None):
        flags = set(vars(args)) - {"command", "func", "config"}
        for key, value in sio.read_kv(args.config).items():
            attr = key.replace("-", "_")
            if attr not in flags:
                raise DataError(f"{args.config}: unknown key {key!r}; "
                                f"{args.command} takes {', '.join(sorted(flags))}")
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    for attr, value in _DEFAULTS[args.command].items():
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)
    for attr in _REQUIRED[args.command]:
        if getattr(args, attr, None) is None:
            raise DataError(f"missing required parameter --{attr.replace('_', '-')}")
    if args.command == "diagnose":
        if not (args.train or args.scenario):
            raise DataError("diagnose needs --train or --scenario")
        if args.train and args.scenario:
            raise DataError("diagnose takes --train or --scenario, not both")


def _threads(args) -> int:
    n = int(args.threads)
    if n < 1:
        raise DataError(f"--threads must be >= 1, got {n}")
    return n


def cmd_fit(args) -> int:
    dataset = sio.read_dataset_csv(args.train)
    config = ThresholdConfig(m1=float(args.m1), m2=float(args.m2), alpha=float(args.alpha))
    rule, report = build_slda(dataset, config)
    sio.write_model(args.out, rule, config, report)
    print(f"model written to {args.out}")
    print(f"p {report.p}")
    print(f"q_hat {report.q_hat}")
    print(f"nnz_offdiag {report.nnz_offdiag}")
    print(f"frac_delta_kept {report.frac_delta_kept:.6g}")
    print(f"frac_cov_kept {report.frac_cov_kept:.6g}")
    print(f"pd_flag {1 if report.pd_flag else 0}")
    print(f"degenerate {1 if rule.degenerate else 0}")
    if rule.degenerate:
        print("warning: thresholding removed every mean-difference component; "
              "the rule classifies everything to class 1", file=sys.stderr)
    return OK


def cmd_predict(args) -> int:
    rule, _meta = sio.read_model(args.model)
    features = sio.read_feature_csv(args.test)
    if features.shape[1] != rule.p:
        raise ShapeError(f"{args.test}: {features.shape[1]} feature columns, model expects {rule.p}")
    try:
        scores = contrast_scores(rule, features)
    except DataError as exc:
        raise DataError(f"{args.test}: {exc}") from None
    k, pairs, _ = pair_columns(rule)
    labels = maximin_labels(scores, pairs, k)
    lines = ["predicted,score"]
    lines += [f"{label},{sio.fmt_float(score)}" for label, score in zip(labels, scores[:, 0])]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"predictions written to {args.out}")
    return OK


def cmd_cv(args) -> int:
    dataset = sio.read_dataset_csv(args.train)
    if min(dataset.class_counts) < 3:
        raise DataError("cross-validation requires every class count >= 3")
    m1_grid = None if args.grid_m1 is None else sio.float_list(args.grid_m1, "--grid-m1")
    m2_grid = None if args.grid_m2 is None else sio.float_list(args.grid_m2, "--grid-m2")
    surface = cv_grid_search(dataset, m1_grid, m2_grid, float(args.alpha),
                             threads=_threads(args))
    lines = ["m1,m2,loocv_rate"]
    lines += [f"{sio.fmt_float(m1)},{sio.fmt_float(m2)},{sio.fmt_float(score)}"
              for (m1, m2), score in zip(surface.grid, surface.scores)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"surface written to {args.out}")
    print(f"best_m1 {sio.fmt_float(surface.best[0])}")
    print(f"best_m2 {sio.fmt_float(surface.best[1])}")
    print(f"best_score {sio.fmt_float(surface.best_score)}")
    print(f"forced_worst {surface.forced_worst}")
    return OK


def _load_scenario(name: str) -> Scenario:
    """A preset by name, else a scenario file at that path."""
    presets = preset_scenarios()
    if name in presets:
        return presets[name]
    if Path(name).exists():
        return read_scenario(name)
    catalog = ", ".join(sorted(presets))
    raise DataError(f"unknown scenario {name!r}; presets: {catalog}")


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = int(args.seed)
    if args.reps is not None:
        overrides["reps"] = int(args.reps)
    if args.n_mc is not None:
        overrides["n_mc"] = int(args.n_mc)
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    records, summary = run_scenario(scenario, threads=_threads(args))
    prefix = args.out
    rep_path = f"{prefix}replicates.csv"
    sum_path = f"{prefix}summary.txt"
    Path(rep_path).write_text(records_to_csv(scenario, records), encoding="utf-8")
    Path(sum_path).write_text(summary_to_text(summary), encoding="utf-8")
    print(f"replicates written to {rep_path}")
    print(f"summary written to {sum_path}")
    print(summary_to_text(summary), end="")
    return OK


def cmd_diagnose(args) -> int:
    h, g, r = float(args.h), float(args.g), float(args.r)
    alpha, m2 = float(args.alpha), float(args.m2)
    if args.train:
        dataset = sio.read_dataset_csv(args.train)
        if dataset.n_classes != 2:
            raise DataError("diagnose --train requires a two-class dataset")
        means, centered = centered_rows(dataset)
        delta = means[0] - means[1]
        if not np.any(delta):
            raise DataError("delta_hat is the zero vector; nothing to diagnose")
        n, p = dataset.n, dataset.p
        lam, vt = pooled_spectrum(centered)
        delta_p = float(np.sqrt(max(delta @ pinv_solve(lam, vt, delta), 0.0)))
        # S has rank at most n - 2, so for p > n - 2 its least eigenvalue is 0
        eig_min, eig_max = 0.0 if p > n - 2 else float(lam[-1]), float(lam[0])
        sigma = pooled_covariance(centered)
        source = "sample"
    else:
        scenario = _load_scenario(args.scenario)
        pop = scenario.resolve_population()
        if pop.distribution != NORMAL:
            print("note: t population; diagnostics use the scale matrix", file=sys.stderr)
        delta = pop.delta
        sigma = pop.covariance
        n, p = scenario.n1 + scenario.n2, pop.p
        delta_p = diag.mahalanobis_delta(pop)
        eig_min, eig_max = diag.eigen_range(sigma)
        source = "population"
    # the theory bounds the largest delta_j^2, and separation grows with ||delta||^2
    max_delta_sq = float(np.max(delta ** 2))
    lines = [f"source {source}"]
    if args.scenario:
        passed = diag.condition_check(eig_min, eig_max, max_delta_sq, float(args.c0))
        lines.append(f"condition_check_passed {1 if passed else 0}")
    a_n = compute_an(m2, n, p, alpha)
    t_n = compute_tn(1.0, n, p)
    c_hp = diag.sparsity_C(sigma, h)
    d_gp = diag.sparsity_D(delta, g)
    q_n0, q_n = diag.lemma2_counts(delta, a_n, r)
    q_hat = np.count_nonzero(threshold_delta(delta, a_n))
    s_n, d_n, b_n = diag.rate_quantities(n, p, h, g, c_hp, d_gp, q_n, delta_p, a_n)
    report = dict(delta_p=delta_p, c_hp=c_hp, d_gp=d_gp, h=h, g=g,
                  q_n0=q_n0, q_n=q_n, q_hat=q_hat, s_n=s_n, d_n=d_n, a_n=a_n, b_n=b_n,
                  eig_min=eig_min, eig_max=eig_max,
                  max_delta_sq=max_delta_sq, norm_delta_sq=float(delta @ delta))
    lines += [f"{name} {sio.fmt_float(value) if isinstance(value, float) else value}"
              for name, value in report.items()]
    lines.append(f"t_n_unit_m1 {sio.fmt_float(t_n)}")
    print("\n".join(lines))
    cum = diag.cumulative_proportions(delta)
    out_lines = ["l,cumulative_proportion"]
    out_lines += [f"{l + 1},{sio.fmt_float(cum[l])}" for l in range(cum.shape[0])]
    Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    print(f"cumulative proportions written to {args.out}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slda",
        description="Sparse linear discriminant analysis by thresholding")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit an SLDA rule and write a model file")
    fit.add_argument("--train")
    fit.add_argument("--m1")
    fit.add_argument("--m2")
    fit.add_argument("--alpha")
    fit.add_argument("--out", help="model file path")
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", help="classify rows of a CSV with a fitted model")
    predict.add_argument("--model")
    predict.add_argument("--test")
    predict.add_argument("--out", help="predictions CSV path")
    predict.set_defaults(func=cmd_predict)

    cv = sub.add_parser("cv", help="leave-one-out grid search over (M1, M2)")
    cv.add_argument("--train")
    cv.add_argument("--grid-m1", help="comma-separated M1 values")
    cv.add_argument("--grid-m2", help="comma-separated M2 values")
    cv.add_argument("--alpha")
    cv.add_argument("--threads")
    cv.add_argument("--out", help="surface CSV path")
    cv.set_defaults(func=cmd_cv)

    sim = sub.add_parser("simulate", help="run a preset or file-defined scenario")
    sim.add_argument("--scenario", help="preset name or scenario file")
    sim.add_argument("--seed")
    sim.add_argument("--reps")
    sim.add_argument("--n-mc", dest="n_mc")
    sim.add_argument("--threads")
    sim.add_argument("--out", help="output file prefix")
    sim.set_defaults(func=cmd_simulate)

    dg = sub.add_parser("diagnose", help="sparsity/regularity diagnostics")
    dg.add_argument("--train")
    dg.add_argument("--scenario", help="preset name or scenario file")
    dg.add_argument("--h")
    dg.add_argument("--g")
    dg.add_argument("--r")
    dg.add_argument("--alpha")
    dg.add_argument("--m2")
    dg.add_argument("--c0")
    dg.add_argument("--out", help="cumulative-proportions CSV path")
    dg.set_defaults(func=cmd_diagnose)

    for p in (fit, predict, cv, sim, dg):
        p.add_argument("--config", default=None, help="optional key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        _merge_config(args)
        return args.func(args)
    except (DataError, DomainError, ShapeError, OSError, ValueError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return BAD_INPUT
    except SldaError as exc:
        print(f"numerical failure [{stage}]: {exc}", file=sys.stderr)
        return NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
