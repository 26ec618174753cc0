"""Command-line front end: fit, predict, cv, simulate and diagnose
subcommands over the stable file formats in slda.io.

Exit codes: 0 ok, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import diagnostics as diag
from . import io as sio
from .classify import build_slda, contrast_scores, labels_from_scores
from .errors import DataError, DomainError, ShapeError, SldaError
from .estimation import (centered_rows, compute_an, compute_tn, pinv_solve, pooled_covariance,
                         pooled_spectrum, threshold_delta)
from .evaluate import cv_grid_search
from .model import DEFAULT_ALPHA, NORMAL, ThresholdConfig, require_two_class
from .simulate import (
    Scenario,
    preset_scenarios,
    read_scenario,
    records_to_csv,
    run_scenario,
    summary_to_text,
)

OK, BAD_INPUT, NUMERICAL = 0, 2, 3


REQUIRED = object()  # a flag without a default


class _Flag(NamedTuple):
    parse: Callable[[str, str], Any] | None = None  # None keeps the text
    default: Any = REQUIRED
    help: str | None = None


_SCENARIO_HELP = "preset name or scenario file"
_FLOAT, _COUNT = sio.number(float), sio.number(int, 1)

# Every flag of every command, keyed by its attribute name. A flag given
# on the command line wins over a config key, which wins over the
# default; the winning text is then parsed once.
_FLAGS = {
    "fit": {"train": _Flag(), "m1": _Flag(_FLOAT), "m2": _Flag(_FLOAT),
            "alpha": _Flag(_FLOAT, DEFAULT_ALPHA), "out": _Flag(help="model file path")},
    "predict": {"model": _Flag(), "test": _Flag(), "out": _Flag(help="predictions CSV path")},
    "cv": {"train": _Flag(), "grid_m1": _Flag(sio.float_list, None, "comma-separated M1 values"),
           "grid_m2": _Flag(sio.float_list, None, "comma-separated M2 values"),
           "alpha": _Flag(_FLOAT, DEFAULT_ALPHA), "threads": _Flag(_COUNT, 1),
           "out": _Flag(help="surface CSV path")},
    "simulate": {"scenario": _Flag(help=_SCENARIO_HELP), "seed": _Flag(sio.number(int), None),
                 "reps": _Flag(_COUNT, None),
                 "n_mc": _Flag(_COUNT, None, "checked as an integer >= 1, then ignored: "
                               "every simulate rate is closed form"),
                 "threads": _Flag(_COUNT, 1), "out": _Flag(None, "slda_", "output file prefix")},
    "diagnose": {"train": _Flag(default=None), "scenario": _Flag(None, None, _SCENARIO_HELP),
                 "h": _Flag(_FLOAT, 0.0), "g": _Flag(_FLOAT, 0.0), "r": _Flag(_FLOAT, 2.0),
                 "alpha": _Flag(_FLOAT, DEFAULT_ALPHA), "m2": _Flag(sio.number(float, 0), 1.0),
                 "c0": _Flag(_FLOAT, 4.0), "out": _Flag(help="cumulative-proportions CSV path")},
}


def _merge_config(args: argparse.Namespace) -> None:
    """Give each flag of the command its typed value: from the command
    line, else the config file, else its default. A bad value raises
    DataError naming the flag."""
    flags = _FLAGS[args.command]
    if args.config:
        for key, value in sio.read_kv(args.config).items():
            attr = key.replace("-", "_")
            if attr not in flags:
                raise DataError(f"{args.config}: unknown key {key!r}; "
                                f"{args.command} takes {', '.join(sorted(flags))}")
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    if args.command == "diagnose":
        if not (args.train or args.scenario):
            raise DataError("diagnose needs --train or --scenario")
        if args.train and args.scenario:
            raise DataError("diagnose takes --train or --scenario, not both")
        if args.train and args.c0 is not None:
            raise DataError("--c0 applies only to diagnose --scenario")
    for attr, flag in flags.items():
        name = "--" + attr.replace("_", "-")
        text = getattr(args, attr)
        if text is None:
            if flag.default is REQUIRED:
                raise DataError(f"missing required parameter {name}")
            setattr(args, attr, flag.default)
        elif flag.parse:
            setattr(args, attr, flag.parse(text, name))


def cmd_fit(args) -> int:
    dataset = sio.read_dataset_csv(args.train)
    config = ThresholdConfig(m1=args.m1, m2=args.m2, alpha=args.alpha)
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
    lines = ["predicted,score"]
    lines += [f"{label},{sio.fmt_float(score)}"
              for label, score in zip(labels_from_scores(scores), scores)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"predictions written to {args.out}")
    return OK


def cmd_cv(args) -> int:
    dataset = sio.read_dataset_csv(args.train)
    surface = cv_grid_search(dataset, args.grid_m1, args.grid_m2, args.alpha,
                             threads=args.threads)
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


def _naming(source: str, build, *args):
    """build(*args), which builds a scenario's population; its error names the scenario."""
    try:
        return build(*args)
    except (DataError, DomainError, ShapeError, OSError) as exc:
        raise DataError(f"{source}: {exc}") from None


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {key: getattr(args, key) for key in ("seed", "reps")
                 if getattr(args, key) is not None}
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    records, summary = _naming(args.scenario, run_scenario, scenario, args.threads)
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
    h, g, r = args.h, args.g, args.r
    if args.train:
        dataset = sio.read_dataset_csv(args.train)
        require_two_class(dataset.n_classes, "diagnose --train")
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
        pop = _naming(args.scenario, scenario.resolve_population)
        if pop.distribution != NORMAL:
            print("note: t population; diagnostics use the scale matrix", file=sys.stderr)
        delta = pop.delta
        sigma = pop.covariance
        n, p = scenario.n1 + scenario.n2, pop.p
        delta_p = diag.mahalanobis_delta(pop)
        eig_min, eig_max = diag.eigen_range(sigma)
        source = "population"
    # the theory bounds the largest delta_j^2, and separation grows with
    # ||delta||^2; a square that overflows is inf, without a warning
    with np.errstate(over="ignore"):
        max_delta_sq, norm_delta_sq = float(np.max(delta ** 2)), float(delta @ delta)
    lines = [f"source {source}"]
    if args.scenario:
        passed = diag.condition_check(eig_min, eig_max, max_delta_sq, args.c0)
        lines.append(f"condition_check_passed {1 if passed else 0}")
    a_n = compute_an(args.m2, n, p, args.alpha)
    t_n = compute_tn(1.0, n, p)
    c_hp = diag.sparsity_C(sigma, h)
    d_gp = diag.sparsity_D(delta, g)
    q_n0, q_n = diag.lemma2_counts(delta, a_n, r)
    q_hat = np.count_nonzero(threshold_delta(delta, a_n))
    s_n, d_n, b_n = diag.rate_quantities(n, p, h, g, c_hp, d_gp, q_n, delta_p, a_n)
    report = dict(delta_p=delta_p, c_hp=c_hp, d_gp=d_gp, h=h, g=g,
                  q_n0=q_n0, q_n=q_n, q_hat=q_hat, s_n=s_n, d_n=d_n, a_n=a_n, b_n=b_n,
                  eig_min=eig_min, eig_max=eig_max,
                  max_delta_sq=max_delta_sq, norm_delta_sq=norm_delta_sq)
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

    commands = {"fit": (cmd_fit, "fit an SLDA rule and write a model file"),
                "predict": (cmd_predict, "classify rows of a CSV with a fitted model"),
                "cv": (cmd_cv, "leave-one-out grid search over (M1, M2)"),
                "simulate": (cmd_simulate, "run a preset or file-defined scenario"),
                "diagnose": (cmd_diagnose, "sparsity/regularity diagnostics")}
    for command, (func, help_text) in commands.items():
        cmd = sub.add_parser(command, help=help_text)
        for attr, flag in _FLAGS[command].items():
            cmd.add_argument("--" + attr.replace("_", "-"), help=flag.help)
        cmd.add_argument("--config", default=None, help="optional key = value config file")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = args.command
    try:
        _merge_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:  # DataError, DomainError, ShapeError too
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return BAD_INPUT
    except SldaError as exc:
        print(f"numerical failure [{stage}]: {exc}", file=sys.stderr)
        return NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
