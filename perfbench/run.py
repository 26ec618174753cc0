"""Benchmark of the slda toolkit: four workloads, end-to-end and per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload cv_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (one process each; ``--threads 1`` and one BLAS thread):
- sim_t3: ``slda simulate`` on the sec5_t3 preset, 1 replicate per
  iteration at 100k Monte Carlo draws per class. Monte Carlo rate
  evaluation is about 94% of its time.
- sim_known: ``slda simulate`` on the thm2_worst preset, 10 replicates
  per iteration. Known-Sigma LDA at p = 5000 with closed-form rates; it
  never runs estimation or Monte Carlo, so it is the control for both.
- cv_grid: ``slda cv`` on a thm3_sparse draw (n = 60, p = 500) over a
  fixed 2 x 2 grid: 240 build_slda refits, half on the eigen_floor path
  and half on the Cholesky path.
- leuk_fit: ``slda fit`` (M1 = 1e7, M2 = 300) then ``slda predict`` on a
  leukemia-shaped synthetic set (n = 72, p = 7129); the only workload
  bound by memory (a 406 MB S).

A run sets up five times (inputs from the seed, written to files, and a
fresh import of the slda modules) and reports the median as
``setup_s``. It then repeats the workload's timed iteration until the
next one would overrun ``--seconds`` (at least once) and reports the
median iteration as ``wall_s``. ``peak_rss_mb`` is the process's peak
resident set; ``ok_frac`` is 1 - failed/attempted operations (printed
as ``failed_frac`` too). Output checks run after the timed phase.

With ``--trace 1`` an untimed warm-up iteration comes first, then
untraced and traced iterations alternate for ``--seconds``; the run
prints the per-layer metrics, each per traced iteration, with ``tracing.overhead_s`` = traced minus untraced
mean iteration and ``tracing.coverage`` = summed layer self time over
the untraced mean iteration (stated bound: within 10% of 1).

The last line of standard output is the JSON result; a run that prints
one exits 0, and ``--workload all`` exits 1 unless every workload is
correct. Without ./src/slda the run exits non-zero and prints no result.
Spans and a result record with the environment go to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads. With OpenBLAS's default of one
# thread per core, the p = 500 factorizations spin: on a 2-core x86_64 VM
# one cv_grid iteration took 13.5 s (26 s user) with two threads and
# 6.6 s (5.4 s user) with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_ROUNDS = 5
COVERAGE_BOUND = 0.10


def _require_sources():
    if not (SRC / "slda" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no slda package under {SRC}")


def _load_program():
    """Import slda from the checkout's src/ and nowhere else."""
    _require_sources()
    sys.path.insert(0, str(SRC))
    import slda.cli

    if Path(slda.__file__).resolve().parent != SRC / "slda":
        raise SystemExit(f"perfbench: slda imported from {slda.__file__}, not {SRC}")


def _blas():
    """Loaded OpenBLAS libraries with their thread counts."""
    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
        out.append({"library": os.path.basename(path), "threads": threads})
    return out


def environment(sizes: dict) -> dict:
    import numpy
    import scipy

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "l3": l3,
        "inputs": sizes,
    }


def fresh_import():
    """Execute the slda modules again, as every command-line start does;
    numpy and scipy stay loaded. Returns the new cli module."""
    for name in [n for n in sys.modules if n == "slda" or n.startswith("slda.")]:
        del sys.modules[name]
    import slda.cli

    return slda.cli


def run_iteration(cli, workload, i: int) -> tuple[float, float]:
    """Run one iteration in-process; returns its wall and CPU seconds."""
    argvs = workload.commands(i)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu = time.perf_counter(), time.process_time()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                codes.append(-1)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    workload.record(i, codes)
    return wall, cpu


def timed_loop(cli, workload, seconds: float) -> list[float]:
    """Iterations until the next one would overrun ``seconds`` (at least one)."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_iteration(cli, workload, len(times))[0])
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def traced_loop(cli, workload, seconds: float, tracer):
    """An untimed warm-up iteration, then untraced and traced iterations in
    turn, so that first-call costs and slow drift of the host fall on
    neither side; returns both wall lists and the traced CPU seconds."""
    run_iteration(cli, workload, 0)
    untraced, traced, cpu = [], [], []
    start = time.perf_counter()
    while True:
        i = 1 + 2 * len(untraced)
        untraced.append(run_iteration(cli, workload, i)[0])
        tracer.iteration = i + 1
        tracer.install()
        try:
            wall, cpu_s = run_iteration(cli, workload, i + 1)
        finally:
            tracer.uninstall()
        traced.append(wall)
        cpu.append(cpu_s)
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced, cpu


def run_one(args) -> int:
    _load_program()
    import workloads
    from tracer import COUNTERS, LAYERS, Tracer, per_layer_metric_names

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            workload.setup()
            cli = fresh_import()
            setup_times.append(time.perf_counter() - start)

        traced_wall, tracer = [], None
        if args.trace:
            tracer = Tracer()
            wall, traced_wall, traced_cpu = traced_loop(cli, workload, args.seconds, tracer)
        else:
            wall = timed_loop(cli, workload, args.seconds)
        checks = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.attempted
    failed = min(len(workload.failed), attempted)
    correct = attempted > 0 and all(ok for _, ok, _ in checks)
    wall_s = statistics.median(wall)
    if args.trace:
        per_layer = tracer.metrics(len(traced_wall))
        per_layer["run.cpu_s"] = statistics.fmean(traced_cpu)
        # Per-layer numbers are totals over the traced iterations divided by
        # their count, so they compare with mean iteration times.
        untraced_mean = statistics.fmean(wall)
        per_layer["tracing.overhead_s"] = statistics.fmean(traced_wall) - untraced_mean
        layers_s = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        per_layer["tracing.coverage"] = layers_s / untraced_mean
        units = dict(per_layer_metric_names())
        metrics = {name: per_layer[name] for name in units}
        tracer.write(OUT / f"{tag}.spans.jsonl")
    else:
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        }

    env = environment(workload.size)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(env))
    print(f"iterations untraced={len(wall)} traced={len(traced_wall)} "
          f"setup_rounds={SETUP_ROUNDS}")
    for name, ok, detail in checks:
        print(f"check {name} {'pass' if ok else 'FAIL'} {detail}")
    if args.trace:
        coverage_ok = abs(per_layer["tracing.coverage"] - 1.0) <= COVERAGE_BOUND
        print(f"note tracing.coverage {'within' if coverage_ok else 'OUTSIDE'} "
              f"{COVERAGE_BOUND:.0%} of 1")
        for name, _unit, description in COUNTERS:
            if description.startswith("computed"):
                print(f"note {name} is {description}, not measured")
        for name, reason in sorted(tracer.probe_errors.items()):
            print(f"note probe {name} skipped: {reason}")
    print(f"metric failed_frac {failed / attempted if attempted else 1.0:.6g} ratio")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_s": setup_times, "wall_s": wall,
              "traced_wall_s": traced_wall, "checks": checks, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0  # a failed check shows as "correct": false in the result


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    _require_sources()
    import workloads

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit code {proc.returncode})")
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_t3", "sim_known", "cv_grid", "leuk_fit", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
