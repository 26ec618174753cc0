"""Outside-in span tracer for the slda layers.

The package itself has no spans yet, so the tracer wraps each layer's
functions from outside. Modules import with ``from .x import y``, which
copies the function object into the importer's namespace, so a wrapper
is bound at every import site (every ``slda`` module attribute that is
the original function), not only in the defining module. Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

Spans (name, start, end, parent, iteration) are kept in memory and
written out once, at the end of a run. Counters marked "computed" are
derived from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

PACKAGE = "slda"
LAYERS = ("numerics", "estimation", "classify", "evaluate", "simulate", "io", "cli")

# Private functions that mark a unit of work worth its own span. A later
# version of the package may drop any of them; the tracer skips names
# it cannot find and reports them as never called.
PRIVATE = {
    "numerics": ("_symmetrize",),
    "simulate": ("_run_replicate", "_draw_dataset"),
    "cli": ("_read_feature_csv",),
}

# Functions whose self time and call count are reported per layer.
REPORTED = {
    "numerics": ("cholesky_spd", "eigen_sym", "spd_solve", "sample_mvn", "sample_mvt",
                 "std_normal_cdf", "substream", "_symmetrize"),
    "estimation": ("summarize", "class_means", "threshold_covariance", "threshold_delta",
                   "invert_sparse_sym", "pseudo_inverse_sym", "InverseOperator.apply",
                   "SparseSymMatrix.densify"),
    "classify": ("build_slda", "build_lda", "build_lda_known_sigma", "build_oracle",
                 "classify", "classify_many"),
    "evaluate": ("conditional_rate", "optimal_rate", "loocv_rate", "cv_grid_search"),
    "simulate": ("run_scenario", "_run_replicate", "_draw_dataset", "records_to_csv"),
    "io": ("read_dataset_csv", "read_model", "write_model", "fmt_float"),
    "cli": ("main", "cmd_fit", "cmd_predict", "cmd_cv", "cmd_simulate", "_read_feature_csv"),
}

MC_ENTRY_POINTS = ("evaluate.conditional_rate_mc", "evaluate.conditional_rate_mc_joint")

# (metric, unit, description) of every counter the probes below fill.
COUNTERS = (
    ("estimation.summarize.flops", "flop", "computed n*p^2 per summarize call"),
    ("estimation.threshold_covariance.kept_offdiag", "count", "kept upper-triangle entries"),
    ("estimation.threshold_covariance.bytes", "B",
     "computed: triu index arrays, gathered values, mask, kept triplets, diagonal"),
    ("estimation.invert_sparse_sym.eigen_floor", "count", "inverses that fell back to the floor"),
    ("estimation.invert_sparse_sym.floored", "count", "eigenvalues raised to the floor"),
    ("estimation.invert_sparse_sym.pd_ratio", "ratio", "share of inverses on the Cholesky path"),
    ("numerics.cholesky_spd.flops", "flop", "computed dim^3/3"),
    ("numerics.eigen_sym.flops", "flop", "computed 9*dim^3 (eigensolver with vectors)"),
    ("numerics.sample.draws", "count", "computed scalar draws of sample_mvn/sample_mvt"),
    ("evaluate.mc.self_s", "s", "self time of the Monte Carlo rate entry points"),
    ("evaluate.mc.draws", "count", "computed scalar draws of the Monte Carlo rates"),
    ("evaluate.mc.bytes", "B", "computed bytes of the Monte Carlo normal matrices"),
    ("evaluate.cv.points", "count", "grid points scored"),
    ("evaluate.cv.forced_worst", "count", "grid points scored 1.0 (a swallowed fit error)"),
    ("evaluate.cv.fits_per_point", "count", "build_slda calls per grid point"),
    ("simulate.replicates", "count", "replicates run"),
    ("simulate.failed", "count", "replicates with an error record"),
    ("io.read.bytes", "B", "bytes of the files the program read"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int  # -1 for a root span
    iteration: int
    start: float
    end: float = 0.0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(tracer, span, args, kwargs, result):
    tracer.counts["io.read.bytes"] += os.path.getsize(args[0])


def _summarize(tracer, span, args, kwargs, result):
    n, p = args[0].features.shape
    tracer.counts["estimation.summarize.flops"] += n * p * p


def _threshold(tracer, span, args, kwargs, result):
    p = args[0].shape[0]
    pairs = p * (p - 1) // 2
    kept = result.nnz_offdiag
    tracer.counts["estimation.threshold_covariance.kept_offdiag"] += kept
    tracer.counts["estimation.threshold_covariance.bytes"] += 25 * pairs + 24 * kept + 8 * p


def _invert(tracer, span, args, kwargs, result):
    tracer.counts["invert"] += 1
    tracer.counts["invert.pd"] += int(result.pd_flag)
    tracer.counts["estimation.invert_sparse_sym.eigen_floor"] += int(result.kind == "eigen_floor")
    tracer.counts["estimation.invert_sparse_sym.floored"] += result.floor_count


def _cholesky(tracer, span, args, kwargs, result):
    tracer.counts["numerics.cholesky_spd.flops"] += result.dim ** 3 / 3.0


def _eigen(tracer, span, args, kwargs, result):
    tracer.counts["numerics.eigen_sym.flops"] += 9.0 * result.eigenvalues.shape[0] ** 3


def _sample(extra_per_row):
    def probe(tracer, span, args, kwargs, result):
        rows = result.shape[0] if result.ndim == 2 else 1
        tracer.counts["numerics.sample.draws"] += result.size + extra_per_row * rows
    return probe


def _monte_carlo(tracer, span, args, kwargs, result):
    pop = _arg(args, kwargs, 1, "pop")
    n_mc = int(_arg(args, kwargs, 2, "n_mc"))
    normals = pop.n_classes * n_mc * pop.p
    scales = pop.n_classes * n_mc if pop.distribution != "normal" else 0
    tracer.counts["evaluate.mc.draws"] += normals + scales
    tracer.counts["evaluate.mc.bytes"] += 8 * normals


def _cv(tracer, span, args, kwargs, result):
    points = len(result.scores)
    tracer.counts["evaluate.cv.points"] += points
    tracer.counts["evaluate.cv.forced_worst"] += sum(1 for s in result.scores if s == 1.0)
    tracer.counts["cv.fits"] += sum(1 for s in tracer.spans[span.id + 1:]
                                    if s.name == "classify.build_slda")


def _scenario(tracer, span, args, kwargs, result):
    records = result[0]
    tracer.counts["simulate.replicates"] += len(records)
    tracer.counts["simulate.failed"] += sum(1 for r in records if r.error is not None)


PROBES = {
    "estimation.summarize": _summarize,
    "estimation.threshold_covariance": _threshold,
    "estimation.invert_sparse_sym": _invert,
    "numerics.cholesky_spd": _cholesky,
    "numerics.eigen_sym": _eigen,
    "numerics.sample_mvn": _sample(0),
    "numerics.sample_mvt": _sample(1),
    "evaluate.conditional_rate_mc": _monte_carlo,
    "evaluate.conditional_rate_mc_joint": _monte_carlo,
    "evaluate.cv_grid_search": _cv,
    "simulate.run_scenario": _scenario,
    "io.read_dataset_csv": _file_bytes,
    "io.read_model": _file_bytes,
    "io.read_matrix": _file_bytes,
    "io.read_scenario": _file_bytes,
    "cli._read_feature_csv": _file_bytes,
}


def per_layer_metric_names():
    """Every per-layer metric the tracer reports, as (name, unit)."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        for fn in REPORTED[layer]:
            names += [(f"{layer}.{fn}.self_s", "s"), (f"{layer}.{fn}.calls", "count")]
    names += [(name, unit) for name, unit, _ in COUNTERS]
    names += [("run.cpu_s", "s"), ("tracing.overhead_s", "s"), ("tracing.coverage", "ratio")]
    return names


def _layer_targets(module):
    """Public functions and public methods of public classes defined in
    ``module``, plus the listed private functions, as (name, owner, attr)."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for attr, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and (not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
            out.append((f"{layer}.{attr}", module, attr))
        elif inspect.isclass(value) and not attr.startswith("_"):
            for meth, fn in vars(value).items():
                if inspect.isfunction(fn) and not meth.startswith("_"):
                    out.append((f"{layer}.{attr}.{meth}", value, meth))
    return out


class Tracer:
    """In-memory span recorder that patches the slda layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.iteration = 0
        self.probe_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else -1,
                        self.iteration, perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    probe(self, span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError) as exc:
                    # The package changed shape under the probe; the counter
                    # stays short and the run says so instead of failing.
                    self.probe_errors.setdefault(name, repr(exc))
            return result

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, owner, attr in _layer_targets(module):
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original)
                if inspect.isclass(owner):
                    self._patch(owner, attr, original, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Self seconds and call counts by span name.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap, since one thread runs.
        """
        children = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start
        self_s = defaultdict(float)
        calls = Counter()
        for s in self.spans:
            self_s[s.name] += (s.end - s.start) - children[s.id]
            calls[s.name] += 1
        return self_s, calls

    def metrics(self, iterations: int) -> dict[str, float]:
        """Per-layer metrics, each per traced iteration, except
        tracing.* and run.cpu_s, which the caller adds."""
        self_s, calls = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(layer + ".")) / iterations
            for fn in REPORTED[layer]:
                name = f"{layer}.{fn}"
                out[f"{name}.self_s"] = self_s.get(name, 0.0) / iterations
                out[f"{name}.calls"] = calls.get(name, 0) / iterations
        for name, _unit, _ in COUNTERS:
            out[name] = self.counts.get(name, 0.0) / iterations
        inverses = self.counts.get("invert", 0.0)
        out["estimation.invert_sparse_sym.pd_ratio"] = (
            self.counts.get("invert.pd", 0.0) / inverses if inverses else 0.0)
        out["evaluate.mc.self_s"] = sum(self_s.get(n, 0.0) for n in MC_ENTRY_POINTS) / iterations
        points = self.counts.get("evaluate.cv.points", 0.0)
        out["evaluate.cv.fits_per_point"] = self.counts.get("cv.fits", 0.0) / points if points else 0.0
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
