"""Span tracing of uqgroup's layers, installed from outside the package.

`installed(tracer, package)` replaces every public function and public method
of each layer module (the names in the module's ``__all__``) by a wrapper that
records a span, in every ``uqgroup`` namespace that holds a reference to it,
and restores the originals on exit.  Nothing inside ``src/`` is edited.

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are aggregated as they close: per span name the call count,
the total and self time, and every duration (for percentiles).  Counters are
computed by hooks from public state (arguments, results and public
attributes) after the wrapped call returns; a hook's own run time is booked to
``trace.hooks_s`` and excluded from the enclosing span's self time, so the
self times of all spans plus the hook time add up to the root span exactly.

Layers are the modules below; ``cli`` is a thin front end and is not traced.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from statistics import quantiles
from time import perf_counter

import numpy as np

LAYERS = ("random_field", "fem3d", "ensemble", "grouping", "hier_grid", "harness")

# Constructors that do real work get a span too; other dunders are not traced.
CONSTRUCTORS = {"StructuredMesh": "__post_init__"}

ROOT = "bench.unit"


class Tracer:
    """In-memory span aggregator for one single-threaded traced unit of work."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.hooks_s = 0.0
        self.last_assembled = None  # (matrix, samples) of the latest assemble()
        self._open: list[list[float]] = []  # child-time accumulator per open span

    def span(self, name: str, fn, *args, **kwargs):
        child = [0.0]
        self._open.append(child)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self._open.pop()
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[0]
            self.durations[name].append(dur)
            if self._open:
                self._open[-1][0] += dur

    def run_hook(self, hook, args, kwargs, result) -> None:
        start = perf_counter()
        hook(self, args, kwargs, result)
        dur = perf_counter() - start
        self.hooks_s += dur
        if self._open:
            self._open[-1][0] += dur

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.calls if n.startswith(prefix)]

    def self_of(self, names) -> float:
        return sum((self.self_time[n] for n in names), 0.0)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# -- counter hooks: (tracer, args, kwargs, result) ---------------------------


def _eval_a_hook(t, args, kwargs, result) -> None:
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    t.counts["eval_a.lane_points"] += int(result.shape[0]) * len(points)


def _assemble_hook(t, args, kwargs, result) -> None:
    t.counts["assemble.lanes"] += result.matrix.width
    t.last_assembled = (result.matrix, result.samples)


def _spmv_hook(t, args, kwargs, result) -> None:
    mat = args[0]
    S, n, nnz = mat.width, mat.n_rows, mat.col_indices.size
    t.counts["spmv.lane_nnz"] += S * nnz
    # Minimal traffic of a shared-graph SpMV: lane values, one copy of the
    # graph, and each lane's x read and y write once.  Computed, not measured.
    t.counts["spmv.bytes"] += 8 * S * nnz + 4 * nnz + 4 * (n + 1) + 16 * S * n


def _pcg_hook(t, args, kwargs, result) -> None:
    mat = _arg(args, kwargs, 0, "mat")
    its = result.iterations_per_lane
    t.counts["lane_iters.executed"] += mat.width * int(result.ensemble_iterations)
    real = np.arange(mat.width)
    if t.last_assembled is not None and t.last_assembled[0] is mat:
        # Padding replicates a sample; only its first lane is useful work.
        _, real = np.unique(t.last_assembled[1], axis=0, return_index=True)
    t.counts["lane_iters.useful"] += int(its[real].sum())
    t.counts["unconverged_lanes"] += int(np.count_nonzero(~result.converged_per_lane))
    t.counts["frozen_lanes"] += int(np.count_nonzero(result.frozen_lanes))


def _fit_hook(t, args, kwargs, result) -> None:
    grid = args[0]
    totals = np.array([node.total_level for node in grid.nodes])
    front = Counter(node.total_level for node in grid.frontier)
    # Each frontier cohort of total level l is fitted against all nodes below l.
    t.counts["fit.point_nodes"] += sum(k * int(np.count_nonzero(totals < l)) for l, k in front.items())


def _eval_many_hook(t, args, kwargs, result) -> None:
    grid = args[0]
    n_nodes = _arg(args, kwargs, 3, "n_nodes")
    t.counts["eval.point_nodes"] += len(result) * (len(grid) if n_nodes is None else int(n_nodes))


def _emit_hook(t, args, kwargs, result) -> None:
    t.counts["emit.bytes"] += sum(Path(p).stat().st_size for p in result.values())


HOOKS = {
    "random_field.KLDiffusionField.eval_a_batch": _eval_a_hook,
    "fem3d.assemble": _assemble_hook,
    "ensemble.EnsembleCsrMatrix.spmv": _spmv_hook,
    "ensemble.ensemble_pcg": _pcg_hook,
    "hier_grid.HierGrid.compute_surpluses": _fit_hook,
    "hier_grid.HierGrid.eval_many": _eval_many_hook,
    "harness.emit_reports": _emit_hook,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if hook is not None:
            tracer.run_hook(hook, args, kwargs, result)
        return result

    return traced


def _targets(package):
    """Yield (span name, owner, attribute) for every traced callable."""
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for public in module.__all__:
            obj = getattr(module, public)
            if inspect.isfunction(obj):
                yield f"{layer}.{public}", module, public
            elif inspect.isclass(obj):
                for attr, val in list(vars(obj).items()):
                    if attr.startswith("_") and CONSTRUCTORS.get(public) != attr:
                        continue
                    if isinstance(val, (classmethod, staticmethod)) or inspect.isfunction(val):
                        yield f"{layer}.{public}.{attr}", obj, attr


@contextmanager
def installed(tracer: Tracer, package):
    """Trace every layer of `package` (an imported uqgroup) inside the block."""
    namespaces = [
        m for n, m in list(sys.modules.items())
        if n == package.__name__ or n.startswith(package.__name__ + ".")
    ]
    undo = []
    try:
        for name, owner, attr in _targets(package):
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(_wrap(tracer, name, raw.__func__)))
                undo.append((owner, attr, raw))
            elif inspect.isclass(owner):
                setattr(owner, attr, _wrap(tracer, name, raw))
                undo.append((owner, attr, raw))
            else:
                traced = _wrap(tracer, name, raw)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is raw]:
                        setattr(ns, key, traced)
                        undo.append((ns, key, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# -- per-layer metrics -------------------------------------------------------

# name -> unit, in report order.  Every traced run emits all of them; a layer
# a workload never calls reports zero time and zero counts.
PER_LAYER_UNITS = {
    "random_field.build_field.s": "s",
    "random_field.eval_a.self_s": "s",
    "random_field.eval_a.lane_points": "count",
    "random_field.indicator.self_s": "s",
    "random_field.indicator.calls": "count",
    "fem3d.mesh.s": "s",
    "fem3d.assemble.self_s": "s",
    "fem3d.assemble.lanes": "count",
    "fem3d.assemble.ms_per_lane": "ms",
    "ensemble.spmv.self_s": "s",
    "ensemble.spmv.calls": "count",
    "ensemble.spmv.lane_nnz": "count",
    "ensemble.spmv.ns_per_lane_nnz": "ns",
    "ensemble.spmv.gb_per_s_computed": "GB/s",
    "ensemble.pcg.self_s": "s",
    "ensemble.pcg.calls": "count",
    "ensemble.pcg_ms.p50": "ms",
    "ensemble.pcg_ms.p90": "ms",
    "ensemble.us_per_lane_iter": "us",
    "ensemble.lane_iters.executed": "count",
    "ensemble.lane_iters.useful": "count",
    "ensemble.useful_frac": "fraction",
    "ensemble.unconverged_lanes": "count",
    "ensemble.frozen_lanes": "count",
    "ensemble.count_mismatch_lanes": "count",
    "grouping.plan.self_s": "s",
    "grouping.plan.calls": "count",
    "grouping.compute_R.self_s": "s",
    "hier_grid.fit.self_s": "s",
    "hier_grid.fit.point_nodes": "count",
    "hier_grid.fit.ns_per_point_node": "ns",
    "hier_grid.eval.self_s": "s",
    "hier_grid.eval.point_nodes": "count",
    "hier_grid.eval.ns_per_point_node": "ns",
    "hier_grid.refine.self_s": "s",
    "hier_grid.serialize.self_s": "s",
    "harness.loop.self_s": "s",
    "harness.emit.s": "s",
    "harness.emit.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.bench.self_s": "s",
    "trace.hooks_s": "s",
    "trace.total_s": "s",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, overhead_frac: float, count_mismatch_lanes: int) -> dict:
    """Derive the per-layer metrics of one traced unit: name -> value."""
    spmv = "ensemble.EnsembleCsrMatrix.spmv"
    pcg = "ensemble.ensemble_pcg"
    fit = ["hier_grid.HierGrid.compute_surpluses"]
    evals = ["hier_grid.HierGrid.eval_many", "hier_grid.HierGrid.eval_surrogate"]
    serialize = ["hier_grid.HierGrid.to_json_dict", "hier_grid.HierGrid.from_json_dict"]
    plans = ["grouping.group_natural", "grouping.group_by_key", "grouping.group_oracle"]
    eval_a = [f"random_field.KLDiffusionField.{m}" for m in ("eval_a_batch", "eval_a", "a_hat")]
    c = t.counts

    spmv_self = t.self_time[spmv]
    pcg_self = t.self_of(t.names("ensemble.")) - spmv_self  # the loop around SpMV
    fit_self, eval_self = t.self_of(fit), t.self_of(evals)
    pcg_ms = sorted(d * 1e3 for d in t.durations[pcg])
    if len(pcg_ms) >= 2:
        deciles = quantiles(pcg_ms, n=10)
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = pcg_ms[0] if pcg_ms else 0.0
    m = {
        "random_field.build_field.s": t.total["random_field.build_field"],
        "random_field.eval_a.self_s": t.self_of(eval_a),
        "random_field.eval_a.lane_points": c["eval_a.lane_points"],
        "random_field.indicator.self_s": t.self_time["random_field.anisotropy_indicator"],
        "random_field.indicator.calls": t.calls["random_field.anisotropy_indicator"],
        "fem3d.mesh.s": t.total["fem3d.StructuredMesh.__post_init__"],
        "fem3d.assemble.self_s": t.self_time["fem3d.assemble"],
        "fem3d.assemble.lanes": c["assemble.lanes"],
        "fem3d.assemble.ms_per_lane": _ratio(t.self_time["fem3d.assemble"] * 1e3, c["assemble.lanes"]),
        "ensemble.spmv.self_s": spmv_self,
        "ensemble.spmv.calls": t.calls[spmv],
        "ensemble.spmv.lane_nnz": c["spmv.lane_nnz"],
        "ensemble.spmv.ns_per_lane_nnz": _ratio(spmv_self * 1e9, c["spmv.lane_nnz"]),
        "ensemble.spmv.gb_per_s_computed": _ratio(c["spmv.bytes"] / 1e9, spmv_self),
        "ensemble.pcg.self_s": pcg_self,
        "ensemble.pcg.calls": t.calls[pcg],
        "ensemble.pcg_ms.p50": p50,
        "ensemble.pcg_ms.p90": p90,
        "ensemble.us_per_lane_iter": _ratio(t.total[pcg] * 1e6, c["lane_iters.executed"]),
        "ensemble.lane_iters.executed": c["lane_iters.executed"],
        "ensemble.lane_iters.useful": c["lane_iters.useful"],
        "ensemble.useful_frac": _ratio(c["lane_iters.useful"], c["lane_iters.executed"]),
        "ensemble.unconverged_lanes": c["unconverged_lanes"],
        "ensemble.frozen_lanes": c["frozen_lanes"],
        "ensemble.count_mismatch_lanes": count_mismatch_lanes,
        "grouping.plan.self_s": t.self_of(plans),
        "grouping.plan.calls": sum(t.calls[n] for n in plans),
        "grouping.compute_R.self_s": t.self_time["grouping.compute_R"],
        "hier_grid.fit.self_s": fit_self,
        "hier_grid.fit.point_nodes": c["fit.point_nodes"],
        "hier_grid.fit.ns_per_point_node": _ratio(fit_self * 1e9, c["fit.point_nodes"]),
        "hier_grid.eval.self_s": eval_self,
        "hier_grid.eval.point_nodes": c["eval.point_nodes"],
        "hier_grid.eval.ns_per_point_node": _ratio(eval_self * 1e9, c["eval.point_nodes"]),
        # Everything else in the grid: refinement, children, node bookkeeping.
        "hier_grid.refine.self_s": t.self_of(t.names("hier_grid.")) - fit_self - eval_self - t.self_of(serialize),
        "hier_grid.serialize.self_s": t.self_of(serialize),
        "harness.loop.self_s": t.self_time["harness.adaptive_run"],
        "harness.emit.s": t.total["harness.emit_reports"],
        "harness.emit.bytes": c["emit.bytes"],
        **{f"{layer}.self_s": t.self_of(t.names(layer + ".")) for layer in LAYERS},
        "trace.bench.self_s": t.self_time[ROOT],
        "trace.hooks_s": t.hooks_s,
        "trace.total_s": t.total[ROOT],
        "trace.overhead_frac": overhead_frac,
    }
    return m
