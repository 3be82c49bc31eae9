#!/usr/bin/env python3
"""uqgroup benchmark: three workloads, end-to-end metrics or per-layer traces.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload pde-adaptive --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40      # each in its own process
    python3 bench/run.py --base-curve-out curves/         # ungated base(S) sweep

`--trace 0` times the workload with tracing off and reports the end-to-end
metrics; `--trace 1` runs one traced unit between two untraced ones and
reports the per-layer metrics (see tracing.py).  Lines before the last describe the
machine and print every metric by name and unit; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code is
0 when every output check passed, 1 when one failed (the result is still
printed) and 2 when the benchmark could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

# One BLAS thread: steadier timings on a small shared machine, and rounding
# that does not depend on the thread count.
BLAS_THREADS = 1
SETUP_SAMPLES = 3  # set-up samples before the first unit and after each unit
SETUP_WARM_S = 0.2  # untimed set-ups first, for at least this long
SETUP_SAMPLE_S = 0.1  # a set-up sample repeats the set-up for at least this long
MIN_UNITS = 2  # the byte-identity check needs two units

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("pde-adaptive", "sg-refine", "ensemble-width")

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}
# Printed for reading, not part of the JSON result: ensemble-width's width
# comparison and the failure share (the JSON carries attempted and failed).
EXTRA_UNITS = {
    "scalar_s": "s",
    "base_speedup.S16": "ratio",
    "net_speedup.S16": "ratio",
    "ensemble.count_mismatch_lanes": "count",
    "failed_frac": "fraction",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS + ("all",))
    mode.add_argument("--base-curve-out", type=Path,
                      help="directory for base(S) CSVs over S=1..32 on 16^3 and 32^3 meshes")
    p.add_argument("--seed", type=int, default=0, help="seeds the ensemble-width sample batch")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p


def _import_checkout_package():
    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    import uqgroup

    if Path(uqgroup.__file__).resolve().parent != (src / "uqgroup").resolve():
        raise ImportError(f"uqgroup was imported from {uqgroup.__file__}, not from {src}")
    return uqgroup


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _warm_setup(work):
    """Untimed set-ups, and how often a set-up sample repeats the set-up."""
    start = perf_counter()
    work.setup()  # the first also fills the page cache and lazy imports
    while perf_counter() - start < SETUP_WARM_S:
        work.setup()
    start = perf_counter()
    state = work.setup()
    return state, max(1, math.ceil(SETUP_SAMPLE_S / (perf_counter() - start)))


def _setup_samples(work, repeat: int, samples: list) -> None:
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        start = perf_counter()
        for _ in range(repeat):
            work.setup()
        samples.append((perf_counter() - start) / repeat)


def measure(work, seconds: float, outcome) -> tuple[dict, dict]:
    """End-to-end metrics of one run with tracing off, and the printed extras.

    Set-up samples are taken between the units, so that they span the same
    stretch of time as the units and a short burst of load on the machine
    moves few of them.
    """
    state, repeat = _warm_setup(work)
    setups: list[float] = []
    units = []
    start = perf_counter()
    _setup_samples(work, repeat, setups)
    while True:
        gc.collect()  # garbage of the previous unit is not this unit's cost
        units.append(work.unit(state, outcome))
        _setup_samples(work, repeat, setups)
        elapsed = perf_counter() - start
        if len(units) >= MIN_UNITS and elapsed * (1 + 1 / len(units)) > seconds:
            break
    metrics = {
        "setup_s": median(setups),
        "study_s": median(u["study_s"] for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {}
    if "scalar_s" in units[0]:
        for key in ("scalar_s", "base_speedup.S16", "net_speedup.S16"):
            extras[key] = median(u[key] for u in units)
        extras["ensemble.count_mismatch_lanes"] = max(u["count_mismatch_lanes"] for u in units)
    print(f"info units={len(units)} setup_samples={len(setups)} measured_s={elapsed!r} "
          f"unit_s={[round(u['study_s'], 3) for u in units]}")
    return metrics, extras


def traced(work, outcome, uq, tracing) -> dict:
    """Per-layer metrics of one traced unit, bracketed by two untraced ones."""
    work.whole(outcome)  # warm-up, also the first of the byte-identity comparison

    def untraced() -> float:
        gc.collect()
        start = perf_counter()
        work.whole(outcome)
        return perf_counter() - start

    before = untraced()
    gc.collect()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, uq):
        result = tracer.span(tracing.ROOT, work.whole, outcome)
    # Averaging the units either side cancels a linear drift in machine speed.
    untraced_s = (before + untraced()) / 2
    overhead = (tracer.total[tracing.ROOT] - untraced_s) / untraced_s
    return tracing.layer_metrics(tracer, overhead, result.get("count_mismatch_lanes", 0))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def sweep(args, workloads, env) -> int:
    out = args.base_curve_out
    out.mkdir(parents=True, exist_ok=True)
    meshes = (4,) if args.tiny else (16, 32)
    for cells in meshes:
        curve = workloads.base_curve(cells, batch=32, seed=args.seed)
        path = out / f"base_curve_m{cells}.csv"
        comment = f"base(S), pde_test1, {cells}^3 mesh, 32 samples, seed {args.seed}; {json.dumps(env)}"
        workloads.write_base_curve(path, curve, comment)
        print(f"{path}: " + ", ".join(f"S={S}: {v:.3f}" for S, v in curve))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    try:
        uq = _import_checkout_package()
    except ImportError as err:
        print(f"bench: cannot import uqgroup from this checkout: {err}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment()
    print("env " + json.dumps(env), flush=True)
    if args.base_curve_out is not None:
        return sweep(args, workloads, env)

    out_root = CHECKOUT / ".bench_out"
    out_dir = out_root / f"{args.workload}-{os.getpid()}"
    outcome = workloads.Outcome()
    work = workloads.make(args.workload, args.seed, args.tiny, out_dir)
    try:
        if args.trace:
            metrics, extras = traced(work, outcome, uq, tracing), {}
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, extras = measure(work, args.seconds, outcome)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_root.is_dir() and not any(out_root.iterdir()):
            out_root.rmdir()

    extras["failed_frac"] = outcome.failed / outcome.attempted
    for name, value in list(metrics.items()) + list(extras.items()):
        unit = units.get(name) or EXTRA_UNITS[name]
        print(f"metric {args.workload} {name} = {value!r} {unit}")
    for problem in outcome.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
