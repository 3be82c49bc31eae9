"""Seconds-long smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("random_field", "fem3d", "ensemble", "grouping", "hier_grid", "harness")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@lru_cache(maxsize=None)
def _result(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_traced_total(workload):
    m = {name: v["value"] for name, v in _result(workload, 1)["metrics"].items()}
    parts = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.bench.self_s"] + m["trace.hooks_s"]
    assert m["trace.total_s"] > 0
    assert parts == pytest.approx(m["trace.total_s"], rel=1e-9, abs=1e-12)


def test_base_curve_feeds_uqgroup_run(tmp_path):
    proc = _bench("--base-curve-out", str(tmp_path), "--tiny")
    assert proc.returncode == 0, proc.stderr
    curve = tmp_path / "base_curve_m4.csv"
    sys.path.insert(0, str(ROOT / "src"))
    from uqgroup.cli import main

    out = tmp_path / "run"
    code = main(["run", "--problem", "pde_test1", "--mesh-cells", "4", "--n-max", "60",
                 "--base-curve", str(curve), "--out-dir", str(out)])
    assert code in (0, 2)
    report = json.loads((out / "manifest.json").read_text())["reports"][0]
    assert set(report["predicted_speedups"]) == set(report["work_ratios"])


def test_missing_package_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "tracing.py", "workloads.py"):
        (tmp_path / "bench" / f).write_text((ROOT / "bench" / f).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
