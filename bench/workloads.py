"""The benchmark's workloads, their output checks and the base(S) sweep.

Each workload has a `setup()` (the problem set-up before the study loop,
timed on its own as `setup_s`) and a `unit(state, outcome)` that runs one
timed unit of work, checks its outputs into `outcome` and returns its
timings.  Every call into the library goes through the `uq` package namespace
at call time, so a tracer installed over that namespace sees it.

Why these three workloads, and which layers each one must leave unmoved, is
recorded in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.stats import qmc

import uqgroup as uq


@dataclass
class Outcome:
    """Operations attempted and failed: sample solves and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def solves(self, count: int, failed: int, what: str) -> None:
        self.attempted += count
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{failed} of {count} {what}")


def problem_setup(config: uq.RunConfig):
    """The harness's own problem set-up, as `adaptive_run` does it.

    For a PDE preset that is the KL field, the mesh and the mode values at
    the quadrature points; the object also carries the sample box.
    """
    harness = uq.harness
    return harness._PdeProblem(config) if config.is_pde else harness._AnalyticProblem(config)


_UNCONVERGED_NOTE = re.compile(r"(\d+) lane\(s\) hit maxit")


class Study:
    """`adaptive_run` then `emit_reports`, as `uqgroup run` does it."""

    def __init__(self, config: uq.RunConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.digests: dict[str, str] | None = None
        self.units = 0

    def setup(self):
        """What `adaptive_run` does before its loop: the problem, then the initial grid."""
        problem = problem_setup(self.config)
        grid = uq.HierGrid(self.config.n_dims, domain=problem.box)
        grid.add_initial_levels(self.config.initial_level)
        return problem

    def unit(self, state, outcome: Outcome) -> dict:
        out = self.out_dir / f"unit{self.units}"
        self.units += 1
        start = perf_counter()
        report = uq.adaptive_run(self.config)
        paths = uq.emit_reports(report, out)
        study_s = perf_counter() - start
        self.check(report, outcome)
        digests = {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in ("table", "manifest")}
        if self.digests is None:
            self.digests = digests
        else:
            outcome.record(digests == self.digests, "r_table.csv/manifest.json differ between runs")
        shutil.rmtree(out)
        return {"study_s": study_s}

    def whole(self, outcome: Outcome) -> dict:
        """One unit with its own set-up: `adaptive_run` sets the problem up itself."""
        return self.unit(None, outcome)

    def check(self, report: uq.RunReport, outcome: Outcome) -> None:
        cfg = self.config
        unconverged = sum(int(m.group(1)) for n in report.notes for m in _UNCONVERGED_NOTE.finditer(n))
        outcome.solves(report.n_samples_total, unconverged, "samples unconverged")
        for strat in cfg.strategies:
            r_levels = [p.work_ratio for lv in report.levels for p in lv.plans if p.strategy == strat]
            ok = report.work_ratios[strat] >= 1.0 and all(r >= 1.0 for r in r_levels)
            outcome.record(ok, f"R({strat}) < 1")
        if "its" in cfg.strategies:
            for lv in report.levels:
                ratios = {p.strategy: p.work_ratio for p in lv.plans}
                ok = all(ratios["its"] <= r for r in ratios.values())
                outcome.record(ok, f"level {lv.level}: R(its) above another strategy")
        outcome.record(report.n_samples_total == cfg.n_max,
                       f"{report.n_samples_total} samples, budget {cfg.n_max}")


def seeded_batch(batch: int, box, seed: int) -> np.ndarray:
    """The all-ones corner of the sample box, then seeded Latin-hypercube samples.

    The corner is a lane at least as slow as any other (it maximises every
    mode's amplitude), so the lockstep cost of a wide ensemble does not swing
    with the seed; the Latin hypercube keeps the summed cost of the other
    lanes within a few percent across seeds.
    """
    lo, hi = np.array(box, dtype=float).T
    lhs = qmc.LatinHypercube(d=len(box), seed=seed).random(batch - 1)
    return np.vstack([hi[None, :], lo + (hi - lo) * lhs])


class EnsembleWidth:
    """One seeded batch solved lane by lane at S=1, then as one ensemble."""

    def __init__(self, config: uq.RunConfig, batch: int, seed: int):
        self.config = config
        # Untimed; the box is the problem's own.
        self.problem = self.setup()
        self.samples = seeded_batch(batch, self.problem.box, seed)
        self.pairs = 0

    def setup(self):
        return problem_setup(self.config)

    def whole(self, outcome: Outcome) -> dict:
        """One unit with its own set-up, always in the same order."""
        return self._pair(self.setup(), outcome, scalar_first=True)

    def _solve(self, state, samples, outcome: Outcome):
        """Assemble and solve one ensemble; returns (seconds, result).

        Only assembly and PCG are timed; the checks run after the clock stops.
        """
        solver = self.config.solver
        start = perf_counter()
        system = uq.assemble(state.mesh, state.field, samples, state.mode_vals)
        result = uq.ensemble_pcg(system.matrix, system.rhs, tol=solver.tol, maxit=solver.maxit)
        seconds = perf_counter() - start
        converged = result.converged_per_lane
        outcome.solves(len(samples), int(np.count_nonzero(~converged)), "lanes unconverged")
        mat = system.matrix
        n = mat.n_rows
        for s in range(mat.width):
            # Independent of the solver: scipy's product on the lane's own CSR.
            lane = sp.csr_matrix((mat.values[s], mat.col_indices, mat.row_offsets), shape=(n, n))
            b = system.rhs[s]
            residual = b - lane @ result.solution[s]
            outcome.record(
                bool(np.linalg.norm(residual) <= solver.tol * np.linalg.norm(b)),
                f"lane {s} of a width-{mat.width} solve fails the residual check",
            )
        return seconds, result

    def scalar_pass(self, state, outcome):
        seconds, executed, iters = 0.0, 0, []
        for i in range(len(self.samples)):
            dt, result = self._solve(state, self.samples[i : i + 1], outcome)
            seconds += dt
            executed += int(result.ensemble_iterations)
            iters.append(int(result.iterations_per_lane[0]))
        return seconds, executed, np.array(iters)

    def ensemble_pass(self, state, outcome):
        seconds, result = self._solve(state, self.samples, outcome)
        executed = len(self.samples) * int(result.ensemble_iterations)
        return seconds, executed, result.iterations_per_lane

    def unit(self, state, outcome: Outcome) -> dict:
        # Alternate which width runs first, so drift in machine speed cancels
        # in the per-pair ratios.
        self.pairs += 1
        return self._pair(state, outcome, scalar_first=self.pairs % 2 == 1)

    def _pair(self, state, outcome: Outcome, scalar_first: bool) -> dict:
        if scalar_first:
            scalar = self.scalar_pass(state, outcome)
            wide = self.ensemble_pass(state, outcome)
        else:
            wide = self.ensemble_pass(state, outcome)
            scalar = self.scalar_pass(state, outcome)
        (t1, e1, its1), (tS, eS, itsS) = scalar, wide
        return {
            "scalar_s": t1,
            "study_s": tS,
            "base_speedup.S16": (t1 / e1) / (tS / eS),
            "net_speedup.S16": t1 / tS,
            # Not gated: a known rounding difference between widths, see NOTES.md.
            "count_mismatch_lanes": int(np.count_nonzero(its1 != itsS)),
        }


# Preset overrides per workload.  Full sizes are the benchmark; tiny sizes
# keep the smoke test to seconds.
def _sizes(tiny: bool) -> dict:
    if tiny:
        return {
            "pde-adaptive": {"mesh": uq.MeshConfig(mesh_cells=4), "n_max": 100},
            "sg-refine": {"ensemble_size": 8, "tau": 1e-6, "n_max": 300},
            "ensemble-width": {"mesh": uq.MeshConfig(mesh_cells=4)},
        }
    return {
        "pde-adaptive": {},
        "sg-refine": {"ensemble_size": 8, "tau": 1e-6, "n_max": 8000},
        "ensemble-width": {"mesh": uq.MeshConfig(mesh_cells=32)},
    }


ENSEMBLE_BATCH = 16


def make(name: str, seed: int, tiny: bool, out_dir: Path):
    overrides = _sizes(tiny)[name]
    if name == "pde-adaptive":
        return Study(uq.preset_config("pde_test2", **overrides), out_dir)
    if name == "sg-refine":
        return Study(uq.preset_config("analytic_g1", **overrides), out_dir)
    if name == "ensemble-width":
        return EnsembleWidth(uq.preset_config("pde_test1", **overrides), ENSEMBLE_BATCH, seed)
    raise ValueError(f"unknown workload {name!r}")


# -- base(S) sweep -------------------------------------------------------------

SWEEP_WIDTHS = (1, 2, 4, 8, 16, 32)


def base_curve(mesh_cells: int, batch: int, seed: int) -> list[tuple[int, float]]:
    """base(S) on one mesh: time per executed lane-iteration at S=1 over that at S.

    A seeded batch of `pde_test1` samples (a multiple of every width) is
    solved in consecutive width-S ensembles; assembly plus PCG is timed.
    """
    config = uq.preset_config("pde_test1", mesh=uq.MeshConfig(mesh_cells=mesh_cells))
    work = EnsembleWidth(config, batch, seed)
    state = work.problem
    outcome = Outcome()
    per_lane_iter = {}
    for S in SWEEP_WIDTHS:
        seconds = executed = 0
        for start in range(0, batch, S):
            dt, result = work._solve(state, work.samples[start : start + S], outcome)
            seconds += dt
            executed += S * int(result.ensemble_iterations)
        per_lane_iter[S] = seconds / executed
    if outcome.failed:
        raise RuntimeError("; ".join(outcome.problems))
    return [(S, per_lane_iter[1] / per_lane_iter[S]) for S in SWEEP_WIDTHS]


def write_base_curve(path: Path, curve: list[tuple[int, float]], comment: str) -> None:
    """Write base(S) in the CSV format `uqgroup run --base-curve` reads, and check it."""
    lines = [f"# {comment}", "S,speedup"] + [f"{S},{value!r}" for S, value in curve]
    path.write_text("\n".join(lines) + "\n")
    if uq.read_base_curve(path) != tuple(curve):
        raise RuntimeError(f"{path} does not read back as written")
