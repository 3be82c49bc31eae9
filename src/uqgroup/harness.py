"""Adaptive-refinement study harness comparing ensemble grouping strategies.

One run drives the four-step loop: group the current level's samples, solve
them (in ensembles for PDE problems, by closed-form cost for the analytic
ones), update the sparse-grid surrogates for the quantity of interest and for
the iteration cost, then refine or stop.  All requested strategies are
evaluated as accounting over the same per-sample iteration counts; lane
arithmetic is grouping-independent, so the physics is computed exactly once.

Level numbering is 1-based: level 1 is the initial grid, solved as one batch
and grouped in generation order for every strategy except the post-hoc "its"
oracle.  Predicted iteration counts for level L always come from the
surrogate state fitted through level L-1.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .ensemble import ensemble_pcg
from .fem3d import StructuredMesh, assemble, qoi
from .grouping import (
    GroupingPlan,
    compute_R,
    group_by_key,
    group_natural,
    group_oracle,
    predicted_speedup,
)
from .hier_grid import HierGrid, RefinementPolicy
from .random_field import anisotropy_indicator, build_field

__all__ = [
    "ConfigurationError",
    "SolverConfig",
    "FieldConfig",
    "MeshConfig",
    "AnalyticConfig",
    "RunConfig",
    "preset_config",
    "config_from_dict",
    "analytic_qoi",
    "analytic_iters",
    "LevelSamples",
    "PlanRecord",
    "LevelRecord",
    "RunReport",
    "adaptive_run",
    "emit_reports",
    "parse_manifest",
    "read_base_curve",
]

STRATEGIES = ("nat", "par", "sur", "its")
ANALYTIC_PROBLEMS = ("analytic_g1", "analytic_g2")
PDE_PROBLEMS = ("pde_test1", "pde_test2", "pde_isotropic_baseline")

QOI_CHANNEL = "qoi"
ITER_CHANNEL = "iterations"

# Prefix of the report note that marks a run with unconverged lanes.
_UNCONVERGED_NOTE = "R and predicted speed-ups set to NaN"

# The layout of manifest.json; `parse_manifest` reads this one only.
MANIFEST_FORMAT = 2

# Per-level counters of the executed ensembles' lanes (`LevelRecord`).
_LANE_COUNTERS = ("executed_lane_iterations", "useful_lane_iterations", "spmv_calls",
                  "frozen_lanes", "unconverged_lanes")


class ConfigurationError(ValueError):
    """Inconsistent or incomplete run configuration."""


# ---------------------------------------------------------------------------
# serialization schema
#
# Configs and reports are written and read by walking their dataclass fields
# and type hints.  A field whose JSON key differs from its name carries the
# key in its metadata.  Reading rejects unknown keys, missing required keys
# and mistyped leaves, so a typo fails instead of being ignored.


@functools.cache
def _schema(cls) -> tuple[tuple[str, str | tuple, object, bool], ...]:
    """(attribute, JSON key, type hint, required) for each field of cls."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _dump(v):
    """The JSON form of a schema dataclass or of one of its field values."""
    if v is None or isinstance(v, (int, float, str, dict)):
        return v
    if isinstance(v, tuple):
        # Flat tuples of numbers or strings are the bulk of a report: copy them whole.
        return list(v) if not v or isinstance(v[0], (int, float, str)) else [_dump(x) for x in v]
    return {key: _dump(getattr(v, name)) for name, key, _, _ in _schema(type(v))}


# Exact JSON types accepted for each leaf hint: no bool where a number is due.
_LEAVES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _load(hint, v, path: str, base=None):
    """Read v as type hint; keys absent from an object take base's values, else defaults."""
    if type(hint) is types.UnionType:  # every union here is `T | None`
        if v is None:
            return None
        hint = hint.__args__[0]
    if hint in _LEAVES:
        if type(v) not in _LEAVES[hint]:
            raise ConfigurationError(f"{path}: expected {hint.__name__}, got {v!r}")
        return v
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(v, list | tuple) or not (args[-1] is Ellipsis or len(v) == len(args)):
            raise ConfigurationError(f"{path}: expected a list matching {hint}, got {v!r}")
        items = args[:1] * len(v) if args[-1] is Ellipsis else args
        if all(type(x) in _LEAVES.get(a, ()) for a, x in zip(items, v)):
            return tuple(v)  # flat tuples are the bulk of a report: no per-item recursion
        return tuple(_load(a, x, f"{path}[{i}]") for i, (a, x) in enumerate(zip(items, v)))
    if not isinstance(v, Mapping):
        raise ConfigurationError(f"{path}: expected an object, got {v!r}")
    schema = _schema(hint)
    unknown = v.keys() - {key for _, key, _, _ in schema}
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ConfigurationError(f"{path}: unknown key(s) {names}")
    kw = {}
    for name, key, field_hint, required in schema:
        if key in v:
            kw[name] = _load(field_hint, v[key], f"{path}.{key}", getattr(base, name, None))
        elif base is not None:
            kw[name] = getattr(base, name)
        elif required:
            raise ConfigurationError(f"{path}: missing key {key!r}")
    return hint(**kw)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-7
    maxit: int = 30000

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigurationError(f"solver tol must be positive and finite, got {self.tol}")
        if self.maxit < 0:
            raise ConfigurationError(f"solver maxit must be >= 0, got {self.maxit}")


@dataclass(frozen=True)
class FieldConfig:
    delta: float = 0.25
    sigma0: float = math.sqrt(300.0)
    a_min: float = 0.1
    # Tuple keys: JSON cannot spell them, so only the nested a_hat block sets these.
    a_hat_mode: str = dataclasses.field(default="constant", metadata={"key": ("a_hat", "mode")})
    a_hat_value: float = dataclasses.field(default=1.0, metadata={"key": ("a_hat", "value")})
    a_y: float = 1.0
    a_z: float = 1.0
    nystrom_points: int = 513
    sigma0_convention: str = "stddev"
    expansion: str = "log"


@dataclass(frozen=True)
class MeshConfig:
    mesh_cells: int = 16
    quadrature: str = "gauss2"


@dataclass(frozen=True)
class AnalyticConfig:
    """Parameters of the closed-form QoI and iteration-cost proxies."""

    a1: float = 2.0
    a2: float = 2.0
    u1: float = 0.0
    u2: float = 0.0
    r1: float = 0.25
    r2: float = 0.65


@dataclass(frozen=True)
class RunConfig:
    problem: str
    n_dims: int
    ensemble_size: int = dataclasses.field(metadata={"key": "S"})
    tau: float
    n_max: int
    initial_level: int
    strategies: tuple[str, ...]
    solver: SolverConfig
    field: FieldConfig | None = None
    mesh: MeshConfig | None = None
    analytic: AnalyticConfig | None = None
    base_curve: tuple[tuple[int, float], ...] | None = None
    dump_residuals: bool = False

    def __post_init__(self) -> None:
        if self.problem not in ANALYTIC_PROBLEMS + PDE_PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.ensemble_size < 1:
            raise ConfigurationError("ensemble size must be >= 1")
        if not 0 < self.tau < math.inf:
            raise ConfigurationError("tau must be positive and finite")
        if self.n_max < 1:
            raise ConfigurationError("n_max must be >= 1")
        if self.initial_level < 0:
            raise ConfigurationError("initial_level must be >= 0")
        seen = set()
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigurationError(f"unknown strategy {s!r}")
            if s in seen:
                raise ConfigurationError(f"duplicate strategy {s!r}")
            seen.add(s)
        if self.is_pde:
            if self.field is None or self.mesh is None:
                raise ConfigurationError(f"{self.problem} needs field and mesh blocks")
        else:
            if self.n_dims != 2:
                raise ConfigurationError("analytic problems are two-dimensional")
            if self.analytic is None:
                raise ConfigurationError(f"{self.problem} needs an analytic block")
            if self.field is not None or self.mesh is not None:
                raise ConfigurationError("field and mesh blocks apply only to PDE problems")
            if "par" in self.strategies:
                raise ConfigurationError("strategy 'par' needs a PDE problem")

    @property
    def is_pde(self) -> bool:
        return self.problem in PDE_PROBLEMS

    def to_dict(self) -> dict:
        return _config_out(_dump(self))


# The field block repeats n_dims as "N" and nests a_hat as {mode, value};
# these two functions move between that layout and FieldConfig's flat keys.
def _config_out(doc: dict) -> dict:
    f = doc["field"]
    if f is not None:
        head = {"delta": f.pop("delta"), "sigma0": f.pop("sigma0"), "N": doc["n_dims"],
                "a_min": f.pop("a_min"),
                "a_hat": {"mode": f.pop(("a_hat", "mode")), "value": f.pop(("a_hat", "value"))}}
        doc["field"] = {**head, **f}
    return doc


def _config_in(doc: Mapping) -> dict:
    doc = dict(doc)
    if isinstance(doc.get("field"), Mapping):
        f = doc["field"] = dict(doc["field"])
        a_hat = f.pop("a_hat", {})
        if not isinstance(a_hat, Mapping):
            raise ConfigurationError(f"config.field.a_hat: expected an object, got {a_hat!r}")
        f.update((("a_hat", k), v) for k, v in a_hat.items())
        n_modes = f.pop("N", None)
        if n_modes is not None and doc.setdefault("n_dims", n_modes) != n_modes:
            raise ConfigurationError("field block N disagrees with n_dims")
    return doc


_ANALYTIC_PRESET = dict(
    n_dims=2, ensemble_size=8, tau=5e-4, n_max=1000, initial_level=2,
    strategies=("nat", "sur", "its"), solver=SolverConfig(), analytic=AnalyticConfig(),
)
_PDE_PRESET = dict(
    n_dims=4, ensemble_size=4, tau=1e-3, n_max=600, initial_level=1,
    strategies=("nat", "par", "sur", "its"), solver=SolverConfig(), mesh=MeshConfig(),
)


def preset_config(problem: str, **overrides) -> RunConfig:
    """Build a RunConfig for a named problem with sensible per-problem defaults."""
    kw = dict(_ANALYTIC_PRESET if problem in ANALYTIC_PROBLEMS else _PDE_PRESET, problem=problem)
    if problem == "pde_isotropic_baseline":
        # Constant isotropic coefficient: the premise that every sample costs
        # the same number of iterations, realised exactly.
        kw["field"] = FieldConfig(sigma0=0.0, a_min=0.0, a_hat_value=1.0, expansion="linear")
    elif problem in PDE_PROBLEMS:
        # sqrt(300) under the kernel convention keeps the log-amplitudes
        # around +-8; the stddev convention would overflow exp at the corners.
        kw["field"] = FieldConfig(
            sigma0_convention="kernel",
            a_hat_mode="test2" if problem == "pde_test2" else "constant",
        )
    kw.update(overrides)
    return RunConfig(**kw)


def config_from_dict(doc: Mapping) -> RunConfig:
    """Parse the JSON configuration schema (the inverse of RunConfig.to_dict).

    Absent keys, also inside blocks, take the preset's values; unknown keys raise."""
    if not isinstance(doc, Mapping) or "problem" not in doc:
        raise ConfigurationError("configuration needs a 'problem' key")
    return _load(RunConfig, _config_in(doc), "config", preset_config(doc["problem"]))


def read_base_curve(path: str | Path) -> tuple[tuple[int, float], ...]:
    """Read a user-measured speed-up curve CSV with columns (S, speedup)."""
    pairs: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                pairs.append((int(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if not pairs and len(row) > 1:  # tolerate a header line
                    continue
                raise ConfigurationError(f"bad base-curve row: {row}") from None
    if not pairs:
        raise ConfigurationError(f"base curve {path} has no data rows")
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# analytic problem functions


def analytic_qoi(y: np.ndarray, which: str, r1: float = 0.25, r2: float = 0.65) -> np.ndarray:
    """Closed-form quantities of interest on a batch of 2D points.

    "g1" is a smooth sum of Gaussian bumps on [-2, 2]^2; "g2" is a radial
    indicator on [0, 1]^2 equal to 1 inside y1^2+y2^2 < r1, 0 on the middle
    band up to r2 and 1 outside.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    y1, y2 = y[:, 0], y[:, 1]
    if which == "g1":
        return (
            -np.exp(-((y1 - 1.0) ** 2))
            + np.exp(-0.8 * (y1 + 1.0) ** 2) * np.exp(-((y2 - 1.0) ** 2))
            + np.exp(-0.8 * (y2 + 1.0))
        )
    if which == "g2":
        s = y1**2 + y2**2
        return np.where((s >= r1) & (s <= r2), 0.0, 1.0)
    raise ConfigurationError(f"unknown analytic QoI {which!r}")


def analytic_iters(
    y: np.ndarray, a1: float = 2.0, a2: float = 2.0, u1: float = 0.0, u2: float = 0.0
) -> np.ndarray:
    """Smooth synthetic solver-cost profile: a Gaussian bump plus a floor of 1."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.exp(-(a1**2) * (y[:, 0] - u1) ** 2 - (a2**2) * (y[:, 1] - u2) ** 2) + 1.0


# ---------------------------------------------------------------------------
# problems


class _AnalyticProblem:
    def __init__(self, config: RunConfig):
        self.config = config
        self.which = "g1" if config.problem == "analytic_g1" else "g2"
        self.box = ((-2.0, 2.0), (-2.0, 2.0)) if self.which == "g1" else ((0.0, 1.0), (0.0, 1.0))

    def qoi_values(self, coords: np.ndarray) -> np.ndarray:
        a = self.config.analytic
        return analytic_qoi(coords, self.which, a.r1, a.r2)

    def iter_values(self, coords: np.ndarray) -> np.ndarray:
        a = self.config.analytic
        return analytic_iters(coords, a.a1, a.a2, a.u1, a.u2)


class _PdeProblem:
    def __init__(self, config: RunConfig):
        self.config = config
        self.field = build_field(n_modes=config.n_dims, **dataclasses.asdict(config.field))
        self.mesh = StructuredMesh(config.mesh.mesh_cells, config.mesh.quadrature)
        self.mode_vals = self.field.mode_values(self.mesh.quad_points)
        self.box = tuple([(-1.0, 1.0)] * config.n_dims)

    def indicator_values(self, coords: np.ndarray) -> np.ndarray:
        return np.array(
            [anisotropy_indicator(self.field, y, self.mesh.quad_points, self.mode_vals)
             for y in coords]
        )

    def solve_plan(
        self,
        plan: GroupingPlan,
        coords_by_id: Mapping[int, np.ndarray],
        residual_sink: Callable[[int, int, list[np.ndarray]], None] | None,
    ) -> tuple[dict[int, int], dict[int, float], list[str], dict[str, int]]:
        """Solve every ensemble; also return notes and the `_LANE_COUNTERS` of the solves.

        The ensembles are independent, so each one's assembly and solve run
        in a thread pool with a worker per CPU of the process's affinity (at
        most one per ensemble); the compiled kernels release the GIL.  Each
        solve may run on a team of its worker's share of the CPUs, so a level
        of fewer ensembles than CPUs still uses them all, and the pool and
        the teams together never ask for more threads than CPUs.  The
        results are handled one by one in plan order as they arrive, so the
        residual sink calls, notes, counters and dict orders are those of a
        serial loop, and every output is independent of the worker count.
        The first failing ensemble in plan order raises, and the ensembles
        not yet started are cancelled.

        A real lane is the first of its sample in the ensemble; the replicas
        of a padded ensemble add executed but no useful lane-iterations.
        """
        iters: dict[int, int] = {}
        qois: dict[int, float] = {}
        notes: list[str] = []
        counts = dict.fromkeys(_LANE_COUNTERS, 0)
        record = residual_sink is not None
        cpus = len(os.sched_getaffinity(0))
        workers = min(cpus, len(plan.ensembles))
        threads = max(1, cpus // workers)

        def solve(group: Sequence[int]):
            samples = np.array([coords_by_id[sid] for sid in group])
            system = assemble(self.mesh, self.field, samples, self.mode_vals)
            return ensemble_pcg(
                system.matrix,
                system.rhs,
                tol=self.config.solver.tol,
                maxit=self.config.solver.maxit,
                record_history=record,
                threads=threads,
            )

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = pool.map(solve, plan.ensembles)
            for k, (group, result) in enumerate(zip(plan.ensembles, results)):
                if record:
                    residual_sink(plan.level, k, result.residual_history)
                stuck = ~result.converged_per_lane
                capped = f"hit maxit ({self.config.solver.maxit})"
                for lanes, how in ((stuck & ~result.frozen_lanes, capped),
                                   (stuck & result.frozen_lanes, "froze")):
                    if lanes.any():
                        notes.append(f"level {plan.level} ensemble {k}: "
                                     f"{np.count_nonzero(lanes)} lane(s) {how} unconverged")
                counts["executed_lane_iterations"] += len(group) * result.ensemble_iterations
                counts["spmv_calls"] += result.ensemble_iterations
                counts["frozen_lanes"] += int(np.count_nonzero(result.frozen_lanes))
                counts["unconverged_lanes"] += int(np.count_nonzero(stuck))
                for s, sid in enumerate(group):
                    if sid not in iters:
                        iters[sid] = int(result.iterations_per_lane[s])
                        counts["useful_lane_iterations"] += iters[sid]
                        qois[sid] = qoi(result.solution[s])
        finally:
            pool.shutdown(cancel_futures=True)
        return iters, qois, notes, counts


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class LevelSamples:
    """One level's samples as columns: entry i of each belongs to the i-th sample.

    Iteration counts are ints for PDE problems and floats for analytic ones.
    predicted_iterations is None on level 1, before any surrogate exists, and
    indicator is None for analytic problems.
    """

    sample_id: tuple[int, ...]
    coords: tuple[tuple[float, ...], ...]
    iterations: tuple[float, ...]
    predicted_iterations: tuple[float, ...] | None
    indicator: tuple[float, ...] | None

    def __post_init__(self) -> None:
        columns = (self.coords, self.iterations, self.predicted_iterations, self.indicator)
        if any(c is not None and len(c) != len(self.sample_id) for c in columns):
            raise ConfigurationError(f"sample columns of unequal length: not {len(self.sample_id)} entries each")

    def __len__(self) -> int:
        return len(self.sample_id)


@dataclass(frozen=True)
class PlanRecord:
    strategy: str
    ensembles: tuple[tuple[int, ...], ...]
    padding: tuple[int, ...]
    work_ratio: float = dataclasses.field(metadata={"key": "R_l"})


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level.

    mean_qoi is the mean of the QoI surrogate fitted through this level.
    The lane counters sum over the level's executed ensembles and are None
    for analytic runs: executed lane-iterations are S times each ensemble's
    iterations, useful ones those of the real (non-padding) lanes, and
    spmv_calls the ensembles' iterations.
    """

    level: int
    samples: LevelSamples
    plans: tuple[PlanRecord, ...]
    error_indicator: float
    mean_qoi: float
    mean_abs_prediction_error: float | None
    max_abs_prediction_error: float | None
    budget_truncated: bool
    executed_lane_iterations: int | None
    useful_lane_iterations: int | None
    spmv_calls: int | None
    frozen_lanes: int | None
    unconverged_lanes: int | None


@dataclass(frozen=True)
class RunReport:
    config: dict
    levels: tuple[LevelRecord, ...]
    work_ratios: dict
    predicted_speedups: dict | None
    stop_reason: str
    notes: tuple[str, ...]
    grid: dict

    @property
    def n_samples_total(self) -> int:
        return sum(len(lv.samples) for lv in self.levels)

    @property
    def all_lanes_converged(self) -> bool:
        """False when a lane stopped unconverged; every R is then NaN."""
        return not any(note.startswith(_UNCONVERGED_NOTE) for note in self.notes)

    def level_ratios(self, strategy: str) -> list[float]:
        out = []
        for lv in self.levels:
            for p in lv.plans:
                if p.strategy == strategy:
                    out.append(p.work_ratio)
        return out

    def to_dict(self) -> dict:
        return _dump(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunReport":
        return _load(cls, d, "report")


# ---------------------------------------------------------------------------
# the adaptive loop


def adaptive_run(
    config: RunConfig,
    residual_sink: Callable[[int, int, list[np.ndarray]], None] | None = None,
) -> RunReport:
    """Run the grouped adaptive-refinement loop to completion.

    residual_sink, if given together with config.dump_residuals, receives
    (level, ensemble_index, residual_history) for every executed ensemble.
    """
    problem = _PdeProblem(config) if config.is_pde else _AnalyticProblem(config)
    sink = residual_sink if (config.dump_residuals and config.is_pde) else None
    grid = HierGrid(config.n_dims, domain=problem.box)
    n_new = grid.add_initial_levels(config.initial_level)
    if n_new > config.n_max:
        raise ConfigurationError(
            f"n_max={config.n_max} is smaller than the {n_new}-point initial grid"
        )

    S = config.ensemble_size
    policy = RefinementPolicy(tau=config.tau, channel=QOI_CHANNEL, max_points=config.n_max)
    notes: list[str] = []
    levels: list[LevelRecord] = []
    accounting: dict[str, list[tuple[GroupingPlan, list[list[float]]]]] = {
        s: [] for s in config.strategies
    }
    truncated_pending = False
    unconverged = 0
    stop_reason = None
    level = 0

    while True:
        level += 1
        start = len(grid) - n_new
        ids = list(range(start, len(grid)))
        coords = grid.node_coords()[start:]
        coords_by_id = {sid: coords[i] for i, sid in enumerate(ids)}

        # Predictions and indicators available before this level's solves:
        # the expansion is cut at the nodes fitted through the previous level.
        predicted = None
        if level > 1:
            predicted = grid.eval_many(ITER_CHANNEL, coords, n_nodes=start)
        indicator = problem.indicator_values(coords) if config.is_pde else None

        plans: dict[str, GroupingPlan] = {}
        for strat in config.strategies:
            if strat == "its":
                continue  # needs measured counts; built after the solves
            if level == 1 or strat == "nat":
                plans[strat] = group_natural(ids, S, level)
            elif strat == "sur":
                keys = {sid: float(predicted[i]) for i, sid in enumerate(ids)}
                plans[strat] = group_by_key(ids, keys, S, level)
            elif strat == "par":
                keys = {sid: float(indicator[i]) for i, sid in enumerate(ids)}
                plans[strat] = group_by_key(ids, keys, S, level)

        # Solve each sample once.  The executed ensembles follow the predicted
        # ordering when available; per-lane arithmetic is lane-local, so every
        # other strategy's accounting reuses the same measured counts.
        exec_plan = plans.get("sur") or plans.get("par") or plans.get("nat") or group_natural(
            ids, S, level
        )
        if config.is_pde:
            iters, qois, solve_notes, counters = problem.solve_plan(exec_plan, coords_by_id, sink)
            notes.extend(solve_notes)
            unconverged += counters["unconverged_lanes"]
        else:
            iters = {sid: float(v) for sid, v in zip(ids, problem.iter_values(coords))}
            qois = {sid: float(v) for sid, v in zip(ids, problem.qoi_values(coords))}
            counters = dict.fromkeys(_LANE_COUNTERS)

        if "its" in config.strategies:
            plans["its"] = group_oracle(ids, iters, S, level)

        plan_records = []
        for strat in config.strategies:
            plan = plans[strat]
            slot_iters = [[float(iters[sid]) for sid in group] for group in plan.ensembles]
            accounting[strat].append((plan, slot_iters))
            # R_l is filled in after the loop, from one compute_R per strategy.
            plan_records.append(PlanRecord(strat, plan.ensembles, plan.padding, math.nan))

        # Update the surrogates with this level's data.
        grid.compute_surpluses(
            {QOI_CHANNEL: [qois[sid] for sid in ids], ITER_CHANNEL: [iters[sid] for sid in ids]}
        )

        pred_err_mean = pred_err_max = None
        if predicted is not None:
            err = np.abs(predicted - np.array([iters[sid] for sid in ids]))
            pred_err_mean = float(err.mean())
            pred_err_max = float(err.max())

        samples = LevelSamples(
            sample_id=tuple(ids),
            coords=tuple(map(tuple, coords.tolist())),
            iterations=tuple(iters[sid] for sid in ids),
            predicted_iterations=None if predicted is None else tuple(predicted.tolist()),
            indicator=None if indicator is None else tuple(indicator.tolist()),
        )
        levels.append(
            LevelRecord(
                level=level,
                samples=samples,
                plans=tuple(plan_records),
                error_indicator=grid.error_indicator(QOI_CHANNEL),
                mean_qoi=grid.integrate_surrogate(QOI_CHANNEL),
                mean_abs_prediction_error=pred_err_mean,
                max_abs_prediction_error=pred_err_max,
                budget_truncated=truncated_pending,
                **counters,
            )
        )

        outcome = grid.refine(policy)
        if not outcome.n_new:
            stop_reason = "budget_exhausted" if outcome.budget_exhausted else "tolerance_met"
            break
        truncated_pending = outcome.budget_exhausted
        if truncated_pending:
            notes.append(
                f"level {level + 1} truncated to the n_max={config.n_max} sample budget"
            )
        n_new = outcome.n_new

    per_level: dict[str, list[float]] = {}
    work_ratios: dict[str, float] = {}
    for strat in config.strategies:
        per_level[strat], work_ratios[strat] = compute_R(accounting[strat])

    speedups = None
    if config.base_curve is not None:
        if config.is_pde:
            curve = dict(config.base_curve)
            speedups = {
                strat: float(predicted_speedup(r, S, curve)) for strat, r in work_ratios.items()
            }
        else:
            notes.append("base curve ignored: analytic runs have no linear solver")

    if unconverged:
        # An unconverged lane is charged the iterations it ran, not those it
        # needed, so no ratio of this run can be trusted.
        notes.append(f"{_UNCONVERGED_NOTE}: {unconverged} lane(s) stopped unconverged")
        per_level = {strat: [math.nan] * len(levels) for strat in per_level}
        work_ratios = dict.fromkeys(work_ratios, math.nan)
        if speedups is not None:
            speedups = dict.fromkeys(speedups, math.nan)
    for i, lv in enumerate(levels):
        plans = tuple(
            dataclasses.replace(p, work_ratio=per_level[p.strategy][i]) for p in lv.plans
        )
        levels[i] = dataclasses.replace(lv, plans=plans)

    return RunReport(
        config=config.to_dict(),
        levels=tuple(levels),
        work_ratios=work_ratios,
        predicted_speedups=speedups,
        stop_reason=stop_reason,
        notes=tuple(notes),
        grid=grid.to_json_dict(),
    )


# ---------------------------------------------------------------------------
# emission


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_reports(
    reports: RunReport | Sequence[RunReport], out_dir: str | Path
) -> dict[str, Path]:
    """Write the run table CSV, the JSON manifest and the per-level iteration CSV.

    Several reports may share one table (e.g. a strategy-by-size study); rows
    carry per-level ratios first, then one summary row per strategy.  The
    manifest is `{"format": MANIFEST_FORMAT, "reports": [...]}` on one line
    (compact separators, then a newline), each report in the `RunReport`
    schema: a level's samples are one list per column and the grid is
    `HierGrid.to_json_dict`'s columns.  Files contain no timestamps, so
    identical runs emit identical bytes.  All texts are built first and each
    file is replaced whole: a failure leaves no partial file.
    """
    if isinstance(reports, RunReport):
        reports = [reports]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["strategy", "S", "level", "n_samples", "n_ensembles", "R_l", "R", "pred_speedup"])
    for report in reports:
        size = report.config["S"]
        for strat in report.config["strategies"]:
            for lv in report.levels:
                for plan in lv.plans:
                    if plan.strategy != strat:
                        continue
                    n_real = sum(len(g) for g in plan.ensembles) - sum(plan.padding)
                    writer.writerow(
                        [strat, size, lv.level, n_real, len(plan.ensembles),
                         _fmt(plan.work_ratio), "", ""]
                    )
        for strat in report.config["strategies"]:
            speedup = None
            if report.predicted_speedups is not None:
                speedup = report.predicted_speedups.get(strat)
            writer.writerow(
                [strat, size, "", "", "", "", _fmt(report.work_ratios[strat]), _fmt(speedup)]
            )

    # Compact separators and no indent keep json on its C encoder.
    manifest = json.dumps(_dump(_Manifest(MANIFEST_FORMAT, tuple(reports))), separators=(",", ":")) + "\n"

    iterations = io.StringIO()
    writer = csv.writer(iterations, lineterminator="\n")
    writer.writerow(["run", "level", "sample_id", "iterations", "predicted_iterations"])
    for run_idx, report in enumerate(reports):
        for lv in report.levels:
            s = lv.samples
            predicted = s.predicted_iterations or itertools.repeat(None)
            for sid, its, pred in zip(s.sample_id, s.iterations, predicted):
                writer.writerow([run_idx, lv.level, sid, _fmt(its), _fmt(pred)])

    paths = {
        "table": out_dir / "r_table.csv",
        "manifest": out_dir / "manifest.json",
        "iterations": out_dir / "iterations_by_level.csv",
    }
    for path, text in zip(paths.values(), (table.getvalue(), manifest, iterations.getvalue())):
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return paths


@dataclass(frozen=True)
class _Manifest:
    format: int
    reports: tuple[RunReport, ...]


def parse_manifest(path: str | Path) -> list[RunReport]:
    """The reports of a manifest that `emit_reports` wrote.

    Only format `MANIFEST_FORMAT` is read: any other, or a manifest without a
    format key (the layout before format 2), raises `ConfigurationError`.
    """
    doc = json.loads(Path(path).read_text())
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if type(fmt) is not int or fmt != MANIFEST_FORMAT:
        raise ConfigurationError(
            f"{path}: manifest format {fmt!r} is not format {MANIFEST_FORMAT}, the only one this "
            f"version reads (a manifest with no format key predates format 2)")
    return list(_load(_Manifest, doc, "manifest").reports)
