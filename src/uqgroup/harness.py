"""Adaptive-refinement study harness comparing ensemble grouping strategies.

One run drives the four-step loop: group the current level's samples, solve
them (in ensembles for PDE problems, by closed-form cost for the analytic
ones), update the sparse-grid surrogates for the quantity of interest and for
the iteration cost, then refine or stop.  Only the executed plan, `sur`'s
from level 2 on when it is requested and generation order otherwise, is
formed before the solves.  A lane's result is bitwise its solo solve, so
the other strategies are accounting over the same per-sample counts, and
`par` is keyed by the anisotropy indicator assembly returns for each lane.
A level's samples are the grid nodes it added, and its coordinates, counts,
QoIs, indicators and predictions are arrays aligned with their ids; a plan
is an order of those ids, and its (ensembles x S) slot counts, which
`compute_R` reduces, are one index into the count array.

A level stores only what its run observed; `derive_levels` rebuilds the
rest (plans, R, lane tallies, prediction errors) from it and the config,
after the loop and for each report `parse_manifest` reads.

Level numbering is 1-based: level 1 is the initial grid, solved as one batch
and grouped in generation order for every strategy except the post-hoc "its"
oracle.  Predicted iteration counts for level L always come from the
surrogate state fitted through level L-1.  A run whose lanes did not all
converge stops with the reason "lanes_unconverged", whatever its
refinement read, since that refinement read untrusted QoIs.

A PDE run's field block sets only sigma0, a_min and the a_hat mode of the
log-KL coefficient (`random_field`); the analytic problems have one fixed
QoI band and cost profile, module constants here.
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
from .fem3d import StructuredMesh, assemble, graph_fits_int32, qoi
from .grouping import (
    GroupingPlan,
    compute_R,
    group_by_key,
    group_natural,
    group_oracle,
    predicted_speedup,
)
from .hier_grid import HierGrid, RefinementPolicy, initial_grid_size
from .random_field import A_HAT_MODES, build_field

__all__ = [
    "ConfigurationError",
    "SolverConfig",
    "FieldConfig",
    "MeshConfig",
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
    "derive_levels",
    "emit_reports",
    "parse_manifest",
    "read_base_curve",
]

STRATEGIES = ("nat", "par", "sur", "its")
ANALYTIC_PROBLEMS = ("analytic_g1", "analytic_g2")
PDE_PROBLEMS = ("pde_test1", "pde_test2", "pde_isotropic_baseline")

QOI_CHANNEL = "qoi"
ITER_CHANNEL = "iterations"

# The layout of manifest.json; `parse_manifest` reads this one only.
MANIFEST_FORMAT = 5

# Per-level counters of the executed ensembles' lanes that only the kernel knows (`LevelRecord`).
_KERNEL_COUNTERS = ("streamed_lane_iterations", "frozen_lanes", "unconverged_lanes")

# Field metadata of a value `derive_levels` computes: it is not written to the manifest.
_DERIVED = {"derived": True}


class ConfigurationError(ValueError):
    """Inconsistent or incomplete run configuration."""


# ---------------------------------------------------------------------------
# serialization schema
#
# Configs and reports are written and read by walking their dataclass fields
# and type hints.  A field whose JSON key differs from its name carries the
# key in its metadata, and a derived field is neither written nor read.
# Reading rejects unknown keys, missing required keys and mistyped leaves, so
# a typo fails instead of being ignored.


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """(attribute, JSON key, type hint, required) for each stored field of cls."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls) if not f.metadata.get("derived")
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
        items = _tuple_items(hint, v) if isinstance(v, list | tuple) else None
        if items is None:
            raise ConfigurationError(f"{path}: expected a list matching {hint}, got {v!r}")
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


def _tuple_items(hint, v) -> tuple | None:
    """The item hints of tuple hint for the items of v, None if v's length does not fit."""
    args = typing.get_args(hint)
    if args[-1] is Ellipsis:
        return args[:1] * len(v)
    return args if len(v) == len(args) else None


def _conforms(hint, v) -> bool:
    """Whether a stored field value has its hint's type by `_load`'s rules,
    with a tuple where `_load` reads a list and an instance where it reads an object."""
    if type(hint) is types.UnionType:
        return v is None or _conforms(hint.__args__[0], v)
    if hint in _LEAVES:
        return type(v) in _LEAVES[hint]
    if typing.get_origin(hint) is tuple:
        items = _tuple_items(hint, v) if type(v) is tuple else None
        return items is not None and all(map(_conforms, items, v))
    return isinstance(v, hint)


def _check_types(config) -> None:
    """Refuse a config whose stored fields do not have their types, naming the first such field."""
    for name, _, hint, _ in _schema(type(config)):
        value = getattr(config, name)
        if not _conforms(hint, value):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigurationError(f"{type(config).__name__}.{name}: expected {expected}, got {value!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-7
    maxit: int = 30000

    def __post_init__(self) -> None:
        _check_types(self)
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigurationError(f"solver tol must be positive and finite, got {self.tol}")
        if self.maxit < 0:
            raise ConfigurationError(f"solver maxit must be >= 0, got {self.maxit}")


@dataclass(frozen=True)
class FieldConfig:
    """The log-KL coefficient's arguments to `build_field`; its mode count is the run's n_dims."""

    sigma0: float = math.sqrt(300.0)
    a_min: float = 0.1
    a_hat: str = "constant"  # or "test2"

    def __post_init__(self) -> None:
        _check_types(self)
        if self.a_hat not in A_HAT_MODES:
            raise ConfigurationError(f"field.a_hat must be one of {A_HAT_MODES}, got {self.a_hat!r}")
        for key in ("sigma0", "a_min"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"field.{key} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class MeshConfig:
    mesh_cells: int = 16

    def __post_init__(self) -> None:
        _check_types(self)
        if not (self.mesh_cells >= 2 and graph_fits_int32(self.mesh_cells)):
            raise ConfigurationError(
                f"mesh.mesh_cells must be >= 2 and fit the mesh's int32 indices, got {self.mesh_cells}")


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
    base_curve: tuple[tuple[int, float], ...] | None = None
    dump_residuals: bool = False

    def __post_init__(self) -> None:
        _check_types(self)
        if self.problem not in ANALYTIC_PROBLEMS + PDE_PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.ensemble_size < 1:
            raise ConfigurationError("ensemble size must be >= 1")
        if not 0 < self.tau < math.inf:
            raise ConfigurationError("tau must be positive and finite")
        if self.n_dims < 1:
            raise ConfigurationError("n_dims must be >= 1")
        if self.initial_level < 0:
            raise ConfigurationError("initial_level must be >= 0")
        n_initial = initial_grid_size(self.n_dims, self.initial_level)
        if self.n_max < n_initial:
            raise ConfigurationError(f"n_max={self.n_max} is smaller than the {n_initial}-point initial grid")
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
            if self.field is not None or self.mesh is not None:
                raise ConfigurationError("field and mesh blocks apply only to PDE problems")
            if "par" in self.strategies:
                raise ConfigurationError("strategy 'par' needs a PDE problem")
        if self.base_curve is not None:
            sizes = [size for size, _ in self.base_curve]
            bad = [row for row in self.base_curve
                   if row[0] < 1 or sizes.count(row[0]) > 1 or not 0 < row[1] < math.inf]
            if bad:
                raise ConfigurationError(f"base curve rows {bad}: need each S >= 1 once, speed-ups > 0 and finite")
            if self.is_pde and self.ensemble_size not in sizes:
                raise ConfigurationError(f"base curve has no entry for the run's S={self.ensemble_size}")

    @property
    def is_pde(self) -> bool:
        return self.problem in PDE_PROBLEMS

    def to_dict(self) -> dict:
        return _dump(self)


_ANALYTIC_PRESET = dict(
    n_dims=2, ensemble_size=8, tau=5e-4, n_max=1000, initial_level=2,
    strategies=("nat", "sur", "its"), solver=SolverConfig(),
)
_PDE_PRESET = dict(
    n_dims=4, ensemble_size=4, tau=1e-3, n_max=600, initial_level=1,
    strategies=("nat", "par", "sur", "its"), solver=SolverConfig(), mesh=MeshConfig(),
)


def preset_config(problem: str, **overrides) -> RunConfig:
    """Build a RunConfig for a named problem with sensible per-problem defaults."""
    kw = dict(_ANALYTIC_PRESET if problem in ANALYTIC_PROBLEMS else _PDE_PRESET, problem=problem)
    if problem == "pde_isotropic_baseline":
        # a = 0 + 1 * exp(0) = 1 everywhere: the premise that every sample
        # costs the same number of iterations, realised exactly.
        kw["field"] = FieldConfig(sigma0=0.0, a_min=0.0)
    elif problem in PDE_PROBLEMS:
        # sigma0 = sqrt(300) keeps the log-amplitudes around +-8.
        kw["field"] = FieldConfig(a_hat="test2" if problem == "pde_test2" else "constant")
    kw.update(overrides)
    return RunConfig(**kw)


def config_from_dict(doc: Mapping) -> RunConfig:
    """Parse the JSON configuration schema (the inverse of RunConfig.to_dict).

    Absent keys, also inside blocks, take the preset's values; unknown keys raise."""
    if not isinstance(doc, Mapping) or "problem" not in doc:
        raise ConfigurationError("configuration needs a 'problem' key")
    return _load(RunConfig, doc, "config", preset_config(doc["problem"]))


def read_base_curve(path: str | Path) -> tuple[tuple[int, float], ...]:
    """Read a user-measured speed-up curve CSV with columns (S, speedup), sorted by S.

    Lines starting with # are comments; the first other row may be a header without digits.
    """
    pairs: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].strip().startswith("#")]
    for i, row in enumerate(rows):
        try:
            pairs.append((int(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if i == 0 and not any(c.isdigit() for c in "".join(row)):
                continue  # the header
            raise ConfigurationError(f"bad base-curve row: {row}") from None
    if not pairs:
        raise ConfigurationError(f"base curve {path} has no data rows")
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# analytic problem functions


# The squared radii of g2's band, and the rate a^2 of the cost profile's
# Gaussian bump (a = 2 on both axes, centred at the origin).
_G2_R1, _G2_R2 = 0.25, 0.65
_PROFILE_RATE = 4.0


def analytic_qoi(y: np.ndarray, which: str) -> np.ndarray:
    """Closed-form quantities of interest on a batch of 2D points.

    "g1" is a smooth sum of Gaussian bumps on [-2, 2]^2; "g2" is a radial
    indicator on [0, 1]^2 equal to 1 inside y1^2+y2^2 < 0.25, 0 on the middle
    band up to 0.65 and 1 outside.
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
        return np.where((s >= _G2_R1) & (s <= _G2_R2), 0.0, 1.0)
    raise ConfigurationError(f"unknown analytic QoI {which!r}")


def analytic_iters(y: np.ndarray) -> np.ndarray:
    """Smooth synthetic solver-cost profile: a unit Gaussian bump at the origin plus a floor of 1."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.exp(-_PROFILE_RATE * y[:, 0] ** 2 - _PROFILE_RATE * y[:, 1] ** 2) + 1.0


# ---------------------------------------------------------------------------
# problems


class _AnalyticProblem:
    def __init__(self, config: RunConfig):
        self.which = "g1" if config.problem == "analytic_g1" else "g2"
        self.box = ((-2.0, 2.0), (-2.0, 2.0)) if self.which == "g1" else ((0.0, 1.0), (0.0, 1.0))

    def qoi_values(self, coords: np.ndarray) -> np.ndarray:
        return analytic_qoi(coords, self.which)

    def iter_values(self, coords: np.ndarray) -> np.ndarray:
        return analytic_iters(coords)


class _PdeProblem:
    def __init__(self, config: RunConfig):
        self.config = config
        f = config.field
        self.field = build_field(f.sigma0, config.n_dims, f.a_min, f.a_hat)
        self.mesh = StructuredMesh(config.mesh.mesh_cells)
        self.mode_vals = self.field.mode_values(self.mesh.quad_axes)
        self.box = tuple([(-1.0, 1.0)] * config.n_dims)

    def solve_plan(
        self,
        plan: GroupingPlan,
        coords: np.ndarray,
        first_id: int,
        residual_sink: Callable[[int, int, list[np.ndarray]], None] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], dict[str, int]]:
        """Each sample's count, QoI and indicator, the notes and the `_KERNEL_COUNTERS` of the solves.

        The level's sample ids run from first_id, and coords[i] and entry i
        of each returned array belong to sample first_id + i.

        The ensembles are independent, so each one's assembly and solve run
        in a thread pool with a worker per CPU of the process's affinity (at
        most one per ensemble); the compiled kernels release the GIL.  Each
        solve may run on a team of its worker's share of the CPUs, so a level
        of fewer ensembles than CPUs still uses them all, and the pool and
        the teams together never ask for more threads than CPUs.  The
        results are handled one by one in plan order as they arrive, so the
        residual sink calls, notes and counters are those of a serial loop,
        and every output is independent of the worker count.
        The first failing ensemble in plan order raises, and the ensembles
        not yet started are cancelled.
        """
        slots = np.array(plan.ensembles) - first_id
        iters = np.zeros(len(coords), dtype=np.int64)
        qois = np.zeros(len(coords))
        indicators = np.zeros(len(coords))
        notes: list[str] = []
        counts = dict.fromkeys(_KERNEL_COUNTERS, 0)
        record = residual_sink is not None
        cpus = len(os.sched_getaffinity(0))
        workers = min(cpus, len(slots))
        threads = max(1, cpus // workers)

        def solve(positions: np.ndarray):
            system = assemble(self.mesh, self.field, coords[positions], self.mode_vals)
            return system.indicator, ensemble_pcg(
                system.matrix,
                system.rhs,
                tol=self.config.solver.tol,
                maxit=self.config.solver.maxit,
                record_history=record,
                threads=threads,
            )

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = pool.map(solve, slots)
            for k, (positions, pad, (indicator, result)) in enumerate(zip(slots, plan.padding, results)):
                if record:
                    residual_sink(plan.level, k, result.residual_history)
                stuck = ~result.converged_per_lane
                capped = f"hit maxit ({self.config.solver.maxit})"
                for lanes, how in ((stuck & ~result.frozen_lanes, capped),
                                   (stuck & result.frozen_lanes, "froze")):
                    if lanes.any():
                        notes.append(f"level {plan.level} ensemble {k}: "
                                     f"{np.count_nonzero(lanes)} lane(s) {how} unconverged")
                counts["streamed_lane_iterations"] += result.streamed_lane_iterations
                counts["frozen_lanes"] += int(np.count_nonzero(result.frozen_lanes))
                counts["unconverged_lanes"] += int(np.count_nonzero(stuck))
                real = len(positions) - pad
                iters[positions[:real]] = result.iterations_per_lane[:real]
                qois[positions[:real]] = [qoi(u) for u in result.solution[:real]]
                indicators[positions[:real]] = indicator[:real]
        finally:
            pool.shutdown(cancel_futures=True)
        return iters, qois, indicators, notes, counts


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class LevelSamples:
    """One level's samples as columns: entry i of each belongs to the i-th sample.

    Ids run on from the previous level's, and sample id's coordinates are
    row id of `HierGrid.from_json_dict(report.grid).node_coords()`.
    Iteration counts are ints for PDE problems and floats for analytic ones.
    predicted_iterations is None on level 1, before any surrogate exists, and
    indicator is None for analytic problems.
    """

    iterations: tuple[float, ...]
    predicted_iterations: tuple[float, ...] | None
    indicator: tuple[float, ...] | None

    def __post_init__(self) -> None:
        columns = (self.predicted_iterations, self.indicator)
        if any(c is not None and len(c) != len(self.iterations) for c in columns):
            raise ConfigurationError(f"sample columns of unequal length: not {len(self.iterations)} entries each")

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass(frozen=True)
class PlanRecord:
    """A level's ids in one strategy's order, cut into ensembles by `GroupingPlan(level, S, order)`."""

    strategy: str
    order: tuple[int, ...]
    work_ratio: float = dataclasses.field(metadata={"key": "R_l"})


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level: what its run observed, then what `derive_levels` computes from it.

    mean_qoi is the mean of the QoI surrogate fitted through this level.
    The lane counters sum over the level's executed ensembles and are None
    for analytic runs.  Only the kernel knows the streamed lane-iterations
    (`LaneSolveResult.streamed_lane_iterations`), frozen and unconverged
    lanes, so the manifest stores them.  The fields after them are derived,
    not stored: the plans, executed lane-iterations (S times each ensemble's
    largest count, the paper's lockstep accounting), useful ones (the real
    samples' counts), spmv_calls (the ensembles' iterations) and the mean
    and maximum of |predicted - iterations| (None on level 1).
    """

    level: int
    samples: LevelSamples
    error_indicator: float
    mean_qoi: float
    budget_truncated: bool
    streamed_lane_iterations: int | None
    frozen_lanes: int | None
    unconverged_lanes: int | None
    plans: tuple[PlanRecord, ...] = dataclasses.field(default=(), metadata=_DERIVED)
    executed_lane_iterations: int | None = dataclasses.field(default=None, metadata=_DERIVED)
    useful_lane_iterations: int | None = dataclasses.field(default=None, metadata=_DERIVED)
    spmv_calls: int | None = dataclasses.field(default=None, metadata=_DERIVED)
    mean_abs_prediction_error: float | None = dataclasses.field(default=None, metadata=_DERIVED)
    max_abs_prediction_error: float | None = dataclasses.field(default=None, metadata=_DERIVED)


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
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
        return not any(lv.unconverged_lanes for lv in self.levels)

    def level_ratios(self, strategy: str) -> list[float]:
        return [p.work_ratio for lv in self.levels for p in lv.plans if p.strategy == strategy]


# ---------------------------------------------------------------------------
# the adaptive loop and its accounting


def _executed(strategies: Sequence[str], level: int) -> str:
    """The strategy whose plan a level solves: `sur` from level 2 on when requested, else `nat`."""
    return "sur" if "sur" in strategies and level > 1 else "nat"


def _plan(strategy: str, level: int, ids: range, S: int, keys: Mapping[str, Sequence[float]]) -> GroupingPlan:
    """A strategy's plan of a level's ids: `its` by the counts, `sur` and `par` by their key from level 2 on."""
    if strategy == "its":
        return group_oracle(ids, keys["its"], S, level)
    if strategy == "nat" or level == 1:
        return group_natural(ids, S, level)
    return group_by_key(ids, keys[strategy], S, level)


def derive_levels(
    config: RunConfig, levels: Sequence[LevelRecord]
) -> tuple[tuple[LevelRecord, ...], dict[str, float], dict[str, float] | None]:
    """The levels with their derived fields, the run's R per strategy and its predicted speed-ups.

    A pure function of the config and what each level stores; ids run on
    from the earlier levels' sizes.  A PDE level's lane tallies read its
    executed plan.  An unconverged lane is charged the iterations it ran,
    not those it needed, so such a run's R and speed-ups are all NaN and
    `compute_R` is not called.
    """
    S = config.ensemble_size
    trusted = not any(lv.unconverged_lanes for lv in levels)
    accounting: dict[str, list[tuple[GroupingPlan, np.ndarray]]] = {s: [] for s in config.strategies}
    tallies = []
    first = 0
    for lv in levels:
        ids = range(first, first + len(lv.samples))
        iters = np.array(lv.samples.iterations)
        keys = {"its": iters, "sur": lv.samples.predicted_iterations, "par": lv.samples.indicator}
        for strat in config.strategies:
            plan = _plan(strat, lv.level, ids, S, keys)
            accounting[strat].append((plan, iters[np.array(plan.ensembles) - first]))
        tally = {}
        if config.is_pde:
            executed = _plan(_executed(config.strategies, lv.level), lv.level, ids, S, keys)
            calls = int(iters[np.array(executed.ensembles) - first].max(axis=1).sum())
            tally.update(executed_lane_iterations=S * calls, spmv_calls=calls,
                         useful_lane_iterations=int(iters.sum()))
        if lv.samples.predicted_iterations is not None:
            err = np.abs(np.array(lv.samples.predicted_iterations) - iters)
            tally.update(mean_abs_prediction_error=float(err.mean()),
                         max_abs_prediction_error=float(err.max()))
        tallies.append(tally)
        first += len(lv.samples)

    untrusted = ([math.nan] * len(levels), math.nan)
    ratios = {s: compute_R(accounting[s]) if trusted else untrusted for s in config.strategies}
    work_ratios = {s: total for s, (_, total) in ratios.items()}
    speedups = None
    if config.base_curve is not None and config.is_pde:
        curve = dict(config.base_curve)
        speedups = {strat: float(predicted_speedup(r, S, curve)) if trusted else math.nan
                    for strat, r in work_ratios.items()}

    derived = tuple(
        dataclasses.replace(lv, **tally, plans=tuple(
            PlanRecord(s, accounting[s][i][0].order, ratios[s][0][i]) for s in config.strategies))
        for i, (lv, tally) in enumerate(zip(levels, tallies))
    )
    return derived, work_ratios, speedups


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

    policy = RefinementPolicy(tau=config.tau, channel=QOI_CHANNEL, max_points=config.n_max)
    notes: list[str] = []
    levels: list[LevelRecord] = []
    truncated_pending = False

    for level in itertools.count(1):
        start = len(grid) - n_new
        ids = range(start, len(grid))
        coords = grid.node_coords()[start:]

        # Predictions for this level: the expansion is cut at the nodes
        # fitted through the previous level.
        predicted = grid.eval_many(ITER_CHANNEL, coords, n_nodes=start) if level > 1 else None

        # Solve each sample once, in the executed plan; `derive_levels`
        # forms it again, with every other plan, from the counts.
        if config.is_pde:
            plan = _plan(_executed(config.strategies, level), level, ids, config.ensemble_size, {"sur": predicted})
            iters, qois, indicator, solve_notes, counters = problem.solve_plan(plan, coords, start, sink)
            notes.extend(solve_notes)
        else:
            iters = problem.iter_values(coords)
            qois = problem.qoi_values(coords)
            indicator = None
            counters = dict.fromkeys(_KERNEL_COUNTERS)

        # Update the surrogates with this level's data.
        grid.compute_surpluses({QOI_CHANNEL: qois, ITER_CHANNEL: iters})

        samples = LevelSamples(
            iterations=tuple(iters.tolist()),
            predicted_iterations=None if predicted is None else tuple(predicted.tolist()),
            indicator=None if indicator is None else tuple(indicator.tolist()),
        )
        levels.append(LevelRecord(
            level=level, samples=samples, error_indicator=grid.error_indicator(QOI_CHANNEL),
            mean_qoi=grid.integrate_surrogate(QOI_CHANNEL), budget_truncated=truncated_pending, **counters))

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

    derived, work_ratios, speedups = derive_levels(config, levels)
    if config.base_curve is not None and not config.is_pde:
        notes.append("base curve ignored: analytic runs have no linear solver")
    unconverged = sum(lv.unconverged_lanes or 0 for lv in levels)
    if unconverged:
        stop_reason = "lanes_unconverged"
        notes.append(f"R and predicted speed-ups set to NaN: {unconverged} lane(s) stopped unconverged")

    return RunReport(
        config=config,
        levels=derived,
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
    schema without its derived fields: a level's samples are one list per
    column, it keeps no plans and only the kernel's lane counters
    (`LevelRecord`), and the grid is `HierGrid.to_json_dict`'s columns.  A
    report keeps its work_ratios and predicted_speedups, which
    `parse_manifest` checks against the ones it derives.  Files contain no timestamps, so
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
        size = report.config.ensemble_size
        for strat in report.config.strategies:
            for lv, ratio in zip(report.levels, report.level_ratios(strat)):
                n = len(lv.samples)
                writer.writerow([strat, size, lv.level, n, -(-n // size), _fmt(ratio), "", ""])
        for strat in report.config.strategies:
            speedup = (report.predicted_speedups or {}).get(strat)
            writer.writerow(
                [strat, size, "", "", "", "", _fmt(report.work_ratios[strat]), _fmt(speedup)]
            )

    # Compact separators and no indent keep json on its C encoder.
    manifest = json.dumps(_dump(_Manifest(MANIFEST_FORMAT, tuple(reports))), separators=(",", ":")) + "\n"

    # One f-string per row: every field is an int, a float repr or empty, so
    # none needs the quoting a csv.writer would check it for.
    rows = ["run,level,sample_id,iterations,predicted_iterations\n"]
    for run_idx, report in enumerate(reports):
        first = 0
        for lv in report.levels:
            s = lv.samples
            predicted = s.predicted_iterations or itertools.repeat(None)
            rows += [f"{run_idx},{lv.level},{sid},{its},{pred}\n" for sid, its, pred in
                     zip(itertools.count(first), map(_fmt, s.iterations), map(_fmt, predicted))]
            first += len(s)

    paths = {
        "table": out_dir / "r_table.csv",
        "manifest": out_dir / "manifest.json",
        "iterations": out_dir / "iterations_by_level.csv",
    }
    for path, text in zip(paths.values(), (table.getvalue(), manifest, "".join(rows))):
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
    """The reports of a manifest that `emit_reports` wrote, their derived fields rebuilt.

    Only format `MANIFEST_FORMAT` is read: any other, such as format 4 (whose
    config also held field and analytic settings no run varied) or format 3
    (which also stored each level's plans with their R_l, its executed and
    useful lane-iterations, SpMV calls and prediction errors), raises
    `ConfigurationError`.  A report's config is read as a `RunConfig`, and its
    levels pass through `derive_levels`; a report whose stored work_ratios or
    predicted_speedups are not bitwise the derived ones (NaN matching NaN) is
    refused.
    """
    doc = json.loads(Path(path).read_text())
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if type(fmt) is not int or fmt != MANIFEST_FORMAT:
        raise ConfigurationError(
            f"{path}: manifest format {fmt!r} is not format {MANIFEST_FORMAT}, the only one this "
            f"version reads (format 4 also stored field and analytic settings no run varied, format 3 "
            f"also plans, R_l and lane tallies, format 2 also ids, coordinates and ensembles; older "
            f"ones have no format key)")
    reports = []
    for i, stored in enumerate(_load(_Manifest, doc, "manifest").reports):
        levels, work_ratios, speedups = derive_levels(stored.config, stored.levels)
        # repr round-trips a float exactly, so equal JSON texts are equal bits.
        if json.dumps([work_ratios, speedups]) != json.dumps([stored.work_ratios, stored.predicted_speedups]):
            raise ConfigurationError(
                f"{path}: report {i}'s work_ratios or predicted_speedups are not those its levels give")
        reports.append(dataclasses.replace(stored, levels=levels))
    return reports
