"""Sample-to-ensemble grouping strategies and the work-inflation accounting.

An ensemble of width S advances all of its S member solves in lockstep until
the slowest member converges, so the cost of one ensemble is S times its
largest member iteration count.  The work ratio R compares that lockstep cost
against solving every sample individually; grouping samples with similar
iteration counts drives R toward 1.

Strategies: "nat" chunks samples in generation order, "sur"/"par" chunk in
ascending order of a caller-supplied key (predicted iterations, anisotropy
indicator), and "its" is the post-hoc oracle built from measured iteration
counts.  Short final chunks are padded by replicating the last sample of the
last group; padded replicas do real lane work, so they count toward ensemble
cost but not toward the ideal per-sample cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "GroupingError",
    "GroupingPlan",
    "group_natural",
    "group_by_key",
    "group_oracle",
    "compute_R",
    "predicted_speedup",
]


class GroupingError(ValueError):
    """Invalid grouping input (missing keys, bad ensemble size, unknown S)."""


@dataclass(frozen=True)
class GroupingPlan:
    """Ordered assignment of sample ids to width-S ensembles for one level.

    Every group has exactly `ensemble_size` slots; `padding[k]` counts the
    trailing replica slots in group k (nonzero only for the last group, which
    replicates its own last real sample).
    """

    level: int
    ensemble_size: int
    ensembles: tuple[tuple[int, ...], ...]
    padding: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ensemble_size < 1:
            raise GroupingError(f"ensemble size must be >= 1, got {self.ensemble_size}")
        if len(self.padding) != len(self.ensembles):
            raise GroupingError("padding must give one count per ensemble")
        for k, (group, pad) in enumerate(zip(self.ensembles, self.padding)):
            if len(group) != self.ensemble_size:
                raise GroupingError(f"group {k} has {len(group)} slots, expected {self.ensemble_size}")
            if pad and k != len(self.ensembles) - 1:
                raise GroupingError("only the last group may be padded")
            if not 0 <= pad < self.ensemble_size:
                raise GroupingError(f"invalid padding count {pad}")
            if pad:
                last_real = group[self.ensemble_size - pad - 1]
                if any(slot != last_real for slot in group[self.ensemble_size - pad :]):
                    raise GroupingError("padding must replicate the last real sample")


def _chunk(ids: Sequence[int], size: int, level: int) -> GroupingPlan:
    if size < 1:
        raise GroupingError(f"ensemble size must be >= 1, got {size}")
    groups: list[tuple[int, ...]] = []
    padding: list[int] = []
    for start in range(0, len(ids), size):
        group = list(ids[start : start + size])
        pad = size - len(group)
        if pad:
            group.extend([group[-1]] * pad)
        groups.append(tuple(group))
        padding.append(pad)
    return GroupingPlan(level, size, tuple(groups), tuple(padding))


def group_natural(ids: Sequence[int], size: int, level: int = 0) -> GroupingPlan:
    """Chunk samples in generation order into width-`size` ensembles."""
    if not ids:
        raise GroupingError("cannot group an empty sample set")
    return _chunk(list(ids), size, level)


def group_by_key(
    ids: Sequence[int],
    keys: Mapping[int, float],
    size: int,
    level: int = 0,
) -> GroupingPlan:
    """Sort samples by ascending key (stable in generation order), then chunk."""
    if not ids:
        raise GroupingError("cannot group an empty sample set")
    try:
        key_arr = np.array([float(keys[i]) for i in ids])
    except KeyError as err:
        raise GroupingError(f"no key supplied for sample {err.args[0]}") from None
    if not np.all(np.isfinite(key_arr)):
        raise GroupingError("grouping keys must be finite")
    order = np.argsort(key_arr, kind="stable")
    return _chunk([ids[int(j)] for j in order], size, level)


def group_oracle(
    ids: Sequence[int],
    iterations: Mapping[int, float],
    size: int,
    level: int = 0,
) -> GroupingPlan:
    """Best-possible chunking given measured iteration counts (never executed).

    Sorts ascending and, when the sample count is not a multiple of S, gives
    the remainder group the smallest samples instead of the largest: for
    group sizes (S, ..., S, r) the k-th smallest achievable group maximum is
    the order statistic at position r + (k-1)S, and this layout attains all of
    them at once.  The remainder group is emitted last so the padding rule
    (replicate the last sample of the last group) applies unchanged.
    """
    if not ids:
        raise GroupingError("cannot group an empty sample set")
    try:
        key_arr = np.array([float(iterations[i]) for i in ids])
    except KeyError as err:
        raise GroupingError(f"no iteration count for sample {err.args[0]}") from None
    if not np.all(np.isfinite(key_arr)):
        raise GroupingError("iteration counts must be finite")
    order = np.argsort(key_arr, kind="stable")
    ranked = [ids[int(j)] for j in order]
    r = len(ranked) % size
    if r:
        ranked = ranked[r:] + ranked[:r]
    return _chunk(ranked, size, level)


def compute_R(
    levels: Sequence[tuple[GroupingPlan, Sequence[Sequence[float]]]],
) -> tuple[list[float], float]:
    """Per-level and total work ratios from plans plus per-slot iteration counts.

    For each level, the ensemble cost is S * sum_k max_i I(slot k,i) (replica
    slots included; they occupy real lanes) and the ideal cost sums the real
    samples only.  Empty levels yield NaN and are skipped in the total.
    Returns (per-level ratios, total ratio).
    """
    per_level: list[float] = []
    num_total = 0.0
    den_total = 0.0
    for plan, iters in levels:
        if not plan.ensembles:
            per_level.append(float("nan"))
            continue
        if len(iters) != len(plan.ensembles):
            raise GroupingError("iteration lists must match the plan's ensembles")
        num = 0.0
        den = 0.0
        for group, pad, group_iters in zip(plan.ensembles, plan.padding, iters):
            vals = np.asarray(group_iters, dtype=float)
            if vals.shape != (plan.ensemble_size,):
                raise GroupingError(
                    f"expected {plan.ensemble_size} slot iterations, got {vals.shape}"
                )
            if not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise GroupingError("slot iterations must be finite and non-negative")
            num += plan.ensemble_size * float(vals.max())
            den += float(vals[: plan.ensemble_size - pad].sum())
        if den <= 0:
            raise GroupingError("level has zero ideal work; iteration counts all zero")
        per_level.append(num / den)
        num_total += num
        den_total += den
    total = num_total / den_total if den_total > 0 else float("nan")
    return per_level, total


def predicted_speedup(R: float, size: int, base_curve: Mapping[int, float]) -> float:
    """Scale a measured perfect-grouping speed-up curve by the work ratio."""
    if R <= 0 or not np.isfinite(R):
        raise GroupingError(f"work ratio must be positive and finite, got {R}")
    try:
        base = float(base_curve[size])
    except KeyError:
        raise GroupingError(f"base curve has no entry for ensemble size {size}") from None
    return base / R
