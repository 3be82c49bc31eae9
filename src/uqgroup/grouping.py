"""Sample-to-ensemble grouping strategies and the work-inflation accounting.

An ensemble of width S advances all of its S member solves in lockstep until
the slowest member converges, so the cost of one ensemble is S times its
largest member iteration count.  The work ratio R compares that lockstep cost
against solving every sample individually; grouping samples with similar
iteration counts drives R toward 1.

Strategies: "nat" keeps samples in generation order, "sur"/"par" sort them
by a caller-supplied key aligned with the sample ids (predicted iterations,
anisotropy indicator), and "its" is the post-hoc oracle built from measured
iteration counts.  A plan is its sample order: consecutive runs of S samples
form the ensembles, and a short last ensemble is padded by replicating its
last sample; padded replicas do real lane work, so they count toward
ensemble cost but not toward the ideal per-sample cost.
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
    """One level's sample ids in plan order, cut into width-S ensembles.

    Ensemble k holds order[k*S:(k+1)*S]; the last one is filled up to S slots
    by replicating its last sample, and `padding[k]` counts those replicas
    (nonzero only for the last ensemble).
    """

    level: int
    ensemble_size: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ensemble_size < 1:
            raise GroupingError(f"ensemble size must be >= 1, got {self.ensemble_size}")

    @property
    def ensembles(self) -> tuple[tuple[int, ...], ...]:
        S, order = self.ensemble_size, self.order
        slots = order + order[-1:] * (-len(order) % S)
        return tuple(slots[k : k + S] for k in range(0, len(slots), S))

    @property
    def padding(self) -> tuple[int, ...]:
        pads = [0] * -(-len(self.order) // self.ensemble_size)
        if pads:
            pads[-1] = -len(self.order) % self.ensemble_size
        return tuple(pads)


def group_natural(ids: Sequence[int], size: int, level: int = 0) -> GroupingPlan:
    """Keep samples in generation order."""
    if not len(ids):
        raise GroupingError("cannot group an empty sample set")
    return GroupingPlan(level, size, tuple(ids))


def _ranked(ids: Sequence[int], keys: Sequence[float]) -> tuple[int, ...]:
    """ids by ascending key, stable in generation order; keys[i] belongs to ids[i]."""
    if not len(ids):
        raise GroupingError("cannot group an empty sample set")
    key_arr = np.asarray(keys, dtype=float)
    if key_arr.shape != (len(ids),):
        raise GroupingError(f"expected one key per sample ({len(ids)}), got shape {key_arr.shape}")
    if not np.all(np.isfinite(key_arr)):
        raise GroupingError("grouping keys must be finite")
    return tuple(ids[j] for j in np.argsort(key_arr, kind="stable").tolist())


def group_by_key(ids: Sequence[int], keys: Sequence[float], size: int, level: int = 0) -> GroupingPlan:
    """Sort samples by ascending key (stable in generation order); keys align with ids."""
    return GroupingPlan(level, size, _ranked(ids, keys))


def group_oracle(ids: Sequence[int], iterations: Sequence[float], size: int, level: int = 0) -> GroupingPlan:
    """Best-possible plan given measured iteration counts aligned with ids (never executed).

    Sorts ascending and, when the sample count is not a multiple of S, gives
    the remainder group the smallest samples instead of the largest: for
    group sizes (S, ..., S, r) the k-th smallest achievable group maximum is
    the order statistic at position r + (k-1)S, and this layout attains all of
    them at once.  The remainder group is placed last so the padding rule
    (replicate the last sample of the last group) applies unchanged.
    """
    plan = GroupingPlan(level, size, _ranked(ids, iterations))
    r = len(plan.order) % size
    return GroupingPlan(level, size, plan.order[r:] + plan.order[:r])


def compute_R(
    levels: Sequence[tuple[GroupingPlan, np.ndarray]],
) -> tuple[list[float], float]:
    """Per-level and total work ratios from plans plus their slot iteration counts.

    Each level pairs a plan with its (ensembles x S) matrix of slot iteration
    counts, row k holding ensemble k's slots.  The ensemble cost is
    S * sum_k max_i I(k, i) (replica slots included; they occupy real lanes)
    and the ideal cost sums the real samples only.  Both sums run over the
    ensembles in plan order, so R is bitwise that of a loop over them.  Empty
    levels yield NaN and are skipped in the total.  Returns (per-level
    ratios, total ratio).
    """
    per_level: list[float] = []
    num_total = 0.0
    den_total = 0.0
    for plan, slots in levels:
        if not plan.order:
            per_level.append(float("nan"))
            continue
        S = plan.ensemble_size
        vals = np.asarray(slots, dtype=float)
        if vals.shape != (len(plan.padding), S):
            raise GroupingError(f"expected {len(plan.padding)} x {S} slot iterations, got {vals.shape}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise GroupingError("slot iterations must be finite and non-negative")
        ideal = vals.sum(axis=1)
        # The last row sums its real slots alone: zeroed replicas would
        # change the order of numpy's pairwise sum from S = 8 on.
        ideal[-1] = vals[-1, : S - plan.padding[-1]].sum()
        # cumsum adds sequentially, one ensemble after the other.
        num = float(np.cumsum(S * vals.max(axis=1))[-1])
        den = float(np.cumsum(ideal)[-1])
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
