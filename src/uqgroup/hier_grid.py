"""Adaptive hierarchical sparse grids with piecewise-linear (hat) basis functions.

The grid lives on a canonical cube [-1, 1]^d and is mapped affinely to an
arbitrary box domain.  The one-dimensional rule is equidistant:

* level 0 carries the two boundary points -1 and +1 (indices 0 and 1),
* level l >= 1 carries the odd indices i in {1, 3, ..., 2^l - 1} at
  coordinates i * 2^(1-l) - 1,

and the hat centred at (l, i) has support width 2 * 2^(1-l).  Nodes are
identified by per-dimension (level, index) multi-indices; the tensor-product
hat of a node vanishes at every node of equal or lower total level, which
makes the hierarchical-surplus system triangular when processed cohort by
cohort.

Hats are evaluated by lookup, not by a dense points x nodes block.  The
grid indexes its nodes by level vector.  At a point, the hats of one level
vector overlap at most 2^z nodes, z being the number of its level-0
dimensions: one candidate index per dimension of level l >= 1 (the odd index
whose support holds the point) and both indices in each level-0 dimension.
Each candidate is looked up in the level vector's sorted index keys, so
evaluating p points costs O(p * level vectors * 2^z) instead of
O(p * nodes * d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GridError",
    "IncompleteDataError",
    "NodeId",
    "RefinementPolicy",
    "RefineOutcome",
    "HierGrid",
    "hat_eval",
    "basis_eval",
    "children",
]


class GridError(ValueError):
    """Invalid grid input (bad node ids, dimension mismatches, unknown channels)."""


class IncompleteDataError(GridError):
    """Raised when an operation needs surpluses or values that were never supplied."""


def _check_pair(level: int, index: int) -> None:
    if level < 0:
        raise GridError(f"negative level {level}")
    if level == 0:
        if index not in (0, 1):
            raise GridError(f"level-0 index must be 0 or 1, got {index}")
    else:
        if index % 2 == 0 or not 1 <= index <= 2**level - 1:
            raise GridError(f"level-{level} index must be odd in [1, {2**level - 1}], got {index}")


@dataclass(frozen=True)
class NodeId:
    """Immutable multi-index of a grid node: per-dimension levels and indices."""

    level: tuple[int, ...]
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.level) != len(self.index):
            raise GridError("level and index tuples differ in length")
        if not self.level:
            raise GridError("zero-dimensional node")
        for l, i in zip(self.level, self.index):
            _check_pair(l, i)

    @property
    def dim(self) -> int:
        return len(self.level)

    @property
    def total_level(self) -> int:
        return sum(self.level)

    def sort_key(self) -> tuple:
        # Canonical deterministic ordering: total level, then level vector,
        # then index vector, each lexicographic.
        return (self.total_level, self.level, self.index)

    def canonical_coords(self) -> np.ndarray:
        h = 2.0 ** (1 - np.asarray(self.level, dtype=float))
        return np.asarray(self.index, dtype=float) * h - 1.0


def hat_eval(level: int, index: int, y: float) -> float:
    """Evaluate the 1D hierarchical hat psi_{level,index} at canonical y."""
    _check_pair(level, index)
    h = 2.0 ** (1 - level)
    return max(0.0, 1.0 - abs(y - (index * h - 1.0)) / h)


def basis_eval(node: NodeId, y: Sequence[float]) -> float:
    """Tensor-product hat of `node` at a canonical point y in [-1, 1]^d."""
    y = np.asarray(y, dtype=float)
    if y.shape != (node.dim,):
        raise GridError(f"point has shape {y.shape}, expected ({node.dim},)")
    out = 1.0
    for l, i, yn in zip(node.level, node.index, y):
        out *= hat_eval(l, i, float(yn))
        if out == 0.0:
            break
    return out


def children(node: NodeId) -> list[NodeId]:
    """Hierarchical children of a node, one or two per dimension, deduplicated.

    In 1D a level-0 node (either boundary point) has the single child (1, 1);
    a node (l, i) with l >= 1 has children (l+1, 2i-1) and (l+1, 2i+1).  Both
    level-0 parents share the same child, so the result is a set.
    """
    out: set[NodeId] = set()
    for n, (l, i) in enumerate(zip(node.level, node.index)):
        if l == 0:
            variants = [(1, 1)]
        else:
            variants = [(l + 1, 2 * i - 1), (l + 1, 2 * i + 1)]
        for lv, iv in variants:
            level = node.level[:n] + (lv,) + node.level[n + 1 :]
            index = node.index[:n] + (iv,) + node.index[n + 1 :]
            out.add(NodeId(level, index))
    return sorted(out, key=NodeId.sort_key)


@dataclass(frozen=True)
class RefinementPolicy:
    """Surplus-threshold refinement driven by one output channel, with a budget."""

    tau: float
    channel: str = "qoi"
    max_points: int = 10**9

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise GridError(f"tau must be positive, got {self.tau}")
        if self.max_points < 1:
            raise GridError(f"max_points must be >= 1, got {self.max_points}")


class RefineOutcome(NamedTuple):
    new_nodes: list[NodeId]
    budget_exhausted: bool


# An index key packs one compressed index per dimension into an int64: the
# index itself in a level-0 dimension (1 bit), (i - 1) / 2 in a dimension of
# level l >= 1 (l - 1 bits).  A key thus takes at most total level + d bits,
# and nodes of total level above _KEY_BITS - d are refused.
_KEY_BITS = 62


class _LevelNodes:
    """The nodes of one level vector: sorted index keys and the nodes' positions."""

    __slots__ = ("level", "total", "shifts", "keys", "positions")

    def __init__(self, level: tuple[int, ...]):
        self.level = level
        self.total = sum(level)
        # bit offset of each dimension's compressed index in a key
        self.shifts = [0, *itertools.accumulate(1 if l == 0 else l - 1 for l in level[:-1])]
        self.keys = np.empty(0, dtype=np.int64)
        self.positions = np.empty(0, dtype=np.int64)

    def key(self, index: tuple[int, ...]) -> int:
        return sum((i if l == 0 else i >> 1) << s for l, i, s in zip(self.level, index, self.shifts))

    def add(self, keys: list[int], positions: list[int]) -> None:
        keys = np.concatenate([self.keys, np.array(keys, dtype=np.int64)])
        positions = np.concatenate([self.positions, np.array(positions, dtype=np.int64)])
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.positions = positions[order]


def _hats_1d(y: np.ndarray, level: int) -> list[tuple]:
    """Candidate (compressed index, hat values) pairs of one dimension's level at y.

    A level-0 dimension has both boundary hats as candidates.  A level l >= 1
    has one: the odd index 2 * floor(t / 2) + 1 with t = (y + 1) * 2^(l-1),
    clipped to [1, 2^l - 1], whose support holds y when y is in the box.
    """
    if level == 0:
        return [(0, np.maximum(1.0 - np.abs(y + 1.0) / 2.0, 0.0)),
                (1, np.maximum(1.0 - np.abs(y - 1.0) / 2.0, 0.0))]
    h = 2.0 ** (1 - level)
    # Clip in floating point only to powers of two, which it holds exactly.
    t_half = np.floor(np.clip((y + 1.0) * 2.0 ** (level - 2), 0.0, 2.0 ** (level - 1)))
    half = np.minimum(t_half.astype(np.int64), 2 ** (level - 1) - 1)
    center = (2 * half + 1) * h - 1.0
    return [(half, np.maximum(1.0 - np.abs(y - center) / h, 0.0))]


def _expand(terms: list[tuple], surpluses: np.ndarray, n_points: int) -> np.ndarray:
    """Sum of hat * surplus over the terms of `HierGrid._hat_terms`, in term order."""
    out = np.zeros(n_points)
    for rows, positions, hats in terms:
        out[rows] += hats * surpluses[positions]
    return out


class HierGrid:
    """Adaptive sparse grid holding nodes, per-channel surpluses and a frontier.

    The frontier is the cohort created by the most recent `add_initial_levels`
    or `refine` call.  New nodes always append, so the frontier is the grid's
    tail, stored as its start position.  Surpluses are fitted cohort by
    cohort, and refinement only inspects the frontier (classic local
    refinement, orphans permitted).  Instances are single-writer: no locking
    is attempted.
    """

    def __init__(self, dim: int, domain: Sequence[tuple[float, float]] | None = None):
        if dim < 1:
            raise GridError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        if domain is None:
            domain = [(-1.0, 1.0)] * dim
        domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        if len(domain) != dim:
            raise GridError("domain must give one interval per dimension")
        for lo, hi in domain:
            if not lo < hi:
                raise GridError(f"empty domain interval ({lo}, {hi})")
        self.domain = domain
        self._ids: list[NodeId] = []
        self._pos: dict[NodeId, int] = {}
        # Vectorised node data, kept in sync with _ids.
        self._half_width = np.empty((0, dim))  # hat support half-width 2^(1-l)
        self._center = np.empty((0, dim))  # canonical node coordinate
        self._total = np.empty((0,), dtype=int)
        # Node index by level vector, in order of each level vector's first node:
        # the fixed order in which every hat sum adds its terms.  Lookups extend
        # it in place by the nodes appended since (_level_index), so building a
        # grid does no index work before it is first fitted or evaluated.
        self._levels: dict[tuple[int, ...], _LevelNodes] = {}
        self._n_indexed = 0  # nodes at positions below this are in _levels
        self._surpluses: dict[str, np.ndarray] = {}
        self._front_start = 0  # position of the first frontier node

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._ids)

    @property
    def frontier(self) -> tuple[NodeId, ...]:
        return tuple(self._ids[self._front_start :])

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._surpluses)

    def position(self, node: NodeId) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise GridError(f"node {node} not in grid") from None

    def __contains__(self, node: NodeId) -> bool:
        return node in self._pos

    def node_coords(self) -> np.ndarray:
        """Domain coordinates of all nodes, shape (n_nodes, dim), generation order."""
        return self._to_domain(self._center)

    def surpluses(self, channel: str) -> np.ndarray:
        return self._channel(channel).copy()

    def surplus_of(self, node: NodeId, channel: str) -> float:
        return float(self._channel(channel)[self.position(node)])

    # -- coordinate maps ----------------------------------------------------

    def _to_domain(self, yc: np.ndarray) -> np.ndarray:
        lo = np.array([d[0] for d in self.domain])
        hi = np.array([d[1] for d in self.domain])
        return lo + (yc + 1.0) * 0.5 * (hi - lo)

    def _to_canonical(self, y: np.ndarray) -> np.ndarray:
        lo = np.array([d[0] for d in self.domain])
        hi = np.array([d[1] for d in self.domain])
        return 2.0 * (y - lo) / (hi - lo) - 1.0

    # -- construction -------------------------------------------------------

    def add_initial_levels(self, max_total_level: int) -> list[NodeId]:
        """Populate an empty grid with every node of total level <= max_total_level."""
        if len(self._ids):
            raise GridError("initial levels can only be added to an empty grid")
        if max_total_level < 0:
            raise GridError("max_total_level must be >= 0")
        new: list[NodeId] = []
        for total in range(max_total_level + 1):
            for lvl in _compositions(total, self.dim):
                index_sets = [_level_indices(l) for l in lvl]
                for idx in itertools.product(*index_sets):
                    new.append(NodeId(tuple(lvl), idx))
        new.sort(key=NodeId.sort_key)
        self._append(new)
        return new

    def _append(self, nodes: Sequence[NodeId]) -> None:
        for node in nodes:
            if node.dim != self.dim:
                raise GridError(f"node {node} has dim {node.dim}, grid has {self.dim}")
            if node in self._pos:
                raise GridError(f"duplicate node {node}")
            if node.total_level > _KEY_BITS - self.dim:
                raise GridError(f"node {node} is too deep to index (total level above {_KEY_BITS - self.dim})")
            self._pos[node] = len(self._ids)
            self._ids.append(node)
        if not nodes:
            return
        lv = np.array([n.level for n in nodes], dtype=float)
        idx = np.array([n.index for n in nodes], dtype=float)
        h = 2.0 ** (1.0 - lv)
        self._half_width = np.vstack([self._half_width, h])
        self._center = np.vstack([self._center, idx * h - 1.0])
        self._total = np.concatenate([self._total, np.array([n.total_level for n in nodes])])
        for name in self._surpluses:
            pad = np.full(len(nodes), np.nan)
            self._surpluses[name] = np.concatenate([self._surpluses[name], pad])

    # -- surplus fitting ----------------------------------------------------

    def compute_surpluses(self, values: Mapping[str, Sequence[float]]) -> None:
        """Fit hierarchical surpluses of the frontier cohort for every given channel.

        `values` maps each channel to one finite function value per frontier
        node, in frontier order.  All earlier cohorts of a channel must already
        be fitted.  The frontier may span several total levels (the initial
        grid does); it is processed in ascending total level, which is exactly
        the triangular order of the interpolation system.  The nodes of a
        level's points are those of every level vector of lower total level,
        found by lookup; rows, nodes and hat values are shared by all
        channels, and each channel sums its own terms in one fixed order, so
        a channel's surpluses do not depend on the channels fitted with it.
        The cost is O(cohort points * level vectors * 2^z) for z level-0
        dimensions.  Re-running with identical inputs is a no-op.
        """
        if not self._ids:
            raise GridError("empty grid")
        start = self._front_start
        fits = []
        for channel, vals in values.items():
            v = np.asarray(vals, dtype=float)
            if v.shape != (len(self._ids) - start,):
                raise IncompleteDataError(
                    f"channel {channel!r} needs one value per frontier node "
                    f"({len(self._ids) - start}), got shape {v.shape}"
                )
            if not np.all(np.isfinite(v)):
                raise GridError(f"channel {channel!r} has non-finite values")
            c = self._surpluses.get(channel, np.full(len(self._ids), np.nan))
            if not np.all(np.isfinite(c[:start])):
                raise IncompleteDataError(
                    f"channel {channel!r} has unfitted earlier cohorts; fit them first"
                )
            fits.append((channel, c, v))

        totals = self._total[start:]
        for total in np.unique(totals):
            group = np.flatnonzero(totals == total)
            lower = [entry for entry in self._level_index().values() if entry.total < total]
            terms = self._hat_terms(self._center[start + group], lower)
            for _, c, v in fits:
                c[start + group] = v[group] - _expand(terms, c, len(group))
        for channel, c, _ in fits:
            self._surpluses[channel] = c

    def _level_index(self) -> dict[tuple[int, ...], _LevelNodes]:
        """The node index by level vector, first extended by the nodes appended since."""
        added: dict[tuple[int, ...], list[int]] = {}
        for p in range(self._n_indexed, len(self._ids)):
            added.setdefault(self._ids[p].level, []).append(p)
        for level, positions in added.items():
            entry = self._levels.get(level)
            if entry is None:
                entry = self._levels[level] = _LevelNodes(level)
            entry.add([entry.key(self._ids[p].index) for p in positions], positions)
        self._n_indexed = len(self._ids)
        return self._levels

    def _hat_terms(
        self, points_canonical: np.ndarray, entries: Iterable[_LevelNodes], n_nodes: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The hats of the given level vectors that can be nonzero at the points.

        One term per level vector and candidate index vector: the rows of the
        points whose candidate is a grid node (at a position below n_nodes),
        that node's position, and its hat 1 - |y - c| / h clipped at 0 and
        multiplied over dimensions in dimension order.
        """
        one_d: dict[tuple[int, int], list[tuple]] = {}
        terms = []
        for entry in entries:
            options = []
            for k, l in enumerate(entry.level):
                if (k, l) not in one_d:
                    one_d[k, l] = _hats_1d(points_canonical[:, k], l)
                options.append(one_d[k, l])
            for combo in itertools.product(*options):
                hats = combo[0][1]
                for _, hat in combo[1:]:
                    hats = hats * hat
                key = np.zeros(len(points_canonical), dtype=np.int64)
                for (half, _), shift in zip(combo, entry.shifts):
                    key += half << shift
                j = np.minimum(np.searchsorted(entry.keys, key), len(entry.keys) - 1)
                positions = entry.positions[j]
                found = entry.keys[j] == key
                if n_nodes is not None:
                    found &= positions < n_nodes
                rows = np.flatnonzero(found)
                if rows.size:
                    terms.append((rows, positions[rows], hats[rows]))
        return terms

    # -- evaluation ---------------------------------------------------------

    def _channel(self, channel: str) -> np.ndarray:
        if channel not in self._surpluses:
            raise GridError(f"unknown channel {channel!r}")
        return self._surpluses[channel]

    def eval_many(
        self, channel: str, points: np.ndarray, n_nodes: int | None = None
    ) -> np.ndarray:
        """Evaluate the channel surrogate at domain points, shape (p, dim) -> (p,).

        Points outside every hat's support simply collect zero contributions;
        NaN or infinite points raise `GridError`.  n_nodes restricts the
        expansion to the first n_nodes grid nodes, which lets a freshly
        extended grid be queried with the surpluses fitted so far (new nodes
        always append after the fitted ones): a node found by lookup at a
        later position counts as absent.  The cost is
        O(p * level vectors * 2^z) for z level-0 dimensions.
        """
        c = self._channel(channel)
        if n_nodes is None:
            n_nodes = len(self._ids)
        elif not 0 <= n_nodes <= len(self._ids):
            raise GridError(f"n_nodes must be in [0, {len(self._ids)}]")
        c = c[:n_nodes]
        if not np.all(np.isfinite(c)):
            raise IncompleteDataError(f"channel {channel!r} has unfitted surpluses")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise GridError(f"points must have shape (p, {self.dim})")
        if not np.all(np.isfinite(points)):
            raise GridError("points must be finite")
        terms = self._hat_terms(self._to_canonical(points), self._level_index().values(), n_nodes)
        return _expand(terms, c, len(points))

    def integrate_surrogate(self, channel: str) -> float:
        """Mean of the surrogate under the uniform density on the domain box.

        One-dimensional hat integrals on [-1, 1] are h_l for interior levels
        and h_0/2 = 1 for the boundary hats; dividing by the canonical width 2
        per dimension makes the affine domain map cancel.
        """
        c = self._channel(channel)
        if not np.all(np.isfinite(c)):
            raise IncompleteDataError(f"channel {channel!r} has unfitted surpluses")
        w = np.where(self._half_width >= 2.0, 1.0, self._half_width)
        return float(np.sum(c * (w / 2.0).prod(axis=1)))

    # -- refinement ---------------------------------------------------------

    def refine(self, policy: RefinementPolicy) -> RefineOutcome:
        """Add children of frontier nodes whose driving surplus exceeds tau.

        Children are deduplicated, ordered canonically, and appended until the
        point budget is reached; an empty result with budget_exhausted=False
        signals convergence of the refinement criterion.
        """
        front = self._channel(policy.channel)[self._front_start :]
        if not np.all(np.isfinite(front)):
            raise IncompleteDataError(f"frontier surpluses unfitted on channel {policy.channel!r}")
        candidates: set[NodeId] = set()
        for k in np.flatnonzero(np.abs(front) >= policy.tau):
            for child in children(self._ids[self._front_start + k]):
                if child not in self._pos:
                    candidates.add(child)
        ordered = sorted(candidates, key=NodeId.sort_key)
        space = policy.max_points - len(self._ids)
        budget_exhausted = len(ordered) > space
        if budget_exhausted:
            ordered = ordered[: max(0, space)]
        if ordered:
            self._front_start = len(self._ids)
            self._append(ordered)
        return RefineOutcome(ordered, budget_exhausted)

    def error_indicator(self, channel: str) -> float:
        """Maximum absolute surplus over the frontier on the given channel."""
        vals = self._channel(channel)[self._front_start :]
        if vals.size == 0:
            return 0.0
        if not np.all(np.isfinite(vals)):
            raise IncompleteDataError(f"frontier surpluses unfitted on channel {channel!r}")
        return float(np.max(np.abs(vals)))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        coords = self.node_coords()
        nodes = []
        for p, node in enumerate(self._ids):
            nodes.append(
                {
                    "level": list(node.level),
                    "index": list(node.index),
                    "coords": [float(x) for x in coords[p]],
                    "surpluses": {
                        name: (float(arr[p]) if np.isfinite(arr[p]) else None)
                        for name, arr in self._surpluses.items()
                    },
                }
            )
        return {"dim": self.dim, "domain": [list(d) for d in self.domain], "nodes": nodes}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "HierGrid":
        grid = cls(int(doc["dim"]), [tuple(d) for d in doc["domain"]])
        ids = [NodeId(tuple(n["level"]), tuple(n["index"])) for n in doc["nodes"]]
        grid._append(ids)
        for p, n in enumerate(doc["nodes"]):
            for name, val in n.get("surpluses", {}).items():
                if name not in grid._surpluses:
                    grid._surpluses[name] = np.full(len(ids), np.nan)
                grid._surpluses[name][p] = np.nan if val is None else float(val)
        return grid


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _level_indices(level: int) -> list[int]:
    if level == 0:
        return [0, 1]
    return list(range(1, 2**level, 2))
