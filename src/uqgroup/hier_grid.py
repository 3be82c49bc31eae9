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

Hats are evaluated by lookup, not by a dense points x nodes block.  The grid
indexes its nodes by level vector, in plain arrays the compiled kernels
read: each level vector's range of sorted index keys and their nodes' grid
positions.  The index is extended as nodes are appended, one stable sort
placing the new keys among the old.  At a point, the hats of one level
vector overlap at most 2^z nodes, z being the number of its level-0
dimensions: one candidate index per dimension of level l >= 1 (the odd index
whose support holds the point) and both indices in each level-0 dimension.
A fit or an evaluation sums a whole cohort of points in one compiled call
(`hat_sums` in `_spmv.c`), every channel at once.  It tabulates the hats of
each (dimension, level) pair at every point once, then takes the level
vectors, in index order, outermost and the points innermost, so one level
vector's keys stay in cache while every point binary-searches them for its
candidates.  A candidate whose hat is 0 is skipped before its lookup: it
would add a signed zero to a sum of finite terms, which leaves the sum's
bits as they are.  Each point's sum thus adds its terms in one fixed order,
level vector by level vector and candidate by candidate, bitwise the numpy
term-order sum the tests keep as its reference.  Evaluating p points costs
at most O(p * level vectors * 2^z) lookups of O(log n) each instead of
O(p * nodes * d) hat products; on the `sg-refine` benchmark unit two thirds
of the candidates are zero hats.

Each node is stored once, as a row of (n, d) level and index arrays, and the
level-vector index is the only node lookup: the hat sums, refinement and the
duplicate check of a loaded grid all go through it.  `NodeId` is the
validated (level, index) pair that `nodes` and `frontier` list and that a
loaded grid's nodes are checked as.  The JSON form of a grid is columnar:
level rows, index rows and one surplus list per channel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._kernels import _FIND_NODES, _HAT_SUMS

__all__ = [
    "GridError",
    "IncompleteDataError",
    "NodeId",
    "RefinementPolicy",
    "RefineOutcome",
    "HierGrid",
    "initial_grid_size",
]


class GridError(ValueError):
    """Invalid grid input (bad node ids, dimension mismatches, unknown channels)."""


class IncompleteDataError(GridError):
    """Raised when an operation needs surpluses or values that were never supplied."""


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
            if l < 0:
                raise GridError(f"negative level {l}")
            if l == 0 and i not in (0, 1):
                raise GridError(f"level-0 index must be 0 or 1, got {i}")
            if l > 0 and (i % 2 == 0 or not 1 <= i <= 2**l - 1):
                raise GridError(f"level-{l} index must be odd in [1, {2**l - 1}], got {i}")

    @property
    def total_level(self) -> int:
        return sum(self.level)


def _node_ids(level: np.ndarray, index: np.ndarray) -> list[NodeId]:
    return [NodeId(tuple(l), tuple(i)) for l, i in zip(level.tolist(), index.tolist())]


def _children(level: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hierarchical children of (k, d) node rows: 2 d k rows, not deduplicated.

    In one dimension at a time a level-0 entry becomes (1, 1), listed twice,
    and an entry (l, i) with l >= 1 becomes (l+1, 2i-1) and (l+1, 2i+1).
    """
    d = level.shape[1]
    raised = np.eye(d, dtype=bool)[:, None, :]  # (d, 1, d): the refined dimension
    child_level = np.where(raised, level + 1, level)
    left = np.where(raised, np.where(level == 0, 1, 2 * index - 1), index)
    right = np.where(raised, np.where(level == 0, 1, 2 * index + 1), index)
    levels = np.concatenate([child_level, child_level])
    return levels.reshape(-1, d), np.concatenate([left, right]).reshape(-1, d)


def _sorted_distinct(level: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in canonical order: total level, then level vector,
    then index vector, each lexicographic."""
    order = np.lexsort((*index.T[::-1], *level.T[::-1], level.sum(axis=1)))
    level, index = level[order], index[order]
    keep = np.ones(len(level), dtype=bool)
    keep[1:] = np.any((level[1:] != level[:-1]) | (index[1:] != index[:-1]), axis=1)
    return level[keep], index[keep]


def _group_rows(level: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """The distinct level vectors of (m, d) rows, sorted, the first row of
    each and each row's number in that list."""
    vectors, first, group = np.unique(level, axis=0, return_index=True, return_inverse=True)
    return [tuple(v) for v in vectors.tolist()], first, group.reshape(-1)


@dataclass(frozen=True)
class RefinementPolicy:
    """Surplus-threshold refinement driven by one output channel, with a budget."""

    tau: float
    channel: str = "qoi"
    max_points: int = 10**9

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:
            raise GridError(f"tau must be positive and finite, got {self.tau}")
        if self.max_points < 1:
            raise GridError(f"max_points must be >= 1, got {self.max_points}")


class RefineOutcome(NamedTuple):
    n_new: int
    budget_exhausted: bool


# An index key packs one compressed index per dimension into an int64: the
# index itself in a level-0 dimension (1 bit), (i - 1) / 2 in a dimension of
# level l >= 1 (l - 1 bits).  A key thus takes at most total level + d bits,
# and nodes of total level above _KEY_BITS - d are refused.
_KEY_BITS = 62


def _keys(level: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The index keys of (m, d) node rows, each in the layout of its own level vector."""
    bits = np.where(level == 0, 1, level - 1)
    return ((index >> np.minimum(level, 1)) << (np.cumsum(bits, axis=1) - bits)).sum(axis=1)


class _LevelIndex:
    """A grid's nodes by level vector, as the plain arrays the compiled lookup
    (`_spmv.c`) reads, extended as nodes are appended.

    Level vectors are numbered in order of their first node, the fixed order
    in which every hat sum adds its terms; number v is row v of `level`.  The
    indexed nodes, the grid's first len(keys) nodes, are sorted by level vector
    number, then index key, stably, so that a loaded grid's duplicate node
    comes after its first copy: entries [offsets[v], offsets[v + 1]) of
    `keys` and `positions` are v's nodes' keys and grid positions.
    """

    def __init__(self, dim: int):
        self.ids: dict[tuple[int, ...], int] = {}
        self.level = np.empty((0, dim), dtype=np.int64)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.positions = np.empty(0, dtype=np.int64)

    def extend(self, level: np.ndarray, index: np.ndarray) -> None:
        """Index the nodes of the grid's (n, d) rows from position len(keys) on."""
        start = len(self.keys)
        vectors, first, group = _group_rows(level[start:])
        for g in np.argsort(first):
            self.ids.setdefault(vectors[g], len(self.ids))
        self.level = np.array(list(self.ids), dtype=np.int64).reshape(-1, level.shape[1])
        numbers = np.concatenate([np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets)),
                                  np.array([self.ids[lv] for lv in vectors], dtype=np.int64)[group]])
        keys = np.concatenate([self.keys, _keys(level[start:], index[start:])])
        order = np.lexsort((keys, numbers))
        self.keys = keys[order]
        self.positions = np.concatenate([self.positions, np.arange(start, len(level))])[order]
        self.offsets = np.searchsorted(numbers[order], np.arange(len(self.ids) + 1))

    def ids_of(self, level: np.ndarray) -> np.ndarray:
        """The number of each (m, d) row's level vector, -1 where it has no node."""
        vectors, _, group = _group_rows(level)
        return np.array([self.ids.get(lv, -1) for lv in vectors], dtype=np.int64)[group]


class HierGrid:
    """Adaptive sparse grid holding nodes, per-channel surpluses and a frontier.

    Nodes are rows of the int64 arrays `_level`/`_index`, looked up only
    through the level-vector index; `_append` checks a whole batch before it
    changes any state.  The frontier is the cohort created by the most recent
    `add_initial_levels` or `refine` call.  New nodes always append, so the
    frontier is the grid's tail, stored as its start position.  Surpluses are
    fitted cohort by cohort, and refinement only inspects the frontier
    (classic local refinement, orphans permitted).  Instances are
    single-writer: no locking is attempted.
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
        self._level = np.empty((0, dim), dtype=np.int64)
        self._index = np.empty((0, dim), dtype=np.int64)
        self._center = np.empty((0, dim))  # canonical node coordinate
        # Node index by level vector.  Lookups first extend it by the nodes
        # appended since (_node_index), so building a grid does no index
        # work before it is first fitted or evaluated.
        self._by_level = _LevelIndex(dim)
        self._surpluses: dict[str, np.ndarray] = {}
        self._front_start = 0  # position of the first frontier node

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._level)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(_node_ids(self._level, self._index))

    @property
    def frontier(self) -> tuple[NodeId, ...]:
        return tuple(_node_ids(self._level[self._front_start :], self._index[self._front_start :]))

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._surpluses)

    def node_coords(self) -> np.ndarray:
        """Domain coordinates of all nodes, shape (n_nodes, dim), generation order."""
        return self._to_domain(self._center)

    def surpluses(self, channel: str) -> np.ndarray:
        return self._channel(channel).copy()

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

    def add_initial_levels(self, max_total_level: int) -> int:
        """Populate an empty grid with every node of total level <= max_total_level.

        Returns the number of nodes added, the size of the first frontier.
        """
        if len(self):
            raise GridError("initial levels can only be added to an empty grid")
        if max_total_level < 0:
            raise GridError("max_total_level must be >= 0")
        # Compositions come in lexicographic order per total and index
        # products in lexicographic order, so the rows are already canonical.
        levels, indices = [], []
        for total in range(max_total_level + 1):
            for lvl in _compositions(total, self.dim):
                for idx in itertools.product(*[range(1, 2**l, 2) if l else (0, 1) for l in lvl]):
                    levels.append(lvl)
                    indices.append(idx)
        self._append(np.array(levels, dtype=np.int64), np.array(indices, dtype=np.int64))
        return len(self)

    def _append(self, level: np.ndarray, index: np.ndarray) -> None:
        """Append (m, dim) level and index rows of new nodes, checking the whole batch first."""
        deep = level.sum(axis=1) > _KEY_BITS - self.dim
        if deep.any():
            raise GridError(f"level {level[deep][0].tolist()} is too deep to index "
                            f"(total level above {_KEY_BITS - self.dim})")
        h = 2.0 ** (1.0 - level)
        self._level = np.concatenate([self._level, level])
        self._index = np.concatenate([self._index, index])
        self._center = np.concatenate([self._center, index * h - 1.0])
        for name, c in self._surpluses.items():
            self._surpluses[name] = np.concatenate([c, np.full(len(level), np.nan)])

    def _find(self, level: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Grid positions of (m, dim) level and index rows, -1 for rows not in the grid."""
        nodes = self._node_index()
        ids, keys = nodes.ids_of(level), _keys(level, index)
        out = np.empty(len(level), dtype=np.int64)
        _FIND_NODES(len(level), ids.ctypes.data, keys.ctypes.data, nodes.offsets.ctypes.data,
                    nodes.keys.ctypes.data, nodes.positions.ctypes.data, out.ctypes.data)
        return out

    # -- surplus fitting ----------------------------------------------------

    def compute_surpluses(self, values: Mapping[str, Sequence[float]]) -> None:
        """Fit hierarchical surpluses of the frontier cohort for every given channel.

        `values` maps each channel to one finite function value per frontier
        node, in frontier order.  All earlier cohorts of a channel must already
        be fitted.  The frontier may span several total levels (the initial
        grid does); it is processed in ascending total level, which is exactly
        the triangular order of the interpolation system.  The nodes of a
        level's points are those of every level vector of lower total level,
        found by lookup; all channels of a total level are summed in one
        kernel call, and each channel sums its own terms in one fixed order,
        so a channel's surpluses do not depend on the channels fitted with
        it.  A surplus that overflows raises `GridError` and leaves every
        channel as it was.  The cost is O(cohort points * level vectors * 2^z)
        lookups at most, for z level-0 dimensions.  Re-running with identical
        inputs is a no-op.
        """
        if not len(self):
            raise GridError("empty grid")
        start = self._front_start
        # One row per channel: its fitted surpluses, then its frontier values,
        # each replaced by its surplus once its total level is fitted.  The
        # sums of a total level read only nodes of lower ones.
        block = np.full((len(values), len(self)), np.nan)
        for c, (channel, vals) in zip(block, values.items()):
            v = np.asarray(vals, dtype=float)
            if v.shape != (len(self) - start,):
                raise IncompleteDataError(
                    f"channel {channel!r} needs one value per frontier node "
                    f"({len(self) - start}), got shape {v.shape}"
                )
            if not np.all(np.isfinite(v)):
                raise GridError(f"channel {channel!r} has non-finite values")
            if channel in self._surpluses:
                c[:start] = self._surpluses[channel][:start]
            if not np.all(np.isfinite(c[:start])):
                raise IncompleteDataError(
                    f"channel {channel!r} has unfitted earlier cohorts; fit them first"
                )
            c[start:] = v

        totals = self._level[start:].sum(axis=1)
        nodes = self._node_index()
        level_totals = nodes.level.sum(axis=1)
        for total in np.unique(totals):
            group = np.flatnonzero(totals == total)
            sums = self._hat_sums(self._center[start + group], np.flatnonzero(level_totals < total),
                                  block)
            block[:, start + group] -= sums
            # Later sums skip the terms of zero hats, which adds the same only
            # while every surplus is finite.
            for channel, c in zip(values, block):
                if not np.all(np.isfinite(c[start + group])):
                    raise GridError(f"channel {channel!r} has surpluses that overflow")
        self._surpluses.update(zip(values, block))

    def _node_index(self) -> _LevelIndex:
        """The node index by level vector, first extended by the nodes appended since."""
        if len(self._by_level.keys) < len(self):
            self._by_level.extend(self._level, self._index)
        return self._by_level

    def _hat_sums(self, points_canonical: np.ndarray, use: np.ndarray,
                  surpluses: np.ndarray) -> np.ndarray:
        """(channels, p) sums of hat * surplus at (p, dim) canonical points.

        `surpluses` is a (channels, n_nodes) block.  Each channel's sum runs
        over the nodes below position n_nodes of the level vectors numbered in
        `use`, in that order, then over each level vector's candidate index
        vectors in `itertools.product` order, with every hat multiplied over
        dimensions in dimension order (`hat_sums` in `_spmv.c`).
        """
        nodes = self._node_index()
        y = np.ascontiguousarray(points_canonical, dtype=np.float64)
        use = np.ascontiguousarray(use, dtype=np.int64)
        surpluses = np.ascontiguousarray(surpluses, dtype=np.float64)
        out = np.empty((len(surpluses), len(y)))
        if _HAT_SUMS(self.dim, len(y), y.ctypes.data, len(use), use.ctypes.data,
                     nodes.level.ctypes.data, nodes.offsets.ctypes.data, nodes.keys.ctypes.data,
                     nodes.positions.ctypes.data, surpluses.shape[1], len(surpluses),
                     surpluses.ctypes.data, out.ctypes.data):
            raise MemoryError(f"no memory for the hat tables of {len(y)} points")
        return out

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
        later position counts as absent.  The cost is at most
        O(p * level vectors * 2^z) lookups, for z level-0 dimensions.
        """
        c = self._channel(channel)
        if n_nodes is None:
            n_nodes = len(self)
        elif not 0 <= n_nodes <= len(self):
            raise GridError(f"n_nodes must be in [0, {len(self)}]")
        if not np.all(np.isfinite(c[:n_nodes])):
            raise IncompleteDataError(f"channel {channel!r} has unfitted surpluses")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise GridError(f"points must have shape (p, {self.dim})")
        if not np.all(np.isfinite(points)):
            raise GridError("points must be finite")
        nodes = self._node_index()
        return self._hat_sums(self._to_canonical(points), np.arange(len(nodes.level)), c[None, :n_nodes])[0]

    def integrate_surrogate(self, channel: str) -> float:
        """Mean of the surrogate under the uniform density on the domain box.

        One-dimensional hat integrals on [-1, 1] are h_l for interior levels
        and h_0/2 = 1 for the boundary hats; dividing by the canonical width 2
        per dimension makes the affine domain map cancel.
        """
        c = self._channel(channel)
        if not np.all(np.isfinite(c)):
            raise IncompleteDataError(f"channel {channel!r} has unfitted surpluses")
        w = np.where(self._level == 0, 1.0, 2.0 ** (1.0 - self._level))
        return float(np.sum(c * (w / 2.0).prod(axis=1)))

    # -- refinement ---------------------------------------------------------

    def refine(self, policy: RefinementPolicy) -> RefineOutcome:
        """Add children of frontier nodes whose driving surplus reaches tau.

        Children are deduplicated, stripped of nodes already in the grid,
        ordered canonically, and cut to the point budget.  New nodes, if
        any, become the frontier, the grid's tail.  Returns how many nodes were
        added and whether the budget cut any; n_new == 0 with
        budget_exhausted=False signals convergence of the refinement
        criterion.  A batch `_append` refuses leaves the grid unchanged.
        """
        front = self._channel(policy.channel)[self._front_start :]
        if not np.all(np.isfinite(front)):
            raise IncompleteDataError(f"frontier surpluses unfitted on channel {policy.channel!r}")
        loud = self._front_start + np.flatnonzero(np.abs(front) >= policy.tau)
        level, index = _sorted_distinct(*_children(self._level[loud], self._index[loud]))
        new = self._find(level, index) < 0
        level, index = level[new], index[new]
        space = max(0, policy.max_points - len(self))
        budget_exhausted = len(level) > space
        level, index = level[:space], index[:space]
        if len(level):
            self._append(level, index)
            self._front_start = len(self) - len(level)
        return RefineOutcome(len(level), budget_exhausted)

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
        """The grid as a JSON-ready document of columns.

        `level` and `index` hold one row of dim integers per node, in
        generation order, and `surpluses` one list per channel with null for
        an unfitted node.  Coordinates are left out: they follow from level
        and index.
        """
        return {
            "dim": self.dim,
            "domain": [list(d) for d in self.domain],
            "level": self._level.tolist(),
            "index": self._index.tolist(),
            "surpluses": {name: [x if math.isfinite(x) else None for x in c.tolist()]
                          for name, c in self._surpluses.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "HierGrid":
        """Load a `to_json_dict` document as one cohort; the frontier is every node.

        The document has exactly the keys of `to_json_dict`.  `dim` and the
        level and index entries must be integers (not bools or floats),
        `domain` a list of dim [lo, hi] pairs of finite numbers, level and
        index one row of dim entries per node each, and every surplus column
        one finite number or null per node.  Anything else, a node that
        `NodeId` rejects, one too deep to index or a node given twice raises
        `GridError`.
        """
        if not isinstance(doc, Mapping) or doc.keys() != _GRID_KEYS:
            got = sorted(doc) if isinstance(doc, Mapping) else doc
            raise GridError(f"a grid document has the keys {sorted(_GRID_KEYS)}, got {got!r}")
        dim, domain = doc["dim"], doc["domain"]
        if not (type(dim) is int and isinstance(domain, list) and len(domain) == dim
                and all(isinstance(b, list) and len(b) == 2 and all(map(_is_number, b)) for b in domain)):
            raise GridError(
                f"dim must be an integer and domain dim [lo, hi] pairs of finite numbers, got {dim!r}, {domain!r}"
            )
        grid = cls(dim, [tuple(d) for d in domain])
        level, index = _int_rows(doc["level"], "level", dim), _int_rows(doc["index"], "index", dim)
        if len(level) != len(index):
            raise GridError(f"{len(level)} level rows but {len(index)} index rows")
        for l, i in zip(level.tolist(), index.tolist()):
            if max(l) > _KEY_BITS:  # before NodeId computes 2**l; `_append` checks the total
                raise GridError(f"level {l} is too deep to index")
            NodeId(tuple(l), tuple(i))
        grid._append(level, index)
        # A node given twice is found at its first position only.
        twice = np.flatnonzero(grid._find(level, index) != np.arange(len(level)))
        if twice.size:
            p = twice[0]
            raise GridError(f"duplicate node: level {level[p].tolist()}, index {index[p].tolist()}")
        columns = doc["surpluses"]
        if not isinstance(columns, Mapping):
            raise GridError(f"surpluses must map each channel to a column, got {columns!r}")
        for name, column in columns.items():
            if not isinstance(column, list) or len(column) != len(grid):
                raise GridError(f"surplus column {name!r} must list one value per node ({len(grid)})")
            bad = [v for v in column if v is not None and not _is_number(v)]
            if bad:
                raise GridError(f"surplus {name!r} entries must be finite numbers or null, got {bad[0]!r}")
            grid._surpluses[name] = np.array([np.nan if v is None else v for v in column], dtype=float)
        return grid


_GRID_KEYS = frozenset(("dim", "domain", "level", "index", "surpluses"))


def _int_rows(rows, name: str, dim: int) -> np.ndarray:
    """The (n, dim) int64 array of a loaded grid's level or index rows."""
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == dim for r in rows):
        raise GridError(f"{name} must be a list of rows of dim={dim} entries")
    if not all(type(v) is int for r in rows for v in r):
        raise GridError(f"{name} rows must hold integers")
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    except OverflowError:  # no node of a level that fits an index key is this large
        raise GridError(f"a {name} entry overflows int64: too deep to index") from None


def _is_number(x) -> bool:
    """A finite JSON number: an int or a float, not a bool."""
    return type(x) in (int, float) and math.isfinite(x)


def initial_grid_size(dim: int, max_total_level: int) -> int:
    """The number of nodes `add_initial_levels(max_total_level)` gives a dim-dimensional grid."""
    per_level = [2] + [2 ** (l - 1) for l in range(1, max_total_level + 1)]
    by_total = [1] + [0] * max_total_level  # nodes per total level over the dimensions so far
    for _ in range(dim):
        by_total = [sum(by_total[t - l] * per_level[l] for l in range(t + 1))
                    for t in range(max_total_level + 1)]
    return sum(by_total)


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
