"""Embedded ensemble propagation: lane-array sparse systems and a lockstep Jacobi-PCG.

An ensemble replaces every scalar in a sparse solve by an array of S "lanes",
one per sample.  All lanes share one CSR sparsity graph; vectors and
reduction results carry a leading lane axis.  Matrix values are stored
packed, in slots of S lane values side by side: each row's diagonal and
upper entries have consecutive slots, and an entry below the diagonal reads
the slot of its mirror when the mirror's S lane values are bitwise its own;
any other entry (a non-symmetric, unsorted or duplicate one) has a slot of
its own.  A symmetric matrix, as every stiffness matrix is, thus stores and
streams about half its values.  `EnsembleCsrMatrix` is checked data in the
layout the compiled kernels (`_spmv.c`, built and loaded once by `_kernels`)
read: the shared graph as int32, the packed graph (`split`, `hrow`, `lmap`)
and the (slots, S) values.  A matrix built from full lane values is packed
once, when it is made; `fem3d.assemble` adds its element matrices straight
into the slots of a graph its mesh packs once.  `values[s]` gathers lane s's
CSR values back from the slots.

The solver is Jacobi-preconditioned conjugate gradients, the one solver
whose iterations the study counts: it scales each lane's residual by that
lane's inverse main diagonal.  The whole solve runs in one kernel call: the
Jacobi inverse, read from the diagonal entries' slots, products, vector
updates and convergence bookkeeping.  The call never writes the matrix.
The product walks every row in storage order and, per column index, does
contiguous multiply-adds over the entry's slot, so each lane sums in the
order of a scalar CSR product.  Every width runs the same product, in
compiled chunks of 16, 8, 4, 2 and 1 lanes taken from the width's binary
digits (33 = 16 + 16 + 1, 1 = 1), so every width keeps its sums in
registers; one lane's chunk reads its input vector in place.
Inner products and norms are taken per lane (never summed across lanes)
by the kernel's own dot, in an order fixed by the length alone (`lane_dot`),
so no output depends on a BLAS or its thread count, and lane i computes
exactly what a scalar numpy solve of its system taking its dots in that
order computes: counts and iterates match such a solve bit for bit.

The loop keeps iterating until every lane has either converged or been
frozen, recording for each lane the first iteration at which its relative
residual dropped below the tolerance.  Lanes whose A-conjugate norm p'Ap
underflows to zero are frozen: their step length is forced to zero.  A lane
stops at its own convergence or freezing: it leaves the dot, update and
preconditioner steps, so its solution, residual norms and count are bitwise
those of a one-lane solve of its system, whatever its companions.  The
ensemble still runs until its slowest lane is done, and the study charges it
S times that many lane-iterations (the work ratio R).

What it executes is less.  The products narrow down a ladder of packed
widths, 16, 4 and 1, once the open lanes fit the next one: when they do, the
call copies the open lanes' values (padded with finished ones up to the
width, whose products nobody reads) out of the matrix, which holds every
lane, into slots of its own, and goes on at that width: the dynamic
regrouping of GPU warps (Fung et al., MICRO 2007) applied to an embedded
ensemble.  `LaneSolveResult.streamed_lane_iterations` counts the lane
products actually formed.

The kernels touch no Python object and write only buffers their caller
passes in, so the library is loaded with `ctypes.CDLL`, which releases the
GIL for the length of each call: solves and assemblies on distinct buffers
may run concurrently from several threads (the harness solves a level's
ensembles that way).  Each call's arithmetic is the same whichever thread
runs it.

A wide solve also runs on several threads itself.  After the serial Jacobi
inverse, its iterations run on a team of pthreads: each member forms the
product rows of its block of 64-row tiles (cut to hold about equal
nonzeros), copies those rows' slots at each narrowing and does the
updates, dots and convergence bookkeeping of its share of the open lanes,
with a blocking barrier after each of the four steps of an iteration.  Every
row sum and every lane's dot is computed by one member, in the order a
single thread uses, so every output is bitwise independent of the team
size.  A team gets one member per `_TEAM_GRAIN` lane-nonzeros (S * nnz), at
most one per tile and at most `threads`: below that the barriers cost what
the split saves.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._kernels import _PACK, _PCG, _PCG_SCRATCH_SIZE

__all__ = [
    "EnsembleError",
    "NumericalBreakdownError",
    "EnsembleCsrMatrix",
    "LaneSolveResult",
    "ensemble_pcg",
]


class EnsembleError(ValueError):
    """Structural problems: shape mismatches, invalid graphs, bad diagonals."""


class NumericalBreakdownError(RuntimeError):
    """Non-finite values appeared in an active lane during iteration."""


# INT64_MIN, what `ensemble_pcg` in `_spmv.c` returns for a lane diagonal
# that is not strictly positive.
_BAD_DIAGONAL = -(2**63)
# Lane-nonzeros (S * nnz) per member of a solve's thread team.  On a shared
# 2-CPU host two members took a 32^3, S=16 solve (12 M) from 1.6-2.2 s to
# 0.78-0.96 s, but below about 5 M the four barriers of an iteration cost as
# much as the split saved in some rounds (16^3 at S = 4-32: 1.01-1.11x the
# one-member time).
_TEAM_GRAIN = 3_000_000


def _is_count(value) -> bool:
    """An integer and not a bool: `True` is an Integral, but never a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_graph(row_offsets, col_indices, nnz: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR graph of nnz values as the kernels read it, int32, once checked.

    The ranges are checked on the arrays as given, before the cast to the
    kernel's int32 could wrap an out-of-range index into range.
    """
    row_offsets = np.asarray(row_offsets)
    col_indices = np.asarray(col_indices)
    if not all(np.issubdtype(a.dtype, np.integer) for a in (row_offsets, col_indices)):
        raise EnsembleError("row_offsets and col_indices must be integer arrays")
    if row_offsets.ndim != 1 or row_offsets.size == 0 or row_offsets[0] != 0:
        raise EnsembleError("row_offsets must be 1-D, non-empty and start at 0")
    if col_indices.ndim != 1 or row_offsets[-1] != col_indices.size or col_indices.size != nnz:
        raise EnsembleError("row_offsets, col_indices and values disagree on nnz")
    if np.any(np.diff(row_offsets) < 0):
        raise EnsembleError("row_offsets must be non-decreasing")
    n = len(row_offsets) - 1
    if nnz and (col_indices.min() < 0 or col_indices.max() >= n):
        raise EnsembleError("column index out of range")
    if max(n, nnz) > np.iinfo(np.int32).max:
        raise EnsembleError(f"{n} rows and {nnz} nonzeros do not fit int32 indices")
    return (np.ascontiguousarray(row_offsets, dtype=np.int32),
            np.ascontiguousarray(col_indices, dtype=np.int32))


def _lower_entries(row_offsets: np.ndarray, split: np.ndarray) -> int:
    """How many entries come before their row's run: the length of lmap."""
    return int(np.sum(split - row_offsets[:-1], dtype=np.int64))


class LaneValues:
    """The lane values of a packed matrix, read as an (S, nnz) array would be.

    values[s] is lane s's CSR values in storage order, gathered from the
    slots without forming the other lanes; a slice or list of lanes gives
    their (k, nnz) values, and np.asarray(values) all of them.
    """

    def __init__(self, packed: np.ndarray, entry_slots: np.ndarray):
        self._packed, self._entry_slots = packed, entry_slots

    def __getitem__(self, lanes) -> np.ndarray:
        return self._packed[:, lanes][self._entry_slots].T

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


@dataclass(frozen=True, init=False)
class EnsembleCsrMatrix:
    """CSR matrix whose nonzero values carry a lane axis, stored packed.

    The graph (row_offsets, col_indices) is shared by all lanes.  The values
    sit in `packed`, a C-contiguous (slots, S) array of slots of S lane
    values, read through `split`, `hrow` and `lmap` as the `_spmv.c` header
    describes: a lower entry bitwise equal to its mirror in every lane reads
    the mirror's slot.  Lane s is exactly the scalar CSR matrix
    (values[s], col_indices, row_offsets).

    The constructor takes full lane values, (S, nnz) in any layout, checks
    them with the graph and packs them once (`ensemble_pack`); the graph is
    stored as int32, as the kernels read it.  `fem3d.assemble` builds its
    matrices straight in packed form (`from_packed`).  The frozen dataclass
    keeps the arrays from being replaced by unchecked ones.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    split: np.ndarray
    hrow: np.ndarray
    lmap: np.ndarray
    packed: np.ndarray

    def __init__(self, row_offsets, col_indices, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise EnsembleError("values must have shape (lanes, nnz)")
        row_offsets, col_indices = _checked_graph(row_offsets, col_indices, values.shape[1])
        n, (S, nnz) = len(row_offsets) - 1, values.shape
        lanes_last = np.ascontiguousarray(values.T)
        packed = np.empty((nnz, S))  # at most one slot per nonzero
        split, hrow, cursor = (np.empty(n, dtype=np.int32) for _ in range(3))
        lmap = np.empty(nnz, dtype=np.int32)
        slots = _PACK(S, n, row_offsets.ctypes.data, col_indices.ctypes.data,
                      lanes_last.ctypes.data, packed.ctypes.data, split.ctypes.data,
                      hrow.ctypes.data, lmap.ctypes.data, cursor.ctypes.data)
        lmap = lmap[:_lower_entries(row_offsets, split)].copy()
        self._set(row_offsets, col_indices, split, hrow, lmap, packed[:slots].copy())

    def _set(self, *arrays: np.ndarray) -> None:
        for name, value in zip(("row_offsets", "col_indices", "split", "hrow", "lmap", "packed"),
                               arrays, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def from_packed(cls, row_offsets, col_indices, split, hrow, lmap,
                    packed: np.ndarray) -> "EnsembleCsrMatrix":
        """A matrix over packed storage its caller built, taken without a copy.

        `split`, `hrow` and `lmap` (1-D int32) must place the values as
        `ensemble_pack` would, and `packed` is the C-contiguous float64
        (slots, S) storage they index.  The graph and every slot index are
        checked, not the values.
        """
        row_offsets, col_indices = _checked_graph(row_offsets, col_indices, np.size(col_indices))
        n = len(row_offsets) - 1
        if not all(isinstance(a, np.ndarray) and a.dtype == np.int32 and a.ndim == 1
                   and a.flags.c_contiguous for a in (split, hrow, lmap)):
            raise EnsembleError("split, hrow and lmap must be contiguous 1-D int32 arrays")
        if not len(split) == len(hrow) == n:
            raise EnsembleError("split and hrow must have one entry per row")
        run_ends = hrow.astype(np.int64) + (row_offsets[1:] - split)
        slots = int(run_ends[-1]) if n else 0
        if not (np.all((row_offsets[:-1] <= split) & (split <= row_offsets[1:]))
                and (n == 0 or (hrow[0] >= 0 and np.all(hrow[1:] >= run_ends[:-1])))
                and len(lmap) == _lower_entries(row_offsets, split)
                and (lmap.size == 0 or (lmap.min() >= 0 and lmap.max() < slots))):
            raise EnsembleError("split, hrow and lmap do not index one slot range")
        if not (isinstance(packed, np.ndarray) and packed.dtype == np.float64
                and packed.ndim == 2 and len(packed) == slots and packed.flags.c_contiguous):
            raise EnsembleError(f"packed must be a C-contiguous float64 ({slots}, S) array")
        mat = cls.__new__(cls)
        mat._set(row_offsets, col_indices, split, hrow, lmap, packed)
        return mat

    @property
    def n_rows(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def width(self) -> int:
        return self.packed.shape[1]

    @cached_property
    def _entry_slots(self) -> np.ndarray:
        """The slot each nonzero reads, in storage order."""
        counts = np.diff(self.row_offsets)
        entry = np.arange(self.col_indices.size, dtype=np.int32)
        slots = entry + np.repeat(self.hrow - self.split, counts)  # run entries
        slots[entry < np.repeat(self.split, counts)] = self.lmap
        return slots

    @property
    def values(self) -> LaneValues:
        """values[s]: lane s's CSR values in storage order (see `LaneValues`)."""
        return LaneValues(self.packed, self._entry_slots)

    @classmethod
    def from_scipy_lanes(cls, mats: Sequence[sp.spmatrix]) -> "EnsembleCsrMatrix":
        """Stack scalar CSR matrices with identical graphs into an ensemble."""
        # sorted_indices() sorts a copy: a CSR input shares its arrays with
        # sp.csr_matrix(m), and the caller's matrix must stay as it was.
        csr = [sp.csr_matrix(m).sorted_indices() for m in mats]
        first = csr[0]
        for m in csr[1:]:
            if m.shape != first.shape or not (
                np.array_equal(m.indptr, first.indptr)
                and np.array_equal(m.indices, first.indices)
            ):
                raise EnsembleError("lane matrices must share one sparsity graph")
        values = np.stack([m.data for m in csr], axis=1)  # (nnz, S)
        return cls(first.indptr, first.indices, values.T)

    def lane(self, s: int) -> sp.csr_matrix:
        """Scalar CSR matrix of lane s."""
        n = self.n_rows
        return sp.csr_matrix((self.values[s], self.col_indices, self.row_offsets), shape=(n, n))


@dataclass
class LaneSolveResult:
    """Outcome of one ensemble solve.

    iterations_per_lane[s] is the first iteration at which lane s satisfied
    ||r|| <= tol * ||b||, or the number of iterations actually run if it never
    did.  ensemble_iterations is the total the ensemble ran, i.e. the max over
    lanes.  streamed_lane_iterations is the number of lane products the solve
    formed, the sum over its iterations of the packed width; it is at most S
    times ensemble_iterations, and equal to it when the solve never narrows.
    residual_history (optional) holds one (S,) array of lane residual norms
    per iteration, starting at iteration 0; a stopped lane's norm stays at its
    last value.
    """

    solution: np.ndarray
    iterations_per_lane: np.ndarray
    ensemble_iterations: int
    streamed_lane_iterations: int
    converged_per_lane: np.ndarray
    frozen_lanes: np.ndarray
    residual_history: list[np.ndarray] | None = None


def ensemble_pcg(
    mat: EnsembleCsrMatrix,
    rhs: np.ndarray,
    tol: float = 1e-7,
    maxit: int = 1000,
    record_history: bool = False,
    threads: int | None = None,
) -> LaneSolveResult:
    """Jacobi-preconditioned CG on all lanes at once, run until every lane converges.

    The preconditioner scales each lane by its inverse main diagonal,
    z = r * (1 / diag(A)), where repeated copies of a diagonal entry are
    summed in storage order, as scipy's `diagonal()` of a lane sums them.
    Every lane needs a strictly positive diagonal and the right-hand sides
    must be finite (`EnsembleError` otherwise, before any iteration).
    Convergence is per lane, relative to that lane's right-hand side, at a
    `tol` that must be a real number, positive and finite, and not a bool
    (`EnsembleError` otherwise).  Lanes whose p'Ap underflows below the
    smallest positive normal are frozen: their alpha is zeroed and they no
    longer block termination.  A lane stops at its own convergence or
    freezing, so its solution, residual norms and count are bitwise those of
    a one-lane solve of its system.  Once the open lanes fit a narrower width
    of the ladder 16, 4, 1, the call copies their values out of `mat` into a
    scratch of its own and goes on at that width; it never writes `mat`.

    The solve is one kernel call (`ensemble_pcg` in `_spmv.c`), which forms
    the Jacobi inverse from the packed diagonal before iteration 1.  Its
    scratch holds the slots at the first narrowed width of that ladder,
    whose pages are touched only if the solve narrows.  With
    `record_history`, room for maxit + 1 rows of lane residual norms is
    reserved up front.
    Every buffer the call writes is allocated here, and the call releases
    the GIL, so solves in several threads run concurrently.

    The iterations run on a team of up to `threads` threads, the calling one
    included; None means the CPUs of the process's affinity, and anything
    but an integer >= 1 is an `EnsembleError`.  The team has one member per
    `_TEAM_GRAIN` lane-nonzeros and per 64-row tile at most, so a small
    solve runs on the calling thread alone.  The result is bitwise the same
    for every team size.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
        raise EnsembleError(f"tol must be a positive finite number, got {tol!r}")
    if not _is_count(maxit) or not 0 <= maxit < 2**63:
        raise EnsembleError(f"maxit must be an integer >= 0, got {maxit!r}")
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    elif not _is_count(threads) or threads < 1:
        raise EnsembleError(f"threads must be an integer >= 1, got {threads!r}")
    S, n = mat.width, mat.n_rows
    b = np.asarray(rhs, dtype=np.float64)
    if b.shape != (S, n):
        raise EnsembleError(f"rhs has shape {b.shape}, expected {(S, n)}")
    if not np.all(np.isfinite(b)):
        raise EnsembleError("rhs must be finite")

    nnz, slots = mat.col_indices.size, len(mat.packed)
    members = min(int(threads), max(1, S * nnz // _TEAM_GRAIN))
    x = np.zeros((S, n))
    work = np.empty((4, S, n))  # r, Ap (and z), p, inverse diagonal
    work[0] = b
    # the SpMV's lanes-last x, a tile per member, the narrowed slots, lane lists
    scratch = np.empty(_PCG_SCRATCH_SIZE(S, n, slots, members))
    lane_work = np.empty((3, S))
    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    frozen = np.zeros(S, dtype=bool)
    history = np.empty((maxit + 1, S)) if record_history else None
    streamed = np.zeros(1, dtype=np.int64)
    it = _PCG(
        S, n, mat.row_offsets.ctypes.data, mat.col_indices.ctypes.data, mat.split.ctypes.data,
        mat.hrow.ctypes.data, mat.lmap.ctypes.data, mat.packed.ctypes.data, slots,
        scratch.ctypes.data, float(tol), int(maxit), members, x.ctypes.data, work.ctypes.data,
        lane_work.ctypes.data, iterations.ctypes.data, converged.ctypes.data,
        frozen.ctypes.data, None if history is None else history.ctypes.data,
        streamed.ctypes.data,
    )
    if it == _BAD_DIAGONAL:
        raise EnsembleError("Jacobi preconditioner needs strictly positive lane diagonals")
    if it < 0:
        raise NumericalBreakdownError(f"non-finite residual in active lane at iteration {-it}")
    return LaneSolveResult(
        solution=x,
        iterations_per_lane=iterations,
        ensemble_iterations=int(iterations.max(initial=0)),
        streamed_lane_iterations=int(streamed[0]),
        converged_per_lane=converged,
        frozen_lanes=frozen,
        residual_history=None if history is None else list(history[: it + 1].copy()),
    )
