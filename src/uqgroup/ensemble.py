"""Embedded ensemble propagation: lane-array sparse systems and a lockstep Jacobi-PCG.

An ensemble replaces every scalar in a sparse solve by an array of S "lanes",
one per sample.  All lanes share one CSR sparsity graph.  Matrix values are
stored lanes-last, so the S values of one nonzero sit side by side; vectors
and reduction results carry a leading lane axis.  `EnsembleCsrMatrix` is
checked data: the shared graph as int32 and the values lanes-last, the
layout the compiled kernels (`_spmv.c`, built once into `_build/` at import)
read.

The solver is Jacobi-preconditioned conjugate gradients, the one solver
whose iterations the study counts: it scales each lane's residual by that
lane's inverse main diagonal.  The whole solve runs in one kernel call: the
Jacobi inverse, products, vector updates and convergence bookkeeping.  Before
the first iteration the call packs the values once, in the same pass over
the rows as the Jacobi inverse: each row's diagonal and upper entries go to
consecutive slots, and an entry below the diagonal reads the slot of its
mirror when the mirror's S lane values are bitwise its own; any other entry
(a non-symmetric, unsorted or duplicate one) gets a slot of its own.  A
symmetric matrix, as every stiffness matrix is, thus streams about half its
values per product.  The product loads each column index once and then does
S contiguous multiply-adds over the entry's slot, walking every row in
storage order, so each lane sums in the order of a scalar CSR product.
Inner products and norms are taken per lane (never summed across lanes)
with the BLAS ddot that numpy's own `np.dot` calls, looked up at import, so
the arithmetic seen by lane i is exactly the arithmetic of a scalar numpy
solve of lane i's system: iteration counts and iterates match a sequential
solve bit for bit.

The loop keeps iterating until every lane has either converged or been
frozen, recording for each lane the first iteration at which its relative
residual dropped below the tolerance.  Lanes whose A-conjugate norm p'Ap
underflows to zero (which happens after a lane has converged far beyond
machine precision) are frozen: their update coefficients are forced to zero
so their solutions never change while the remaining lanes continue.

The kernels touch no Python object and write only buffers their caller
passes in, so the library is loaded with `ctypes.CDLL`, which releases the
GIL for the length of each call: solves and assemblies on distinct buffers
may run concurrently from several threads (the harness solves a level's
ensembles that way).  Each call's arithmetic is the same whichever thread
runs it.  numpy's OpenBLAS ddot is re-entrant, but it splits vectors longer
than 10,000 entries across its own threads, so for such vectors its rounding
depends on `OPENBLAS_NUM_THREADS`, never on the calling thread.

A wide solve also runs on several threads itself.  After the serial pack,
its iterations run on a team of pthreads: each member forms the product
rows of its block of 64-row tiles (cut to hold about equal nonzeros) and
does the updates, dots and convergence bookkeeping of its block of lanes,
with a blocking barrier after each of the four steps of an iteration.  Every
row sum and every lane's dot is computed by one member, in the order a
single thread uses, so every output is bitwise independent of the team
size.  A team gets one member per `_TEAM_GRAIN` lane-nonzeros (S * nnz), at
most one per tile and at most `threads`: below that the barriers cost what
the split saves.
"""

from __future__ import annotations

import ctypes
import hashlib
import numbers
import os
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import numpy._core._multiarray_umath as _numpy_core
import scipy.sparse as sp

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


_KERNEL_SOURCE = Path(__file__).with_name("_spmv.c")
_BUILD_DIR = Path(__file__).with_name("_build")
# -ffp-contract=off keeps every lane's multiply and add separately rounded,
# as in scipy's scalar product and numpy's elementwise arithmetic.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC", "-pthread", "-lm")
# numpy's BLAS (ILP64 OpenBLAS) exports its ddot under this name; np.dot of
# two float64 vectors calls it.
_DDOT_SYMBOL = "scipy_cblas_ddot64_"


def _gcc(args: list[str]) -> str:
    cmd = ["gcc", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"building the ensemble SpMV kernel failed: {shlex.join(cmd)}\n{proc.stderr}"
        )
    return proc.stdout


def _build_kernel(source: Path, build_dir: Path) -> Path:
    """Compile `source` into `build_dir` unless already built; returns the library.

    The file name is keyed by a hash of the source, the flags and the target
    options gcc resolves them to on this host (`-march=native` becomes this
    CPU's instruction sets), so a build directory carried to another machine
    is rebuilt, not loaded.  A new build is moved into place whole, so a
    reader never sees a partial file.
    """
    target = _gcc([*_CFLAGS, "-Q", "--help=target"])
    key = hashlib.sha256(
        source.read_bytes() + " ".join(_CFLAGS).encode() + target.encode()
    ).hexdigest()[:16]
    lib = build_dir / f"{source.stem}-{key}.so"
    if lib.exists():
        return lib
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create the kernel build directory: {exc}") from exc
    tmp = build_dir / f"{lib.name}.{os.getpid()}.tmp"
    try:
        _gcc([*_CFLAGS, "-o", str(tmp), str(source)])
    except RuntimeError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, lib)
    return lib


def _numpy_ddot() -> int:
    """Address of the ddot that np.dot calls, from numpy's core extension."""
    try:
        ddot = getattr(ctypes.CDLL(_numpy_core.__file__), _DDOT_SYMBOL)
    except AttributeError:
        raise RuntimeError(f"numpy's BLAS exports no {_DDOT_SYMBOL}") from None
    return ctypes.cast(ddot, ctypes.c_void_p).value


def _load_kernel() -> tuple[Callable[..., int], Callable[..., int], Callable[..., None]]:
    # CDLL, not PyDLL: a call releases the GIL (see the module docstring).
    lib = ctypes.CDLL(str(_build_kernel(_KERNEL_SOURCE, _BUILD_DIR)))
    scratch_size = lib.ensemble_pcg_scratch_size
    scratch_size.argtypes = [ctypes.c_int64] * 4
    scratch_size.restype = ctypes.c_int64
    pcg = lib.ensemble_pcg
    pcg.argtypes = (
        [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
        + [ctypes.c_double, ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 7
    )
    pcg.restype = ctypes.c_int64
    assemble = lib.ensemble_assemble
    assemble.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
    assemble.restype = None
    return pcg, scratch_size, assemble


# _ASSEMBLE is the assembly kernel `fem3d.assemble` calls.
_PCG, _PCG_SCRATCH_SIZE, _ASSEMBLE = _load_kernel()
_DDOT = _numpy_ddot()
# INT64_MIN, what `ensemble_pcg` in `_spmv.c` returns for a lane diagonal
# that is not strictly positive.
_BAD_DIAGONAL = -(2**63)
# Lane-nonzeros (S * nnz) per member of a solve's thread team.  On a shared
# 2-CPU host two members took a 32^3, S=16 solve (12 M) from 1.6-2.2 s to
# 0.78-0.96 s, but below about 5 M the four barriers of an iteration cost as
# much as the split saved in some rounds (16^3 at S = 4-32: 1.01-1.11x the
# one-member time).
_TEAM_GRAIN = 3_000_000


@dataclass(frozen=True)
class EnsembleCsrMatrix:
    """CSR matrix whose nonzero values carry a lane axis: values[s, nz].

    The graph (row_offsets, col_indices) is shared by all lanes.  Lane s is
    exactly the scalar CSR matrix (values[s], col_indices, row_offsets).
    `values` is the transposed view of a C-contiguous (nnz, S) buffer; a
    caller that passes such a view (`buf.T`) shares its memory.  The arrays
    are checked once here and stored as the kernel reads them (int32 graph,
    lanes-last values); the frozen dataclass keeps them from being replaced
    by unchecked ones.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # The ranges are checked on the arrays as given, before the cast to
        # the kernel's int32 could wrap an out-of-range index into range.
        row_offsets = np.asarray(self.row_offsets)
        col_indices = np.asarray(self.col_indices)
        values = np.asarray(self.values, dtype=np.float64)
        if not all(np.issubdtype(a.dtype, np.integer) for a in (row_offsets, col_indices)):
            raise EnsembleError("row_offsets and col_indices must be integer arrays")
        if row_offsets.ndim != 1 or row_offsets.size == 0 or row_offsets[0] != 0:
            raise EnsembleError("row_offsets must be 1-D, non-empty and start at 0")
        if values.ndim != 2:
            raise EnsembleError("values must have shape (lanes, nnz)")
        nnz = col_indices.size
        if col_indices.ndim != 1 or row_offsets[-1] != nnz or values.shape[1] != nnz:
            raise EnsembleError("row_offsets, col_indices and values disagree on nnz")
        if np.any(np.diff(row_offsets) < 0):
            raise EnsembleError("row_offsets must be non-decreasing")
        n = len(row_offsets) - 1
        if nnz and (col_indices.min() < 0 or col_indices.max() >= n):
            raise EnsembleError("column index out of range")
        if max(n, nnz) > np.iinfo(np.int32).max:
            raise EnsembleError(f"{n} rows and {nnz} nonzeros do not fit int32 indices")
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int32)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int32)
        values = np.ascontiguousarray(values.T).T
        object.__setattr__(self, "row_offsets", row_offsets)
        object.__setattr__(self, "col_indices", col_indices)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def width(self) -> int:
        return self.values.shape[0]

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
        """Scalar CSR matrix of lane s.

        values[s] is a strided view of the lanes-last buffer; scipy copies it.
        """
        n = self.n_rows
        return sp.csr_matrix((self.values[s], self.col_indices, self.row_offsets), shape=(n, n))


@dataclass
class LaneSolveResult:
    """Outcome of one ensemble solve.

    iterations_per_lane[s] is the first iteration at which lane s satisfied
    ||r|| <= tol * ||b||, or the number of iterations actually run if it never
    did.  ensemble_iterations is the total the ensemble ran, i.e. the max over
    lanes.  residual_history (optional) holds one (S,) array of lane residual
    norms per iteration, starting at iteration 0.
    """

    solution: np.ndarray
    iterations_per_lane: np.ndarray
    ensemble_iterations: int
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
    Convergence is per lane, relative to that lane's right-hand side.  A lane
    that converges keeps iterating with the rest (its arithmetic is still
    lane-local), so recorded counts equal independent scalar PCG counts
    exactly.  Lanes whose p'Ap underflows below the smallest positive normal
    are frozen: alpha and beta are zeroed for them only, their solution stops
    changing, and they no longer block termination.

    The solve is one kernel call (`ensemble_pcg` in `_spmv.c`), which packs
    the values and forms the Jacobi inverse before iteration 1, in a scratch
    of at most one slot of S values per nonzero.  With `record_history`,
    room for maxit + 1 rows of lane residual norms is reserved up front.
    Every buffer the call writes is allocated here, and the call releases
    the GIL, so solves in several threads run concurrently.

    The iterations run on a team of up to `threads` threads, the calling one
    included; None means the CPUs of the process's affinity, and anything
    but an integer >= 1 is an `EnsembleError`.  The team has one member per
    `_TEAM_GRAIN` lane-nonzeros and per 64-row tile at most, so a small
    solve runs on the calling thread alone.  The result is bitwise the same
    for every team size.
    """
    if tol <= 0 or not np.isfinite(tol):
        raise EnsembleError(f"tol must be positive and finite, got {tol}")
    if not isinstance(maxit, numbers.Integral) or not 0 <= maxit < 2**63:
        raise EnsembleError(f"maxit must be an integer >= 0, got {maxit!r}")
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    elif not isinstance(threads, numbers.Integral) or threads < 1:
        raise EnsembleError(f"threads must be an integer >= 1, got {threads!r}")
    S, n = mat.width, mat.n_rows
    b = np.asarray(rhs, dtype=np.float64)
    if b.shape != (S, n):
        raise EnsembleError(f"rhs has shape {b.shape}, expected {(S, n)}")
    if not np.all(np.isfinite(b)):
        raise EnsembleError("rhs must be finite")

    nnz = mat.col_indices.size
    members = min(int(threads), max(1, S * nnz // _TEAM_GRAIN))
    x = np.zeros((S, n))
    work = np.empty((4, S, n))  # r, Ap (and z), p, inverse diagonal
    work[0] = b
    # the packed values, the SpMV's lanes-last x, a tile per member, int32 maps
    scratch = np.empty(_PCG_SCRATCH_SIZE(S, n, nnz, members))
    lane_work = np.empty((3, S))
    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    frozen = np.zeros(S, dtype=bool)
    history = np.empty((maxit + 1, S)) if record_history else None
    it = _PCG(
        S, n, mat.row_offsets.ctypes.data, mat.col_indices.ctypes.data, mat.values.ctypes.data,
        scratch.ctypes.data, _DDOT, tol, int(maxit), members, x.ctypes.data, work.ctypes.data,
        lane_work.ctypes.data, iterations.ctypes.data, converged.ctypes.data,
        frozen.ctypes.data, None if history is None else history.ctypes.data,
    )
    if it == _BAD_DIAGONAL:
        raise EnsembleError("Jacobi preconditioner needs strictly positive lane diagonals")
    if it < 0:
        raise NumericalBreakdownError(f"non-finite residual in active lane at iteration {-it}")
    return LaneSolveResult(
        solution=x,
        iterations_per_lane=iterations,
        ensemble_iterations=int(iterations.max(initial=0)),
        converged_per_lane=converged,
        frozen_lanes=frozen,
        residual_history=None if history is None else list(history[: it + 1].copy()),
    )
