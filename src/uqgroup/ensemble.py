"""Embedded ensemble propagation: lane-array sparse systems and a lockstep Jacobi-PCG.

An ensemble replaces every scalar in a sparse solve by an array of S "lanes",
one per sample.  All lanes share one CSR sparsity graph.  Matrix values are
stored lanes-last, so the S values of one nonzero sit side by side; vectors
and reduction results carry a leading lane axis.  The compiled kernel
(`_spmv.c`, built once into `_build/` at import) multiplies by loading each
column index once and then doing S contiguous multiply-adds, summing every
lane in the order of a scalar CSR product.

The solver is Jacobi-preconditioned conjugate gradients, the one solver
whose iterations the study counts: it scales each lane's residual by that
lane's inverse main diagonal.  The whole iteration runs in one call of the
same kernel library: products, Jacobi, vector updates and convergence
bookkeeping.  Inner products and norms are taken per lane (never summed
across lanes) with the BLAS ddot that numpy's own `np.dot` calls, looked up
at import, so the arithmetic seen by lane i is exactly the arithmetic of a
scalar numpy solve of lane i's system: iteration counts and iterates match
a sequential solve bit for bit.

The loop keeps iterating until every lane has either converged or been
frozen, recording for each lane the first iteration at which its relative
residual dropped below the tolerance.  Lanes whose A-conjugate norm p'Ap
underflows to zero (which happens after a lane has converged far beyond
machine precision) are frozen: their update coefficients are forced to zero
so their solutions never change while the remaining lanes continue.
"""

from __future__ import annotations

import ctypes
import hashlib
import numbers
import os
import shlex
import subprocess
from dataclasses import dataclass, field
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
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC", "-lm")
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


def _load_kernel() -> tuple[Callable[..., None], Callable[..., int], Callable[..., None], int]:
    # PyDLL keeps the interpreter lock during the call, so two threads never
    # share a matrix's scratch buffer at once.
    lib = ctypes.PyDLL(str(_build_kernel(_KERNEL_SOURCE, _BUILD_DIR)))
    lib.ensemble_spmv_tile_rows.argtypes = []
    lib.ensemble_spmv_tile_rows.restype = ctypes.c_int64
    spmv = lib.ensemble_spmv
    spmv.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 6
    spmv.restype = None
    pcg = lib.ensemble_pcg
    pcg.argtypes = (
        [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 6
        + [ctypes.c_double, ctypes.c_int64] + [ctypes.c_void_p] * 7
    )
    pcg.restype = ctypes.c_int64
    assemble = lib.ensemble_assemble
    assemble.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
    assemble.restype = None
    return spmv, pcg, assemble, lib.ensemble_spmv_tile_rows()


# _ASSEMBLE is the assembly kernel `fem3d.assemble` calls.
_SPMV, _PCG, _ASSEMBLE, _TILE_ROWS = _load_kernel()
_DDOT = _numpy_ddot()


@dataclass(frozen=True)
class EnsembleCsrMatrix:
    """CSR matrix whose nonzero values carry a lane axis: values[s, nz].

    The graph (row_offsets, col_indices) is shared by all lanes.  Lane s is
    exactly the scalar CSR matrix (values[s], col_indices, row_offsets).
    `values` is the transposed view of a C-contiguous (nnz, S) buffer; a
    caller that passes such a view (`buf.T`) shares its memory.  The arrays
    are checked once here and must not be replaced afterwards, which the
    frozen dataclass enforces: the kernel is handed their addresses.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)
    _kernel_args: tuple = field(init=False, repr=False, compare=False)

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
        # Lanes-last copy of x (n rows) and the kernel's output tile.
        scratch = np.empty((n + _TILE_ROWS, values.shape[0]))
        object.__setattr__(self, "row_offsets", row_offsets)
        object.__setattr__(self, "col_indices", col_indices)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_scratch", scratch)
        object.__setattr__(self, "_kernel_args", (
            values.shape[0], n, row_offsets.ctypes.data, col_indices.ctypes.data,
            values.ctypes.data, scratch.ctypes.data,
        ))

    def __reduce__(self):
        # Copies and unpickled matrices are rebuilt through __init__, so their
        # kernel addresses are those of their own arrays, never the original's.
        return type(self), (self.row_offsets, self.col_indices, self.values)

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

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Lane-wise matrix-vector product: (S, n) -> (S, n).

        One kernel call for all lanes.  No information crosses lanes and each
        lane sums in scipy's order, so lane s of the result is bitwise the
        scalar product `self.lane(s).dot(x[s])`.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.width, self.n_rows):
            raise EnsembleError(f"vector has shape {x.shape}, expected {(self.width, self.n_rows)}")
        out = np.empty_like(x)
        _SPMV(*self._kernel_args, x.ctypes.data, out.ctypes.data)
        return out

    def diagonal(self) -> np.ndarray:
        """Per-lane main diagonal, shape (S, n); absent entries read as zero.

        Repeated copies of a diagonal entry are summed in storage order, as
        the SpMV and scipy's `diagonal()` of a lane sum them.
        """
        n = self.n_rows
        diag = np.zeros((self.width, n))
        rows = np.repeat(np.arange(n), np.diff(self.row_offsets))
        hit = np.flatnonzero(self.col_indices == rows)
        rows = rows[hit]
        first = np.flatnonzero(np.diff(rows, prepend=-1))  # first copy in each row
        diag[:, rows[first]] = np.add.reduceat(self.values.T[hit], first, axis=0).T
        return diag


def _check_vector(mat_width: int, n: int, x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (mat_width, n):
        raise EnsembleError(f"{name} has shape {x.shape}, expected {(mat_width, n)}")
    return x


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
) -> LaneSolveResult:
    """Jacobi-preconditioned CG on all lanes at once, run until every lane converges.

    The preconditioner scales each lane by its inverse main diagonal,
    z = r * (1 / diag(A)), so every lane needs a strictly positive diagonal
    and the right-hand sides must be finite (`EnsembleError` otherwise).
    Convergence is per lane, relative to that lane's right-hand side.  A lane
    that converges keeps iterating with the rest (its arithmetic is still
    lane-local), so recorded counts equal independent scalar PCG counts
    exactly.  Lanes whose p'Ap underflows below the smallest positive normal
    are frozen: alpha and beta are zeroed for them only, their solution stops
    changing, and they no longer block termination.

    The iteration is one kernel call (`ensemble_pcg` in `_spmv.c`).  With
    `record_history`, room for maxit + 1 rows of lane residual norms is
    reserved up front.
    """
    if tol <= 0 or not np.isfinite(tol):
        raise EnsembleError(f"tol must be positive and finite, got {tol}")
    if not isinstance(maxit, numbers.Integral) or not 0 <= maxit < 2**63:
        raise EnsembleError(f"maxit must be an integer >= 0, got {maxit!r}")
    S, n = mat.width, mat.n_rows
    b = _check_vector(S, n, rhs, "rhs")
    if not np.all(np.isfinite(b)):
        raise EnsembleError("rhs must be finite")
    diag = mat.diagonal()
    if not np.all(diag > 0):
        raise EnsembleError("Jacobi preconditioner needs strictly positive lane diagonals")
    inv_diag = 1.0 / diag

    x = np.zeros((S, n))
    work = np.empty((4, S, n))  # r, z, p, Ap
    work[0] = b
    lane_work = np.empty((3, S))
    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    frozen = np.zeros(S, dtype=bool)
    history = np.empty((maxit + 1, S)) if record_history else None
    it = _PCG(
        *mat._kernel_args, _DDOT, inv_diag.ctypes.data, tol, int(maxit), x.ctypes.data,
        work.ctypes.data, lane_work.ctypes.data, iterations.ctypes.data,
        converged.ctypes.data, frozen.ctypes.data,
        None if history is None else history.ctypes.data,
    )
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
