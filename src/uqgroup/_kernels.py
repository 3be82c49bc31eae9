"""The compiled kernels: one C source (`_spmv.c`), one build, one loader.

The source holds the ensemble kernels `ensemble` and `fem3d` call (the PCG
loop, the pack and the assembly) and the sparse-grid hat sums and node
lookup `hier_grid` calls.  It is built once into `_build/` on first import
and loaded with `ctypes.CDLL`, which releases the GIL for the length of each
call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
from pathlib import Path
from typing import Callable

_KERNEL_SOURCE = Path(__file__).with_name("_spmv.c")
_BUILD_DIR = Path(__file__).with_name("_build")
# -ffp-contract=off keeps every multiply and add separately rounded, as in
# scipy's scalar product and numpy's elementwise arithmetic.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC", "-pthread", "-lm")


def _gcc(args: list[str]) -> str:
    cmd = ["gcc", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"building the compiled kernels failed: {shlex.join(cmd)}\n{proc.stderr}"
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


def _load_kernel() -> tuple[Callable[..., int], ...]:
    # CDLL, not PyDLL: a call releases the GIL.
    lib = ctypes.CDLL(str(_build_kernel(_KERNEL_SOURCE, _BUILD_DIR)))
    scratch_size = lib.ensemble_pcg_scratch_size
    scratch_size.argtypes = [ctypes.c_int64] * 4
    scratch_size.restype = ctypes.c_int64
    pcg = lib.ensemble_pcg
    pcg.argtypes = (
        [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 6
        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64, ctypes.c_int64]
        + [ctypes.c_void_p] * 8
    )
    pcg.restype = ctypes.c_int64
    pack = lib.ensemble_pack
    pack.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 8
    pack.restype = ctypes.c_int64
    assemble = lib.ensemble_assemble
    assemble.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5
    assemble.restype = None
    hat_sums = lib.hat_sums
    hat_sums.argtypes = (
        [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 5
        + [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    )
    hat_sums.restype = ctypes.c_int64
    find_nodes = lib.find_nodes
    find_nodes.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 6
    find_nodes.restype = None
    return pcg, scratch_size, pack, assemble, hat_sums, find_nodes


_PCG, _PCG_SCRATCH_SIZE, _PACK, _ASSEMBLE, _HAT_SUMS, _FIND_NODES = _load_kernel()
