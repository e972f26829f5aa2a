"""The package's compiled kernels: one C file, ``_kernels.c``, loaded through
:mod:`ctypes`.

It holds tree building (the Kruskal union-find, the stable counting sort
``tp_counting_sort`` behind every sort of tree building, the saturation of
every holed side-tree node of a tree of shapes in one call by a row-run
flood, ``tp_saturate``, and the painting of shapes, ``tp_paint_shapes``),
the tree fold ``tp_fold`` (child to parent or parent to child), the
attribute table ``tp_attributes``, one node-major (N, 13) int64 block built
with ``tp_fold``'s merge and child-to-parent sweep (swept over pixel ids, it
also gives the tree of shapes its side trees' boxes, first pixels and frame
contact), the filter ladder ``tp_ladder`` (from a tree's attribute values
and thresholds), and the random forest: the ranking of its training rows,
``tp_rank_rows``, its tree growth and its vote sum.  Node ids are int32,
as ``Tree`` stores them.  ``ctypes`` needs no Python headers and no extra
package, but the file is compiled with ``cc`` on the first call that needs
it, never at import, and cached at ``_target()``, under
``$XDG_CACHE_HOME/treeprofiles/`` (default ``~/.cache``), named by the
sha256 of its source and compiler command; a new build removes the older
ones there.  A failed build or load raises
:class:`~treeprofiles.errors.BuildError`.

Every entry point is declared in ``_SIGNATURES``: ``ndpointer`` argument
types check each array's dtype and C contiguity before a pointer is passed.
The raw pointers, ``tp_ladder``'s float32 output (maybe a column slice)
and the float32 or float64 rows of ``tp_rank_rows`` and
``tp_forest_votes``, are checked by callers.  Every entry that returns a
status or a count raises :class:`MemoryError` when it returns
``TP_NO_MEMORY``; its other statuses, ``TP_BAD_INDEX`` and
``TP_NON_FINITE``, are returned to the caller.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import BuildError

# the kernel's status codes, as _kernels.c #defines them
TP_NO_MEMORY, TP_BAD_INDEX, TP_NON_FINITE = -2, -3, -4

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ["cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared"]

_F8, _I4, _I8, _U8 = (
    np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
    for t in (np.float64, np.int32, np.int64, np.uint64))
_N, _K, _P = ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p
_SIGNATURES = {
    "tp_counting_sort": (_K, [_I8, _N, _I8, _N, _N, _I8]),
    "tp_kruskal": (_N, [_I8, _I8, _F8, _N, _I8, _N, _F8, _N, _I8, _F8, _I8]),
    "tp_saturate": (_K, [_I8, _N, _I8, _I8, _I8, _N, _N, _N, _I8, _N, _I8]),
    "tp_paint_shapes": (_K, [_I8, _N, _I8, _I8, _I8, _N, _I4, _N, _I4]),
    "tp_fold": (_K, [_I4, _N, _I8, _N, _K, _K]),
    "tp_attributes": (_K, [_I4, _N, _I4, _I8, _N, _N, _I8]),
    "tp_ladder": (_K, [_I4, _N, _F8, _F8, _N, _K, _I4, _N, _F8, _N, _I8, _P,
                        _N, _N]),
    "tp_rank_rows": (_K, [_P, _K, _N, _I8, _N, _K, _I4, _F8, _I4]),
    "tp_grow_tree": (_N, [_I4, _F8, _I4, _I4, _N, _K, _K, _K, _U8, _I4,
                          _F8, _I4, _I4, _F8, _N]),
    "tp_best_split": (_K, [_I4, _F8, _I4, _I4, _N, _K, _K, _I4, _N, _I4, _K,
                           _F8]),
    "tp_forest_votes": (_K, [_P, _K, _N, _I8, _N, _K, _K, _K, _I8, _I4, _F8,
                             _I4, _I4, _F8, _F8, _I4]),
    "tp_xorshift_fill": (None, [_U8, _U8, _N]),
}
_lib: ctypes.CDLL | None = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "treeprofiles"


def _target() -> Path:
    """Cache path of the kernel built from today's source and flags."""
    key = _SOURCE.read_bytes() + " ".join(_COMPILE).encode()
    return _cache_dir() / f"kernels-{hashlib.sha256(key).hexdigest()}.so"


def _build() -> Path:
    """Path of the compiled kernel, compiling it into the cache if absent.
    The compiler writes a temporary file that is renamed into place, so
    concurrent builds never expose a partial library."""
    target = _target()
    if target.exists():
        return target
    command = " ".join(_COMPILE + ["-o", str(target), str(_SOURCE)])
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
        try:
            done = subprocess.run(_COMPILE + ["-o", tmp, str(_SOURCE)],
                                  capture_output=True, text=True)
            if done.returncode != 0:
                first = (done.stderr.strip().splitlines() or ["no output"])[0]
                raise BuildError(f"cannot build the native kernel: `{command}` "
                                 f"exited {done.returncode}: {first}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise BuildError(f"cannot build the native kernel: `{command}`: "
                         f"{exc}") from None
    for stale in target.parent.glob("kernels-*.so"):  # older sources or flags
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass
    return target


def _out_of_memory(status, func, args):
    """``errcheck`` of the entries that return a status or a count."""
    if status == TP_NO_MEMORY:
        raise MemoryError(f"{func.__name__}: out of memory")
    return status


def _kernel() -> ctypes.CDLL:
    """The native kernel, built and loaded on first use."""
    global _lib
    if _lib is None:
        path = _build()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise BuildError(f"cannot load the native kernel: {exc}") from None
        for name, (restype, argtypes) in _SIGNATURES.items():
            func = getattr(lib, name)
            func.restype, func.argtypes = restype, argtypes
            if restype is not None:
                func.errcheck = _out_of_memory
        _lib = lib
    return _lib
