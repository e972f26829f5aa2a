"""The package's compiled kernels: one C file, ``_kernels.c``, loaded through
:mod:`ctypes`.

It holds tree building (the Kruskal union-find, the stable counting sort
``tp_counting_sort`` behind every sort of tree building, the saturation of
every holed side-tree node of a tree of shapes in one call by a row-run
flood, ``tp_saturate``, and the painting of shapes, ``tp_paint_shapes``),
the tree folds ``tp_accumulate`` and ``tp_propagate``, the one-sweep
attribute table ``tp_attributes`` (swept over pixel ids, it also gives the
tree of shapes its side trees' boxes, first pixels and frame contact) and
filter ladder ``tp_ladder``, and the random forest's tree growth and vote
sum.
``ctypes`` needs no Python headers and no extra package, but the file is
compiled with ``cc`` on the first call that needs it, never at import, and
cached under ``$XDG_CACHE_HOME/treeprofiles/`` (default ``~/.cache``),
named by the sha256 of its source and compiler command.  A new build
removes the library's older builds, and those of the retired
``_forest.c``, from that directory.  A failed build or load raises
:class:`~treeprofiles.errors.BuildError`.

Every entry point is declared in ``_SIGNATURES``: ``ndpointer`` argument
types check each array's dtype and C contiguity before a pointer is passed.
The one raw pointer, ``tp_ladder``'s output matrix, may be a column slice;
its caller checks dtype, shape and strides first.
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

_SOURCE = Path(__file__).with_name("_kernels.c")
_COMPILE = ["cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared"]

_F8, _I4, _I8, _U8, _B1 = (
    np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
    for t in (np.float64, np.int32, np.int64, np.uint64, np.uint8))
_N, _K, _P = ctypes.c_int64, ctypes.c_int32, ctypes.c_void_p
_SIGNATURES = {
    "tp_counting_sort": (_K, [_I8, _N, _I8, _N, _N, _I8]),
    "tp_kruskal": (_N, [_I8, _I8, _F8, _N, _I8, _N, _F8, _N, _I8, _F8, _I8]),
    "tp_saturate": (_K, [_I8, _N, _I8, _I8, _I8, _N, _N, _N, _I8, _N, _I8]),
    "tp_paint_shapes": (_K, [_I8, _N, _I8, _I8, _I8, _N, _I4, _N, _I4]),
    "tp_accumulate": (_K, [_I8, _N, _I8, _N, _K]),
    "tp_propagate": (_K, [_I8, _N, _I8, _N, _K]),
    "tp_attributes": (_K, [_I8, _N, _I4, _I8, _N, _N, _I8, _I8]),
    "tp_ladder": (_K, [_I8, _N, _B1, _N, _I4, _N, _F8, _N, _I8, _P, _N, _N]),
    "tp_grow_tree": (_N, [_I4, _F8, _I4, _I4, _N, _K, _K, _K, _U8, _I4,
                          _F8, _I4, _I4, _F8, _N]),
    "tp_best_split": (_K, [_I4, _F8, _I4, _I4, _N, _K, _K, _I4, _N, _I4, _K,
                           _F8]),
    "tp_forest_votes": (_K, [_F8, _N, _K, _K, _K, _I8, _I4, _F8, _I4, _I4,
                             _F8, _F8, _I4]),
    "tp_xorshift_fill": (None, [_U8, _U8, _N]),
}
_lib: ctypes.CDLL | None = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "treeprofiles"


def _build() -> Path:
    """Path of the compiled kernel, compiling it into the cache if absent.
    The compiler writes a temporary file that is renamed into place, so
    concurrent builds never expose a partial library."""
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_COMPILE).encode()).hexdigest()
    target = _cache_dir() / f"kernels-{digest}.so"
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
    # older sources or flags, and builds of the retired forest-only _forest.c
    for pattern in ("kernels-*.so", "forest-*.so"):
        for stale in target.parent.glob(pattern):
            if stale != target:
                try:
                    stale.unlink()
                except OSError:
                    pass
    return target


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
        _lib = lib
    return _lib
