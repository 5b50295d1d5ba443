"""The native passes in _native.c, compiled once when the package is imported.

Each pass is the twin of a numpy code path and gives the same bits; the
numpy code stays as the fallback and as the tests' reference.  `lib` holds
one ctypes function per pass, or None where its numpy code runs:

    adam_step   nets.adam_step's update, one pass over the vectors;
    knn_select  gp_supervisor.knn_select's distances and ranking per query;
    gram        kernels.gram's symmetric case, a (pack, depth) pair around
                numpy's elementwise layer-1 formula.

When the build fails every entry is None and `error` says why in one line.
The platform picks the path; nothing configures it.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.resources
import os
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np

# The compiler and flags.  No -ffast-math or -Ofast: they reassociate and
# flush subnormals to zero, and every pass must round as its numpy twin does;
# -ffp-contract=off keeps out fused multiply-adds.
CC = "cc"
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_ptr, _size, _double, _int = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double, ctypes.c_int
# symbol -> (argtypes, restype)
_SIGNATURES = {
    "dgp_adam_update": ((_ptr,) * 4 + (_size,) + (_double,) * 4, None),
    "dgp_knn_select": ((_ptr, _size, _size, _ptr, _size, _size, _ptr), _int),
    "dgp_gram_pack": ((_ptr, _ptr, _size, _size, _size, _int, _ptr), _int),
    "dgp_gram_depth": ((_ptr, _size, _size, _size, _ptr, _ptr), _int),
}


class Native(NamedTuple):
    adam_step: object = None
    knn_select: object = None
    gram: tuple | None = None


def build() -> tuple[Native, str | None]:
    """Compile _native.c with CC into a private temporary directory and load it.

    Returns (every pass, None), or (no pass, the first line of the reason)
    when the compiler is missing or fails, or the library does not load (as
    from a noexec temporary directory).  The directory is deleted either
    way; a loaded library stays mapped after its file is gone.
    """
    source = importlib.resources.files(__package__).joinpath("_native.c")
    try:
        with importlib.resources.as_file(source) as src, tempfile.TemporaryDirectory(prefix="dgpcyclegan-native-") as tmp:
            path = os.path.join(tmp, "_native.so")
            done = subprocess.run([CC, *CFLAGS, "-o", path, str(src)],
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True)
            if done.returncode != 0:
                lines = done.stderr.strip().splitlines()
                return Native(), lines[0] if lines else f"{CC} exited with status {done.returncode}"
            so = ctypes.CDLL(path)
    except OSError as exc:
        return Native(), (str(exc).splitlines() or [type(exc).__name__])[0]
    fns = {}
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = fns[name] = getattr(so, name)
        fn.argtypes, fn.restype = argtypes, restype
    return Native(fns["dgp_adam_update"], fns["dgp_knn_select"],
                  (fns["dgp_gram_pack"], fns["dgp_gram_depth"])), None


# Built once, at import, so that no training step or set-up pays for the build.
lib, error = build()


def status() -> str:
    """One line naming the passes that run natively and those that run numpy, with the reason."""
    live = [name for name, fn in zip(Native._fields, lib) if fn is not None]
    fallback = [name for name, fn in zip(Native._fields, lib) if fn is None]
    line = "native: " + (", ".join(live) or "none")
    if fallback:
        line += "; numpy: " + ", ".join(fallback) + (f" ({error})" if error else "")
    return line


def blas_core() -> str:
    """The core type numpy's bundled OpenBLAS picked on this host, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*.so")
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return "unknown"
