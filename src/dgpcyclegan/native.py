"""The native passes in _native.c, built once per source and host and loaded at import.

Each pass is the twin of a numpy code path and gives the same bits; the
numpy code stays as the fallback and as the tests' reference.  `lib` holds
one ctypes function per pass, or None where its numpy code runs:

    adam_step      nets.adam_step's update, one pass over the vectors;
    knn_select     gp_supervisor.knn_select's distances and ranking per query;
    gram           kernels.gram's symmetric case, a (pack, depth) pair around
                   numpy's elementwise layer-1 formula;
    nets_forward   nets.DenseStack's forward pass, one call per network pass;
    nets_backward  its backward chain;
    nets_grads     its parameter gradients over one or more caches.

The three nets passes make their matrix products through the OpenBLAS
functions numpy's matmul calls, found in numpy's bundled libscipy_openblas64_;
where that library or its CBLAS symbols are missing, only those passes run
numpy and `error` says why.  When the build fails every entry is None and
`error` says why in one line.  The platform picks the path; nothing
configures it.

The compiled library is kept in the per-user cache directory
($XDG_CACHE_HOME/dgpcyclegan, else ~/.cache/dgpcyclegan), named by a hash of
the source, the compiler, its flags and version and the host CPU, so an
import compiles only when one of them changed.  Where that directory cannot
be used, the library is compiled into a private temporary directory that is
deleted once it is loaded.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib.resources
import os
import platform
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
    "dgp_set_blas": ((_ptr,) * 3, None),
    "dgp_dense_forward": ((_ptr, _ptr, _size, _int, _ptr, _size, _ptr), None),
    "dgp_dense_backward": ((_ptr, _ptr, _size, _size) + (_ptr,) * 5, None),
    "dgp_dense_grads": ((_ptr, _size, _size, _ptr, _ptr), _int),
}
# numpy's bundled OpenBLAS, and the CBLAS functions its matmul calls there.
_OPENBLAS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*.so")
_BLAS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


class Native(NamedTuple):
    adam_step: object = None
    knn_select: object = None
    gram: tuple | None = None
    nets_forward: object = None
    nets_backward: object = None
    nets_grads: object = None


def _first_line(exc: BaseException) -> str:
    return (str(exc).splitlines() or [type(exc).__name__])[0]


def _compile(source: bytes, path: str) -> str | None:
    """Compile source with CC into the library at path; None, or the first line of why it failed."""
    try:
        done = subprocess.run([CC, *CFLAGS, "-o", path, "-x", "c", "-"], input=source, capture_output=True)
    except OSError as exc:
        return _first_line(exc)
    if done.returncode != 0:
        lines = done.stderr.decode(errors="replace").strip().splitlines()
        return lines[0] if lines else f"{CC} exited with status {done.returncode}"
    return None


def _load(path: str) -> dict:
    """The library at path, one ctypes function per symbol; OSError if it does not load or lacks one."""
    so = ctypes.CDLL(path)
    fns = {}
    for name, (argtypes, restype) in _SIGNATURES.items():
        try:
            fn = fns[name] = getattr(so, name)
        except AttributeError as exc:
            raise OSError(_first_line(exc)) from None
        fn.argtypes, fn.restype = argtypes, restype
    return fns


def _build_key(source: bytes) -> str:
    """A hash of everything the library's code depends on: source, compiler, flags, compiler version, CPU."""
    try:
        version = subprocess.run([CC, "--version"], stdin=subprocess.DEVNULL, capture_output=True,
                                 text=True).stdout.partition("\n")[0]
    except OSError:
        version = ""
    cpu = platform.machine()
    try:  # -march=native compiles for this CPU's model and flags
        with open("/proc/cpuinfo") as fh:
            cpu += "".join(sorted({line for line in fh if line.startswith(("model name", "flags"))}))
    except OSError:
        cpu += platform.processor()
    digest = hashlib.sha256(source)
    for part in (CC, *CFLAGS, version, cpu):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:32]


def _cached(source: bytes) -> tuple[dict | None, str | None]:
    """(functions, None) from the cached library, compiling it into the cache on a miss, or (None, compile error).

    Raises OSError when the cache cannot be used: no private directory, a
    failed write, or a cached file that does not load or lacks a symbol.
    """
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):
        home = os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(home, "dgpcyclegan")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{directory} is not a private directory")
    path = os.path.join(directory, f"_native-{_build_key(source)}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            error = _compile(source, tmp)
            if error is not None:
                return None, error
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return _load(path), None


def _openblas():
    """numpy's bundled OpenBLAS libraries that load (numpy has loaded them already), in name order."""
    for path in sorted(glob.glob(_OPENBLAS)):
        try:
            yield ctypes.CDLL(path)
        except OSError:
            continue


def _blas_functions() -> list | None:
    """Addresses of _BLAS in numpy's bundled OpenBLAS, or None."""
    for blas in _openblas():
        try:
            return [ctypes.cast(getattr(blas, name), ctypes.c_void_p).value for name in _BLAS]
        except AttributeError:
            continue
    return None


def build() -> tuple[Native, str | None]:
    """Load _native.c's library from the cache, compiling it on a miss, and hand it numpy's BLAS.

    Returns (every pass, None); or (every pass but the nets passes, why)
    when numpy's bundled OpenBLAS or its CBLAS functions are missing; or (no
    pass, the first line of the reason) when the compiler is missing or
    fails, or the library does not load (as from a noexec temporary
    directory) or lacks a symbol.  On any cache error the library is
    compiled into a private temporary directory, deleted either way; a
    loaded library stays mapped after its file is gone.
    """
    source = importlib.resources.files(__package__).joinpath("_native.c").read_bytes()
    try:
        try:
            fns, error = _cached(source)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="dgpcyclegan-native-") as tmp:
                path = os.path.join(tmp, "_native.so")
                error = _compile(source, path)
                fns = None if error else _load(path)
    except OSError as exc:
        return Native(), _first_line(exc)
    if error is not None:
        return Native(), error
    passes = Native(fns["dgp_adam_update"], fns["dgp_knn_select"], (fns["dgp_gram_pack"], fns["dgp_gram_depth"]))
    blas = _blas_functions()
    if blas is None:
        return passes, f"numpy has no bundled OpenBLAS with {', '.join(_BLAS)}"
    fns["dgp_set_blas"](*blas)
    return passes._replace(nets_forward=fns["dgp_dense_forward"], nets_backward=fns["dgp_dense_backward"],
                           nets_grads=fns["dgp_dense_grads"]), None


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
    for blas in _openblas():
        try:
            corename = blas.scipy_openblas_get_corename64_
        except AttributeError:
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return "unknown"
