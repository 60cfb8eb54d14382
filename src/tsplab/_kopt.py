"""Build and load the compiled k-opt sampler, ``_kopt.c``, through ctypes.

The library is compiled on first use, never at import, into
``$XDG_CACHE_HOME/tsplab`` (default ``~/.cache/tsplab``), or into a private
directory under the temp dir when that one cannot be written.  Its file name
hashes the source, the flags and the platform, so an edited source never
loads a stale build.  Each build writes a temp file and moves it into place
with ``os.replace``, so processes that build at once leave one whole library.

When no compiler or writable directory exists, :func:`load` warns once per
process and returns ``None``; the engine then runs the Python sampler, which
draws the same numbers.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kopt.c")
# -ffp-contract=off keeps every potential the same IEEE arithmetic as Python's
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_c_i64, _c_double, _c_void_p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class _Context(ctypes.Structure):
    """``kopt_ctx`` of ``_kopt.c``: the pointers fixed for one ``MctsState``."""

    _fields_ = [
        ("n", _c_i64),
        ("kc", _c_i64),
        ("max_depth", _c_i64),
        ("alpha", _c_double),
        *((name, _c_void_p) for name in (
            "d", "W", "Q", "row_sums", "cand", "current", "cur_pos", "order", "pos",
            "seq", "deleted", "added", "feasible", "cum",
        )),
    ]


# the kopt_sample function once loaded; False once loading failed here
_kernel = None


def _cache_dirs() -> list[Path]:
    """Where the library may live, in the order tried."""
    dirs = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    try:
        dirs.append((Path(xdg) if xdg else Path.home() / ".cache") / "tsplab")
    except RuntimeError:  # no home directory
        pass
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return dirs + [Path(tempfile.gettempdir()) / f"tsplab-{uid}"]


def library_name() -> str:
    """File name of the build: a hash of the source, the flags and the platform."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(f"{' '.join(CFLAGS)}|{sys.platform}|{platform.machine()}".encode())
    return f"_kopt-{digest.hexdigest()[:16]}.so"


def _private_dir(d: Path) -> None:
    d.mkdir(mode=0o700, parents=True, exist_ok=True)
    # a library planted by someone else would run with this user's rights
    if hasattr(os, "getuid") and d.stat().st_uid != os.getuid():
        raise OSError(f"{d} belongs to another user")


def _build(target: Path) -> None:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    fd, tmp = tempfile.mkstemp(prefix=f"{target.name}.", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{cc} failed: {done.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open():
    name = library_name()
    errors = []
    for d in _cache_dirs():
        target = d / name
        try:
            _private_dir(d)
            if not target.exists():
                _build(target)
            # PyDLL keeps the interpreter lock: the kernel writes into numpy
            # arrays and the generator's state
            fn = ctypes.PyDLL(str(target)).kopt_sample
        except OSError as e:
            errors.append(f"{d}: {e}")
            continue
        fn.argtypes = (_c_void_p, _c_void_p, _c_double, _c_double, ctypes.POINTER(_c_double))
        fn.restype = _c_i64
        return fn
    warnings.warn(
        "tsplab: the compiled k-opt sampler is unavailable, so the Python sampler "
        f"runs instead (same output, slower): {'; '.join(errors)}",
        RuntimeWarning,
    )
    return False


def load():
    """The compiled ``kopt_sample``, building it if needed; ``None`` when it
    cannot be built or loaded.  Tried once per process."""
    global _kernel
    if _kernel is None:
        _kernel = _open()
    return _kernel or None


def _address(a: np.ndarray, dtype, shape: tuple[int, ...]) -> int:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"kernel buffer must be C-contiguous {np.dtype(dtype)} of shape {shape}")
    return a.ctypes.data


def bind(state):
    """``(sample, seq, length)`` for ``state``, or ``None`` without the kernel.

    ``sample(state, rng)`` draws one action from ``rng`` into the state's
    buffers and ``Q``, and returns its vertex count in ``seq``, or 0 when
    the anchor admits no extension.  ``length.value`` then holds the closed
    length of ``state._scratch``.  The state's arrays must not be replaced
    while ``sample`` lives: ``MctsState._set_current`` rewrites ``current``
    in place for that reason.
    """
    fn = load()
    if fn is None:
        return None
    n = state.n
    depth = state.params.max_depth
    kc = state.candidates.shape[1]
    i64, f64 = np.int64, np.float64
    seq = np.empty(2 * depth + 1, dtype=i64)
    # the edge keys and the action grow with max_depth, which has no bound
    scratch = (seq, np.empty(depth, dtype=i64), np.empty(depth, dtype=i64),
               np.empty(kc, dtype=i64), np.empty(kc, dtype=f64))
    ctx = _Context(
        n, kc, depth, state.params.alpha,
        _address(state.d, f64, (n, n)),
        _address(state.W, f64, (n, n)),
        _address(state.Q, i64, (n, n)),
        _address(state._row_sums, f64, (n,)),
        _address(state.candidates, i64, (n, kc)),
        _address(state.current, i64, (n,)),
        _address(state._cur_pos, i64, (n,)),
        _address(state._scratch, i64, (n,)),
        _address(state._pos, i64, (n,)),
        *(a.ctypes.data for a in scratch),
    )
    addr = ctypes.addressof(ctx)
    length = _c_double()
    out = ctypes.byref(length)

    def sample(state, rng: np.random.Generator) -> int:
        # the generator is read on every call: callers may pass a new one
        return fn(addr, rng.bit_generator.ctypes.bit_generator, state.current_length,
                  math.log(state.M + 1.0), out)

    sample.buffers = (ctx, scratch)  # the kernel holds their addresses
    return sample, seq, length
