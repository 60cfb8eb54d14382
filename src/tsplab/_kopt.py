"""Build and load the compiled search loop, ``_kopt.c``, through ctypes.

The library is compiled on first use, never at import, into
``$XDG_CACHE_HOME/tsplab`` (default ``~/.cache/tsplab``), or into a private
directory under the temp dir when that one cannot be written.  Its file name
hashes the source, the flags and the platform, so an edited source never
loads a stale build.  Each build writes a temp file and moves it into place
with ``os.replace``, so processes that build at once leave one whole library.

The library exports ``kopt_run`` (the sampling cycle of a solve; one
sample is one ``kopt_run`` step), ``kopt_construct`` (the restart tour),
``kopt_two_opt`` and ``kopt_sizeof_ctx``, and measures every edge from the
coordinates.  It is the engine's only search loop: when no compiler or
writable directory exists, or its struct does not match the ctypes mirror
here, :func:`load` raises ``OSError`` naming what failed in each directory tried.
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
import time
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kopt.c")
# -ffp-contract=off keeps every distance and potential the same IEEE arithmetic as numpy's
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

# a 2-opt reversal must gain more than this: no cycling on floating-point noise
IMPROVE_EPS = 1e-12

_c_i64, _c_double, _c_void_p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_I64_MAX = 2**63 - 1

# the events kopt_run returns
CANDIDATE, STAGNATION, CAP, TIME = 1, 2, 3, 4


class _Context(ctypes.Structure):
    """``kopt_ctx`` of ``_kopt.c``: the pointers fixed for one ``MctsState``,
    then the counters of a ``kopt_run`` call."""

    _fields_ = [
        ("n", _c_i64),
        ("kc", _c_i64),
        ("max_depth", _c_i64),
        ("alpha", _c_double),
        *((name, _c_void_p) for name in (
            "pts", "W", "Q", "row_sums", "cand", "current", "cur_pos", "order", "pos",
            "seq", "feasible", "cum",
        )),
        ("M", _c_i64),
        ("fails", _c_i64),
        ("stagnation", _c_i64),
        ("max_actions", _c_i64),
        ("current_length", _c_double),
        ("seconds", _c_double),
        ("count", _c_i64),
        ("length", _c_double),
    ]


# the library once loaded
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


def _declare(lib) -> None:
    lib.kopt_run.argtypes = (_c_void_p, _c_void_p)
    lib.kopt_run.restype = _c_i64
    lib.kopt_construct.argtypes = (_c_void_p, _c_void_p)
    lib.kopt_construct.restype = None
    lib.kopt_two_opt.argtypes = (_c_void_p, _c_i64, _c_void_p, _c_void_p, _c_double, _c_double)
    lib.kopt_two_opt.restype = None


def _layout_error(lib) -> str | None:
    """Why the library's struct differs from its ctypes mirror, if it does."""
    size = _c_i64.in_dll(lib, "kopt_sizeof_ctx").value
    if size != ctypes.sizeof(_Context):
        return f"kopt_ctx is {size} bytes in C but {ctypes.sizeof(_Context)} in its ctypes mirror"
    return None


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
            lib = ctypes.PyDLL(str(target))
        except OSError as e:
            errors.append(f"{d}: {e}")
            continue
        error = _layout_error(lib)
        if error is None:
            _declare(lib)
            return lib
        # every directory holds the same build
        errors.append(f"{target}: {error}")
        break
    raise OSError(f"cannot build or load the compiled search loop: {'; '.join(errors)}")


def load():
    """The compiled library, building it if needed.  Raises ``OSError`` when
    it cannot be built or loaded; a later call tries again."""
    global _kernel
    if _kernel is None:
        _kernel = _open()
    return _kernel


def _address(a: np.ndarray, dtype, shape: tuple[int, ...]) -> int:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"kernel buffer must be C-contiguous {np.dtype(dtype)} of shape {shape}")
    return a.ctypes.data


def two_opt(points: np.ndarray, order, deadline: float | None = None) -> np.ndarray:
    """``order``, a permutation of the rows of ``points`` (n x 2), polished by
    ``kopt_two_opt`` into an int64 copy.  Each move reverses positions i+1..j
    for the lexicographically first improving pair (i, j), as a full rescan
    would pick it, until none is left.  ``deadline``, a ``time.perf_counter()``
    value, is checked once per applied move; the kernel times what is left
    of it on its own clock and returns the order as it is once it passes."""
    order = np.array(order, dtype=np.int64, copy=True)
    n = order.shape[0]
    if n < 4:
        return order
    edge = np.empty(n)  # held here while the kernel writes to it
    seconds = math.inf if deadline is None else deadline - time.perf_counter()
    load().kopt_two_opt(_address(points, np.float64, (n, 2)), n, order.ctypes.data,
                        edge.ctypes.data, IMPROVE_EPS, seconds)
    return order


def bind(state):
    """``(run, construct)`` for ``state``, over the kernel's own working
    memory: the sampled tour, the positions, the action and the pick
    buffers, but no list of an action's edges.

    ``run(state, rng, fails, stagnation, max_actions, seconds)`` samples
    until an event (see ``kopt_run``) and returns ``(event, fails,
    sample)``, with ``sample`` the call's last sample as ``(vertices,
    order, length)``: the action's vertex tuple, the tour it leaves and that
    tour's closed length; ``None`` when the call drew none or its last was a
    dead end.  It counts its actions in ``state.M``.  ``max_actions`` of
    ``None`` means no cap.

    ``construct(state, rng)`` builds a restart tour at ``state.M`` (see
    ``kopt_construct``).  Both return tours in one buffer, which the next
    ``run`` or ``construct`` overwrites.

    The state's arrays must not be replaced while ``run`` lives:
    ``MctsState._set_current`` rewrites ``current`` in place for that
    reason.
    """
    lib = load()
    n = state.n
    # an action deletes distinct edges of the tour it starts from, so no
    # more than n: a larger max_depth closes the same actions
    depth = min(state.params.max_depth, n)
    kc = state.candidates.shape[1]
    i64, f64 = np.int64, np.float64
    # cur_pos, order, pos, seq and feasible, then cum, as in kopt_ctx
    scratch = (*(np.empty(s, dtype=i64) for s in (n, n, n, 2 * depth + 1, kc)),
               np.empty(kc, dtype=f64))
    order, seq = scratch[1], scratch[3]
    ctx = _Context(
        n, kc, depth, state.params.alpha,
        _address(state.instance.points, f64, (n, 2)),
        _address(state.W, f64, (n, n)),
        _address(state.Q, i64, (n, n)),
        _address(state._row_sums, f64, (n,)),
        _address(state.candidates, i64, (n, kc)),
        _address(state.current, i64, (n,)),
        *(a.ctypes.data for a in scratch),
    )
    addr = ctypes.addressof(ctx)
    kopt_run, kopt_construct = lib.kopt_run, lib.kopt_construct

    # the generator is read on every call: callers may pass a new one
    def run(state, rng: np.random.Generator, fails: int, stagnation: int,
            max_actions: int | None, seconds: float) -> tuple[int, int, tuple | None]:
        ctx.M = state.M
        ctx.fails = fails
        # ctypes would wrap larger ints; no count can reach 2**63 - 1
        ctx.stagnation = min(stagnation, _I64_MAX)
        ctx.max_actions = _I64_MAX if max_actions is None else min(max_actions, _I64_MAX)
        ctx.current_length = state.current_length
        ctx.seconds = seconds
        event = kopt_run(addr, rng.bit_generator.ctypes.bit_generator)
        state.M = ctx.M
        count = ctx.count
        sample = (tuple(seq[:count].tolist()), order, ctx.length) if count else None
        return event, ctx.fails, sample

    def construct(state, rng: np.random.Generator) -> np.ndarray:
        ctx.M = state.M
        kopt_construct(addr, rng.bit_generator.ctypes.bit_generator)
        return order

    # the kernel holds their addresses; run and construct themselves hold ctx
    run.buffers = construct.buffers = scratch
    return run, construct
