"""One BLAS thread per process.

The command line, the sweep pool workers and steady_state.newton_solve
pin the OpenBLAS bundled with numpy (ILP64, symbol suffix 64_) to one
thread and take their parallelism from worker processes.  On a 2-CPU
x86-64 host with no *_NUM_THREADS variable set (median of 4 processes x
3 warm calls), `steady --n 30 --bc obc` took 0.40 s pinned
and 0.77 s on OpenBLAS's default threads, single calls up to 3.4 s, and
an N = 50 site profile 0.043 s against 0.046 s, with identical output.
A missing library or symbol is skipped.  The library is looked up once,
on first use, not at import time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading


@functools.cache
def _openblas():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs",
                                              "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def thread_count() -> int | None:
    """The thread count of numpy's OpenBLAS, or None without it."""
    blas = _openblas()
    return blas[1]() if blas else None


def set_thread_count(n) -> None:
    """Put numpy's OpenBLAS, if found, on n threads."""
    blas = _openblas()
    if blas:
        blas[0](int(n))


def pin_one_thread() -> None:
    """Put numpy's OpenBLAS on one thread (a pool initializer)."""
    set_thread_count(1)


# open one_thread blocks in this process, and the count the first saw
_pin = {"depth": 0, "before": None}
_pin_lock = threading.Lock()


@contextlib.contextmanager
def one_thread():
    """One BLAS thread inside the block; the previous count after it.

    Blocks may nest and may be open in several Python threads at once:
    the count seen on entering the first open block is restored when
    the last open block exits, so none runs on more than one thread.
    A count set by hand while a block is open is overwritten then.
    """
    with _pin_lock:
        if not _pin["depth"]:
            _pin["before"] = thread_count()
            pin_one_thread()
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if not _pin["depth"]:
                set_thread_count(_pin["before"])
