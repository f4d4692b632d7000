"""One BLAS thread per process.

The 150 x 150 solves and eigendecompositions of a 30-site lattice run
several times slower under OpenBLAS's default threading than on one
thread, so the command line, the sweep pool workers and
steady_state.find_all's Newton solves pin the OpenBLAS builds bundled
with numpy (ILP64, symbol suffix 64_) and scipy to one thread and take
their parallelism from worker processes.  A missing library or symbol is
skipped.  Nothing is loaded at import time; the libraries are looked up
once, on first use.
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
    """(set, get) thread-count functions of each bundled OpenBLAS found."""
    import numpy
    import scipy

    found = []
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        pattern = os.path.join(site, pkg.__name__ + ".libs",
                               "libscipy_openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return found


def thread_counts() -> list:
    """Current thread count of each bundled OpenBLAS found."""
    return [getter() for _, getter in _openblas()]


def set_thread_counts(counts) -> None:
    """Set each bundled OpenBLAS found, in thread_counts order."""
    for (setter, _), n in zip(_openblas(), counts):
        setter(int(n))


def pin_one_thread() -> None:
    """Put every bundled OpenBLAS on one thread (a pool initializer)."""
    for setter, _ in _openblas():
        setter(1)


# open one_thread blocks in this process, and the counts the first saw
_pin = {"depth": 0, "before": []}
_pin_lock = threading.Lock()


@contextlib.contextmanager
def one_thread():
    """One BLAS thread inside the block; the previous counts after it.

    Blocks may nest and may be open in several Python threads at once:
    the counts seen on entering the first open block are restored when
    the last open block exits, so none runs on more than one thread.
    Counts set by hand while a block is open are overwritten then.
    """
    with _pin_lock:
        if not _pin["depth"]:
            _pin["before"] = thread_counts()
            pin_one_thread()
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if not _pin["depth"]:
                set_thread_counts(_pin["before"])
