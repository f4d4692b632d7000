"""One BLAS thread per process.

The 150 x 150 solves and eigendecompositions of a 30-site lattice run
several times slower under OpenBLAS's default threading than on one
thread, so the command line and the sweep pool workers pin the OpenBLAS
builds bundled with numpy (ILP64, symbol suffix 64_) and scipy to one
thread and take their parallelism from worker processes.  A missing
library or symbol is skipped.  Nothing is loaded at import time.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os


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


@contextlib.contextmanager
def one_thread():
    """One BLAS thread inside the block; the previous counts after it."""
    before = thread_counts()
    pin_one_thread()
    try:
        yield
    finally:
        set_thread_counts(before)
