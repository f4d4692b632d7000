"""One kept worker pool per process, and the stacks of a root search
mapped over it.

Phase sweeps run their cells on the pool, and a large lattice's root
search runs its verdict and Newton stacks on it once a verdict stack
holds one matrix (N >= 26, STACK_BYTES).  Every worker runs BLAS on one
thread; the pool is the parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing.connection import wait
from multiprocessing.util import Finalize

from ._blas import _openblas, pin_one_thread

# os.getpid() -> the worker pool that the sweeps and root searches of that
# process share; a forked child inherits its parent's entry and never
# touches it
_pools = {}

# Matrix bytes of one stack of Newton solves or verdicts (256 KiB).  A
# Newton stack holds 2N x 2N matrices (~900 seeds at N = 3, 9 at N = 30),
# a verdict stack 5N x 5N Jacobians (~145 at N = 3, 13 at N = 10).  From
# N = 26 a verdict stack holds one Jacobian, and from there both kinds of
# stack go to the pool (map_stacks).  Larger lattices gain nothing from
# stacking BLAS-bound solves, and 2 MiB stacks raised the peak resident
# memory of the large_n benchmark (N = 30 and 50) by 0.5 MB.
STACK_BYTES = 2 ** 18


def stack_size(order: int) -> int:
    """How many order x order matrices fit in STACK_BYTES; at least one."""
    return max(1, STACK_BYTES // (8 * order ** 2))


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes, built on first use.

    A forked worker runs its first tasks several times slower than a warm
    one, so the pool is kept: it is replaced only when the count changes
    or a worker has died, and concurrent.futures joins it at exit.
    """
    pool = _pools.get(os.getpid())
    if pool is not None:
        if not _lost_a_worker(pool) and pool._max_workers == workers:
            return pool
        shutdown_pool()
    _openblas()     # looked up here once, not in every forked worker
    pool = _pools[os.getpid()] = ProcessPoolExecutor(
        max_workers=workers, initializer=pin_one_thread)
    # a multiprocessing child joins its children before that exit hook
    # runs: there the pool shuts down first, ahead of the finalizers that
    # close its queues (priority 10)
    Finalize(pool, pool.shutdown, exitpriority=20)
    return pool


def _lost_a_worker(pool: ProcessPoolExecutor) -> bool:
    """Whether the pool is broken or one of its workers has died."""
    return pool._broken or bool(
        wait([p.sentinel for p in pool._processes.values()], 0))


def shutdown_pool() -> None:
    """Stop and join this process's worker pool, if it has one.

    For a process that is done with the pool: its idle workers stay
    resident until it exits otherwise.  The next call that needs a pool
    builds a fresh one.
    """
    pool = _pools.pop(os.getpid(), None)
    if pool is None:
        return
    if _lost_a_worker(pool):
        # a dead worker may hold the call queue's lock, so a shutdown
        # could wait forever: the pool's thread kills the others
        pool._executor_manager_thread.join()
    pool.shutdown()


def map_stacks(func, rows, order: int, n_sites: int, workers: int,
               *args) -> list:
    """[func(stack, *args) for stack in the stacks of rows], where each
    stack holds as many rows as order x order matrices fit in STACK_BYTES.

    The stacks run on the worker pool when workers > 1, there is more
    than one of them and a verdict stack of the lattice of n_sites holds
    a single 5N x 5N Jacobian (N >= 26): there the verdicts are
    BLAS-bound eigendecompositions and the Newton stacks (9 seeds at
    N = 30) chains of BLAS-bound solves.  Otherwise they run here, in
    order, where func may write into its stack.  Smaller lattices stay
    here: their stacks are cheap, and a one-shot command would pay more
    for forking the pool than it saves.  func must be a module-level
    function, so that a worker can unpickle it, and must not reach the
    pool itself.
    """
    size = stack_size(order)
    stacks = [rows[s:s + size] for s in range(0, len(rows), size)]
    if workers > 1 and stack_size(5 * n_sites) == 1 and len(stacks) > 1:
        # four stacks a task: fewer round trips through the call queue,
        # and the workers still end within a few stacks of each other
        return list(worker_pool(workers).map(
            func, stacks, *map(repeat, args), chunksize=4))
    return [func(stack, *args) for stack in stacks]
