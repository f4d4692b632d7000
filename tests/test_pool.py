"""The sweeps of one process share one worker pool: built on the first
sweep with workers > 1, kept while the count stays the same, replaced when
it changes or a worker dies, and joined by shutdown_pool or when the
interpreter exits."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import dickelattice
from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          SweepSpec, phase_diagram)
from dickelattice.sweep import shutdown_pool

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dickelattice.__file__)))


def _worker_pids():
    """This process's live child processes: the pool's workers."""
    return sorted(p.pid for p in multiprocessing.active_children())


def test_sweeps_share_one_pool_until_the_count_changes():
    spec = SweepSpec(LatticeParams(n_sites=3, kappa=0.4,
                                   bc=BoundaryCondition.Periodic),
                     GridAxis(0.1, 0.2, 2), GridAxis(0.4, 0.8, 2),
                     n_random_seeds=8)
    serial = phase_diagram(spec, workers=1)
    assert phase_diagram(spec, workers=2) == serial
    first = _worker_pids()
    assert phase_diagram(spec, workers=2) == serial
    assert _worker_pids() == first and len(first) == 2
    assert phase_diagram(spec, workers=3) == serial
    third = _worker_pids()
    assert len(third) == 3 and not set(third) & set(first)


def test_shutdown_pool_stops_the_workers_and_the_next_sweep_forks_anew():
    spec = SweepSpec(LatticeParams(n_sites=3, kappa=0.4,
                                   bc=BoundaryCondition.Open),
                     GridAxis(0.1, 0.2, 2), GridAxis(0.4, 0.8, 2),
                     n_random_seeds=8)
    serial = phase_diagram(spec, workers=1)
    assert phase_diagram(spec, workers=2) == serial
    first = _worker_pids()
    assert len(first) == 2
    shutdown_pool()
    assert _worker_pids() == []
    shutdown_pool()                 # no pool left: nothing to do
    assert phase_diagram(spec, workers=2) == serial
    second = _worker_pids()
    assert len(second) == 2 and not set(second) & set(first)


def _run(script, cwd):
    """Last stdout line of script as JSON, from a fresh interpreter on this
    checkout.  A hung script is killed with its workers: a failure, not a
    hang of the suite."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DLP_WORKERS", None)
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("no result within 120 s")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


KILL_SCRIPT = """
import json, multiprocessing, os, signal
from multiprocessing.connection import wait
from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          SweepSpec, phase_diagram)

spec = SweepSpec(LatticeParams(n_sites=3, kappa=0.4,
                               bc=BoundaryCondition.Periodic),
                 GridAxis(0.1, 0.2, 2), GridAxis(0.4, 0.8, 2), n_random_seeds=8)
serial = phase_diagram(spec, workers=1)
out = []
for victim in (0, 1):           # the two workers wait on the queue unalike
    phase_diagram(spec, workers=2)
    dead = sorted(multiprocessing.active_children(), key=lambda p: p.pid)[victim]
    os.kill(dead.pid, signal.SIGKILL)
    assert wait([dead.sentinel], 30)
    same = phase_diagram(spec, workers=2) == serial
    pids = [p.pid for p in multiprocessing.active_children()]
    out.append([same, len(pids), dead.pid in pids])
print(json.dumps(out))
"""


def test_a_killed_worker_is_replaced(tmp_path):
    # a dead worker may hold the pool's queue lock; the next sweep must
    # neither hang on the old pool nor fail with BrokenProcessPool
    assert _run(KILL_SCRIPT, tmp_path) == [[True, 2, False]] * 2


EXIT_SCRIPT = """
import contextlib, io, json, multiprocessing
from dickelattice import cli
pids = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--mode", "phase", "--xi-steps", "2",
                         "--g-steps", "2", "--workers", "2",
                         "--out", "sweep.csv"]) == 0
    pids.append(sorted(p.pid for p in multiprocessing.active_children()))
print(json.dumps(pids))
"""


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_no_worker_outlives_its_interpreter(tmp_path):
    first, second = _run(EXIT_SCRIPT, tmp_path)
    assert first == second and len(first) == 2
    deadline = time.monotonic() + 5
    while not all(map(_gone, first)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in first if not _gone(pid)] == []


LOOKUP_SCRIPT = """
import json, os
from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          SweepSpec, _blas, sweep)

def probe_cell(job):
    return os.getpid(), _blas._openblas.cache_info().misses

sweep._compute_cell = probe_cell
spec = SweepSpec(LatticeParams(n_sites=3, kappa=0.4,
                               bc=BoundaryCondition.Periodic),
                 GridAxis(0.1, 0.2, 2), GridAxis(0.4, 0.8, 2))
rows = sweep.phase_diagram(spec, workers=2)
print(json.dumps({"parent": _blas._openblas.cache_info().misses,
                  "workers": sorted({misses for _, misses in rows}),
                  "in_parent": any(pid == os.getpid() for pid, _ in rows)}))
"""


def test_the_parent_looks_up_blas_before_the_pool_forks(tmp_path):
    # a worker inherits the parent's filled cache, miss count included, so
    # no worker repeats the scipy import and the library lookups
    assert _run(LOOKUP_SCRIPT, tmp_path) == {"parent": 1, "workers": [1],
                                             "in_parent": False}


FORK_SCRIPT = """
import json, multiprocessing, os, queue, signal
from dickelattice import BoundaryCondition, GridAxis, LatticeParams, SweepSpec
from dickelattice.sweep import phase_diagram

spec = SweepSpec(LatticeParams(n_sites=3, kappa=0.4,
                               bc=BoundaryCondition.Open),
                 GridAxis(0.1, 0.2, 2), GridAxis(0.4, 0.8, 2), n_random_seeds=8)

def child(results):
    os.setpgrp()        # so that a hung child goes with its workers
    results.put(phase_diagram(spec, workers=2)
                == phase_diagram(spec, workers=1))

phase_diagram(spec, workers=2)
ctx = multiprocessing.get_context("fork")
results = ctx.Queue()
proc = ctx.Process(target=child, args=(results,))
proc.start()
try:
    same = results.get(timeout=30)
except queue.Empty:
    same = "hung"
proc.join(30)
if proc.exitcode is None:       # hung at exit, joining its workers
    os.killpg(proc.pid, signal.SIGKILL)
    proc.join()
print(json.dumps([same, proc.exitcode]))
"""


def test_a_forked_child_builds_its_own_pool(tmp_path):
    # the child inherits the parent's pool object, whose thread and
    # workers belong to the parent; using it would hang.  The child must
    # also exit: multiprocessing joins its children before the exit hook
    # of concurrent.futures would stop them
    assert _run(FORK_SCRIPT, tmp_path) == [True, 0]
