"""What a fresh interpreter loads: no command imports scipy or maps
scipy's own OpenBLAS (the commands that integrate read only scipy's file
of DOP853 coefficients, and the BLAS pinned is numpy's), and a sweep cell
imports nothing, so forked pool workers start warm.  Each test runs its
own interpreter, because this one has loaded scipy already."""

import json
import os
import subprocess
import sys

import pytest

import dickelattice

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dickelattice.__file__)))


def _run(script, cwd, *args):
    """Last stdout line of script as JSON, from a fresh interpreter on this
    checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DLP_WORKERS", None)
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COMMANDS = [
    ["dispersion"],
    ["critical", "--xi-steps", "2"],
    ["steady", "--n", "3"],
    ["sweep", "--mode", "phase", "--xi-steps", "2", "--g-steps", "2",
     "--workers", "1"],
    ["sweep", "--mode", "cut", "--g-steps", "2"],
    ["trajectory", "--t-end", "inf"],
    ["sweep", "--mode", "profile", "--n", "3"],
    ["trajectory", "--t-end", "2"],
]

MAIN_SCRIPT = """
import contextlib, fnmatch, io, json, os, sys
import dickelattice.cli as cli

def scipy_blas():
    # scipy's OpenBLAS mapped into this process; None without /proc
    try:
        with open("/proc/self/maps") as fh:
            names = {os.path.basename(line.split()[-1]) for line in fh}
    except OSError:
        return None
    return sorted(fnmatch.filter(names, "libscipy_openblas-*.so"))

steps = [("import", None, "scipy" in sys.modules, scipy_blas())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    steps.append((" ".join(argv), rc, "scipy" in sys.modules, scipy_blas()))
print(json.dumps(steps))
"""


def test_no_command_loads_scipy(tmp_path):
    steps = _run(MAIN_SCRIPT, tmp_path, json.dumps(COMMANDS))
    names = ["import"] + [" ".join(argv) for argv in COMMANDS]
    codes = [None, 0, 0, 0, 0, 0, 2, 0, 0]
    assert [step[:3] for step in steps] \
        == [[name, rc, False] for name, rc in zip(names, codes)]
    if steps[0][3] is None:
        pytest.skip("no /proc/self/maps: scipy's OpenBLAS not checked")
    assert [step[3] for step in steps] == [[]] * 9


CELL_SCRIPT = """
import json, sys
import dickelattice.cli
from dickelattice import BoundaryCondition, LatticeParams, _blas, sweep
# a pool worker runs this initializer before its first cell
_blas.pin_one_thread()
added = []
for bc in (BoundaryCondition.Periodic, BoundaryCondition.Open):
    job = (LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=bc),
           sweep._cell_seed(0, 0, 0))
    before = set(sys.modules)
    cell = sweep._compute_cell(job)
    assert not cell.error and cell.classes, cell
    added.append(sorted(set(sys.modules) - before))
print(json.dumps(added))
"""


def test_sweep_cells_import_nothing(tmp_path):
    assert _run(CELL_SCRIPT, tmp_path) == [[], []]
