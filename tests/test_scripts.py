"""The fast experiment scripts run end to end and write the files their
docstrings name.

Each script runs in a fresh interpreter, in a temporary directory, with
the package from src/.  scripts/profile_polish_check.py and
scripts/cell_sample.py take no size argument and run for minutes, so
they are left out; scripts/byte_check.py is a comparison tool, not an
experiment.  scripts/steady_cost.py runs here on the three-site chain.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, written", [
    ("boundary_profile.py", ["--n", "3"], ["profile_obc.csv", "profile_pbc.csv"]),
    ("window_edge_dynamics.py", ["--t-end", "20"],
     ["edge_obc.csv", "edge_pbc.csv"]),
    ("threshold_vs_size.py", [], ["threshold_vs_size.csv"]),
    ("phase_diagrams.py", ["--steps", "2", "--workers", "1"],
     ["phase_obc.config.json", "phase_obc.csv", "phase_pbc.config.json",
      "phase_pbc.csv"]),
    ("steady_cost.py", ["--n", "3"],
     ["steady_cost.config.json", "steady_cost.json"]),
], ids=["boundary_profile", "window_edge_dynamics", "threshold_vs_size",
        "phase_diagrams", "steady_cost"])
def test_script_writes_its_files(tmp_path, script, args, written):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert sorted(os.listdir(tmp_path)) == written
