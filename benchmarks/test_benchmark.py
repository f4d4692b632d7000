"""Self-test of the benchmark at a tiny size: one sweep cell and one
N = 3 point per workload.

    python3 -m pytest benchmarks/test_benchmark.py

It lives beside the benchmark, outside the package's test paths, so the
package's own test suite does not run it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from functools import cache

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run                                                      # noqa: E402
import spans                                                    # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# metrics the report prints for reading only, by workload
READ_ONLY = {"phase3": {"cells_per_s": "1/s"},
             "ring_orbit": {"dossier_s": "s"},
             "large_n": {"dossier_s": "s", "profile_s": "s"}}


@cache
def _run(workload, trace, repeat=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.NAMES)


@pytest.mark.parametrize("workload", run.NAMES)
@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, table):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    printed = dict(re.findall(r"^  (\S+) +\S+ (\S+)", "\n".join(report), re.M))
    for name, unit in ({"failed_ratio": "ratio", **READ_ONLY[workload],
                        **want}).items():
        assert printed.get(name) == unit, name


def test_counts_repeat_between_traced_runs():
    first = _run("phase3", 1)[1]["metrics"]
    second = _run("phase3", 1, repeat=1)[1]["metrics"]
    for name in spans.COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_tracer_restores_every_wrapped_name(tmp_path):
    from dickelattice import cli

    def names():
        return {(mod, key): val for mod in sorted(sys.modules)
                if mod.split(".")[0] == "dickelattice"
                for key, val in vars(sys.modules[mod]).items()}

    before = names()
    tracer = spans.Tracer()
    tracer.install()
    patched = {(mod.__name__, key) for mod, key, _ in tracer.patches}
    # names imported under another module's namespace or an alias
    assert {("dickelattice.steady_state", "rhs_packed"),
            ("dickelattice.sweep", "stability_classify"),
            ("dickelattice.classify", "stability_classify"),
            ("dickelattice.sweep", "pattern_label"),
            ("dickelattice.cli", "find_all")} <= patched
    try:
        assert cli.main(["sweep", "--mode", "phase", "--n", "3", "--xi-steps",
                         "1", "--g-steps", "1", "--workers", "1",
                         "--out", str(tmp_path / "phase.csv")]) == 0
    finally:
        left = tracer.uninstall()
    assert left == []
    assert {s.name for s in tracer.spans} >= {
        "cli.main", "sweep.cell", "steady_state.find_all",
        "steady_state.newton_solve", "dynamics.rhs_packed",
        "dynamics.jacobian_packed", "stability.classify"}
    after = names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
