"""Benchmark of the dickelattice package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of

  phase3      `dickelattice sweep --mode phase` at N = 3 on the ring and the
              open chain, a 4 x 4 sub-grid of the paper's window (xi from 0
              to 0.45, g from 0.3 to 1.1), 2 worker processes
  ring_orbit  `dickelattice steady` on the ring at N = 10, xi = 0.2, for
              g = 0.6, 0.8 and 1.0
  large_n     `dickelattice steady` on the open chain at N = 30, xi = 0.2,
              g = 0.8, and `dickelattice sweep --mode profile` at N = 50 on
              both boundary conditions with g_cut = 0.6

BENCHMARK.json lists phase3 and large_n.  ring_orbit runs through the
same command but is left out of it as unsteady: its single-threaded pass
of about 26 s fits once in a run, and over ten seeds on a 2-CPU machine
its wall_s spread (inter-quartile range over median) was 0.13, more than
a third of the largest bound a metric may have (0.25).

The seed is passed to the package as --rng-seed.  The reference outputs
in benchmarks/references belong to seed 0 (workload.DEFAULT_SEED); a run
on another seed applies only the checks that do not depend on the seed.

Each workload runs in a fresh `python3 benchmarks/workload.py` process
that imports the package from src/ and calls `dickelattice.cli.main`.
Its environment is the caller's with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS and DLP_WORKERS removed, so BLAS runs
at its library default thread count, which the run records.

--trace 0 prints the end-to-end metrics:
  setup_s      process start to the first timed call (imports of numpy,
               scipy and dickelattice); median of several fresh processes
  wall_s       median time of one pass over the workload's operations
  peak_rss_mb  largest resident set of the workload process or a child
and, for reading only, cells_per_s (phase3), dossier_s (steady calls),
profile_s (profiles) and failed_ratio.  --trace 1 prints the per-layer
metrics of spans.py and the tracing overhead.  The last line of standard
output is one JSON object with correct, attempted, failed and metrics.

Self-test: python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = os.path.join(HERE, "workload.py")
NAMES = ("phase3", "ring_orbit", "large_n")
STRIPPED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DLP_WORKERS")
SETUP_PROBES = 4         # fresh processes timed for setup_s besides the workload
DEADLINE_S = 170.0       # the whole run, probes included


class RunError(Exception):
    pass


def workload_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # temporary files of the program stay inside the checkout
    env["TMPDIR"] = os.path.join(ROOT, ".bench_run")
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def start_workload(argv, env, deadline):
    """Start workload.py; return (process, seconds until its 'ready' line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKLOAD, *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready" or time.monotonic() > deadline:
        _stop(proc)
        raise RunError(f"workload process did not start (exit {proc.returncode})")
    return proc, setup


def probe_setup(argv, env, deadline) -> float:
    proc, seconds = start_workload(argv + ["--setup-only"], env, deadline)
    _stop(proc)
    return seconds


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = workload_env()
    common = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])
    # set-up drifts with the machine's load, so it is sampled before and
    # after the workload as well as in the workload process itself
    before = SETUP_PROBES // 2
    setup = [probe_setup(common, env, deadline) for _ in range(before)]
    proc, seconds = start_workload(
        common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)], env, deadline)
    setup.append(seconds)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"workload did not finish within {DEADLINE_S:g} s")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"workload process exited with {proc.returncode}")
    setup += [probe_setup(common, env, deadline)
              for _ in range(SETUP_PROBES - before)]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples"] = setup
    return result


def end_to_end(result) -> dict:
    walls = [p["wall_s"] for p in result["passes"]]
    return {"setup_s": {"value": statistics.median(result["setup_samples"]),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}


def _line(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<10} {note}".rstrip())


def report(args, env, result, metrics) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    e2e = end_to_end(result)
    passes = result["passes"]
    walls = [p["wall_s"] for p in passes]
    _line("setup_s", e2e["setup_s"]["value"], "s",
          f"median of {len(result['setup_samples'])} process starts")
    _line("wall_s", e2e["wall_s"]["value"], "s",
          f"median of {len(walls)} passes, max {max(walls):.4g}")
    calls = [c for p in passes for c in p["calls"]]
    if result["cells_per_pass"]:
        _line("cells_per_s", result["cells_per_pass"] / e2e["wall_s"]["value"],
              "1/s", f"{result['cells_per_pass']} cells per pass")
    for kind, name in (("steady", "dossier_s"), ("profile", "profile_s")):
        times = [c["seconds"] for c in calls if c["kind"] == kind]
        if times:
            _line(name, statistics.median(times), "s",
                  f"median of {len(times)}, max {max(times):.4g}")
    _line("failed_ratio", result["failed"] / result["attempted"], "ratio",
          f"{result['failed']} of {result['attempted']} operations")
    _line("peak_rss_mb", e2e["peak_rss_mb"]["value"], "MB")
    if args.trace:
        print("per-layer (traced pass; untraced figures above)")
        for name, m in metrics.items():
            _line(name, m["value"], m["unit"])
    print(f"checks: {result['checks']}; {len(result['mismatches'])} mismatches")
    for text in result["mismatches"]:
        print(f"  MISMATCH {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one cell / one N = 3 point (used by the self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dickelattice", "__init__.py")):
        print("error: no package source at src/dickelattice", file=sys.stderr)
        return 2
    env = {"cpu_count": os.cpu_count(),
           "cpu_affinity": len(os.sched_getaffinity(0)),
           "load_avg_1min_at_start": os.getloadavg()[0],
           "python": platform.python_version(),
           "stripped_env": {k: os.environ[k] for k in STRIPPED if k in os.environ},
           "blas_policy": "library default: " + ", ".join(STRIPPED)
                          + " removed from the workload environment"}
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    try:
        result = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(result["env"])
    metrics = result["layers"] if args.trace else end_to_end(result)
    report(args, env, result, metrics)
    print(json.dumps({"correct": not result["mismatches"] and not result["failed"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
