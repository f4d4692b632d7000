"""Wall time, peak memory and dossier hash of one-shot `steady` runs.

Runs `python3 -m dickelattice steady` at the given point in a fresh
child process, `--repeat` times, with the package next to this script
(its checkout's `src/`).  For each run it prints the wall time, the
child's peak resident set (`ru_maxrss` from `os.wait4`) and the sha256
of the dossier it wrote, so that runs of two checkouts compare byte for
byte as well as in cost.  The dossier of the last run stays at `--out`
with its `.config.json`.  For example, the ring N = 50 point:

    python3 scripts/steady_cost.py --n 50 --bc pbc --repeat 3

The worker count follows the command line's rule (`DLP_WORKERS`, then
the CPUs the process may run on).
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_once(argv, env):
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--bc", default="obc")
    ap.add_argument("--xi", default="0.2")
    ap.add_argument("--g", default="0.8")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", default="steady_cost.json")
    args = ap.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "dickelattice", "steady", "--n",
            str(args.n), "--bc", args.bc, "--xi", args.xi, "--g", args.g,
            "--out", args.out]
    print(f"steady --n {args.n} --bc {args.bc} --xi {args.xi} --g {args.g}")
    for k in range(1, args.repeat + 1):
        wall, rss, rc = run_once(argv, env)
        if rc != 0:
            print(f"run {k}: exit {rc}")
            return 1
        with open(args.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(f"run {k}: wall {wall:.3f} s, peak RSS {rss:.1f} MB, "
              f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
