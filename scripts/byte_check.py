"""Write the standard set of command-line outputs into one directory.

Two runs of this script, one per version of the package, compare with
one `diff -r`: every data file, every `.config.json`, and `log.txt`,
which holds each command's exit code and its stdout and stderr.  The set:

- phase CSVs: 4 x 4 and 10 x 10 three-site grids of both boundary
  conditions, at 1 and 2 workers;
- cut CSVs: ring and open chain at xi = 0.2, ring at xi = 0.48;
- steady dossiers: open chain N = 3 and 30, ring N = 6, ring N = 10 at
  g = 0.6, 0.8 and 1.0, ring N = 30, and ring N = 3 at kappa = 0;
- profile CSVs: the default N = 3 profile, and the large_n benchmark's
  N = 50 ring and open-chain profiles at xi = 0.2, g_cut = 0.6;
- a trajectory CSV, and a critical CSV with its `_infinite` file.

The outputs are named relative to the directory, so the configs of two
runs name the same files.  The worker pool of the 2-worker sweeps is shut
down once they are done.  Pin BLAS to one thread for comparable bytes:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/byte_check.py DIR

It takes about a minute on one core.
"""

import argparse
import contextlib
import io
import os
import sys

from dickelattice import cli, sweep

CUT = ["sweep", "--mode", "cut", "--g-steps", "40"]


def _commands():
    """(output name, argv) of every run, in order."""
    runs = []
    for steps in (4, 10):
        for bc in ("pbc", "obc"):
            for workers in (1, 2):
                name = f"phase{steps}_{bc}_w{workers}.csv"
                runs.append((name, ["sweep", "--mode", "phase", "--n", "3",
                                    "--bc", bc, "--xi-steps", str(steps),
                                    "--g-steps", str(steps),
                                    "--workers", str(workers)]))
    runs += [("cut_pbc_0.2.csv", CUT + ["--bc", "pbc", "--xi", "0.2"]),
             ("cut_obc_0.2.csv", CUT + ["--bc", "obc", "--xi", "0.2"]),
             ("cut_pbc_0.48.csv", CUT + ["--bc", "pbc", "--xi", "0.48"])]
    steady = [("obc", 3, "0.8", "0.4"), ("obc", 30, "0.8", "0.4"),
              ("pbc", 6, "0.8", "0.4"), ("pbc", 10, "0.6", "0.4"),
              ("pbc", 10, "0.8", "0.4"), ("pbc", 10, "1.0", "0.4"),
              ("pbc", 30, "0.8", "0.4"), ("pbc", 3, "0.8", "0")]
    for bc, n, g, kappa in steady:
        runs.append((f"steady_{bc}_n{n}_g{g}_kappa{kappa}.json",
                     ["steady", "--bc", bc, "--n", str(n), "--g", g,
                      "--kappa", kappa]))
    runs.append(("profile.csv", ["sweep", "--mode", "profile", "--n", "3"]))
    for bc in ("pbc", "obc"):
        runs.append((f"profile_{bc}_n50.csv",
                     ["sweep", "--mode", "profile", "--n", "50", "--bc", bc,
                      "--xi", "0.2", "--g-cut", "0.6"]))
    runs += [("trajectory.csv", ["trajectory", "--n", "3", "--t-end", "20"]),
             ("critical.csv", ["critical", "--n-list", "3,4,6",
                               "--infinite"])]
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("out_dir", help="directory for the outputs (created)")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    os.chdir(args.out_dir)
    failed = 0
    with open("log.txt", "w") as log:
        for name, argv in _commands():
            if "--workers" not in argv:
                # the pool's sweeps come first: free its idle workers
                sweep.shutdown_pool()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv + ["--out", name])
            log.write(f"$ {' '.join(argv)} --out {name}\n"
                      f"exit {rc}\n{out.getvalue()}{err.getvalue()}")
            print(f"{name}: exit {rc}")
            failed += rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
