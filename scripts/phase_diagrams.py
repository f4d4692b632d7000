"""Phase diagrams of the three-site lattice, ring and open chain.

Writes phase_pbc.csv and phase_obc.csv (stable-class sets per (xi, g)
cell), each with its .config.json, through `dickelattice sweep --mode
phase` on the command line's default window and model.  Full resolution
is 140x140 and takes minutes; use --steps for a coarse pass and
--workers (0: DLP_WORKERS, then the CPUs available) for the pool size.
"""

import argparse
import os
import sys

from dickelattice import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=140)
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    for bc in ("pbc", "obc"):
        rc = cli.main(["sweep", "--mode", "phase", "--n", "3", "--bc", bc,
                       "--xi-steps", str(args.steps),
                       "--g-steps", str(args.steps),
                       "--workers", str(args.workers),
                       "--out", os.path.join(args.out_dir, f"phase_{bc}.csv")])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
