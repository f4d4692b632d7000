"""Normal-state threshold vs lattice size at xi = 0.2.

Open-chain thresholds drop monotonically toward the ring value as N
grows; ring thresholds do not move at all (the k = 1 mode is present at
every N).  Prints a table and writes threshold_vs_size.csv.
"""

import argparse

from dickelattice import (BoundaryCondition, LatticeParams,
                          critical_csv, critical_line_scan,
                          critical_coupling_np_infinite)
from dickelattice._blas import one_thread

SIZES = (3, 6, 10, 25, 50)
XI = 0.2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="threshold_vs_size.csv")
    args = ap.parse_args()

    with one_thread():       # the library's calls run on one BLAS thread
        limit = critical_coupling_np_infinite(1.0, 1.0, 0.4, XI)
        print(f"xi = {XI}, infinite-lattice limit g_c = {limit:.8f}")
        print(f"{'N':>4} {'open':>12} {'ring':>12}")
        points = []
        for n in SIZES:
            row = {}
            for bc in (BoundaryCondition.Open, BoundaryCondition.Periodic):
                params = LatticeParams(n_sites=n, kappa=0.4, g=0.5, xi=XI, bc=bc)
                pts = critical_line_scan(params, [n], [XI])
                row[bc] = pts[0].g_c_numeric
                if bc is BoundaryCondition.Open:
                    points.extend(pts)
            print(f"{n:>4} {row[BoundaryCondition.Open]:>12.8f} "
                  f"{row[BoundaryCondition.Periodic]:>12.8f}")

        base = LatticeParams(n_sites=3, kappa=0.4, g=0.5, xi=XI,
                             bc=BoundaryCondition.Open)
        critical_csv(points, base, args.out)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
