"""Phase diagrams of the three-site lattice, ring and open chain.

Writes phase_pbc.csv and phase_obc.csv (stable-class sets per (xi, g)
cell).  Full resolution is 140x140 and takes minutes; use --steps for a
coarse pass and --workers (or DLP_WORKERS) for the pool size.
"""

import argparse
import os

from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          SweepSpec, phase_diagram, phase_diagram_csv)
from dickelattice._blas import one_thread


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=140)
    ap.add_argument("--workers", type=int,
                    default=int(os.environ.get("DLP_WORKERS", "1")))
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    with one_thread():       # the library's calls run on one BLAS thread
        for bc, name in [(BoundaryCondition.Periodic, "phase_pbc.csv"),
                         (BoundaryCondition.Open, "phase_obc.csv")]:
            spec = SweepSpec(
                params_base=LatticeParams(n_sites=3, kappa=0.4, g=0.5, xi=0.2,
                                          bc=bc),
                xi_grid=GridAxis(0.0, 0.45, args.steps),
                g_grid=GridAxis(0.3, 1.1, args.steps))
            cells = phase_diagram(spec, workers=args.workers)
            path = os.path.join(args.out_dir, name)
            phase_diagram_csv(cells, spec, path)
            n_err = sum(1 for c in cells if c.error)
            print(f"{path}: {len(cells)} cells, {n_err} errors")


if __name__ == "__main__":
    main()
