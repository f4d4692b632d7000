"""Projected one-core time of the 140 x 140 three-site phase diagram.

Times a 400-cell sample of the full grid (xi 0-0.45, g 0.3-1.1, kappa
0.4): every 7th xi index from 3 and every 7th g index from 5, per
boundary condition.  Each cell runs serially through the sweep's own cell
function with the sweep's own per-cell seed and BLAS on one thread, so
the mean time per cell times 140 x 140 projects the diagram's one-core
wall time.  The median and 90th-percentile cell times and the slowest
cell show the tail of cells whose seeds stall, which the mean hides.

    PYTHONPATH=src python3 scripts/cell_sample.py
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from dickelattice import BoundaryCondition, GridAxis, LatticeParams, SweepSpec
from dickelattice._blas import one_thread
from dickelattice.sweep import DEFAULT_STEPS, _cell_seed, _compute_cell

STRIDE = 7
XI_START, G_START = 3, 5


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    steps = DEFAULT_STEPS
    with one_thread():
        for bc in (BoundaryCondition.Periodic, BoundaryCondition.Open):
            spec = SweepSpec(
                params_base=LatticeParams(n_sites=3, kappa=0.4, g=0.5, xi=0.2,
                                          bc=bc),
                xi_grid=GridAxis(0.0, 0.45, steps),
                g_grid=GridAxis(0.3, 1.1, steps))
            xi, g = spec.xi_grid.values(), spec.g_grid.values()
            jobs = [(replace(spec.params_base, xi=float(xi[i]), g=float(g[j])),
                     _cell_seed(spec.rng_seed, i, j))
                    for i in range(XI_START, steps, STRIDE)
                    for j in range(G_START, steps, STRIDE)]
            times, errors = [], 0
            for job in jobs:
                start = time.perf_counter()
                errors += bool(_compute_cell(job).error)
                times.append(1e3 * (time.perf_counter() - start))
            ms = np.mean(times)
            p50, p90 = np.percentile(times, [50, 90])
            slow = int(np.argmax(times))
            print(f"{bc.value:>8}: {len(jobs)} cells, {errors} errors, "
                  f"{ms:.1f} ms/cell; {steps} x {steps} on one core: "
                  f"{ms * steps * steps / 60e3:.1f} min")
            print(f"{'':>8}  p50 {p50:.1f} ms, p90 {p90:.1f} ms, slowest "
                  f"{times[slow]:.1f} ms at xi = {jobs[slow][0].xi:.6g}, "
                  f"g = {jobs[slow][0].g:.6g}")


if __name__ == "__main__":
    main()
