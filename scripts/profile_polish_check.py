"""Audit of the Newton polish of site profiles against pure relaxation.

`sweep.site_profile` relaxes to the first checkpoint where the flow norm is
below POLISH_TOL and lets Newton land on the root from there.  This script
compares it, point by point, with the pure relaxation it replaced:
`relax_to_steady` from the same initial state to PROFILE_SETTLE_TOL by
T_MAX.  The grid: N in 3, 6, 10, 30, 50, the ring and the open chain, xi
in 0, 0.2, 0.45 and nine g_cut from 0.3 to 1.1 (kappa 0.4), 270 points.

Each point ends settled, NotSettled, or with an exception, on either path.
Where both settle, the script takes the distance of the profiles (sup of
|a_j - a_j'| and of |z_j - z_j'|).  Where only the polished path settles,
it relaxes the initial state until the flow norm is below SETTLE_TOL
(1e-9), by t = 5000, and takes the distance of the polished root to that
endpoint.  The confirming relaxation settles that far because a state at
flow norm r lies about r / |lambda| from its root, lambda the slowest
decay rate: at N = 50, open chain, xi = 0.45, g = 0.5 (lambda = -1.6e-3)
a relaxation settled at 1e-6 is still 1.9e-4 from the root, one settled
at 1e-9 is 1.9e-7 from it.

It prints the counts, the worst distances and the number of polishes
refused, and exits 1 if a gate fails:

- where both paths settle, they agree within 1e-5;
- every flip from NotSettled to settled is confirmed by a long relaxation
  that settles to SETTLE_TOL within 1e-6 of the polished root;
- no point goes from settled to NotSettled, and no point gets an exception
  that the pure path does not raise.

    PYTHONPATH=src python3 scripts/profile_polish_check.py

It takes about six minutes on one core of a 2-CPU x86-64 machine.
"""

import argparse
import itertools
import sys

import numpy as np

from dickelattice import BoundaryCondition, LatticeParams, NotSettled
from dickelattice import sweep
from dickelattice._blas import one_thread
from dickelattice.dynamics import SETTLE_TOL, relax_to_steady
from dickelattice.model import validate
from dickelattice.sweep import PROFILE_SETTLE_TOL, profile_start

N_LIST = (3, 6, 10, 30, 50)
XI_LIST = (0.0, 0.2, 0.45)
G_LIST = np.linspace(0.3, 1.1, 9)
T_LONG = 5000.0         # the confirming relaxation of a flipped point
AGREE_TOL = 1e-5        # both settled: largest distance of the profiles
CONFIRM_TOL = 1e-6      # flipped: largest distance to the long relaxation


def _pure(base):
    """The pure relaxation that site_profile replaced, as (a, z)."""
    validate(base)
    res = relax_to_steady(profile_start(base), base,
                          settle_tol=PROFILE_SETTLE_TOL)
    if not res.settled:
        raise NotSettled("pure relaxation")
    return res.state.a, res.state.z


def _polished(base):
    prof = sweep.site_profile(base)
    return prof.a, prof.z


def _outcome(run, base):
    """("settled", (a, z)), ("NotSettled", None) or (exception name, None)."""
    try:
        return "settled", run(base)
    except NotSettled:
        return "NotSettled", None
    except Exception as exc:        # recorded, compared between the paths
        return type(exc).__name__, None


def _distance(x, y):
    return max(float(np.max(np.abs(x[0] - y[0]))),
               float(np.max(np.abs(x[1] - y[1]))))


def main():
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()

    refused = []
    polish = sweep._polish

    def watched(res, params, settle_tol):
        root = polish(res, params, settle_tol)
        if root is None:
            refused.append(params)
        return root

    counts = {}
    both, flips, failed = [], [], []
    grid = itertools.product(N_LIST, (BoundaryCondition.Periodic,
                                      BoundaryCondition.Open), XI_LIST, G_LIST)
    sweep._polish = watched     # counts refusals; the result is polish's
    try:
        with one_thread():
            for n, bc, xi, g in grid:
                base = LatticeParams(n_sites=n, kappa=0.4, xi=xi, g=float(g),
                                     bc=bc)
                where = f"N={n} {bc.value} xi={xi:g} g={g:.2f}"
                new, got = _outcome(_polished, base)
                old, want = _outcome(_pure, base)
                counts[old, new] = counts.get((old, new), 0) + 1
                if old == new == "settled":
                    both.append((_distance(got, want), where))
                elif (old, new) == ("NotSettled", "settled"):
                    far = relax_to_steady(profile_start(base), base,
                                          t_max=T_LONG, settle_tol=SETTLE_TOL)
                    d = _distance(got, (far.state.a, far.state.z))
                    flips.append((d, far.settled, far.t_final, where))
                    if not (far.settled and d < CONFIRM_TOL):
                        failed.append(f"flip not confirmed: {where}")
                elif old != new:
                    failed.append(f"{old} -> {new}: {where}")
    finally:
        sweep._polish = polish

    print(f"{sum(counts.values())} points; pure -> polished:")
    for (old, new), k in sorted(counts.items()):
        print(f"  {old:>12} -> {new:<12} {k}")
    print(f"{len(refused)} polishes refused")
    if both:
        d, where = max(both)
        print(f"both settled: worst distance {d:.3g} at {where}")
        if d > AGREE_TOL:
            failed.append(f"both settled, {d:.3g} apart: {where}")
    for d, settled, t, where in sorted(flips, reverse=True):
        print(f"flip {where}: long relaxation "
              f"{'settled' if settled else 'NOT settled'} at t={t:g}, "
              f"{d:.3g} from the polished root")
    for line in failed:
        print(f"FAIL {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
