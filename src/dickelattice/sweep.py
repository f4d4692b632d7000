"""Grid sweeps over (xi, g): phase diagrams, order-parameter cuts,
critical lines, and site profiles.

Cells are independent tasks; each derives its own random stream from
(rng_seed, i, j), so output is bit-identical for any worker count.  All
CSV files start with a '#' comment carrying the parameter set and the
package version.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from multiprocessing.util import Finalize

import numpy as np
# numpy 2 loads it lazily; imported here, no forked pool worker imports it
import numpy.random

from ._blas import _openblas, pin_one_thread
from ._version import __version__
from .errors import DomainError, NotSettled
# pattern_label and stability_classify are not called here; the tracer
# self-test in benchmarks/test_benchmark.py expects both aliases in this
# namespace, so they stay until that test drops them
from .classify import label as pattern_label, stable_class_set  # noqa: F401
from .dynamics import T_MAX, relax_to_steady
from .model import (LatticeParams, MeanFieldState, params_to_jsonable,
                    validate, validate_rng_seed)
from .spectrum import critical_coupling_np, xi_stability_window
from .stability import BISECT_BRACKET, BISECT_TOL, bisect_np_threshold, \
    classify as stability_classify  # noqa: F401
from .steady_state import N_RANDOM_SEEDS, _dressed_seeds, find_all

DEFAULT_STEPS = 140     # per axis, matching the phase-diagram resolution
PROFILE_SETTLE_TOL = 1e-6   # flow sup norm at which a site profile has settled


@dataclass(frozen=True)
class GridAxis:
    min: float
    max: float
    steps: int

    def values(self) -> np.ndarray:
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if not np.isfinite([self.min, self.max]).all():
            raise DomainError(f"grid bounds must be finite, got "
                              f"min={self.min}, max={self.max}")
        if self.steps == 1:
            return np.array([self.min], float)
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters (xi and g ignored) plus the two grid axes."""

    params_base: LatticeParams
    xi_grid: GridAxis
    g_grid: GridAxis
    rng_seed: int = 0
    n_random_seeds: int = N_RANDOM_SEEDS


@dataclass
class PhaseCell:
    xi: float
    g: float
    stable_classes: dict          # label kind -> multiplicity
    n_roots_total: int
    marginal_flag: bool
    no_stable_state: bool
    seed_metadata: dict
    error: str = ""

    @property
    def n_stable(self) -> int:
        return sum(self.stable_classes.values())


def _cell_seed(rng_seed, i, j) -> int:
    ss = np.random.SeedSequence([int(rng_seed), int(i), int(j)])
    return int(ss.generate_state(1)[0])


def _compute_cell(job):
    spec, i, j, xi, g = job
    params = replace(spec.params_base, xi=float(xi), g=float(g))
    try:
        result = find_all(params, n_random_seeds=spec.n_random_seeds,
                          rng_seed=_cell_seed(spec.rng_seed, i, j))
        found = stable_class_set(result, params)
        return PhaseCell(xi=float(xi), g=float(g),
                         stable_classes=dict(found.counts),
                         n_roots_total=len(result.roots),
                         marginal_flag=found.marginal,
                         no_stable_state=not found.classes,
                         seed_metadata=result.seed_metadata)
    except Exception as exc:    # record and keep sweeping
        return PhaseCell(xi=float(xi), g=float(g), stable_classes={},
                         n_roots_total=0, marginal_flag=False,
                         no_stable_state=True, seed_metadata={},
                         error=f"{type(exc).__name__}: {exc}")


# os.getpid() -> the worker pool that the sweeps of that process share; a
# forked child inherits its parent's entry and never touches it
_pools = {}


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes, built on first use.

    A forked worker runs its first cells several times slower than a warm
    one, so the pool is kept: it is replaced only when the count changes
    or a worker has died, and concurrent.futures joins it at exit.
    """
    pool = _pools.get(os.getpid())
    if pool is not None:
        sentinels = [p.sentinel for p in pool._processes.values()]
        if pool._broken or wait(sentinels, 0):
            # a dead worker may hold the call queue's lock, so a shutdown
            # could wait forever: the pool's thread kills the others
            pool._executor_manager_thread.join()
        elif pool._max_workers == workers:
            return pool
        pool.shutdown()
    _openblas()     # looked up here once, not in every forked worker
    # each worker runs BLAS on one thread; the pool is the parallelism
    pool = _pools[os.getpid()] = ProcessPoolExecutor(
        max_workers=workers, initializer=pin_one_thread)
    # a multiprocessing child joins its children before that exit hook
    # runs: there the pool shuts down first, ahead of the finalizers that
    # close its queues (priority 10)
    Finalize(pool, pool.shutdown, exitpriority=20)
    return pool


def phase_diagram(spec: SweepSpec, workers: int = 1):
    """One PhaseCell per grid point, in grid order (xi outer, g inner).

    With workers > 1 the cells run on the process's shared worker pool,
    which lives until the process exits.
    """
    validate(spec.params_base)
    validate_rng_seed(spec.rng_seed)
    jobs = [(spec, i, j, xi, g)
            for i, xi in enumerate(spec.xi_grid.values())
            for j, g in enumerate(spec.g_grid.values())]
    if workers and workers > 1:
        cells = list(_worker_pool(workers).map(_compute_cell, jobs))
    else:
        cells = [_compute_cell(job) for job in jobs]
    return cells


# ---------------------------------------------------------------------------
# order-parameter cut

@dataclass
class CutRow:
    g: float
    branches: dict      # label kind -> per-site |a_j| of the class representative
    error: str = ""


def order_parameter_cut(params_base: LatticeParams, xi: float, g_values, *,
                        rng_seed: int = 0,
                        n_random_seeds: int = N_RANDOM_SEEDS):
    """Stable-branch amplitudes |a_j| along a fixed-xi cut.

    xi must sit inside the normal-state stability window.  Each row maps
    every stable class to the site amplitudes of its canonical
    representative, so multivalued (multistable) ranges stay visible.
    """
    validate(params_base)
    validate_rng_seed(rng_seed)
    lo, hi = xi_stability_window(params_base.n_sites, params_base.omega_c,
                                 params_base.bc)
    if not lo < xi < hi:
        raise DomainError(
            f"xi={xi} outside the stability window ({lo:.6g}, {hi:.6g})")
    rows = []
    for j, g in enumerate(np.asarray(g_values, float)):
        params = replace(params_base, xi=float(xi), g=float(g))
        try:
            result = find_all(params, n_random_seeds=n_random_seeds,
                              rng_seed=_cell_seed(rng_seed, 0, j))
            found = stable_class_set(result, params)
            branches = {}
            for kind, canon in found.classes:
                key = kind
                k = 2
                while key in branches:     # two distinct classes, same kind
                    key = f"{kind}#{k}"
                    k += 1
                branches[key] = np.abs(MeanFieldState.from_packed(canon).a)
            rows.append(CutRow(g=float(g), branches=branches))
        except Exception as exc:
            rows.append(CutRow(g=float(g), branches={},
                               error=f"{type(exc).__name__}: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# critical lines

@dataclass
class CriticalPoint:
    n_sites: int
    xi: float
    g_c_numeric: float
    g_c_analytic: float
    error: str = ""

    @property
    def abs_error(self) -> float:
        return abs(self.g_c_numeric - self.g_c_analytic)


def critical_line_scan(params_base: LatticeParams, n_list, xi_values):
    """Numeric (bisection) vs closed-form thresholds over N and xi.

    The shared fixed bracket keeps the bisection decision sequence, and
    hence the numeric value, identical across any N with the same
    threshold.  Failures are recorded per point, not raised.
    """
    out = []
    for n in n_list:
        for xi in np.asarray(xi_values, float):
            params = replace(params_base, n_sites=int(n), xi=float(xi))
            try:
                analytic = critical_coupling_np(params).g_c
                numeric = bisect_np_threshold(params)
                out.append(CriticalPoint(n_sites=int(n), xi=float(xi),
                                         g_c_numeric=numeric,
                                         g_c_analytic=analytic))
            except Exception as exc:
                out.append(CriticalPoint(n_sites=int(n), xi=float(xi),
                                         g_c_numeric=float("nan"),
                                         g_c_analytic=float("nan"),
                                         error=f"{type(exc).__name__}: {exc}"))
    return out


# ---------------------------------------------------------------------------
# site profiles

@dataclass
class SiteProfile:
    a: np.ndarray
    z: np.ndarray
    homogeneity: float      # max_{j,k} |a_j - a_k|
    settled: bool
    t_final: float


def site_profile(params_base: LatticeParams, g: float,
                 init_amplitude: float = 0.1, t_end: float = T_MAX, *,
                 settle_tol: float = PROFILE_SETTLE_TOL) -> SiteProfile:
    """Relax a spatially homogeneous initial amplitude and read the profile.

    The initial spins sit exactly on the sphere at the inversion the
    coherence equation prefers for that amplitude.  Raises NotSettled
    (with the partial profile attached) when t_end is not enough, and
    DomainError for an init_amplitude that is not finite or a t_end that
    is not finite and positive.
    """
    params = replace(params_base, g=float(g))
    validate(params)
    if not np.isfinite(init_amplitude):
        raise DomainError(
            f"init_amplitude must be finite, got {init_amplitude}")
    if not 0 < t_end < np.inf:
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    state0 = MeanFieldState.from_packed(
        _dressed_seeds([np.ones(params.n_sites)], [init_amplitude], params)[0])
    res = relax_to_steady(state0, params, t_max=t_end, settle_tol=settle_tol)
    a = res.state.a
    homog = float(np.max(np.abs(a[:, None] - a[None, :])))
    profile = SiteProfile(a=a, z=res.state.z.copy(), homogeneity=homog,
                          settled=res.settled, t_final=res.t_final)
    if not res.settled:
        raise NotSettled(
            f"flow norm {res.rhs_norm:.3g} > {settle_tol:g} at t={res.t_final:g}",
            state=res.state, profile=profile)
    return profile


# ---------------------------------------------------------------------------
# CSV output

def _comment(params: LatticeParams, extra: dict) -> str:
    fields = [f"dickelattice {__version__}"]
    fields += [f"{k}={v}" for k, v in params_to_jsonable(params).items()]
    fields += [f"{k}={v}" for k, v in extra.items()]
    return "# " + " ".join(fields)


def phase_diagram_csv(cells, spec: SweepSpec, path) -> None:
    """Columns: xi, g, n_stable, labels, marginal_flag, no_stable_state,
    n_roots_total."""
    extra = {"rng_seed": spec.rng_seed,
             "xi_grid": f"{spec.xi_grid.min}:{spec.xi_grid.max}:{spec.xi_grid.steps}",
             "g_grid": f"{spec.g_grid.min}:{spec.g_grid.max}:{spec.g_grid.steps}"}
    with open(path, "w", newline="") as fh:
        fh.write(_comment(spec.params_base, extra) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["xi", "g", "n_stable", "labels", "marginal_flag",
                         "no_stable_state", "n_roots_total"])
        for c in cells:
            labels = ";".join(sorted(
                k for k, m in c.stable_classes.items() for _ in range(m)))
            writer.writerow([repr(c.xi), repr(c.g), c.n_stable, labels,
                             int(c.marginal_flag), int(c.no_stable_state),
                             c.n_roots_total])


def cut_csv(rows, params_base: LatticeParams, xi: float, path) -> None:
    """Columns: g, then |a_1|..|a_N| per stable class label."""
    n = params_base.n_sites
    labels = []
    for row in rows:
        for key in row.branches:
            if key not in labels:
                labels.append(key)
    labels.sort()
    with open(path, "w", newline="") as fh:
        fh.write(_comment(replace(params_base, xi=xi), {"cut": "fixed xi"}) + "\n")
        writer = csv.writer(fh)
        header = ["g"]
        for lab in labels:
            header += [f"{lab}_abs_a_{j}" for j in range(1, n + 1)]
        writer.writerow(header)
        for row in rows:
            line = [repr(row.g)]
            for lab in labels:
                if lab in row.branches:
                    line += [repr(float(x)) for x in row.branches[lab]]
                else:
                    line += [""] * n
            writer.writerow(line)


def critical_csv(points, params_base: LatticeParams, path) -> None:
    """Columns: N, xi, g_c_numeric, g_c_analytic, abs_error."""
    with open(path, "w", newline="") as fh:
        fh.write(_comment(params_base, {"bracket": BISECT_BRACKET,
                                        "bisect_tol": BISECT_TOL}) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["N", "xi", "g_c_numeric", "g_c_analytic", "abs_error"])
        for pt in points:
            writer.writerow([pt.n_sites, repr(pt.xi), repr(pt.g_c_numeric),
                             repr(pt.g_c_analytic), repr(pt.abs_error)])


def profile_csv(profile: SiteProfile, params: LatticeParams, path) -> None:
    """Columns: j, Re a_j, Im a_j, z_j."""
    with open(path, "w", newline="") as fh:
        fh.write(_comment(params, {"homogeneity": profile.homogeneity,
                                   "settled": profile.settled}) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["j", "re_a", "im_a", "z"])
        for j in range(profile.a.size):
            writer.writerow([j + 1, repr(float(profile.a[j].real)),
                             repr(float(profile.a[j].imag)),
                             repr(float(profile.z[j]))])
