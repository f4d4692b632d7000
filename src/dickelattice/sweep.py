"""Grid sweeps over (xi, g): phase diagrams, order-parameter cuts,
critical lines, and site profiles.

A phase-grid cell and a cut row are one record, PhaseCell, computed by
one task; each derives its own random stream from (rng_seed, i, j), so
output is bit-identical for any worker count.  All CSV files start with
a '#' comment carrying the parameter set and the package version.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
# numpy 2 loads it lazily; imported here, no forked pool worker imports it
import numpy.random

# shutdown_pool is not called here; sweep.shutdown_pool is where scripts
# and callers have found it
from ._pool import shutdown_pool, worker_pool  # noqa: F401
from ._version import __version__
from .errors import DomainError, NotSettled
# pattern_label is not called here; the tracer self-test in
# benchmarks/test_benchmark.py expects the alias in this namespace, so it
# stays until that test drops it
from .classify import label as pattern_label, stable_class_set  # noqa: F401
from .dynamics import T_MAX, RelaxResult, relax_to_steady
from .model import (LatticeParams, MeanFieldState, _check_integer,
                    params_to_jsonable, validate, validate_rng_seed)
from .spectrum import critical_coupling_np, xi_stability_window
from .stability import BISECT_BRACKET, BISECT_TOL, Verdict, \
    bisect_np_threshold, classify as stability_classify
from .steady_state import SeedOutcome, _dressed_seeds, find_all, newton_solve

DEFAULT_STEPS = 140     # per axis, matching the phase-diagram resolution
PROFILE_SETTLE_TOL = 1e-6   # flow sup norm at which a site profile has settled
# flow sup norm at which a relaxing site profile is handed to Newton: the
# N = 50 profiles of xi = 0.2, g = 0.6 read 5.9e-3 and 6.1e-3 at the first
# checkpoint, t = dynamics.RELAX_CHECKPOINT = 25
POLISH_TOL = 1e-2
INIT_AMPLITUDE = 0.1        # a site profile's start amplitude, by default


@dataclass(frozen=True)
class GridAxis:
    min: float
    max: float
    steps: int

    def values(self) -> np.ndarray:
        _check_integer("steps", self.steps)
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


@dataclass
class PhaseCell:
    """The stable classes at one (xi, g) point of a phase grid or a cut."""

    xi: float
    g: float
    # (label kind, |a_j| of the canonical row) per distinct stable class,
    # first seen first; the |a_j| are a tuple, so cells compare with ==
    classes: tuple
    n_roots_total: int
    marginal_flag: bool
    seed_metadata: dict
    error: str = ""


def _cell_seed(rng_seed, i, j) -> int:
    ss = np.random.SeedSequence([int(rng_seed), int(i), int(j)])
    return int(ss.generate_state(1)[0])


def _compute_cell(job):
    # a pool task: its root search keeps the serial default (workers=1),
    # so that a worker never opens a pool of its own
    params, seed = job
    try:
        result = find_all(params, rng_seed=seed)
        found = stable_class_set(result, params)
        classes = tuple(
            (kind, tuple(np.abs(MeanFieldState.from_packed(y).a).tolist()))
            for kind, y in found.classes)
        return PhaseCell(xi=params.xi, g=params.g, classes=classes,
                         n_roots_total=len(result.roots),
                         marginal_flag=found.marginal,
                         seed_metadata=result.seed_metadata)
    except Exception as exc:    # record and keep sweeping
        return PhaseCell(xi=params.xi, g=params.g, classes=(), n_roots_total=0,
                         marginal_flag=False, seed_metadata={},
                         error=f"{type(exc).__name__}: {exc}")


def _cells(points, params_base: LatticeParams, rng_seed: int, workers: int):
    """One PhaseCell per point (i, j, xi, g), in order, seeded from
    (rng_seed, i, j)."""
    jobs = [(replace(params_base, xi=float(xi), g=float(g)),
             _cell_seed(rng_seed, i, j)) for i, j, xi, g in points]
    if workers and workers > 1:
        return list(worker_pool(workers).map(_compute_cell, jobs))
    return [_compute_cell(job) for job in jobs]


def phase_diagram(spec: SweepSpec, workers: int = 1):
    """One PhaseCell per grid point, in grid order (xi outer, g inner).
    With workers > 1 the cells run on the process's shared worker pool,
    which lives until the process exits or calls shutdown_pool."""
    validate(spec.params_base)
    validate_rng_seed(spec.rng_seed)
    points = [(i, j, xi, g)
              for i, xi in enumerate(spec.xi_grid.values())
              for j, g in enumerate(spec.g_grid.values())]
    return _cells(points, spec.params_base, spec.rng_seed, workers)


def order_parameter_cut(params: LatticeParams, g_values, *,
                        rng_seed: int = 0, workers: int = 1):
    """One PhaseCell per g along the cut at params.xi, which must lie
    inside the normal-state stability window (params.g is ignored); row j
    is seeded as the cell (0, j) of a phase grid and run as phase_diagram
    runs its cells.  Each row keeps the site amplitudes of every stable
    class, so multistable ranges stay visible."""
    validate(params)
    validate_rng_seed(rng_seed)
    lo, hi = xi_stability_window(params.n_sites, params.omega_c, params.bc)
    if not lo < params.xi < hi:
        raise DomainError(f"xi={params.xi} outside the stability window "
                          f"({lo:.6g}, {hi:.6g})")
    points = [(0, j, params.xi, g)
              for j, g in enumerate(np.asarray(g_values, float))]
    return _cells(points, params, rng_seed, workers)


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
    threshold.  Failures are recorded per point, not raised; a site count
    that fails validate raises DomainError before any point runs.
    """
    for n in n_list:
        validate(replace(params_base, n_sites=n))
    out = []
    for n in n_list:
        for xi in np.asarray(xi_values, float):
            params = replace(params_base, n_sites=n, xi=float(xi))
            try:
                analytic = critical_coupling_np(params).g_c
                numeric = bisect_np_threshold(params)
                out.append(CriticalPoint(n_sites=n, xi=float(xi),
                                         g_c_numeric=numeric,
                                         g_c_analytic=analytic))
            except Exception as exc:
                out.append(CriticalPoint(n_sites=n, xi=float(xi),
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


def profile_start(params: LatticeParams,
                  init_amplitude: float = INIT_AMPLITUDE) -> MeanFieldState:
    """The initial state of a site profile: init_amplitude on every site,
    the spins exactly on the sphere at the inversion the coherence
    equation prefers for that amplitude."""
    return MeanFieldState.from_packed(
        _dressed_seeds([np.ones(params.n_sites)], [init_amplitude], params)[0])


def site_profile(params: LatticeParams, *,
                 init_amplitude: float = INIT_AMPLITUDE, t_end: float = T_MAX,
                 settle_tol: float = PROFILE_SETTLE_TOL) -> SiteProfile:
    """Relax a spatially homogeneous initial amplitude (profile_start) at
    params and read the profile.

    The flow relaxes to the first checkpoint where its sup norm is below
    POLISH_TOL, and Newton polishes that state.  The root is kept if
    Newton converged, its verdict is Stable and its flow norm is below
    settle_tol; otherwise the flow relaxes again from the start until its
    norm is below settle_tol, exactly as relax_to_steady alone, and then
    settle_tol bounds the flow, not the profile's distance to its root
    (see relax_to_steady).  Raises NotSettled (with the partial profile
    attached) when t_end is not enough, and DomainError for an
    init_amplitude that is not finite or a t_end that is not finite and
    positive.
    """
    validate(params)
    if not np.isfinite(init_amplitude):
        raise DomainError(
            f"init_amplitude must be finite, got {init_amplitude}")
    if not 0 < t_end < np.inf:
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    state0 = profile_start(params, init_amplitude)
    res = relax_to_steady(state0, params, t_max=t_end,
                          settle_tol=max(settle_tol, POLISH_TOL))
    if res.settled and res.rhs_norm >= settle_tol:
        res = (_polish(res, params, settle_tol)
               or relax_to_steady(state0, params, t_max=t_end,
                                  settle_tol=settle_tol))
    a = res.state.a
    homog = float(np.max(np.abs(a[:, None] - a[None, :])))
    profile = SiteProfile(a=a, z=res.state.z.copy(), homogeneity=homog,
                          settled=res.settled, t_final=res.t_final)
    if not res.settled:
        raise NotSettled(
            f"flow norm {res.rhs_norm:.3g} > {settle_tol:g} at t={res.t_final:g}",
            state=res.state, profile=profile)
    return profile


def _polish(res: RelaxResult, params: LatticeParams, settle_tol: float):
    """The Newton root reached from the relaxed state res, as a settled
    RelaxResult at res's time, or None unless Newton converged to a Stable
    root whose flow norm is below settle_tol."""
    y, residual, outcome = newton_solve(res.state.pack()[None], params)
    [report] = stability_classify(y, params)
    if (outcome[0] != SeedOutcome.ROOT or report.verdict is not Verdict.Stable
            or not residual[0] < settle_tol):
        return None
    return RelaxResult(state=MeanFieldState.from_packed(y[0]), settled=True,
                       t_final=res.t_final, rhs_norm=float(residual[0]))


# ---------------------------------------------------------------------------
# CSV output

def _write_csv(path, params: LatticeParams, extra: dict, header,
               rows) -> None:
    """A '#' comment with the package version, params and extra, then the
    header and the rows."""
    fields = [f"dickelattice {__version__}"]
    fields += [f"{k}={v}" for k, v in params_to_jsonable(params).items()]
    fields += [f"{k}={v}" for k, v in extra.items()]
    with open(path, "w", newline="") as fh:
        fh.write("# " + " ".join(fields) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def phase_diagram_csv(cells, spec: SweepSpec, path) -> None:
    """Columns: xi, g, n_stable, labels, marginal_flag, no_stable_state,
    n_roots_total; a failed cell's row is xi and g with the rest blank."""
    extra = {"rng_seed": spec.rng_seed,
             "xi_grid": f"{spec.xi_grid.min}:{spec.xi_grid.max}:{spec.xi_grid.steps}",
             "g_grid": f"{spec.g_grid.min}:{spec.g_grid.max}:{spec.g_grid.steps}"}
    _write_csv(path, spec.params_base, extra,
               ["xi", "g", "n_stable", "labels", "marginal_flag",
                "no_stable_state", "n_roots_total"],
               ([repr(c.xi), repr(c.g)] + ([""] * 5 if c.error else
                [len(c.classes), ";".join(sorted(kind for kind, _ in c.classes)),
                 int(c.marginal_flag), int(not c.classes), c.n_roots_total])
                for c in cells))


def cut_csv(rows, params: LatticeParams, path) -> None:
    """Columns: g, then |a_1|..|a_N| per branch, blank in a row without
    it.  A branch is a class kind; a row's second class of one kind is
    the branch kind#2, its third kind#3."""
    n = params.n_sites
    branches = []       # per row: branch -> |a_j|
    for row in rows:
        seen, amps = Counter(), {}
        for kind, abs_a in row.classes:
            seen[kind] += 1
            amps[kind if seen[kind] == 1 else f"{kind}#{seen[kind]}"] = abs_a
        branches.append(amps)
    keys = sorted({key for amps in branches for key in amps})
    lines = []
    for row, amps in zip(rows, branches):
        line = [repr(row.g)]
        for key in keys:
            line += [repr(x) for x in amps[key]] if key in amps else [""] * n
        lines.append(line)
    _write_csv(path, params, {"cut": "fixed xi"},
               ["g"] + [f"{key}_abs_a_{j}" for key in keys
                        for j in range(1, n + 1)], lines)


def critical_csv(points, params_base: LatticeParams, path) -> None:
    """Columns: N, xi, g_c_numeric, g_c_analytic, abs_error."""
    _write_csv(path, params_base, {"bracket": BISECT_BRACKET,
                                   "bisect_tol": BISECT_TOL},
               ["N", "xi", "g_c_numeric", "g_c_analytic", "abs_error"],
               ([pt.n_sites, repr(pt.xi), repr(pt.g_c_numeric),
                 repr(pt.g_c_analytic), repr(pt.abs_error)] for pt in points))


def profile_csv(profile: SiteProfile, params: LatticeParams, path) -> None:
    """Columns: j, Re a_j, Im a_j, z_j."""
    _write_csv(path, params, {"homogeneity": profile.homogeneity,
                              "settled": profile.settled},
               ["j", "re_a", "im_a", "z"],
               ([j + 1, repr(float(a.real)), repr(float(a.imag)),
                 repr(float(z))] for j, (a, z) in
                enumerate(zip(profile.a, profile.z))))
