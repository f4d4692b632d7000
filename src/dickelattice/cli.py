"""Command-line front end.

Every option is one row of _OPTIONS: its flag, default, help and config
type.  Every command resolves its settings in three layers: the
defaults, then a flat JSON config file (--config, each value checked
against its option's type), then explicit flags.  The resolved config is
written next to any output files, so a run can be reproduced byte for
byte from that file alone.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from ._blas import one_thread
from ._version import __version__
from .errors import (BisectionFailure, BoundaryError, DomainError, NotSettled,
                     ShapeError, StepFailure, UnstableWindowError,
                     ZeroModeMismatch)
from .classify import root_dossier
from .dynamics import (ATOL, PERTURB_SCALE, RTOL, T_MAX, integrate,
                       perturbed_normal_state)
from .model import (BoundaryCondition, LatticeParams, normal_state,
                    state_from_jsonable, validate, validate_rng_seed)
from .spectrum import (critical_coupling_np_infinite, mode_frequencies,
                       xi_stability_window)
from .steady_state import DEDUP_TOL, N_RANDOM_SEEDS, find_all
from .sweep import (DEFAULT_STEPS, INIT_AMPLITUDE, PROFILE_SETTLE_TOL,
                    GridAxis, SweepSpec, critical_csv, critical_line_scan,
                    cut_csv, order_parameter_cut, phase_diagram,
                    phase_diagram_csv, profile_csv, site_profile)

UNITS_NOTE = ("Units: frequencies (omega_a, kappa, xi, g) in units of the "
              "cavity frequency omega_c = 1; times in 1/omega_c.")

_BC = {"pbc": "periodic", "periodic": "periodic",
       "obc": "open", "open": "open"}
_ALL = ("dispersion", "critical", "trajectory", "steady", "sweep")

# Every option, in --help order: (config key, type, default, help,
# commands).  A type is int, float, str, bool (an on-switch) or a list of
# allowed strings.  The flag is --<key with dashes>.  A key takes one row
# per command where its default or help differs.
_OPTIONS = [
    ("n", int, 3, "number of lattice sites", _ALL),
    ("bc", sorted(_BC), "periodic",
     "boundary condition (pbc/periodic or obc/open)", _ALL),
    ("omega_c", float, 1.0, "cavity frequency", _ALL),
    ("omega_a", float, 1.0, "atomic splitting", _ALL),
    # kappa defaults to the damped operating point rather than the
    # LatticeParams value of 0, so dynamics commands relax out of the box
    ("kappa", float, 0.4, "photon decay rate", _ALL),
    ("xi", float, 0.2, "photon hopping strength", _ALL),
    ("g", float, 0.5, "light-matter coupling", _ALL),
    ("mode", ["phase", "cut", "profile"], "phase", None, ("sweep",)),
    ("n_list", str, "3", "comma-separated site counts (default 3)",
     ("critical",)),
    ("xi_min", float, 0.05, None, ("critical",)),
    ("xi_min", float, 0.0, None, ("sweep",)),
    ("xi_max", float, 0.45, None, ("critical", "sweep")),
    ("xi_steps", int, 9, None, ("critical",)),
    ("xi_steps", int, DEFAULT_STEPS, None, ("sweep",)),
    ("g_min", float, 0.3, None, ("sweep",)),
    ("g_max", float, 1.1, None, ("sweep",)),
    ("g_steps", int, DEFAULT_STEPS, None, ("sweep",)),
    ("n_random_seeds", int, N_RANDOM_SEEDS, None, ("steady",)),
    ("rng_seed", int, 0, None, ("steady", "sweep")),
    ("workers", int, 0,
     "worker processes (fallback: DLP_WORKERS, then the CPUs available)",
     ("sweep",)),
    ("g_cut", float, 0.6, "coupling for --mode profile", ("sweep",)),
    ("init_amplitude", float, INIT_AMPLITUDE, None, ("sweep",)),
    ("init", str, "perturbed-np", "np, perturbed-np, or a JSON state file",
     ("trajectory",)),
    ("t_end", float, T_MAX, None, ("trajectory", "sweep")),
    ("rng_seed", int, 0, "perturbation seed", ("trajectory",)),
    ("scale", float, PERTURB_SCALE, "perturbation amplitude", ("trajectory",)),
    ("record_every", float, 1.0, None, ("trajectory",)),
    ("rtol", float, RTOL, None, ("trajectory",)),
    ("atol", float, ATOL, None, ("trajectory",)),
    ("settle_tol", float, PROFILE_SETTLE_TOL,
     "flow norm below which the profile counts as settled", ("sweep",)),
    ("dedup_tol", float, DEDUP_TOL, None, ("steady",)),
    ("infinite", bool, False, "also write the infinite-chain curve",
     ("critical",)),
    ("out", str, "critical.csv", "output CSV path", ("critical",)),
    ("out", str, "trajectory.csv", "output CSV path", ("trajectory",)),
    ("out", str, "", "output JSON path (default: stdout)", ("steady",)),
    ("out", str, "sweep.csv", "output CSV path", ("sweep",)),
]


def _check(key: str, kind, value) -> None:
    """Raise DomainError unless a config value fits its option's type; an
    int is a float, a bool is not a number."""
    if isinstance(kind, list):
        fits, want = value in kind, f"one of {kind}"
    elif kind is float:
        fits, want = type(value) in (int, float), "float"
    else:
        fits, want = type(value) is kind, kind.__name__
    if not fits:
        raise DomainError(f"config {key} must be {want}, got {value!r}")


def _resolve(args: argparse.Namespace) -> dict:
    kinds, cfg = {}, {}
    for key, kind, default, _, commands in _OPTIONS:
        if args.command in commands:
            kinds[key], cfg[key] = kind, default
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object, got "
                              f"{type(loaded).__name__}")
        loaded.pop("command", None)
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check(key, kinds[key], value)
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["bc"] = _BC[cfg["bc"]]
    cfg["command"] = args.command
    return cfg


def _params(cfg: dict) -> LatticeParams:
    params = LatticeParams(n_sites=cfg["n"], omega_c=cfg["omega_c"],
                           omega_a=cfg["omega_a"], g=cfg["g"], xi=cfg["xi"],
                           kappa=cfg["kappa"],
                           bc=BoundaryCondition(cfg["bc"]))
    validate(params)
    return params


def _workers(cfg: dict) -> int:
    """The worker count of a command: --workers (sweep), then DLP_WORKERS,
    then the CPUs this process may run on.  It is not a config value of
    steady, so a dossier's config does not depend on the machine."""
    workers = cfg.get("workers")
    if not workers:
        raw = os.environ.get("DLP_WORKERS")
        if raw is None:
            return (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        try:
            workers = int(raw)
        except ValueError:
            raise DomainError(
                f"DLP_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    return workers


def _write_config(cfg: dict, out_path: str) -> None:
    path = os.path.splitext(out_path)[0] + ".config.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_dispersion(cfg: dict, params: LatticeParams) -> int:
    modes = mode_frequencies(params)
    lo, hi = xi_stability_window(params.n_sites, params.omega_c, params.bc)
    print(f"# dickelattice {__version__} dispersion n={params.n_sites} "
          f"bc={params.bc.value} omega_c={params.omega_c} xi={params.xi}")
    print("k omega_k")
    for k, w in enumerate(modes, start=1):
        print(f"{k} {float(w)!r}")
    print(f"window ({lo!r}, {hi!r})")
    if modes.min() <= 0.0:
        print("WARNING: outside NP stability window (a mode frequency is <= 0)")
    return 0


def cmd_critical(cfg: dict, params: LatticeParams) -> int:
    try:
        n_list = [int(tok) for tok in cfg["n_list"].split(",") if tok.strip()]
    except ValueError:
        raise DomainError("n_list must be comma-separated integers, got "
                          f"{cfg['n_list']!r}") from None
    if not n_list:
        raise DomainError("n_list is empty")
    if cfg["xi_steps"] > 1 and not cfg["xi_min"] < cfg["xi_max"]:
        raise DomainError("invalid xi range: need xi_min < xi_max")
    xi_values = GridAxis(cfg["xi_min"], cfg["xi_max"], cfg["xi_steps"]).values()
    points = critical_line_scan(params, n_list, xi_values)
    critical_csv(points, params, cfg["out"])
    if cfg["infinite"]:
        stem = os.path.splitext(cfg["out"])[0]
        with open(stem + "_infinite.csv", "w", newline="") as fh:
            fh.write(f"# dickelattice {__version__} infinite-chain threshold "
                     f"omega_a={params.omega_a} omega_c={params.omega_c} "
                     f"kappa={params.kappa}\n")
            fh.write("xi,g_c_infinite\n")
            for xi in xi_values:
                try:
                    g_inf = critical_coupling_np_infinite(
                        params.omega_a, params.omega_c, params.kappa, float(xi))
                    fh.write(f"{float(xi)!r},{float(g_inf)!r}\n")
                except DomainError:
                    fh.write(f"{float(xi)!r},\n")
    _write_config(cfg, cfg["out"])
    n_bad = sum(1 for pt in points if pt.error)
    print(f"wrote {cfg['out']} ({len(points)} points, {n_bad} failed)")
    return 0


def cmd_trajectory(cfg: dict, params: LatticeParams) -> int:
    init = cfg["init"]
    if init == "np":
        state0 = normal_state(params.n_sites)
    elif init == "perturbed-np":
        state0 = perturbed_normal_state(params.n_sites,
                                        rng_seed=cfg["rng_seed"],
                                        scale=cfg["scale"])
    else:                               # path to a JSON state file
        with open(init) as fh:
            state0 = state_from_jsonable(json.load(fh))
    traj = integrate(state0, params, cfg["t_end"], rtol=cfg["rtol"],
                     atol=cfg["atol"], record_every=cfg["record_every"])
    traj.to_csv(cfg["out"])
    _write_config(cfg, cfg["out"])
    amax = float(np.max(np.abs(traj.final_state.a)))
    print(f"wrote {cfg['out']} ({len(traj.times)} records, "
          f"final max|a|={amax:.3e}, spin drift={traj.spin_drift:.3e})")
    return 0


def cmd_steady(cfg: dict, params: LatticeParams) -> int:
    workers = _workers(cfg)
    result = find_all(params, n_random_seeds=cfg["n_random_seeds"],
                      rng_seed=cfg["rng_seed"], dedup_tol=cfg["dedup_tol"],
                      workers=workers)
    dossier = root_dossier(params, result, workers=workers)
    if cfg["out"]:
        # streamed: the whole text (41 MB at ring N = 50) is never held
        with open(cfg["out"], "w") as fh:
            json.dump(dossier, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_config(cfg, cfg["out"])
        print(f"wrote {cfg['out']} ({len(dossier['roots'])} roots, "
              f"{dossier['n_stable_classes']} stable classes)")
    else:
        # one write: with unbuffered stdout every chunk of a stream would
        # be its own system call
        print(json.dumps(dossier, indent=2, sort_keys=True))
    return 0


def cmd_sweep(cfg: dict, params: LatticeParams) -> int:
    workers = _workers(cfg)
    validate_rng_seed(cfg["rng_seed"])      # every mode takes the flag
    mode = cfg["mode"]
    if mode == "profile":
        params_g = replace(params, g=float(cfg["g_cut"]))
        try:
            profile = site_profile(params_g,
                                   init_amplitude=cfg["init_amplitude"],
                                   t_end=cfg["t_end"],
                                   settle_tol=cfg["settle_tol"])
        except NotSettled as exc:
            if exc.profile is not None:    # keep the partial profile on disk
                profile_csv(exc.profile, params_g, cfg["out"])
                _write_config(cfg, cfg["out"])
            print(f"error: {exc}", file=sys.stderr)
            return 3
        profile_csv(profile, params_g, cfg["out"])
        _write_config(cfg, cfg["out"])
        print(f"wrote {cfg['out']} (homogeneity={profile.homogeneity:.3e})")
        return 0
    if mode == "phase":
        spec = SweepSpec(params_base=params,
                         xi_grid=GridAxis(cfg["xi_min"], cfg["xi_max"],
                                          cfg["xi_steps"]),
                         g_grid=GridAxis(cfg["g_min"], cfg["g_max"],
                                         cfg["g_steps"]),
                         rng_seed=cfg["rng_seed"])
        cells = phase_diagram(spec, workers=workers)
        phase_diagram_csv(cells, spec, cfg["out"])
        what = "cells"
    else:                               # cut: its rows are phase cells
        g_values = GridAxis(cfg["g_min"], cfg["g_max"], cfg["g_steps"]).values()
        cells = order_parameter_cut(params, g_values,
                                    rng_seed=cfg["rng_seed"], workers=workers)
        cut_csv(cells, params, cfg["out"])
        what = "rows"
    _write_config(cfg, cfg["out"])
    n_bad = sum(1 for c in cells if c.error)
    print(f"wrote {cfg['out']} ({len(cells)} {what}, {n_bad} failed)")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickelattice",
        description="Mean-field steady states and phase diagrams of a "
                    "driven-dissipative cavity lattice.  " + UNITS_NOTE)
    parser.add_argument("--version", action="version",
                        version=f"dickelattice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, about in [
            ("dispersion", cmd_dispersion,
             "mode frequencies and the hopping stability window"),
            ("critical", cmd_critical,
             "numeric vs analytic critical coupling over N and xi"),
            ("trajectory", cmd_trajectory,
             "integrate the equations of motion, write a CSV"),
            ("steady", cmd_steady,
             "find all steady states at one (xi, g); JSON dossier"),
            ("sweep", cmd_sweep,
             "phase diagram, order-parameter cut, or site profile")]:
        p = sub.add_parser(name, epilog=UNITS_NOTE, help=about)
        p.set_defaults(func=func)
        for key, kind, _, help_, commands in _OPTIONS:
            if name in commands:
                how = ({"action": "store_const", "const": True} if kind is bool
                       else {"choices": kind} if isinstance(kind, list)
                       else {"type": kind})
                p.add_argument("--" + key.replace("_", "-"), help=help_, **how)
            if key == "g":              # --config follows the model flags
                p.add_argument("--config",
                               help="flat JSON config file; flags override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # one BLAS thread while the command runs; callers get their count back
    with one_thread():
        try:
            cfg = _resolve(args)
            return args.func(cfg, _params(cfg))
        except (DomainError, ShapeError, BoundaryError, UnstableWindowError,
                json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (StepFailure, ZeroModeMismatch, NotSettled,
                BisectionFailure) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
