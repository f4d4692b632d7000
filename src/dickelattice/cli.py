"""Command-line front end.

Every command resolves its settings in three layers: built-in defaults,
then a flat JSON config file (--config), then explicit flags.  The
resolved config is written next to any output files, so a run can be
reproduced byte for byte from that file alone.

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
from .errors import (BisectionFailure, BoundaryError, DomainError,
                     NotConverged, NotSettled, ShapeError, SingularJacobian,
                     StepFailure, UnstableWindowError, ZeroModeMismatch)
from .classify import root_dossier
from .dynamics import RTOL, ATOL, T_MAX, integrate, perturbed_normal_state
from .model import (BoundaryCondition, LatticeParams, normal_state,
                    state_from_jsonable, validate)
from .spectrum import (critical_coupling_np_infinite, mode_frequencies,
                       xi_stability_window)
from .steady_state import DEDUP_TOL, N_RANDOM_SEEDS, find_all
from .sweep import (DEFAULT_STEPS, PROFILE_SETTLE_TOL, GridAxis, SweepSpec,
                    critical_csv, critical_line_scan, cut_csv,
                    order_parameter_cut, phase_diagram, phase_diagram_csv,
                    profile_csv, site_profile)

UNITS_NOTE = ("Units: frequencies (omega_a, kappa, xi, g) in units of the "
              "cavity frequency omega_c = 1; times in 1/omega_c.")

_BC = {"pbc": "periodic", "periodic": "periodic",
       "obc": "open", "open": "open"}

# kappa defaults to the damped operating point rather than the
# LatticeParams value of 0, so dynamics commands relax out of the box
_MODEL_DEFAULTS = {"n": 3, "bc": "periodic", "omega_c": 1.0, "omega_a": 1.0,
                   "kappa": 0.4, "xi": 0.2, "g": 0.5}

_COMMAND_DEFAULTS = {
    "dispersion": {},
    "critical": {"n_list": "3", "xi_min": 0.05, "xi_max": 0.45,
                 "xi_steps": 9, "infinite": False, "out": "critical.csv"},
    "trajectory": {"init": "perturbed-np", "t_end": T_MAX, "rng_seed": 0,
                   "scale": 1e-3, "record_every": 1.0, "rtol": RTOL,
                   "atol": ATOL, "out": "trajectory.csv"},
    "steady": {"n_random_seeds": N_RANDOM_SEEDS, "rng_seed": 0,
               "dedup_tol": DEDUP_TOL, "out": ""},
    "sweep": {"mode": "phase", "xi_min": 0.0, "xi_max": 0.45,
              "xi_steps": DEFAULT_STEPS, "g_min": 0.3, "g_max": 1.1,
              "g_steps": DEFAULT_STEPS, "rng_seed": 0, "workers": 0,
              "g_cut": 0.6, "init_amplitude": 0.1, "t_end": T_MAX,
              "settle_tol": PROFILE_SETTLE_TOL, "out": "sweep.csv"},
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="number of lattice sites")
    p.add_argument("--bc", choices=sorted(_BC),
                   help="boundary condition (pbc/periodic or obc/open)")
    p.add_argument("--omega-c", type=float, help="cavity frequency")
    p.add_argument("--omega-a", type=float, help="atomic splitting")
    p.add_argument("--kappa", type=float, help="photon decay rate")
    p.add_argument("--xi", type=float, help="photon hopping strength")
    p.add_argument("--g", type=float, help="light-matter coupling")
    p.add_argument("--config", help="flat JSON config file; flags override")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    cfg = dict(_MODEL_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(cfg) - {"command"}
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        loaded.pop("command", None)
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["bc"] = _BC.get(str(cfg["bc"]), None)
    if cfg["bc"] is None:
        raise DomainError(f"bc must be one of {sorted(_BC)}")
    cfg["command"] = command
    return cfg


def _params(cfg: dict) -> LatticeParams:
    params = LatticeParams(n_sites=cfg["n"], omega_c=cfg["omega_c"],
                           omega_a=cfg["omega_a"], g=cfg["g"], xi=cfg["xi"],
                           kappa=cfg["kappa"],
                           bc=BoundaryCondition(cfg["bc"]))
    validate(params)
    return params


def _write_config(cfg: dict, out_path: str) -> None:
    path = os.path.splitext(out_path)[0] + ".config.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_dispersion(args) -> int:
    cfg = _resolve(args, "dispersion")
    params = _params(cfg)
    modes = mode_frequencies(params)
    lo, hi = xi_stability_window(params.n_sites, params.omega_c, params.bc)
    print(f"# dickelattice {__version__} dispersion n={params.n_sites} "
          f"bc={params.bc.value} omega_c={params.omega_c} xi={params.xi}")
    print("k omega_k")
    for k, w in enumerate(modes.values, start=1):
        print(f"{k} {float(w)!r}")
    print(f"window ({lo!r}, {hi!r})")
    if modes.min <= 0.0:
        print("WARNING: outside NP stability window (a mode frequency is <= 0)")
    return 0


def cmd_critical(args) -> int:
    cfg = _resolve(args, "critical")
    params = _params(cfg)
    n_list = [int(tok) for tok in str(cfg["n_list"]).split(",") if tok.strip()]
    if not n_list:
        raise DomainError("n_list is empty")
    if cfg["xi_steps"] < 1 or (cfg["xi_steps"] > 1
                               and not cfg["xi_min"] < cfg["xi_max"]):
        raise DomainError("invalid xi range: need xi_min < xi_max, steps >= 1")
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


def cmd_trajectory(args) -> int:
    cfg = _resolve(args, "trajectory")
    params = _params(cfg)
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


def cmd_steady(args) -> int:
    cfg = _resolve(args, "steady")
    params = _params(cfg)
    result = find_all(params, n_random_seeds=cfg["n_random_seeds"],
                      rng_seed=cfg["rng_seed"], dedup_tol=cfg["dedup_tol"])
    dossier = root_dossier(params, result)
    text = json.dumps(dossier, indent=2, sort_keys=True)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text + "\n")
        _write_config(cfg, cfg["out"])
        print(f"wrote {cfg['out']} ({len(dossier['roots'])} roots, "
              f"{dossier['n_stable_classes']} stable classes)")
    else:
        print(text)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args, "sweep")
    params = _params(cfg)
    workers = cfg["workers"]
    if not workers:
        raw = os.environ.get("DLP_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise DomainError(
                f"DLP_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    mode = cfg["mode"]
    if mode == "phase":
        spec = SweepSpec(params_base=params,
                         xi_grid=GridAxis(cfg["xi_min"], cfg["xi_max"],
                                          cfg["xi_steps"]),
                         g_grid=GridAxis(cfg["g_min"], cfg["g_max"],
                                         cfg["g_steps"]),
                         rng_seed=cfg["rng_seed"])
        cells = phase_diagram(spec, workers=workers)
        phase_diagram_csv(cells, spec, cfg["out"])
        _write_config(cfg, cfg["out"])
        n_bad = sum(1 for c in cells if c.error)
        print(f"wrote {cfg['out']} ({len(cells)} cells, {n_bad} failed)")
    elif mode == "cut":
        g_values = GridAxis(cfg["g_min"], cfg["g_max"], cfg["g_steps"]).values()
        rows = order_parameter_cut(params, cfg["xi"], g_values,
                                   rng_seed=cfg["rng_seed"])
        cut_csv(rows, params, cfg["xi"], cfg["out"])
        _write_config(cfg, cfg["out"])
        print(f"wrote {cfg['out']} ({len(rows)} rows)")
    elif mode == "profile":
        params_g = replace(params, g=cfg["g_cut"])
        try:
            profile = site_profile(params, cfg["g_cut"],
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
    else:
        raise DomainError(f"mode must be phase, cut or profile, got {mode!r}")
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

    p = sub.add_parser("dispersion", epilog=UNITS_NOTE,
                       help="mode frequencies and the hopping stability window")
    _add_model_flags(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("critical", epilog=UNITS_NOTE,
                       help="numeric vs analytic critical coupling over N and xi")
    _add_model_flags(p)
    p.add_argument("--n-list", dest="n_list",
                   help="comma-separated site counts (default 3)")
    p.add_argument("--xi-min", type=float)
    p.add_argument("--xi-max", type=float)
    p.add_argument("--xi-steps", type=int)
    p.add_argument("--infinite", action="store_const", const=True,
                   default=None, help="also write the infinite-chain curve")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("trajectory", epilog=UNITS_NOTE,
                       help="integrate the equations of motion, write a CSV")
    _add_model_flags(p)
    p.add_argument("--init", help="np, perturbed-np, or a JSON state file")
    p.add_argument("--t-end", type=float)
    p.add_argument("--rng-seed", type=int, help="perturbation seed")
    p.add_argument("--scale", type=float, help="perturbation amplitude")
    p.add_argument("--record-every", type=float)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("steady", epilog=UNITS_NOTE,
                       help="find all steady states at one (xi, g); JSON dossier")
    _add_model_flags(p)
    p.add_argument("--n-random-seeds", type=int)
    p.add_argument("--rng-seed", type=int)
    p.add_argument("--dedup-tol", type=float)
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", epilog=UNITS_NOTE,
                       help="phase diagram, order-parameter cut, or site profile")
    _add_model_flags(p)
    p.add_argument("--mode", choices=["phase", "cut", "profile"])
    p.add_argument("--xi-min", type=float)
    p.add_argument("--xi-max", type=float)
    p.add_argument("--xi-steps", type=int)
    p.add_argument("--g-min", type=float)
    p.add_argument("--g-max", type=float)
    p.add_argument("--g-steps", type=int)
    p.add_argument("--rng-seed", type=int)
    p.add_argument("--workers", type=int,
                   help="sweep pool size (fallback: DLP_WORKERS, then 1)")
    p.add_argument("--g-cut", type=float, help="coupling for --mode profile")
    p.add_argument("--init-amplitude", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--settle-tol", type=float,
                   help="flow norm below which the profile counts as settled")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # one BLAS thread while the command runs; callers get their count back
    with one_thread():
        try:
            return args.func(args)
        except (DomainError, ShapeError, BoundaryError, UnstableWindowError,
                json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (StepFailure, NotConverged, SingularJacobian, ZeroModeMismatch,
                NotSettled, BisectionFailure) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
