"""One benchmark workload, run in a fresh process by run.py.

The process imports numpy, scipy and the package from <checkout>/src,
prints the line "ready" (run.py times set-up up to that line), runs the
workload through `dickelattice.cli.main`, checks every output, and
prints one JSON line: pass and operation times, operation counts,
output-check mismatches, the environment it ran in and, with --trace 1,
the per-layer metrics.

With --trace 0 it repeats whole passes over the workload's operations
until --seconds would be exceeded (at least one pass).  With --trace 1
it runs a fixed sequence, so count metrics repeat exactly for a seed:
one untraced pass; for sweeps, one serial pass that traces only the
sweep cells; then one serial pass with every layer traced.

The workload seed is passed to the package as --rng-seed.  Reference
outputs belong to DEFAULT_SEED; re-record them (after a deliberate
change of the package's output) with

    PYTHONPATH=src python3 benchmarks/workload.py --workload NAME --record
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCES = os.path.join(ROOT, "benchmarks", "references")

import numpy as np                                              # noqa: E402
import scipy                                                    # noqa: E402

import dickelattice                                             # noqa: E402
from dickelattice import cli                                    # noqa: E402
from dickelattice.dynamics import rhs_sup_norm                  # noqa: E402
from dickelattice.model import (params_from_jsonable,           # noqa: E402
                                state_from_jsonable)

import spans                                                    # noqa: E402

DEFAULT_SEED = 0
WORKERS = 2          # pool size of the phase sweeps; the sandbox has 2 CPUs
XI = 0.2             # hopping of every steady point and profile
PHASE_WINDOW = ["--xi-min", "0", "--xi-max", "0.45",
                "--g-min", "0.3", "--g-max", "1.1"]
# steady_state.NEWTON_TOL when the references were recorded; kept here so
# that loosening the package's tolerance cannot loosen the check
NEWTON_TOL = 1e-11
PHASE_HEADER = ("xi,g,n_stable,labels,marginal_flag,no_stable_state,"
                "n_roots_total")


@dataclass(frozen=True)
class Op:
    """One call of the command line: a phase sweep, a steady point or a
    relaxed site profile."""

    kind: str            # "phase", "steady" or "profile"
    bc: str              # "pbc" or "obc"
    n: int
    g: float = 0.0       # coupling of a steady point, g_cut of a profile
    steps: int = 0       # grid points per axis of a phase sweep

    @property
    def key(self) -> str:
        if self.kind == "phase":
            return f"phase n={self.n} bc={self.bc} grid={self.steps}x{self.steps}"
        return f"{self.kind} n={self.n} bc={self.bc} xi={XI} g={self.g}"

    @property
    def operations(self) -> int:
        """Operations this call counts for in `attempted`: cells of a
        sweep, else 1."""
        return self.steps * self.steps if self.kind == "phase" else 1

    def argv(self, out: str, seed: int, workers: int) -> list[str]:
        model = ["--n", str(self.n), "--bc", self.bc]
        if self.kind == "phase":
            return ["sweep", "--mode", "phase", *model, *PHASE_WINDOW,
                    "--xi-steps", str(self.steps), "--g-steps", str(self.steps),
                    "--rng-seed", str(seed), "--workers", str(workers),
                    "--out", out]
        if self.kind == "steady":
            return ["steady", *model, "--xi", repr(XI), "--g", repr(self.g),
                    "--rng-seed", str(seed), "--out", out]
        return ["sweep", "--mode", "profile", *model, "--xi", repr(XI),
                "--g-cut", repr(self.g), "--out", out]


WORKLOADS = {
    "phase3": [Op("phase", bc, 3, steps=4) for bc in ("pbc", "obc")],
    "ring_orbit": [Op("steady", "pbc", 10, g) for g in (0.6, 0.8, 1.0)],
    "large_n": [Op("steady", "obc", 30, 0.8),
                Op("profile", "pbc", 50, 0.6),
                Op("profile", "obc", 50, 0.6)],
}

# one cell and one N = 3 point per workload, for the benchmark's self-test
TINY = {
    "phase3": [Op("phase", "pbc", 3, steps=1)],
    "ring_orbit": [Op("steady", "pbc", 3, 0.8)],
    "large_n": [Op("steady", "obc", 3, 0.8), Op("profile", "obc", 3, 0.6)],
}


@dataclass
class Call:
    op: Op
    out: str
    seconds: float
    code: object         # exit code, or the exception that escaped main
    stdout: str


def run_pass(ops, seed, workers, workdir):
    """Run every op once; return (wall seconds, [Call])."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calls = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out = os.path.join(workdir, f"op{i}.{'json' if op.kind == 'steady' else 'csv'}")
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.argv(out, seed, workers))
        except Exception as exc:      # a crash is a failed operation
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        calls.append(Call(op, out, time.perf_counter() - start, code,
                          buf.getvalue()))
    return time.perf_counter() - t0, calls


# ---------------------------------------------------------------------------
# output checks: each returns (problems, summary); summary is what the
# reference of the default seed records

def _check_phase(call, reference):
    problems = []
    with open(call.out) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# dickelattice "):
        problems.append("missing '# dickelattice' comment line")
    if len(lines) < 2 or lines[1] != PHASE_HEADER:
        problems.append("CSV header differs")
    if len(lines) - 2 != call.op.operations:
        problems.append(f"{len(lines) - 2} cells, expected {call.op.operations}")
    if reference is not None and text != reference:
        problems.append("CSV bytes differ from the reference")
    return problems, text


def _check_steady(call, reference):
    problems = []
    with open(call.out) as fh:
        dossier = json.load(fh)
    params = params_from_jsonable(dossier["params"])
    worst = max((rhs_sup_norm(state_from_jsonable(r["state"]), params)
                 for r in dossier["roots"]), default=0.0)
    if not dossier["roots"]:
        problems.append("no roots")
    if worst > NEWTON_TOL:
        problems.append(f"root residual {worst:.3g} > NEWTON_TOL {NEWTON_TOL:g}")
    summary = {"stable_classes": dossier["stable_classes"],
               "phase_letter": dossier["phase_letter"],
               "n_roots": len(dossier["roots"])}
    if reference is not None:
        for key, want in reference.items():
            if summary[key] != want:
                problems.append(f"{key} {summary[key]!r} != reference {want!r}")
    return problems, summary


def _check_profile(call, reference):
    problems = []
    with open(os.path.splitext(call.out)[0] + ".config.json") as fh:
        settle_tol = json.load(fh)["settle_tol"]
    with open(call.out) as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))[1:]
    settled = re.search(r" settled=(\S+)", comment)
    if settled is None or settled.group(1) != "True":
        problems.append("profile not settled")
    if len(rows) != call.op.n:
        problems.append(f"{len(rows)} sites, expected {call.op.n}")
    homogeneity = float(re.search(r" homogeneity=(\S+)", comment).group(1))
    abs_a = [math.hypot(float(r[1]), float(r[2])) for r in rows]
    summary = {"homogeneity": homogeneity, "abs_a": abs_a}
    if reference is not None:
        if abs(homogeneity - reference["homogeneity"]) > settle_tol:
            problems.append(f"homogeneity {homogeneity!r} differs from "
                            f"reference {reference['homogeneity']!r} by more "
                            f"than settle_tol {settle_tol:g}")
        if len(abs_a) != len(reference["abs_a"]) or max(
                abs(x - y) for x, y in zip(abs_a, reference["abs_a"])) > settle_tol:
            problems.append(f"|a_j| differ from the reference by more than "
                            f"settle_tol {settle_tol:g}")
    return problems, summary


_CHECKS = {"phase": _check_phase, "steady": _check_steady,
           "profile": _check_profile}


class Tally:
    """Operations attempted and failed, and every mismatch by name."""

    def __init__(self, references, seed):
        self.references = references
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def reference(self, op):
        # profiles take no seed, so their reference holds for every seed
        if self.references is None or (self.seed != DEFAULT_SEED
                                       and op.kind != "profile"):
            return None
        if op.key not in self.references:
            self.mismatches.append(f"{op.key}: no reference recorded")
            return None
        return self.references[op.key]

    def check(self, calls):
        for call in calls:
            op = call.op
            self.attempted += op.operations
            if call.code != 0:
                problems = [f"exit code {call.code}"]
            else:
                try:
                    problems, _ = _CHECKS[op.kind](call, self.reference(op))
                except (OSError, ValueError, KeyError, IndexError,
                        AttributeError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += op.operations
                self.mismatches += [f"{op.key}: {p}" for p in problems]
            elif op.kind == "phase":
                # the sweep records failed cells and keeps going
                found = re.search(r"\((\d+) cells, (\d+) failed\)", call.stdout)
                if found is None:
                    self.failed += op.operations
                    self.mismatches.append(f"{op.key}: no cell summary line")
                elif int(found.group(2)):
                    self.failed += int(found.group(2))
                    self.mismatches.append(
                        f"{op.key}: {found.group(2)} cells failed")


# ---------------------------------------------------------------------------
# environment

def blas_record() -> list[dict]:
    """Build and live thread count of the OpenBLAS bundled with numpy
    (ILP64, symbol suffix 64_) and with scipy."""
    out = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            try:
                lib = ctypes.CDLL(path)
                threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                config = getattr(lib, "scipy_openblas_get_config" + suffix)
            except (OSError, AttributeError) as exc:
                entry["error"] = str(exc)
            else:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
            out.append(entry)
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------

def _pass_record(wall, calls):
    return {"wall_s": wall,
            "calls": [{"kind": c.op.kind, "key": c.op.key, "seconds": c.seconds}
                      for c in calls]}


def _traced_run(ops, seed, workdir, tally):
    pool_wall, calls = run_pass(ops, seed, WORKERS, workdir)
    tally.check(calls)
    record = [_pass_record(pool_wall, calls)]
    cell_tracer = spans.Tracer()
    serial_wall, left = pool_wall, []
    if any(op.kind == "phase" for op in ops):
        cell_tracer.install(["sweep.cell"])
        try:
            serial_wall, calls = run_pass(ops, seed, 1, workdir)
        finally:
            left += cell_tracer.uninstall()
        tally.check(calls)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, calls = run_pass(ops, seed, 1, workdir)
    finally:
        left += tracer.uninstall()
    tally.check(calls)
    tally.mismatches += [f"tracer left {name} wrapped" for name in left]
    layers = spans.layer_metrics(tracer.spans, cell_tracer.spans, WORKERS,
                                 pool_wall, traced_wall - serial_wall)
    return record, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one cell / one N = 3 point (self-test size)")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after the 'ready' line (set-up timing probe)")
    ap.add_argument("--record", action="store_true",
                    help="write the references of DEFAULT_SEED and exit")
    args = ap.parse_args(argv)
    source = os.path.dirname(os.path.dirname(os.path.abspath(dickelattice.__file__)))
    if source != os.path.join(ROOT, "src"):
        print(f"error: dickelattice imported from {source}, not from the "
              "checkout's src/", file=sys.stderr)
        return 2
    ref_path = os.path.join(REFERENCES, args.workload + ".json")
    references = None
    if not (args.tiny or args.record):
        with open(ref_path) as fh:
            references = json.load(fh)["outputs"]
    ops = (TINY if args.tiny else WORKLOADS)[args.workload]
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.record:
        _, calls = run_pass(ops, DEFAULT_SEED, WORKERS, workdir)
        outputs = {}
        for call in calls:
            if call.code != 0:
                raise SystemExit(f"{call.op.key}: exit code {call.code}")
            outputs[call.op.key] = _CHECKS[call.op.kind](call, None)[1]
        with open(ref_path, "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "outputs": outputs}, fh, indent=1)
            fh.write("\n")
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    tally = Tally(references, args.seed)
    layers = None
    try:
        if args.trace:
            passes, layers = _traced_run(ops, args.seed, workdir, tally)
        else:
            passes = []
            t0 = time.perf_counter()
            while True:
                wall, calls = run_pass(ops, args.seed, WORKERS, workdir)
                tally.check(calls)
                passes.append(_pass_record(wall, calls))
                typical = statistics.median(p["wall_s"] for p in passes)
                if time.perf_counter() - t0 + typical > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "passes": passes,
        "cells_per_pass": sum(op.operations for op in ops if op.kind == "phase"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches,
        "checks": ("seed-independent" if references is None
                   else f"seed-independent, references of seed {DEFAULT_SEED}"
                   if args.seed == DEFAULT_SEED
                   else "seed-independent, profile references"),
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
        "env": {"numpy": np.__version__, "scipy": scipy.__version__,
                "dickelattice": dickelattice.__version__,
                "blas": blas_record()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
