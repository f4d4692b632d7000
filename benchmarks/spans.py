"""Spans and call counts around the package's public functions.

`Tracer.install` replaces each chosen function by a wrapper in every
`dickelattice` namespace that holds it: modules import names such as
`rhs_packed` and `stability.classify` directly, so patching only the
defining module would miss most calls.  Each call records one span
(name, start, end, parent span, exception type, a summary of the return
value).  Spans stay in memory; `layer_metrics` turns them into the
per-layer figures after the traced pass, and `uninstall` puts every
original back.

A layer's self time is the duration of its spans minus the time covered
by their child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of the wrapped function
LAYERS = {
    "dynamics.rhs_packed": ("dickelattice.dynamics", "rhs_packed"),
    "dynamics.jacobian_packed": ("dickelattice.dynamics", "jacobian_packed"),
    "dynamics.relax_to_steady": ("dickelattice.dynamics", "relax_to_steady"),
    "steady_state.newton_solve": ("dickelattice.steady_state", "newton_solve"),
    "steady_state.find_all": ("dickelattice.steady_state", "find_all"),
    "model.symmetry_orbit": ("dickelattice.model", "symmetry_orbit"),
    "stability.classify": ("dickelattice.stability", "classify"),
    "classify.canonicalize": ("dickelattice.classify", "canonicalize"),
    "classify.label": ("dickelattice.classify", "label"),
    "classify.stable_class_set": ("dickelattice.classify", "stable_class_set"),
    "classify.root_dossier": ("dickelattice.classify", "root_dossier"),
    "sweep.cell": ("dickelattice.sweep", "_compute_cell"),
    "cli.main": ("dickelattice.cli", "main"),
}

# what a span keeps of its function's return value
_SUMMARY = {
    "steady_state.find_all": lambda result: len(result.roots),
    "model.symmetry_orbit": len,
    "sweep.cell": lambda cell: bool(cell.error),
}

# per-layer metric name -> unit; `layer_metrics` fills every one of them
UNITS = {
    "dynamics.rhs_packed.calls": "count",
    "dynamics.rhs_packed.self_s": "s",
    "dynamics.jacobian_packed.calls": "count",
    "dynamics.jacobian_packed.self_s": "s",
    "dynamics.relax_to_steady.self_s": "s",
    "dynamics.relax_to_steady.rhs_calls": "count",
    "steady_state.newton_solve.calls": "count",
    "steady_state.newton_solve.self_s": "s",
    "steady_state.newton_solve.failed": "count",
    "steady_state.newton_solve.converged_ratio": "ratio",
    "steady_state.newton_solve.jac_per_solve": "jac/solve",
    "steady_state.newton_solve.rhs_per_jac": "rhs/jac",
    "steady_state.find_all.calls": "count",
    "steady_state.find_all.self_s": "s",
    "steady_state.find_all.roots": "count",
    "steady_state.find_all.kept_ratio": "ratio",
    "model.symmetry_orbit.calls": "count",
    "model.symmetry_orbit.self_s": "s",
    "stability.classify.calls": "count",
    "stability.classify.self_s": "s",
    "stability.classify.zero_mode_mismatch": "count",
    "classify.canonicalize.calls": "count",
    "classify.canonicalize.self_s": "s",
    "classify.label.self_s": "s",
    "classify.stable_class_set.self_s": "s",
    "classify.root_dossier.self_s": "s",
    "sweep.cell.p50_s": "s",
    "sweep.cell.p90_s": "s",
    "sweep.cell.errors": "count",
    "sweep.pool_efficiency": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# count metrics that must repeat exactly between two traced runs of one seed
COUNTS = tuple(name for name in UNITS
               if name.endswith((".calls", ".failed", ".roots", ".rhs_calls",
                                 ".zero_mode_mismatch", ".errors")))


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "summary")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error = ""
        self.summary = None


class Tracer:
    """Records spans for the layers it is installed on."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.patches: list[tuple] = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        summarize = _SUMMARY.get(name)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if summarize is not None:
                span.summary = summarize(result)
            return result

        return wrapper

    def install(self, names=tuple(LAYERS)) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "dickelattice" or key.startswith("dickelattice.")]
        for name in names:
            module, attr = LAYERS[name]
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    self.patches.append((mod, key, original))

    def uninstall(self) -> list[str]:
        """Restore every patched name; return those that did not revert."""
        for mod, key, original in reversed(self.patches):
            setattr(mod, key, original)
        left = [f"{mod.__name__}.{key}" for mod, key, original in self.patches
                if getattr(mod, key) is not original]
        self.patches = []
        return left


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, cell_spans, workers, pool_wall_s, overhead_s) -> dict:
    """Per-layer metrics from a fully traced pass plus a cell-only pass.

    `spans` come from the fully traced pass.  `cell_spans` come from a
    serial pass that traced only `sweep._compute_cell`, so cell times carry
    almost no tracing cost; `pool_wall_s` is the untraced wall time of the
    same cells on `workers` processes.  Layers a workload does not reach
    read 0.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    calls, failed, self_s = Counter(), Counter(), defaultdict(float)
    under = Counter()              # (span name, parent span name) -> calls
    summary = defaultdict(int)     # span name, or (name, parent) -> sum
    for i, s in enumerate(spans):
        parent = spans[s.parent].name if s.parent >= 0 else ""
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - child_s[i]
        under[s.name, parent] += 1
        if s.error:
            failed[s.name, s.error] += 1
            failed[s.name] += 1
        if s.summary is not None:
            summary[s.name] += int(s.summary)
            summary[s.name, parent] += int(s.summary)

    def ratio(num, den):
        return num / den if den else 0.0

    newton = "steady_state.newton_solve"
    jac_in_newton = under["dynamics.jacobian_packed", newton]
    expanded = summary["model.symmetry_orbit", "steady_state.find_all"]
    cells = [s.end - s.start for s in cell_spans]
    m = {
        "dynamics.relax_to_steady.rhs_calls":
            under["dynamics.rhs_packed", "dynamics.relax_to_steady"],
        "steady_state.newton_solve.failed": failed[newton],
        "steady_state.newton_solve.converged_ratio":
            ratio(calls[newton] - failed[newton], calls[newton]),
        "steady_state.newton_solve.jac_per_solve":
            ratio(jac_in_newton, calls[newton]),
        "steady_state.newton_solve.rhs_per_jac":
            ratio(under["dynamics.rhs_packed", newton], jac_in_newton),
        "steady_state.find_all.roots": summary["steady_state.find_all"],
        "stability.classify.zero_mode_mismatch":
            failed["stability.classify", "ZeroModeMismatch"],
        "sweep.cell.p50_s": _percentile(cells, 50),
        "sweep.cell.p90_s": _percentile(cells, 90),
        "sweep.cell.errors": sum(1 for s in cell_spans if s.summary),
        "sweep.pool_efficiency": ratio(sum(cells), workers * pool_wall_s)
        if cells else 0.0,
        "trace.overhead_s": overhead_s,
    }
    m["steady_state.find_all.kept_ratio"] = ratio(
        m["steady_state.find_all.roots"], expanded)
    for name in UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[layer]
        elif stat == "self_s":
            m[name] = self_s[layer]
    return {name: {"value": m[name], "unit": unit}
            for name, unit in UNITS.items()}
