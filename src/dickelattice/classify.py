"""Pattern taxonomy of steady states and symmetry canonicalization.

Labels: NP / InvertedNP (dark states), P1 (homogeneous, ring only), P2
(pair plus opposite-sign third, three-site ring), O1-O4 (three-site open
chain), OTHER (fallback with a site-profile fingerprint).  Template
matching uses EPS_PATTERN for amplitude equality, and asserts a sign for
Re a_j only when |Re a_j| > EPS_PATTERN.

stable_class_set is the one pipeline from roots to stable classes:
verdict per orbit, keep Stable, canonicalize, dedup at CLASS_TOL, label.
Sweep cells, order-parameter cuts and root dossiers all read its record.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import (BoundaryCondition, LatticeParams, MeanFieldState,
                    packed_to_jsonable, params_to_jsonable, symmetry_group,
                    symmetry_orbit)
from .steady_state import RootSearchResult
from .stability import Verdict, classify as stability_classify

EPS_PATTERN = 1e-5
CANON_TOL = 1e-7
CLASS_TOL = 1e-5     # sup distance below which two canonical states are one class


class PatternKind(enum.Enum):
    NP = "NP"
    InvertedNP = "InvertedNP"
    P1 = "P1"
    P2 = "P2"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"
    OTHER = "OTHER"


@dataclass(frozen=True)
class PatternLabel:
    kind: PatternKind
    detail: str

    def __str__(self):
        return self.kind.value


def _fingerprint(a, eps):
    """Site-equality classes of the amplitude profile, dark sites as 0:
    each site takes the letter of the first letter's first site within
    eps of it, or a new letter."""
    # np.hypot, not np.abs: on complex arrays np.abs rounds differently
    # from the scalar abs of the templates in the last bit, and a site
    # at eps would change its letter
    diff = a[:, None] - a[None, :]
    dark = (np.hypot(a.real, a.imag) < eps).tolist()
    close = np.hypot(diff.real, diff.imag) < eps
    np.fill_diagonal(close, True)   # each site is its own match, NaN too
    letters = []
    firsts = {}      # the first site of each letter -> the letter's number
    for j, f in enumerate(np.argmax(close, axis=1).tolist()):
        # f <= j is the first site within eps of site j
        if dark[j]:
            letters.append("0")
            continue
        if f in firsts:
            k = firsts[f]
        elif f == j:
            k = firsts[j] = len(firsts)
        else:   # f is no first site, but a first site after f may be close
            k = next((firsts[r] for r in firsts if r > f and close[j, r]),
                     len(firsts))
            if k == len(firsts):
                firsts[j] = k
        letters.append(chr(ord("a") + k))
    return "".join(letters)


def label(state: MeanFieldState, params: LatticeParams) -> PatternLabel:
    """Deterministic template match, most to least constrained.

    Precedence: NP / InvertedNP -> P1 -> P2 -> O2 -> O1 -> O4 -> O3 ->
    OTHER.  P1 requires the ring (no homogeneous states exist on the open
    chain); P2 the three-site ring; O1-O4 the three-site open chain.
    """
    a = state.a
    z = state.z
    n = state.n
    eps = EPS_PATTERN
    periodic = params.bc is BoundaryCondition.Periodic

    dark = bool(np.all(np.abs(a) < eps))
    if dark and np.all(np.abs(z + 0.5) < eps):
        return PatternLabel(PatternKind.NP, "all sites dark, inversion -1/2")
    if dark and np.all(np.abs(z - 0.5) < eps):
        return PatternLabel(PatternKind.InvertedNP, "all sites dark, inversion +1/2")

    if periodic and not dark:
        same_a = np.max(np.abs(a - a[0])) < eps
        same_s = np.max(np.abs(state.s - state.s[0])) < eps
        same_z = np.max(np.abs(z - z[0])) < eps
        if same_a and same_s and same_z:
            return PatternLabel(PatternKind.P1, "homogeneous, all sites identical")

    if periodic and n == 3:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if (abs(a[i] - a[j]) < eps and abs(a[i] - a[k]) >= eps
                    and abs(a[i].real) > eps and abs(a[k].real) > eps
                    and a[i].real * a[k].real < 0):
                return PatternLabel(
                    PatternKind.P2,
                    f"sites {i + 1},{j + 1} equal, site {k + 1} opposite sign")

    if not periodic and n == 3:
        re = a.real
        if abs(a[1]) < eps and abs(a[0] + a[2]) < eps and abs(a[0]) >= eps:
            return PatternLabel(
                PatternKind.O2, "end sites antisymmetric, middle site dark")
        if np.all(np.abs(re) > eps) and (np.all(re > 0) or np.all(re < 0)):
            return PatternLabel(PatternKind.O1, "all real parts share one sign")
        if (np.all(np.abs(re) > eps) and re[0] * re[2] > 0
                and re[0] * re[1] < 0):
            return PatternLabel(
                PatternKind.O4, "end sites share one sign, middle site opposite")
        if (np.all(np.abs(a) >= eps) and abs(a[0] - a[1]) >= eps
                and abs(a[1] - a[2]) >= eps and abs(a[0] - a[2]) >= eps):
            return PatternLabel(PatternKind.O3, "all sites distinct and nonzero")

    return PatternLabel(PatternKind.OTHER,
                        f"profile classes {_fingerprint(a, eps)}")


# ---------------------------------------------------------------------------
# canonical representatives

def _lex_less(x, y, tol):
    # lexicographic order that treats coordinates within tol as tied, so
    # the chosen representative is stable against root-solver noise
    for xv, yv in zip(x, y):
        if xv < yv - tol:
            return True
        if xv > yv + tol:
            return False
    return False


def canonicalize(rows, params: LatticeParams):
    """For each packed state of the stack rows (K, 5N), the smallest member
    of its symmetry_orbit under a fixed coordinate-wise total order, as
    (K, 5N) rows; orbit members of one numeric root are exact images, so
    the minimum is well defined up to CANON_TOL."""
    y = np.asarray(rows, dtype=float)
    group = len(symmetry_group(params.n_sites, params.bc)[0])
    images = symmetry_orbit(y, params.bc).reshape(len(y), group, y.shape[1])
    best = [0] * len(y)
    for r, orbit in enumerate(images):
        for k in range(1, group):
            if _lex_less(orbit[k], orbit[best[r]], CANON_TOL):
                best[r] = k
    return images[np.arange(len(y)), best]


@dataclass
class StableClasses:
    """What stable_class_set derived from one list of roots."""

    reports: list       # per root: its StabilityReport
    classes: list       # distinct stable classes, first seen first: (kind, canonical row)
    marginal: bool      # some root came out Marginal

    @property
    def counts(self) -> Counter:
        """kind -> number of distinct stable classes of that kind."""
        return Counter(kind for kind, _ in self.classes)


def stable_class_set(result: RootSearchResult, params: LatticeParams,
                     workers: int = 1) -> StableClasses:
    """Stability verdict per root of a find_all result, then the distinct
    stable orbit classes.

    Roots that share an `orbit` are exact symmetry images of one Newton
    root and share its spectrum, so the first root of each orbit is
    classified, all in one stacked call (on `workers` processes, see
    stability.classify), and the rest reuse its report.
    Symmetry partners collapse onto one canonical representative each,
    so a six-member broken-symmetry family counts once: the counts total
    1 for monostable cells, 2 for bistable, 3 for tristable.
    """
    orbit = result.orbit.tolist()
    first = {}     # orbit -> its first root, in list order
    for i, k in enumerate(orbit):
        first.setdefault(k, i)
    reps = dict(zip(first, stability_classify(
        result.roots[list(first.values())], params, workers=workers)))
    found = StableClasses(
        reports=[reps[k] for k in orbit], classes=[],
        marginal=any(r.verdict is Verdict.Marginal for r in reps.values()))
    stable = [i for k, i in first.items() if reps[k].verdict is Verdict.Stable]
    seen = []      # canonical rows of the classes kept
    for y in canonicalize(result.roots[stable], params):
        if any(np.max(np.abs(y - y0)) < CLASS_TOL for y0 in seen):
            continue
        seen.append(y)
        kind = label(MeanFieldState.from_packed(y), params).kind.value
        found.classes.append((kind, y))
    return found


# Letter names for the three-site phase regions.  The mapping below was
# reconstructed from reproduction runs of the stable-class sets; it is
# reported as "inferred" in output metadata, and combinations not listed
# are emitted verbatim as their label multiset.
_LETTERS_PERIODIC = {
    ("NP",): "A",
    ("P1",): "B",
    ("P2",): "C",
    ("P1", "P2"): "D",
}
_LETTERS_OPEN = {
    ("NP",): "A",
    ("O1",): "B",
    ("O2",): "C",
    ("O3",): "D",
    ("O1", "O3"): "F",
    ("O3", "O4"): "H",
    ("O1", "O3", "O4"): "I",
}
LETTER_TABLE_PROVENANCE = "inferred from reproduction runs"


def phase_letter(class_counts: Counter, bc: BoundaryCondition):
    """Region letter for a stable-class multiset, or None if not listed."""
    key = tuple(sorted(class_counts.elements()))
    table = _LETTERS_PERIODIC if bc is BoundaryCondition.Periodic else _LETTERS_OPEN
    return table.get(key)


# ---------------------------------------------------------------------------
# JSON-friendly root dossier

def root_dossier(params: LatticeParams, result: RootSearchResult,
                 workers: int = 1) -> dict:
    """Full account of a root search: states, verdicts, labels, classes.
    workers goes to the verdicts (stable_class_set)."""
    found = stable_class_set(result, params, workers=workers)
    entries = []
    for y, residual, tag, rep in zip(result.roots, result.residual,
                                     result.seed_tags, found.reports):
        lab = label(MeanFieldState.from_packed(y), params)
        entries.append({
            "state": packed_to_jsonable(y),
            "residual": float(residual),
            "converged": True,      # find_all keeps converged roots only
            "seed_tag": tag,
            "verdict": rep.verdict.value,
            "spectral_abscissa": rep.spectral_abscissa,
            "label": lab.kind.value,
            "label_detail": lab.detail,
        })
    counts = found.counts
    return {
        "params": params_to_jsonable(params),
        "roots": entries,
        "stable_classes": dict(counts),
        "n_stable_classes": sum(counts.values()),
        "phase_letter": phase_letter(counts, params.bc),
        "letter_table": LETTER_TABLE_PROVENANCE,
        "seed_metadata": result.seed_metadata,
    }
