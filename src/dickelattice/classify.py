"""Pattern taxonomy of steady states and symmetry canonicalization.

Labels: NP / InvertedNP (dark states), P1 (homogeneous, ring only), P2
(pair plus opposite-sign third, three-site ring), O1-O4 (three-site open
chain), OTHER (fallback with a site-profile fingerprint).  Template
matching uses eps_pattern for amplitude equality, and asserts a sign for
Re a_j only when |Re a_j| > eps_pattern.

stable_class_set is the one pipeline from roots to stable classes:
verdict per root, keep Stable, canonicalize, dedup at CLASS_TOL, label.
Sweep cells, order-parameter cuts and root dossiers all read its record.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ZeroModeMismatch
from .model import (BoundaryCondition, LatticeParams, MeanFieldState,
                    params_to_jsonable, state_to_jsonable, symmetry_orbit)
from .steady_state import FixedPoint, RootSearchResult, _as_state
from .stability import StabilityReport, Verdict, classify as stability_classify

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
    """Site-equality classes of the amplitude profile, dark sites as 0."""
    letters = []
    reps = []        # (letter, amplitude) in first-occurrence order
    for aj in a:
        if abs(aj) < eps:
            letters.append("0")
            continue
        for letter, rep in reps:
            if abs(aj - rep) < eps:
                letters.append(letter)
                break
        else:
            letter = chr(ord("a") + len(reps))
            reps.append((letter, aj))
            letters.append(letter)
    return "".join(letters)


def label(fp, params: LatticeParams, eps_pattern: float = EPS_PATTERN) -> PatternLabel:
    """Deterministic template match, most to least constrained.

    Precedence: NP / InvertedNP -> P1 -> P2 -> O2 -> O1 -> O4 -> O3 ->
    OTHER.  P1 requires the ring (no homogeneous states exist on the open
    chain); P2 the three-site ring; O1-O4 the three-site open chain.
    """
    state = _as_state(fp)
    a = state.a
    z = state.z
    n = state.n
    eps = eps_pattern
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


def canonicalize(fp, params: LatticeParams, tol: float = CANON_TOL) -> MeanFieldState:
    """Smallest orbit member under a fixed coordinate-wise total order.

    The orbit is sign flip x cyclic shifts (ring) or sign flip x
    reflection (open chain); orbit members of one numeric root are exact
    images, so the minimum is well defined up to tol.
    """
    if isinstance(fp, FixedPoint) and not fp.converged:
        raise ValueError("canonicalize requires a converged fixed point")
    state = _as_state(fp)
    best = state
    best_y = state.pack()
    for cand in symmetry_orbit(state, params.bc)[1:]:
        y = cand.pack()
        if _lex_less(y, best_y, tol):
            best, best_y = cand, y
    return best


@dataclass
class StableClasses:
    """What stable_class_set derived from one list of roots."""

    reports: list       # per root: StabilityReport, or the ZeroModeMismatch raised
    classes: list       # distinct stable classes, first seen first: (kind, canonical state)
    marginal: bool      # some root came out Marginal
    n_dropped: int      # roots dropped for ZeroModeMismatch

    @property
    def counts(self) -> Counter:
        """kind -> number of distinct stable classes of that kind."""
        return Counter(kind for kind, _ in self.classes)

    @property
    def failure(self) -> str:
        """Why the class set is empty when dropped roots could have filled it."""
        if self.classes or not self.n_dropped:
            return ""
        return (f"ZeroModeMismatch: {self.n_dropped} roots dropped, "
                "no stable class left")


def stable_class_set(roots, params: LatticeParams) -> StableClasses:
    """Stability verdict per root, then the distinct stable orbit classes.

    Each root is classified once; a root whose zero modes do not close
    (ZeroModeMismatch) is dropped from the class stage and counted.
    Symmetry partners collapse onto one canonical representative each, so
    a six-member broken-symmetry family counts once: the counts total 1
    for monostable cells, 2 for bistable, 3 for tristable.
    """
    found = StableClasses(reports=[], classes=[], marginal=False, n_dropped=0)
    seen = []      # canonical packed vectors of the classes kept
    for fp in roots:
        try:
            rep = stability_classify(fp, params)
        except ZeroModeMismatch as exc:
            found.reports.append(exc)
            found.n_dropped += 1
            continue
        found.reports.append(rep)
        found.marginal = found.marginal or rep.verdict is Verdict.Marginal
        if rep.verdict is not Verdict.Stable:
            continue
        canon = canonicalize(fp, params)
        y = canon.pack()
        if any(np.max(np.abs(y - y0)) < CLASS_TOL for y0 in seen):
            continue
        seen.append(y)
        found.classes.append((label(canon, params).kind.value, canon))
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

def root_dossier(params: LatticeParams, result: RootSearchResult) -> dict:
    """Full account of a root search: states, verdicts, labels, classes."""
    found = stable_class_set(result.roots, params)
    entries = []
    for fp, rep in zip(result.roots, found.reports):
        ok = isinstance(rep, StabilityReport)
        lab = label(fp, params)
        entries.append({
            "state": state_to_jsonable(fp.state),
            "residual": fp.residual,
            "converged": fp.converged,
            "seed_tag": fp.seed_tag,
            "verdict": rep.verdict.value if ok else f"error: {rep}",
            "spectral_abscissa": rep.spectral_abscissa if ok else None,
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
