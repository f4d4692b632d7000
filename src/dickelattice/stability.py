"""Linear stability of fixed points.

Primary route: eigenvalues of the analytic 5N x 5N Jacobian, with the N
conservation-law zero modes identified and excluded before the verdict.
The spin length c_j = |s_j|^2 + z_j^2 is conserved by the flow, so
grad c_j . f(y) = 0 identically; differentiating and evaluating at a
fixed point shows each constraint gradient (0, 0, 2 Re s_j, 2 Im s_j,
2 z_j) is an exact LEFT null vector of the Jacobian there.  Candidate
zero eigenvalues are therefore matched against the gradient span through
their left eigenvectors.

A Routh table on the characteristic polynomial of the sphere-tangent
projected Jacobian is kept as an eigenvalue-free cross-check.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import BisectionFailure, ShapeError, ZeroModeMismatch
from .dynamics import jacobian_packed
from .model import LatticeParams, MeanFieldState, normal_state, validate
from .steady_state import _as_state

EPS_MARGINAL = 1e-7
EPS_ZERO = 1e-8


class Verdict(enum.Enum):
    Stable = "Stable"
    Unstable = "Unstable"
    Marginal = "Marginal"


@dataclass
class StabilityReport:
    verdict: Verdict
    spectral_abscissa: float      # max real part over the physical modes
    eigenvalues: np.ndarray       # all 5N, sorted by descending real part
    n_structural_zeros: int
    structural: np.ndarray        # bool mask aligned with eigenvalues


def jacobian(state: MeanFieldState, params: LatticeParams) -> np.ndarray:
    """Analytic derivative of the flow at state, 5N x 5N real."""
    if state.n != params.n_sites:
        raise ShapeError(
            f"state has {state.n} sites, params expect {params.n_sites}")
    return jacobian_packed(state.pack(), params)


def classify(fp, params: LatticeParams, *, eps_marginal: float = EPS_MARGINAL,
             eps_zero: float = EPS_ZERO) -> StabilityReport:
    """Stability verdict with the N structural zero modes excluded.

    fp may be a FixedPoint (must be converged) or a bare MeanFieldState.
    A structural mode must satisfy |lambda| < eps_zero and have left
    eigenvector overlap^2 > 0.5 with the constraint-gradient span; the
    overlap test keeps genuine near-zero physical modes (bifurcations) out
    of the excluded set.  Exactly N structural modes are required,
    otherwise ZeroModeMismatch.
    """
    state = _as_state(fp)
    j = jacobian(state, params)
    n = params.n_sites
    w, vl = scipy.linalg.eig(j, left=True, right=False)

    grad = np.zeros((5 * n, n))
    for k in range(n):
        grad[2 * n + k, k] = 2.0 * state.s[k].real
        grad[3 * n + k, k] = 2.0 * state.s[k].imag
        grad[4 * n + k, k] = 2.0 * state.z[k]
    norms = np.linalg.norm(grad, axis=0)
    if np.any(norms < 1e-12):
        raise ZeroModeMismatch("a constraint gradient vanished (s = z = 0 site)")
    grad /= norms   # columns are site-disjoint, hence orthonormal

    structural = np.zeros(w.size, dtype=bool)
    for i in range(w.size):
        if abs(w[i]) < eps_zero:
            overlap = (np.linalg.norm(grad.T @ vl[:, i]) ** 2
                       / np.linalg.norm(vl[:, i]) ** 2)
            if overlap > 0.5:
                structural[i] = True
    count = int(structural.sum())
    if count != n:
        raise ZeroModeMismatch(
            f"found {count} structural zero modes, expected {n} "
            f"(eps_zero={eps_zero:g})")

    abscissa = float(np.max(w[~structural].real))
    if abscissa < -eps_marginal:
        verdict = Verdict.Stable
    elif abscissa > eps_marginal:
        verdict = Verdict.Unstable
    else:
        verdict = Verdict.Marginal

    order = np.lexsort((w.imag, -w.real))
    return StabilityReport(verdict=verdict, spectral_abscissa=abscissa,
                           eigenvalues=w[order], n_structural_zeros=count,
                           structural=structural[order])


def eigenvalue_csv(report: StabilityReport, path) -> None:
    """Dump the classified spectrum: Re, Im, structural-zero flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_lambda", "im_lambda", "structural_zero"])
        for lam, flag in zip(report.eigenvalues, report.structural):
            writer.writerow([repr(float(lam.real)), repr(float(lam.imag)),
                             int(flag)])


# ---------------------------------------------------------------------------
# normal-state threshold by bisection

def normal_state_abscissa(params: LatticeParams) -> float:
    """Leading growth rate of the flow linearized about the normal state.

    The inversion directions decouple there (their rows vanish), leaving
    the verdict to the 4N x 4N photon-coherence block.
    """
    validate(params)
    n = params.n_sites
    j = jacobian_packed(normal_state(n).pack(), params)
    block = j[:4 * n, :4 * n]
    return float(np.max(np.linalg.eigvals(block).real))


def bisect_np_threshold(params: LatticeParams, *, bracket=(0.05, 2.0),
                        tol: float = 1e-6, max_iter: int = 60) -> float:
    """Locate the g where the normal state's abscissa changes sign.

    The fixed bracket makes the midpoint sequence, and hence the result,
    identical for every parameter set sharing the same threshold.  Raises
    BisectionFailure when the bracket does not straddle a sign change.
    """
    lo, hi = bracket
    if not (normal_state_abscissa(replace(params, g=lo)) < 0
            < normal_state_abscissa(replace(params, g=hi))):
        raise BisectionFailure(
            f"no stable-to-unstable crossing over g in [{lo}, {hi}] "
            f"at xi={params.xi}")
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        if normal_state_abscissa(replace(params, g=mid)) > 0:
            hi = mid
        else:
            lo = mid
        it += 1
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Routh-Hurwitz cross-check on the projected Jacobian

def _spin_tangents(p, q, z):
    # two orthonormal tangents to the radius-1/2 sphere at (p, q, z)
    nvec = np.array([p, q, z])
    nvec = nvec / np.linalg.norm(nvec)
    ref = np.array([1.0, 0.0, 0.0]) if abs(nvec[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(nvec, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(nvec, t1)
    t2 /= np.linalg.norm(t2)
    return t1, t2


def tangent_basis(state: MeanFieldState) -> np.ndarray:
    """Orthonormal basis of the constraint-sphere tangent space, 5N x 4N.

    Per site: the two photon quadrature directions plus two spin-sphere
    tangents.  The flow is tangent to the constraint manifold, so this
    subspace is invariant and carries the physical spectrum.
    """
    n = state.n
    b = np.zeros((5 * n, 4 * n))
    col = 0
    for k in range(n):
        b[k, col] = 1.0
        col += 1
        b[n + k, col] = 1.0
        col += 1
        t1, t2 = _spin_tangents(state.s[k].real, state.s[k].imag, state.z[k])
        b[[2 * n + k, 3 * n + k, 4 * n + k], col] = t1
        col += 1
        b[[2 * n + k, 3 * n + k, 4 * n + k], col] = t2
        col += 1
    return b


def projected_jacobian(state: MeanFieldState, params: LatticeParams) -> np.ndarray:
    b = tangent_basis(state)
    return b.T @ jacobian(state, params) @ b


def char_poly(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recursion; no eigenvalue solve involved.
    """
    m = a.shape[0]
    c = np.zeros(m + 1)
    c[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, m + 1):
        mk = a @ mk + c[k - 1] * np.eye(m)
        c[k] = -np.trace(a @ mk) / k
    return c


def routh_rhp_count(coeffs) -> int:
    """Number of open-right-half-plane polynomial roots by the Routh table.

    Zero pivots get the standard epsilon substitution; an all-zero row is
    replaced by the derivative of its auxiliary polynomial.
    """
    c = np.asarray(coeffs, float)
    m = len(c) - 1
    if m == 0:
        return 0
    scale = np.max(np.abs(c))
    tiny = 1e-12 * max(scale, 1.0)
    width = (m + 2) // 2 + 1
    row0 = np.zeros(width)
    row1 = np.zeros(width)
    row0[:len(c[0::2])] = c[0::2]
    row1[:len(c[1::2])] = c[1::2]
    table = [row0, row1]
    for i in range(2, m + 1):
        prev = table[i - 1]
        prev2 = table[i - 2]
        if np.all(np.abs(prev) < tiny):
            # auxiliary polynomial from the row above, then differentiate
            deg = m - (i - 2)
            aux = np.zeros(width)
            for j in range(width):
                power = deg - 2 * j
                if power > 0:
                    aux[j] = prev2[j] * power
            prev = aux
            table[i - 1] = prev
        piv = prev[0]
        if abs(piv) < tiny:
            piv = tiny  # epsilon substitution
        new = np.zeros(width)
        for j in range(width - 1):
            new[j] = (piv * prev2[j + 1] - prev2[0] * prev[j + 1]) / piv
        table.append(new)
    first = np.array([row[0] if abs(row[0]) > 0 else tiny for row in table])
    signs = np.sign(first)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def routh_verdict(fp, params: LatticeParams):
    """(verdict, right-half-plane count) from the projected Jacobian.

    Independent of any eigenvalue computation; used to cross-check
    classify.  Cannot flag Marginal, so compare away from boundaries.
    """
    state = _as_state(fp)
    rhp = routh_rhp_count(char_poly(projected_jacobian(state, params)))
    return (Verdict.Stable if rhp == 0 else Verdict.Unstable), rhp
