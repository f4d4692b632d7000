"""The stability verdict as the package computed it before it read the
sphere-tangent projected Jacobian: a left eigendecomposition of the full
5N x 5N Jacobian, with the N structural (spin-length) zero modes matched
against the constraint gradients and excluded.  The reference the
tangent-space verdict is checked against, with the per-site loop that
built the tangent basis before it was vectorized, and the normal state's
abscissa as its photon-coherence block gave it."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dickelattice.dynamics import jacobian_packed
from dickelattice.errors import ZeroModeMismatch
from dickelattice.model import LatticeParams, MeanFieldState, normal_state
from dickelattice.stability import EPS_MARGINAL, Verdict

EPS_ZERO = 1e-8


@dataclass
class StabilityReport:
    verdict: Verdict
    spectral_abscissa: float      # max real part over the physical modes
    eigenvalues: np.ndarray       # all 5N, sorted by descending real part
    n_structural_zeros: int
    structural: np.ndarray        # bool mask aligned with eigenvalues


def classify(state: MeanFieldState, params: LatticeParams, *,
             eps_marginal: float = EPS_MARGINAL,
             eps_zero: float = EPS_ZERO) -> StabilityReport:
    """Stability verdict at state with the N structural zero modes excluded.

    A structural mode must satisfy |lambda| < eps_zero and have left
    eigenvector overlap^2 > 0.5 with the constraint-gradient span; the
    overlap test keeps genuine near-zero physical modes (bifurcations) out
    of the excluded set.  Exactly N structural modes are required,
    otherwise ZeroModeMismatch.
    """
    j = jacobian_packed(state.pack(), params)
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


def normal_state_block_abscissa(params: LatticeParams) -> float:
    """The normal state's spectral abscissa as stability computed it
    before it read the normal state's classify verdict: at the normal
    state the inversion rows of the Jacobian vanish, so the 4N x 4N
    photon-coherence block carries the verdict."""
    n = params.n_sites
    j = jacobian_packed(normal_state(n).pack(), params)
    return float(np.max(np.linalg.eigvals(j[:4 * n, :4 * n]).real))
