"""Linear stability of fixed points.

The spin length c_j = |s_j|^2 + z_j^2 is conserved by the flow, so the
flow is tangent to the product of spin spheres and, at a fixed point, the
5N x 5N Jacobian maps the sphere tangent space into itself.  Restricted
to that space (the 4N x 4N projected Jacobian) it carries exactly the 4N
physical eigenvalues; the N spin-length directions, along which the
Jacobian only has zero modes, never enter.  The verdict reads the
spectral abscissa of that matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from ._pool import map_stacks
from .errors import BisectionFailure, ZeroModeMismatch
from .dynamics import jacobian_packed
from .model import LatticeParams, normal_state, validate

EPS_MARGINAL = 1e-7


class Verdict(enum.Enum):
    Stable = "Stable"
    Unstable = "Unstable"
    Marginal = "Marginal"


@dataclass
class StabilityReport:
    verdict: Verdict
    spectral_abscissa: float      # max real part over the physical modes
    eigenvalues: np.ndarray       # the 4N physical ones, by descending real part


def tangent_basis(rows) -> np.ndarray:
    """Orthonormal bases of the constraint-sphere tangent spaces at the
    packed states of the stack rows (K, 5N), as (K, 5N, 4N).

    Per site k, columns 4k..4k+3: the two photon quadrature directions,
    then two tangents to the spin sphere at (Re s_k, Im s_k, z_k).  A site
    with s = z = 0 has no tangent plane and raises ZeroModeMismatch.
    """
    y = np.asarray(rows, dtype=float)
    n = y.shape[1] // 5
    # (K, 3, N): the spin vector of each site, by component
    normal = y[:, 2 * n:].reshape(len(y), 3, n)
    length = np.linalg.norm(normal, axis=1)
    if (length == 0).any():
        raise ZeroModeMismatch("a site's spin vanished (s = z = 0): "
                               "no tangent plane")
    normal = normal / length[:, None]
    # any axis far from the normal seeds the first tangent: e_x, else e_y
    ref = np.zeros(normal.shape)
    ref[:, 1] = np.abs(normal[:, 0]) >= 0.9
    ref[:, 0] = 1.0 - ref[:, 1]
    t1 = _cross(normal, ref)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = _cross(normal, t1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]

    k = np.arange(n)
    spin = np.arange(2, 5)[:, None] * n + k     # rows of Re s, Im s, z
    b = np.zeros((len(y), 5 * n, 4 * n))
    b[:, k, 4 * k] = 1.0
    b[:, n + k, 4 * k + 1] = 1.0
    b[:, spin, 4 * k + 2] = t1
    b[:, spin, 4 * k + 3] = t2
    return b


def _cross(u, v):
    """np.cross(u, v, axis=1) of (K, 3, N) stacks, with its bits but
    without its per-call overhead, most of a small stack's cost."""
    (u0, u1, u2), (v0, v1, v2) = u.transpose(1, 0, 2), v.transpose(1, 0, 2)
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2,
                     u0 * v1 - u1 * v0], axis=1)


def projected_jacobian(rows, params: LatticeParams) -> np.ndarray:
    """The Jacobians at the packed states of the stack rows (K, 5N),
    restricted to the sphere tangent spaces, as (K, 4N, 4N); each has the
    bits of b.T @ jacobian_packed(row, params) @ b for its basis b."""
    y = np.asarray(rows, dtype=float)
    b = tangent_basis(y)
    jac = jacobian_packed(y, params)
    return np.matmul(np.matmul(b.transpose(0, 2, 1), jac), b)


def classify(rows, params: LatticeParams, workers: int = 1) -> list:
    """One stability verdict per packed state of the stack rows (K, 5N),
    from the 4N eigenvalues of its projected Jacobian.  An abscissa within
    EPS_MARGINAL of 0 gives Marginal.  The matrices go to eigvals in
    stacks of 5N x 5N Jacobians, which _pool.map_stacks sizes and, with
    workers > 1 from N = 26 up, runs on the process's worker pool, with
    the same bits.
    """
    y, n = np.asarray(rows, dtype=float), params.n_sites
    return [_report(w) for stack in map_stacks(
        _stack_eigvals, y, 5 * n, n, workers, params) for w in stack]


def _stack_eigvals(rows, params):
    """The eigenvalues of the projected Jacobians at one stack of rows."""
    return np.linalg.eigvals(projected_jacobian(rows, params))


def _report(w) -> StabilityReport:
    abscissa = float(np.max(w.real))
    verdict = (Verdict.Stable if abscissa < -EPS_MARGINAL else
               Verdict.Unstable if abscissa > EPS_MARGINAL else Verdict.Marginal)
    order = np.lexsort((w.imag, -w.real))
    return StabilityReport(verdict=verdict, spectral_abscissa=abscissa,
                           eigenvalues=w[order])


# ---------------------------------------------------------------------------
# normal-state threshold by bisection

BISECT_BRACKET = (0.05, 2.0)    # g range searched for the threshold
BISECT_TOL = 1e-6               # bracket width at which bisection stops
BISECT_MAX_ITER = 60            # most halvings of the bracket


def normal_state_abscissa(params: LatticeParams) -> float:
    """Leading growth rate of the flow linearized about the normal state:
    the spectral abscissa of its classify verdict."""
    validate(params)
    [report] = classify(normal_state(params.n_sites).pack()[None], params)
    return report.spectral_abscissa


def bisect_np_threshold(params: LatticeParams) -> float:
    """Locate the g where the normal state's abscissa changes sign.

    The fixed bracket BISECT_BRACKET makes the midpoint sequence, and
    hence the result, identical for every parameter set sharing the same
    threshold; it stops at width BISECT_TOL or after BISECT_MAX_ITER
    halvings.  Raises BisectionFailure when the bracket does not straddle
    a sign change.
    """
    lo, hi = BISECT_BRACKET
    if not (normal_state_abscissa(replace(params, g=lo)) < 0
            < normal_state_abscissa(replace(params, g=hi))):
        raise BisectionFailure(
            f"no stable-to-unstable crossing over g in [{lo}, {hi}] "
            f"at xi={params.xi}")
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if normal_state_abscissa(replace(params, g=mid)) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
