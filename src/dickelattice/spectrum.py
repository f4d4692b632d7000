"""Photonic normal modes and closed-form critical couplings.

Mode indexing is 1-based throughout (k = 1..N); entry k-1 of a frequency
array holds mode k.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BoundaryError, DomainError, UnstableWindowError
from .model import BoundaryCondition, LatticeParams, validate


def mode_cosines(n_sites: int, bc: BoundaryCondition) -> np.ndarray:
    k = np.arange(1, n_sites + 1)
    if bc is BoundaryCondition.Periodic:
        return np.cos(2.0 * np.pi * (k - 1) / n_sites)
    return np.cos(np.pi * k / (n_sites + 1))


def mode_frequencies(params: LatticeParams) -> np.ndarray:
    """omega_k = omega_c - 2 xi cos(2 pi (k-1)/N) on the ring,
    omega_c - 2 xi cos(pi k/(N+1)) on the open chain, k = 1..N, as a
    read-only array."""
    validate(params)
    w = params.omega_c - 2.0 * params.xi * mode_cosines(params.n_sites, params.bc)
    w.setflags(write=False)
    return w


def xi_stability_window(n_sites: int, omega_c: float, bc: BoundaryCondition):
    """Open interval of xi over which every mode frequency stays positive.

    Computed from the extremal mode cosines; both signs of xi supported.
    The arguments are checked as validate checks them.
    """
    validate(LatticeParams(n_sites=n_sites, omega_c=omega_c, bc=bc))
    cos = mode_cosines(n_sites, bc)
    cmax = float(np.max(cos))
    cmin = float(np.min(cos))
    xi_max = omega_c / (2.0 * cmax) if cmax > 0 else np.inf
    xi_min = omega_c / (2.0 * cmin) if cmin < 0 else -np.inf
    return (xi_min, xi_max)


class NPCritical(NamedTuple):
    g_c: float
    k_star: int  # 1-based minimizing mode index (smallest on ties)


def critical_coupling_np(params: LatticeParams) -> NPCritical:
    """Coupling where the normal state loses stability.

    g_c = min_k (1/2) sqrt(omega_a omega_k (1 + kappa^2/omega_k^2)).
    Requires every mode frequency positive.
    """
    validate(params)
    w = mode_frequencies(params)
    if np.min(w) <= 0:
        raise UnstableWindowError(
            f"mode frequency min {np.min(w):.6g} <= 0 at xi={params.xi}: "
            "no stable normal state to destabilize")
    g_k = 0.5 * np.sqrt(params.omega_a * (w + params.kappa ** 2 / w))
    k_star = int(np.argmin(g_k))  # argmin returns the first, hence smallest k
    return NPCritical(g_c=float(g_k[k_star]), k_star=k_star + 1)


def critical_coupling_hsrp(params: LatticeParams) -> float:
    """Coupling above which the homogeneous superradiant branch is stable.

    max_k (1/2) [omega_a^2 omega_k (kappa^2 + omega_1^2)^3
                 / (omega_1^3 (kappa^2 + omega_k^2))]^(1/4),
    defined on the ring only; the homogeneous branch does not exist on the
    open chain.
    """
    validate(params)
    if params.bc is not BoundaryCondition.Periodic:
        raise BoundaryError("homogeneous superradiant branch requires the ring geometry")
    w = mode_frequencies(params)
    w1 = float(w[0])
    if w1 <= 0:
        raise UnstableWindowError(f"omega_1 = {w1:.6g} <= 0 at xi={params.xi}")
    if np.min(w) <= 0:
        # the quartic root below needs every omega_k >= 0
        raise UnstableWindowError(
            f"mode frequency min {np.min(w):.6g} <= 0 at xi={params.xi}")
    kap2 = params.kappa ** 2
    terms = 0.5 * (params.omega_a ** 2 * w * (kap2 + w1 ** 2) ** 3
                   / (w1 ** 3 * (kap2 + w ** 2))) ** 0.25
    return float(np.max(terms))


def critical_coupling_np_infinite(omega_a: float, omega_c: float,
                                  kappa: float, xi: float) -> float:
    """Infinite-lattice limit of the normal-state threshold.

    Piecewise in xi with a kink at (omega_c - kappa)/2, where the band
    minimum omega_c - 2 xi crosses kappa.  Valid for 0 < xi < omega_c / 2.
    omega_a, omega_c and kappa are checked as validate checks them.
    """
    validate(LatticeParams(n_sites=2, omega_c=omega_c, omega_a=omega_a,
                           kappa=kappa))
    if not 0 < xi < omega_c / 2:
        raise DomainError(
            f"xi must lie in (0, omega_c/2) = (0, {omega_c / 2:.6g}), got {xi}")
    if xi < (omega_c - kappa) / 2:
        w1 = omega_c - 2.0 * xi
        return 0.5 * np.sqrt(omega_a * (w1 + kappa ** 2 / w1))
    return float(np.sqrt(omega_a * kappa / 2.0))
