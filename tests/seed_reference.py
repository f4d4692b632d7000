"""The seeds of find_all as the package built them one at a time, before
_seed_list built the template and random rows as arrays: the reference
those rows and tags are checked against byte for byte."""

import numpy as np

from dickelattice.model import (BoundaryCondition, MeanFieldState,
                                inverted_normal_state, normal_state)
from dickelattice.steady_state import (_AMPLITUDES, _profiles,
                                       homogeneous_srp_branch)


def dressed_seed(profile, amp, params):
    """One template seed: the profile rescaled to sup norm amp, photon
    quadratures phase-dressed, spins where the coherence equation wants
    them, exactly on the sphere."""
    sup = np.max(np.abs(profile))
    u = amp * profile / (sup if sup > 0 else 1.0)
    v = (params.kappa / params.omega_c) * u
    z = -0.5 / np.sqrt(1.0 + 16.0 * params.g ** 2 * u ** 2 / params.omega_a ** 2)
    p = 4.0 * params.g * u * z / params.omega_a
    return MeanFieldState(a=u + 1j * v, s=p.astype(complex), z=z)


def random_seed(rng, n):
    """One random packed seed on the spin spheres, |a| <= 1, z <= 0."""
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    a = r * np.exp(1j * th)
    z = rng.uniform(-0.5, 0.0, n)
    ph = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(0.25 - z * z) * np.exp(1j * ph)
    return np.concatenate([a.real, a.imag, s.real, s.imag, z])


def seed_list(params, n_random_seeds, rng):
    """(rows, tags) of the seeds, built seed by seed."""
    n = params.n_sites
    seeds = [(normal_state(n), "normal state"),
             (inverted_normal_state(n), "inverted normal state")]
    if params.bc is BoundaryCondition.Periodic:
        seeds += [(state, "analytic branch")
                  for state in homogeneous_srp_branch(params)]
    for prof in _profiles(params):
        for amp in _AMPLITUDES:
            seeds.append((dressed_seed(prof, amp, params), "template"))
    rows = [state.pack() for state, _ in seeds]
    rows += [random_seed(rng, n) for _ in range(n_random_seeds)]
    tags = [tag for _, tag in seeds]
    tags += [f"random {i}" for i in range(n_random_seeds)]
    return np.array(rows), tags
