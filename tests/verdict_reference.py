"""The verdicts and stable classes as the package computed them before
find_all returned packed rows: one MeanFieldState per root, and one
tangent basis, projection and eigvals call per orbit, with the canonical
member picked state by state.  The reference the stacked verdicts of
stability.classify and classify.stable_class_set are checked against."""

import numpy as np

from dickelattice.classify import CANON_TOL, CLASS_TOL, _lex_less, label
from dickelattice.dynamics import jacobian_packed
from dickelattice.errors import ZeroModeMismatch
from dickelattice.model import MeanFieldState, symmetry_orbit
from dickelattice.stability import EPS_MARGINAL, StabilityReport, Verdict
from symmetry_reference import orbit_image


def exact_state(row):
    """The state whose pack() has every bit of the packed row, the signs
    of its zeros included (from_packed's u + 1j v makes -0.0 in v +0.0)."""
    u, v, p, q, z = np.asarray(row, float).reshape(5, -1)
    a, s = np.empty(u.size, complex), np.empty(u.size, complex)
    a.real, a.imag, s.real, s.imag = u, v, p, q
    return MeanFieldState(a=a, s=s, z=z)


def tangent_basis(state):
    """Orthonormal basis of the sphere tangent space at one state, 5N x 4N."""
    n = state.n
    normal = np.stack([state.s.real, state.s.imag, state.z], axis=1)
    length = np.linalg.norm(normal, axis=1)
    if np.any(length == 0):
        raise ZeroModeMismatch("a site's spin vanished (s = z = 0): "
                               "no tangent plane")
    normal /= length[:, None]
    ref = np.zeros((n, 3))
    ref[np.arange(n), (np.abs(normal[:, 0]) >= 0.9).astype(int)] = 1.0
    t1 = np.cross(normal, ref)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(normal, t1)
    t2 /= np.linalg.norm(t2, axis=1)[:, None]

    k = np.arange(n)
    spin = np.arange(2, 5)[:, None] * n + k
    b = np.zeros((5 * n, 4 * n))
    b[k, 4 * k] = 1.0
    b[n + k, 4 * k + 1] = 1.0
    b[spin, 4 * k + 2] = t1.T
    b[spin, 4 * k + 3] = t2.T
    return b


def projected_jacobian(state, params):
    b = tangent_basis(state)
    return b.T @ jacobian_packed(state.pack(), params) @ b


def classify(state, params):
    w = np.linalg.eigvals(projected_jacobian(state, params))
    abscissa = float(np.max(w.real))
    if abscissa < -EPS_MARGINAL:
        verdict = Verdict.Stable
    elif abscissa > EPS_MARGINAL:
        verdict = Verdict.Unstable
    else:
        verdict = Verdict.Marginal
    order = np.lexsort((w.imag, -w.real))
    return StabilityReport(verdict=verdict, spectral_abscissa=abscissa,
                           eigenvalues=w[order])


def canonicalize(state, params, tol=CANON_TOL):
    images, best = symmetry_orbit(state.pack()[None], params.bc), 0
    for k in range(1, len(images)):
        if _lex_less(images[k], images[best], tol):
            best = k
    return orbit_image(state, best, params.bc)


def stable_class_set(points, params):
    """(reports, classes, marginal) of a list of (state, orbit) roots,
    root by root: the first root of each orbit is classified and the rest
    reuse its report; classes holds (kind, canonical state)."""
    reports, classes, marginal = [], [], False
    seen = []
    by_orbit = {}
    for state, orbit in points:
        repeat = orbit in by_orbit
        if repeat:
            rep = by_orbit[orbit]
        else:
            rep = by_orbit[orbit] = classify(state, params)
        reports.append(rep)
        marginal = marginal or rep.verdict is Verdict.Marginal
        if repeat or rep.verdict is not Verdict.Stable:
            continue
        canon = canonicalize(state, params)
        y = canon.pack()
        if any(np.max(np.abs(y - y0)) < CLASS_TOL for y0 in seen):
            continue
        seen.append(y)
        classes.append((label(canon, params).kind.value, canon))
    return reports, classes, marginal
