"""Fixed points of the mean-field flow.

Analytic branches where they exist, plus a constrained Newton iteration
with symmetry-aware multistart for everything else.  The Newton system
replaces each site's inversion equation with the algebraic spin
constraint, which removes the dark-state degeneracy (a = s = 0 with
arbitrary z) that would otherwise make the Jacobian singular there; the
replaced equation is checked after convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryError, DomainError, NotConverged, ShapeError,
                     SingularJacobian, UnstableWindowError)
from .dynamics import hop_matrix, jacobian_packed, rhs_packed
from .model import (BoundaryCondition, LatticeParams, MeanFieldState,
                    inverted_normal_state, normal_state, symmetry_orbit,
                    validate)

NEWTON_TOL = 1e-11
MAX_ITER = 100
DAMPING = 30          # max step halvings per iteration
DEDUP_TOL = 1e-6
N_RANDOM_SEEDS = 64


@dataclass(frozen=True)
class FixedPoint:
    """A steady state with its residual and seed provenance."""

    state: MeanFieldState
    residual: float          # sup norm of the full flow at state
    converged: bool
    seed_tag: str = "seed"


def _as_state(fp) -> MeanFieldState:
    """The state of a converged FixedPoint, or fp itself if it is a state."""
    if isinstance(fp, FixedPoint):
        if not fp.converged:
            raise DomainError("requires a converged fixed point")
        return fp.state
    return fp


class NoBranch:
    """Sentinel: the homogeneous branch does not exist at these parameters."""

    __slots__ = ()

    def __repr__(self):
        return "NoBranch"


NO_BRANCH = NoBranch()


def homogeneous_srp_branch(params: LatticeParams):
    """Closed-form homogeneous superradiant pair on the ring.

    With w1 = omega_c - 2 xi the k = 1 mode frequency,

        z = -(omega_a w1 / (8 g^2)) (1 + kappa^2 / w1^2)

    and the branch exists only while |z| < 1/2; then

        s = +/- z sqrt(1/(4 z^2) - 1)
        a = +/- (omega_a / (4 g)) (1 + i kappa / w1) sqrt(1/(4 z^2) - 1)

    with both signs taken together (the two sign-flip partners).  Returns
    the pair of FixedPoint or the NO_BRANCH sentinel when |z| >= 1/2.
    """
    validate(params)
    if params.bc is not BoundaryCondition.Periodic:
        raise BoundaryError(
            "homogeneous superradiant states exist only on the ring; "
            "no_homogeneous_witness certifies their absence on the open chain")
    w1 = params.omega_c - 2.0 * params.xi
    if w1 <= 0:
        raise UnstableWindowError(f"omega_1 = {w1:.6g} <= 0 at xi={params.xi}")
    g = params.g
    if g == 0:
        return NO_BRANCH
    z = -(params.omega_a * w1 / (8.0 * g * g)) * (1.0 + params.kappa ** 2 / w1 ** 2)
    if abs(z) >= 0.5:
        return NO_BRANCH
    amp = np.sqrt(1.0 / (4.0 * z * z) - 1.0)
    s = z * amp
    a = (params.omega_a / (4.0 * g)) * (1.0 + 1j * params.kappa / w1) * amp
    n = params.n_sites
    out = []
    for sign in (+1.0, -1.0):
        state = MeanFieldState(a=np.full(n, sign * a),
                               s=np.full(n, sign * s, complex),
                               z=np.full(n, z))
        res = float(np.max(np.abs(rhs_packed(state.pack(), params))))
        out.append(FixedPoint(state=state, residual=res, converged=True,
                              seed_tag="analytic branch"))
    return out[0], out[1]


@dataclass(frozen=True)
class HomogeneityWitness:
    """Certificate that no homogeneous superradiant state fits an open chain.

    A homogeneous fixed point would have to satisfy, for its single
    amplitude a, kappa Re(a) = edge_coeff Im(a) at the end sites and
    kappa Re(a) = bulk_coeff Im(a) in the bulk.  The two conditions
    differ whenever determinant = kappa (edge_coeff - bulk_coeff) != 0,
    leaving a = 0 as the only joint solution.
    """

    kappa: float
    edge_coeff: float   # omega_c - xi
    bulk_coeff: float   # omega_c - 2 xi

    @property
    def determinant(self) -> float:
        return self.kappa * (self.edge_coeff - self.bulk_coeff)

    @property
    def only_solution(self) -> str:
        return "a = 0"

    def conditions(self):
        return (f"kappa*Re(a) = {self.edge_coeff:.6g}*Im(a) at the end sites",
                f"kappa*Re(a) = {self.bulk_coeff:.6g}*Im(a) in the bulk")


def no_homogeneous_witness(params: LatticeParams) -> HomogeneityWitness:
    """Incompatibility certificate for homogeneous states on the open chain.

    Requires an open chain with at least 3 sites (so bulk and edge sites
    both exist), xi != 0, and kappa > 0; otherwise the two conditions
    coincide or degenerate and there is no obstruction to certify.
    """
    validate(params)
    if params.bc is BoundaryCondition.Periodic:
        raise DomainError("the ring supports homogeneous states; no obstruction")
    if params.n_sites < 3:
        raise DomainError("need n_sites >= 3 so edge and bulk sites both exist")
    if params.xi == 0:
        raise DomainError("xi = 0 decouples the sites; the conditions coincide")
    if params.kappa == 0:
        raise DomainError(
            "kappa = 0 removes Re(a) from both conditions; a = 0 is then "
            "not the only joint solution and no certificate exists")
    return HomogeneityWitness(kappa=params.kappa,
                              edge_coeff=params.omega_c - params.xi,
                              bulk_coeff=params.omega_c - 2.0 * params.xi)


# ---------------------------------------------------------------------------
# constrained Newton

def _augmented(y, params, t_hop):
    n = params.n_sites
    f = rhs_packed(y, params, t_hop)
    p, q, z = y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n:5 * n]
    return np.concatenate([f[:4 * n], p * p + q * q + z * z - 0.25])


def _augmented_jacobian(y, params, t_hop):
    n = params.n_sites
    j = jacobian_packed(y, params, t_hop)
    p, q, z = y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n:5 * n]
    grad = np.hstack([np.zeros((n, 2 * n)),
                      np.diag(2.0 * p), np.diag(2.0 * q), np.diag(2.0 * z)])
    return np.vstack([j[:4 * n], grad])


def newton_solve(seed: MeanFieldState, params: LatticeParams, *,
                 newton_tol: float = NEWTON_TOL, max_iter: int = MAX_ITER,
                 damping: int = DAMPING, seed_tag: str = "seed") -> FixedPoint:
    """Damped Newton iteration on the constraint-augmented 5N system.

    Per site the unknowns are (Re a, Im a, Re s, Im s, z) and the
    equations are the four photon/coherence flow components plus
    |s|^2 + z^2 - 1/4 = 0.  Backtracking halves the step up to `damping`
    times whenever the 2-norm of the residual fails to decrease.

    Raises NotConverged (budget exhausted, step rejected, or the replaced
    inversion equation fails the post-check) or SingularJacobian.
    """
    validate(params)
    if seed.n != params.n_sites:
        raise ShapeError(f"seed has {seed.n} sites, params expect {params.n_sites}")
    if seed.spin_defect() > 1e-3:
        raise DomainError(
            f"seed is off the spin sphere by {seed.spin_defect():.3g} (> 1e-3)")

    n = params.n_sites
    t_hop = hop_matrix(params)
    y = seed.pack()
    f = _augmented(y, params, t_hop)
    for _ in range(max_iter):
        if np.max(np.abs(f)) <= newton_tol:
            break
        jf = _augmented_jacobian(y, params, t_hop)
        try:
            step = np.linalg.solve(jf, f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"singular Newton matrix: {exc}",
                                   cond=float(np.linalg.cond(jf))) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step",
                                   cond=float(np.linalg.cond(jf)))
        f_norm = np.linalg.norm(f)
        alpha = 1.0
        for _ in range(damping + 1):
            y_new = y - alpha * step
            f_new = _augmented(y_new, params, t_hop)
            if np.linalg.norm(f_new) < f_norm:
                break
            alpha *= 0.5
        else:
            raise NotConverged("backtracking could not reduce the residual")
        y, f = y_new, f_new
    if np.max(np.abs(f)) > newton_tol:
        raise NotConverged(
            f"residual {np.max(np.abs(f)):.3g} > {newton_tol:g} "
            f"after {max_iter} iterations")

    # the replaced inversion equations must vanish on their own
    full = rhs_packed(y, params, t_hop)
    if np.max(np.abs(full[4 * n:])) > newton_tol:
        raise NotConverged(
            f"inversion-rate residual {np.max(np.abs(full[4 * n:])):.3g} "
            "survives the constraint substitution (z = 0 degeneracy)")
    return FixedPoint(state=MeanFieldState.from_packed(y),
                      residual=float(np.max(np.abs(full))),
                      converged=True, seed_tag=seed_tag)


# ---------------------------------------------------------------------------
# multistart

# Site profiles that realize every three-site pattern template at a few
# relative weightings; amplitudes below rescale the sup norm.
_PROFILES_3 = [
    (1, 1, 1), (1, 1, -1), (1, 1, -2), (2, 2, -1), (1, 0, -1), (1, 2, 1),
    (1, -1, 1), (1, 2, -1), (1, -2, 1), (2, 1, 1), (1, 0.6, -0.3),
]
_AMPLITUDES = (0.25, 0.6, 1.0)


def _profiles(params):
    n = params.n_sites
    if n == 3:
        return [np.asarray(p, float) for p in _PROFILES_3]
    out = [np.ones(n)]
    j = np.arange(1, n + 1)
    m_max = min(3, n - 1)
    for m in range(1, m_max + 1):
        if params.bc is BoundaryCondition.Periodic:
            out.append(np.cos(2.0 * np.pi * m * (j - 1) / n))
            out.append(np.sin(2.0 * np.pi * m * (j - 1) / n))
        else:
            out.append(np.sin(np.pi * m * j / (n + 1)))
    return out


def _dressed_seed(profile, amp, params):
    # phase-dress the photon quadratures and put the spins where the
    # coherence equation wants them, exactly on the sphere
    sup = np.max(np.abs(profile))
    u = amp * profile / (sup if sup > 0 else 1.0)
    v = (params.kappa / params.omega_c) * u
    z = -0.5 / np.sqrt(1.0 + 16.0 * params.g ** 2 * u ** 2 / params.omega_a ** 2)
    p = 4.0 * params.g * u * z / params.omega_a
    return MeanFieldState(a=u + 1j * v, s=p.astype(complex), z=z)


def _random_seed(rng, n):
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    a = r * np.exp(1j * th)
    z = rng.uniform(-0.5, 0.0, n)
    ph = rng.uniform(0.0, 2.0 * np.pi, n)
    s = np.sqrt(0.25 - z * z) * np.exp(1j * ph)
    return MeanFieldState(a=a, s=s, z=z)


def _seed_list(params, n_random_seeds, rng):
    seeds = [(normal_state(params.n_sites), "normal state"),
             (inverted_normal_state(params.n_sites), "inverted normal state")]
    if params.bc is BoundaryCondition.Periodic:
        branch = homogeneous_srp_branch(params)
        if not isinstance(branch, NoBranch):
            seeds += [(fp.state, "analytic branch") for fp in branch]
    for prof in _profiles(params):
        for amp in _AMPLITUDES:
            seeds.append((_dressed_seed(prof, amp, params), "template"))
    for i in range(n_random_seeds):
        seeds.append((_random_seed(rng, params.n_sites), f"random {i}"))
    return seeds


@dataclass
class RootSearchResult:
    """List of fixed points plus seed bookkeeping; iterates over roots."""

    roots: list
    seed_metadata: dict

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]


def find_all(params: LatticeParams, *, n_random_seeds: int = N_RANDOM_SEEDS,
             rng_seed: int = 0, dedup_tol: float = DEDUP_TOL,
             newton_tol: float = NEWTON_TOL, max_iter: int = MAX_ITER,
             damping: int = DAMPING) -> RootSearchResult:
    """Multistart enumeration of fixed points.

    Seeds: the two dark states, the homogeneous branch pair (ring), a set
    of structured site profiles at several amplitudes, and
    n_random_seeds random sphere-respecting states.  Every root found is
    expanded by its full symmetry orbit (the images of an exact root are
    exact roots), then the list is sorted deterministically and
    de-duplicated at sup-norm distance dedup_tol.  The returned set is
    therefore closed under the symmetry group within dedup_tol.

    Non-convergent seeds are dropped and counted in seed_metadata.
    """
    validate(params)
    rng = np.random.default_rng(rng_seed)
    seeds = _seed_list(params, n_random_seeds, rng)

    converged = []
    n_failed = 0
    for seed_state, tag in seeds:
        try:
            converged.append(newton_solve(seed_state, params,
                                          newton_tol=newton_tol,
                                          max_iter=max_iter, damping=damping,
                                          seed_tag=tag))
        except (NotConverged, SingularJacobian):
            n_failed += 1

    expanded = []
    for fp in converged:
        images = symmetry_orbit(fp.state, params.bc)
        expanded.append(fp)                       # identity image keeps its tag
        for img in images[1:]:
            expanded.append(FixedPoint(state=img, residual=fp.residual,
                                       converged=True, seed_tag="symmetry image"))

    # deterministic reduction order, then greedy dedup of exact duplicates
    expanded.sort(key=lambda fp: tuple(np.round(fp.state.pack(), 9)))
    roots = []
    for fp in expanded:
        y = fp.state.pack()
        if any(np.max(np.abs(y - kept.state.pack())) < dedup_tol for kept in roots):
            continue
        roots.append(fp)

    meta = {
        "n_seeds": len(seeds),
        "n_converged": len(converged),
        "n_failed": n_failed,
        "n_random_seeds": n_random_seeds,
        "rng_seed": rng_seed,
        "dedup_tol": dedup_tol,
    }
    return RootSearchResult(roots=roots, seed_metadata=meta)
