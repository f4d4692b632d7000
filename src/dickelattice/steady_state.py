"""Fixed points of the mean-field flow.

Analytic branches where they exist, plus a constrained Newton iteration
with symmetry-aware multistart for everything else.  The Newton system
replaces each site's inversion equation with the algebraic spin
constraint, which removes the dark-state degeneracy (a = s = 0 with
arbitrary z) that would otherwise make the Jacobian singular there; the
replaced equation is checked after convergence.  The photon and Im s
equations of that system are linear with constant coefficients, so each
Newton step eliminates them and factors only a 2N x 2N matrix per seed.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from ._pool import map_stacks
from .errors import BoundaryError, DomainError, ShapeError, UnstableWindowError
from .dynamics import hop_matrix, matvec_rows, rhs_packed
from .model import (BoundaryCondition, LatticeParams, MeanFieldState,
                    _check_integer, inverted_normal_state, normal_state,
                    symmetry_group, symmetry_orbit, validate,
                    validate_rng_seed)

NEWTON_TOL = 1e-11
MAX_ITER = 100
DAMPING = 30          # max step halvings per iteration
DEDUP_TOL = 1e-6
DEDUP_KEY_DECIMALS = 9   # decimals of the coordinates _dedup sorts on
DEDUP_WINDOW_SLACK = 1e-8   # widens _dedup's search window past dedup_tol
N_RANDOM_SEEDS = 64


def homogeneous_srp_branch(params: LatticeParams):
    """Closed-form homogeneous superradiant pair on the ring.

    With w1 = omega_c - 2 xi the k = 1 mode frequency,

        z = -(omega_a w1 / (8 g^2)) (1 + kappa^2 / w1^2)

    and the branch exists only while |z| < 1/2; then

        s = +/- z sqrt(1/(4 z^2) - 1)
        a = +/- (omega_a / (4 g)) (1 + i kappa / w1) sqrt(1/(4 z^2) - 1)

    with both signs taken together (the two sign-flip partners).  Returns
    the pair of MeanFieldState, or () when |z| >= 1/2 or g = 0.
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
        return ()
    z = -(params.omega_a * w1 / (8.0 * g * g)) * (1.0 + params.kappa ** 2 / w1 ** 2)
    if abs(z) >= 0.5:
        return ()
    amp = np.sqrt(1.0 / (4.0 * z * z) - 1.0)
    s = z * amp
    a = (params.omega_a / (4.0 * g)) * (1.0 + 1j * params.kappa / w1) * amp
    n = params.n_sites
    return tuple(MeanFieldState(a=np.full(n, sign * a),
                                s=np.full(n, sign * s, complex),
                                z=np.full(n, z)) for sign in (+1.0, -1.0))


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

SEED_SPIN_TOL = 1e-3    # largest spin-sphere defect of a Newton seed


class SeedOutcome(enum.IntEnum):
    """How newton_solve left a seed: at a root, or what stopped it."""

    ROOT = 0          # converged, and the inversion post-check passed
    BUDGET = 1        # MAX_ITER steps without converging
    BACKTRACK = 2     # no halving of the step lowered the residual
    SINGULAR = 3      # the Newton matrix was singular
    NON_FINITE = 4    # the Newton step was not finite
    INVERSION = 5     # converged, but a replaced inversion equation failed


def _augmented(y, params, t_hop):
    """The flow at each row of the stack y, with the inversion-rate
    components replaced by the spin constraint |s|^2 + z^2 - 1/4."""
    n = params.n_sites
    f = rhs_packed(y, params, t_hop)
    p, q, z = y[:, 2 * n:3 * n], y[:, 3 * n:4 * n], y[:, 4 * n:]
    f[:, 4 * n:] = p * p + q * q + z * z - 0.25
    return f


def _photon_solvers(params, t_hop):
    """(R, K) with A = omega_c - T, R = (A^2 + kappa^2)^-1 and K = A R.

    They solve the photon rows of the Newton system: -kappa du + A dv = f_0
    and -A du - kappa dv = f_1 give du = -kappa R f_0 - K f_1 and dv =
    K f_0 - kappa R f_1.  With kappa = 0 and omega_c an eigenvalue of T (a
    free photon mode) A^2 + kappa^2 is singular: DomainError.
    """
    n = params.n_sites
    a = params.omega_c * np.eye(n) - t_hop
    try:
        r = np.linalg.inv(a @ a + params.kappa ** 2 * np.eye(n))
    except np.linalg.LinAlgError:
        raise DomainError(
            "A^2 + kappa^2 (A = omega_c - T) is singular: kappa = 0 and "
            f"omega_c = {params.omega_c:g} is a free photon mode of the "
            "hopping matrix") from None
    return r, a @ r


def _spin_matrices(x, params, k):
    """The 2N x 2N Newton matrices M in (d Re s, dz) at the rows of x:
    [[-omega_a - 8 g^2 diag(z) K, 4 g diag(Re a)], [2 diag(Re s), 2 diag(z)]],
    the augmented Jacobian with its photon and Im s unknowns eliminated.
    Given a regular A^2 + kappa^2, M is singular exactly when the
    augmented Jacobian is."""
    n = params.n_sites
    g = params.g
    u, p, z = x[:, :n], x[:, 2 * n:3 * n], x[:, 4 * n:]
    i = np.arange(n)
    m = np.zeros((len(x), 2 * n, 2 * n))
    m[:, :n, :n] = (-8.0 * g * g) * z[:, :, None] * k
    m[:, i, i] -= params.omega_a
    m[:, i, n + i] = 4.0 * g * u
    m[:, n + i, i] = 2.0 * p
    m[:, n + i, n + i] = 2.0 * z
    return m


def _newton_steps(x, f, m, params, photon):
    """The Newton steps J^-1 f of the augmented system at the rows of x,
    whose residuals are f and spin matrices m, by elimination: dq =
    f_2 / omega_a, then (dp, dz) from m, then (du, dv) from the photon
    solvers (R, K).  A singular m raises np.linalg.LinAlgError."""
    n = params.n_sites
    g, kap = params.g, params.kappa
    r, k = photon
    f0, f1, f2, f3, f4 = (f[:, :n], f[:, n:2 * n], f[:, 2 * n:3 * n],
                          f[:, 3 * n:4 * n], f[:, 4 * n:])
    q, z = x[:, 3 * n:4 * n], x[:, 4 * n:]
    # a non-finite residual gives a non-finite step, which the caller
    # reports; the invalid operations on the way need no warning
    with np.errstate(invalid="ignore"):
        dq = f2 / params.omega_a
        rf0 = matvec_rows(r, f0)
        c = -kap * rf0 - matvec_rows(k, f1)
        rhs = np.hstack([f3 - 4.0 * g * z * c, f4 - 2.0 * q * dq])
        dpz = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
        dp, dz = dpz[:, :n], dpz[:, n:]
        f1 = f1 + 2.0 * g * dp
        du = -kap * rf0 - matvec_rows(k, f1)
        dv = matvec_rows(k, f0) - kap * matvec_rows(r, f1)
    return np.hstack([du, dv, dp, dq, dz])


def _row_norms(f):
    # the 2-norm of each row, rounded as np.linalg.norm rounds one vector
    # (a dot product, then its square root); np.linalg.norm(f, axis=1)
    # sums the squares in another order
    return np.sqrt(np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0])


def _newton_stack(y, params, t_hop, photon, newton_tol, max_iter, damping):
    """Newton iteration on the stack y of packed seeds, in place.

    Each row of y ends at its seed's last iterate.  Returns y and the
    SeedOutcome of each seed: ROOT once its augmented residual is within
    newton_tol, else BUDGET, BACKTRACK, SINGULAR or NON_FINITE, for what
    stopped it.  Each step makes one batched 2N x 2N solve over the seeds
    still iterating (_newton_steps, with the photon solvers (R, K)) and at
    most two stacked flow evaluations, one for the full steps and one for
    all the halvings of the seeds that reject theirs; each seed backtracks
    on its own.  A seed leaves the stack once it has converged or failed.
    """
    outcome = np.full(len(y), SeedOutcome.ROOT, dtype=int)
    # step lengths 1, 1/2, ..., 2**-damping, exact powers of two, so that
    # x - alpha * step rounds as each halving did one at a time
    alphas = np.ldexp(1.0, -np.arange(damping + 1))
    live = np.arange(len(y))               # seed index of each stack row
    x, f = y[live], _augmented(y, params, t_hop)
    for it in range(max_iter + 1):
        ok = np.max(np.abs(f), axis=1) <= newton_tol
        if it >= max_iter:
            outcome[live[~ok]] = SeedOutcome.BUDGET
            break
        live, x, f = live[~ok], x[~ok], f[~ok]
        if not live.size:
            break
        m = _spin_matrices(x, params, photon[1])
        try:
            step = _newton_steps(x, f, m, params, photon)
        except np.linalg.LinAlgError:
            # find the singular matrices one at a time; their steps stay NaN
            step = np.full_like(f, np.nan)
            for r in range(live.size):
                rows = slice(r, r + 1)
                try:
                    step[rows] = _newton_steps(x[rows], f[rows], m[rows],
                                               params, photon)
                except np.linalg.LinAlgError:
                    outcome[live[r]] = SeedOutcome.SINGULAR
        keep = np.isfinite(step).all(axis=1)    # rows that stay in the stack
        lost = live[~keep]      # a singular row has its code already
        outcome[lost[outcome[lost] == SeedOutcome.ROOT]] = \
            SeedOutcome.NON_FINITE

        # backtracking: each seed takes its longest step alpha * step that
        # lowers the 2-norm of its residual; the full steps are evaluated
        # as one stack, then every halving of the seeds that reject theirs
        f_norm = _row_norms(f)
        trial = np.flatnonzero(keep)
        for alpha in (alphas[:1], alphas[1:]):
            if not (trial.size and alpha.size):
                break
            x_new = (x[trial][:, None] - alpha[:, None] * step[trial][:, None]
                     ).reshape(-1, x.shape[1])
            f_new = _augmented(x_new, params, t_hop)
            down = _row_norms(f_new).reshape(trial.size, alpha.size) \
                < f_norm[trial][:, None]
            hit = down.any(axis=1)
            pick = np.flatnonzero(hit) * alpha.size + down[hit].argmax(axis=1)
            x[trial[hit]], f[trial[hit]] = x_new[pick], f_new[pick]
            y[live[trial[hit]]] = x_new[pick]
            trial = trial[~hit]
        outcome[live[trial]] = SeedOutcome.BACKTRACK
        keep[trial] = False
        live, x, f = live[keep], x[keep], f[keep]
    return y, outcome


def newton_solve(seeds, params: LatticeParams, *, workers: int = 1):
    """Damped Newton iteration on the constraint-augmented 5N system.

    Per site the unknowns are (Re a, Im a, Re s, Im s, z) and the
    equations are the four photon/coherence flow components plus
    |s|^2 + z^2 - 1/4 = 0.  Each seed stops once that residual is within
    NEWTON_TOL, or after MAX_ITER steps; backtracking halves the step up
    to DAMPING times whenever the 2-norm of the residual fails to decrease.

    Each step is the solve with the 5N x 5N augmented Jacobian J, done
    by elimination (_newton_steps): with A = omega_c - T, R =
    (A^2 + kappa^2)^-1 and K = A R built once per call, only a 2N x 2N
    matrix M in (Re s, z) is factored per seed.  Given a regular
    A^2 + kappa^2, M is singular exactly when J is.

    seeds is a stack of packed states (S, 5N), solved in stacks of
    matrices M, which _pool.map_stacks sizes and, with workers > 1 from
    N = 26 up (9 seeds a stack at N = 30), runs on the process's worker
    pool, as it does the verdict stacks of the same lattice; each seed
    takes exactly the steps it would take alone, with the same bits.  BLAS
    runs on one thread inside the call, whatever the caller's threading,
    so from N = 50 up the rows do not depend on it either.  Returns
    (y, residual, outcome): the final row of each seed (S, 5N), the sup
    norm of the full flow at each row (S,), and the SeedOutcome code of
    each seed (S,) ints: ROOT for a root, else BUDGET (budget exhausted),
    BACKTRACK (step rejected), SINGULAR, NON_FINITE (the Newton step), or
    INVERSION (the replaced inversion equation fails the post-check).  A
    stack of the wrong shape raises ShapeError, and a seed off the spin
    sphere by more than SEED_SPIN_TOL, or with a NaN spin coordinate,
    raises DomainError, for the whole call; so does a singular
    A^2 + kappa^2 (kappa = 0 and omega_c an eigenvalue of T).
    """
    validate(params)
    n = params.n_sites
    y = np.array(seeds, dtype=float)
    if y.ndim != 2 or y.shape[1] != 5 * n:
        raise ShapeError(f"seed stack must have shape (S, {5 * n}), "
                         f"got {y.shape}")
    p, q, z = y[:, 2 * n:3 * n], y[:, 3 * n:4 * n], y[:, 4 * n:]
    defect = np.max(np.abs(p * p + q * q + z * z - 0.25), axis=1)
    off = np.flatnonzero(~(defect <= SEED_SPIN_TOL))     # NaN is off too
    if off.size:
        raise DomainError(f"seed {off[0]} is off the spin sphere by "
                          f"{defect[off[0]]:.3g} "
                          f"(> SEED_SPIN_TOL = {SEED_SPIN_TOL:g})")

    t_hop = hop_matrix(params)
    with one_thread():
        stacks = map_stacks(_newton_stack, y, 2 * n, n, workers, params,
                            t_hop, _photon_solvers(params, t_hop),
                            NEWTON_TOL, MAX_ITER, DAMPING)
        outcome = np.full(len(y), SeedOutcome.ROOT, dtype=int)
        if stacks:
            y = np.concatenate([rows for rows, _ in stacks])
            outcome = np.concatenate([codes for _, codes in stacks])
        # the replaced inversion equations must vanish on their own
        full = rhs_packed(y, params, t_hop)
    inversion = np.max(np.abs(full[:, 4 * n:]), axis=1)
    outcome[(outcome == SeedOutcome.ROOT) & (inversion > NEWTON_TOL)] = \
        SeedOutcome.INVERSION
    return y, np.max(np.abs(full), axis=1), outcome


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


def _dressed_seeds(profiles, amplitudes, params):
    """Template seeds as packed rows (P A, 5N): each of the P site
    profiles rescaled to each amplitude as its sup norm, profile by
    profile.  The photon quadratures are phase-dressed and the spins put
    where the coherence equation wants them, exactly on the sphere."""
    prof = np.asarray(profiles, float)
    sup = np.max(np.abs(prof), axis=1)[:, None, None]
    amp = np.asarray(amplitudes, float)[:, None]
    u = (amp * prof[:, None] / sup).reshape(-1, prof.shape[1])
    v = (params.kappa / params.omega_c) * u
    z = -0.5 / np.sqrt(1.0 + 16.0 * params.g ** 2 * u ** 2 / params.omega_a ** 2)
    p = 4.0 * params.g * u * z / params.omega_a
    a = u + 1j * v      # its Im a is +0.0 where v is -0.0 (kappa = 0)
    return np.hstack([a.real, a.imag, p, np.zeros_like(p), z])


def _seed_list(params, n_random_seeds, rng):
    """The seeds of find_all as a stack of packed rows (S, 5N), and the
    tag of each row: the dark states, the analytic branch (ring), the
    templates, then n_random_seeds random rows."""
    n = params.n_sites
    rows = [normal_state(n).pack(), inverted_normal_state(n).pack()]
    tags = ["normal state", "inverted normal state"]
    if params.bc is BoundaryCondition.Periodic:
        branch = homogeneous_srp_branch(params)
        rows += [state.pack() for state in branch]
        tags += ["analytic branch"] * len(branch)
    templates = _dressed_seeds(_profiles(params), _AMPLITUDES, params)
    tags += ["template"] * len(templates)

    # seed by seed, the draws rng.uniform(lo, hi, n) = lo + (hi - lo) *
    # rng.random(n) of |a|^2 in [0, 1), arg a, z in [-1/2, 0) and arg s
    x = rng.random((n_random_seeds, 4, n))
    a = np.sqrt(x[:, 0]) * np.exp(1j * (2.0 * np.pi * x[:, 1]))
    z = -0.5 + 0.5 * x[:, 2]
    s = np.sqrt(0.25 - z * z) * np.exp(1j * (2.0 * np.pi * x[:, 3]))
    tags += [f"random {i}" for i in range(n_random_seeds)]
    return np.vstack([rows, templates,
                      np.hstack([a.real, a.imag, s.real, s.imag, z])]), tags


def _dedup(rows, dedup_tol):
    """Keep-first dedup: sort the rows by their coordinates rounded to
    DEDUP_KEY_DECIMALS, keep each row farther than dedup_tol (sup norm)
    from every row kept before it, and return the kept indices.  Only
    kept rows whose first rounded coordinate is at most dedup_tol +
    DEDUP_WINDOW_SLACK below this row's are searched, after the kept
    first row of its run of equal rounded rows."""
    keys = np.round(rows, DEDUP_KEY_DECIMALS)
    order = np.lexsort(keys.T[::-1])
    # whether each row is within dedup_tol of its run's first row
    head = np.r_[True, (keys[order[1:]] != keys[order[:-1]]).any(axis=1)]
    first = order[np.maximum.accumulate(np.where(head, np.arange(len(order)), 0))]
    near = np.abs(rows[order] - rows[first]).max(axis=1) < dedup_tol
    kept, kept_first = [], []
    for i, i_head, i_near in zip(order.tolist(), head.tolist(), near.tolist()):
        if i_head:
            head_kept = False
        elif head_kept and i_near:
            continue
        lo = bisect_left(kept_first, keys[i, 0] - (dedup_tol + DEDUP_WINDOW_SLACK))
        if (np.abs(rows[kept[lo:]] - rows[i]).max(axis=1) < dedup_tol).any():
            continue
        head_kept |= i_head
        kept.append(i)
        kept_first.append(keys[i, 0])
    return kept


@dataclass
class RootSearchResult:
    """The kept roots of one find_all as packed rows, with their
    bookkeeping: row i is an exact symmetry image of converged Newton root
    orbit[i], so rows sharing an orbit share one spectrum."""

    roots: np.ndarray        # (R, 5N) packed states
    residual: np.ndarray     # (R,) sup norm of the full flow at each orbit's Newton root
    orbit: np.ndarray        # (R,) int
    seed_tags: list          # the seed's tag, or "symmetry image"
    seed_metadata: dict


def find_all(params: LatticeParams, *, n_random_seeds: int = N_RANDOM_SEEDS,
             rng_seed: int = 0, dedup_tol: float = DEDUP_TOL,
             workers: int = 1) -> RootSearchResult:
    """Multistart enumeration of fixed points.

    Seeds: the two dark states, the homogeneous branch pair (ring), a set
    of structured site profiles at several amplitudes, and
    n_random_seeds random sphere-respecting states.  Every root found is
    expanded by its full symmetry orbit (the images of an exact root are
    exact roots), then the list is sorted deterministically and
    de-duplicated at sup-norm distance dedup_tol.  The returned set is
    therefore closed under the symmetry group within dedup_tol.

    All seeds go to one newton_solve call, run with BLAS on one thread
    whatever the caller's threading, so the roots do not depend on it;
    workers goes to it too, and the roots do not depend on that either.
    Non-convergent seeds are dropped and counted in seed_metadata.  An
    n_random_seeds or rng_seed that is not an integer >= 0, or a
    dedup_tol that is not finite and non-negative, raises DomainError.
    """
    validate(params)
    _check_integer("n_random_seeds", n_random_seeds)
    if n_random_seeds < 0:
        raise DomainError(f"n_random_seeds must be >= 0, got {n_random_seeds}")
    validate_rng_seed(rng_seed)
    if not 0 <= dedup_tol < np.inf:
        raise DomainError(f"dedup_tol must be finite and >= 0, got {dedup_tol}")
    seeds, tags = _seed_list(params, n_random_seeds,
                             np.random.default_rng(rng_seed))
    y, residual, outcome = newton_solve(seeds, params, workers=workers)
    converged = np.flatnonzero(outcome == SeedOutcome.ROOT)

    # the roots as MeanFieldState stores them: u + 1j v turns a -0.0 into
    # +0.0, so every kept row has the bits of its state's pack()
    u, v, p, q, z = np.split(y[converged], 5, axis=1)
    a, s = u + 1j * v, p + 1j * q
    y = np.hstack([a.real, a.imag, s.real, s.imag, z])
    # every image of every root as a row, root by root, identity first
    group = len(symmetry_group(params.n_sites, params.bc)[0])
    images = symmetry_orbit(y, params.bc)
    kept = np.array(_dedup(images, dedup_tol), dtype=int)
    orbit, element = np.divmod(kept, group)
    seed = converged[orbit]

    meta = dict(n_seeds=len(seeds), n_converged=len(converged),
                n_failed=len(seeds) - len(converged),
                n_random_seeds=n_random_seeds, rng_seed=rng_seed,
                dedup_tol=dedup_tol)
    return RootSearchResult(
        roots=images[kept], residual=residual[seed], orbit=orbit,
        seed_tags=[tags[k] if g == 0 else "symmetry image"
                   for k, g in zip(seed.tolist(), element.tolist())],
        seed_metadata=meta)
