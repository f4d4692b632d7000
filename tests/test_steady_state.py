import itertools
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, BoundaryError, DomainError,
                          GridAxis, LatticeParams,
                          MeanFieldState, SeedOutcome, ShapeError,
                          UnstableWindowError,
                          critical_coupling_np, find_all,
                          homogeneous_srp_branch, hop_matrix,
                          jacobian_packed, newton_solve,
                          no_homogeneous_witness, normal_state,
                          inverted_normal_state, perturbed_normal_state,
                          rhs_packed, rhs_sup_norm, stable_class_set,
                          symmetry_orbit)
from dickelattice import _blas, _pool, steady_state, sweep
from dickelattice.steady_state import DEDUP_TOL, N_RANDOM_SEEDS, _seed_list
import seed_reference
from symmetry_reference import orbit_by_elementary_ops

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

P = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
P_OPEN = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=OBC)


# ---------------------------------------------------------------------------
# homogeneous branch

def test_branch_frozen_point():
    plus, minus = homogeneous_srp_branch(P)
    # z = -(omega_a omega_1 / 8 g^2)(1 + kappa^2/omega_1^2) = -65/216 here
    assert plus.z == pytest.approx(np.full(3, -65.0 / 216.0), rel=1e-12)
    assert np.abs(plus.a) == pytest.approx(
        np.full(3, 0.6644818186898875), rel=1e-10)
    for state in (plus, minus):
        assert rhs_sup_norm(state, P) < 1e-10
        assert state.spin_defect() < 1e-12
    # the pair is related by the sign flip
    assert minus.a == pytest.approx(-plus.a, rel=1e-12)
    assert minus.s == pytest.approx(-plus.s, rel=1e-12)
    assert minus.z == pytest.approx(plus.z, rel=1e-12)


def test_branch_exists_only_above_threshold():
    g_c = critical_coupling_np(P).g_c
    below = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.999 * g_c, bc=PBC))
    assert below == ()
    above = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=1.001 * g_c, bc=PBC))
    assert len(above) == 2
    assert homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.0, bc=PBC)) == ()


def test_branch_boundary_and_window_errors():
    with pytest.raises(BoundaryError):
        homogeneous_srp_branch(P_OPEN)
    with pytest.raises(UnstableWindowError):
        homogeneous_srp_branch(
            LatticeParams(n_sites=3, kappa=0.4, xi=0.6, g=0.8, bc=PBC))


def test_branch_residual_random_points():
    # the branch exists above its own k = 1 threshold, which sits above
    # the normal-state threshold whenever another mode goes soft first
    rng = np.random.default_rng(11)
    for _ in range(10):
        xi = rng.uniform(-0.8, 0.45)
        w1 = 1.0 - 2.0 * xi
        g_hom = 0.5 * np.sqrt(w1 + 0.4**2 / w1)
        g = rng.uniform(g_hom + 0.01, max(2.0, g_hom + 1.0))
        params = LatticeParams(n_sites=3, kappa=0.4, xi=xi, g=g, bc=PBC)
        branch = homogeneous_srp_branch(params)
        assert len(branch) == 2
        for state in branch:
            assert rhs_sup_norm(state, params) < 1e-10


# ---------------------------------------------------------------------------
# open-chain witness

def test_witness_coefficients():
    w = no_homogeneous_witness(P_OPEN)
    assert w.kappa == 0.4
    assert w.edge_coeff == pytest.approx(0.8)
    assert w.bulk_coeff == pytest.approx(0.6)
    assert w.determinant == pytest.approx(0.4 * 0.2)
    assert w.only_solution == "a = 0"
    assert len(w.conditions()) == 2


@pytest.mark.parametrize("params", [
    P,  # ring
    LatticeParams(n_sites=2, kappa=0.4, xi=0.2, bc=OBC),
    LatticeParams(n_sites=3, kappa=0.4, xi=0.0, bc=OBC),
    LatticeParams(n_sites=3, kappa=0.0, xi=0.2, bc=OBC),
])
def test_witness_degenerate_cases_raise(params):
    with pytest.raises(DomainError):
        no_homogeneous_witness(params)


# ---------------------------------------------------------------------------
# Newton

def test_newton_from_exact_and_perturbed_dark_state():
    dark = normal_state(3).pack()
    y, residual, outcome = newton_solve(dark[None], P)
    assert outcome.tolist() == [SeedOutcome.ROOT]
    assert residual.tolist() == [0.0]
    assert y.tobytes() == dark.tobytes()
    seed = perturbed_normal_state(3, rng_seed=1, scale=1e-4).pack()
    y, residual, outcome = newton_solve(seed[None], P)
    root = MeanFieldState.from_packed(y[0])
    assert outcome.tolist() == [SeedOutcome.ROOT] and residual[0] < 1e-9
    assert np.max(np.abs(root.a)) < 1e-9
    assert root.z == pytest.approx(np.full(3, -0.5), abs=1e-9)


def test_newton_rejects_off_sphere_seed():
    bad = MeanFieldState(a=np.zeros(3, complex), s=np.zeros(3, complex),
                         z=np.full(3, -0.4))
    with pytest.raises(DomainError, match="seed 0 is off the spin sphere"):
        newton_solve(bad.pack()[None], P)


def test_newton_rejects_a_list_holding_an_off_sphere_seed():
    good = np.array([normal_state(3).pack(), inverted_normal_state(3).pack()])
    bad = good.copy()
    bad[1, -1] = 0.45          # one row off the sphere by 0.0475
    with pytest.raises(DomainError, match="seed 1 is off .* by 0.0475"):
        newton_solve(bad, P)
    bad[1] = np.nan            # a NaN row is off the sphere too
    with pytest.raises(DomainError, match="seed 1 is off .* by nan"):
        newton_solve(bad, P)
    assert newton_solve(good, P)[2].tolist() == [SeedOutcome.ROOT] * 2


@pytest.mark.parametrize("shape", [(15,), (2, 20), (2, 10), (1, 2, 15), ()])
def test_newton_rejects_malformed_stacks(shape):
    with pytest.raises(ShapeError, match="seed stack must have shape"):
        newton_solve(np.zeros(shape), P)


def test_free_photon_mode_raises_domain_error():
    # open chain N = 2 at xi = omega_c = 1: A = omega_c - T is
    # [[1, -1], [-1, 1]], exactly singular, and with kappa = 0 so is
    # A^2 + kappa^2, which the Newton step inverts
    params = LatticeParams(n_sites=2, kappa=0.0, xi=1.0, omega_c=1.0, g=0.8,
                           bc=OBC)
    with pytest.raises(DomainError, match="free photon mode"):
        find_all(params)
    with pytest.raises(DomainError, match="free photon mode"):
        newton_solve(normal_state(2).pack()[None], params)
    # any loss makes it regular
    assert find_all(replace(params, kappa=0.4)).seed_metadata["n_converged"]


# ---------------------------------------------------------------------------
# multistart search

@pytest.fixture(scope="module")
def roots_ring():
    return find_all(P, rng_seed=0)


@pytest.fixture(scope="module")
def roots_open():
    return find_all(P_OPEN, rng_seed=0)


def test_find_all_contains_dark_states(roots_ring):
    packs = roots_ring.roots
    for target in (normal_state(3), inverted_normal_state(3)):
        dist = min(np.max(np.abs(y - target.pack())) for y in packs)
        assert dist < 1e-9


def test_find_all_contains_branch_pair(roots_ring):
    packs = roots_ring.roots
    for state in homogeneous_srp_branch(P):
        dist = min(np.max(np.abs(y - state.pack())) for y in packs)
        assert dist < 1e-8


def test_find_all_residuals_and_dedup(roots_ring):
    packs = roots_ring.roots
    assert np.all(roots_ring.residual < 1e-9)
    for y in packs:
        assert MeanFieldState.from_packed(y).spin_defect() < 1e-9
    for i in range(len(packs)):
        for j in range(i + 1, len(packs)):
            assert np.max(np.abs(packs[i] - packs[j])) >= DEDUP_TOL


@pytest.mark.parametrize("which", ["ring", "open"])
def test_find_all_orbit_closure(which, roots_ring, roots_open):
    params, result = ((P, roots_ring) if which == "ring"
                      else (P_OPEN, roots_open))
    packs = result.roots
    for y in packs:
        for image in symmetry_orbit(y[None], params.bc):
            dist = min(np.max(np.abs(y - image)) for y in packs)
            assert dist < DEDUP_TOL


def test_find_all_deterministic():
    r1 = find_all(P, rng_seed=3, n_random_seeds=12)
    r2 = find_all(P, rng_seed=3, n_random_seeds=12)
    assert r1.roots.shape == r2.roots.shape
    assert r1.roots.tobytes() == r2.roots.tobytes()
    assert r1.seed_metadata == r2.seed_metadata
    for key in ("n_seeds", "n_converged", "n_failed", "rng_seed"):
        assert key in r1.seed_metadata


def test_find_all_open_chain_known_profiles(roots_open):
    """Re(a) profiles of the three stable open-chain states at this point."""
    expected = [(0.748562, 0.850363, 0.748562),    # edge-symmetric, one sign
                (0.723814, 0.646249, -0.491245),   # fully asymmetric
                (0.537177, -0.368613, 0.537177)]   # ends opposing the middle
    for target in expected:
        best = np.inf
        for y in roots_open.roots:
            for image in symmetry_orbit(y[None], OBC):
                best = min(best, np.max(np.abs(image[:3] - np.array(target))))
        assert best < 2e-3, f"no root realizes Re(a) profile {target}"


def _dedup_quadratic(rows, dedup_tol):
    """The greedy keep-first dedup find_all used to run, on packed rows:
    sort by the rounded coordinates as tuples, then compare every row with
    every row kept before it.  Returns the kept indices."""
    order = sorted(range(len(rows)), key=lambda i: tuple(np.round(rows[i], 9)))
    kept = []
    for i in order:
        if any(np.max(np.abs(rows[i] - rows[k])) < dedup_tol for k in kept):
            continue
        kept.append(i)
    return kept


@pytest.mark.parametrize("params", [
    P,
    LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.8, bc=PBC),
    P_OPEN,
    LatticeParams(n_sites=30, kappa=0.4, xi=0.2, g=0.8, bc=OBC),
], ids=["ring-3", "ring-6", "open-3", "open-30"])
def test_windowed_dedup_matches_quadratic_oracle(params, monkeypatch):
    inputs = []
    windowed = steady_state._dedup

    def recording(rows, dedup_tol):
        inputs.append(rows.copy())
        kept = windowed(rows, dedup_tol)
        inputs.append(kept)
        return kept

    monkeypatch.setattr(steady_state, "_dedup", recording)
    with _blas.one_thread():
        result = find_all(params, rng_seed=0)
    [rows, kept] = inputs
    oracle = _dedup_quadratic(rows, DEDUP_TOL)
    assert kept == oracle
    assert len(result.roots) == len(oracle) < len(rows)
    assert result.roots.tobytes() == rows[oracle].tobytes()


def test_kept_rows_read_as_states_store_them(monkeypatch):
    # a seed that is an exact root with -0.0 in its imaginary parts takes
    # no Newton step; its kept row has the bits MeanFieldState gives it
    # (u + 1j v makes a -0.0 in v +0.0), as its state had when roots
    # were objects
    signed = normal_state(3).pack()
    signed[:12] = -0.0
    seed_list = steady_state._seed_list

    def with_signed_zeros(params, n_random_seeds, rng):
        rows, tags = seed_list(params, n_random_seeds, rng)
        return np.vstack([signed, rows]), ["signed zeros"] + tags

    monkeypatch.setattr(steady_state, "_seed_list", with_signed_zeros)
    result = find_all(P, rng_seed=0, n_random_seeds=0)
    [row] = result.roots[[t == "signed zeros" for t in result.seed_tags]]
    want = MeanFieldState.from_packed(signed).pack()
    assert row.tobytes() == want.tobytes() != signed.tobytes()


@pytest.mark.parametrize("dedup_tol", [DEDUP_TOL, 3e-9, 1e-9, 1e-10, 0.0])
def test_windowed_dedup_matches_quadratic_oracle_near_its_tolerance(dedup_tol):
    # clusters of rows spread over about dedup_tol, some sharing rounded
    # coordinates and some not, with signed zeros and exact repeats
    rng = np.random.default_rng(7)
    centres = np.round(rng.normal(size=(12, 15)), 2)
    centres[:, 0] = np.round(centres[:, 0], 1)      # shared first keys
    rows = np.repeat(centres, 25, axis=0)
    spread = rng.choice([0.0, 0.3, 0.9, 1.1, 3.0], len(rows))[:, None]
    rows += (dedup_tol or 1e-9) * spread * rng.uniform(-1.0, 1.0, rows.shape)
    rows[rng.random(rows.shape) < 0.05] *= -0.0
    rows = rows[rng.permutation(len(rows))]
    keys = np.round(rows, 9)
    assert len(np.unique(keys, axis=0)) < len(rows)    # runs of equal keys
    kept = steady_state._dedup(rows, dedup_tol)
    assert kept == _dedup_quadratic(rows, dedup_tol)
    assert len(centres) < len(kept) < len(rows) or dedup_tol == 0.0
    assert len(kept) == len(rows) or dedup_tol > 0.0     # 0 < 0 is false


def test_dedup_searches_a_run_whose_first_row_was_dropped():
    # first coordinates around the rounding boundary 1 + 5e-10: row 0
    # rounds down, rows 1-3 round up to one run.  Row 1 is within 1e-10 of
    # row 0 and dropped; rows 2 and 3 are farther from both kept rows, so
    # row 3 is kept although it is within 1e-10 of its run's first row.
    rows = np.zeros((4, 15))
    rows[:, 0] = 1.0000000005 + np.array([-3e-11, 3e-11, 4e-10, 1e-10])
    assert _dedup_quadratic(rows, 1e-10) == [0, 2, 3]
    assert steady_state._dedup(rows, 1e-10) == [0, 2, 3]
    assert steady_state._dedup(rows[:0], 1e-10) == []


@dataclass(frozen=True)
class _Point:
    """A root as find_all returned it before it returned packed rows."""

    state: MeanFieldState
    residual: float
    seed_tag: str
    orbit: int | None = None


def _dedup_reference(points, dedup_tol):
    """The windowed keep-first dedup find_all ran on _Point objects."""
    packs = [fp.state.pack() for fp in points]
    keys = [tuple(np.round(y, 9)) for y in packs]
    order = sorted(range(len(points)), key=keys.__getitem__)
    window = dedup_tol + 1e-8
    kept, kept_first, kept_packs = [], [], []
    for i in order:
        y = packs[i]
        lo = bisect_left(kept_first, keys[i][0] - window)
        if any(np.max(np.abs(y - kept_packs[m])) < dedup_tol
               for m in range(lo, len(kept))):
            continue
        kept.append(points[i])
        kept_first.append(keys[i][0])
        kept_packs.append(y)
    return kept


def _expand_dedup_reference(converged, params):
    """The object path find_all took after Newton: every image of every
    converged root as a _Point, then _dedup_reference."""
    expanded = []
    for k, fp in enumerate(converged):
        expanded.append(replace(fp, orbit=k))     # identity image keeps its tag
        for img in orbit_by_elementary_ops(fp.state, params.bc)[1:]:
            expanded.append(_Point(state=img, residual=fp.residual,
                                   seed_tag="symmetry image", orbit=k))
    return _dedup_reference(expanded, DEDUP_TOL)


def test_array_expansion_matches_object_path(monkeypatch):
    newton, solve = [], steady_state.newton_solve

    def recording(seeds, params, **kw):
        newton.append(solve(seeds, params, **kw))
        return newton[-1]

    monkeypatch.setattr(steady_state, "newton_solve", recording)
    cases = _oracle_params() + [
        LatticeParams(n_sites=10, kappa=0.4, xi=0.2, g=0.8, bc=PBC)]
    n_roots = n_signed_zeros = 0
    with _blas.one_thread():
        for params in cases:
            got = find_all(params, rng_seed=0)
            y, residual, outcome = newton.pop()
            _, tags = _seed_list(params, N_RANDOM_SEEDS, np.random.default_rng(0))
            converged = [_Point(state=MeanFieldState.from_packed(y[k]),
                                residual=float(residual[k]), seed_tag=tags[k])
                         for k, code in enumerate(outcome)
                         if code == SeedOutcome.ROOT]
            want = _expand_dedup_reference(converged, params)
            # every bit of each kept row is its state's, signed zeros too
            assert got.roots.tobytes() == \
                np.array([w.state.pack() for w in want]).tobytes()
            assert got.seed_tags == [w.seed_tag for w in want]
            assert got.residual.tolist() == [w.residual for w in want]
            assert got.orbit.tolist() == [w.orbit for w in want]
            assert got.orbit.dtype.kind == "i"
            n_signed_zeros += int(np.signbit(got.roots[got.roots == 0.0]).sum())
            n_roots += len(got.roots)
    # the roots carry negative zeros, so their signs are checked too
    assert n_roots > 1000 and n_signed_zeros > 0


# ---------------------------------------------------------------------------
# stacked Newton against the one-seed loop it replaced

def _augmented_one(y, params, t_hop):
    n = params.n_sites
    f = rhs_packed(y, params, t_hop)
    p, q, z = y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n:5 * n]
    f[4 * n:] = p * p + q * q + z * z - 0.25
    return f


def _augmented_jacobian_one(y, params, t_hop):
    n = params.n_sites
    # the Jacobian without hopping, then the two hopping blocks of t_hop
    j = jacobian_packed(y, replace(params, xi=0.0))
    j[:n, n:2 * n] -= t_hop
    j[n:2 * n, :n] += t_hop
    p, q, z = y[2 * n:3 * n], y[3 * n:4 * n], y[4 * n:5 * n]
    grad = np.hstack([np.zeros((n, 2 * n)),
                      np.diag(2.0 * p), np.diag(2.0 * q), np.diag(2.0 * z)])
    return np.vstack([j[:4 * n], grad])


def _photon_one(params, t_hop):
    """R = (A^2 + kappa^2)^-1 and K = A R, A = omega_c - T."""
    eye = np.eye(params.n_sites)
    a = params.omega_c * eye - t_hop
    r = np.linalg.inv(a @ a + params.kappa ** 2 * eye)
    return r, a @ r


def _spin_matrix_one(y, params, k):
    """The 2N x 2N matrix in (dp, dz) left when the photon and Im s
    unknowns of the augmented system are eliminated."""
    n, g, wa = params.n_sites, params.g, params.omega_a
    u, p, z = y[:n], y[2 * n:3 * n], y[4 * n:5 * n]
    return np.block([[(-8.0 * g * g) * z[:, None] * k - wa * np.eye(n),
                      np.diag(4.0 * g * u)],
                     [np.diag(2.0 * p), np.diag(2.0 * z)]])


def _newton_step_one(y, f, params, photon):
    """The augmented system's Newton step at y with residual f, by
    elimination: dq, then (dp, dz) from the spin matrix, then (du, dv)."""
    n, g, kap = params.n_sites, params.g, params.kappa
    r, k = photon
    f0, f1, f2, f3, f4 = np.split(f, 5)
    q, z = y[3 * n:4 * n], y[4 * n:5 * n]
    with np.errstate(invalid="ignore"):     # a non-finite f
        dq = f2 / params.omega_a
        c = -kap * (r @ f0) - k @ f1
        dp, dz = np.split(np.linalg.solve(
            _spin_matrix_one(y, params, k),
            np.concatenate([f3 - 4.0 * g * z * c, f4 - 2.0 * q * dq])), 2)
        f1 = f1 + 2.0 * g * dp
        du = -kap * (r @ f0) - k @ f1
        dv = k @ f0 - kap * (r @ f1)
    return np.concatenate([du, dv, dp, dq, dz])


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [2, 3, 30])
def test_stacked_residual_and_jacobian_match_one_state(bc, n):
    # the augmented residuals, the spin matrices and the Newton steps of a
    # stack against one state at a time, every bit
    rng = np.random.default_rng(200 + n)
    rows = [seed_reference.random_seed(rng, n) for _ in range(5)]
    rows += [normal_state(n).pack(), np.zeros(5 * n), -np.zeros(5 * n)]
    y = np.array(rows)
    for g, kappa in ((0.6, 0.4), (0.0, 0.0), (1.3, 0.05)):
        params = LatticeParams(n_sites=n, kappa=kappa, xi=0.2, g=g,
                               omega_a=0.9, bc=bc)
        t_hop = hop_matrix(params)
        photon = steady_state._photon_solvers(params, t_hop)
        assert all(got.tobytes() == want.tobytes() for got, want
                   in zip(photon, _photon_one(params, t_hop)))
        augmented = steady_state._augmented(y, params, t_hop)
        matrices = steady_state._spin_matrices(y, params, photon[1])
        assert augmented.shape == y.shape
        assert matrices.shape == (len(y), 2 * n, 2 * n)
        # the zero rows have singular spin matrices
        regular = np.abs(y[:, 4 * n:]).min(axis=1) > 0
        steps = iter(steady_state._newton_steps(
            y[regular], augmented[regular], matrices[regular], params, photon))
        for k, y_k in enumerate(y):
            # tobytes compares every bit, the signs of zeros included
            f_k = _augmented_one(y_k, params, t_hop)
            assert augmented[k].tobytes() == f_k.tobytes()
            assert matrices[k].tobytes() == \
                _spin_matrix_one(y_k, params, photon[1]).tobytes()
            if regular[k]:
                assert next(steps).tobytes() == \
                    _newton_step_one(y_k, f_k, params, photon).tobytes()
        assert next(steps, None) is None


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [2, 3, 30])
def test_eliminated_step_matches_dense_augmented_solve(bc, n):
    # the eliminated step equals the dense 5N x 5N solve in exact
    # arithmetic.  In floating point each differs from the exact step by
    # a small multiple of eps * cond(J) relative (a stable solve of a
    # system of condition cond(J)); the bound allows 10 eps cond(J)
    rng = np.random.default_rng(300 + n)
    y = np.array([seed_reference.random_seed(rng, n) for _ in range(6)])
    eps = np.finfo(float).eps
    worst = 0.0
    for g, kappa in ((0.8, 0.4), (0.0, 0.4), (0.8, 0.0), (0.0, 0.0),
                     (1.3, 0.05)):
        params = LatticeParams(n_sites=n, kappa=kappa, xi=0.2, g=g,
                               omega_a=0.9, bc=bc)
        t_hop = hop_matrix(params)
        # omega_c = 1 lies outside the band [-2 xi, 2 xi] of T, so A is
        # regular, at kappa = 0 too
        photon = steady_state._photon_solvers(params, t_hop)
        f = steady_state._augmented(y, params, t_hop)
        steps = steady_state._newton_steps(
            y, f, steady_state._spin_matrices(y, params, photon[1]), params,
            photon)
        for y_k, f_k, step in zip(y, f, steps):
            jac = _augmented_jacobian_one(y_k, params, t_hop)
            dense = np.linalg.solve(jac, f_k)
            err = np.linalg.norm(step - dense) / np.linalg.norm(dense)
            bound = 10 * eps * np.linalg.cond(jac)
            assert err <= bound
            worst = max(worst, err / bound)
    # the two routes round differently
    assert worst > 0


def _newton_solve_reference(seed, params, *, newton_tol=steady_state.NEWTON_TOL,
                            max_iter=steady_state.MAX_ITER,
                            damping=steady_state.DAMPING):
    """The damped Newton iteration newton_solve used to run on one seed,
    started from its packed row, each step eliminated as newton_solve
    does.  Returns the last iterate, the sup norm of the full flow there,
    and the SeedOutcome of the iteration."""
    n = params.n_sites
    t_hop = hop_matrix(params)
    photon = _photon_one(params, t_hop)
    y = np.array(seed, dtype=float)
    f = _augmented_one(y, params, t_hop)
    outcome = SeedOutcome.ROOT
    for _ in range(max_iter):
        if np.max(np.abs(f)) <= newton_tol:
            break
        try:
            step = _newton_step_one(y, f, params, photon)
        except np.linalg.LinAlgError:
            outcome = SeedOutcome.SINGULAR
            break
        if not np.all(np.isfinite(step)):
            outcome = SeedOutcome.NON_FINITE
            break
        f_norm = np.linalg.norm(f)
        alpha = 1.0
        for _ in range(damping + 1):
            y_new = y - alpha * step
            f_new = _augmented_one(y_new, params, t_hop)
            if np.linalg.norm(f_new) < f_norm:
                break
            alpha *= 0.5
        else:
            outcome = SeedOutcome.BACKTRACK
            break
        y, f = y_new, f_new
    if outcome == SeedOutcome.ROOT and np.max(np.abs(f)) > newton_tol:
        outcome = SeedOutcome.BUDGET
    full = rhs_packed(y, params, t_hop)
    if (outcome == SeedOutcome.ROOT
            and np.max(np.abs(full[4 * n:])) > newton_tol):
        outcome = SeedOutcome.INVERSION
    return y, np.max(np.abs(full)), outcome


def _reference_outcomes(seeds, params, **kw):
    """_newton_solve_reference on each row of seeds, in newton_solve's
    (rows, residuals, outcomes) form."""
    out = [_newton_solve_reference(y, params, **kw) for y in seeds]
    return (np.array([y for y, _, _ in out]).reshape(seeds.shape),
            np.array([r for _, r, _ in out]),
            np.array([c for _, _, c in out], dtype=int))


def _rows(outcomes, k):
    """Seed k's part of newton_solve's (rows, residuals, outcomes)."""
    return tuple(part[k:k + 1] for part in outcomes)


def _assert_same_outcomes(got, want):
    (y, residual, outcome), (y_want, residual_want, outcome_want) = got, want
    # tobytes compares every bit, the signs of zeros included
    assert y.shape == y_want.shape and y.tobytes() == y_want.tobytes()
    assert residual.shape == residual_want.shape
    assert residual.tobytes() == residual_want.tobytes()
    assert outcome.shape == outcome_want.shape == (len(y),)
    assert outcome.dtype.kind == "i"
    assert outcome.tolist() == outcome_want.tolist()


def _oracle_params():
    grid = [LatticeParams(n_sites=3, kappa=0.4, xi=xi, g=g, bc=bc)
            for bc in (PBC, OBC)
            for xi in np.linspace(0.0, 0.45, 4)
            for g in np.linspace(0.3, 1.1, 4)]
    return grid + [LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.8, bc=PBC),
                   LatticeParams(n_sites=30, kappa=0.4, xi=0.2, g=0.8, bc=OBC)]


@pytest.fixture(scope="module")
def oracle_cases():
    """Every seed find_all starts from on the 4 x 4 three-site grid of
    both boundary conditions, ring N = 6 and open chain N = 30, with the
    one-seed loop's outcome for each."""
    with _blas.one_thread():
        cases = []
        for params in _oracle_params():
            seeds, _ = _seed_list(params, N_RANDOM_SEEDS, np.random.default_rng(0))
            cases.append((params, seeds, _reference_outcomes(seeds, params)))
    return cases


@pytest.mark.parametrize("stack_bytes", [_pool.STACK_BYTES, 2 ** 21, 1],
                         ids=["default", "2MiB", "one-seed-stacks"])
def test_stacked_newton_matches_one_seed_loop(oracle_cases, stack_bytes,
                                             monkeypatch):
    monkeypatch.setattr(_pool, "STACK_BYTES", stack_bytes)
    kinds = set()
    with _blas.one_thread():
        for params, seeds, want in oracle_cases:
            _assert_same_outcomes(newton_solve(seeds, params), want)
            kinds |= set(want[2].tolist())
    # the grid reaches converged roots and rejected steps
    assert {SeedOutcome.ROOT, SeedOutcome.BACKTRACK} <= kinds


@pytest.mark.parametrize("max_iter, damping", [(0, 30), (3, 30), (100, 0),
                                               (6, 1), (100, 2), (100, 5)])
def test_stacked_newton_budgets_match_one_seed_loop(max_iter, damping,
                                                    monkeypatch):
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=PBC)
    seeds, _ = _seed_list(params, 16, np.random.default_rng(1))
    monkeypatch.setattr(steady_state, "MAX_ITER", max_iter)
    monkeypatch.setattr(steady_state, "DAMPING", damping)
    with _blas.one_thread():
        want = _reference_outcomes(seeds, params, max_iter=max_iter,
                                   damping=damping)
        got = newton_solve(seeds, params)
    _assert_same_outcomes(got, want)
    assert set(want[2].tolist()) & {SeedOutcome.BUDGET, SeedOutcome.BACKTRACK}


def test_newton_tries_all_halvings_in_one_flow_evaluation(monkeypatch):
    # ring cell (1, 1) of the 4 x 4 three-site grid, with the sweep's seed
    # for it: some of its seeds stall and reject every halving
    xi, g = GridAxis(0.0, 0.45, 4).values()[1], GridAxis(0.3, 1.1, 4).values()[1]
    params = LatticeParams(n_sites=3, kappa=0.4, xi=xi, g=g, bc=PBC)
    seeds, _ = _seed_list(params, N_RANDOM_SEEDS,
                          np.random.default_rng(sweep._cell_seed(0, 1, 1)))
    calls = dict.fromkeys(["_augmented", "_spin_matrices"], 0)
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(steady_state, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(steady_state, name, counting)
    with _blas.one_thread():
        _, _, outcome = newton_solve(seeds, params)
    assert len(seeds) * (2 * 3) ** 2 * 8 <= _pool.STACK_BYTES
    # one stack of Newton matrices per Newton iteration
    iterations = calls["_spin_matrices"]
    assert iterations > 50
    assert SeedOutcome.BACKTRACK in outcome
    # the full steps, then every halving: at most two flow evaluations
    # per iteration, plus the one at the seeds of the (single) stack
    assert calls["_augmented"] <= 2 * iterations + 1


def test_one_state_newton_returns_or_raises_like_one_seed_loop(oracle_cases):
    # each seed alone, as a one-row stack
    params, seeds, want = next(c for c in oracle_cases if c[0].n_sites == 6)
    with _blas.one_thread():
        for k in range(len(seeds)):
            _assert_same_outcomes(newton_solve(seeds[k:k + 1], params),
                                  _rows(want, k))


def test_stacked_newton_isolates_singular_seeds():
    # at g = 0 the Newton matrix in (Re s, z) has determinant
    # -2 omega_a z per site, so a seed with a site on the equator is singular
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.0, bc=PBC)
    equator = MeanFieldState(a=np.full(3, 0.1 + 0j),
                             s=np.array([0.5, 0.3 + 0.4j, 0.3j]),
                             z=np.array([0.0, 0.0, -0.4]))
    rng = np.random.default_rng(5)
    seeds = np.array([normal_state(3).pack(), equator.pack()]
                     + [seed_reference.random_seed(rng, 3) for _ in range(4)])
    with _blas.one_thread():
        want = _reference_outcomes(seeds, params)
        got = newton_solve(seeds, params)
        alone = newton_solve(seeds[1:2], params)
    assert want[2][1] == SeedOutcome.SINGULAR
    assert (want[2] == SeedOutcome.ROOT).sum() >= 1
    _assert_same_outcomes(got, want)
    _assert_same_outcomes(alone, _rows(want, 1))


def test_find_all_runs_newton_on_one_blas_thread(two_blas_threads):
    params = LatticeParams(n_sites=30, kappa=0.4, xi=0.2, g=0.8, bc=OBC)
    at_two = find_all(params, rng_seed=0)
    with _blas.one_thread():
        at_one = find_all(params, rng_seed=0)
    assert _blas.thread_count() == two_blas_threads
    assert at_two.seed_metadata == at_one.seed_metadata
    assert at_two.roots.tobytes() == at_one.roots.tobytes()
    assert at_two.residual.tobytes() == at_one.residual.tobytes()
    assert at_two.seed_tags == at_one.seed_tags
    assert at_two.orbit.tolist() == at_one.orbit.tolist()


def test_newton_solve_runs_on_one_blas_thread(two_blas_threads):
    # from N = 50 up a multi-threaded BLAS rounds the solves differently
    params = LatticeParams(n_sites=50, kappa=0.4, xi=0.2, g=0.8, bc=PBC)
    seeds, _ = _seed_list(params, N_RANDOM_SEEDS, np.random.default_rng(0))
    at_two = newton_solve(seeds, params)
    assert _blas.thread_count() == two_blas_threads
    with _blas.one_thread():
        at_one = newton_solve(seeds, params)
    for got, want in zip(at_two, at_one):
        assert got.tobytes() == want.tobytes()


def test_one_thread_blocks_open_in_two_threads(two_blas_threads):
    # thread a enters, thread b enters, a leaves while b is still inside:
    # b must stay on one thread, and the count comes back when b leaves
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with _blas.one_thread():
            a_in.set()
            b_in.wait(60)
        a_out.set()

    def b():
        a_in.wait(60)
        with _blas.one_thread():
            b_in.set()
            a_out.wait(60)
            seen.append(_blas.thread_count())

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert seen == [1]
    assert _blas.thread_count() == two_blas_threads


def test_find_all_from_two_threads(two_blas_threads):
    cells = [LatticeParams(n_sites=3, kappa=0.4, xi=xi, g=g, bc=bc)
             for bc in (PBC, OBC) for xi, g in ((0.1, 0.5), (0.3, 0.9))]
    with _blas.one_thread():
        want = [find_all(c, rng_seed=0).roots.tobytes() for c in cells]
    got = {}
    start = threading.Barrier(2)

    def run(k):
        start.wait(60)
        for _ in range(3):
            got[k] = [find_all(c, rng_seed=0).roots.tobytes() for c in cells]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert got == {0: want, 1: want}
    assert _blas.thread_count() == two_blas_threads


def test_inversion_post_check_rejects_converged_seeds(monkeypatch):
    # offset every inversion rate by 1e-3: the constraint-substituted
    # system never sees it and converges as before, the post-check does
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=PBC)
    seeds, _ = _seed_list(params, 8, np.random.default_rng(2))
    with _blas.one_thread():
        clean = newton_solve(seeds, params)
    flow = steady_state.rhs_packed

    def offset(y, params, t_hop=None):
        f = flow(y, params, t_hop)
        f[..., 4 * params.n_sites:] += 1e-3
        return f

    # the package and the one-seed loop both see the offset flow
    monkeypatch.setattr(steady_state, "rhs_packed", offset)
    monkeypatch.setattr(sys.modules[__name__], "rhs_packed", offset)
    with _blas.one_thread():
        want = _reference_outcomes(seeds, params)
        got = newton_solve(seeds, params)
        alone = newton_solve(normal_state(3).pack()[None], params)
    _assert_same_outcomes(got, want)
    assert alone[2].tolist() == [SeedOutcome.INVERSION]
    root = clean[2] == SeedOutcome.ROOT
    assert root.sum() >= 10
    assert got[0].tobytes() == clean[0].tobytes()
    assert got[2].tolist() == np.where(root, SeedOutcome.INVERSION,
                                       clean[2]).tolist()


def test_non_finite_step_is_its_own_outcome(monkeypatch):
    # an infinite residual at one seed's start makes its Newton step
    # non-finite while its Jacobian stays regular
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=PBC)
    marked = MeanFieldState(a=np.full(3, 0.1234567 + 0.05j),
                            s=np.full(3, 0.3 + 0j), z=np.full(3, -0.4))
    seeds, _ = _seed_list(params, 4, np.random.default_rng(3))
    seeds = np.concatenate([seeds[:1], marked.pack()[None], seeds[2:]])
    with _blas.one_thread():
        clean = newton_solve(seeds, params)
    augmented, augmented_one = steady_state._augmented, _augmented_one

    def poisoned(y, params, t_hop):
        f = augmented(y, params, t_hop)
        f[y[:, 0] == 0.1234567] = np.inf
        return f

    def poisoned_one(y, params, t_hop):
        return poisoned(y[None], params, t_hop)[0]

    monkeypatch.setattr(steady_state, "_augmented", poisoned)
    monkeypatch.setattr(sys.modules[__name__], "_augmented_one", poisoned_one)
    with _blas.one_thread():
        want = _reference_outcomes(seeds, params)
        got = newton_solve(seeds, params)
        alone = newton_solve(seeds[1:2], params)
    _assert_same_outcomes(got, want)
    _assert_same_outcomes(alone, _rows(want, 1))
    assert got[2][1] == SeedOutcome.NON_FINITE
    assert clean[2][1] == SeedOutcome.ROOT
    _assert_same_outcomes(_rows(got, 0), _rows(clean, 0))
    _assert_same_outcomes(tuple(part[2:] for part in got),
                          tuple(part[2:] for part in clean))


@pytest.mark.parametrize("params, seed_states", [
    (LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=PBC), 4),
    (LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=OBC), 2),
    (LatticeParams(n_sites=30, kappa=0.4, xi=0.2, g=0.8, bc=OBC), 2),
], ids=["ring-3", "open-3", "open-30"])
def test_find_all_builds_states_only_for_kept_roots(params, seed_states,
                                                    monkeypatch):
    # the dark states and the ring's analytic branch pair are the only
    # states built before Newton; from Newton through the verdicts the
    # roots are rows only, and stable_class_set builds one state per
    # stable class, to label it
    states, marks = [], []
    post_init = MeanFieldState.__post_init__
    solve = steady_state.newton_solve

    def counting(self):
        states.append(self)
        post_init(self)

    def marking(seeds, params, **kw):
        marks.append(len(states))
        return solve(seeds, params, **kw)

    monkeypatch.setattr(MeanFieldState, "__post_init__", counting)
    monkeypatch.setattr(steady_state, "newton_solve", marking)
    result = find_all(params, rng_seed=0)
    assert marks == [seed_states] and len(states) == seed_states
    found = stable_class_set(result, params)
    assert len(found.classes) >= 1
    assert len(states) == seed_states + len(found.classes)
    # the template and random seeds add no state
    del states[:]
    steady_state._seed_list(params, 0, np.random.default_rng(0))
    assert len(states) == seed_states


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [3, 4, 10, 30])
def test_seed_list_matches_per_seed_reference(n, bc):
    # the array-built rows against the seed-by-seed loop, every bit; at
    # kappa = 0 the templates' Im a would carry -0.0 if built naively
    for g, kappa, rng_seed, n_random in itertools.product(
            (0.0, 0.8), (0.0, 0.4), (0, 1), (0, N_RANDOM_SEEDS)):
        params = LatticeParams(n_sites=n, kappa=kappa, xi=0.2, g=g, bc=bc)
        rng, rng_ref = (np.random.default_rng(rng_seed) for _ in range(2))
        rows, tags = _seed_list(params, n_random, rng)
        want_rows, want_tags = seed_reference.seed_list(params, n_random,
                                                        rng_ref)
        assert tags == want_tags
        assert rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        # the same stream is consumed
        assert rng.random() == rng_ref.random()
