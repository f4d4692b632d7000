import numpy as np
import pytest

from dickelattice import (NO_BRANCH, BoundaryCondition, BoundaryError,
                          DomainError, LatticeParams, UnstableWindowError,
                          critical_coupling_np, find_all,
                          homogeneous_srp_branch, newton_solve,
                          no_homogeneous_witness, normal_state,
                          inverted_normal_state, perturbed_normal_state,
                          rhs_sup_norm, symmetry_orbit)
from dickelattice import _blas, steady_state
from dickelattice.steady_state import DEDUP_TOL

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

P = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
P_OPEN = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=OBC)


# ---------------------------------------------------------------------------
# homogeneous branch

def test_branch_frozen_point():
    plus, minus = homogeneous_srp_branch(P)
    # z = -(omega_a omega_1 / 8 g^2)(1 + kappa^2/omega_1^2) = -65/216 here
    assert plus.state.z == pytest.approx(np.full(3, -65.0 / 216.0), rel=1e-12)
    assert np.abs(plus.state.a) == pytest.approx(
        np.full(3, 0.6644818186898875), rel=1e-10)
    for fp in (plus, minus):
        assert fp.converged
        assert fp.residual < 1e-10
        assert rhs_sup_norm(fp.state, P) < 1e-10
        assert fp.state.spin_defect() < 1e-12
    # the pair is related by the sign flip
    assert minus.state.a == pytest.approx(-plus.state.a, rel=1e-12)
    assert minus.state.s == pytest.approx(-plus.state.s, rel=1e-12)
    assert minus.state.z == pytest.approx(plus.state.z, rel=1e-12)


def test_branch_exists_only_above_threshold():
    g_c = critical_coupling_np(P).g_c
    below = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.999 * g_c, bc=PBC))
    assert below is NO_BRANCH
    above = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=1.001 * g_c, bc=PBC))
    assert above is not NO_BRANCH
    assert homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.0, bc=PBC)) is NO_BRANCH


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
        branch = homogeneous_srp_branch(
            LatticeParams(n_sites=3, kappa=0.4, xi=xi, g=g, bc=PBC))
        assert branch is not NO_BRANCH
        for fp in branch:
            assert fp.residual < 1e-10


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
    fp = newton_solve(normal_state(3), P, seed_tag="dark")
    assert fp.converged and fp.residual == 0.0 and fp.seed_tag == "dark"
    fp2 = newton_solve(perturbed_normal_state(3, rng_seed=1, scale=1e-4), P)
    assert np.max(np.abs(fp2.state.a)) < 1e-9
    assert fp2.state.z == pytest.approx(np.full(3, -0.5), abs=1e-9)


def test_newton_rejects_off_sphere_seed():
    bad = normal_state(3)
    bad = bad.__class__(a=bad.a, s=bad.s, z=np.full(3, -0.4))
    with pytest.raises(DomainError):
        newton_solve(bad, P)


# ---------------------------------------------------------------------------
# multistart search

@pytest.fixture(scope="module")
def roots_ring():
    return find_all(P, rng_seed=0)


@pytest.fixture(scope="module")
def roots_open():
    return find_all(P_OPEN, rng_seed=0)


def test_find_all_contains_dark_states(roots_ring):
    packs = [fp.state.pack() for fp in roots_ring]
    for target in (normal_state(3), inverted_normal_state(3)):
        dist = min(np.max(np.abs(y - target.pack())) for y in packs)
        assert dist < 1e-9


def test_find_all_contains_branch_pair(roots_ring):
    packs = [fp.state.pack() for fp in roots_ring]
    for fp in homogeneous_srp_branch(P):
        dist = min(np.max(np.abs(y - fp.state.pack())) for y in packs)
        assert dist < 1e-8


def test_find_all_residuals_and_dedup(roots_ring):
    packs = [fp.state.pack() for fp in roots_ring]
    for fp in roots_ring:
        assert fp.converged and fp.residual < 1e-9
        assert fp.state.spin_defect() < 1e-9
    for i in range(len(packs)):
        for j in range(i + 1, len(packs)):
            assert np.max(np.abs(packs[i] - packs[j])) >= DEDUP_TOL


@pytest.mark.parametrize("which", ["ring", "open"])
def test_find_all_orbit_closure(which, roots_ring, roots_open):
    params, result = ((P, roots_ring) if which == "ring"
                      else (P_OPEN, roots_open))
    packs = [fp.state.pack() for fp in result]
    for fp in result:
        for image in symmetry_orbit(fp.state, params.bc):
            dist = min(np.max(np.abs(y - image.pack())) for y in packs)
            assert dist < DEDUP_TOL


def test_find_all_deterministic():
    r1 = find_all(P, rng_seed=3, n_random_seeds=12)
    r2 = find_all(P, rng_seed=3, n_random_seeds=12)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.state.pack(), b.state.pack())
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
        for fp in roots_open:
            for image in symmetry_orbit(fp.state, OBC):
                best = min(best, np.max(np.abs(image.a.real - np.array(target))))
        assert best < 2e-3, f"no root realizes Re(a) profile {target}"


def _dedup_quadratic(points, dedup_tol):
    """The greedy keep-first dedup find_all used to run: every point is
    compared with every point kept before it."""
    points = sorted(points, key=lambda fp: tuple(np.round(fp.state.pack(), 9)))
    kept = []
    for fp in points:
        y = fp.state.pack()
        if any(np.max(np.abs(y - k.state.pack())) < dedup_tol for k in kept):
            continue
        kept.append(fp)
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

    def recording(points, dedup_tol):
        inputs.append(list(points))
        return windowed(points, dedup_tol)

    monkeypatch.setattr(steady_state, "_dedup", recording)
    with _blas.one_thread():
        result = find_all(params, rng_seed=0)
    [points] = inputs
    oracle = _dedup_quadratic(points, DEDUP_TOL)
    assert len(result.roots) == len(oracle) < len(points)
    assert all(fp is want for fp, want in zip(result.roots, oracle))
