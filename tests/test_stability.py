import numpy as np
import pytest

from dickelattice import (BisectionFailure, BoundaryCondition,
                          LatticeParams, MeanFieldState, Verdict,
                          bisect_np_threshold, critical_coupling_np,
                          find_all, homogeneous_srp_branch,
                          jacobian_packed, normal_state, normal_state_abscissa,
                          projected_jacobian, tangent_basis)
from dickelattice._blas import one_thread
from dickelattice.errors import ZeroModeMismatch
from dickelattice.stability import BISECT_BRACKET, _cross, classify
import stability_reference
from routh_reference import char_poly, routh_rhp_count, routh_verdict

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open


def _params(g, xi=0.2, bc=PBC, n=3):
    return LatticeParams(n_sites=n, kappa=0.4, xi=xi, g=g, bc=bc)


def _classify(state, params):
    """The verdict at one state, as a one-row stack."""
    [report] = classify(state.pack()[None], params)
    return report


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_dark_state_verdict_flips_at_threshold(bc):
    g_c = critical_coupling_np(_params(0.0, bc=bc)).g_c
    below = _classify(normal_state(3), _params(0.95 * g_c, bc=bc))
    above = _classify(normal_state(3), _params(1.05 * g_c, bc=bc))
    assert below.verdict is Verdict.Stable and below.spectral_abscissa < 0
    assert above.verdict is Verdict.Unstable and above.spectral_abscissa > 0
    # right at the formula value the leading mode sits on the axis
    at = _classify(normal_state(3), _params(g_c, bc=bc))
    assert abs(at.spectral_abscissa) < 1e-6


def test_structural_zero_count_and_sorting():
    # the verdict reads the 4N physical eigenvalues; the N structural
    # zeros of the full 5N x 5N Jacobian never enter
    rep = _classify(normal_state(3), _params(0.3))
    assert rep.eigenvalues.size == 12
    assert np.all(np.diff(rep.eigenvalues.real) <= 1e-12)
    full = np.linalg.eigvals(jacobian_packed(normal_state(3).pack(),
                                            _params(0.3)))
    assert int(np.sum(np.abs(full) < 1e-12)) == 3
    assert rep.spectral_abscissa == pytest.approx(
        np.max(full[np.abs(full) >= 1e-12].real), abs=1e-12)
    # conjugate-closed spectrum (real matrix)
    w = np.sort_complex(rep.eigenvalues)
    wc = np.sort_complex(rep.eigenvalues.conj())
    assert w == pytest.approx(wc, abs=1e-9)


def test_branch_point_spectrum_matches_projection():
    p = _params(0.7)
    plus, _ = homogeneous_srp_branch(p)
    rep = _classify(plus, p)
    assert rep.verdict is Verdict.Stable
    # the full spectrum is the physical one plus N zeros
    w_full = np.linalg.eigvals(jacobian_packed(plus.pack(), p))
    w_phys = w_full[np.argsort(np.abs(w_full))[3:]]
    w_proj = rep.eigenvalues
    assert w_proj.size == 12
    key = lambda w: sorted(zip(np.round(w.real, 7), np.round(w.imag, 7)))
    for (ra, ia), (rb, ib) in zip(key(w_phys), key(w_proj)):
        assert ra == pytest.approx(rb, abs=1e-6)
        assert ia == pytest.approx(ib, abs=1e-6)


def test_cross_has_the_bits_of_np_cross():
    # tangent_basis's spelled-out cross product keeps np.cross's rounding,
    # its signed zeros and its NaN propagation
    u, v = np.random.default_rng(7).normal(size=(2, 4, 3, 5))
    u[0, :, 0] = (0.0, -0.0, 1.0)
    v[0, :, 0] = (-0.0, 0.0, 1.0)
    u[1, 2, 1] = np.nan
    assert _cross(u, v).tobytes() == np.cross(u, v, axis=1).tobytes()


def test_tangent_basis_annihilates_constraint_gradients():
    p = _params(0.7)
    state, _ = homogeneous_srp_branch(p)
    [b] = tangent_basis(state.pack()[None])
    assert b.shape == (15, 12)
    grad = np.zeros((15, 3))
    for k in range(3):
        grad[6 + k, k] = 2.0 * state.s[k].real
        grad[9 + k, k] = 2.0 * state.s[k].imag
        grad[12 + k, k] = 2.0 * state.z[k]
    assert np.max(np.abs(b.T @ grad)) < 1e-12


def _constraint_gradients(state):
    """Unit gradients of the N spin lengths |s_j|^2 + z_j^2, 5N x N."""
    n = state.n
    grad = np.zeros((5 * n, n))
    k = np.arange(n)
    grad[2 * n + k, k] = state.s.real
    grad[3 * n + k, k] = state.s.imag
    grad[4 * n + k, k] = state.z
    return grad / np.linalg.norm(grad, axis=0)


def _sphere_state(n, rng):
    """Random state on the spin spheres with one site near the Re s axis
    and one at a pole, so both tangent seeds and the dark limit occur."""
    v = rng.normal(size=(n, 3))
    v[0] = (0.95, np.sqrt(1 - 0.95 ** 2), 0.0)
    v[1] = (0.0, 0.0, -1.0)
    v = 0.5 * v / np.linalg.norm(v, axis=1)[:, None]
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return MeanFieldState(a=a, s=v[:, 0] + 1j * v[:, 1], z=v[:, 2])


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [3, 30, 50])
def test_tangent_basis_is_orthonormal_and_tangent(n, bc):
    p = _params(0.8, bc=bc, n=n)
    state = _sphere_state(n, np.random.default_rng(n))
    assert np.max(np.abs(state.s.real)) / 0.5 >= 0.9   # the e_y seed runs
    assert np.min(np.abs(state.s.real)) / 0.5 < 0.9    # and the e_x seed
    result = find_all(p, rng_seed=0, n_random_seeds=0)
    roots = {k: MeanFieldState.from_packed(y)
             for k, y in zip(result.orbit.tolist(), result.roots)}
    states = [state, *roots.values()]
    bases = tangent_basis([x.pack() for x in states])
    assert bases.shape == (len(states), 5 * n, 4 * n)
    for k, (x, b) in enumerate(zip(states, bases)):
        assert np.max(np.abs(b.T @ b - np.eye(4 * n))) <= 1e-14
        assert np.max(np.abs(b.T @ _constraint_gradients(x))) <= 1e-14
        # the per-site loop it replaced, up to rounding in the vector norms
        loop = stability_reference.tangent_basis(x)
        assert np.max(np.abs(b - loop)) <= 4 * np.finfo(float).eps
        if k:
            # at a fixed point the Jacobian maps the tangent space into
            # itself, which is why the projected spectrum is the physical one
            j = jacobian_packed(x.pack(), p)
            assert np.max(np.abs(j @ b - b @ (b.T @ j @ b))) <= 1e-9


# the five reference points of the three-site diagrams, then larger lattices
REFERENCE_POINTS = [(PBC, 3, 0.2, 0.8), (PBC, 3, 0.48, 0.8),
                    (OBC, 3, 0.2, 0.8), (OBC, 3, 0.67, 0.9),
                    (OBC, 3, 0.3, 0.5), (PBC, 6, 0.2, 0.8),
                    (OBC, 30, 0.2, 0.8)]


@pytest.mark.parametrize("bc, n, xi, g", REFERENCE_POINTS)
def test_tangent_verdict_matches_zero_mode_reference(bc, n, xi, g):
    # the left-eigenvector route excludes N matched zero modes from the
    # 5N x 5N spectrum; wherever that matching closes, the tangent-space
    # spectrum must give the same verdict and abscissa
    p = _params(g, xi=xi, bc=bc, n=n)
    roots = find_all(p, rng_seed=0).roots
    compared = 0
    # numpy's BLAS on one thread, for the package's classify at N = 30
    # (and the reference's eigvals); the reference's scipy.linalg.eig runs
    # on scipy's own BLAS, which is not pinned
    with one_thread():
        for y, got in zip(roots, classify(roots, p)):
            try:
                want = stability_reference.classify(
                    MeanFieldState.from_packed(y), p)
            except ZeroModeMismatch:
                continue
            assert got.verdict is want.verdict
            assert abs(got.spectral_abscissa
                       - want.spectral_abscissa) <= 1e-10
            assert got.eigenvalues.size == 4 * n
            compared += 1
    assert compared == len(roots) > 0


def test_classify_zero_mode_mismatch_on_degenerate_spin():
    # s = z = 0 has no spin sphere, hence no tangent plane
    state = normal_state(3)
    bad = state.__class__(a=state.a, s=state.s, z=np.zeros(3))
    with pytest.raises(ZeroModeMismatch):
        _classify(bad, _params(0.3))


def test_normal_state_abscissa_matches_full_spectrum():
    for bc in (PBC, OBC):
        for g in (0.3, 0.6):
            p = _params(g, bc=bc)
            block = stability_reference.normal_state_block_abscissa(p)
            assert normal_state_abscissa(p) == pytest.approx(block, abs=1e-9)


# ---------------------------------------------------------------------------
# threshold bisection

def test_bisection_matches_formula_and_is_size_independent():
    vals = {}
    for n in (3, 6):
        p = LatticeParams(n_sites=n, kappa=0.4, xi=0.2, bc=PBC)
        vals[n] = bisect_np_threshold(p)
        assert abs(vals[n] - critical_coupling_np(p).g_c) < 2e-6
    # identical decision sequence on the shared bracket: bit-equal results
    assert vals[3] == vals[6]


def test_bisection_open_chain():
    p = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, bc=OBC)
    assert abs(bisect_np_threshold(p) - 0.48483511835358767) < 2e-6


def test_bisection_needs_a_straddling_bracket():
    # omega_a = 100 puts the threshold near 4.8, above BISECT_BRACKET
    p = LatticeParams(n_sites=3, omega_a=100.0, kappa=0.4, xi=0.2, bc=PBC)
    assert critical_coupling_np(p).g_c > BISECT_BRACKET[1]
    with pytest.raises(BisectionFailure):
        bisect_np_threshold(p)


# ---------------------------------------------------------------------------
# Routh-Hurwitz cross-check

def test_char_poly_against_numpy():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.normal(size=(6, 6))
        mine = char_poly(a)
        ref = np.poly(a)
        assert mine == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_routh_counts_on_known_polynomials():
    assert routh_rhp_count([1, 6, 11, 6]) == 0        # roots -1, -2, -3
    assert routh_rhp_count([1, 4, 1, -6]) == 1        # roots 1, -2, -3
    assert routh_rhp_count([1, -3, 2]) == 2           # roots 1, 2
    assert routh_rhp_count([1, 0, 1]) == 0            # pure imaginary pair


def test_routh_agrees_with_eigenvalues_at_roots():
    p = _params(0.8)
    result = find_all(p, rng_seed=2, n_random_seeds=16)
    checked = 0
    for y, rep in zip(result.roots, classify(result.roots, p)):
        if rep.verdict is Verdict.Marginal:
            continue
        rv, rhp = routh_verdict(MeanFieldState.from_packed(y), p)
        assert rv is rep.verdict, (
            f"Routh said {rv} ({rhp} RHP), eigenvalues said {rep.verdict} "
            f"at abscissa {rep.spectral_abscissa:.3e}")
        checked += 1
    assert checked >= 8
