import csv

import numpy as np
import pytest
import scipy.integrate

from dickelattice import (BoundaryCondition, DomainError, LatticeParams,
                          MeanFieldState, ShapeError, hop_matrix, integrate,
                          jacobian_packed, normal_state, inverted_normal_state,
                          perturbed_normal_state, relax_to_steady,
                          rhs_packed, rhs_sup_norm, site_profile)
from dickelattice import dynamics, steady_state
from dickelattice.dynamics import jacobian_fill
from dickelattice.sweep import PROFILE_SETTLE_TOL, profile_start
from symmetry_reference import cyclic_shift, reflect, z2_flip

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

P = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
P_OPEN = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=OBC)


def rhs(state, params):
    """The flow at state, in the per-site container (a tangent vector)."""
    return MeanFieldState.from_packed(rhs_packed(state.pack(), params))


def _random_sphere_state(rng, n):
    a = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    phi = rng.uniform(0, 2 * np.pi, n)
    theta = rng.uniform(0, np.pi, n)
    s = 0.5 * np.sin(theta) * np.exp(1j * phi)
    z = 0.5 * np.cos(theta)
    return MeanFieldState(a=a, s=s, z=z)


def test_hop_matrix_corners():
    t_ring = hop_matrix(LatticeParams(n_sites=4, xi=0.3, bc=PBC))
    t_open = hop_matrix(LatticeParams(n_sites=4, xi=0.3, bc=OBC))
    assert t_ring[0, 3] == 0.3 and t_ring[3, 0] == 0.3
    assert t_open[0, 3] == 0.0 and t_open[3, 0] == 0.0
    off = np.diag(np.full(3, 0.3), 1)
    assert np.array_equal(t_open, off + off.T)
    assert np.array_equal(t_ring, t_ring.T)


def test_dark_states_are_fixed_points():
    for state in (normal_state(3), inverted_normal_state(3)):
        for params in (P, P_OPEN):
            assert rhs_sup_norm(state, params) == 0.0


def test_rhs_sign_flip_equivariance():
    rng = np.random.default_rng(4)
    state = _random_sphere_state(rng, 3)
    for params in (P, P_OPEN):
        lhs = rhs(z2_flip(state), params)
        ref = rhs(state, params)
        assert lhs.a == pytest.approx(-ref.a, abs=1e-14)
        assert lhs.s == pytest.approx(-ref.s, abs=1e-14)
        assert lhs.z == pytest.approx(ref.z, abs=1e-14)


def test_rhs_translation_equivariance_ring_only():
    rng = np.random.default_rng(5)
    state = _random_sphere_state(rng, 5)
    p = LatticeParams(n_sites=5, kappa=0.4, xi=0.3, g=0.7, bc=PBC)
    shifted = rhs(cyclic_shift(state, 2), p)
    ref = cyclic_shift(rhs(state, p), 2)
    assert shifted.pack() == pytest.approx(ref.pack(), abs=1e-14)


def test_rhs_reflection_equivariance_open_chain():
    rng = np.random.default_rng(6)
    state = _random_sphere_state(rng, 5)
    p = LatticeParams(n_sites=5, kappa=0.4, xi=0.3, g=0.7, bc=OBC)
    refl = rhs(reflect(state), p)
    ref = reflect(rhs(state, p))
    assert refl.pack() == pytest.approx(ref.pack(), abs=1e-14)


def test_rhs_shape_error():
    with pytest.raises(ShapeError):
        rhs_packed(np.zeros(14), P)
    with pytest.raises(ShapeError):
        rhs_packed(normal_state(4).pack(), P)


@pytest.mark.parametrize("params", [P, P_OPEN,
                                    LatticeParams(n_sites=4, kappa=0.1,
                                                  xi=-0.4, g=1.1, bc=PBC)])
def test_jacobian_matches_finite_differences(params):
    rng = np.random.default_rng(7)
    n = params.n_sites
    h = 1e-6
    for _ in range(5):
        y = _random_sphere_state(rng, n).pack()
        jac = jacobian_packed(y, params)
        fd = np.empty_like(jac)
        for i in range(5 * n):
            e = np.zeros(5 * n)
            e[i] = h
            fd[:, i] = (rhs_packed(y + e, params) - rhs_packed(y - e, params)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


def test_integrate_record_cadence_and_drift():
    s0 = perturbed_normal_state(3, rng_seed=0)
    traj = integrate(s0, P, 5.0, record_every=1.0)
    assert traj.times == pytest.approx([0, 1, 2, 3, 4, 5])
    assert len(traj.states) == 6
    assert traj.spin_drift < 1e-10  # short run, tight tolerances
    for t_end in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            integrate(s0, P, t_end)
    with pytest.raises(DomainError):
        integrate(s0, P, 5.0, record_every=0.0)


def test_trajectory_csv_roundtrip(tmp_path):
    s0 = perturbed_normal_state(3, rng_seed=1)
    traj = integrate(s0, P, 3.0, record_every=1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t"] + [f"{name}_{j}" for j in (1, 2, 3)
                               for name in ("re_a", "im_a", "re_s", "im_s", "z")]
    assert len(rows) == 1 + len(traj.times)
    # repr-format values reparse to the exact floats
    last = [float(x) for x in rows[-1]]
    assert last[0] == traj.times[-1]
    assert last[1] == traj.final_state.a[0].real
    assert last[5] == traj.final_state.z[0]


def test_relax_normal_state_settles_immediately():
    res = relax_to_steady(normal_state(3), P)
    assert res.settled and res.t_final == 0.0 and res.rhs_norm == 0.0


def test_relax_below_threshold_returns_to_dark_state():
    p = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.3, bc=PBC)
    res = relax_to_steady(perturbed_normal_state(3, rng_seed=2), p, t_max=200.0)
    assert res.settled
    assert np.max(np.abs(res.state.a)) < 1e-8
    assert res.state.z == pytest.approx(np.full(3, -0.5), abs=1e-7)


@pytest.mark.parametrize("kwargs", [
    {"t_max": np.inf}, {"t_max": np.nan}, {"t_max": 0.0},
    {"settle_tol": np.inf}, {"settle_tol": np.nan}, {"settle_tol": -1.0}])
def test_relax_rejects_bad_limits_before_integrating(kwargs, monkeypatch):
    # an infinite t_max on a state that never settles would loop forever,
    # so the check must come before any integration; dynamics imports
    # solve_ivp from scipy.integrate on each call
    monkeypatch.setattr(scipy.integrate, "solve_ivp", None)
    with pytest.raises(DomainError):
        relax_to_steady(perturbed_normal_state(3), P, **kwargs)


# the N = 50 ring profile of the large_n benchmark
PROFILE_50 = LatticeParams(n_sites=50, kappa=0.4, xi=0.2, g=0.6, bc=PBC)


def _count_flow_calls(monkeypatch, *modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return rhs_packed(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "rhs_packed", counted)
    return calls


def test_relax_flow_calls(monkeypatch):
    # the pure relaxation of that profile's initial state to t = 375; RK45
    # took 22,708 flow calls for it, the eighth-order method 12,415
    state0 = profile_start(PROFILE_50)
    calls = _count_flow_calls(monkeypatch, dynamics)
    res = relax_to_steady(state0, PROFILE_50, settle_tol=PROFILE_SETTLE_TOL)
    assert res.settled
    assert len(calls) <= 13_000


def test_site_profile_flow_calls(monkeypatch):
    # the profile relaxes to t = 25 and Newton polishes it: 1,039 flow
    # calls of the integrator and 5 of Newton
    calls = _count_flow_calls(monkeypatch, dynamics, steady_state)
    profile = site_profile(PROFILE_50, 0.6)
    assert profile.settled and profile.t_final == 25.0
    assert len(calls) <= 1_100


def test_integrators_read_the_method_constant(monkeypatch):
    seen = []
    solve_ivp = scipy.integrate.solve_ivp

    def spy(*args, method, **kwargs):
        seen.append(method)
        return solve_ivp(*args, method=method, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", spy)
    monkeypatch.setattr(dynamics, "METHOD", "RK23")
    integrate(perturbed_normal_state(3), P, 1.0)
    relax_to_steady(perturbed_normal_state(3), P, t_max=1.0)
    assert seen == ["RK23", "RK23"]


def test_perturbed_normal_state_properties():
    s1 = perturbed_normal_state(4, rng_seed=9, scale=1e-3)
    s2 = perturbed_normal_state(4, rng_seed=9, scale=1e-3)
    assert np.array_equal(s1.pack(), s2.pack())
    assert np.abs(s1.a) == pytest.approx(np.full(4, 1e-3), rel=1e-12)
    assert np.abs(s1.s) == pytest.approx(np.full(4, 1e-3), rel=1e-12)
    assert s1.spin_defect() < 1e-15
    s3 = perturbed_normal_state(4, rng_seed=10, scale=1e-3)
    assert not np.array_equal(s1.pack(), s3.pack())


# ---------------------------------------------------------------------------
# rhs_packed and jacobian_packed against the block formulas they replaced

def _rhs_reference(y, params, t_hop):
    u, v, p, q, z = np.split(y, 5)
    wc, wa, g, kap = params.omega_c, params.omega_a, params.g, params.kappa
    du = -kap * u + wc * v - t_hop @ v
    dv = -kap * v - wc * u + t_hop @ u - 2.0 * g * p
    dp = wa * q
    dq = -wa * p + 4.0 * g * u * z
    dz = -4.0 * g * u * q
    return np.concatenate([du, dv, dp, dq, dz])


def _jacobian_reference(y, params, t_hop):
    n = params.n_sites
    u, q, z = y[0:n], y[3 * n:4 * n], y[4 * n:5 * n]
    wc, wa, g, kap = params.omega_c, params.omega_a, params.g, params.kappa
    i_n = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([
        [-kap * i_n, wc * i_n - t_hop, zero, zero, zero],
        [-wc * i_n + t_hop, -kap * i_n, -2.0 * g * i_n, zero, zero],
        [zero, zero, zero, wa * i_n, zero],
        [4.0 * g * np.diag(z), zero, -wa * i_n, zero, 4.0 * g * np.diag(u)],
        [-4.0 * g * np.diag(q), zero, zero, -4.0 * g * np.diag(u), zero],
    ])


def _same_bits(x, ref):
    return (x.shape == ref.shape and np.array_equal(x, ref)
            and np.array_equal(np.signbit(x), np.signbit(ref)))


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [2, 3, 30])
def test_packed_rhs_and_jacobian_match_block_formulas(bc, n):
    rng = np.random.default_rng(n)
    for g, kappa in ((0.6, 0.4), (0.0, 0.0), (1.3, 0.05)):
        params = LatticeParams(n_sites=n, kappa=kappa, xi=0.2, g=g,
                               omega_a=0.9, bc=bc)
        t_hop = hop_matrix(params)
        for _ in range(3):
            y = _random_sphere_state(rng, n).pack()
            assert _same_bits(rhs_packed(y, params),
                              _rhs_reference(y, params, t_hop))
            assert _same_bits(jacobian_packed(y, params),
                              _jacobian_reference(y, params, t_hop))
        y = normal_state(n).pack()
        assert _same_bits(rhs_packed(y, params), _rhs_reference(y, params, t_hop))
        assert _same_bits(jacobian_packed(y, params),
                          _jacobian_reference(y, params, t_hop))


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [2, 3, 30])
def test_stacked_rhs_and_jacobian_match_one_state_calls(bc, n):
    rng = np.random.default_rng(100 + n)
    rows = [_random_sphere_state(rng, n).pack() for _ in range(5)]
    rows += [normal_state(n).pack(), np.zeros(5 * n), -np.zeros(5 * n)]
    y = np.array(rows)
    for g, kappa in ((0.6, 0.4), (0.0, 0.0), (1.3, 0.05)):
        params = LatticeParams(n_sites=n, kappa=kappa, xi=0.2, g=g,
                               omega_a=0.9, bc=bc)
        flow = rhs_packed(y, params)
        assert flow.shape == y.shape
        # a stack that held Jacobians at other states
        jac = np.array([jacobian_packed(y_k, params) for y_k in y[::-1]] * 2)
        jacobians = jacobian_fill(jac, y, params)
        assert jacobians.shape == (len(y), 5 * n, 5 * n)
        for k, y_k in enumerate(y):
            assert _same_bits(flow[k], rhs_packed(y_k, params))
            assert _same_bits(jacobians[k], jacobian_packed(y_k, params))
            assert _same_bits(jacobians[k], _jacobian_reference(
                y_k, params, hop_matrix(params)))


@pytest.mark.parametrize("shape", [(14,), (16,), (2, 14), (2, 3, 15), ()])
def test_rhs_packed_rejects_other_shapes(shape):
    with pytest.raises(ShapeError):
        rhs_packed(np.zeros(shape), P)
