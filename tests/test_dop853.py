"""The package's DOP853 stepper against the scipy code it repeats,
`scipy.integrate.solve_ivp(method="DOP853")`: each result is compared bit
for bit, with the stepper swapped for solve_ivp in the second run."""

import warnings

import numpy as np
import pytest
import scipy.integrate

from dickelattice import (BoundaryCondition, LatticeParams, NotSettled,
                          StepFailure, integrate, perturbed_normal_state,
                          relax_to_steady, site_profile)
from dickelattice import _dop853

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open


def scipy_solve(fun, t0, y0, t_eval, rtol, atol):
    """_dop853.solve's contract, by solve_ivp."""
    sol = scipy.integrate.solve_ivp(fun, (t0, t_eval[-1]), y0,
                                    method="DOP853", rtol=rtol, atol=atol,
                                    t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y.T


def _bits(x):
    x = np.asarray(x)
    return x.view(float) if np.iscomplexobj(x) else x


def _same_bits(x, ref):
    x, ref = _bits(x), _bits(ref)
    return (x.shape == ref.shape and np.array_equal(x, ref)
            and np.array_equal(np.signbit(x), np.signbit(ref)))


def _both(run, monkeypatch):
    """run() with the package's stepper, then with solve_ivp."""
    mine = run()
    with monkeypatch.context() as patch:
        patch.setattr(_dop853, "solve", scipy_solve)
        theirs = run()
    return mine, theirs


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("tols", [{}, {"rtol": 1e-6, "atol": 1e-8}])
def test_trajectories_match_solve_ivp(n, bc, tols, monkeypatch):
    # records every 0.7 fall inside steps, and on the last one at t_end
    params = LatticeParams(n_sites=n, kappa=0.4, xi=0.2, g=0.8, bc=bc)
    state0 = perturbed_normal_state(n, rng_seed=1)
    mine, theirs = _both(
        lambda: integrate(state0, params, 20.0, record_every=0.7, **tols),
        monkeypatch)
    assert _same_bits(mine.times, theirs.times)
    assert _same_bits([s.pack() for s in mine.states],
                      [s.pack() for s in theirs.states])
    assert mine.spin_drift == theirs.spin_drift


def test_rtol_floor_matches_solve_ivp(monkeypatch):
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=PBC)
    state0 = perturbed_normal_state(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        mine, theirs = _both(
            lambda: integrate(state0, params, 0.5, rtol=1e-17, atol=1e-11),
            monkeypatch)
    with pytest.warns(UserWarning, match="rtol"):
        integrate(state0, params, 0.5, rtol=1e-17, atol=1e-11)
    assert _same_bits([s.pack() for s in mine.states],
                      [s.pack() for s in theirs.states])


@pytest.mark.parametrize("n, bc, g, t_max", [(3, PBC, 0.3, 400.0),
                                             (3, OBC, 0.6, 100.0),
                                             (10, PBC, 0.8, 100.0)])
def test_relaxations_match_solve_ivp(n, bc, g, t_max, monkeypatch):
    params = LatticeParams(n_sites=n, kappa=0.4, xi=0.2, g=g, bc=bc)
    state0 = perturbed_normal_state(n, rng_seed=2)
    mine, theirs = _both(lambda: relax_to_steady(state0, params, t_max=t_max),
                         monkeypatch)
    assert _same_bits(mine.state.pack(), theirs.state.pack())
    assert (mine.settled, mine.t_final, mine.rhs_norm) \
        == (theirs.settled, theirs.t_final, theirs.rhs_norm)


def _profile(params):
    try:
        return site_profile(params)
    except NotSettled as exc:
        return exc.profile


@pytest.mark.parametrize("bc, xi, g", [
    (PBC, 0.2, 0.6), (OBC, 0.2, 0.6),      # the large_n benchmark's
    (OBC, 0.45, 0.5),                       # its Newton polish is refused
    (PBC, 0.35, 0.4), (OBC, 0.1, 0.7),
    (PBC, 0.2, 0.8)])                       # NotSettled at t = 400
def test_site_profiles_match_solve_ivp(bc, xi, g, monkeypatch):
    params = LatticeParams(n_sites=50, kappa=0.4, xi=xi, g=g, bc=bc)
    mine, theirs = _both(lambda: _profile(params), monkeypatch)
    assert _same_bits(mine.a, theirs.a) and _same_bits(mine.z, theirs.z)
    assert (mine.settled, mine.t_final, mine.homogeneity) \
        == (theirs.settled, theirs.t_final, theirs.homogeneity)


def test_step_failure_is_the_last_accepted_step_of_solve_ivp():
    # y' = y^2, y(0) = 1 blows up at t = 1; scipy's stepper stops at the
    # same accepted step
    def fun(_t, y):
        return y * y

    with pytest.raises(StepFailure) as exc:
        _dop853.solve(fun, 0.0, np.array([1.0]), np.array([0.5, 2.0]),
                      1e-9, 1e-11)
    ref = scipy.integrate.DOP853(fun, 0.0, np.array([1.0]), 2.0,
                                 rtol=1e-9, atol=1e-11)
    while ref.status == "running":
        ref.step()
    assert ref.status == "failed"
    assert exc.value.t == ref.t and abs(exc.value.t - 1.0) < 1e-6
    assert _same_bits(exc.value.state, ref.y)


def test_missing_coefficient_file_names_its_path(monkeypatch):
    monkeypatch.setattr(_dop853, "COEFFICIENTS", "no_such_file.py")
    _dop853._coefficients.cache_clear()
    try:
        with pytest.raises(FileNotFoundError, match="no_such_file.py"):
            _dop853.solve(lambda t, y: y, 0.0, np.ones(1), np.ones(1),
                          1e-9, 1e-11)
    finally:
        _dop853._coefficients.cache_clear()
