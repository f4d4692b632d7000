import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickelattice import (BoundaryCondition, BoundaryError, DomainError,
                          LatticeParams, UnstableWindowError,
                          critical_coupling_hsrp, critical_coupling_np,
                          critical_coupling_np_infinite, hop_matrix,
                          mode_frequencies, xi_stability_window)

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

# reference point used throughout the suite
P3 = dict(n_sites=3, omega_c=1.0, omega_a=1.0, kappa=0.4)


def test_ring_modes_n3():
    p = LatticeParams(xi=0.2, bc=PBC, **P3)
    w = mode_frequencies(p)
    assert w == pytest.approx([0.6, 1.2, 1.2], abs=1e-14)
    assert not w.flags.writeable


def test_open_modes_zero_hop_are_flat():
    p = LatticeParams(xi=0.0, bc=OBC, **P3)
    assert mode_frequencies(p) == pytest.approx([1.0, 1.0, 1.0])


def test_open_modes_n3_cosines():
    # open-chain standing waves at N=3: cos(pi k/4) = 1/sqrt2, 0, -1/sqrt2
    p = LatticeParams(xi=0.2, bc=OBC, **P3)
    r2 = 1.0 / np.sqrt(2.0)
    expect = 1.0 - 0.4 * np.array([r2, 0.0, -r2])
    assert mode_frequencies(p) == pytest.approx(expect, abs=1e-14)


def test_window_ring_n3():
    lo, hi = xi_stability_window(3, 1.0, PBC)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(0.5)


def test_window_open_n3_and_n50():
    lo, hi = xi_stability_window(3, 1.0, OBC)
    assert hi == pytest.approx(1.0 / np.sqrt(2.0))
    assert lo == pytest.approx(-hi)
    lo50, hi50 = xi_stability_window(50, 1.0, OBC)
    assert hi50 == pytest.approx(0.50095, abs=1e-4)
    assert hi50 > 0.5  # open chain is stable slightly past the ring edge


@pytest.mark.parametrize("func, args, message", [
    (xi_stability_window, (1, 1.0, PBC), "n_sites must be >= 2, got 1"),
    (xi_stability_window, (2.5, 1.0, PBC), "n_sites must be an integer, got 2.5"),
    (xi_stability_window, (np.nan, 1.0, OBC), "n_sites must be an integer, got nan"),
    (xi_stability_window, (3, np.nan, OBC), "omega_c must be finite, got nan"),
    (xi_stability_window, (3, np.inf, PBC), "omega_c must be finite, got inf"),
    (critical_coupling_np_infinite, (np.nan, 1.0, 0.4, 0.2),
     "omega_a must be finite, got nan"),
    (critical_coupling_np_infinite, (1.0, np.nan, 0.4, 0.2),
     "omega_c must be finite, got nan"),
    (critical_coupling_np_infinite, (1.0, 1.0, np.nan, 0.2),
     "kappa must be finite, got nan"),
    (critical_coupling_np_infinite, (1.0, 1.0, np.inf, 0.2),
     "kappa must be finite, got inf"),
], ids=["window-n1", "window-n2.5", "window-n-nan", "window-omega_c-nan",
        "window-omega_c-inf", "infinite-omega_a-nan", "infinite-omega_c-nan",
        "infinite-kappa-nan", "infinite-kappa-inf"])
def test_closed_forms_check_inputs_as_validate_does(func, args, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        func(*args)


@given(n=st.integers(2, 12), xi=st.floats(-0.9, 0.9),
       bc=st.sampled_from([PBC, OBC]))
@settings(max_examples=60, deadline=None)
def test_modes_match_hop_matrix_spectrum(n, xi, bc):
    p = LatticeParams(n_sites=n, xi=xi, bc=bc)
    w = np.sort(mode_frequencies(p))
    t_hop = hop_matrix(p)
    ref = np.linalg.eigvalsh(p.omega_c * np.eye(n) - t_hop)
    assert w == pytest.approx(ref, abs=1e-10)


def test_np_threshold_frozen_values():
    ring = critical_coupling_np(LatticeParams(xi=0.2, bc=PBC, **P3))
    assert ring.g_c == pytest.approx(0.46547466812563143, rel=1e-12)
    assert ring.k_star == 1
    chain = critical_coupling_np(LatticeParams(xi=0.2, bc=OBC, **P3))
    assert chain.g_c == pytest.approx(0.48483511835358767, rel=1e-12)
    assert chain.k_star == 1
    # the open chain lies above the ring for 0 < xi < (omega_c - kappa)/2
    assert chain.g_c > ring.g_c


def test_np_threshold_tie_takes_smallest_k():
    res = critical_coupling_np(LatticeParams(xi=0.0, bc=PBC, **P3))
    assert res.k_star == 1
    assert res.g_c == pytest.approx(0.5 * np.sqrt(1.16), rel=1e-12)


def test_np_threshold_outside_window_raises():
    with pytest.raises(UnstableWindowError):
        critical_coupling_np(LatticeParams(xi=0.6, bc=PBC, **P3))


def test_hsrp_boundary():
    with pytest.raises(BoundaryError):
        critical_coupling_hsrp(LatticeParams(xi=0.2, bc=OBC, **P3))
    # where the k=1 term dominates, the boundary reduces to the onset value
    p = LatticeParams(xi=0.2, bc=PBC, **P3)
    assert critical_coupling_hsrp(p) == pytest.approx(
        critical_coupling_np(p).g_c, rel=1e-12)
    # near the window edge the k=2 term wins and the boundary detaches
    p48 = LatticeParams(xi=0.48, bc=PBC, **P3)
    assert critical_coupling_hsrp(p48) == pytest.approx(1.2692174, abs=1e-5)
    assert critical_coupling_hsrp(p48) > critical_coupling_np(p48).g_c


def test_infinite_lattice_threshold():
    f = critical_coupling_np_infinite
    # below the kink: band-minimum formula, identical to the ring k=1 value
    assert f(1.0, 1.0, 0.4, 0.2) == pytest.approx(0.46547466812563143, rel=1e-12)
    # above the kink: flat plateau sqrt(omega_a kappa / 2)
    for xi in (0.32, 0.4, 0.49):
        assert f(1.0, 1.0, 0.4, xi) == pytest.approx(np.sqrt(0.2), rel=1e-12)
    # continuity across the kink at (omega_c - kappa)/2 = 0.3
    eps = 1e-9
    assert f(1.0, 1.0, 0.4, 0.3 - eps) == pytest.approx(f(1.0, 1.0, 0.4, 0.3 + eps),
                                                        abs=1e-7)
    for bad in (-0.1, 0.0, 0.5, 0.7):
        with pytest.raises(DomainError):
            f(1.0, 1.0, 0.4, bad)
