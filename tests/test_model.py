import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickelattice import (BoundaryCondition, DomainError, LatticeParams,
                          MeanFieldState, ShapeError, inverted_normal_state,
                          normal_state, symmetry_orbit, validate)
from dickelattice.model import validate_rng_seed
from dickelattice.model import (packed_to_jsonable, params_from_jsonable,
                                params_to_jsonable, state_from_jsonable,
                                symmetry_group)
from symmetry_reference import (cyclic_shift, orbit_by_elementary_ops,
                                orbit_image, reflect, z2_flip)

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open


def test_lam_follows_boundary_condition():
    assert LatticeParams(n_sites=3, xi=0.3, bc=PBC).lam == 0.3
    assert LatticeParams(n_sites=3, xi=0.3, bc=OBC).lam == 0.0


@pytest.mark.parametrize("kwargs,field", [
    (dict(n_sites=1), "n_sites"),
    (dict(n_sites=2.0), "n_sites"),
    (dict(n_sites=True), "n_sites"),
    (dict(n_sites=3, omega_c=0.0), "omega_c"),
    (dict(n_sites=3, omega_a=-1.0), "omega_a"),
    (dict(n_sites=3, kappa=-0.1), "kappa"),
    (dict(n_sites=3, g=-0.5), "g"),
    (dict(n_sites=3, xi=np.inf), "xi"),
    (dict(n_sites=3, bc="periodic"), "bc"),
    (dict(n_sites=0), "n_sites must be >= 2, got 0"),
    (dict(n_sites=np.nan), "n_sites must be an integer, got nan"),
])
def test_validate_names_the_offending_field(kwargs, field):
    with pytest.raises(DomainError, match=field):
        validate(LatticeParams(**kwargs))


def test_validate_accepts_negative_xi():
    validate(LatticeParams(n_sites=4, xi=-0.7))


def test_validate_rng_seed():
    for ok in (0, 7, np.uint64(2 ** 63)):
        validate_rng_seed(ok)
    for bad in (-1, np.int64(-2)):
        with pytest.raises(DomainError, match=f"rng_seed must be >= 0, got {bad}"):
            validate_rng_seed(bad)


def test_normal_states():
    np_state = normal_state(3)
    assert np.all(np_state.a == 0) and np.all(np_state.s == 0)
    assert np.all(np_state.z == -0.5)
    assert np_state.spin_defect() == 0.0
    inv = inverted_normal_state(3)
    assert np.all(inv.z == 0.5)
    with pytest.raises(DomainError):
        normal_state(0)


def test_state_arrays_are_read_only():
    s = normal_state(3)
    with pytest.raises(ValueError):
        s.z[0] = 1.0


def test_state_shape_errors():
    with pytest.raises(ShapeError):
        MeanFieldState(a=np.zeros(3, complex), s=np.zeros(2, complex),
                       z=np.zeros(3))
    with pytest.raises(ShapeError):
        MeanFieldState(a=np.zeros((3, 1), complex), s=np.zeros(3, complex),
                       z=np.zeros(3))
    with pytest.raises(ShapeError):
        MeanFieldState.from_packed(np.zeros(7))


def _random_state(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    s = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    z = rng.uniform(-0.5, 0.5, size=n)
    return MeanFieldState(a=a, s=s, z=z)


@given(n=st.integers(2, 7), seed=st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_pack_roundtrip(n, seed):
    state = _random_state(np.random.default_rng(seed), n)
    again = MeanFieldState.from_packed(state.pack())
    assert np.array_equal(again.a, state.a)
    assert np.array_equal(again.s, state.s)
    assert np.array_equal(again.z, state.z)


def test_symmetry_ops():
    rng = np.random.default_rng(0)
    state = _random_state(rng, 5)
    # involutions
    for op in (z2_flip, reflect):
        twice = op(op(state))
        assert np.array_equal(twice.pack(), state.pack())
    # shift composition and full cycle
    once_twice = cyclic_shift(cyclic_shift(state, 2), 3)
    assert np.array_equal(once_twice.pack(), state.pack())
    assert np.array_equal(cyclic_shift(state, 1).a, np.roll(state.a, 1))


def test_orbit_sizes_and_identity_first():
    state = _random_state(np.random.default_rng(1), 4)
    ring = symmetry_orbit(state.pack()[None], PBC)
    chain = symmetry_orbit(state.pack()[None], OBC)
    assert ring.shape == (8, 20) and chain.shape == (4, 20)
    assert np.array_equal(ring[0], state.pack())
    assert np.array_equal(chain[0], state.pack())


def _signed_zero_state(rng, n):
    """A random state whose a, s and z hold +0.0 and -0.0 entries."""
    parts = rng.normal(size=(5, n))
    parts[rng.random((5, n)) < 0.4] = 0.0
    parts *= np.where(rng.random((5, n)) < 0.5, -1.0, 1.0)
    a, s = np.empty(n, complex), np.empty(n, complex)
    a.real, a.imag, s.real, s.imag = parts[:4]
    return MeanFieldState(a=a, s=s, z=parts[4])


def _bytes(state):
    return (state.a.tobytes(), state.s.tobytes(), state.z.tobytes())


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_symmetry_table_matches_elementary_ops(bc, n):
    rng = np.random.default_rng(n)
    states = [_signed_zero_state(rng, n) for _ in range(3)]
    packed = np.array([st.pack() for st in states])
    assert np.signbit(packed[packed == 0.0]).any()
    assert not np.signbit(packed[packed == 0.0]).all()
    perm, sign = symmetry_group(n, bc)
    group = 2 * n if bc is PBC else 4
    assert perm.shape == sign.shape == (group, 5 * n)
    assert np.array_equal(perm[0], np.arange(5 * n)) and np.all(sign[0] == 1.0)
    assert not (perm.flags.writeable or sign.flags.writeable)
    rows = symmetry_orbit(packed, bc)
    assert rows.shape == (len(states) * group, 5 * n)
    for r, state in enumerate(states):
        want = orbit_by_elementary_ops(state, bc)
        assert len(want) == group
        for k, w in enumerate(want):
            assert _bytes(orbit_image(state, k, bc)) == _bytes(w)
            assert rows[r * group + k].tobytes() == w.pack().tobytes()


def test_symmetry_orbit_rejects_a_bad_stack():
    for bad in (np.zeros(15), np.zeros((2, 14)), np.zeros((2, 3, 15))):
        with pytest.raises(ShapeError):
            symmetry_orbit(bad, PBC)


def test_jsonable_roundtrips():
    p = LatticeParams(n_sites=4, omega_a=1.3, g=0.7, xi=-0.2, kappa=0.4, bc=OBC)
    assert params_from_jsonable(params_to_jsonable(p)) == p
    state = _random_state(np.random.default_rng(2), 4)
    back = state_from_jsonable(packed_to_jsonable(state.pack()))
    assert np.array_equal(back.pack(), state.pack())
