from collections import Counter

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, LatticeParams, MeanFieldState,
                          PatternKind, canonicalize, find_all,
                          homogeneous_srp_branch, label, normal_state,
                          inverted_normal_state, phase_letter, root_dossier,
                          stable_class_set, symmetry_orbit)

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

P = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
P_OPEN = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8, bc=OBC)


def _state(a, z=None):
    a = np.asarray(a, complex)
    if z is None:
        z = np.full(a.size, -0.3)
    s = np.sqrt(np.maximum(0.25 - np.asarray(z, float) ** 2, 0.0)).astype(complex)
    return MeanFieldState(a=a, s=s, z=z)


def test_dark_state_labels():
    assert label(normal_state(3), P).kind is PatternKind.NP
    assert label(inverted_normal_state(3), P).kind is PatternKind.InvertedNP
    assert label(normal_state(3), P_OPEN).kind is PatternKind.NP


def test_homogeneous_label_is_ring_only():
    hom = _state([0.5 + 0.1j] * 3)
    assert label(hom, P).kind is PatternKind.P1
    # an identical profile on the open chain is not a valid homogeneous
    # class; it falls through to the sign-pattern taxonomy
    assert label(hom, P_OPEN).kind is not PatternKind.P1


def test_branch_labels_p1():
    plus, minus = homogeneous_srp_branch(P)
    assert label(plus, P).kind is PatternKind.P1
    assert label(minus, P).kind is PatternKind.P1


def test_pair_pattern_label():
    st = _state([0.5, 0.5, -0.3])
    assert label(st, P).kind is PatternKind.P2
    st2 = _state([-0.2, 0.6, 0.6])
    assert label(st2, P).kind is PatternKind.P2
    # same-sign third site is not the pair pattern
    assert label(_state([0.5, 0.5, 0.3]), P).kind is not PatternKind.P2


def test_open_chain_labels():
    assert label(_state([0.4, 0.55, 0.4]), P_OPEN).kind is PatternKind.O1
    assert label(_state([0.4, 0.0, -0.4]), P_OPEN).kind is PatternKind.O2
    assert label(_state([0.34, 0.55, -0.48]), P_OPEN).kind is PatternKind.O3
    assert label(_state([-0.4, 0.53, -0.4]), P_OPEN).kind is PatternKind.O4


def test_label_precedence_o2_before_o4():
    # antisymmetric ends with a dark middle satisfies the O4 sign test
    # only vacuously; the dark middle must win as O2
    st = _state([0.4, 1e-9, -0.4])
    assert label(st, P_OPEN).kind is PatternKind.O2


def test_other_fingerprint():
    lab = label(_state([0.4, 0.4, 0.0]), P_OPEN)
    assert lab.kind is PatternKind.OTHER
    assert "aa0" in lab.detail


def test_eps_shrink_moves_toward_other():
    st = _state([0.4, 1e-6, -0.4])
    assert label(st, P_OPEN, eps_pattern=1e-5).kind is PatternKind.O2
    smaller = label(st, P_OPEN, eps_pattern=1e-8).kind
    assert smaller is not PatternKind.O2


def test_label_orbit_invariance():
    result = find_all(P_OPEN, rng_seed=1, n_random_seeds=8)
    for fp in result:
        base = label(fp, P_OPEN).kind
        for image in symmetry_orbit(fp.state, OBC):
            assert label(image, P_OPEN).kind is base


def test_canonicalize_idempotent_and_orbit_stable():
    result = find_all(P, rng_seed=1, n_random_seeds=8)
    for fp in result:
        canon = canonicalize(fp, P)
        again = canonicalize(canon, P)
        assert np.array_equal(again.pack(), canon.pack())
        for image in symmetry_orbit(fp.state, PBC):
            from_image = canonicalize(image, P)
            assert np.max(np.abs(from_image.pack() - canon.pack())) < 1e-9


def test_stable_class_sets_at_reference_points():
    result = find_all(P, rng_seed=0)
    counts = stable_class_set(result.roots, P).counts
    assert counts == Counter({"P1": 1})

    result_o = find_all(P_OPEN, rng_seed=0)
    counts_o = stable_class_set(result_o.roots, P_OPEN).counts
    assert counts_o == Counter({"O1": 1, "O3": 1, "O4": 1})
    assert sum(counts_o.values()) == 3   # tristable cell


def test_phase_letters():
    assert phase_letter(Counter({"NP": 1}), PBC) == "A"
    assert phase_letter(Counter({"P1": 1}), PBC) == "B"
    assert phase_letter(Counter({"P1": 1, "P2": 1}), PBC) == "D"
    assert phase_letter(Counter({"O1": 1}), OBC) == "B"
    assert phase_letter(Counter({"O2": 1}), OBC) == "C"
    assert phase_letter(Counter({"O1": 1, "O3": 1}), OBC) == "F"
    assert phase_letter(Counter({"O3": 1, "O4": 1}), OBC) == "H"
    assert phase_letter(Counter({"O1": 1, "O3": 1, "O4": 1}), OBC) == "I"
    assert phase_letter(Counter({"P2": 5}), PBC) is None


def test_root_dossier_shape():
    result = find_all(P_OPEN, rng_seed=0, n_random_seeds=16)
    d = root_dossier(P_OPEN, result)
    assert d["params"]["bc"] == "open"
    assert d["phase_letter"] == "I"
    assert d["n_stable_classes"] == 3
    assert d["letter_table"] == "inferred from reproduction runs"
    assert len(d["roots"]) == len(result.roots)
    for entry in d["roots"]:
        assert set(entry) == {"state", "residual", "converged", "seed_tag",
                              "verdict", "spectral_abscissa", "label",
                              "label_detail"}
        assert entry["verdict"] in ("Stable", "Unstable", "Marginal") \
            or entry["verdict"].startswith("error:")
