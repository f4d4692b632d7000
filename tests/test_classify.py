from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          MeanFieldState, PatternKind, StabilityReport,
                          Verdict, canonicalize, critical_coupling_np,
                          find_all, homogeneous_srp_branch, label,
                          normal_state, inverted_normal_state, phase_letter,
                          root_dossier, stable_class_set, symmetry_orbit)
from dickelattice import _blas, _pool, stability, sweep
from dickelattice import classify as classify_module
from symmetry_reference import orbit_by_elementary_ops
import verdict_reference

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


def _fingerprint_reference(a, eps):
    # the double loop over sites and first occurrences that the pairwise
    # matrix of classify._fingerprint replaced
    letters, reps = [], []
    for aj in a:
        if abs(aj) < eps:
            letters.append("0")
            continue
        for letter, rep in reps:
            if abs(aj - rep) < eps:
                letters.append(letter)
                break
        else:
            letter = chr(ord("a") + len(reps))
            reps.append((letter, aj))
            letters.append(letter)
    return "".join(letters)


def test_fingerprint_matches_the_double_loop():
    # sites within eps of two classes, chains of near-ties that are not
    # transitive, dark and NaN sites, and more than 26 classes
    rng = np.random.default_rng(11)
    eps = classify_module.EPS_PATTERN
    centres = np.array([0, 1, -1, 1j, 0.5 + 0.5j, 3e-6, np.nan])
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        a = (rng.choice(centres, n)
             + rng.choice([0, 4e-6, 6e-6, 1e-5, 1e-3], n)
             * np.exp(2j * np.pi * rng.uniform(size=n)))
        assert classify_module._fingerprint(a, eps) \
            == _fingerprint_reference(a, eps)
    a = np.linspace(0.1, 1, 40) + 0j
    assert classify_module._fingerprint(a, eps) == _fingerprint_reference(a, eps)


def test_eps_shrink_moves_toward_other(monkeypatch):
    st = _state([0.4, 1e-6, -0.4])
    assert classify_module.EPS_PATTERN == 1e-5
    assert label(st, P_OPEN).kind is PatternKind.O2
    monkeypatch.setattr(classify_module, "EPS_PATTERN", 1e-8)
    assert label(st, P_OPEN).kind is not PatternKind.O2


def test_label_orbit_invariance():
    result = find_all(P_OPEN, rng_seed=1, n_random_seeds=8)
    for y in result.roots:
        base = label(MeanFieldState.from_packed(y), P_OPEN).kind
        for image in symmetry_orbit(y[None], OBC):
            assert label(MeanFieldState.from_packed(image),
                         P_OPEN).kind is base


def test_canonicalize_idempotent_and_orbit_stable():
    result = find_all(P, rng_seed=1, n_random_seeds=8)
    canon = canonicalize(result.roots, P)
    assert canonicalize(canon, P).tobytes() == canon.tobytes()
    for y, c in zip(result.roots, canon):
        from_images = canonicalize(symmetry_orbit(y[None], PBC), P)
        assert np.max(np.abs(from_images - c)) < 1e-9


def _canonicalize_by_scan(state, params):
    """The smallest orbit member under classify's tolerant
    lexicographic order, scanning the image states one by one."""
    best = state
    for cand in orbit_by_elementary_ops(state, params.bc)[1:]:
        if classify_module._lex_less(cand.pack(), best.pack(),
                                     classify_module.CANON_TOL):
            best = cand
    return best


@pytest.mark.parametrize("params", [P, P_OPEN], ids=["ring", "open"])
def test_canonicalize_matches_orbit_scan(params):
    result = find_all(params, rng_seed=1, n_random_seeds=8)
    for y in result.roots:
        images = orbit_by_elementary_ops(verdict_reference.exact_state(y),
                                         params.bc)
        got = canonicalize([image.pack() for image in images], params)
        for image, row in zip(images, got):
            want = _canonicalize_by_scan(image, params)
            assert row.tobytes() == want.pack().tobytes()


def test_stable_class_sets_at_reference_points():
    result = find_all(P, rng_seed=0)
    counts = stable_class_set(result, P).counts
    assert counts == Counter({"P1": 1})

    result_o = find_all(P_OPEN, rng_seed=0)
    counts_o = stable_class_set(result_o, P_OPEN).counts
    assert counts_o == Counter({"O1": 1, "O3": 1, "O4": 1})
    assert sum(counts_o.values()) == 3   # tristable cell


# just above the ring's onset at xi = 0.48 the lit roots sit on the
# pitchfork: their leading physical eigenvalue is within EPS_MARGINAL of 0
P_ONSET = replace(P, xi=0.48,
                  g=critical_coupling_np(replace(P, xi=0.48)).g_c + 1e-5)


@pytest.mark.parametrize("params", [P, P_OPEN, P_ONSET],
                         ids=["ring", "open", "ring-onset"])
def test_stable_class_set_classifies_once_per_orbit(params, monkeypatch):
    result = find_all(params, rng_seed=0)
    orbits = result.orbit.tolist()
    assert len(set(orbits)) < len(orbits)
    calls = []

    def counting(rows, p, **kw):
        calls.append(rows)
        return stability.classify(rows, p, **kw)

    monkeypatch.setattr(classify_module, "stability_classify", counting)
    found = stable_class_set(result, params)
    # one stacked call on the first root of each orbit, in list order
    first = [orbits.index(k) for k in dict.fromkeys(orbits)]
    [rows] = calls
    assert rows.tobytes() == result.roots[first].tobytes()
    direct = stability.classify(result.roots, params)
    for k, rep, want in zip(orbits, found.reports, direct):
        assert isinstance(rep, StabilityReport)
        assert rep is found.reports[orbits.index(k)]
        assert rep.verdict is want.verdict
        assert abs(rep.spectral_abscissa - want.spectral_abscissa) <= 1e-12
    if params is P_ONSET:
        lit = [rep for y, rep in zip(result.roots, found.reports)
               if label(MeanFieldState.from_packed(y), params).kind
               is PatternKind.P2]
        assert lit and all(rep.verdict is Verdict.Marginal for rep in lit)
        assert found.marginal


def _oracle_cells():
    """(params, rng seed) of the verdict oracle: the 8 x 8 three-site grid
    of both boundary conditions with the sweep's cell seeds, N = 10 and 30
    at g = 0.8, and the ring's onset cell at xi = 0.48."""
    xis, gs = GridAxis(0.0, 0.45, 8).values(), GridAxis(0.3, 1.1, 8).values()
    cells = [(replace(P, bc=bc, xi=float(xi), g=float(g)),
              sweep._cell_seed(0, i, j))
             for bc in (PBC, OBC) for i, xi in enumerate(xis)
             for j, g in enumerate(gs)]
    cells += [(replace(P, n_sites=n, bc=bc, g=0.8), 0)
              for n in (10, 30) for bc in (PBC, OBC)]
    return cells + [(P_ONSET, 0)]


def test_stacked_verdicts_match_per_root_reference():
    n_orbits = n_classes = 0
    kinds = set()
    with _blas.one_thread():
        for params, rng_seed in _oracle_cells():
            result = find_all(params, rng_seed=rng_seed)
            found = stable_class_set(result, params)
            reports, classes, marginal = verdict_reference.stable_class_set(
                [(verdict_reference.exact_state(y), k)
                 for y, k in zip(result.roots, result.orbit.tolist())], params)
            assert len(found.reports) == len(reports) == len(result.roots)
            for got, want in zip(found.reports, reports):
                assert got.verdict is want.verdict
                assert got.spectral_abscissa == want.spectral_abscissa
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert [(kind, y.tobytes()) for kind, y in found.classes] == \
                [(kind, canon.pack().tobytes()) for kind, canon in classes]
            assert found.marginal == marginal
            n_orbits += len(set(result.orbit.tolist()))
            n_classes += len(classes)
            kinds |= {rep.verdict for rep in reports}
    assert n_orbits > 1000 and n_classes > 100
    assert kinds == set(Verdict)


@pytest.mark.parametrize("n", [3, 10, 30])
def test_classify_stacks_fit_the_stack_bytes(n, monkeypatch):
    params = replace(P, n_sites=n, bc=OBC, g=0.8)
    rows = find_all(params, rng_seed=0, n_random_seeds=8).roots
    sizes = []
    eigvals = np.linalg.eigvals

    def recording(a):
        sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(stability.np.linalg, "eigvals", recording)
    reports = stability.classify(rows, params)
    size = _pool.stack_size(5 * n)
    assert size == (145 if n == 3 else 13 if n == 10 else 1)
    assert sizes == [min(size, len(rows) - k)
                     for k in range(0, len(rows), size)]
    assert len(reports) == len(rows)


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
