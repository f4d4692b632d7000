from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          MeanFieldState, NotSettled, PatternKind, PhaseCell,
                          SweepSpec, Verdict, critical_coupling_np, critical_csv,
                          critical_line_scan, cut_csv, find_all,
                          homogeneous_srp_branch, label, order_parameter_cut,
                          perturbed_normal_state, phase_diagram,
                          phase_diagram_csv, profile_csv, relax_to_steady,
                          site_profile, stable_class_set)
from dickelattice import sweep
from dickelattice.errors import DomainError
from dickelattice.stability import classify as stability_classify
from dickelattice.sweep import PROFILE_SETTLE_TOL, _cell_seed, profile_start

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

BASE = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.5, bc=PBC)
DATA = Path(__file__).parent / "data"


def _kinds(cell):
    return [kind for kind, _ in cell.classes]


def test_grid_axis_values():
    v = GridAxis(0.0, 1.0, 5).values()
    assert np.array_equal(v, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(GridAxis(0.3, 9.9, 1).values(), [0.3])
    with pytest.raises(ValueError):
        GridAxis(0.0, 1.0, 0).values()
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(DomainError, match="grid bounds must be finite"):
            GridAxis(lo, hi, 1).values()


GRID_2X2 = SweepSpec(params_base=BASE, xi_grid=GridAxis(0.1, 0.2, 2),
                     g_grid=GridAxis(0.4, 0.8, 2))


def test_sweeps_reject_a_negative_seed_before_any_cell(monkeypatch):
    # a negative seed used to fail inside every cell, which then read as
    # "no stable state"; no cell may run now
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep, "find_all", no_cell)
    with pytest.raises(DomainError, match="rng_seed must be >= 0, got -1"):
        phase_diagram(replace(GRID_2X2, rng_seed=-1))
    with pytest.raises(DomainError, match="rng_seed must be >= 0, got -1"):
        order_parameter_cut(BASE, [0.5], rng_seed=-1)


@pytest.mark.parametrize("call, name, value", [
    (lambda: phase_diagram(replace(GRID_2X2, rng_seed=1.5)), "rng_seed", 1.5),
    (lambda: order_parameter_cut(BASE, [0.5], rng_seed=1.5),
     "rng_seed", 1.5),
    (lambda: find_all(BASE, rng_seed=1.5), "rng_seed", 1.5),
    (lambda: find_all(BASE, rng_seed=True), "rng_seed", True),
    (lambda: find_all(BASE, n_random_seeds=2.5), "n_random_seeds", 2.5),
    (lambda: find_all(BASE, n_random_seeds=True), "n_random_seeds", True),
    (lambda: perturbed_normal_state(3, rng_seed=1.5), "rng_seed", 1.5),
], ids=["phase", "cut", "find_all", "find_all-bool", "n_random_seeds",
        "n_random_seeds-bool", "perturbed"])
def test_seeds_and_seed_counts_must_be_integers(call, name, value):
    # a sweep would run every cell on the integer part of a fractional
    # seed while its CSV comment records the fraction, and a bool would
    # run as 0 or 1; the rest would end in numpy's own TypeError
    with pytest.raises(DomainError,
                       match=f"{name} must be an integer, got {value!r}"):
        call()


@pytest.mark.parametrize("call, name, value", [
    (lambda: GridAxis(0.0, 1.0, 2.5).values(), "steps", 2.5),
    (lambda: GridAxis(0.0, 1.0, True).values(), "steps", True),
    (lambda: critical_line_scan(BASE, [2.5], [0.2]), "n_sites", 2.5),
    (lambda: critical_line_scan(BASE, [True], [0.2]), "n_sites", True),
    (lambda: critical_line_scan(BASE, [3, 2.5], [0.2]), "n_sites", 2.5),
], ids=["steps", "steps-bool", "n_sites", "n_sites-bool", "n_sites-second"])
def test_grid_steps_and_site_counts_must_be_integers(call, name, value,
                                                     monkeypatch):
    # steps=2.5 ended in numpy's own TypeError and steps=True gave one
    # point; a critical scan ran a fractional or bool site count as its
    # integer part.  No critical point runs before every N is checked
    ran = []
    monkeypatch.setattr(sweep, "bisect_np_threshold", ran.append)
    with pytest.raises(DomainError,
                       match=f"{name} must be an integer, got {value!r}"):
        call()
    assert ran == []


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(params_base=BASE,
                     xi_grid=GridAxis(0.1, 0.2, 2),
                     g_grid=GridAxis(0.4, 0.8, 3), rng_seed=0)


@pytest.fixture(scope="module")
def small_cells(small_spec):
    return phase_diagram(small_spec, workers=1)


def test_phase_diagram_grid_order_and_content(small_spec, small_cells):
    cells = small_cells
    assert len(cells) == 6
    expected = [(xi, g) for xi in small_spec.xi_grid.values()
                for g in small_spec.g_grid.values()]
    assert [(c.xi, c.g) for c in cells] == expected
    for c in cells:
        assert c.error == ""
        assert c.classes
        assert c.n_roots_total >= len(c.classes) >= 1
    # below threshold only the dark state holds; above it the uniform class
    assert _kinds(cells[3]) == ["NP"]
    assert _kinds(cells[4]) == ["P1"]
    assert len(cells[4].classes) == 1


def test_phase_diagram_workers_bit_identical(tmp_path, small_spec, small_cells):
    parallel = phase_diagram(small_spec, workers=2)
    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    phase_diagram_csv(small_cells, small_spec, p1)
    phase_diagram_csv(parallel, small_spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_phase_diagram_csv_matches_recorded_output(tmp_path, small_spec,
                                                   small_cells):
    # recorded output of this grid on both boundaries: a refactor of the
    # root -> class pipeline must leave the bytes alone
    open_spec = replace(small_spec, params_base=replace(BASE, bc=OBC))
    for tag, spec, cells in (("pbc", small_spec, small_cells),
                             ("obc", open_spec, phase_diagram(open_spec))):
        path = tmp_path / f"phase_small_{tag}.csv"
        phase_diagram_csv(cells, spec, path)
        assert path.read_bytes() == (DATA / path.name).read_bytes()


def test_onset_cell_is_marginal_not_an_error():
    # just above the ring's onset at xi = 0.48 the lit P2 roots are
    # Marginal: every root gets a verdict, none is dropped, and the empty
    # stable-class set is physics (a marginal cell), not a failure
    params = replace(BASE, xi=0.48)
    g = critical_coupling_np(params).g_c + 1e-5
    spec = SweepSpec(params_base=params, xi_grid=GridAxis(0.48, 0.48, 1),
                     g_grid=GridAxis(g, g, 1))
    [cell] = phase_diagram(spec)
    [row] = order_parameter_cut(params, [g])
    assert cell.classes == () and row.classes == ()
    assert cell.marginal_flag and row.marginal_flag
    assert cell.error == "" and row.error == ""
    at = replace(params, g=g)
    result = find_all(at, rng_seed=_cell_seed(0, 0, 0))
    found = stable_class_set(result, at)
    assert len(found.reports) == len(result.roots) == cell.n_roots_total
    lit = [rep for y, rep in zip(result.roots, found.reports)
           if label(MeanFieldState.from_packed(y), at).kind is PatternKind.P2]
    assert lit and all(rep.verdict is Verdict.Marginal for rep in lit)


def test_free_photon_mode_cell_is_an_error(tmp_path):
    # open chain N = 2 at xi = omega_c = 1 and kappa = 0 has a free photon
    # mode: the root search raises, and the cell reads as failed, not as a
    # cell without a stable state, in the CSV too
    params = LatticeParams(n_sites=2, kappa=0.0, xi=1.0, omega_c=1.0, g=0.8,
                           bc=OBC)
    spec = SweepSpec(params_base=params, xi_grid=GridAxis(1.0, 1.0, 1),
                     g_grid=GridAxis(0.8, 0.8, 1))
    [cell] = phase_diagram(spec)
    assert cell.error.startswith("DomainError: ")
    assert "free photon mode" in cell.error
    assert cell.classes == () and cell.seed_metadata == {}
    path = tmp_path / "phase.csv"
    phase_diagram_csv([cell], spec, path)
    assert path.read_text().splitlines()[2] == "1.0,0.8,,,,,"


def test_phase_diagram_csv_layout(tmp_path, small_spec, small_cells):
    path = tmp_path / "phase.csv"
    phase_diagram_csv(small_cells, small_spec, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dickelattice ")
    assert lines[1] == ("xi,g,n_stable,labels,marginal_flag,"
                       "no_stable_state,n_roots_total")
    assert len(lines) == 2 + 6
    first = lines[2].split(",")
    assert first[0] == repr(0.1) and first[3] == "NP"


def test_cut_rejects_xi_outside_window():
    with pytest.raises(DomainError):
        order_parameter_cut(replace(BASE, xi=0.6), [0.5])


def test_cut_branches_and_csv(tmp_path):
    rows = order_parameter_cut(BASE, [0.4, 0.6])
    assert [r.g for r in rows] == [0.4, 0.6]
    assert rows[0].error == "" and rows[1].error == ""
    [(kind, abs_a)] = rows[0].classes
    assert kind == "NP" and abs_a == (0.0, 0.0, 0.0)
    [(kind, abs_a)] = rows[1].classes
    assert kind == "P1" and type(abs_a) is tuple
    plus, _ = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC))
    assert np.max(np.abs(np.array(abs_a) - np.abs(plus.a))) < 1e-9

    path = tmp_path / "cut.csv"
    cut_csv(rows, BASE, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dickelattice ")
    header = lines[1].split(",")
    assert header[0] == "g"
    assert "NP_abs_a_1" in header and "P1_abs_a_3" in header
    # absent branch cells stay blank
    row1 = dict(zip(header, lines[3].split(",")))
    assert row1["NP_abs_a_1"] == ""
    assert float(row1["P1_abs_a_1"]) == pytest.approx(np.abs(plus.a[0]))

    # the tristable open-chain point of test_stable_class_sets_at_reference_points
    [row_o] = order_parameter_cut(replace(BASE, bc=OBC), [0.8])
    assert row_o.error == ""
    assert sorted(_kinds(row_o)) == ["O1", "O3", "O4"]


def test_cut_csv_numbers_classes_of_one_kind(tmp_path):
    # two distinct classes of one kind in a row are two branches, kind and
    # kind#2, in the order the row holds them
    rows = [PhaseCell(xi=0.2, g=0.7, classes=(("O1", (0.5, 0.25)),
                                              ("O3", (0.125, 0.0)),
                                              ("O1", (0.25, 0.5))),
                      n_roots_total=9, marginal_flag=False, seed_metadata={}),
            PhaseCell(xi=0.2, g=0.8, classes=(), n_roots_total=0,
                      marginal_flag=False, seed_metadata={}, error="failed")]
    path = tmp_path / "cut.csv"
    cut_csv(rows, replace(BASE, n_sites=2), path)
    assert path.read_text().splitlines()[1:] == [
        "g,O1_abs_a_1,O1_abs_a_2,O1#2_abs_a_1,O1#2_abs_a_2,"
        "O3_abs_a_1,O3_abs_a_2",
        "0.7,0.5,0.25,0.25,0.5,0.125,0.0",
        "0.8,,,,,,"]


def test_cut_rows_are_the_cells_of_a_one_row_grid():
    g_values = np.linspace(0.4, 0.8, 3)
    spec = SweepSpec(params_base=BASE, xi_grid=GridAxis(0.2, 0.2, 1),
                     g_grid=GridAxis(0.4, 0.8, 3), rng_seed=7)
    rows = order_parameter_cut(BASE, g_values, rng_seed=7)
    assert rows == phase_diagram(spec)
    assert [row.classes[0][0] for row in rows] == ["NP", "P1", "P1"]


def test_critical_line_scan_and_csv(tmp_path):
    pts = critical_line_scan(BASE, [3], [0.1, 0.2])
    assert len(pts) == 2
    for pt in pts:
        assert pt.error == ""
        assert pt.abs_error < 2e-6
    path = tmp_path / "crit.csv"
    critical_csv(pts, BASE, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dickelattice ")
    assert lines[1] == "N,xi,g_c_numeric,g_c_analytic,abs_error"
    assert len(lines) == 4


def test_critical_line_scan_records_failures():
    pts = critical_line_scan(BASE, [3], [0.6])   # outside stability window
    assert len(pts) == 1
    assert pts[0].error != ""
    assert np.isnan(pts[0].g_c_numeric)


def test_site_profile_ring_is_homogeneous():
    params = LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
    prof = site_profile(params, settle_tol=1e-6)
    assert prof.settled
    assert prof.homogeneity < 1e-8
    plus, _ = homogeneous_srp_branch(
        LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.6, bc=PBC))
    assert np.max(np.abs(np.abs(prof.a) - np.abs(plus.a))) < 1e-6
    assert np.max(np.abs(prof.z - plus.z)) < 1e-6


def test_site_profile_takes_amplitude_and_t_end_by_keyword_only():
    # a call written for the old site_profile(params, g) fails instead of
    # relaxing from start amplitude g
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
    with pytest.raises(TypeError):
        site_profile(params, 0.6)
    with pytest.raises(TypeError):
        site_profile(params, 0.6, 5.0)


def test_site_profile_not_settled_carries_partial(tmp_path):
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
    with pytest.raises(NotSettled) as exc:
        site_profile(params, t_end=5.0, settle_tol=1e-12)
    prof = exc.value.profile
    assert prof is not None
    assert not prof.settled
    assert prof.t_final == 5.0
    assert prof.a.shape == (3,)

    path = tmp_path / "prof.csv"
    profile_csv(prof, params, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# dickelattice ")
    assert lines[1] == "j,re_a,im_a,z"
    assert len(lines) == 2 + 3


def test_site_profile_polish_settles_a_slow_relaxation():
    # the pure relaxation of this profile is still above 1e-6 at t = 400
    # (NotSettled); Newton lands where a long relaxation ends
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.0, g=0.8, bc=PBC)
    state0 = profile_start(params)
    assert not relax_to_steady(state0, params, settle_tol=1e-6).settled
    prof = site_profile(params)
    assert prof.settled and prof.t_final < 400.0
    far = relax_to_steady(state0, params, t_max=1000.0, settle_tol=1e-6)
    assert far.settled
    assert np.max(np.abs(prof.a - far.state.a)) < 1e-6
    assert np.max(np.abs(prof.z - far.state.z)) < 1e-6


def test_site_profile_refused_polish_is_the_pure_relaxation(monkeypatch):
    polished = []

    def unstable(rows, params):
        polished.append(len(rows))
        return [replace(rep, verdict=Verdict.Unstable)
                for rep in stability_classify(rows, params)]

    monkeypatch.setattr(sweep, "stability_classify", unstable)
    params = LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.6, bc=PBC)
    prof = site_profile(params)
    assert polished == [1]
    res = relax_to_steady(profile_start(params), params,
                          settle_tol=PROFILE_SETTLE_TOL)
    assert prof.settled and prof.t_final == res.t_final
    assert prof.a.tobytes() == res.state.a.tobytes()
    assert prof.z.tobytes() == res.state.z.tobytes()
