from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, GridAxis, LatticeParams,
                          MeanFieldState, NotSettled, PatternKind, SweepSpec, Verdict,
                          critical_coupling_np, critical_csv,
                          critical_line_scan, cut_csv, find_all,
                          homogeneous_srp_branch, label, order_parameter_cut,
                          phase_diagram, phase_diagram_csv, profile_csv,
                          relax_to_steady, site_profile, stable_class_set)
from dickelattice import sweep
from dickelattice.errors import DomainError
from dickelattice.stability import classify as stability_classify
from dickelattice.sweep import PROFILE_SETTLE_TOL, _cell_seed, profile_start

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

BASE = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.5, bc=PBC)
DATA = Path(__file__).parent / "data"


def test_grid_axis_values():
    v = GridAxis(0.0, 1.0, 5).values()
    assert np.array_equal(v, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(GridAxis(0.3, 9.9, 1).values(), [0.3])
    with pytest.raises(ValueError):
        GridAxis(0.0, 1.0, 0).values()
    for lo, hi in ((np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(DomainError, match="grid bounds must be finite"):
            GridAxis(lo, hi, 1).values()


def test_sweeps_reject_a_negative_seed_before_any_cell(monkeypatch):
    # a negative seed used to fail inside every cell, which then read as
    # "no stable state"; no cell may run now
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep, "find_all", no_cell)
    spec = SweepSpec(params_base=BASE, xi_grid=GridAxis(0.1, 0.2, 2),
                     g_grid=GridAxis(0.4, 0.8, 2), rng_seed=-1)
    with pytest.raises(DomainError, match="rng_seed must be >= 0, got -1"):
        phase_diagram(spec)
    with pytest.raises(DomainError, match="rng_seed must be >= 0, got -1"):
        order_parameter_cut(BASE, 0.2, [0.5], rng_seed=-1)


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(params_base=BASE,
                     xi_grid=GridAxis(0.1, 0.2, 2),
                     g_grid=GridAxis(0.4, 0.8, 3),
                     rng_seed=0, n_random_seeds=16)


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
        assert not c.no_stable_state
        assert c.n_roots_total >= c.n_stable >= 1
    # below threshold only the dark state holds; above it the uniform class
    assert cells[3].stable_classes == {"NP": 1}
    assert cells[4].stable_classes == {"P1": 1}
    assert cells[4].n_stable == 1


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
    [row] = order_parameter_cut(params, 0.48, [g])
    assert cell.stable_classes == {} and row.branches == {}
    assert cell.marginal_flag and cell.no_stable_state
    assert cell.error == "" and row.error == ""
    at = replace(params, g=g)
    result = find_all(at, rng_seed=_cell_seed(0, 0, 0))
    found = stable_class_set(result, at)
    assert len(found.reports) == len(result.roots) == cell.n_roots_total
    lit = [rep for y, rep in zip(result.roots, found.reports)
           if label(MeanFieldState.from_packed(y), at).kind is PatternKind.P2]
    assert lit and all(rep.verdict is Verdict.Marginal for rep in lit)


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
        order_parameter_cut(BASE, 0.6, [0.5])


def test_cut_branches_and_csv(tmp_path):
    rows = order_parameter_cut(BASE, 0.2, [0.4, 0.6], n_random_seeds=16)
    assert [r.g for r in rows] == [0.4, 0.6]
    assert rows[0].error == "" and rows[1].error == ""
    assert set(rows[0].branches) == {"NP"}
    assert np.all(rows[0].branches["NP"] == 0.0)
    assert set(rows[1].branches) == {"P1"}
    plus, _ = homogeneous_srp_branch(
        LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.6, bc=PBC))
    assert np.max(np.abs(rows[1].branches["P1"] - np.abs(plus.a))) < 1e-9

    path = tmp_path / "cut.csv"
    cut_csv(rows, BASE, 0.2, path)
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
    [row_o] = order_parameter_cut(replace(BASE, bc=OBC), 0.2, [0.8],
                                  n_random_seeds=16)
    assert row_o.error == ""
    assert set(row_o.branches) == {"O1", "O3", "O4"}


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
    params = LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.5, bc=PBC)
    prof = site_profile(params, 0.6, settle_tol=1e-6)
    assert prof.settled
    assert prof.homogeneity < 1e-8
    plus, _ = homogeneous_srp_branch(
        LatticeParams(n_sites=6, kappa=0.4, xi=0.2, g=0.6, bc=PBC))
    assert np.max(np.abs(np.abs(prof.a) - np.abs(plus.a))) < 1e-6
    assert np.max(np.abs(prof.z - plus.z)) < 1e-6


def test_site_profile_not_settled_carries_partial(tmp_path):
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.5, bc=PBC)
    with pytest.raises(NotSettled) as exc:
        site_profile(params, 0.6, t_end=5.0, settle_tol=1e-12)
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
    prof = site_profile(params, 0.8)
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
    prof = site_profile(params, 0.6)
    assert polished == [1]
    res = relax_to_steady(profile_start(params), params,
                          settle_tol=PROFILE_SETTLE_TOL)
    assert prof.settled and prof.t_final == res.t_final
    assert prof.a.tobytes() == res.state.a.tobytes()
    assert prof.z.tobytes() == res.state.z.tobytes()
