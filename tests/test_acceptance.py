"""Acceptance suite: ten end-to-end checks, one test and one printed
PASS/FAIL line per criterion.

Criterion 7 checks that the ring's superradiant onset is continuous.  The
order parameter is a pitchfork, |a| ~ sqrt(g - g_c), so the check is a
square-root onset: exactly the first lit class just above g_c, a log-log
slope of 1/2 over dg = 1e-2 .. 1e-4, and on the xi = 0.2 cut agreement
with the closed-form homogeneous branch.  A fixed amplitude gate just
above g_c would contradict that branch, which puts |a| at 0.188 at
g_c + 0.01 on the xi = 0.2 cut.
"""

from dataclasses import replace

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, LatticeParams, NO_BRANCH,
                          bisect_np_threshold, critical_coupling_hsrp,
                          critical_coupling_np, critical_coupling_np_infinite,
                          find_all, homogeneous_srp_branch, hop_matrix,
                          integrate, jacobian_packed, no_homogeneous_witness,
                          normal_state_abscissa, perturbed_normal_state,
                          relax_to_steady, rhs_packed, rhs_sup_norm,
                          site_profile, stable_class_set,
                          xi_stability_window)
from dickelattice.steady_state import NEWTON_TOL, _augmented_jacobian
from dickelattice.stability import (StabilityReport, Verdict,
                                    classify as stability_classify,
                                    routh_verdict)

PBC = BoundaryCondition.Periodic
OBC = BoundaryCondition.Open

BASE = dict(n_sites=3, omega_c=1.0, omega_a=1.0, kappa=0.4)


def _report(k, ok, detail):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _classified(params, rng_seed):
    """Stable classes of find_all's roots, and (root, report) for every
    root the pipeline did not drop for ZeroModeMismatch."""
    roots = find_all(params, rng_seed=rng_seed).roots
    found = stable_class_set(roots, params)
    return found, [(fp, rep) for fp, rep in zip(roots, found.reports)
                   if isinstance(rep, StabilityReport)]


def _stable_info(params, rng_seed=0):
    """Stable-class multiset and the largest stable site amplitude."""
    found, classified = _classified(params, rng_seed)
    amp = 0.0
    for fp, rep in classified:
        if rep.verdict is Verdict.Stable:
            amp = max(amp, float(np.max(np.abs(fp.state.a))))
    return found.counts, amp


def _newton_error_bound(state, params):
    """First-order bound on the distance from `state` of any root that
    Newton polished to NEWTON_TOL (sup norm of the augmented residual):
    the residual's 2-norm over the augmented Jacobian's smallest singular
    value, which near a pitchfork shrinks like g - g_c."""
    y = state.pack()
    jac = _augmented_jacobian(y, params, hop_matrix(params))
    sigma_min = np.linalg.svd(jac, compute_uv=False)[-1]
    return np.sqrt(y.size) * NEWTON_TOL / sigma_min


def _collapse(sets):
    out = []
    for s in sets:
        if not out or s != out[-1]:
            out.append(s)
    return out


def test_criterion_01_threshold_formula_vs_bisection():
    worst = 0.0
    for bc, xis in [(PBC, np.linspace(-0.95, 0.45, 20)),
                    (OBC, np.linspace(-0.65, 0.65, 20))]:
        for xi in xis:
            params = LatticeParams(**BASE, g=0.5, xi=float(xi), bc=bc)
            analytic = critical_coupling_np(params).g_c
            numeric = bisect_np_threshold(params)
            worst = max(worst, abs(numeric - analytic))
    _report(1, worst <= 1e-5,
            f"bisection vs closed form, worst |dg| = {worst:.3e} over 40 "
            f"xi-points (gate 1e-5)")


def test_criterion_02_branch_residual():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        xi = float(rng.uniform(-0.9, 0.45))
        w1 = 1.0 - 2.0 * xi
        g_hom = 0.5 * np.sqrt(w1 + 0.16 / w1)
        g = float(g_hom * rng.uniform(1.05, 2.5))
        params = LatticeParams(**BASE, g=g, xi=xi, bc=PBC)
        branch = homogeneous_srp_branch(params)
        assert branch is not NO_BRANCH
        for fp in branch:
            worst = max(worst, rhs_sup_norm(fp.state, params))
    _report(2, worst < 1e-10,
            f"closed-form branch flow residual, worst sup-norm = {worst:.3e} "
            f"at 50 random ring points (gate 1e-10)")


def test_criterion_03_branch_stability_boundary():
    params = LatticeParams(**BASE, g=0.5, xi=0.2, bc=PBC)

    def branch_is_stable(g):
        branch = homogeneous_srp_branch(replace(params, g=g))
        if branch is NO_BRANCH:
            return False
        rep = stability_classify(branch[0], replace(params, g=g))
        return rep.verdict is Verdict.Stable

    lo, hi = 0.4, 0.6
    assert not branch_is_stable(lo) and branch_is_stable(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if branch_is_stable(mid):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    target = critical_coupling_hsrp(params)
    _report(3, abs(flip - target) <= 1e-5,
            f"verdict flip at g = {flip:.8f} vs closed form {target:.8f}, "
            f"|dg| = {abs(flip - target):.3e} (gate 1e-5)")


def test_criterion_04_finite_size_convergence():
    xi = 0.2
    open_gc = []
    for n in (3, 6, 10, 25, 50):
        params = LatticeParams(n_sites=n, omega_c=1.0, omega_a=1.0,
                               kappa=0.4, g=0.5, xi=xi, bc=OBC)
        open_gc.append(bisect_np_threshold(params))
    monotone = all(a > b for a, b in zip(open_gc, open_gc[1:]))
    limit = critical_coupling_np_infinite(1.0, 1.0, 0.4, xi)
    rel = abs(open_gc[-1] - limit) / limit

    ring_spread = 0.0
    for xi_r in (0.1, 0.2, 0.25):
        vals = [bisect_np_threshold(
            LatticeParams(n_sites=n, omega_c=1.0, omega_a=1.0, kappa=0.4,
                          g=0.5, xi=xi_r, bc=PBC)) for n in (3, 6, 10)]
        ring_spread = max(ring_spread, max(vals) - min(vals))

    ok = monotone and rel < 0.01 and ring_spread <= 1e-12
    _report(4, ok,
            f"open-chain thresholds {['%.6f' % v for v in open_gc]} "
            f"monotone={monotone}, N=50 vs limit rel err {rel:.2e} "
            f"(gate 1%), ring N-spread {ring_spread:.2e} (gate 1e-12)")


def test_criterion_05_no_homogeneous_srp_on_open_chain():
    rng = np.random.default_rng(55)
    checked = 0
    min_inhom = np.inf
    for _ in range(100):
        n = int(rng.choice([3, 6]))
        _, hi = xi_stability_window(n, 1.0, OBC)
        xi = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, hi - 0.06))
        params = LatticeParams(n_sites=n, omega_c=1.0, omega_a=1.0,
                               kappa=0.4, g=0.5, xi=xi, bc=OBC)
        g = float(critical_coupling_np(params).g_c * rng.uniform(1.1, 1.7))
        params = replace(params, g=g)

        witness = no_homogeneous_witness(params)
        assert witness.determinant != 0.0
        assert witness.only_solution == "a = 0"
        assert len(witness.conditions()) == 2

        _, classified = _classified(params, int(rng.integers(2**31)))
        for fp, rep in classified:
            if rep.verdict is not Verdict.Stable:
                continue
            if np.max(np.abs(fp.state.a)) <= 1e-5:
                continue
            a = fp.state.a
            inhom = float(np.max(np.abs(a[:, None] - a[None, :])))
            min_inhom = min(min_inhom, inhom)
            checked += 1
    ok = checked > 0 and min_inhom > 1e-3
    _report(5, ok,
            f"{checked} stable lit roots over 100 random open-chain points, "
            f"smallest site-inhomogeneity {min_inhom:.3e} (gate 1e-3), "
            f"witness valid at every point")


def test_criterion_06_boundary_dependent_window_edge():
    params_ring = LatticeParams(**BASE, g=0.3, xi=0.6, bc=PBC)
    params_open = LatticeParams(**BASE, g=0.3, xi=0.6, bc=OBC)
    seed = perturbed_normal_state(3, rng_seed=7)

    absc_ring = normal_state_abscissa(params_ring)
    traj_ring = integrate(seed, params_ring, 400.0)
    amp_ring = float(np.max(np.abs(traj_ring.final_state.a)))

    absc_open = normal_state_abscissa(params_open)
    traj_open = integrate(seed, params_open, 400.0)
    amp_open = float(np.max(np.abs(traj_open.final_state.a)))

    ok = (absc_ring > 0 and amp_ring > 1e-3
          and absc_open < 0 and amp_open < 1e-6)
    _report(6, ok,
            f"ring abscissa {absc_ring:+.4f}, |a|(400) = {amp_ring:.2e} "
            f"(stays lit); open abscissa {absc_open:+.4f}, |a|(400) = "
            f"{amp_open:.2e} (gate 1e-6, decays to dark)")


def test_criterion_07_ring_transition_sequences_and_onset():
    gs = np.round(np.arange(0.40, 1.1001, 0.05), 10)

    seq_a = _collapse([frozenset(_stable_info(
        LatticeParams(**BASE, g=float(g), xi=0.2, bc=PBC))[0]) for g in gs])
    seq_b = _collapse([frozenset(_stable_info(
        LatticeParams(**BASE, g=float(g), xi=0.48, bc=PBC))[0]) for g in gs])
    seq_ok = (seq_a == [frozenset({"NP"}), frozenset({"P1"}),
                        frozenset({"P1", "P2"})]
              and seq_b == [frozenset({"NP"}), frozenset({"P2"})])

    # Continuous onset: the order parameter is a pitchfork, |a| ~ sqrt(dg).
    # Below g_c only NP is stable; above it only the first lit class, so a
    # lit root that classify drops fails here instead of reading as |a| = 0.
    # dg stops at 1e-4: at dg = 1e-5 every lit root on the xi = 0.48 cut
    # raises ZeroModeMismatch and the stable-class set comes back empty.
    deltas = (1e-2, 1e-3, 1e-4)
    onset_ok, amps, slopes = True, {}, {}
    worst_dev, worst_ratio = 0.0, 0.0
    for xi, lit in ((0.2, "P1"), (0.48, "P2")):
        params = LatticeParams(**BASE, g=0.5, xi=xi, bc=PBC)
        g_c = critical_coupling_np(params).g_c
        below, _ = _stable_info(replace(params, g=g_c - 1e-3))
        onset_ok &= set(below) == {"NP"}
        amps[xi] = []
        for d in deltas:
            at = replace(params, g=g_c + d)
            counts, amp = _stable_info(at)
            onset_ok &= set(counts) == {lit}
            amps[xi].append(amp)
            if xi == 0.2:
                # P1 is the closed-form homogeneous branch; find_all only
                # seeds Newton with it, so the kept root is an independent
                # solve and must agree to within its Newton error bound
                exact = homogeneous_srp_branch(at)[0].state
                amp_exact = float(np.max(np.abs(exact.a)))
                dev = abs(amp - amp_exact)
                worst_dev = max(worst_dev, dev / amp_exact)
                worst_ratio = max(worst_ratio,
                                  dev / _newton_error_bound(exact, at))
        # an empty stable set gives amp = 0 and a non-finite slope
        with np.errstate(divide="ignore"):
            slopes[xi] = (np.log(amps[xi][0]) - np.log(amps[xi][-1])) \
                / np.log(deltas[0] / deltas[-1])
        onset_ok &= abs(slopes[xi] - 0.5) <= 0.02 and amps[xi][-1] < 0.05
    onset_ok &= worst_ratio <= 1.0

    _report(7, seq_ok and onset_ok,
            f"sequences xi=0.2: {[sorted(s) for s in seq_a]}, xi=0.48: "
            f"{[sorted(s) for s in seq_b]}; onset |a| at dg = "
            f"{list(deltas)}: xi=0.2 {[f'{a:.4f}' for a in amps[0.2]]}, "
            f"xi=0.48 {[f'{a:.4f}' for a in amps[0.48]]}; log-log slopes "
            f"{slopes[0.2]:.4f}, {slopes[0.48]:.4f} (gate 1/2 +- 0.02); "
            f"closed form at xi=0.2: worst relative deviation "
            f"{worst_dev:.1e}, worst deviation / Newton error bound "
            f"{worst_ratio:.3f} (gate 1)")


def test_criterion_08_open_chain_multistability():
    gs = np.round(np.arange(0.40, 1.1001, 0.10), 10)
    cards = {}
    for xi in (0.2, 0.67):
        cards[xi] = []
        for g in gs:
            params = LatticeParams(**BASE, g=float(g), xi=xi, bc=OBC)
            counts, _ = _stable_info(params)
            cards[xi].append(sum(counts.values()))
    ok = (2 in cards[0.2] and 2 in cards[0.67]
          and any(3 in v for v in cards.values()))
    _report(8, ok,
            f"stable-class cardinalities along xi=0.2: {cards[0.2]}, "
            f"xi=0.67: {cards[0.67]}; bistable cells on both cuts and a "
            f"tristable cell present")


def test_criterion_09_boundary_site_profile():
    base = dict(n_sites=50, omega_c=1.0, omega_a=1.0, kappa=0.4, g=0.5,
                xi=0.2)
    prof_ring = site_profile(LatticeParams(**base, bc=PBC), 0.6,
                             settle_tol=1e-6)
    prof_open = site_profile(LatticeParams(**base, bc=OBC), 0.6,
                             settle_tol=1e-6)
    amp = np.abs(prof_open.a)
    med = float(np.median(amp))
    dev_edge = min(abs(amp[0] - med), abs(amp[-1] - med))
    dev_mid = abs(amp[24] - med)
    ok = (prof_ring.homogeneity < 1e-6 and prof_open.homogeneity > 1e-3
          and dev_edge > dev_mid)
    _report(9, ok,
            f"ring homogeneity {prof_ring.homogeneity:.2e} (gate 1e-6), "
            f"open {prof_open.homogeneity:.2e} (gate 1e-3), edge deviation "
            f"{dev_edge:.3e} vs mid-site {dev_mid:.3e}")


def test_criterion_10a_jacobian_vs_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        params = LatticeParams(n_sites=n, omega_c=1.0, omega_a=1.0,
                               kappa=float(rng.uniform(0.0, 0.8)),
                               g=float(rng.uniform(0.1, 1.2)),
                               xi=float(rng.uniform(-0.4, 0.4)),
                               bc=PBC if rng.integers(2) else OBC)
        z = rng.uniform(-0.49, 0.49, n)
        phi = rng.uniform(0, 2 * np.pi, n)
        r = np.sqrt(0.25 - z**2)
        y = np.concatenate([rng.standard_normal(2 * n),
                            r * np.cos(phi), r * np.sin(phi), z])
        jac = jacobian_packed(y, params)
        h = 1e-6
        fd = np.empty_like(jac)
        for col in range(5 * n):
            dy = np.zeros(5 * n)
            dy[col] = h
            fd[:, col] = (rhs_packed(y + dy, params)
                          - rhs_packed(y - dy, params)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(jac - fd))))
    _report("10a", worst < 1e-6,
            f"analytic vs central-difference Jacobian, worst deviation "
            f"{worst:.3e} on 100 random states (gate 1e-6)")


def test_criterion_10b_relaxation_matches_root_search():
    worst = 0.0
    unsettled = 0
    for xi in np.linspace(-0.3, 0.12, 10):
        for g in np.linspace(0.55, 0.76, 10):
            params = LatticeParams(**BASE, g=float(g), xi=float(xi), bc=PBC)
            res = relax_to_steady(perturbed_normal_state(3, rng_seed=3),
                                  params, t_max=2500.0, settle_tol=1e-8)
            if not res.settled:
                unsettled += 1
                continue
            end = res.state.pack()
            d = min(float(np.max(np.abs(end - fp.state.pack())))
                    for fp in find_all(params, rng_seed=5))
            worst = max(worst, d)
    ok = unsettled == 0 and worst < 1e-5
    _report("10b", ok,
            f"relaxation endpoint vs nearest enumerated root, worst "
            f"sup-distance {worst:.3e} on a 10x10 grid (gate 1e-5), "
            f"{unsettled} unsettled cells")


def test_criterion_10c_routh_hurwitz_agreement():
    points = [(PBC, 0.2, 0.6), (PBC, 0.2, 0.9), (PBC, 0.48, 0.8),
              (OBC, 0.2, 0.8), (OBC, 0.67, 0.9), (OBC, 0.3, 0.5)]
    compared = 0
    mismatches = 0
    for bc, xi, g in points:
        params = LatticeParams(**BASE, g=g, xi=xi, bc=bc)
        _, classified = _classified(params, 11)
        for fp, rep in classified:
            if rep.verdict is Verdict.Marginal:
                continue
            verdict_rh, _ = routh_verdict(fp, params)
            compared += 1
            if verdict_rh is not rep.verdict:
                mismatches += 1
    ok = compared >= 50 and mismatches == 0
    _report("10c", ok,
            f"Routh-Hurwitz vs eigenvalue verdicts at {compared} fixed "
            f"points (need >= 50), {mismatches} disagreements")


def test_criterion_10d_spin_constraint_drift():
    worst = 0.0
    for bc, xi, g in [(PBC, 0.2, 0.8), (OBC, 0.6, 0.3)]:
        params = LatticeParams(**BASE, g=g, xi=xi, bc=bc)
        traj = integrate(perturbed_normal_state(3, rng_seed=0), params, 400.0)
        worst = max(worst, traj.spin_drift)
    _report("10d", worst < 1e-8,
            f"per-site spin-sphere drift over t = 400, worst {worst:.3e} "
            f"(gate 1e-8)")
