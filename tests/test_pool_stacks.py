"""A large lattice's root search on the worker pool: from N = 26, where a
verdict stack holds one Jacobian, and with workers > 1, newton_solve and
stability.classify run their stacks on the process's kept pool, and
every bit of their output, of a steady dossier and of a cut CSV is the
one serial run's, at any stack size."""

import os

import numpy as np
import pytest

from dickelattice import (BoundaryCondition, LatticeParams, MeanFieldState,
                          _blas, _pool, normal_state, stability)
from dickelattice.cli import main
from dickelattice._pool import stack_size
from dickelattice.steady_state import SeedOutcome, _seed_list, newton_solve

PBC, OBC = BoundaryCondition.Periodic, BoundaryCondition.Open
CHAIN = LatticeParams(n_sites=30, kappa=0.4, xi=0.2, g=0.8, bc=OBC)
RING = LatticeParams(n_sites=26, kappa=0.4, xi=0.2, g=0.8, bc=PBC)


def _singular_case():
    """Chain N = 30 at g = 0, where a site on the equator makes the
    Newton matrix singular (in (Re s, z) it has determinant
    -2 omega_a z per site), between two seeds that converge."""
    n = 30
    params = LatticeParams(n_sites=n, kappa=0.4, xi=0.2, g=0.0, bc=OBC)
    s, z = np.full(n, 0.3 + 0j), np.full(n, -0.4)
    s[0], z[0] = 0.3 + 0.4j, 0.0
    equator = MeanFieldState(a=np.full(n, 0.1 + 0j), s=s, z=z)
    seeds = np.array([normal_state(n).pack(), equator.pack(),
                      normal_state(n).pack()])
    return params, seeds


CASES = {"chain-30": (CHAIN, _seed_list(CHAIN, 64, np.random.default_rng(0))[0]),
         "ring-26": (RING, _seed_list(RING, 8, np.random.default_rng(0))[0]),
         "singular-30": _singular_case()}


def _on_pool(workers, call):
    """call() on a fresh pool of `workers`, asserting that it ran there."""
    _pool.shutdown_pool()
    with _blas.one_thread():
        out = call()
    pool = _pool._pools.get(os.getpid())
    assert pool is not None and pool._max_workers == workers
    return out


@pytest.fixture(scope="module")
def serial():
    """Each case's newton_solve and classify outcome at workers=1 and
    the default stack sizes: several seeds per Newton stack, one
    Jacobian per verdict stack."""
    out = {}
    with _blas.one_thread():
        for name, (params, seeds) in CASES.items():
            assert stack_size(2 * params.n_sites) > 1
            assert stack_size(5 * params.n_sites) == 1
            y, residual, outcome = newton_solve(seeds, params)
            roots = y[outcome == SeedOutcome.ROOT]
            out[name] = ((y, residual, outcome), roots,
                         stability.classify(roots, params))
    assert out["singular-30"][0][2].tolist() == [
        SeedOutcome.ROOT, SeedOutcome.SINGULAR, SeedOutcome.ROOT]
    return out


def _assert_same_newton(got, want):
    (y, residual, outcome), (y_want, residual_want, outcome_want) = got, want
    # tobytes compares every bit, the signs of zeros included
    assert y.tobytes() == y_want.tobytes()
    assert residual.tobytes() == residual_want.tobytes()
    assert outcome.shape == (len(y),)
    assert outcome.tolist() == outcome_want.tolist()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_newton_stacks_on_the_pool_match_serial(case, workers, serial,
                                                monkeypatch):
    # one seed per stack, so that even the three seeds of singular-30
    # make several stacks and go to the pool
    monkeypatch.setattr(_pool, "STACK_BYTES", 1)
    params, seeds = CASES[case]
    got = _on_pool(workers,
                   lambda: newton_solve(seeds, params, workers=workers))
    _assert_same_newton(got, serial[case][0])


def test_chain_30_newton_stacks_go_to_the_pool_by_default(serial,
                                                          monkeypatch):
    # at the default STACK_BYTES a chain N = 30 Newton stack holds 9 seeds,
    # and the stacks run on the pool as the verdict stacks do
    params, seeds = CASES["chain-30"]
    assert 1 < stack_size(2 * params.n_sites) < len(seeds)
    calls, worker_pool = [], _pool.worker_pool

    def counting(workers):
        calls.append(workers)
        return worker_pool(workers)

    monkeypatch.setattr(_pool, "worker_pool", counting)
    got = _on_pool(2, lambda: newton_solve(seeds, params, workers=2))
    assert calls == [2]
    _assert_same_newton(got, serial["chain-30"][0])


@pytest.mark.parametrize("stack_bytes", [1, 2 ** 30],
                         ids=["one-seed-stacks", "one-stack"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_newton_stack_sizes_match_serial(case, stack_bytes, serial,
                                         monkeypatch):
    monkeypatch.setattr(_pool, "STACK_BYTES", stack_bytes)
    params, seeds = CASES[case]
    with _blas.one_thread():
        got = newton_solve(seeds, params)
    _assert_same_newton(got, serial[case][0])


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", ["chain-30", "ring-26"])
def test_verdict_stacks_on_the_pool_match_serial(case, workers, serial):
    params, _ = CASES[case]
    _, roots, want = serial[case]
    assert len(roots) > 1
    got = _on_pool(workers,
                   lambda: stability.classify(roots, params, workers=workers))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.verdict is w.verdict
        assert np.float64(g.spectral_abscissa).tobytes() == \
            np.float64(w.spectral_abscissa).tobytes()
        assert g.eigenvalues.tobytes() == w.eigenvalues.tobytes()


STEADY = ["steady", "--n", "30", "--bc", "obc", "--xi", "0.2", "--g", "0.8"]


def test_steady_dossier_bytes_at_one_and_two_workers(tmp_path, monkeypatch,
                                                     capsys):
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("DLP_WORKERS", workers)
        _pool.shutdown_pool()
        path = tmp_path / f"steady_w{workers}.json"
        assert main(STEADY + ["--out", str(path)]) == 0
        out[workers] = path.read_bytes()
        assert (os.getpid() in _pool._pools) == (workers == "2")
    capsys.readouterr()
    assert out["1"] == out["2"]


CUT = ["sweep", "--mode", "cut", "--n", "30", "--bc", "obc", "--xi", "0.2",
       "--g-min", "0.7", "--g-max", "0.8", "--g-steps", "2"]


def test_cut_csv_bytes_at_one_and_two_workers(tmp_path, capsys):
    # at two workers the rows run on the pool, each root search serial
    # inside its task
    out = {}
    for workers in ("1", "2"):
        _pool.shutdown_pool()
        path = tmp_path / f"cut_w{workers}.csv"
        assert main(CUT + ["--workers", workers, "--out", str(path)]) == 0
        out[workers] = path.read_bytes()
        assert (os.getpid() in _pool._pools) == (workers == "2")
    capsys.readouterr()
    assert out["1"] == out["2"]
    assert len(out["1"].splitlines()) == 4      # comment, header, two rows
