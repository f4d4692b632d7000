import json
import os

import pytest

from dickelattice import (BoundaryCondition, DomainError, GridAxis,
                          LatticeParams, SweepSpec, _blas, cli, find_all,
                          phase_diagram, root_dossier, sweep)
from dickelattice.cli import main
from dickelattice.dynamics import MAX_RECORDS, T_MAX


def test_dispersion_stdout(capsys):
    assert main(["dispersion", "--n", "3", "--xi", "0.2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# dickelattice ")
    assert out[1] == "k omega_k"
    modes = [float(line.split()[1]) for line in out[2:5]]
    assert modes == pytest.approx([0.6, 1.2, 1.2], abs=1e-12)
    assert out[5].startswith("window (")
    assert not any("WARNING" in line for line in out)


def test_dispersion_warns_outside_window(capsys):
    assert main(["dispersion", "--xi", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out


def test_bad_params_exit_2(capsys):
    assert main(["dispersion", "--n", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_trajectory_writes_csv_and_config(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["trajectory", "--g", "0.6", "--t-end", "20",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 1 + 21      # t = 0..20 inclusive at cadence 1
    cfg = json.loads((tmp_path / "traj.config.json").read_text())
    assert cfg["command"] == "trajectory"
    assert cfg["g"] == 0.6 and cfg["t_end"] == 20.0


def test_trajectory_np_init_stays_dark(tmp_path, capsys):
    out = tmp_path / "dark.csv"
    assert main(["trajectory", "--init", "np", "--g", "0.8", "--t-end", "10",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    for row in rows:
        vals = [float(tok) for tok in row.split(",")]
        a_cols = [vals[1 + 5 * j + c] for j in range(3) for c in (0, 1)]
        assert max(abs(v) for v in a_cols) == 0.0   # re/im a_j all zero


def test_steady_stdout_json(capsys):
    assert main(["steady", "--bc", "obc", "--xi", "0.2", "--g", "0.8",
                 "--n-random-seeds", "16"]) == 0
    dossier = json.loads(capsys.readouterr().out)
    assert dossier["params"]["bc"] == "open"
    assert dossier["phase_letter"] == "I"
    assert dossier["stable_classes"] == {"O1": 1, "O3": 1, "O4": 1}


def test_steady_out_file(tmp_path, capsys):
    out = tmp_path / "dossier.json"
    assert main(["steady", "--g", "0.6", "--n-random-seeds", "16",
                 "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    dossier = json.loads(out.read_text())
    assert dossier["stable_classes"] == {"P1": 1}
    assert (tmp_path / "dossier.config.json").exists()


def test_steady_out_file_is_stdout(tmp_path, capsys, monkeypatch):
    # the file is streamed and stdout printed whole: the same bytes, the
    # dossier's indented JSON and a newline
    monkeypatch.delenv("DLP_WORKERS", raising=False)
    argv = ["steady", "--bc", "obc", "--xi", "0.2", "--g", "0.8",
            "--n-random-seeds", "8"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "dossier.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    params = LatticeParams(n_sites=3, kappa=0.4, xi=0.2, g=0.8,
                           bc=BoundaryCondition.Open)
    with _blas.one_thread():        # as the command line runs it
        dossier = root_dossier(params, find_all(params, n_random_seeds=8))
    want = json.dumps(dossier, indent=2, sort_keys=True) + "\n"
    assert out.read_text() == printed == want


# one small run per command and sweep mode, each rerun from its config
ROUND_TRIPS = [
    ["critical", "--n-list", "3", "--xi-min", "0.1", "--xi-max", "0.2",
     "--xi-steps", "2"],
    ["trajectory", "--g", "0.6", "--t-end", "5", "--rng-seed", "2"],
    ["steady", "--bc", "obc", "--g", "0.8", "--n-random-seeds", "8"],
    ["sweep", "--mode", "phase", "--xi-steps", "2", "--g-steps", "2",
     "--workers", "1"],
    ["sweep", "--mode", "cut", "--xi", "0.1", "--g-steps", "2"],
    ["sweep", "--mode", "profile", "--n", "5", "--g-cut", "0.6"],
]


def test_config_roundtrip_bit_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DLP_WORKERS", raising=False)
    for k, argv in enumerate(ROUND_TRIPS):
        first, second = tmp_path / f"{k}a.out", tmp_path / f"{k}b.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main([argv[0], "--config", str(tmp_path / f"{k}a.config.json"),
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv
    capsys.readouterr()


# every flag of each command (as --<key>, plus --config) and its resolved
# default: a change to either changes what existing scripts and configs run
RESOLVED_DEFAULTS = {
    "dispersion": {},
    "critical": {"n_list": "3", "xi_min": 0.05, "xi_max": 0.45,
                 "xi_steps": 9, "infinite": False, "out": "critical.csv"},
    "trajectory": {"init": "perturbed-np", "t_end": 400.0, "rng_seed": 0,
                   "scale": 0.001, "record_every": 1.0, "rtol": 1e-09,
                   "atol": 1e-11, "out": "trajectory.csv"},
    "steady": {"n_random_seeds": 64, "rng_seed": 0, "dedup_tol": 1e-06,
               "out": ""},
    "sweep": {"mode": "phase", "xi_min": 0.0, "xi_max": 0.45,
              "xi_steps": 140, "g_min": 0.3, "g_max": 1.1, "g_steps": 140,
              "rng_seed": 0, "workers": 0, "g_cut": 0.6,
              "init_amplitude": 0.1, "t_end": 400.0, "settle_tol": 1e-06,
              "out": "sweep.csv"},
}
MODEL_DEFAULTS = {"n": 3, "bc": "periodic", "omega_c": 1.0, "omega_a": 1.0,
                  "kappa": 0.4, "xi": 0.2, "g": 0.5}


@pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
def test_flags_and_resolved_defaults_per_command(command):
    parser = cli._build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    defaults = {**MODEL_DEFAULTS, **RESOLVED_DEFAULTS[command]}
    flags = {s for a in sub._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--config"} | {
        "--" + key.replace("_", "-") for key in defaults}
    cfg = cli._resolve(parser.parse_args([command]))
    expected = {**defaults, "command": command}
    assert cfg == expected
    assert {k: type(v) for k, v in cfg.items()} == {
        k: type(v) for k, v in expected.items()}      # 400.0, not 400


def test_config_int_for_float_kept_as_given(tmp_path, capsys):
    cfg = tmp_path / "in.json"
    cfg.write_text(json.dumps({"xi_min": 0, "xi_max": 1}))
    out = tmp_path / "crit.csv"
    assert main(["critical", "--config", str(cfg), "--xi-steps", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "crit.config.json").read_text())
    assert (written["xi_min"], written["xi_max"]) == (0, 1)
    assert type(written["xi_min"]) is int


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["dispersion", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


SWEEP_1x1 = ["sweep", "--mode", "phase", "--xi-steps", "1", "--g-steps", "1"]
PROFILE = ["sweep", "--mode", "profile"]
IN = "IN"                       # stands for the path of the in_json file
NEGATIVE_SEED = "rng_seed must be >= 0, got -1"


@pytest.mark.parametrize("argv, workers_env, in_json, message", [
    (["sweep", "--mode", "phase", "--xi-steps", "0"], None, None,
     "steps must be >= 1, got 0"),
    (["sweep", "--mode", "cut", "--g-steps", "0"], None, None,
     "steps must be >= 1, got 0"),
    (["steady", "--n-random-seeds", "-3"], None, None,
     "n_random_seeds must be >= 0, got -3"),
    (SWEEP_1x1 + ["--workers", "-4"], None, None,
     "workers must be >= 1, got -4"),
    (SWEEP_1x1, "0", None, "workers must be >= 1, got 0"),
    (SWEEP_1x1, "abc", None, "DLP_WORKERS must be an integer, got 'abc'"),
    (PROFILE, "2.5", None, "DLP_WORKERS must be an integer, got '2.5'"),
    (SWEEP_1x1 + ["--config", IN], None, {"workers": "2"},
     "config workers must be int, got '2'"),
    (["critical", "--config", IN], None, {"xi_steps": 2.5},
     "config xi_steps must be int, got 2.5"),
    (["critical", "--config", IN], None, {"xi_steps": True},
     "config xi_steps must be int, got True"),
    (["critical", "--config", IN], None, {"infinite": "no"},
     "config infinite must be bool, got 'no'"),
    (["critical", "--config", IN], None, {"bc": 1},
     "config bc must be one of ['obc', 'open', 'pbc', 'periodic'], got 1"),
    (["critical", "--config", IN], None, 5,
     "config file must hold a JSON object, got int"),
    (["critical", "--n-list", "3,a"], None, None,
     "n_list must be comma-separated integers, got '3,a'"),
    (["critical", "--n-list", "1"], None, None, "n_sites must be >= 2, got 1"),
    (PROFILE + ["--settle-tol", "-1"], None, None,
     "settle_tol must be finite and > 0, got -1.0"),
    (PROFILE + ["--t-end", "-1"], None, None,
     "t_end must be finite and > 0, got -1.0"),
    (["steady", "--dedup-tol", "-1"], None, None,
     "dedup_tol must be finite and >= 0, got -1.0"),
    (PROFILE + ["--settle-tol", "inf"], None, None,
     "settle_tol must be finite and > 0, got inf"),
    (PROFILE + ["--t-end", "inf"], None, None,
     "t_end must be finite and > 0, got inf"),
    (["trajectory", "--t-end", "inf"], None, None,
     "t_end must be finite and > 0, got inf"),
    (["steady", "--dedup-tol", "inf"], None, None,
     "dedup_tol must be finite and >= 0, got inf"),
    (["trajectory", "--init", IN], None, {},
     "state is missing keys ['re_a', 'im_a', 're_s', 'im_s', 'z']"),
    (["trajectory", "--init", IN], None, 5,
     "state must be a JSON object, got int"),
    (["trajectory", "--init", IN], None,
     {"re_a": [float("nan"), 0, 0], "im_a": [0, 0, 0], "re_s": [0, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "initial state must be finite"),
    (["trajectory", "--init", IN], None,
     {"re_a": ["x", 0, 0], "im_a": [0, 0, 0], "re_s": [0, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "state re_a must be a list of numbers"),
    (["trajectory", "--init", IN], None,
     {"re_a": ["0.5", "1e-1", 0], "im_a": [0, 0, 0], "re_s": [0, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "state re_a must be a list of numbers"),
    (["trajectory", "--init", IN], None,
     {"re_a": [0, 0, 0], "im_a": [0, 0, 0], "re_s": [True, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "state re_s must be a list of numbers"),
    (["trajectory", "--init", IN], None,
     {"re_a": {"a": 1}, "im_a": [0, 0, 0], "re_s": [0, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "state re_a must be a list of numbers"),
    (["trajectory", "--init", IN], None,
     {"re_a": [0, 0, 0], "im_a": [0.01], "re_s": [0, 0, 0],
      "im_s": [0, 0, 0], "z": [-0.5, -0.5, -0.5]},
     "state im_a has 1 entries, re_a has 3"),
    (["steady", "--rng-seed", "-1"], None, None, NEGATIVE_SEED),
    (["trajectory", "--rng-seed", "-1"], None, None, NEGATIVE_SEED),
    (SWEEP_1x1 + ["--rng-seed", "-1"], None, None, NEGATIVE_SEED),
    (["sweep", "--mode", "cut", "--g-steps", "1", "--rng-seed", "-1"], None,
     None, NEGATIVE_SEED),
    (PROFILE + ["--rng-seed", "-1"], None, None, NEGATIVE_SEED),
    (["sweep", "--mode", "phase", "--xi-max", "nan", "--xi-steps", "2",
      "--g-steps", "2"], None, None,
     "grid bounds must be finite, got min=0.0, max=nan"),
    (["sweep", "--mode", "cut", "--g-min", "nan", "--g-steps", "2"], None,
     None, "grid bounds must be finite, got min=nan, max=1.1"),
    (SWEEP_1x1 + ["--g-max", "inf"], None, None,
     "grid bounds must be finite, got min=0.3, max=inf"),
    (["trajectory", "--scale", "nan"], None, None,
     "scale must be finite, |scale| <= 0.5, got nan"),
    (PROFILE + ["--init-amplitude", "nan"], None, None,
     "init_amplitude must be finite, got nan"),
    (["trajectory", "--rtol", "-1"], None, None,
     "rtol must be finite and > 0, got -1.0"),
    (["trajectory", "--rtol", "0"], None, None,
     "rtol must be finite and > 0, got 0.0"),
    (["trajectory", "--atol", "nan"], None, None,
     "atol must be finite and > 0, got nan"),
    (["trajectory", "--record-every", "1e-300"], None, None,
     f"t_end / record_every must be <= {MAX_RECORDS}, got 4e+302"),
    (["trajectory", "--record-every", repr(T_MAX / (MAX_RECORDS + 1))], None,
     None, f"t_end / record_every must be <= {MAX_RECORDS}, "
     f"got {MAX_RECORDS + 1}"),
], ids=["phase-xi-steps", "cut-g-steps", "negative-seeds", "negative-workers",
        "zero-env-workers", "text-env-workers", "fractional-env-workers",
        "config-text-workers", "config-fractional-steps", "config-bool-steps",
        "config-text-switch", "config-int-bc", "config-not-object",
        "text-n-list", "one-site-n-list", "profile-negative-settle-tol",
        "profile-negative-t-end", "negative-dedup-tol",
        "profile-infinite-settle-tol", "profile-infinite-t-end",
        "trajectory-infinite-t-end", "infinite-dedup-tol", "init-missing-keys",
        "init-not-object", "init-nan", "init-text-entry", "init-quoted-number",
        "init-bool-entry", "init-object-entry",
        "init-short-block", "steady-negative-rng-seed",
        "trajectory-negative-rng-seed", "phase-negative-rng-seed",
        "cut-negative-rng-seed", "profile-negative-rng-seed", "phase-nan-xi-max",
        "cut-nan-g-min", "phase-infinite-g-max", "trajectory-nan-scale",
        "profile-nan-init-amplitude", "trajectory-negative-rtol",
        "trajectory-zero-rtol", "trajectory-nan-atol",
        "trajectory-tiny-record-every", "trajectory-records-past-bound"])
def test_invalid_sweep_and_seed_counts_exit_2(tmp_path, capsys, monkeypatch,
                                              argv, workers_env, in_json,
                                              message):
    if workers_env is None:
        monkeypatch.delenv("DLP_WORKERS", raising=False)
    else:
        monkeypatch.setenv("DLP_WORKERS", workers_env)
    in_path = tmp_path / "in.json"
    in_path.write_text(json.dumps(in_json))
    argv = [str(in_path) if tok == IN else tok for tok in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(argv + ["--out", str(out_dir / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out_dir.iterdir()) == []


def test_unwritable_out_exit_4(tmp_path, capsys):
    assert main(["critical", "--xi-steps", "1",
                 "--out", "/no-such-dir/x.csv"]) == 4
    assert "error:" in capsys.readouterr().err


def test_sweep_profile_mode(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    rc = main(["sweep", "--mode", "profile", "--n", "3", "--g-cut", "0.6",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[1] == "j,re_a,im_a,z"
    assert len(lines) == 2 + 3
    # the comment line carries the cut coupling, not the base g
    assert "g=0.6" in lines[0]


def test_sweep_phase_mode_small(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    rc = main(["sweep", "--mode", "phase", "--xi-min", "0.2", "--xi-max",
               "0.2", "--xi-steps", "1", "--g-min", "0.4", "--g-max", "0.6",
               "--g-steps", "2", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[1].startswith("xi,g,")
    assert len(lines) == 2 + 2
    assert lines[2].split(",")[3] == "NP"
    assert lines[3].split(",")[3] == "P1"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dickelattice" in capsys.readouterr().out


def test_main_runs_on_one_blas_thread_and_restores(two_blas_threads,
                                                   monkeypatch, capsys):
    seen = []

    def probe(cfg, params):
        seen.append(_blas.thread_count())
        if params.n_sites == 4:
            raise DomainError("probe failure")
        return 0

    monkeypatch.setattr(cli, "cmd_dispersion", probe)
    assert main(["dispersion"]) == 0
    assert _blas.thread_count() == two_blas_threads
    assert main(["dispersion", "--n", "4"]) == 2      # an error exit restores too
    assert _blas.thread_count() == two_blas_threads
    assert seen == [1, 1]


_COMPUTE_CELL = sweep._compute_cell


def _probed_cell(job):
    """A sweep cell, with the pid and BLAS thread count it ran under."""
    return os.getpid(), _blas.thread_count(), _COMPUTE_CELL(job)


def test_phase_diagram_workers_run_on_one_blas_thread(two_blas_threads,
                                                      monkeypatch):
    spec = SweepSpec(params_base=LatticeParams(n_sites=3, kappa=0.4,
                                               bc=BoundaryCondition.Periodic),
                     xi_grid=GridAxis(0.2, 0.2, 1),
                     g_grid=GridAxis(0.4, 0.6, 2))
    # the pool is forked (unless an earlier test did) before the probe is
    # patched in, which its workers would otherwise keep for good; the
    # cells then report for themselves
    phase_diagram(spec, workers=2)
    monkeypatch.setattr(sweep, "_compute_cell", _probed_cell)
    probed = phase_diagram(spec, workers=2)
    assert [cell.error for _, _, cell in probed] == ["", ""]
    assert os.getpid() not in {pid for pid, _, _ in probed}
    assert [count for _, count, _ in probed] == [1, 1]
    assert _blas.thread_count() == two_blas_threads
