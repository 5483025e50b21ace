import json
import math

import numpy as np
import pytest

from stefanlab.cli import main
from stefanlab.solver import FrontierPath

PW_SPEC = {"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20",
           "p": "1/2", "q": "1/2"}
CFG = {"n_particles": 4000, "dt": 0.001, "T": 0.1, "seed": 3,
       "picard": {"n_paths": 4000, "max_iters": 30, "tol": 1e-3}}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pw.json").write_text(json.dumps(PW_SPEC))
    (tmp_path / "cfg.json").write_text(json.dumps(CFG))
    return tmp_path


def test_jump_prints_cascade_size(workdir, capsys):
    (workdir / "pos.csv").write_text("-0.05, 0.3, 0.6, 0.9\n")
    assert main(["jump", "--positions", "pos.csv"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_jump_with_header_and_n(workdir, capsys):
    (workdir / "pos.csv").write_text("x\n-0.05\n0.3\n0.6\n0.9\n")
    assert main(["jump", "--positions", "pos.csv", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


@pytest.mark.parametrize("text, line, token", [
    ("0 0.5 O.9\n", 1, "O.9"),
    ("x\n0\n0.5\nO.9\n", 4, "O.9"),
    ("0, 0.5\n\nx, 0.9\n", 3, "x"),
])
def test_jump_rejects_a_bad_token_after_the_header(workdir, capsys, text, line, token):
    (workdir / "pos.csv").write_text(text)
    assert main(["jump", "--positions", "pos.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert len(err.splitlines()) == 1 and f"pos.csv:{line}" in err and repr(token) in err


def test_jump_missing_file(workdir, capsys):
    assert main(["jump", "--positions", "nope.csv"]) == 1
    assert "nope.csv" in capsys.readouterr().err


def test_check_sine_passes(workdir, capsys):
    (workdir / "sine.json").write_text(json.dumps({"family": "periodic", "alpha": 1.0,
                                                   "psi": "sin"}))
    code = main(["check", "--density", "sine.json", "--n-lambda", "40",
                 "--n-mu", "41", "--out", "rep.json"])
    assert code == 0
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["holds_1_7"] is True
    assert rep["holds_1_5"] is False
    for key in ("holds_1_5", "holds_1_6", "holds_1_7", "lambda0", "g_envelope", "worst_psi"):
        assert key in rep
    assert all(len(pair) == 2 for pair in rep["g_envelope"])


def test_check_piecewise_fails_exit2(workdir):
    code = main(["check", "--density", "pw.json", "--n-lambda", "30",
                 "--n-mu", "31", "--out", "rep.json"])
    assert code == 2
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["holds_1_7"] is False
    assert rep["lambda0"] == 0.0


def test_simulate_missing_config_names_path(workdir, capsys):
    assert main(["simulate", "--config", "missing.json", "--density", "pw.json"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(workdir, capsys):
    assert main(["simulate", "--bogus-flag", "1"]) == 1


def test_unknown_config_field_named(workdir, capsys):
    (workdir / "bad.json").write_text(json.dumps({"n_particles": 10, "wobble": 3}))
    assert main(["simulate", "--config", "bad.json", "--density", "pw.json"]) == 1
    assert "wobble" in capsys.readouterr().err


def test_simulate_writes_frontier_and_manifest(workdir):
    code = main(["simulate", "--config", "cfg.json", "--density", "pw.json",
                 "--out", "f.csv", "--threads", "1"])
    assert code == 0
    fr = FrontierPath.read_csv(workdir / "f.csv")
    assert fr.t[-1] == pytest.approx(0.1)
    man = json.loads((workdir / "f.csv.manifest.json").read_text())
    assert man["seed"] == 3
    assert man["outputs"] == ["f.csv"]
    assert man["config"]["n_particles"] == 4000
    header = (workdir / "f.csv").read_text().splitlines()[0]
    assert header == "t,lambda,alive_fraction"


def test_simulate_flag_overrides_config(workdir):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json",
          "--out", "a.csv", "--seed", "9", "--threads", "1"])
    man = json.loads((workdir / "a.csv.manifest.json").read_text())
    assert man["seed"] == 9


def test_picard_manifest_flags_convergence(workdir):
    code = main(["picard", "--config", "cfg.json", "--density", "pw.json",
                 "--out", "p.csv", "--threads", "1"])
    assert code == 0
    man = json.loads((workdir / "p.csv.manifest.json").read_text())
    assert man["converged"] is True
    assert man["iterations"] >= 1
    assert man["solver"] == "picard"


def test_bounds_roundtrip_bit_identical(workdir):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json",
          "--out", "f.csv", "--threads", "1"])
    code1 = main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                  "--frontier", "f.csv", "--n-paths", "4000", "--out", "b1.json",
                  "--threads", "1"])
    code2 = main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                  "--n-paths", "4000", "--out", "b2.json", "--threads", "1"])
    assert code1 == code2
    assert (workdir / "b1.json").read_bytes() == (workdir / "b2.json").read_bytes()
    rep = json.loads((workdir / "b1.json").read_text())
    assert rep["L"] == pytest.approx(0.94)
    assert rep["admissible_4_4"] is True
    assert set(rep) == {"beta1", "beta2", "admissible_4_4", "rho", "L", "L_lt_one", "c1", "c2",
                        "c3", "beta_slope", "delta0_hat", "delta0_se", "early_increment_margin",
                        "probG_margin", "n_mc", "prob_in_G", "sqrt_lower_margin",
                        "sqrt_upper_margin", "sqrt_margin", "holder_margin", "chi_bar_margin",
                        "chi_bar_coverage", "max_se"}
    assert set(rep["prob_in_G"]) == {"t", "lhs", "lhs_se", "rhs", "a", "b", "threshold",
                                     "probG_margin", "threshold_margin", "threshold_pass"}


def test_bounds_emit_csv(workdir):
    main(["bounds", "--config", "cfg.json", "--density", "pw.json",
          "--n-paths", "2000", "--out", "b.json", "--emit-csv", "tables",
          "--threads", "1"])
    lines = (workdir / "tables" / "bounds_margins.csv").read_text().splitlines()
    assert lines[0].startswith("t,lambda,")
    assert len(lines) > 10


def test_bounds_rejects_non_piecewise(workdir, capsys):
    (workdir / "u.json").write_text(json.dumps({"family": "tabulated",
                                                "grid": [0.0, 2.0], "values": [0.5, 0.5]}))
    assert main(["bounds", "--config", "cfg.json", "--density", "u.json"]) == 1
    assert "piecewise" in capsys.readouterr().err


def test_sweep_grid(workdir):
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "n_particles=1000,2000", "--param", "seed=1,2",
                 "--out-dir", "sw", "--threads", "1"])
    assert code == 0
    index = json.loads((workdir / "sw" / "index.json").read_text())
    assert len(index["cells"]) == 4
    for cell in index["cells"]:
        assert (workdir / "sw" / cell["csv"]).exists()
    # cells are re-derivable: same params give the same frontier
    c0 = index["cells"][0]
    fr = FrontierPath.read_csv(workdir / "sw" / c0["csv"])
    assert fr.lam[-1] == c0["lambda_T"]


def test_sweep_rejects_a_bad_cell_before_running(workdir, capsys):
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "dt=0.005,-1", "--out-dir", "sw", "--threads", "1"])
    assert code == 1
    assert "bad config" in capsys.readouterr().err
    assert not (workdir / "sw").exists()


@pytest.mark.parametrize("param", ["picard.n_paths=10,20", "picard={}"])
def test_sweep_rejects_picard_parameters(workdir, capsys, param):
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", param, "--out-dir", "sw", "--threads", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "particle solver" in err
    assert not (workdir / "sw").exists()


def test_sweep_rejects_threads(workdir, capsys):
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "threads=1,2", "--out-dir", "sw", "--threads", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "threads" in err
    assert not (workdir / "sw").exists()


@pytest.mark.parametrize("n_paths", ["0", "-5"])
def test_bounds_rejects_n_paths_below_one(workdir, capsys, n_paths):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json",
          "--out", "f.csv", "--threads", "1"])
    capsys.readouterr()
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--frontier", "f.csv", "--n-paths", n_paths, "--threads", "1"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: n_paths must be >= 1, got {n_paths}"


def test_seed_determinism_across_runs(workdir):
    for name in ("r1.csv", "r2.csv"):
        main(["simulate", "--config", "cfg.json", "--density", "pw.json",
              "--out", name, "--threads", "1"])
    assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()


def test_env_threads_parsing(workdir, monkeypatch, capsys):
    monkeypatch.setenv("STEFAN_THREADS", "junk")
    assert main(["simulate", "--config", "cfg.json", "--density", "pw.json"]) == 1
    assert "STEFAN_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_env_threads_must_be_positive(workdir, monkeypatch, capsys, value):
    monkeypatch.setenv("STEFAN_THREADS", value)
    assert main(["simulate", "--config", "cfg.json", "--density", "pw.json"]) == 1
    assert "STEFAN_THREADS" in _one_line_error(capsys)
    assert not (workdir / "frontier.csv").exists()


def test_check_reports_where_u_overflows(workdir):
    # at alpha = 100, x^(-alpha) overflows below x ~ 1e-3.08: a report, not a traceback
    (workdir / "a100.json").write_text(json.dumps({"family": "periodic", "alpha": 100}))
    code = main(["check", "--density", "a100.json", "--n-lambda", "20", "--n-mu", "21",
                 "--out", "rep.json"])
    assert code in (0, 2)
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["max_pdf"] == 1.0 and math.isfinite(rep["first_moment"])


def test_bounds_rejects_non_monotone_frontier(workdir, capsys):
    (workdir / "bad.csv").write_text("t,lambda,alive_fraction\n"
                                     "0.0,0.0,1.0\n0.05,0.1,0.9\n0.02,0.2,0.8\n")
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--frontier", "bad.csv", "--n-paths", "2000", "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "bad.csv" in err and "strictly increasing" in err


def test_picard_rejects_a_time_zero_jump(workdir, capsys):
    (workdir / "u.json").write_text(json.dumps({"family": "tabulated",
                                                "grid": [0.0, 0.5], "values": [2.0, 2.0]}))
    assert main(["picard", "--config", "cfg.json", "--density", "u.json",
                 "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "time-0 jump" in err


def test_bounds_fit_envelope_uses_the_thread_count(workdir, monkeypatch):
    import types

    import stefanlab.cli as cli

    calls = []

    def spy(density, **kwargs):
        calls.append(kwargs)
        return types.SimpleNamespace(holds_1_7=False)

    monkeypatch.setattr(cli, "check_averaging_condition", spy)
    main(["simulate", "--config", "cfg.json", "--density", "pw.json",
          "--out", "f.csv", "--threads", "1"])
    main(["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "f.csv",
          "--n-paths", "2000", "--out", "b.json", "--fit-envelope", "--threads", "3"])
    assert len(calls) == 1 and calls[0]["threads"] == 3


def _one_line_error(capsys):
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def test_sweep_rejects_a_config_that_is_not_an_object(workdir, capsys):
    (workdir / "list.json").write_text("[1, 2]")
    assert main(["sweep", "--config", "list.json", "--param", "seed=1",
                 "--out-dir", "sw"]) == 1
    assert "list.json must be a JSON object" in _one_line_error(capsys)
    assert not (workdir / "sw").exists()


def test_density_from_the_config_file(workdir):
    # one read of the config serves its fields and its density; --density overrides it
    (workdir / "cfgd.json").write_text(json.dumps({**CFG, "density": PW_SPEC}))
    assert main(["simulate", "--config", "cfgd.json", "--out", "a.csv", "--threads", "1"]) == 0
    assert main(["simulate", "--config", "cfg.json", "--density", "pw.json",
                 "--out", "b.csv", "--threads", "1"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
    assert main(["sweep", "--config", "cfgd.json", "--param", "seed=1,2",
                 "--out-dir", "sw", "--threads", "1"]) == 0
    index = json.loads((workdir / "sw" / "index.json").read_text())
    assert index["density"] == json.loads((workdir / "a.csv.manifest.json").read_text())["density"]


def test_manifest_and_index_keys(workdir):
    common = {"config", "config_hash", "density", "outputs", "seed", "solver", "timings",
              "tool_version"}
    main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "s.csv",
          "--manifest", "s.json", "--threads", "1"])
    man = json.loads((workdir / "s.json").read_text())
    assert set(man) == common | {"jumps"}
    assert set(man["timings"]) == {"simulate_s"} and man["solver"] == "particle"
    main(["picard", "--config", "cfg.json", "--density", "pw.json", "--out", "p.csv",
          "--threads", "1"])
    man = json.loads((workdir / "p.csv.manifest.json").read_text())
    assert set(man) == common | {"iterations", "converged", "sup_changes"}
    assert set(man["timings"]) == {"picard_s"}
    assert set(man["config"]) == {"n_particles", "dt", "T", "seed", "bridge_correction",
                                  "jump_threshold", "threads", "picard"}
    main(["sweep", "--config", "cfg.json", "--density", "pw.json", "--param", "seed=1",
          "--out-dir", "sw", "--threads", "1"])
    index = json.loads((workdir / "sw" / "index.json").read_text())
    assert set(index) == {"tool_version", "density", "cells"}
    assert set(index["cells"][0]) == {"cell", "params", "csv", "config_hash", "seed",
                                      "lambda_T"}


def test_bridge_flag_sets_the_config_field(workdir):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "b.csv",
          "--bridge", "--threads", "1"])
    assert json.loads((workdir / "b.csv.manifest.json").read_text())[
        "config"]["bridge_correction"] is True


def test_bounds_rejects_a_non_numeric_frontier_column(workdir, capsys):
    (workdir / "z.csv").write_text("t,lambda,alive_fraction\n0.0,0.0,1.0\n0.1,0.2,zzz\n")
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--frontier", "z.csv", "--n-paths", "2000", "--threads", "1"]) == 1
    assert "z.csv:3" in _one_line_error(capsys)


@pytest.mark.parametrize("fields, name", [
    ({"bridge_correction": "false"}, "bridge_correction"),
    ({"picard": {"tol": math.inf}}, "picard.tol"),
    ({"T": math.inf}, "T"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"n_particles": 1.5}, "n_particles"),
    ({"threads": 0}, "threads"),
    ({"jump_threshold": -1}, "jump_threshold"),
    ({"bridge_correction": 1}, "bridge_correction"),
])
@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_solve_rejects_a_bad_config_field(workdir, capsys, fields, name, command):
    (workdir / "bad.json").write_text(json.dumps({**CFG, **fields}))
    assert main([command, "--config", "bad.json", "--density", "pw.json"]) == 1
    assert name in _one_line_error(capsys)
    assert not (workdir / "frontier.csv").exists()


@pytest.mark.parametrize("spec", [
    {"family": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.5, math.nan, 0.5]},
    {"family": "tabulated", "grid": [0.0, 1.0, math.inf], "values": [0.5, 0.5, 0.5]},
    {"family": "gaussian_path", "hurst": 0.5, "beta_lil": math.nan, "grid_size": 65},
    {"family": "gaussian_path", "hurst": 0.5, "beta_lil": 1.4, "grid_size": 65, "seed": -1},
    {"family": "periodic", "alpha": math.nan},
    {"family": "periodic", "alpha": math.inf},
    {"family": "periodic", "alpha": 1.0, "psi": True},
    {"family": "periodic", "alpha": 1.0, "psi": {"period": "6", "values": [0.0, 0.5]}},
    {"family": "periodic", "alpha": 0.001},
    {"family": "periodic", "alpha": 0.005},
    {"family": "periodic", "alpha": 0.01},
    {"family": "periodic", "alpha": 1e5},
    {"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": [1]},
    {"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "x"},
    {"family": "piecewise", "alpha1": "1/2", "alpha2": "21/20", "p": "1/2", "q": "1/0"},
    {"family": "gaussian_path", "hurst": "0.5", "beta_lil": 1.4, "grid_size": 65},
    {"family": "gaussian_path", "hurst": 0.5, "beta_lil": True, "grid_size": 65},
    {"family": "tabulated", "grid": ["0", "1"], "values": [1.0, 1.0]},
    {"family": "tabulated", "grid": [0.0, 1.0], "values": [True, True]},
    {"family": "tabulated", "csv": 0},
])
def test_check_rejects_a_non_finite_density_spec(workdir, capsys, spec):
    (workdir / "d.json").write_text(json.dumps(spec))
    assert main(["check", "--density", "d.json", "--n-lambda", "10", "--n-mu", "11"]) == 1
    assert "bad density spec" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["check", "--density", "pw.json", "--lambda0", "inf"],
    ["check", "--density", "pw.json", "--lambda0", "nan"],
    ["check", "--density", "pw.json", "--lambda-min", "0"],
    ["check", "--density", "pw.json", "--n-lambda", "0"],
    ["check", "--density", "pw.json", "--n-mu", "0"],
    ["check", "--density", "pw.json", "--threads", "0"],
    ["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "f.csv",
     "--fit-envelope", "--envelope-lambda0", "inf", "--n-paths", "2000", "--threads", "1"],
])
def test_averaging_inputs_rejected(workdir, capsys, argv):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "f.csv",
          "--threads", "1"])
    capsys.readouterr()
    assert main(argv + ["--out", "rep.json"]) == 1
    _one_line_error(capsys)
    assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize("argv, path", [
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "nodir/f.csv"],
     "nodir/f.csv"),
    (["check", "--density", "pw.json", "--n-lambda", "10", "--n-mu", "11",
      "--out", "nodir/rep.json"], "nodir/rep.json"),
    (["sweep", "--config", "cfg.json", "--density", "pw.json", "--param", "seed=1",
      "--out-dir", "pw.json/sw"], "pw.json/sw"),
    (["simulate", "--config", "adir", "--density", "pw.json"], "adir"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "adir",
      "--n-paths", "2000"], "adir"),
    (["check", "--density", "csv.json", "--n-lambda", "10", "--n-mu", "11"], "missing.csv"),
])
def test_an_unusable_path_exits_1_naming_it(workdir, capsys, argv, path):
    (workdir / "adir").mkdir()
    (workdir / "csv.json").write_text(json.dumps({"family": "tabulated", "csv": "missing.csv"}))
    assert main(argv + ["--threads", "1"]) == 1
    assert path in _one_line_error(capsys)
