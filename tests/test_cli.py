import json
import math

import numpy as np
import pytest

from stefanlab.bounds import sqrt_envelopes
from stefanlab.cli import main
from stefanlab.densities import read_numeric_rows
from stefanlab.solver import FrontierPath, PicardResult

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


def test_check_takes_no_seed(workdir, capsys):
    # the averaging check draws no random numbers, so a seed would change nothing
    (workdir / "sine.json").write_text(json.dumps({"family": "periodic", "alpha": 1.0,
                                                   "psi": "sin"}))
    assert main(["check", "--density", "sine.json", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--seed" in err


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


@pytest.mark.parametrize("history, warned", [
    ([1e-2, 5e-3, 9.9e-4], False),  # r = 0.198: about 2.4e-4 left
    ([2e-3, 1.6e-3, 9e-4], True),   # r = 0.5625: about 1.16e-3 left, above tol
])
def test_picard_warns_when_its_tail_estimate_exceeds_tol(workdir, capsys, monkeypatch,
                                                        history, warned):
    def geometric(density, cfg):
        t = cfg.t_grid()
        return PicardResult(frontier=FrontierPath(t=t, lam=np.zeros_like(t)),
                            iterations=len(history), history=history, converged=True)
    monkeypatch.setattr("stefanlab.cli.picard_minimal", geometric)
    assert main(["picard", "--config", "cfg.json", "--density", "pw.json",
                 "--out", "p.csv", "--threads", "1"]) == 0
    man = json.loads((workdir / "p.csv.manifest.json").read_text())
    r = history[-1] / history[-2]
    assert man["tail_estimate"] == pytest.approx(r / (1.0 - r) * history[-1], rel=1e-15)
    err = capsys.readouterr().err
    if warned:
        assert len(err.splitlines()) == 1 and "estimated distance to the limit" in err
    else:
        assert err == ""


def test_bounds_roundtrip_bit_identical(workdir):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json",
          "--out", "f.csv", "--threads", "1"])
    code1 = main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                  "--frontier", "f.csv", "--out", "b1.json", "--threads", "1"])
    code2 = main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                  "--out", "b2.json", "--threads", "1"])
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
    assert set(rep["prob_in_G"]) == {"t", "lhs", "lhs_se", "rhs", "rhs_se", "a", "b", "threshold",
                                     "probG_margin", "threshold_margin", "threshold_pass"}


def test_bounds_emit_csv(workdir):
    # this grid holds t = 0.1205, where t ** 0.5 is one ulp off sqrt(t); every row
    # must be the report's own envelope, written as plain floats
    assert main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--dt", "5e-4",
                 "--T", "0.25", "--out", "f.csv", "--threads", "1"]) == 0
    main(["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "f.csv",
          "--out", "b.json", "--emit-csv", "tables", "--threads", "1"])
    path = workdir / "tables" / "bounds_margins.csv"
    assert path.read_text().splitlines()[0] == ("t,lambda,c1_sqrt_t,c2_sqrt_t,"
                                                "lower_margin,upper_margin")
    rep = json.loads((workdir / "b.json").read_text())
    t, lam, lower, upper = sqrt_envelopes(FrontierPath.read_csv("f.csv"), rep["c1"], rep["c2"])
    rows = np.asarray([nums for _, nums in read_numeric_rows(path, ",")])
    assert len(rows) == 500 and 0.1205 in t
    assert np.array_equal(rows, np.column_stack([t, lam, lower, upper, lam - lower,
                                                 upper - lam]))
    assert rows[:, 4].min() == rep["sqrt_lower_margin"]
    assert rows[:, 5].min() == rep["sqrt_upper_margin"]


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


@pytest.mark.parametrize("params, reason", [
    (["picard.n_paths=10,20"], "particle solver"),
    (["picard={}"], "particle solver"),
    (["n_particles="], "no values"),
    (["n_particles=100", "n_particles=200"], "given twice"),
], ids=["picard.n_paths=10,20", "picard={}", "no-values", "given-twice"])
def test_sweep_rejects_picard_parameters(workdir, capsys, monkeypatch, params, reason):
    # also a --param with no values, or a name given twice, before any cell runs
    monkeypatch.setattr("stefanlab.cli._solve", lambda *a: pytest.fail("a cell ran"))
    argv = [x for param in params for x in ("--param", param)]
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 *argv, "--out-dir", "sw", "--threads", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and reason in err
    assert f"--param {params[0].partition('=')[0]}:" in err
    assert not (workdir / "sw").exists()


def test_sweep_rejects_threads(workdir, capsys):
    code = main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "threads=1,2", "--out-dir", "sw", "--threads", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--param threads:" in err and "particle solver" in err
    assert not (workdir / "sw").exists()


def test_sweep_rejects_a_name_that_is_no_config_field(workdir, capsys):
    assert main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "foo=1", "--out-dir", "sw", "--threads", "1"]) == 1
    assert "unknown config field 'foo'" in _one_line_error(capsys)
    assert not (workdir / "sw").exists()


def test_manifest_hash_names_the_density(workdir):
    # one config on the band and the sine density: two frontiers, two hashes
    (workdir / "sine.json").write_text(json.dumps({"family": "periodic", "alpha": 1.0,
                                                   "psi": "sin"}))
    hashes = set()
    for name in ("pw", "sine"):
        assert main(["simulate", "--config", "cfg.json", "--density", f"{name}.json",
                     "--n-particles", "500", "--out", f"{name}.csv", "--threads", "1"]) == 0
        hashes.add(json.loads((workdir / f"{name}.csv.manifest.json").read_text())[
            "config_hash"])
    assert (workdir / "pw.csv").read_bytes() != (workdir / "sine.csv").read_bytes()
    assert len(hashes) == 2


@pytest.mark.parametrize("command, change", [
    ("simulate", {"picard": {"n_paths": 10, "max_iters": 2, "tol": 0.5}}),
    ("simulate", {"threads": 3}),
    ("picard", {"n_particles": 10}),
    ("picard", {"bridge_correction": True}),
    ("picard", {"n_particles": 10, "bridge_correction": True}),
    ("picard", {"threads": 3}),
])
def test_manifest_hash_ignores_fields_the_solver_does_not_read(workdir, command, change):
    (workdir / "cfg1.json").write_text(json.dumps({**CFG, "threads": 1}))
    (workdir / "cfg2.json").write_text(json.dumps({**CFG, "threads": 1, **change}))
    manifests = []
    for cfg in ("cfg1", "cfg2"):
        assert main([command, "--config", f"{cfg}.json", "--density", "pw.json",
                     "--out", f"{cfg}.csv"]) == 0
        manifests.append(json.loads((workdir / f"{cfg}.csv.manifest.json").read_text()))
    assert (workdir / "cfg1.csv").read_bytes() == (workdir / "cfg2.csv").read_bytes()
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert manifests[0]["config"] != manifests[1]["config"]


def test_sweep_cell_and_simulate_run_share_the_hash(workdir):
    assert main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--seed", "5",
                 "--out", "s.csv", "--threads", "2"]) == 0
    assert main(["sweep", "--config", "cfg.json", "--density", "pw.json",
                 "--param", "seed=5", "--out-dir", "sw", "--threads", "1"]) == 0
    man = json.loads((workdir / "s.csv.manifest.json").read_text())
    cell = json.loads((workdir / "sw" / "index.json").read_text())["cells"][0]
    assert cell["config_hash"] == man["config_hash"]
    assert (workdir / "sw" / cell["csv"]).read_bytes() == (workdir / "s.csv").read_bytes()


def test_bounds_takes_no_n_paths(workdir, capsys):
    # the report samples nothing, so a path count would change nothing
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--n-paths", "2000", "--threads", "1"]) == 1
    assert "--n-paths" in _one_line_error(capsys)


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
                 "--frontier", "bad.csv", "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "bad.csv" in err and "strictly increasing" in err


@pytest.mark.parametrize("rows, reason", [
    ("0.0005,0.0,1.0\n0.001,0.1,0.9\n", "start at t = 0"),
    ("0.0,0.0,1.0\n", "at least two times"),
], ids=["no-time-zero", "one-row"])
def test_bounds_rejects_a_frontier_without_time_zero_or_a_second_time(workdir, capsys, rows,
                                                                       reason):
    (workdir / "f.csv").write_text("t,lambda,alive_fraction\n" + rows)
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--frontier", "f.csv", "--threads", "1"]) == 1
    err = _one_line_error(capsys)
    assert err.startswith("error: f.csv: ") and reason in err


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
          "--out", "b.json", "--fit-envelope", "--threads", "3"])
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
    assert set(man) == common | {"iterations", "converged", "sup_changes", "tail_estimate"}
    assert set(man["timings"]) == {"picard_s"}
    assert set(man["config"]) == {"n_particles", "dt", "T", "seed", "bridge_correction",
                                  "threads", "picard"}
    main(["sweep", "--config", "cfg.json", "--density", "pw.json", "--param", "seed=1",
          "--out-dir", "sw", "--threads", "1"])
    index = json.loads((workdir / "sw" / "index.json").read_text())
    assert set(index) == {"tool_version", "density", "cells"}
    assert set(index["cells"][0]) == {"cell", "params", "csv", "config_hash", "seed",
                                      "lambda_T", "timings"}
    assert set(index["cells"][0]["timings"]) == {"simulate_s"}


def test_bridge_flag_sets_the_config_field(workdir):
    main(["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "b.csv",
          "--bridge", "--threads", "1"])
    assert json.loads((workdir / "b.csv.manifest.json").read_text())[
        "config"]["bridge_correction"] is True


def test_bounds_rejects_a_non_numeric_frontier_column(workdir, capsys):
    (workdir / "z.csv").write_text("t,lambda,alive_fraction\n0.0,0.0,1.0\n0.1,0.2,zzz\n")
    assert main(["bounds", "--config", "cfg.json", "--density", "pw.json",
                 "--frontier", "z.csv", "--threads", "1"]) == 1
    assert "z.csv:3" in _one_line_error(capsys)


@pytest.mark.parametrize("fields, name", [
    ({"bridge_correction": "false"}, "bridge_correction"),
    ({"picard": {"tol": math.inf}}, "picard.tol"),
    ({"T": math.inf}, "T"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"n_particles": 1.5}, "n_particles"),
    ({"threads": 0}, "threads"),
    ({"jump_threshold": 0.5}, "jump_threshold"),  # no field any more: unknown
    ({"bridge_correction": 1}, "bridge_correction"),
    ({"dt": 1e-10, "T": 1e300}, "T/dt must be a finite number, got inf"),
])
@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_solve_rejects_a_bad_config_field(workdir, capsys, fields, name, command):
    (workdir / "bad.json").write_text(json.dumps({**CFG, **fields}))
    assert main([command, "--config", "bad.json", "--density", "pw.json"]) == 1
    assert name in _one_line_error(capsys)
    assert not (workdir / "frontier.csv").exists()


@pytest.mark.parametrize("command, solver", [("simulate", "simulate_particles"),
                                             ("picard", "picard_minimal")])
def test_a_run_too_large_to_allocate_exits_1_in_one_line(workdir, capsys, monkeypatch,
                                                         command, solver):
    # a stand-in for numpy's allocation error: a real oversize array may be an OOM kill
    def oversize(*_):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                          "(10000000000001,) and data type float64")
    monkeypatch.setattr(f"stefanlab.cli.{solver}", oversize)
    assert main([command, "--config", "cfg.json", "--density", "pw.json"]) == 1
    assert "out of memory: Unable to allocate 72.8 TiB" in _one_line_error(capsys)
    assert not (workdir / "frontier.csv").exists()


def test_simulate_manifest_jumps_are_the_frontier_files_jumps(workdir):
    # uniform[0, 1/2] freezes at t = 0; the CSV read back reports the manifest's jumps
    (workdir / "u.json").write_text(json.dumps({"family": "tabulated", "grid": [0.0, 0.5],
                                                "values": [2.0, 2.0]}))
    assert main(["simulate", "--config", "cfg.json", "--density", "u.json", "--out", "u.csv",
                 "--n-particles", "1000", "--threads", "1"]) == 0
    manifest = json.loads((workdir / "u.csv.manifest.json").read_text())
    assert manifest["jumps"] == [[0.0, 1.0]]
    assert FrontierPath.read_csv(workdir / "u.csv").jumps(1000) == [(0.0, 1.0)]


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
    {"family": "periodic", "alpha": 1.0,
     "psi": {"period": 3.0, "values": [0.0, -1.0, 0.5], "phase": 1.0}},
])
def test_check_rejects_a_non_finite_density_spec(workdir, capsys, spec):
    (workdir / "d.json").write_text(json.dumps(spec))
    assert main(["check", "--density", "d.json", "--n-lambda", "10", "--n-mu", "11"]) == 1
    assert "bad density spec" in _one_line_error(capsys)


def test_check_rejects_a_periodic_table_past_the_cell_edge_cap(workdir, capsys, monkeypatch):
    # the cap is lowered here (9441 cell edges at period 0.1): a real one needs gigabytes
    monkeypatch.setattr("stefanlab.densities._MAX_CELL_EDGES", 9_000)
    (workdir / "d.json").write_text(json.dumps({
        "family": "periodic", "alpha": 1.0,
        "psi": {"period": 0.1, "values": [0.0, -0.5, 0.5, 0.2]}}))
    assert main(["check", "--density", "d.json", "--n-lambda", "10", "--n-mu", "11"]) == 1
    assert "period 0.1 needs 9441 cell edges" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["check", "--density", "pw.json", "--lambda0", "inf"],
    ["check", "--density", "pw.json", "--lambda0", "nan"],
    ["check", "--density", "pw.json", "--lambda-min", "0"],
    ["check", "--density", "pw.json", "--n-lambda", "0"],
    ["check", "--density", "pw.json", "--n-mu", "0"],
    ["check", "--density", "pw.json", "--threads", "0"],
    ["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "f.csv",
     "--fit-envelope", "--envelope-lambda0", "inf", "--threads", "1"],
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
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "adir"], "adir"),
    (["check", "--density", "csv.json", "--n-lambda", "10", "--n-mu", "11"], "missing.csv"),
    # outputs are checked before any density is built or anything is solved
    (["picard", "--config", "cfg.json", "--density", "pw.json", "--out", "nodir/f.csv"],
     "nodir/f.csv"),
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--manifest", "nodir/m.json"],
     "nodir/m.json"),
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "adir"], "adir"),
    (["picard", "--config", "cfg.json", "--density", "pw.json", "--manifest", "adir"], "adir"),
    (["check", "--density", "pw.json", "--out", "adir"], "adir"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--out", "nodir/b.json"],
     "nodir/b.json"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--out", "b.json",
      "--emit-csv", "pw.json/tables"], "pw.json/tables"),
    # two outputs that name the same file
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "f.csv",
      "--manifest", "f.csv"], "f.csv"),
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "f.csv",
      "--manifest", "./f.csv"], "f.csv"),
    (["picard", "--config", "cfg.json", "--density", "pw.json", "--out", "adir/../f.csv",
      "--manifest", "f.csv"], "f.csv"),
    (["simulate", "--config", "cfg.json", "--density", "pw.json",
      "--manifest", "frontier.csv"], "frontier.csv"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json",
      "--out", "adir/bounds_margins.csv", "--emit-csv", "adir"], "adir/bounds_margins.csv"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json",
      "--out", "tables/bounds_margins.csv", "--emit-csv", "./tables"],
     "tables/bounds_margins.csv"),
    # an output that names an input file
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "pw.json"],
     "pw.json"),
    (["picard", "--config", "cfg.json", "--density", "pw.json", "--manifest", "./cfg.json"],
     "cfg.json"),
    (["simulate", "--config", "cfg.json", "--density", "pw.json", "--out", "adir/../pw.json"],
     "pw.json"),
    (["check", "--density", "pw.json", "--n-lambda", "10", "--n-mu", "11", "--out", "pw.json"],
     "pw.json"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--frontier", "f.csv",
      "--out", "f.csv"], "f.csv"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json",
      "--frontier", "adir/bounds_margins.csv", "--emit-csv", "adir"], "bounds_margins.csv"),
    (["sweep", "--config", "index.json", "--density", "pw.json", "--param", "seed=1",
      "--out-dir", "."], "index.json"),
    # a failed command makes no --emit-csv or --out-dir directory
    (["bounds", "--config", "cfg.json", "--density", "missing.json", "--emit-csv", "new"],
     "missing.json"),
    (["bounds", "--config", "cfg.json", "--density", "pw.json", "--out", "pw.json",
      "--emit-csv", "new"], "pw.json"),
    (["bounds", "--config", "cfg.json", "--density", "csv.json", "--emit-csv", "new"],
     "missing.csv"),
    (["sweep", "--config", "cfg.json", "--density", "missing.json", "--param", "seed=1",
      "--out-dir", "new"], "missing.json"),
])
def test_an_unusable_path_exits_1_naming_it(workdir, capsys, monkeypatch, argv, path):
    def never(*args, **kwargs):
        pytest.fail("solved before the unusable path was reported")
    for name in ("simulate_particles", "picard_minimal", "check_averaging_condition",
                 "assemble_bounds_report"):
        monkeypatch.setattr(f"stefanlab.cli.{name}", never)
    (workdir / "adir").mkdir()
    (workdir / "csv.json").write_text(json.dumps({"family": "tabulated", "csv": "missing.csv"}))
    (workdir / "index.json").write_text(json.dumps(CFG))
    inputs = {p: p.read_bytes() for p in workdir.glob("*.json")}
    entries = sorted(workdir.rglob("*"))
    assert main(argv + ["--threads", "1"]) == 1
    assert path in _one_line_error(capsys)
    assert {p: p.read_bytes() for p in workdir.glob("*.json")} == inputs
    assert sorted(workdir.rglob("*")) == entries
