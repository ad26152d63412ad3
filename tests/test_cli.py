import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import roughpaths
from roughpaths.cli import CONFIG, ConfigError, ScenarioConfig, main
from roughpaths.rough_path import PiecewiseLinearPath


def write_line_csv(path, n=64, d=1):
    times = np.linspace(0.0, 1.0, n + 1)
    pts = np.tile(times[:, None], (1, d))
    path.write_text(PiecewiseLinearPath(times, pts).to_csv())


def base_config(tmp_path, **extra):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "d": 1,
        "N": 3,
        "alpha": 0.29,
        "beta": 1 / 3,
        "path_csv": "path.csv",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_lift_writes_artifacts(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path)
    assert main(["lift", "--config", str(cfg)]) == 0
    blob = json.loads((tmp_path / "out" / "rough_path.json").read_text())
    assert blob["N"] == 3 and len(blob["grid"]) == 65
    lines = (tmp_path / "out" / "holder_norms.csv").read_text().splitlines()
    assert lines[0] == "level,exponent,norm"
    assert len(lines) == 4
    # Linear path with unit slope: level-1 Holder norm is 1 at (0, 1).
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0)


def test_lift_constant_path_norms_zero(tmp_path):
    times = np.linspace(0.0, 1.0, 9)
    (tmp_path / "path.csv").write_text(
        PiecewiseLinearPath(times, np.ones((9, 1))).to_csv())
    cfg = base_config(tmp_path)
    assert main(["lift", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "holder_norms.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[2]) == 0.0 for row in lines)


def test_lift_two_segment_corner_level_two(tmp_path):
    # Axis-aligned corner: level 2 of the endpoint is (e1e1 + e2e2)/2 + e1e2.
    path = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0, 0], [1, 0], [1, 1]])
    (tmp_path / "path.csv").write_text(path.to_csv())
    cfg = base_config(tmp_path, d=2, N=2, alpha=0.4, beta=0.5)
    assert main(["lift", "--config", str(cfg)]) == 0
    blob = json.loads((tmp_path / "out" / "rough_path.json").read_text())
    assert np.allclose(blob["levels"][2][-1], [0.5, 1.0, 0.0, 0.5])


def test_lift_rejects_malformed_csv(tmp_path):
    (tmp_path / "path.csv").write_text("time,a\n0,1\n")
    cfg = base_config(tmp_path)
    assert main(["lift", "--config", str(cfg)]) == 1


def test_config_rejects_bad_exponents(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, alpha=0.5, beta=0.6)
    assert main(["lift", "--config", str(cfg)]) == 1


def test_solve_exponential_scenario(tmp_path):
    write_line_csv(tmp_path / "path.csv", n=256)
    cfg = base_config(
        tmp_path,
        field={"kind": "linear", "matrix": [[1.0]]},
        y0=[1.0], horizon=1.0,
        solver={"tau_init": 0.25, "contraction_tol": 1e-11})
    assert main(["solve", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert rows[0] == "t,y1"
    end = float(rows[-1].split(",")[1])
    assert abs(end - np.e) < 1e-7
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["success"] and report["n_patches"] >= 1
    assert all(p["final_residual"] <= 1e-11 for p in report["patches"])
    assert (tmp_path / "out" / "residual_log.csv").exists()


def test_solve_constant_field(tmp_path):
    write_line_csv(tmp_path / "path.csv", n=32)
    cfg = base_config(
        tmp_path,
        field={"kind": "constant", "value": [0.0], "dim_in": 1},
        y0=[2.5], horizon=1.0)
    assert main(["solve", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert np.allclose(vals, 2.5)


def test_solve_failure_exit_code(tmp_path):
    write_line_csv(tmp_path / "path.csv", n=64)
    cfg = base_config(
        tmp_path,
        field={"kind": "polynomial", "dim_in": 1, "dim_out": 1,
               "coeffs": [{"exponents": [2], "value": [1.0]}]},
        y0=[2.0], horizon=1.0,
        solver={"explosion_bound": 50.0, "max_patches": 512})
    assert main(["solve", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert "failure" in report
    # The guard trips inside a local solve after earlier patches were
    # accepted: their solution and report are kept.
    assert report["partial"] is True
    assert report["n_patches"] == len(report["patches"]) >= 1
    assert (tmp_path / "out" / "solution_partial.csv").exists()


def test_solve_patch_budget_exit_code(tmp_path):
    # One patch of length tau_init = 0.25 cannot reach the horizon 1.0.
    write_line_csv(tmp_path / "path.csv", n=32)
    cfg = base_config(tmp_path, field={"kind": "linear", "matrix": [[1.0]]}, y0=[1.0],
                      horizon=1.0, solver={"tau_init": 0.25, "max_patches": 1})
    assert main(["solve", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["failure"] == "patch budget exhausted"
    assert report["partial"] is True and report["n_patches"] == 1
    rows = (tmp_path / "out" / "solution_partial.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == 0.25
    assert not (tmp_path / "out" / "solution.csv").exists()


def exp_field_config(tmp_path, y0):
    return base_config(
        tmp_path,
        field={"kind": "builtin", "dim_in": 1, "dim_out": 1,
               "terms": [{"coef": [1.0], "kind": "exp", "weight": [1.0]}]},
        y0=[y0], horizon=1.0)


def test_solve_overflow_exit_code(tmp_path):
    times = np.linspace(0.0, 1.0, 9)
    (tmp_path / "path.csv").write_text(PiecewiseLinearPath(times, 1000.0 * times[:, None]).to_csv())
    cfg = exp_field_config(tmp_path, 0.0)
    assert main(["solve", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert "overflowed" in report["failure"]


def test_solve_overflowing_start_path_exit_code(tmp_path):
    # exp(1000) overflows already in the start path's blocks at y0.
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = exp_field_config(tmp_path, 1000.0)
    assert main(["solve", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert "start path overflowed" in report["failure"]


def test_driver_whose_lift_overflows_is_a_config_error(tmp_path, capsys):
    times = np.linspace(0.0, 1.0, 5)
    (tmp_path / "path.csv").write_text(PiecewiseLinearPath(times, 1e200 * times[:, None]).to_csv())
    cfg = base_config(tmp_path)
    assert main(["lift", "--config", str(cfg)]) == 1
    assert "cannot be lifted" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["iterate", "start_path", "lift"])
def test_overflow_routes_raise_no_numpy_warning(tmp_path, capsys, route):
    # Each route once printed numpy's raw overflow RuntimeWarning before the
    # CLI's own message; every warning is an error here.
    times = np.linspace(0.0, 1.0, 9)
    scale = {"iterate": 1000.0, "start_path": 1.0, "lift": 1e200}[route]
    (tmp_path / "path.csv").write_text(PiecewiseLinearPath(times, scale * times[:, None]).to_csv())
    cfg = exp_field_config(tmp_path, 1000.0 if route == "start_path" else 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == (1 if route == "lift" else 2)
    assert "Warning" not in err
    assert ("cannot be lifted" if route == "lift" else "overflowed") in err


def test_verify_amplitude_whose_lift_overflows_is_a_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path, d=2, verify={"suites": ["rates"], "amplitude": 1e200})
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "verify.amplitude cannot be lifted" in capsys.readouterr().err


def test_verify_amplitude_whose_driver_overflows_is_a_config_error(tmp_path, capsys):
    # The octaves of an amplitude of 1e308 overflow before the lift: once a
    # numpy RuntimeWarning and a traceback.
    cfg = base_config(tmp_path, d=2, verify={"suites": ["rates"], "amplitude": 1e308})
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "verify.amplitude gives no finite driver" in capsys.readouterr().err


def test_integrate_signature_scenario(tmp_path):
    times = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.standard_normal((33, 2)) * 0.2, axis=0)
    (tmp_path / "path.csv").write_text(PiecewiseLinearPath(times, pts).to_csv())
    cfg = base_config(tmp_path, d=2, integrate={"integrand": "signature_level2",
                                                "depths": [1, 2, 3]})
    assert main(["integrate", "--config", str(cfg)]) == 0
    blob = json.loads((tmp_path / "out" / "integral.json").read_text())
    assert len(blob["value"]) == 4
    lines = (tmp_path / "out" / "rate_table.csv").read_text().splitlines()
    assert lines[0] == "depth,mesh,value_norm,cauchy_increment"


def test_verify_default_suites_pass(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    # At N=5 the expansion identity has terms near 1e5: its bound is relative.
    inputs = [({"verify": {"paths": 3, "segments": 6}},
               {"chen", "group_like", "coproduct", "alg_lemma", "removal", "rates"}),
              ({"N": 5, "alpha": 0.18, "beta": 0.2, "verify": {"suites": ["alg_lemma"]}},
               {"alg_lemma"})]
    for extra, suites in inputs:
        cfg = base_config(tmp_path, d=2, **extra)
        assert main(["verify", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert set(report["suites"]) == suites
        assert all(suite["pass"] for suite in report["suites"].values()), extra


def test_verify_alg_lemma_checks_config_alphabet(tmp_path, monkeypatch):
    # The suite draws its drivers at the config's d, letters 3 included.
    seen = []
    check = roughpaths.lipschitz.expansion_identity_check

    def recording_check(y_blocks, x_inc, r, k):
        seen.append(x_inc.d)
        return check(y_blocks, x_inc, r, k)

    monkeypatch.setattr(roughpaths.lipschitz, "expansion_identity_check", recording_check)
    write_line_csv(tmp_path / "path.csv", d=3)
    cfg = base_config(tmp_path, d=3, N=4, alpha=0.24, beta=0.25,
                      verify={"suites": ["alg_lemma"], "paths": 1})
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["suites"]["alg_lemma"]["pass"]
    assert len(seen) == 9 and set(seen) == {3}


def test_verify_corrupt_mode_fails_group_like(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, d=2,
                      verify={"suites": ["group_like"], "corrupt_level2": True})
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    suite = report["suites"]["group_like"]
    assert suite["corrupted"] and not suite["pass"]
    assert suite["max_violation"] >= 0.5


def test_verify_alg_lemma_detects_corruption_at_n3(tmp_path):
    # The README config's N = 3: the suite runs at N = 4, where level 2 of
    # the increment enters the identity, so the corrupted arm fails.
    write_line_csv(tmp_path / "path.csv")
    for corrupt in (False, True):
        cfg = base_config(tmp_path, verify={"suites": ["alg_lemma"], "corrupt_level2": corrupt})
        assert main(["verify", "--config", str(cfg)]) == 0
        suite = json.loads((tmp_path / "out" / "verify_report.json").read_text())["suites"]
        assert suite["alg_lemma"]["corrupted"] is corrupt
        assert suite["alg_lemma"]["pass"] is not corrupt
        if corrupt:
            assert suite["alg_lemma"]["max_deviation"] >= 0.5


def test_verify_empty_suites(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, verify={"suites": []})
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["suites"] == {}


def test_verify_reports_byte_identical(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = base_config(tmp_path, d=2, verify={"suites": ["chen", "group_like", "coproduct",
                                                        "alg_lemma", "removal"]})
    assert main(["verify", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "verify_report.json").read_bytes() == \
        (out_b / "verify_report.json").read_bytes()


def test_unknown_suite_rejected(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, verify={"suites": ["nope"]})
    assert main(["verify", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("options", [
    {"paths": "abc"}, {"segments": 0}, {"depths": []}, {"depths": [-1, 2]},
    {"paths": 0}, {"instances": -3}, {"grid": 1}, {"segments": 2.5},
    {"paths": True}, {"depths": [2, 9]}, {"corrupt_level2": "yes"},
    {"amplitude": "x"}, {"amplitude": float("nan")},
    {"suites": 5}, {"suites": [[1]]}, {"suites": "chen"},
])
def test_verify_options_rejected(tmp_path, capsys, options):
    # Each of these used to end in a traceback, check nothing and pass, or be
    # silently truncated; all must fail validation before any suite runs.
    cfg = base_config(tmp_path, verify={"suites": ["chen"], **options})
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "config error: verify." in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", [[], None, "chen"])
def test_verify_section_must_be_object(tmp_path, section):
    assert main(["verify", "--config", str(base_config(tmp_path, verify=section))]) == 1


@pytest.mark.parametrize("section", [[], None, "s"])
def test_integrate_section_must_be_object(tmp_path, section):
    assert main(["integrate", "--config", str(base_config(tmp_path, integrate=section))]) == 1


def test_seed_override_changes_stream(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, d=2, verify={"suites": ["chen"]})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["verify", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
    rep_a = json.loads((out_a / "verify_report.json").read_text())
    rep_b = json.loads((out_b / "verify_report.json").read_text())
    assert rep_a["seed"] != rep_b["seed"]


def test_seed_override_rejects_negative(tmp_path, capsys):
    # The override once skipped the config's own check and reached numpy.
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, d=2, verify={"suites": ["chen"]})
    assert main(["verify", "--config", str(cfg), "--seed", "-1"]) == 1
    assert "config error: seed must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"config"'])
def test_config_must_be_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["lift", "--config", str(cfg)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("output_dir", [5, None, ["out"]])
def test_output_dir_must_be_a_string(tmp_path, capsys, output_dir):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, output_dir=output_dir)
    assert main(["lift", "--config", str(cfg)]) == 1
    assert "config error: output_dir must be a string" in capsys.readouterr().err


def test_exponent_edge_warns_once(tmp_path, capsys):
    # The config and the solver settings both checked the exponent window,
    # so one near-edge alpha printed two warnings.
    write_line_csv(tmp_path / "path.csv", n=32)
    cfg = solve_config(tmp_path, alpha=0.25 + 5e-10)
    main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert sum(line.startswith("warning:") for line in err.splitlines()) == 1


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy.special once pulled in
    # numpy.f2py and numpy.testing on every start.
    code = ("import sys, roughpaths.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith(('numpy.f2py', 'numpy.testing'))])")
    src = str(Path(roughpaths.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("key, value", [
    ("d", 1.7), ("d", True), ("d", "3"), ("d", 2.0),
    ("N", 1.7), ("N", True), ("N", "3"), ("N", 2.0),
    ("seed", 1.7), ("seed", True), ("seed", "3"), ("seed", -1),
])
def test_config_integers_not_truncated(tmp_path, capsys, key, value):
    # int() used to turn 1.7 and true into 1 and "3" into 3.
    write_line_csv(tmp_path / "path.csv", n=32)
    cfg = solve_config(tmp_path, **{key: value})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert f"config error: {key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver", [
    {"tau_init": float("nan")}, {"tau_init": float("inf")}, {"tau_shrink": float("nan")},
    {"contraction_tol": float("inf")}, {"explosion_bound": float("nan")},
    {"max_picard_iters": 2.5}, {"max_picard_iters": True}, {"max_patches": 2.5},
    {"max_patches": True},
])
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, solver):
    # NaN or infinite tau settings used to make the patch loop retry forever;
    # a fractional budget ended in a traceback and true ran one iteration.
    write_line_csv(tmp_path / "path.csv", n=32)
    cfg = solve_config(tmp_path, solver=solver)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "config error: bad solver settings" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_scenario_config_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        ScenarioConfig.load(str(missing))
    bad_version = tmp_path / "bad.json"
    bad_version.write_text(json.dumps({"schema_version": 99, "d": 1, "N": 2,
                                       "alpha": 0.4, "beta": 0.5}))
    with pytest.raises(ConfigError):
        ScenarioConfig.load(str(bad_version))


def solve_config(tmp_path, **extra):
    opts = {"field": {"kind": "linear", "matrix": [[1.0]]}, "y0": [1.0], "horizon": 1.0}
    opts.update(extra)
    return base_config(tmp_path, **opts)


@pytest.mark.parametrize("command, drop, extra, message", [
    ("lift", ["path_csv"], {}, "config needs path_csv for this command"),
    ("lift", [], {"path_csv": "missing.csv"}, "missing.csv does not exist"),
    ("lift", [], {"d": 2}, "path CSV has d=1, config says 2"),
    ("solve", ["y0"], {}, "solve needs y0 and horizon"),
    ("solve", ["field"], {}, "config needs a field spec for this command"),
    ("integrate", [], {"field": {"kind": "linear", "matrix": [[1.0, 2.0]]}},
     "integrand field must map R^d into L(V;U)"),
])
def test_command_inputs_rejected(tmp_path, capsys, command, drop, extra, message):
    # Inputs a command needs, or whose dimensions disagree, fail at the boundary.
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = json.loads(solve_config(tmp_path, **extra).read_text())
    for key in drop:
        del cfg[key]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(tmp_path / "config.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err


def test_lift_rejects_nan_time(tmp_path, capsys):
    (tmp_path / "path.csv").write_text("t,x1\n0.0,0.0\nnan,0.5\n1.0,1.0\n")
    cfg = base_config(tmp_path)
    assert main(["lift", "--config", str(cfg)]) == 1
    assert "malformed path CSV" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rough_path.json").exists()


def test_solve_rejects_inf_coordinate(tmp_path, capsys):
    (tmp_path / "path.csv").write_text("t,x1\n0.0,0.0\n0.5,inf\n1.0,1.0\n")
    cfg = solve_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "malformed path CSV" in capsys.readouterr().err


def test_solve_rejects_y0_dimension_mismatch(tmp_path, capsys):
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = solve_config(tmp_path, y0=[1.0, 2.0])
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "y0 has dimension 2" in capsys.readouterr().err


def test_solve_rejects_off_grid_horizon(tmp_path, capsys):
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = solve_config(tmp_path, horizon=0.33)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "grid time" in capsys.readouterr().err


def test_solve_rejects_horizon_past_grid_end(tmp_path, capsys):
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = solve_config(tmp_path, horizon=2.0)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "outside the driver grid" in capsys.readouterr().err


def integrate_window_rejected(tmp_path, capsys, window):
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = base_config(tmp_path, field={"kind": "linear", "matrix": [[1.0]]}, integrate=window)
    assert main(["integrate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert not (tmp_path / "out" / "integral.json").exists()
    return err


def test_integrate_rejects_off_grid_start(tmp_path, capsys):
    assert "grid time" in integrate_window_rejected(tmp_path, capsys, {"s": 0.33})


def test_integrate_rejects_end_past_grid(tmp_path, capsys):
    assert "integration window" in integrate_window_rejected(tmp_path, capsys, {"t": 2.0})


def test_integrate_rejects_reversed_window(tmp_path, capsys):
    err = integrate_window_rejected(tmp_path, capsys, {"s": 0.75, "t": 0.25})
    assert "integration window" in err


def test_integrate_rejects_empty_window(tmp_path, capsys):
    err = integrate_window_rejected(tmp_path, capsys, {"s": 0.5, "t": 0.5})
    assert "integration window" in err


@pytest.mark.parametrize("depths", [[], [-1], "ab"])
def test_integrate_rejects_bad_depths(tmp_path, capsys, depths):
    # Each used to end in a traceback from the rate probe.
    err = integrate_window_rejected(tmp_path, capsys, {"depths": depths})
    assert "config error: integrate.depths" in err


@pytest.mark.parametrize("where, slope, field", [
    ("the integrand", 1.0, {"kind": "builtin", "dim_in": 1, "dim_out": 1,
                            "terms": [{"coef": [1.0], "kind": "exp", "weight": [800.0]}]}),
    ("the compensated sums", 10.0, {"kind": "constant", "value": [1e308], "dim_in": 1}),
])
def test_integrate_overflow_exit_code(tmp_path, capsys, where, slope, field):
    # exp(800 y) overflows in the composed integrand, and 1e308 times a driver
    # increment of 10 in the sums: once a traceback or an Infinity in
    # integral.json, after numpy's RuntimeWarnings.
    times = np.linspace(0.0, 1.0, 9)
    (tmp_path / "path.csv").write_text(PiecewiseLinearPath(times, slope * times[:, None]).to_csv())
    cfg = base_config(tmp_path, field=field)
    assert main(["integrate", "--config", str(cfg)]) == 2
    assert f"numerical failure: {where} overflowed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "integral.json").exists()


@pytest.mark.parametrize("integrand", ["field_on_canonical_lift", "signature_level2"])
def test_integrate_needs_level_two(tmp_path, capsys, integrand):
    # At N = 1 the integrand has no derivative level: once a ValueError traceback.
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = base_config(tmp_path, N=1, alpha=0.6, beta=1.0,
                      field={"kind": "linear", "matrix": [[1.0]]},
                      integrate={"integrand": integrand})
    assert main(["integrate", "--config", str(cfg)]) == 1
    assert "config error: integrate needs N >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "integral.json").exists()


def test_integrate_deep_rate_probe(tmp_path):
    # 2**30 dyadic pieces once allocated 8 GiB; past the grid they are the grid.
    write_line_csv(tmp_path / "path.csv", n=8)
    cfg = base_config(tmp_path, field={"kind": "linear", "matrix": [[1.0]]},
                      integrate={"depths": [2, 3, 30]})
    assert main(["integrate", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "rate_table.csv").read_text().splitlines()
    assert rows[-2].split(",")[1] == rows[-1].split(",")[1] == "0.125"
    # The finest depth has no successor: its Cauchy increment is an empty cell.
    assert rows[-1].endswith(",")


FIELDS = {
    "constant": {"kind": "constant", "value": [0.5], "dim_in": 1},
    "linear": {"kind": "linear", "matrix": [[1.0]], "offset": [0.0]},
    "polynomial": {"kind": "polynomial", "dim_in": 1, "dim_out": 1,
                   "coeffs": [{"exponents": [1], "value": [1.0]}]},
    "builtin": {"kind": "builtin", "dim_in": 1, "dim_out": 1,
                "terms": [{"coef": [1.0], "kind": "sin", "weight": [1.0], "phase": 0.0}]},
}


def scenario(kind):
    """A config every command accepts, with a field of the given kind."""
    return {
        "schema_version": 1, "seed": 0, "d": 1, "N": 3, "alpha": 0.29, "beta": 1 / 3,
        "path_csv": "path.csv", "field": json.loads(json.dumps(FIELDS[kind])),
        "y0": [1.0], "horizon": 1.0,
        "solver": {"tau_init": 0.25, "contraction_tol": 1e-11},
        "integrate": {"s": 0.0, "t": 1.0, "integrand": "field_on_canonical_lift",
                      "depths": [1, 2, 3]},
        "verify": {"suites": ["chen", "group_like", "coproduct", "alg_lemma", "removal",
                              "rates"],
                   "paths": 1, "segments": 2, "instances": 1, "depths": [1, 2, 3],
                   "grid": 8, "amplitude": 0.15, "corrupt_level2": False},
        "output_dir": "out",
    }


NAN, INF = float("nan"), float("inf")
READ_BY = {"path_csv": ("lift", "integrate", "solve"), "field": ("integrate", "solve"),
           "alpha": ("lift", "integrate", "solve", "verify"), "horizon": ("solve",),
           "y0": ("solve",), "integrate": ("integrate",)}
BAD_VALUES = [  # field kind, key path, value: each once a traceback or a silent coercion
    ("linear", ("path_csv",), 5), ("linear", ("path_csv",), ["a"]),
    ("linear", ("field",), "linear"), ("linear", ("field",), [1]),
    ("linear", ("field", "matrix"), [[NAN]]), ("constant", ("field", "value"), [NAN]),
    ("builtin", ("field", "terms", 0, "coef"), [NAN]),
    ("builtin", ("field", "terms", 0, "phase"), NAN),
    ("builtin", ("field", "terms", 0, "weight"), [INF]),
    ("constant", ("field", "dim_in"), 1.5), ("constant", ("field", "dim_in"), "1"),
    ("constant", ("field", "dim_in"), True),
    ("polynomial", ("field", "coeffs", 0, "exponents"), [1.7]),
    ("linear", ("field", "matrix"), "1"), ("linear", ("field", "offset"), [NAN]),
    ("linear", ("alpha",), "0.29"), ("linear", ("horizon",), "1"),
    ("linear", ("horizon",), True), ("linear", ("y0",), ["1.0"]),
    ("linear", ("y0",), [True]), ("linear", ("integrate", "s"), "0"),
]


def set_at(cfg, path, value):
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value


@pytest.mark.parametrize("command, kind, path, value", [
    pytest.param(command, kind, path, value,
                 id=f"{command}-{kind}-{'.'.join(map(str, path))}={value!r}")
    for kind, path, value in BAD_VALUES for command in READ_BY[path[0]]])
def test_config_values_rejected(tmp_path, capsys, command, kind, path, value):
    write_line_csv(tmp_path / "path.csv", n=16)
    cfg = scenario(kind)
    cfg["output_dir"] = str(tmp_path / "out")
    set_at(cfg, path, value)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(tmp_path / "config.json")]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_scenario_runs_every_command(tmp_path, kind):
    # The fuzz test below starts from these scenarios: each must pass the
    # config table and run every command.
    write_line_csv(tmp_path / "path.csv", n=32)
    (tmp_path / "config.json").write_text(json.dumps(scenario(kind)))
    for command in ("lift", "integrate", "solve", "verify"):
        out = tmp_path / command
        assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0


def config_keys(rows=CONFIG, prefix=""):
    """The dotted name of every key in a config table; ``[]`` marks the objects of a list."""
    for name, key in rows.items():
        yield prefix + name
        if key.rows is not None:
            yield from config_keys(key.rows, f"{prefix}{name}.")
        if key.item is not None and key.item.rows is not None:
            yield from config_keys(key.item.rows, f"{prefix}{name}[].")


def test_readme_lists_every_config_key():
    # The README's key table and the config table name the same keys.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("<!-- config keys -->")[1]
    listed = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    assert listed == set(config_keys())


DROP = object()
FUZZ_VALUES = [DROP, "x", True, None, {}, 3, 0.5, NAN, INF, -INF, 1e308, -1, -2.5, [], [[1]]]


def key_paths(node, prefix=()):
    """Every key path into a JSON value: object keys and list positions."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    cfg = scenario(draw(st.sampled_from(sorted(FIELDS))))
    path = draw(st.sampled_from(list(key_paths(cfg))))
    value = draw(st.sampled_from(FUZZ_VALUES))
    if value is DROP:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        set_at(cfg, path, value)
    return cfg


def assert_finite_artifacts(out):
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=lambda c: pytest.fail(f"{path.name} holds {c}"))
            continue
        for cell in text.replace("\n", ",").split(","):
            try:
                number = float(cell)
            except ValueError:
                continue
            assert np.isfinite(number), f"{path.name} holds {cell}"


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutated_scenarios())
def test_config_boundary_fuzz(cfg):
    # One dropped key or one bad value anywhere in a working scenario: every
    # command ends in exit 0, 1 or 2, with no exception and no NaN or inf written.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_line_csv(tmp / "path.csv", n=32)
        (tmp / "config.json").write_text(json.dumps(cfg))
        for command in ("lift", "integrate", "solve", "verify"):
            out = tmp / command
            code = main([command, "--config", str(tmp / "config.json"), "--out", str(out)])
            assert code in (0, 1, 2)
            if out.exists():
                assert_finite_artifacts(out)
