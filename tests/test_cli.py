import json
import warnings

import numpy as np
import pytest

from roughpaths.cli import ScenarioConfig, main
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
    cfg = base_config(tmp_path, d=2, verify={"paths": 3, "segments": 6})
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert set(report["suites"]) == {"chen", "group_like", "coproduct",
                                     "alg_lemma", "removal", "rates"}
    assert all(suite["pass"] for suite in report["suites"].values())


def test_verify_corrupt_mode_fails_group_like(tmp_path):
    write_line_csv(tmp_path / "path.csv")
    cfg = base_config(tmp_path, d=2,
                      verify={"suites": ["group_like"], "corrupt_level2": True})
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    suite = report["suites"]["group_like"]
    assert suite["corrupted"] and not suite["pass"]
    assert suite["max_violation"] >= 0.5


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
    cfg = base_config(tmp_path, d=2, verify={"suites": ["chen", "coproduct", "removal"]})
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
    with pytest.raises(Exception):
        ScenarioConfig.load(str(missing))
    bad_version = tmp_path / "bad.json"
    bad_version.write_text(json.dumps({"schema_version": 99, "d": 1, "N": 2,
                                       "alpha": 0.4, "beta": 0.5}))
    from roughpaths.cli import ConfigError
    with pytest.raises(ConfigError):
        ScenarioConfig.load(str(bad_version))

def solve_config(tmp_path, **extra):
    opts = {"field": {"kind": "linear", "matrix": [[1.0]]}, "y0": [1.0], "horizon": 1.0}
    opts.update(extra)
    return base_config(tmp_path, **opts)


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
