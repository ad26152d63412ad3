"""Batch front door: lifts, integrals, solves and verification suites.

Scenarios live in JSON configs; every run writes CSV/JSON artifacts into an
output directory.  All randomness flows from the config seed so reports are
reproducible byte for byte.  Exit codes: 0 success, 1 validation failure,
2 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import controlled_path as cp
from . import lipschitz as lip
from . import rough_integral as ri
from . import rough_path as rp
from . import tensor_algebra as ta
from .oracle import enumerate_partitions
from .rde_solver import (SolveFailure, SolverConfig, _is_int_at_least, check_exponents,
                         grid_index, solve)

SCHEMA_VERSION = 1
ALL_SUITES = ("chen", "group_like", "coproduct", "alg_lemma", "removal", "rates")
RATE_DEPTHS = (1, 2, 3, 4, 5, 6)
RATE_GRID = 256
RATE_AMPLITUDE = 0.15
INTEGRATE_DEPTHS = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    pass


def _check_int(name: str, value, least: int) -> None:
    if not _is_int_at_least(value, least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_depths(depths, name: str) -> None:
    if not (isinstance(depths, (list, tuple)) and depths
            and all(_is_int_at_least(m, 0) for m in depths)):
        raise ConfigError(f"{name} must be a non-empty list of integers >= 0, got {depths!r}")


@dataclass
class ScenarioConfig:
    d: int
    N: int
    alpha: float
    beta: float
    seed: int = 0
    path_csv: str | None = None
    field_spec: dict | None = None
    y0: list | None = None
    horizon: float | None = None
    solver: dict = field(default_factory=dict)
    integrate: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    output_dir: str = "out"
    base_dir: Path = field(default_factory=Path)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        cfg_path = Path(path)
        try:
            raw = json.loads(cfg_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
        for key, least in (("d", 1), ("N", 1), ("seed", 0)):
            _check_int(key, raw.get(key, least), least)
        try:
            cfg = cls(
                d=raw["d"], N=raw["N"],
                alpha=float(raw["alpha"]), beta=float(raw["beta"]),
                seed=raw.get("seed", 0),
                path_csv=raw.get("path_csv"),
                field_spec=raw.get("field"),
                y0=raw.get("y0"),
                horizon=raw.get("horizon"),
                solver=raw.get("solver", {}),
                integrate=raw.get("integrate", {}),
                verify=raw.get("verify", {}),
                output_dir=raw.get("output_dir", "out"),
                base_dir=cfg_path.parent,
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"malformed config: {err}") from err
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not (1 <= self.d <= ta.MAX_DIM) or not (1 <= self.N <= ta.MAX_LEVEL):
            raise ConfigError(f"d must lie in 1..{ta.MAX_DIM} and N in 1..{ta.MAX_LEVEL}")
        try:
            warnings = check_exponents(self.N, self.alpha, self.beta)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        for name in ("integrate", "verify"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be an object")
        _check_depths(self.integrate.get("depths", INTEGRATE_DEPTHS), "integrate.depths")
        suites = self.verify.get("suites", [])
        if not (isinstance(suites, (list, tuple)) and all(isinstance(s, str) for s in suites)):
            raise ConfigError(f"verify.suites must be a list of suite names, got {suites!r}")
        unknown = set(suites) - set(ALL_SUITES)
        if unknown:
            raise ConfigError(f"unknown verification suites: {sorted(unknown)}")
        opts = self.verify
        depths = opts.get("depths", RATE_DEPTHS)
        _check_depths(depths, "verify.depths")
        # The rates suite's grid must resolve its finest dyadic partition.
        least = {"paths": 1, "segments": 1, "instances": 1, "grid": 2 ** max(depths)}
        given = {"grid": RATE_GRID, **opts}
        for key, low in least.items():
            _check_int(f"verify.{key}", given.get(key, low), low)
        if not isinstance(opts.get("corrupt_level2", False), bool):
            raise ConfigError("verify.corrupt_level2 must be true or false")
        amplitude = opts.get("amplitude", RATE_AMPLITUDE)
        if (not isinstance(amplitude, (int, float)) or isinstance(amplitude, bool)
                or not math.isfinite(amplitude)):
            raise ConfigError(f"verify.amplitude must be a finite number, got {amplitude!r}")

    def load_driver(self) -> rp.GeometricRoughPath:
        if not self.path_csv:
            raise ConfigError("config needs path_csv for this command")
        csv_path = Path(self.path_csv)
        if not csv_path.is_absolute():
            csv_path = self.base_dir / csv_path
        if not csv_path.exists():
            raise ConfigError(f"path CSV {csv_path} does not exist")
        try:
            path = rp.PiecewiseLinearPath.from_csv(csv_path)
        except ValueError as err:
            raise ConfigError(f"malformed path CSV: {err}") from err
        if path.d != self.d:
            raise ConfigError(f"path CSV has d={path.d}, config says {self.d}")
        return _lift(path, self.N, self.beta, f"path CSV {csv_path}")

    def solver_config(self) -> SolverConfig:
        try:
            scfg = SolverConfig(alpha=self.alpha, beta=self.beta, **self.solver)
            scfg.validate(self.N)  # the exponent warning is printed once, by validate()
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad solver settings: {err}") from err
        return scfg

    def solve_inputs(self, X: rp.GeometricRoughPath, F: lip.LipFunction) -> tuple[np.ndarray, float]:
        """Initial value and horizon of a solve, checked against the driver and field."""
        if self.y0 is None or self.horizon is None:
            raise ConfigError("solve needs y0 and horizon")
        try:
            y0 = np.asarray(self.y0, dtype=float).ravel()
            horizon = float(self.horizon)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"y0 must be a list of numbers and horizon a number: {err}") from err
        if not np.all(np.isfinite(y0)):
            raise ConfigError("y0 must be finite")
        if F.dim_in != y0.size or F.dim_out != y0.size * self.d:
            raise ConfigError(f"y0 has dimension {y0.size}, but the field maps R^{F.dim_in} "
                              f"into R^{F.dim_out}; it must map R^e into R^(e*d) with "
                              f"e = {y0.size}, d = {self.d}")
        t0, t_end = float(X.times[0]), float(X.times[-1])
        if not (t0 < horizon <= t_end + 1e-9):
            raise ConfigError(f"horizon {horizon} lies outside the driver grid ({t0}, {t_end}]")
        _grid_point(X, horizon, "horizon")
        return y0, horizon

    def integrate_window(self, X: rp.GeometricRoughPath) -> tuple[int, int]:
        """Grid indices of the integration window [s, t], checked against the driver."""
        t0, t_end = float(X.times[0]), float(X.times[-1])
        try:
            s = float(self.integrate.get("s", t0))
            t = float(self.integrate.get("t", t_end))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"integrate.s and integrate.t must be numbers: {err}") from err
        if not (t0 - 1e-9 <= s < t <= t_end + 1e-9):
            raise ConfigError(f"integration window [{s}, {t}] must satisfy "
                              f"{t0} <= s < t <= {t_end}")
        return _grid_point(X, s, "integrate.s"), _grid_point(X, t, "integrate.t")

    def build_field(self, n_levels: int) -> lip.LipFunction:
        if not self.field_spec:
            raise ConfigError("config needs a field spec for this command")
        try:
            return lip.from_config(self.field_spec, n_levels)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad field spec: {err}") from err


def _lift(path: rp.PiecewiseLinearPath, N: int, beta: float, source: str) -> rp.GeometricRoughPath:
    """Signature lift of input data; a lift that overflows is bad input."""
    try:
        return rp.lift_path(path, N, beta)
    except ValueError as err:
        raise ConfigError(f"{source} cannot be lifted to level {N}: {err}") from err


def _grid_point(X: rp.GeometricRoughPath, t: float, name: str) -> int:
    try:
        return grid_index(X.times, t)
    except ValueError as err:
        raise ConfigError(f"{name} must be a driver grid time: {err}") from err


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_lift(cfg: ScenarioConfig, out: Path) -> int:
    X = cfg.load_driver()
    _write_json(out / "rough_path.json", X.to_json_dict())
    rows = [(i, i * cfg.beta, rp.holder_norm(X, i, cfg.beta)) for i in range(1, cfg.N + 1)]
    _write_csv(out / "holder_norms.csv", ["level", "exponent", "norm"], rows)
    print(f"lift: wrote rough_path.json and holder_norms.csv to {out}")
    return 0


def _integrand(cfg: ScenarioConfig, X: rp.GeometricRoughPath) -> cp.ControlledPath:
    kind = cfg.integrate.get("integrand", "field_on_canonical_lift")
    if kind == "field_on_canonical_lift":
        F = cfg.build_field(cfg.N)
        if F.dim_in != cfg.d or F.dim_out % cfg.d != 0:
            raise ConfigError("integrand field must map R^d into L(V;U)")
        return lip.compose(F, cp.canonical_lift(X, cfg.alpha), X)
    if kind == "signature_level2":
        d, n = X.d, X.n_points
        e = d * d
        z0 = np.zeros((n, e * d, 1))
        z1 = np.zeros((n, e * d, d))
        for a in range(d):
            for b in range(d):
                z0[:, (a * d + b) * d + b, 0] = X.levels[1][:, a]
                z1[:, (a * d + b) * d + b, a] = 1.0
        levels = [z0, z1] + [np.zeros((n, e * d, d**i)) for i in range(2, X.N)]
        return cp.ControlledPath(X.times, d, X.N, e * d, cfg.alpha, levels)
    raise ConfigError(f"unknown integrand kind {kind!r}")


def cmd_integrate(cfg: ScenarioConfig, out: Path) -> int:
    X = cfg.load_driver()
    s_idx, t_idx = cfg.integrate_window(X)
    Z = _integrand(cfg, X)
    depths = cfg.integrate.get("depths", INTEGRATE_DEPTHS)
    value, err = ri.rough_integral(Z, X, s_idx, t_idx)
    probe = ri.convergence_rate_probe(Z, X, s_idx, t_idx, depths)
    payload = {
        "value": value.tolist(),
        "cauchy_estimate": err,
        "fitted_exponent": probe.exponent,
        "tail_constant": ri.tail_constant(cfg.N, cfg.alpha),
    }
    _write_json(out / "integral.json", payload)
    _write_csv(out / "rate_table.csv", ["depth", "mesh", "value_norm", "cauchy_increment"],
               probe.rows())
    print(f"integrate: value norm {float(np.abs(value).sum()):.6e}, "
          f"fitted exponent {probe.exponent}")
    return 0


def cmd_solve(cfg: ScenarioConfig, out: Path) -> int:
    X = cfg.load_driver()
    scfg = cfg.solver_config()
    F = cfg.build_field(cfg.N)
    y0, horizon = cfg.solve_inputs(X, F)
    try:
        Y, report = solve(F, X, y0, horizon, scfg)
    except SolveFailure as err:
        payload = err.report.to_json_dict() if err.report else {}
        payload["failure"] = str(err)
        payload["partial"] = err.partial is not None
        _write_json(out / "solve_report.json", payload)
        if err.partial is not None:
            (out / "solution_partial.csv").write_text(err.partial.level0_csv())
        print(f"solve failed: {err}", file=sys.stderr)
        return 2
    (out / "solution.csv").write_text(Y.level0_csv())
    _write_json(out / "solve_report.json", report.to_json_dict())
    rows = [(i, p.t_start, p.t_end, it, res)
            for i, p in enumerate(report.patches)
            for it, res in enumerate(p.residuals, start=1)]
    _write_csv(out / "residual_log.csv",
               ["patch", "t_start", "t_end", "iteration", "residual"], rows)
    print(f"solve: {report.n_patches} patches, global residual {report.global_residual:.3e}")
    return 0


def _random_polyline(rng, d: int, segments: int) -> rp.PiecewiseLinearPath:
    times = np.linspace(0.0, 1.0, segments + 1)
    return rp.PiecewiseLinearPath(times, rng.standard_normal((segments + 1, d)))


def _suite_chen(cfg, rng, opts) -> dict:
    worst = 0.0
    for _ in range(int(opts.get("paths", 5))):
        X = rp.lift_path(_random_polyline(rng, cfg.d, int(opts.get("segments", 8))),
                         cfg.N, cfg.beta)
        scale = max(1.0, X.value(X.n_points - 1).max_abs())
        worst = max(worst, rp.chen_deviation(X) / scale)
    return {"max_deviation": worst, "pass": bool(worst <= 1e-12)}


def _suite_group_like(cfg, rng, opts) -> dict:
    corrupt = bool(opts.get("corrupt_level2", False))
    N = max(2, cfg.N)
    worst = 0.0
    for _ in range(int(opts.get("paths", 3))):
        X = rp.lift_path(_random_polyline(rng, cfg.d, int(opts.get("segments", 6))),
                         N, min(cfg.beta, 1 / N))
        if corrupt:
            for s in range(0, X.n_points - 1, 2):
                broken = rp.increment(X, s, X.n_points - 1).with_level(2, np.zeros(cfg.d**2))
                worst = max(worst, ta.is_group_like(broken, 1e-10)[1])
        else:
            worst = max(worst, rp.group_like_deviation(X))
    return {"max_violation": worst, "corrupted": corrupt, "pass": bool(worst <= 1e-10)}


def _suite_coproduct(cfg, rng, opts) -> dict:
    worst = 0.0
    d, N = min(cfg.d, 2), min(4, cfg.N)
    for k in (1, 2, 3):
        for r in range(0, N + 1):
            for w in ta.level_words(d, r):
                box = ta.coproduct(ta.TensorSeries.from_word(w, d, N), k)
                expected: dict = {}
                for blocks in enumerate_partitions(r, k):
                    key = tuple(tuple(w[p] for p in blk) for blk in blocks)
                    expected[key] = expected.get(key, 0.0) + 1.0
                worst = max(worst, ta.box_deviation(box, ta.BoxTensor(d, N, k, expected)))
    xi = ta.TensorSeries(d, N, [rng.standard_normal(d**i) for i in range(N + 1)])
    box2 = ta.coproduct(xi, 2)
    for ru in range(N + 1):
        for rw in range(N + 1 - ru):
            for u in ta.level_words(d, ru):
                for w in ta.level_words(d, rw):
                    pairing = sum(mult * xi.coeff(word)
                                  for word, mult in ta.shuffle_product(u, w, N).items())
                    worst = max(worst, abs(box2.coeff((u, w)) - pairing))
    return {"max_deviation": worst, "pass": bool(worst <= 1e-12)}


def _suite_alg_lemma(cfg, rng, opts) -> dict:
    corrupt = bool(opts.get("corrupt_level2", False))
    N = max(3, cfg.N)
    d = min(cfg.d, 2)
    worst = 0.0
    for _ in range(int(opts.get("paths", 4))):
        X = rp.lift_path(_random_polyline(rng, d, 4), N, min(cfg.beta, 1 / N))
        inc = rp.increment(X, 0, X.n_points - 1)
        if corrupt:
            inc = inc.with_level(2, np.zeros(d**2))
        y_blocks = [rng.standard_normal((2, d**i)) for i in range(N)]
        for k in range(1, N):
            for r in range(1, N):
                for xi in ta.level_words(d, r):
                    dev = lip.expansion_identity_check(y_blocks, inc, xi, k)
                    worst = max(worst, dev)
    return {"max_deviation": worst, "corrupted": corrupt, "pass": bool(worst <= 1e-10)}


def _suite_removal(cfg, rng, opts) -> dict:
    worst = 0.0
    for _ in range(int(opts.get("instances", 20))):
        X = rp.lift_path(_random_polyline(rng, cfg.d, 16), cfg.N, cfg.beta)
        e = int(rng.integers(1, 3))
        levels = [rng.standard_normal((X.n_points, e * cfg.d, cfg.d**i))
                  for i in range(cfg.N)]
        Z = cp.ControlledPath(X.times, cfg.d, cfg.N, e * cfg.d, cfg.alpha, levels)
        inner = np.sort(rng.choice(np.arange(1, 16), size=3, replace=False))
        part = ri.Partition((0, *map(int, inner), 16))
        j = int(rng.integers(1, len(part.indices) - 1))
        worst = max(worst, ri.removal_identity_check(Z, X, part, j))
    return {"max_deviation": worst, "pass": bool(worst <= 1e-10)}


def _lacunary_polyline(rng, d: int, n: int, hurst: float, amp: float,
                       base: float = 2.3) -> rp.PiecewiseLinearPath:
    """Trig sum with geometric frequencies: rough at every scale but with
    controlled Holder constants, unlike a raw random walk.  A non-dyadic
    frequency ratio avoids resonant cancellation against dyadic partitions."""
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.zeros((n + 1, d))
    octaves = max(3, int(np.log(n) / np.log(base)) - 2)
    for k in range(octaves):
        phases = rng.uniform(0.0, 2.0 * np.pi, d)
        freq = base**k
        for c in range(d):
            pts[:, c] += amp * freq**-hurst * np.cos(2 * np.pi * freq * t + phases[c])
    return rp.PiecewiseLinearPath(t, pts)


def _suite_rates(cfg, rng, opts) -> dict:
    # Single-instance Cauchy increments fluctuate below the error envelope;
    # fit the per-mesh envelope over a few phase realizations.
    n = int(opts.get("grid", RATE_GRID))
    depths = opts.get("depths", RATE_DEPTHS)
    terms = [{"coef": [1.0 if u == a else 0.0 for u in range(cfg.d)],
              "kind": "sin", "weight": [0.7 * (a + 1)] * cfg.d} for a in range(cfg.d)]
    F = lip.ridge(cfg.d, cfg.d, terms, cfg.N)
    envelope: dict = {}
    for _ in range(int(opts.get("instances", 6))):
        path = _lacunary_polyline(rng, cfg.d, n, hurst=cfg.beta,
                                  amp=float(opts.get("amplitude", RATE_AMPLITUDE)))
        X = _lift(path, cfg.N, cfg.beta, "verify.amplitude")
        Z = lip.compose(F, cp.canonical_lift(X, cfg.alpha), X)
        probe = ri.convergence_rate_probe(Z, X, 0, n, depths)
        for mesh, inc in zip(probe.meshes, probe.increments):
            envelope[mesh] = max(envelope.get(mesh, 0.0), inc)
    pairs = [(m, i) for m, i in envelope.items() if i > 1e-13]
    exponent = float(np.polyfit(np.log([m for m, _ in pairs]),
                                np.log([i for _, i in pairs]), 1)[0]) if len(pairs) >= 2 else None
    bound = (cfg.N + 1) * cfg.alpha - 1.0
    ok = exponent is None or exponent >= bound - 0.2
    return {"fitted_exponent": exponent, "theory_bound": bound, "pass": bool(ok)}


_SUITES = {
    "chen": _suite_chen,
    "group_like": _suite_group_like,
    "coproduct": _suite_coproduct,
    "alg_lemma": _suite_alg_lemma,
    "removal": _suite_removal,
    "rates": _suite_rates,
}


def cmd_verify(cfg: ScenarioConfig, out: Path) -> int:
    suites = cfg.verify.get("suites", list(ALL_SUITES))
    report = {"schema_version": SCHEMA_VERSION, "seed": cfg.seed, "suites": {}}
    for name in suites:
        # Seed stream independent of suite selection order, stable across runs.
        rng = np.random.default_rng([cfg.seed, ALL_SUITES.index(name)])
        report["suites"][name] = _SUITES[name](cfg, rng, cfg.verify)
    _write_json(out / "verify_report.json", report)
    summary = ", ".join(f"{k}:{'pass' if v['pass'] else 'FAIL'}"
                        for k, v in report["suites"].items()) or "empty"
    print(f"verify: {summary}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="roughpaths",
                                     description="Rough path lifts, integrals, RDE solves "
                                                 "and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lift", "integrate", "solve", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)

    try:
        cfg = ScenarioConfig.load(args.config)
        if args.seed is not None:
            _check_int("seed", args.seed, 0)
            cfg.seed = args.seed
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        handler = {"lift": cmd_lift, "integrate": cmd_integrate,
                   "solve": cmd_solve, "verify": cmd_verify}[args.command]
        return handler(cfg, out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except SolveFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
