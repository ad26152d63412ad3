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
from pathlib import Path
from typing import Callable

import numpy as np

from . import controlled_path as cp
from . import lipschitz as lip
from . import rough_integral as ri
from . import rough_path as rp
from . import tensor_algebra as ta
from .controlled_path import NonFiniteLevelError
from .rde_solver import SolveFailure, SolverConfig, check_exponents, grid_index, solve
from .records import _Record

SCHEMA_VERSION = 1
ALL_SUITES = ("chen", "group_like", "coproduct", "alg_lemma", "removal", "rates")


class ConfigError(ValueError):
    pass


REQUIRED = object()  # the default of a key the config must give
UNSET = object()     # the default of a key left absent: its reader supplies one


class Key(_Record, frozen=True):
    """One config key: ``text`` says what a valid value is, ``test`` checks it.
    ``rows`` is the table of an object value, ``item`` the key of each item of
    a list value; ``kinds`` names the field kinds that read a field-spec key."""
    text: str
    test: Callable[[object], bool]
    default: object = None
    rows: dict | None = None
    item: Key | None = None
    kinds: tuple = ()


def _integer(lo: int, hi: float = math.inf, **kw) -> Key:
    return Key(f"an integer in {lo}..{hi}" if hi < math.inf else f"an integer >= {lo}",
               lambda v: ta._is_whole(v) and lo <= v <= hi, **kw)


def _number(**kw) -> Key:
    # JSON has no other numbers; the comparison is exact for integers beyond the float range.
    return Key("a finite number", lambda v: type(v) in (int, float)
               and abs(v) <= sys.float_info.max, **kw)


def _string(**kw) -> Key:
    return Key("a string", lambda v: isinstance(v, str), **kw)


def _object(**kw) -> Key:
    return Key("an object", lambda v: isinstance(v, dict), **kw)


def _one_of(*names: str, **kw) -> Key:
    return Key(f"one of {', '.join(names)}", lambda v: v in names, **kw)


def _list_of(item: Key, empty_ok: bool = False, **kw) -> Key:
    return Key(f"a {'' if empty_ok else 'non-empty '}list, each item {item.text}",
               lambda v: isinstance(v, list) and (empty_ok or len(v) > 0)
               and all(map(item.test, v)), item=item, **kw)


_TERM_ROWS = {
    "coef": _list_of(_number(), default=REQUIRED),
    "kind": _one_of(*lip.RIDGE_KINDS, default=REQUIRED),
    "weight": _list_of(_number(), default=REQUIRED),
    "phase": _number(default=0.0),
}
# The field spec; the field constructors check its dimensions against each other.
_FIELD_ROWS = {
    "kind": _one_of("constant", "linear", "polynomial", "builtin", default=REQUIRED),
    "dim_in": _integer(1, default=REQUIRED, kinds=("constant", "polynomial", "builtin")),
    "dim_out": _integer(1, default=REQUIRED, kinds=("polynomial", "builtin")),
    "value": _list_of(_number(), default=REQUIRED, kinds=("constant",)),
    "matrix": _list_of(_list_of(_number()), default=REQUIRED, kinds=("linear",)),
    "offset": _list_of(_number(), kinds=("linear",)),
    "coeffs": _list_of(_object(rows={"exponents": _list_of(_integer(0), default=REQUIRED),
                                     "value": _list_of(_number(), default=REQUIRED)}),
                       default=REQUIRED, kinds=("polynomial",)),
    "terms": _list_of(_object(rows=_TERM_ROWS), default=REQUIRED, kinds=("builtin",)),
}
_INTEGRATE_ROWS = {
    "s": _number(default=UNSET),  # the driver's first grid time
    "t": _number(default=UNSET),  # the driver's last grid time
    "integrand": _one_of("field_on_canonical_lift", "signature_level2",
                         default="field_on_canonical_lift"),
    "depths": _list_of(_integer(0), default=(1, 2, 3, 4, 5)),
}
_VERIFY_ROWS = {
    "suites": _list_of(_one_of(*ALL_SUITES), empty_ok=True, default=ALL_SUITES),
    "paths": _integer(1, default=UNSET),  # each suite has its own default size
    "segments": _integer(1, default=UNSET),
    "instances": _integer(1, default=UNSET),
    "depths": _list_of(_integer(0), default=(1, 2, 3, 4, 5, 6)),
    "grid": _integer(1, default=256),
    "amplitude": _number(default=0.15),
    "corrupt_level2": Key("true or false", lambda v: isinstance(v, bool), default=False),
}
# Every config key with its check and default, and the tables of its sub-keys.
CONFIG = {
    "schema_version": Key(str(SCHEMA_VERSION), lambda v: type(v) is int and v == SCHEMA_VERSION,
                          default=REQUIRED),
    "d": _integer(1, ta.MAX_DIM, default=REQUIRED),
    "N": _integer(1, ta.MAX_LEVEL, default=REQUIRED),
    "alpha": _number(default=REQUIRED),
    "beta": _number(default=REQUIRED),
    "seed": _integer(0, default=0),
    "path_csv": _string(),
    "field": _object(rows=_FIELD_ROWS),
    "y0": _list_of(_number()),
    "horizon": _number(),
    "solver": _object(default={}),  # SolverConfig.validate checks its keys
    "integrate": _object(rows=_INTEGRATE_ROWS, default={}),
    "verify": _object(rows=_VERIFY_ROWS, default={}),
    "output_dir": _string(default="out"),
}


def _checked(where: str, key: Key, value):
    if not key.test(value):
        raise ConfigError(f"{where} must be {key.text}, got {value!r}")
    return value


def _walk(rows: dict, raw: dict, prefix: str = "") -> dict:
    """Check a JSON object against a table: the checked values with the defaults
    filled in; keys the table does not name are dropped."""
    out = {}
    for name, key in rows.items():
        where = prefix + name
        if key.kinds and raw["kind"] not in key.kinds:
            continue
        if name in raw:
            out[name] = _checked(where, key, raw[name])
        elif key.default is REQUIRED:
            raise ConfigError(f"{where} is missing; it must be {key.text}")
        elif key.default is not UNSET:
            out[name] = key.default
        if key.rows is not None and out[name] is not None:
            out[name] = _walk(key.rows, out[name], where + ".")
        if key.item is not None and key.item.rows is not None:
            out[name] = [_walk(key.item.rows, v, f"{where}[{i}].")
                         for i, v in enumerate(out[name])]
    return out


class ScenarioConfig(_Record):
    """A config checked against ``CONFIG``, defaults filled in: one attribute
    per top-level key, with ``field`` held as ``field_spec``."""
    schema_version: int
    d: int
    N: int
    alpha: float
    beta: float
    seed: int
    path_csv: str | None
    field_spec: dict | None
    y0: list | None
    horizon: float | None
    solver: dict
    integrate: dict
    verify: dict
    output_dir: str
    base_dir: Path

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        cfg_path = Path(path)
        try:
            raw = json.loads(cfg_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        values = _walk(CONFIG, raw)
        cfg = cls(field_spec=values.pop("field"), base_dir=cfg_path.parent, **values)
        # The checks that read more than one key; the driver dimensions wait for the driver.
        try:
            warnings = check_exponents(cfg.N, cfg.alpha, cfg.beta)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        # The rates suite's grid must resolve its finest dyadic partition:
        # grid >= 2**max(depths), without forming 2**max(depths).
        grid, depth = cfg.verify["grid"], max(cfg.verify["depths"])
        if depth >= grid.bit_length():
            raise ConfigError(f"verify.grid must be an integer >= 2**max(verify.depths) "
                              f"= 2**{depth}, got {grid}")
        return cfg

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
            scfg.validate(self.N)  # the exponent warning is printed once, by load()
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad solver settings: {err}") from err
        return scfg

    def solve_inputs(self, X: rp.GeometricRoughPath, F: lip.LipFunction) -> tuple[np.ndarray, float]:
        """Initial value and horizon of a solve, checked against the driver and field."""
        if self.y0 is None or self.horizon is None:
            raise ConfigError("solve needs y0 and horizon")
        y0 = np.asarray(self.y0, dtype=float)
        if F.dim_in != y0.size or F.dim_out != y0.size * self.d:
            raise ConfigError(f"y0 has dimension {y0.size}, but the field maps R^{F.dim_in} "
                              f"into R^{F.dim_out}; it must map R^e into R^(e*d) with "
                              f"e = {y0.size}, d = {self.d}")
        horizon = float(self.horizon)
        t0, t_end = float(X.times[0]), float(X.times[-1])
        if not (t0 < horizon <= t_end + 1e-9):
            raise ConfigError(f"horizon {horizon} lies outside the driver grid ({t0}, {t_end}]")
        _grid_point(X, horizon, "horizon")
        return y0, horizon

    def integrate_window(self, X: rp.GeometricRoughPath) -> tuple[int, int]:
        """Grid indices of the integration window [s, t], checked against the driver."""
        t0, t_end = float(X.times[0]), float(X.times[-1])
        s, t = self.integrate.get("s", t0), self.integrate.get("t", t_end)
        if not (t0 - 1e-9 <= s < t <= t_end + 1e-9):
            raise ConfigError(f"integration window [{s}, {t}] must satisfy "
                              f"{t0} <= s < t <= {t_end}")
        return _grid_point(X, s, "integrate.s"), _grid_point(X, t, "integrate.t")

    def build_field(self, n_levels: int) -> lip.LipFunction:
        if self.field_spec is None:
            raise ConfigError("config needs a field spec for this command")
        try:
            return lip.from_config(self.field_spec, n_levels)
        except ValueError as err:
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
    levels = range(1, cfg.N + 1)
    norms = rp._holder_maxima(X, None, cfg.beta, levels)
    rows = [(i, i * cfg.beta, norm) for i, norm in zip(levels, norms)]
    _write_csv(out / "holder_norms.csv", ["level", "exponent", "norm"], rows)
    print(f"lift: wrote rough_path.json and holder_norms.csv to {out}")
    return 0


def _integrand(cfg: ScenarioConfig, X: rp.GeometricRoughPath) -> cp.ControlledPath:
    if cfg.integrate["integrand"] == "field_on_canonical_lift":
        F = cfg.build_field(cfg.N)
        if F.dim_in != cfg.d or F.dim_out % cfg.d != 0:
            raise ConfigError("integrand field must map R^d into L(V;U)")
        return lip.compose(F, cp.canonical_lift(X), X)
    # Component (a, b) of U = R^(d*d) integrates X^a against dX^b: row (a*d + b)*d + b
    # of L(V;U) is X^a, so its level-1 block A holds A[(a*d + b)*d + b, a] = 1.
    d = X.d
    A = np.einsum("ij,kl->iklj", np.eye(d), np.eye(d)).reshape(d**3, d)
    blocks = [np.zeros((d**3, 1)), A] + [np.zeros((d**3, d**i)) for i in range(2, X.N)]
    return cp.zero_remainder_path(blocks, X)


def cmd_integrate(cfg: ScenarioConfig, out: Path) -> int:
    if cfg.N < 2:
        raise ConfigError("integrate needs N >= 2: an integrand carries a level-1 derivative")
    X = cfg.load_driver()
    s_idx, t_idx = cfg.integrate_window(X)
    # Overflow is caught by the integrand's finiteness check and by the one of the sums.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            Z = _integrand(cfg, X)
        except NonFiniteLevelError as err:
            raise SolveFailure(f"the integrand overflowed: {err}") from err
        value, err = ri.rough_integral(Z, X, s_idx, t_idx)
        probe = ri.convergence_rate_probe(Z, X, s_idx, t_idx, cfg.integrate["depths"])
    if not all(np.isfinite(v).all() for v in (value, err, *probe.values, *probe.increments)):
        raise SolveFailure("the compensated sums overflowed")
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
    devs = []
    for _ in range(opts.get("paths", 5)):
        X = rp.lift_path(_random_polyline(rng, cfg.d, opts.get("segments", 8)), cfg.N)
        scale = max(1.0, X.value(X.n_points - 1).max_abs())
        devs.append(rp.chen_deviation(X) / scale)
    worst = ta._max_abs(devs)
    return {"max_deviation": worst, "pass": bool(worst <= 1e-12)}


def _suite_group_like(cfg, rng, opts) -> dict:
    corrupt = opts["corrupt_level2"]
    N = max(2, cfg.N)
    devs = []
    for _ in range(opts.get("paths", 3)):
        X = rp.lift_path(_random_polyline(rng, cfg.d, opts.get("segments", 6)), N)
        if corrupt:
            broken = rp._increments(X, slice(0, X.n_points - 1, 2), X.n_points - 1, N)
            broken[2] = np.zeros_like(broken[2])
            devs.append(ta._group_like_deviation(broken))
        else:
            devs.append(rp.group_like_deviation(X))
    worst = ta._max_abs(devs)
    return {"max_violation": worst, "corrupted": corrupt, "pass": bool(worst <= 1e-10)}


def _suite_coproduct(cfg, rng, opts) -> dict:
    # Test support, loaded only by the suite that reads it.
    from .oracle import partition_counts

    devs = []
    d, N = min(cfg.d, 2), min(4, cfg.N)
    for k in (1, 2, 3):
        for r in range(0, N + 1):
            # Every basis word of level r at once; a sector of another total
            # must be zero.
            batch = [np.eye(d**r) if i == r else np.zeros((d**r, d**i)) for i in range(N + 1)]
            counts = partition_counts(d, r, k)
            for sizes, block in ta._coproduct_sectors(batch, k).items():
                devs.append(block - counts.get(sizes, 0.0))
    xi = ta.TensorSeries(d, N, [rng.standard_normal(d**i) for i in range(N + 1)])
    sectors = ta.coproduct(xi, 2)
    for ru in range(N + 1):
        for rw in range(N + 1 - ru):
            for u in ta.level_words(d, ru):
                for w in ta.level_words(d, rw):
                    pairing = sum(mult * xi.coeff(word)
                                  for word, mult in ta.shuffle_product(u, w, N).items())
                    coeff = sectors[ru, rw][ta.word_index(u + w, d)]
                    devs.append(float(coeff) - pairing)
    worst = ta._max_abs(devs)
    return {"max_deviation": worst, "pass": bool(worst <= 1e-12)}


def _suite_alg_lemma(cfg, rng, opts) -> dict:
    corrupt = opts["corrupt_level2"]
    # Level j of the increment enters only terms of level total >= 1 + j: below
    # N = 4 no level past 1 is read, and every level-1 element is group-like.
    N, d = max(4, cfg.N), cfg.d
    devs = []
    for _ in range(opts.get("paths", 4)):
        X = rp.lift_path(_random_polyline(rng, d, 4), N)
        inc = rp.increment(X, 0, X.n_points - 1)
        if corrupt:
            inc = inc.with_level(2, np.zeros(d**2))
        y_blocks = [rng.standard_normal((2, d**i)) for i in range(N)]
        for k in range(1, N):
            for r in range(1, N):
                devs.append(lip.expansion_identity_check(y_blocks, inc, r, k))
    worst = ta._max_abs(devs)
    return {"max_deviation": worst, "corrupted": corrupt, "pass": bool(worst <= 1e-10)}


def _suite_removal(cfg, rng, opts) -> dict:
    devs = []
    for _ in range(opts.get("instances", 20)):
        X = rp.lift_path(_random_polyline(rng, cfg.d, 16), cfg.N)
        e = int(rng.integers(1, 3))
        levels = [rng.standard_normal((X.n_points, e * cfg.d, cfg.d**i))
                  for i in range(cfg.N)]
        Z = cp.ControlledPath(X.times, cfg.d, cfg.N, e * cfg.d, levels)
        inner = np.sort(rng.choice(np.arange(1, 16), size=3, replace=False))
        part = ri.Partition((0, *map(int, inner), 16))
        j = int(rng.integers(1, len(part.indices) - 1))
        devs.append(ri.removal_identity_check(Z, X, part, j))
    worst = ta._max_abs(devs)
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
    n, depths = opts["grid"], opts["depths"]
    terms = [{"coef": [1.0 if u == a else 0.0 for u in range(cfg.d)],
              "kind": "sin", "weight": [0.7 * (a + 1)] * cfg.d} for a in range(cfg.d)]
    F = lip.ridge(cfg.d, cfg.d, terms, cfg.N)
    envelope: dict = {}
    for _ in range(opts.get("instances", 6)):
        try:
            with np.errstate(over="ignore"):  # the path rejects points that overflowed
                path = _lacunary_polyline(rng, cfg.d, n, hurst=cfg.beta, amp=opts["amplitude"])
        except ValueError as err:
            raise ConfigError(f"verify.amplitude gives no finite driver: {err}") from err
        X = _lift(path, cfg.N, cfg.beta, "verify.amplitude")
        Z = lip.compose(F, cp.canonical_lift(X), X)
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
    report = {"schema_version": SCHEMA_VERSION, "seed": cfg.seed, "suites": {}}
    for name in cfg.verify["suites"]:
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
            cfg.seed = _checked("seed", CONFIG["seed"], args.seed)
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
