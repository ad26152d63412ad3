"""The benchmark workloads: inputs made from a seed, one timed op, a gate.

Each workload runs closed-loop with one client: the next op starts after
the previous one has ended, and at most one child process is alive.

* ``cli-solve-line``: ``roughpaths solve`` on the README demo scenario
  (driver x_t = t, 513 points, d=1, N=3, linear field).  Almost all time
  is in the O(P^2) pair scans, over one driver re-scanned by every Picard
  step.  The driver has no randomness; the seed is recorded only.
* ``lib-solve-walk``: library ``lift_path`` + ``solve`` on [0, 0.5] at the
  caps corner d=3, N=5, M=32 on seeded Gaussian random walks with a fixed
  ridge field.  Almost all time is in ``lipschitz.compose``; scans are small.
* ``cli-verify``: ``roughpaths verify`` with all six suites at d=2, N=4.
  The only workload for the coproduct, shuffle, group-likeness and
  expansion-identity code; it builds many small fresh drivers.

Run as a script, this file performs one set-up in a fresh interpreter, so
that the set-up time includes interpreter start and imports:

    python3 perfbench/workloads.py WORKLOAD SEED DIR
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# An op that has not ended after this many seconds is killed and fails.
OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One attempted op: its timing, output and gate outcome."""
    seq: int
    traced: bool
    seconds: float = 0.0
    rss_kb: int = 0
    result: object = None
    error: str | None = None
    dev: float = math.inf
    checksum: str = ""
    spans: list = field(default_factory=list)
    startup_s: float = 0.0
    artifact_bytes: int = 0
    cal_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def tag(self) -> str:
        return f"op{self.seq}{'t' if self.traced else ''}"

    def record(self) -> dict:
        return {"op": self.seq, "traced": self.traced, "seconds": self.seconds,
                "cal_s": self.cal_s, "ok": self.ok, "dev": self.dev,
                "checksum": self.checksum, "rss_mb": self.rss_kb / 1024.0,
                "error": self.error}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def scaled(result: np.ndarray, rel: float) -> np.ndarray:
    """A solution perturbed by a relative ``rel``, for the self-test."""
    return result * (1.0 + rel)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class CliWorkload:
    """An op is one ``roughpaths`` subprocess, timed from spawn to exit."""

    command = ""
    kind = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "config.json"

    def cli_args(self, op: Op, out: Path) -> list:
        return [self.command, "--config", str(self.config), "--out", str(out)]

    def run(self, op: Op) -> None:
        out = self.workdir / op.tag
        spans_path = self.workdir / f"spans_{op.tag}.json"
        start = time.perf_counter()
        if op.traced:
            cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_path), repr(start),
                   "--", *self.cli_args(op, out)]
        else:
            cmd = [sys.executable, "-m", "roughpaths.cli", *self.cli_args(op, out)]
        stderr_path = self.workdir / f"{op.tag}.stderr"
        with stderr_path.open("wb") as stderr:
            proc = subprocess.Popen(cmd, env=child_env(), cwd=self.workdir,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            op.seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op.rss_kb = usage.ru_maxrss
        if proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            op.error = f"exit code {proc.returncode}: {' '.join(tail)}"
            return
        if op.traced:
            from spans import load_spans
            op.spans, extra = load_spans(spans_path)
            op.startup_s = extra["startup_s"]
        op.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        try:
            op.result = self.load_result(out)
        except (OSError, ValueError) as err:
            op.error = f"unreadable output: {err}"
            return
        shutil.rmtree(out)
        stderr_path.unlink()

    def load_result(self, out: Path):
        raise NotImplementedError


class CliSolveLine(CliWorkload):
    name = "cli-solve-line"
    command = "solve"
    TOL = 1e-8  # max |Y - y0 e^t| on the grid; about 8e-10 at the seed commit
    Y0 = 1.0

    def setup(self) -> None:
        from roughpaths import PiecewiseLinearPath

        self.times = t = np.linspace(0.0, 1.0, 513)
        self.expected = self.Y0 * np.exp(t)
        (self.workdir / "path.csv").write_text(PiecewiseLinearPath(t, t[:, None]).to_csv())
        self.config.write_text(json.dumps({
            "schema_version": 1, "seed": self.seed,
            "d": 1, "N": 3, "alpha": 0.29, "beta": 1 / 3,
            "path_csv": "path.csv",
            "field": {"kind": "linear", "matrix": [[1.0]]},
            "y0": [self.Y0], "horizon": 1.0,
            "solver": {"tau_init": 0.25, "contraction_tol": 1e-11},
            "output_dir": "out",
        }, indent=1))

    def load_result(self, out: Path) -> np.ndarray:
        data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (self.times.size, 2) or not np.array_equal(data[:, 0], self.times):
            raise ValueError(f"solution.csv has shape {data.shape} or an unexpected grid")
        return data[:, 1:]

    def gate(self, op: Op) -> None:
        op.dev = float(np.max(np.abs(op.result[:, 0] - self.expected)))
        op.checksum = digest(np.ascontiguousarray(op.result).tobytes())
        if not op.dev <= self.TOL:
            op.error = f"max |Y - y0 e^t| = {op.dev:.3e} exceeds {self.TOL:.0e}"

    perturb = staticmethod(scaled)


class CliVerify(CliWorkload):
    """Ops run in pairs that share a ``--seed`` drawn from the workload seed:
    the second report of a pair must equal the first byte for byte, and the
    run's median spans several seeds."""

    name = "cli-verify"
    command = "verify"
    SUITES = ("chen", "group_like", "coproduct", "alg_lemma", "removal", "rates")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.first_report: dict = {}

    def op_seed(self, seq: int) -> int:
        return int(np.random.SeedSequence([self.seed, seq // 2]).generate_state(1)[0])

    def setup(self) -> None:
        import roughpaths  # noqa: F401  (set-up covers the import, as for the other workloads)

        self.config.write_text(json.dumps({
            "schema_version": 1, "seed": self.seed,
            "d": 2, "N": 4, "alpha": 0.225, "beta": 0.25,
            "verify": {"suites": list(self.SUITES)},
            "output_dir": "out",
        }, indent=1))

    def cli_args(self, op: Op, out: Path) -> list:
        return super().cli_args(op, out) + ["--seed", str(self.op_seed(op.seq))]

    def load_result(self, out: Path) -> bytes:
        return (out / "verify_report.json").read_bytes()

    def gate(self, op: Op) -> None:
        report = json.loads(op.result)
        suites = report.get("suites", {})
        # The suites' own deviations from the identities and partition
        # oracles they check; "rates" fits an exponent and has none.
        devs = [v for s in suites.values() for k, v in s.items()
                if k in ("max_deviation", "max_violation")]
        op.dev = max(devs, default=math.inf)
        op.checksum = digest(op.result)
        failing = sorted(name for name, s in suites.items() if s.get("pass") is not True)
        first = self.first_report.setdefault(self.op_seed(op.seq), op.result)
        if sorted(suites) != sorted(self.SUITES) or failing:
            op.error = f"suites missing or failing: {failing or sorted(suites)}"
        elif op.result != first:
            op.error = "verify_report.json differs from the first op with this seed"

    @staticmethod
    def perturb(result: bytes, rel: float) -> bytes:
        report = json.loads(result)
        for suite in report["suites"].values():
            for key in ("max_deviation", "max_violation", "fitted_exponent"):
                if suite.get(key) is not None:
                    suite[key] *= 1.0 + rel
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


class LibSolveWalk:
    """An op is ``lift_path`` + ``solve`` in this process, including the
    solver's final diagnostics.  Op k uses driver k mod POOL of the seed, so
    the run's median spans several drivers."""

    name = "lib-solve-walk"
    kind = "lib"
    D, N, M = 3, 5, 32
    STEP = 0.05
    POOL = 16
    Y0 = (0.2,)
    # Half the driver: 2 patches and about 15 Picard steps.  Over [0, 1] an
    # op took twice as long and a run held too few ops for a steady median.
    HORIZON = 0.5
    ALPHA, BETA = (1 / 6 + 1 / 5) / 2, 1 / 5
    RK4_SUBSTEPS = 20
    TOL = 1e-8  # max |Y - RK4| on the grid; 1e-10 to 5e-10 at the seed commit

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected: dict = {}

    def setup(self) -> None:
        import roughpaths
        from roughpaths.lipschitz import ridge

        # The field is fixed: seeded field weights moved one solve from 4 to
        # 25 patches, so only the driver depends on the seed.
        terms = [{"coef": [1.0 if u == a else 0.0 for u in range(self.D)],
                  "kind": "sin", "weight": [0.5]} for a in range(self.D)]
        self.field = ridge(1, self.D, terms, n_levels=self.N)
        self.config = roughpaths.SolverConfig(alpha=self.ALPHA, beta=self.BETA,
                                              tau_init=0.25, contraction_tol=1e-10)
        times = np.linspace(0.0, 1.0, self.M + 1)
        self.paths = []
        for i in range(self.POOL):
            rng = np.random.default_rng([self.seed, i])
            steps = self.STEP * rng.standard_normal((self.M, self.D))
            points = np.vstack([np.zeros((1, self.D)), np.cumsum(steps, axis=0)])
            self.paths.append(roughpaths.PiecewiseLinearPath(times, points))

    def rk4(self, index: int) -> np.ndarray:
        """RK4 along the same polyline: the lift is its exact signature, so the
        RDE solution is the ODE solution along it."""
        from roughpaths.oracle import ode_rk4

        if index not in self.expected:
            def vector_field(y):
                return self.field.eval_at(0, y).reshape(len(self.Y0), self.D)

            self.expected[index] = ode_rk4(vector_field, self.paths[index], self.Y0,
                                           substeps=self.RK4_SUBSTEPS)
        return self.expected[index]

    def run(self, op: Op) -> None:
        import roughpaths
        from spans import Tracer

        path = self.paths[op.seq % self.POOL]
        tracer = Tracer() if op.traced else None
        start = time.perf_counter()
        try:
            with tracer or nullcontext():
                X = roughpaths.lift_path(path, self.N, self.BETA)
                Y, report = roughpaths.solve(self.field, X, self.Y0, self.HORIZON, self.config)
            op.seconds = time.perf_counter() - start
        except Exception:  # an op that raises is a failed op; the run goes on
            op.seconds = time.perf_counter() - start
            op.error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            return
        if tracer:
            op.spans = tracer.spans
            tracer.dump(self.workdir / f"spans_{op.tag}.json")
        op.result = Y.path_values().copy() if report.success else None
        if op.result is None:
            op.error = "solve report does not record success"

    def gate(self, op: Op) -> None:
        expected = self.rk4(op.seq % self.POOL)[:round(self.HORIZON * self.M) + 1]
        if op.result.shape != expected.shape:
            op.error = f"solution shape {op.result.shape}, expected {expected.shape}"
            return
        op.dev = float(np.max(np.abs(op.result - expected)))
        op.checksum = digest(np.ascontiguousarray(op.result).tobytes())
        if not op.dev <= self.TOL:
            op.error = f"max |Y - RK4| = {op.dev:.3e} exceeds {self.TOL:.0e}"

    perturb = staticmethod(scaled)


WORKLOADS = {w.name: w for w in (CliSolveLine, LibSolveWalk, CliVerify)}


def attempt(workload, op: Op) -> Op:
    """Run one op and gate its result; the gate runs outside the timing."""
    workload.run(op)
    if op.error is None:
        workload.gate(op)
    return op


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    directory.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name](seed, directory).setup()
