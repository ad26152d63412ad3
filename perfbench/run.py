"""End-to-end benchmark of roughpaths, with an optional traced per-layer run.

    python3 perfbench/run.py --workload cli-solve-line --seed 0 --seconds 38 --trace 0

Workloads are defined in ``workloads.py``.  The run first times
``SETUP_REPEATS`` set-ups, each in a fresh interpreter (start, imports and
input generation), then builds the inputs once more in this process.  It
then runs ops one at a time until the next one would not fit in
``--seconds``; at least one op runs.  Reference results are computed and
checked outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Times are in reference
seconds: each set-up and op is preceded by one spawn of ``calibration.py``,
and its wall time is scaled by ``CAL_REF_S`` over that spawn's wall time.
This follows the drift of a shared machine's speed; raw wall times are in
the op records and the summary.  ``--trace 1`` alternates an
untraced op with a traced op on the same input, reports the per-layer
metrics of ``spans.py`` (times and shares as medians over traced ops,
counts from the first traced op) and ``trace.overhead_ratio``, the traced
over the untraced median op time.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Earlier lines hold the environment record, one record per op (time next to
a checksum of its result) and a readable summary.  Everything is also
written to ``.bench_work/<workload>/result.json``, with the spans of traced
ops next to it.  The run exits 2 without a result if ``src/roughpaths`` is
missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# Nominal wall time of one calibration spawn; reference seconds are wall
# seconds on a machine where the calibration takes this long.
CAL_REF_S = 0.5
# Deviations are floored here before taking -log10, so a deviation of 0
# reads as 17 correct digits rather than infinity.
DEV_FLOOR = 1e-17
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "roughpaths").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy

    libs = (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in libs:
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def timed_spawn(cmd: list) -> float:
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), check=True)
    return time.perf_counter() - start


def calibrate() -> float:
    return timed_spawn([sys.executable, str(BENCH / "calibration.py")])


def time_setups(name: str, seed: int, workdir: Path) -> list:
    """(calibration seconds, wall seconds) of each fresh-interpreter set-up."""
    runs = []
    for i in range(SETUP_REPEATS):
        cal = calibrate()
        runs.append((cal, timed_spawn([sys.executable, str(BENCH / "workloads.py"), name,
                                       str(seed), str(workdir / f"setup{i}")])))
    return runs


def reference_seconds(wall: float, cal: float) -> float:
    return wall * CAL_REF_S / cal


def digits(dev: float) -> float:
    return -math.log10(max(dev, DEV_FLOOR))


def failed_ratio(ops: list) -> float:
    """Failed over attempted ops; an op fails if it raises, exits nonzero or misses its gate."""
    return sum(not op.ok for op in ops) / len(ops)


def end_to_end(workload, ops: list, setups: list) -> dict:
    devs = [op.dev for op in ops if math.isfinite(op.dev)]
    if workload.kind == "cli":
        peak_kb = max(op.rss_kb for op in ops)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_s_p50": (statistics.median(reference_seconds(op.seconds, op.cal_s)
                                       for op in ops), "s"),
        "setup_s": (statistics.median(reference_seconds(wall, cal)
                                      for cal, wall in setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "oracle_digits": (statistics.median(digits(d) for d in devs) if devs else 0.0, "digits"),
    }


def _unit(key: str) -> str:
    if key.endswith(".self_s") or key == "cli.startup_s":
        return "s"
    if key.endswith(".share") or key.endswith("_ratio"):
        return "ratio"
    return "bytes" if key == "cli.artifact_bytes" else "count"


def per_layer(ops: list) -> dict:
    from spans import layer_metrics

    traced = [op for op in ops if op.traced and op.ok]
    per_op = [{**layer_metrics(op.spans), "cli.startup_s": op.startup_s,
               "cli.artifact_bytes": op.artifact_bytes} for op in traced]
    if not per_op:
        per_op = [{**layer_metrics([]), "cli.startup_s": 0.0, "cli.artifact_bytes": 0}]
    metrics = {}
    for key, first in per_op[0].items():
        unit = _unit(key)
        timed = unit == "s" or key.endswith(".share")
        metrics[key] = (statistics.median(m[key] for m in per_op) if timed else first, unit)
    untraced = [op.seconds for op in ops if not op.traced and op.ok]
    ratio = (statistics.median(op.seconds for op in traced) / statistics.median(untraced)
             if traced and untraced else 0.0)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roughpaths" / "__init__.py").is_file():
        print(f"error: no roughpaths sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Op, attempt

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    setups = time_setups(args.workload, args.seed, workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()

    ops, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # Traced runs alternate which op of a pair goes first.
        order = (len(rounds) % 2 == 1, len(rounds) % 2 == 0) if args.trace else (False,)
        for traced in order:
            op = Op(len(rounds), traced, cal_s=0.0 if args.trace else calibrate())
            ops.append(attempt(workload, op))
            print(json.dumps(op.record()), flush=True)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break

    metrics = per_layer(ops) if args.trace else end_to_end(workload, ops, setups)
    failed = sum(not op.ok for op in ops)
    env.update(loadavg_before=load_before, loadavg_after=os.getloadavg())
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "failed_ratio": failed_ratio(ops),
        "oracle_dev_p50": statistics.median(op.dev for op in ops),
        "op_wall_s_p50": statistics.median(op.seconds for op in ops),
        "setup_wall_s": [wall for _, wall in setups],
        "setup_cal_s": [cal for cal, _ in setups],
    }
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (workdir / "result.json").write_text(json.dumps({
        "environment": env, "summary": summary,
        "ops": [op.record() for op in ops], "metrics": reported,
    }, indent=1))
    print(json.dumps({"environment": env}))
    for key, value in summary.items():
        print(f"# {key:<40} {value}")
    for key, (value, unit) in metrics.items():
        print(f"# {key:<40} {value:<24.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
