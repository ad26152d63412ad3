"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed 0]

For every workload it checks that

* two traced runs with the same seed give exactly equal work counts, and
* an op's result passes its gate, while the same result perturbed by a
  relative 1e-6 fails the gate and counts in the failed ratio.

It prints one line per check and exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from run import SRC, WORK, failed_ratio

COUNTS = ("rde_solver.attempts", "rde_solver.picard_steps", "lipschitz.compose.calls",
          "tensor_algebra.group_inverse.calls", "controlled_path.pairs_scanned")
PERTURBATION = 1e-6


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=SRC.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] for key in COUNTS}


def perturbed_gate(cls, seed: int) -> tuple[bool, bool, float]:
    """(op passes, perturbed op fails, failed ratio over both)."""
    from workloads import Op, attempt

    workdir = WORK / "selftest" / cls.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = cls(seed, workdir)
    workload.setup()
    good = attempt(workload, Op(0, False))
    bad = Op(good.seq, False, result=workload.perturb(good.result, PERTURBATION))
    workload.gate(bad)
    return good.ok, not bad.ok, failed_ratio([good, bad])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        first, second = traced_counts(name, args.seed), traced_counts(name, args.seed)
        same = first == second
        print(f"{name}: counts repeat exactly: {same} {first}" + ("" if same else f" vs {second}"))
        passes, caught, ratio = perturbed_gate(cls, args.seed)
        print(f"{name}: op passes gate: {passes}; result x (1 + {PERTURBATION:g}) fails gate: "
              f"{caught}; failed_ratio {ratio}")
        ok = ok and same and passes and caught and ratio == 0.5
    print("selftest:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
