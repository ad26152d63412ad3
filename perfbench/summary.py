"""One untraced run of every workload, printed as one table.

    python3 perfbench/summary.py [--seed 0] [--seconds 38]

Each workload runs in its own ``run.py`` process, one after another.  Next
to the end-to-end metrics the table shows the raw median op wall time,
``failed_ratio`` (failed over attempted ops), ``oracle_dev_p50`` (median
over ops of the maximum deviation from the reference: y0 e^t, RK4, or the
verify suites' identities) and the number of ops.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import SRC, WORK

EXTRA = (("op_wall_s_p50", "s"), ("failed_ratio", "ratio"), ("oracle_dev_p50", "abs"),
         ("ops", "count"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=38)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0"], cwd=SRC.parent, stdout=subprocess.DEVNULL, check=True)
        result = json.loads((WORK / name / "result.json").read_text())
        for key, metric in result["metrics"].items():
            rows.append((name, key, metric["value"], metric["unit"]))
        rows += [(name, key, result["summary"][key], unit) for key, unit in EXTRA]
    for name, key, value, unit in rows:
        print(f"{name:<16} {key:<16} {value:<14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
