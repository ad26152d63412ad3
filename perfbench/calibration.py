"""Fixed reference work that follows the speed of a shared machine.

    python3 perfbench/calibration.py

Interpreter start, the numpy and scipy imports that roughpaths also makes,
and a fixed loop of small numpy products with Python arithmetic, the mix of
the library's own hot loops.  It imports nothing from roughpaths, so no
change to the library moves its time.  ``run.py`` times one spawn of it
before every op and every set-up.  On a shared 2-core VM, the medians of
ten runs spread (IQR over median) by 0.19-0.21 in raw wall time and by
0.07 (CLI workloads) to 0.15 (``lib-solve-walk``) after dividing each op
by the calibration before it.
"""
import numpy as np
import scipy.special  # noqa: F401  (part of the reference import cost)

ITERATIONS = 5000


def main() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 8))
    v = rng.standard_normal(8)
    acc = 0.0
    for i in range(ITERATIONS):
        w = np.einsum("i,tj->tij", v, a).reshape(16, -1)
        acc += float(np.abs(w[1:]).sum()) + i * 0.5
    return acc


if __name__ == "__main__":
    main()
