"""Library boundary table: one row per bad input a public constructor or
check must reject with a clear message (the library twin of the CLI's
config boundary fuzz)."""
import numpy as np
import pytest

from roughpaths.controlled_path import ControlledPath, canonical_lift, concatenate
from roughpaths.lipschitz import LipFunction, constant, linear, polynomial, ridge
from roughpaths.rough_integral import Partition, convergence_rate_probe, dyadic_partition
from roughpaths.rough_path import GeometricRoughPath, PiecewiseLinearPath, lift_path
from roughpaths.tensor_algebra import TensorSeries, exp_segment, is_group_like

nan, inf = float("nan"), float("inf")


def controlled(times=(0.0, 0.5, 1.0), d=1, N=2, dim_u=1):
    levels = [np.zeros((len(times), int(dim_u), d**i)) for i in range(N)]
    return ControlledPath(times, d, N, dim_u, levels)


def rough(d=1, N=2):
    levels = [np.ones((2, 1))] + [np.zeros((2, d**i)) for i in range(1, N + 1)]
    return GeometricRoughPath([0.0, 1.0], d, N, 0.4, levels)


def ridge_term(**bad):
    return ridge(1, 1, [{"coef": [1.0], "kind": "sin", "weight": [0.5], **bad}], 2)


def concatenate_with(tol):
    X = lift_path(PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.5]]), 2)
    left = ControlledPath(X.times[:2], 1, 2, 1, [np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
    right = ControlledPath(X.times[1:], 1, 2, 1, [np.zeros((2, 1, 1)), np.zeros((2, 1, 1))])
    return concatenate(left, right, X, tol=tol)


def rate_probe(depths):
    X = lift_path(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9)[:, None]), 2)
    return convergence_rate_probe(canonical_lift(X), X, 0, 8, depths)


def no_eval(j, ys):
    return np.zeros((ys.shape[0], 1, 1))


CASES = {
    # Every series goes through the one TensorSeries constructor.
    "series-unit-d5": (lambda: TensorSeries.unit(5, 2), ValueError, "dimension 5 outside"),
    "series-word-d5": (lambda: TensorSeries.from_word((1,), 5, 2), ValueError, "dimension 5 outside"),
    "series-unit-N0": (lambda: TensorSeries.unit(2, 0), ValueError, "level 0 outside"),
    # The caps are checked before any block is built from d and N.
    "series-unit-d-float": (lambda: TensorSeries.unit(2.5, 2), ValueError, "dimension 2.5 outside"),
    "series-unit-N-float": (lambda: TensorSeries.unit(2, 2.5), ValueError, "level 2.5 outside"),
    "series-unit-d-str": (lambda: TensorSeries.unit("2", 2), ValueError, "dimension '2' outside"),
    "series-word-d-float": (lambda: TensorSeries.from_word((0,), 2.5, 2), ValueError,
                            "dimension 2.5 outside"),
    "series-nan-level": (lambda: TensorSeries(2, 2, [1, [nan, 1], [0] * 4]), ValueError,
                         "level 1 block has non-finite"),
    "exp-segment-nan": (lambda: exp_segment([nan, 1], 3), ValueError, "non-finite"),
    # Grid-sampled types: the caps, the grid and the level blocks.
    "rough-d5": (lambda: rough(d=5), ValueError, "dimension 5 outside"),
    "rough-N6": (lambda: rough(N=6), ValueError, "level 6 outside"),
    "controlled-decreasing-times": (lambda: controlled(times=(0.0, 1.0, 0.5)), ValueError,
                                    "strictly increasing"),
    "controlled-nan-time": (lambda: controlled(times=(0.0, nan, 1.0)), ValueError, "finite"),
    "controlled-d5": (lambda: controlled(d=5), ValueError, "dimension 5 outside"),
    "controlled-N-true": (lambda: controlled(N=True), ValueError, "level True outside"),
    "controlled-dim-u-0": (lambda: controlled(dim_u=0), ValueError, "target dimension 0"),
    "controlled-dim-u-float": (lambda: controlled(dim_u=1.0), ValueError, "target dimension 1.0"),
    # Field constructors.
    "constant-nan": (lambda: constant([nan], 1, 2), ValueError, "constant value must be finite"),
    "linear-nan-matrix": (lambda: linear([[nan]]), ValueError, "linear matrix must be finite"),
    "linear-inf-offset": (lambda: linear([[1.0]], [inf]), ValueError, "linear offset must be finite"),
    "polynomial-nan": (lambda: polynomial(1, 1, {(1,): [nan]}, 2), ValueError,
                       "monomial value must be finite"),
    "ridge-nan-coef": (lambda: ridge_term(coef=[nan]), ValueError, "ridge coef must be finite"),
    "ridge-nan-weight": (lambda: ridge_term(weight=[nan]), ValueError, "ridge weight must be finite"),
    "ridge-nan-phase": (lambda: ridge_term(phase=nan), ValueError, "ridge phase must be finite"),
    "ridge-levels-float": (lambda: ridge(1, 1, [], 1.5), ValueError, "n_levels 1.5 must be an integer"),
    "lip-levels-float": (lambda: LipFunction(1, 1, 1.5, no_eval), ValueError,
                         "n_levels 1.5 must be an integer >= 0"),
    "lip-levels-bool": (lambda: LipFunction(1, 1, True, no_eval), ValueError,
                        "n_levels True must be an integer >= 0"),
    "lip-dim-in-0": (lambda: LipFunction(0, 1, 1, no_eval), ValueError, "dim_in 0 must be an integer >= 1"),
    "lip-dim-out-0": (lambda: LipFunction(1, 0, 1, no_eval), ValueError, "dim_out 0 must be an integer >= 1"),
    "constant-dim-in-0": (lambda: constant([1.0], 0, 1), ValueError, "dim_in 0 must be an integer"),
    # The dyadic window.
    "dyadic-reversed": (lambda: dyadic_partition(8, 0, 2), ValueError, r"dyadic window \(8, 0\)"),
    "dyadic-negative": (lambda: dyadic_partition(-4, 4, 1), ValueError, r"dyadic window \(-4, 4\)"),
    "dyadic-float": (lambda: dyadic_partition(0.5, 4, 1), ValueError, r"dyadic window \(0.5, 4\)"),
    "rate-probe-no-depths": (lambda: rate_probe([]), ValueError, "depths must hold at least one"),
    # Partition indices are grid indices, never truncated.
    "partition-float-index": (lambda: Partition((0.5, 8.2)), ValueError,
                              "partition index 0.5 is not an integer"),
    "partition-bool-index": (lambda: Partition((False, True)), ValueError,
                             "partition index False is not an integer"),
    # Tolerances.
    "group-like-nan-tol": (lambda: is_group_like(TensorSeries.unit(2, 3), nan), ValueError, "tol nan"),
    "group-like-negative-tol": (lambda: is_group_like(TensorSeries.unit(2, 3), -1.0), ValueError,
                                "tol -1.0"),
    "concatenate-nan-tol": (lambda: concatenate_with(nan), ValueError, "tol nan"),
    "concatenate-negative-tol": (lambda: concatenate_with(-1e-10), ValueError, "tol -1e-10"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_library_boundary(build, error, message):
    with pytest.raises(error, match=message):
        build()

