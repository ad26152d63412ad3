"""Library boundary table: one row per bad input a public constructor or
check must reject with a clear message (the library twin of the CLI's
config boundary fuzz)."""
import numpy as np
import pytest

from roughpaths.controlled_path import (
    ControlledPath,
    canonical_lift,
    concatenate,
    level_holder_norm,
    remainder_rows,
    restrict_path,
)
from roughpaths.lipschitz import (
    LipFunction,
    constant,
    expansion_identity_check,
    linear,
    lip_norm_check,
    polynomial,
    remainder_regularity_probe,
    ridge,
)
from roughpaths.rough_integral import Partition, convergence_rate_probe, dyadic_partition
from roughpaths.rough_path import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    holder_norm,
    increment,
    lift_path,
)
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


def no_eval(top, ys):
    return [np.zeros((ys.shape[0], 1, 1)) for _ in range(top + 1)]


# A 9-point d=1, N=3 driver, its canonical lift and a linear field.
WALK = lift_path(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), np.sin(np.arange(9.0))[:, None]), 3)
LIFT = canonical_lift(WALK)
LINE = linear([[1.0]], n_levels=2)


def expansion_check(r, k):
    return expansion_identity_check([lvl[0] for lvl in LIFT.levels], increment(WALK, 0, 4), r, k)


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
    # Field levels: one integer check in eval_levels, for every field.
    "lip-eval-level-bool": (lambda: LINE.eval(True, [[0.0]]), ValueError,
                            "derivative level True outside 0..2"),
    "lip-eval-level-float": (lambda: LINE.eval(1.0, [[0.0]]), ValueError,
                             r"derivative level 1.0 outside 0..2"),
    "ridge-eval-level-float": (lambda: ridge_term().eval(1.0, [[0.0]]), ValueError,
                               r"derivative level 1.0 outside 0..2"),
    "polynomial-eval-level-float": (lambda: polynomial(1, 1, {(2,): [1.0]}, 2).eval(1.0, [[0.0]]),
                                    ValueError, r"derivative level 1.0 outside 0..2"),
    "lip-eval-level-negative": (lambda: LINE.eval(-1, [[0.0]]), ValueError,
                                "derivative level -1 outside 0..2"),
    "lip-eval-level-above": (lambda: LINE.eval_levels(3, [[0.0]]), ValueError,
                             "derivative level 3 outside 0..2"),
    "lip-eval-points-width": (lambda: LINE.eval(0, [[0.0, 1.0]]), ValueError,
                              r"points have shape \(1, 2\), expected \(P, 1\)"),
    "lip-evaluator-short": (lambda: LipFunction(1, 1, 2, lambda top, ys: no_eval(0, ys)).eval(2, [[0.0]]),
                            ValueError, "evaluator returned"),
    # The sampling box and count of lip_norm_check.
    "lip-check-nan-box": (lambda: lip_norm_check(LINE, [nan], [1.0]), ValueError, "box lo must be finite"),
    "lip-check-inf-box": (lambda: lip_norm_check(LINE, [0.0], [inf]), ValueError, "box hi must be finite"),
    "lip-check-reversed-box": (lambda: lip_norm_check(LINE, [1.0], [0.0]), ValueError,
                               r"box lo \[1.0\] exceeds hi \[0.0\]"),
    "lip-check-no-samples": (lambda: lip_norm_check(LINE, 0.0, 1.0, sample_count=0), ValueError,
                             "sample_count 0 must be an integer >= 1"),
    "lip-check-float-samples": (lambda: lip_norm_check(LINE, 0.0, 1.0, sample_count=2.5), ValueError,
                                "sample_count 2.5 must be an integer >= 1"),
    "lip-check-bool-samples": (lambda: lip_norm_check(LINE, 0.0, 1.0, sample_count=True), ValueError,
                               "sample_count True must be an integer >= 1"),
    # Levels and grid indices of the scans and probes: a bool or a float is
    # never read as an integer.
    "series-level-bool": (lambda: TensorSeries.unit(2, 2).level(True), ValueError, "level True outside 0..2"),
    "holder-level-bool": (lambda: holder_norm(WALK, True, 0.3), ValueError, "level True outside 1..3"),
    "holder-level-float": (lambda: holder_norm(WALK, 1.0, 0.3), ValueError, "level 1.0 outside 1..3"),
    "level-holder-float": (lambda: level_holder_norm(LIFT, 1.0, 0.3), ValueError,
                           "level 1.0 outside 0..2"),
    "remainder-rows-bool": (lambda: remainder_rows(LIFT, WALK, True, 0), ValueError,
                            "level True outside 0..2"),
    "remainder-rows-float": (lambda: remainder_rows(LIFT, WALK, 1.0, 0), ValueError,
                             "level 1.0 outside 0..2"),
    "restrict-path-bool": (lambda: restrict_path(LIFT, False, True), IndexError,
                           "grid index s_idx False outside 0..8"),
    "restrict-path-float": (lambda: restrict_path(LIFT, 0.5, 3), IndexError,
                            "grid index s_idx 0.5 outside 0..8"),
    "restrict-path-past-end": (lambda: restrict_path(LIFT, 0, 9), IndexError,
                               "grid index t_idx 9 outside 0..8"),
    "restrict-path-empty": (lambda: restrict_path(LIFT, 3, 3), ValueError,
                            r"restriction needs s_idx < t_idx, got \(3, 3\)"),
    "expansion-r-bool": (lambda: expansion_check(True, 1), ValueError, "word length r True outside 1..2"),
    "expansion-r-float": (lambda: expansion_check(1.0, 1), ValueError, "word length r 1.0 outside 1..2"),
    "expansion-k-float": (lambda: expansion_check(1, 2.0), ValueError, "arity k 2.0 outside 1..2"),
    "remainder-probe-bool": (lambda: remainder_regularity_probe(linear([[1.0]], n_levels=3), LIFT, WALK,
                                                                True, 0.3), ValueError, "level True outside 0..2"),
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

