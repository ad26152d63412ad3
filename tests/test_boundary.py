"""Library boundary table: one row per bad input a public constructor or
check must reject with a clear message (the library twin of the CLI's
config boundary fuzz), and two sweeps over the signatures of the public
names: every parameter annotated ``int`` rejects a bool, a float and an
integer out of range with a ValueError or IndexError that names it, and
every parameter annotated ``float`` (or ``float | None``) rejects NaN, both
infinities unless its range holds them, a bool and a value past each finite
end of its range with a ValueError that names it."""
import inspect
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpaths
from roughpaths import controlled_path, lipschitz, rde_solver, rough_integral, rough_path, tensor_algebra
from roughpaths.controlled_path import (
    ControlledPath,
    canonical_lift,
    concatenate,
    distance,
    level_holder_norm,
    path_add,
    path_scale,
    prefix_seminorms,
    remainder_rows,
    restrict_path,
    seminorm,
    triple_norm,
    zero_remainder_path,
)
from roughpaths.lipschitz import (
    LipFunction,
    LipReport,
    RemainderProbe,
    constant,
    expansion_identity_check,
    from_config,
    identity,
    linear,
    lip_norm_check,
    polynomial,
    remainder_regularity_probe,
    ridge,
    taylor_remainder,
)
from roughpaths.rde_solver import (
    ContinuityProbe,
    PatchReport,
    SolverConfig,
    SolveReport,
    canonical_initial_path,
    check_exponents,
    continuity_probe,
    grid_index,
    picard_step,
    solve,
    solve_local,
)
from roughpaths.rough_integral import (
    Partition,
    RateProbe,
    convergence_rate_probe,
    dyadic_partition,
    integral_controlled,
    removal_identity_check,
    tail_constant,
)
from roughpaths.rough_path import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    holder_distance,
    holder_norm,
    increment,
    lift_path,
    restrict,
)
from roughpaths.tensor_algebra import (
    TensorSeries,
    admissible_norm,
    coproduct,
    exp_segment,
    index_word,
    is_group_like,
    level_words,
    shuffle_product,
    symmetrize,
    word_index,
)

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


# A 9-point d=1, N=3 driver, its canonical lift (an integrand too: its target
# R^1 is L(R^1; R^1)), a linear field, a series and a partition of the grid.
WALK = lift_path(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), np.sin(np.arange(9.0))[:, None]), 3)
LIFT = canonical_lift(WALK)
LINE = linear([[1.0]], n_levels=2)
SERIES = TensorSeries.unit(2, 3)
PART = Partition((0, 2, 5, 8))
# A path in R^2 on the same driver, an integrand too (L(R^1; R^2) is R^2), and
# a linear field on R^2: the target dimension e is 2.
PAIR = zero_remainder_path([np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))], WALK)
PLANE = linear(np.eye(2), n_levels=3)
# The canonical lift of a 9-point line on its N = 3 driver, a scalar field
# that solves on it, and a solver config inside the exponent window of N = 3.
STRAIGHT = lift_path(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9)[:, None]), 3)
STRAIGHT_LIFT = canonical_lift(STRAIGHT)
SCALAR = linear([[0.5]], n_levels=3)
CONFIG = SolverConfig(0.29, 1 / 3)


def expansion_check(r, k):
    return expansion_identity_check([lvl[0] for lvl in LIFT.levels], increment(WALK, 0, 4), r, k)


CASES = {
    # Every series goes through the one TensorSeries constructor.
    "series-unit-d5": (lambda: TensorSeries.unit(5, 2), ValueError, "dimension d 5 outside"),
    "series-word-d5": (lambda: TensorSeries.from_word((1,), 5, 2), ValueError, "dimension d 5 outside"),
    "series-unit-N0": (lambda: TensorSeries.unit(2, 0), ValueError, "level N 0 outside"),
    # The caps are checked before any block is built from d and N.
    "series-unit-d-float": (lambda: TensorSeries.unit(2.5, 2), ValueError, "dimension d 2.5 outside"),
    "series-unit-N-float": (lambda: TensorSeries.unit(2, 2.5), ValueError, "level N 2.5 outside"),
    "series-unit-d-str": (lambda: TensorSeries.unit("2", 2), ValueError, "dimension d '2' outside"),
    "series-word-d-float": (lambda: TensorSeries.from_word((0,), 2.5, 2), ValueError,
                            "dimension d 2.5 outside"),
    "series-nan-level": (lambda: TensorSeries(2, 2, [1, [nan, 1], [0] * 4]), ValueError,
                         "level 1 block has non-finite"),
    "exp-segment-nan": (lambda: exp_segment([nan, 1], 3), ValueError, "increment v must be finite"),
    # Grid-sampled types: the caps, the grid and the level blocks.
    "rough-d5": (lambda: rough(d=5), ValueError, "dimension d 5 outside"),
    "rough-N6": (lambda: rough(N=6), ValueError, "level N 6 outside"),
    "controlled-decreasing-times": (lambda: controlled(times=(0.0, 1.0, 0.5)), ValueError,
                                    "strictly increasing"),
    "controlled-nan-time": (lambda: controlled(times=(0.0, nan, 1.0)), ValueError, "finite"),
    "controlled-d5": (lambda: controlled(d=5), ValueError, "dimension d 5 outside"),
    "controlled-N-true": (lambda: controlled(N=True), ValueError, "level N True outside"),
    "controlled-N-none": (lambda: ControlledPath((0.0, 1.0), 1, None, 1, []), ValueError,
                          "level N None outside"),
    "controlled-dim-u-0": (lambda: controlled(dim_u=0), ValueError, "target dimension dim_u 0"),
    "controlled-dim-u-float": (lambda: controlled(dim_u=1.0), ValueError, "target dimension dim_u 1.0"),
    # Field constructors.
    "constant-nan": (lambda: constant([nan], 1, 2), ValueError, "constant value must be finite"),
    "linear-nan-matrix": (lambda: linear([[nan]]), ValueError, "linear matrix must be finite"),
    "linear-inf-offset": (lambda: linear([[1.0]], [inf]), ValueError, "linear offset must be finite"),
    "polynomial-nan": (lambda: polynomial(1, 1, {(1,): [nan]}, 2), ValueError,
                       "monomial value must be finite"),
    "ridge-nan-coef": (lambda: ridge_term(coef=[nan]), ValueError, "ridge coef must be finite"),
    "ridge-nan-weight": (lambda: ridge_term(weight=[nan]), ValueError, "ridge weight must be finite"),
    "ridge-nan-phase": (lambda: ridge_term(phase=nan), ValueError,
                         r"ridge phase nan outside \(-inf, inf\)"),
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
                            "derivative level j True outside 0..2"),
    "lip-eval-level-float": (lambda: LINE.eval(1.0, [[0.0]]), ValueError,
                             r"derivative level j 1.0 outside 0..2"),
    "ridge-eval-level-float": (lambda: ridge_term().eval(1.0, [[0.0]]), ValueError,
                               r"derivative level j 1.0 outside 0..2"),
    "polynomial-eval-level-float": (lambda: polynomial(1, 1, {(2,): [1.0]}, 2).eval(1.0, [[0.0]]),
                                    ValueError, r"derivative level j 1.0 outside 0..2"),
    "lip-eval-level-negative": (lambda: LINE.eval(-1, [[0.0]]), ValueError,
                                "derivative level j -1 outside 0..2"),
    "lip-eval-level-above": (lambda: LINE.eval_levels(3, [[0.0]]), ValueError,
                             "derivative level top 3 outside 0..2"),
    "lip-eval-points-width": (lambda: LINE.eval(0, [[0.0, 1.0]]), ValueError,
                              r"points ys has shape \(1, 2\), expected \(n, 1\)"),
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
    # A box wider than the largest float, and a field or an expansion that
    # overflows on its box: a ValueError, never numpy's raw RuntimeWarning.
    "lip-check-box-too-wide": (lambda: lip_norm_check(LINE, -1e308, 1e308), ValueError,
                               r"box lo \[-1e\+308\] to hi \[1e\+308\] has a width hi - lo that is not finite"),
    "lip-check-expansion-overflow": (lambda: lip_norm_check(LINE, 0.0, 1e308), ValueError,
                                     r"the field's expansion overflowed on the box lo \[0.0\] to hi \[1e\+308\]"),
    "lip-check-field-overflow": (lambda: lip_norm_check(ridge_term(kind="exp", weight=[1.0]), 0.0, 1000.0),
                                 ValueError, r"the field overflowed on the box lo \[0.0\] to hi \[1000.0\]"),
    # Levels and grid indices of the scans and probes: a bool or a float is
    # never read as an integer.
    "series-level-bool": (lambda: TensorSeries.unit(2, 2).level(True), ValueError, "level i True outside 0..2"),
    "holder-level-bool": (lambda: holder_norm(WALK, True, 0.3), ValueError, "level True outside 1..3"),
    "holder-level-float": (lambda: holder_norm(WALK, 1.0, 0.3), ValueError, "level 1.0 outside 1..3"),
    "level-holder-float": (lambda: level_holder_norm(LIFT, 1.0, 0.3), ValueError,
                           "level i 1.0 outside 0..2"),
    "remainder-rows-bool": (lambda: remainder_rows(LIFT, WALK, True, 0), ValueError,
                            "level i True outside 0..2"),
    "remainder-rows-float": (lambda: remainder_rows(LIFT, WALK, 1.0, 0), ValueError,
                             "level i 1.0 outside 0..2"),
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
                                                                True, 0.3), ValueError, "level r True outside 0..2"),
    # The dyadic window.
    "dyadic-reversed": (lambda: dyadic_partition(8, 0, 2), ValueError, r"dyadic window \(8, 0\)"),
    "dyadic-negative": (lambda: dyadic_partition(-4, 4, 1), ValueError, "dyadic window s_idx -4 must be an integer >= 0"),
    "dyadic-float": (lambda: dyadic_partition(0.5, 4, 1), ValueError, "dyadic window s_idx 0.5 must be an integer >= 0"),
    "rate-probe-no-depths": (lambda: rate_probe([]), ValueError, "depths must hold at least one"),
    "rate-probe-past-end": (lambda: convergence_rate_probe(LIFT, WALK, 0, 9, [1]), IndexError,
                            "grid index t_idx 9 outside 0..8"),
    # Grid indices of the driver: one check, an IndexError naming the index.
    "value-index-float": (lambda: WALK.value(1.5), IndexError, "grid index idx 1.5 outside 0..8"),
    "increment-past-end": (lambda: increment(WALK, 0, 9), IndexError, "grid index t_idx 9 outside 0..8"),
    "restrict-index-bool": (lambda: restrict(WALK, False, 4), IndexError,
                            "grid index s_idx False outside 0..8"),
    "remainder-rows-index-float": (lambda: remainder_rows(LIFT, WALK, 0, 1.0), IndexError,
                                   "grid index s_idx 1.0 outside 0..8"),
    "rough-integral-index-float": (lambda: rough_integral.rough_integral(LIFT, WALK, 0.5, 8),
                                   IndexError, "grid index s_idx 0.5 outside 0..8"),
    "rough-integral-reversed": (lambda: rough_integral.rough_integral(LIFT, WALK, 5, 2), ValueError,
                                "rough_integral requires s_idx <= t_idx, got s_idx=5, t_idx=2"),
    # Partition indices are grid indices, never truncated.
    "partition-float-index": (lambda: Partition((0.5, 8.2)), ValueError,
                              "partition index 0.5 must be an integer >= 0"),
    "partition-bool-index": (lambda: Partition((False, True)), ValueError,
                             "partition index False must be an integer >= 0"),
    "partition-negative-index": (lambda: Partition((-1, 2)), ValueError,
                                 "partition index -1 must be an integer >= 0"),
    "partition-remove-float": (lambda: PART.remove(1.0), ValueError, "interior point j 1.0 outside 1..2"),
    "removal-j-bool": (lambda: removal_identity_check(LIFT, WALK, PART, True), ValueError,
                       "interior point j True outside 1..2"),
    # Levels, arities, degrees and counts: a bool or a float is never read as an integer.
    "tail-constant-N-bool": (lambda: tail_constant(True, 0.6), ValueError, "level N True outside 1..5"),
    "tail-constant-N-float": (lambda: tail_constant(2.5, 0.3), ValueError, "level N 2.5 outside 1..5"),
    # The exponent of the tail: the window of the remainder exponents.
    "tail-constant-alpha-inf": (lambda: tail_constant(3, inf), ValueError, r"alpha inf outside \(0.25, 1\]"),
    "tail-constant-alpha-300": (lambda: tail_constant(3, 300.0), ValueError,
                                r"alpha 300.0 outside \(0.25, 1\]"),
    # Start values in U = R^e: e finite entries, never broadcast.
    "picard-y0-short": (lambda: picard_step(PAIR, PLANE, WALK, [5.0]), ValueError,
                        r"y0 has shape \(1,\), expected \(2,\)"),
    "picard-y0-long": (lambda: picard_step(PAIR, PLANE, WALK, [1.0, 2.0, 3.0]), ValueError,
                       r"y0 has shape \(3,\), expected \(2,\)"),
    "picard-y0-nan": (lambda: picard_step(PAIR, PLANE, WALK, [nan, 0.0]), ValueError,
                      "y0 must be finite"),
    "integral-offset-short": (lambda: integral_controlled(PAIR, WALK, [5.0]), ValueError,
                              r"offset has shape \(1,\), expected \(2,\)"),
    "integral-offset-long": (lambda: integral_controlled(PAIR, WALK, [1.0, 2.0, 3.0]), ValueError,
                             r"offset has shape \(3,\), expected \(2,\)"),
    "integral-offset-inf": (lambda: integral_controlled(PAIR, WALK, [inf, 0.0]), ValueError,
                            "offset must be finite"),
    # Start blocks of the zero-remainder path: block i is a finite (e, d**i) map.
    "zero-remainder-block-shape": (lambda: zero_remainder_path([np.zeros((2, 1)), np.zeros((3, 1)),
                                                                np.zeros((2, 1))], WALK),
                                   ValueError, r"start block 1 must have shape \(2, 1\), got \(3, 1\)"),
    "zero-remainder-block-nan": (lambda: zero_remainder_path([np.zeros((2, 1)), np.full((2, 1), nan),
                                                              np.zeros((2, 1))], WALK),
                                 controlled_path.NonFiniteLevelError, "start block 1 has non-finite entries"),
    # Scale factors.
    "path-scale-inf": (lambda: path_scale(LIFT, inf), ValueError, r"scale factor c inf outside \(-inf, inf\)"),
    "path-scale-nan": (lambda: path_scale(LIFT, nan), ValueError, r"scale factor c nan outside \(-inf, inf\)"),
    "shuffle-cap-float": (lambda: shuffle_product((1,), (2,), 2.5), ValueError,
                          "level cap n_max 2.5 outside 0..5"),
    "coproduct-arity-float": (lambda: coproduct(SERIES, 2.0), ValueError, "arity k 2.0 outside 1..6"),
    "coproduct-arity-bool": (lambda: coproduct(SERIES, True), ValueError, "arity k True outside 1..6"),
    # The arity has a top, MAX_LEVEL + 1: a larger arity only adds empty slots.
    "coproduct-arity-7": (lambda: coproduct(SERIES, 7), ValueError, "arity k 7 outside 1..6"),
    "symmetrize-degree-float": (lambda: symmetrize(np.zeros(4), 2, 2.0), ValueError,
                                "degree k 2.0 must be an integer >= 0"),
    "symmetrize-degree-bool": (lambda: symmetrize(np.zeros(2), 2, True), ValueError,
                               "degree k True must be an integer >= 0"),
    "solver-budget-float": (lambda: SolverConfig(0.29, 1 / 3, max_picard_iters=2.5).validate(3),
                            ValueError, "max_picard_iters 2.5 must be an integer >= 1"),
    "solver-budget-zero": (lambda: SolverConfig(0.29, 1 / 3, max_patches=0).validate(3),
                           ValueError, "max_patches 0 must be an integer >= 1"),
    # Letters of a word: integers in 1..d, never a numpy index error.
    "series-word-float-letter": (lambda: TensorSeries.from_word((1.0,), 2, 2), ValueError,
                                 r"word \(1.0,\) letter 1.0 outside 1..2"),
    "series-coeff-float-letter": (lambda: SERIES.coeff((1.5,)), ValueError,
                                  r"word \(1.5,\) letter 1.5 outside 1..2"),
    # Path shapes: one grid axis, at least one coordinate.
    "path-times-2d": (lambda: PiecewiseLinearPath([[0.0], [1.0]], [[0.0], [1.0]]), ValueError,
                      r"grid times must be a 1-D array, got shape \(2, 1\)"),
    "path-no-coordinates": (lambda: PiecewiseLinearPath([0.0, 1.0], np.zeros((2, 0))), ValueError,
                            r"points must be a \(P, d\) array with d >= 1, got shape \(2, 0\)"),
    # Grid times, level blocks and start blocks hold numbers: a bool or a
    # numeric string is never read as one.
    "path-string-times": (lambda: PiecewiseLinearPath(['0', '1'], [0.0, 1.0]), ValueError,
                          "grid times must hold numbers, got dtype <U1"),
    "series-bool-level": (lambda: TensorSeries(1, 1, [[True], ['2.5']]), ValueError,
                          "level 0 block must hold numbers, got dtype bool"),
    "series-string-level": (lambda: TensorSeries(1, 1, [[1.0], ['2.5']]), ValueError,
                            "level 1 block must hold numbers, got dtype <U3"),
    "series-complex-level": (lambda: TensorSeries(1, 1, [[1.0], [1j]]), ValueError,
                             "level 1 block must hold numbers, got dtype complex128"),
    "series-object-level": (lambda: TensorSeries(1, 1, [[1.0], [Fraction(1, 2)]]), ValueError,
                            "level 1 block must hold numbers, got dtype object"),
    "rough-string-times": (lambda: GeometricRoughPath(['0', '1'], 1, 2, 0.4, rough().levels), ValueError,
                           "grid times must hold numbers, got dtype <U1"),
    "rough-bool-level": (lambda: GeometricRoughPath([0.0, 1.0], 1, 1, 0.4, [[[1.0], [1.0]], [[False], [True]]]),
                         ValueError, "level 1 block must hold numbers, got dtype bool"),
    "controlled-bool-level": (lambda: ControlledPath((0.0, 1.0), 1, 1, 1, [np.ones((2, 1, 1), dtype=bool)]),
                              ValueError, "level 0 block must hold numbers, got dtype bool"),
    "controlled-string-level": (lambda: ControlledPath((0.0, 1.0), 1, 2, 1, [np.zeros((2, 1, 1)),
                                                                         np.full((2, 1, 1), '1')]),
                                ValueError, "level 1 block must hold numbers, got dtype <U1"),
    "controlled-bool-times": (lambda: controlled(times=(False, True)), ValueError,
                              "grid times must hold numbers, got dtype bool"),
    "zero-remainder-string-block": (lambda: zero_remainder_path([[['1']], [[True]]], rough()), ValueError,
                                    "start block 0 must hold numbers, got dtype <U1"),
    "zero-remainder-bool-block": (lambda: zero_remainder_path([[[1.0]], [[True]]], rough()), ValueError,
                                  "start block 1 must hold numbers, got dtype bool"),
    # A bool listed among numbers, which numpy would promote to a number.
    "path-bool-among-times": (lambda: PiecewiseLinearPath([0, True], [0.0, 1.0]), ValueError,
                              "grid times must hold numbers, got a bool entry"),
    "series-bool-among-level": (lambda: TensorSeries(2, 1, [[1.0], [0.5, True]]), ValueError,
                                "level 1 block must hold numbers, got a bool entry"),
    "picard-y0-bool-among": (lambda: picard_step(PAIR, PLANE, WALK, [1.0, np.bool_(True)]), ValueError,
                             "y0 must hold numbers, got a bool entry"),
    "zero-remainder-bool-among-block": (lambda: zero_remainder_path([[[1.0], [True]], [[0.0], [0.0]]], rough()),
                                        ValueError, "start block 0 must hold numbers, got a bool entry"),
    # Nested sequences of unequal length, which numpy refuses to read as an array.
    "check-array-ragged": (lambda: tensor_algebra._check_array([[1.0], [2.0, 3.0]], "x"), ValueError,
                           "x must be a rectangular array, got nested sequences of unequal length"),
    "linear-ragged-matrix": (lambda: linear([[1.0], [1.0, 2.0]]), ValueError,
                             "linear matrix must be a rectangular array"),
    "path-ragged-points": (lambda: PiecewiseLinearPath([0, 1], [[0.0], [1.0, 2.0]]), ValueError,
                           "points must be a rectangular array"),
    "path-ragged-times": (lambda: PiecewiseLinearPath([[0.0], [1.0, 2.0]], [0.0, 1.0]), ValueError,
                          "grid times must be a rectangular array"),
    "series-ragged-level": (lambda: TensorSeries(1, 1, [[1.0], [[0.5], [0.1, 0.2]]]), ValueError,
                            "level 1 block must be a rectangular array"),
    "zero-remainder-ragged-block": (lambda: zero_remainder_path([[[1.0], [1.0, 2.0]], [[0.0]]], rough()),
                                    ValueError, "start block 0 must be a rectangular array"),
    # Tolerances.
    "group-like-nan-tol": (lambda: is_group_like(TensorSeries.unit(2, 3), nan), ValueError, "tol nan"),
    "group-like-negative-tol": (lambda: is_group_like(TensorSeries.unit(2, 3), -1.0), ValueError,
                                "tol -1.0"),
    "concatenate-nan-tol": (lambda: concatenate_with(nan), ValueError, "tol nan"),
    "concatenate-negative-tol": (lambda: concatenate_with(-1e-10), ValueError, "tol -1e-10"),
    # Start values y0 have shape (e,) and finite entries wherever they are
    # read, never raveled: a NaN start is a bad argument, not a failed solve.
    "solve-y0-2d": (lambda: solve(PLANE, WALK, [[0.1, 0.2]], 1.0, CONFIG), ValueError,
                    r"y0 has shape \(1, 2\), expected \(2,\)"),
    "solve-y0-nan": (lambda: solve(PLANE, WALK, [nan, 0.2], 1.0, CONFIG), ValueError, "y0 must be finite"),
    "solve-local-y0-2d": (lambda: solve_local(PLANE, WALK, [[0.1, 0.2]], CONFIG), ValueError,
                          r"y0 has shape \(1, 2\), expected \(2,\)"),
    "solve-local-y0-nan": (lambda: solve_local(PLANE, WALK, [nan, 0.2], CONFIG), ValueError,
                           "y0 must be finite"),
    "initial-path-y0-2d": (lambda: canonical_initial_path([[0.1], [0.2]], PLANE, WALK), ValueError,
                           r"y0 has shape \(2, 1\), expected \(2,\)"),
    "initial-path-y0-nan": (lambda: canonical_initial_path([nan, 0.2], PLANE, WALK), ValueError,
                            "y0 must be finite"),
    "picard-y0-2d": (lambda: picard_step(PAIR, PLANE, WALK, [[1.0, 2.0]]), ValueError,
                     r"y0 has shape \(1, 2\), expected \(2,\)"),
    "integral-offset-2d": (lambda: integral_controlled(PAIR, WALK, [[1.0, 2.0]]), ValueError,
                           r"offset has shape \(1, 2\), expected \(2,\)"),
    # The increment of a segment is one vector.
    "exp-segment-2d": (lambda: exp_segment([[0.1, 0.2]], 3), ValueError,
                       r"increment v has shape \(1, 2\), expected \(n,\)"),
    # Field points: finite, of shape (P, dim_in) for a batch and (dim_in,) for one point.
    "lip-eval-points-nan": (lambda: LINE.eval(0, [[nan]]), ValueError, "points ys must be finite"),
    "lip-eval-levels-points-inf": (lambda: LINE.eval_levels(1, [[inf]]), ValueError,
                                   "points ys must be finite"),
    "lip-eval-at-scalar": (lambda: LINE.eval_at(0, 0.5), ValueError, r"point y has shape \(\), expected \(1,\)"),
    "taylor-x-nan": (lambda: taylor_remainder(LINE, 0, [nan], [0.1]), ValueError, "point x must be finite"),
    "taylor-y-inf": (lambda: taylor_remainder(LINE, 0, [0.0], [inf]), ValueError, "point y must be finite"),
    "taylor-x-2d": (lambda: taylor_remainder(LINE, 0, [[0.0]], [0.1]), ValueError,
                    r"point x has shape \(1, 1\), expected \(1,\)"),
    "taylor-y-long": (lambda: taylor_remainder(LINE, 0, [0.0], [0.1, 0.2]), ValueError,
                      r"point y has shape \(2,\), expected \(1,\)"),
    # Each end of a sampling box is one number or one per input coordinate,
    # and a declared bound is None or a number >= 0.
    "lip-check-box-lo-long": (lambda: lip_norm_check(LINE, [0.0, 0.0], 1.0), ValueError,
                              r"box lo has shape \(2,\), expected \(1,\)"),
    "lip-check-box-hi-2d": (lambda: lip_norm_check(LINE, 0.0, [[1.0]]), ValueError,
                            r"box hi has shape \(1, 1\), expected \(1,\)"),
    "lip-check-declared-nan": (lambda: lip_norm_check(LINE, 0.0, 1.0, nan), ValueError,
                               r"declared nan outside \[0, inf\)"),
    "lip-check-declared-negative": (lambda: lip_norm_check(LINE, 0.0, 1.0, -1.0), ValueError,
                                    r"declared -1.0 outside \[0, inf\)"),
    "lip-check-declared-inf": (lambda: lip_norm_check(LINE, 0.0, 1.0, inf), ValueError,
                               r"declared inf outside \[0, inf\)"),
    "lip-check-declared-minus-inf": (lambda: lip_norm_check(LINE, 0.0, 1.0, -inf), ValueError,
                                     r"declared -inf outside \[0, inf\)"),
    # Each check names its own parameter.
    "level-holder-exponent-nan": (lambda: level_holder_norm(LIFT, 0, nan), ValueError,
                                  r"exponent nan outside \(0, 1\]"),
    "solve-horizon-nan": (lambda: solve(SCALAR, STRAIGHT, [1.0], nan, CONFIG), ValueError,
                          r"horizon nan outside \(-inf, inf\)"),
    "solve-horizon-inf": (lambda: solve(SCALAR, STRAIGHT, [1.0], inf, CONFIG), ValueError,
                          r"horizon inf outside \(-inf, inf\)"),
    "solve-horizon-minus-inf": (lambda: solve(SCALAR, STRAIGHT, [1.0], -inf, CONFIG), ValueError,
                                r"horizon -inf outside \(-inf, inf\)"),
    "continuity-horizon-nan": (lambda: continuity_probe(SCALAR, STRAIGHT, STRAIGHT, [1.0], [1.0], nan, CONFIG),
                               ValueError, r"horizon nan outside \(-inf, inf\)"),
    "continuity-horizon-inf": (lambda: continuity_probe(SCALAR, STRAIGHT, STRAIGHT, [1.0], [1.0], inf, CONFIG),
                               ValueError, r"horizon inf outside \(-inf, inf\)"),
    # Path arithmetic: an overflow fails the finiteness check of the result,
    # never escaping as a RuntimeWarning.
    "path-add-overflow": (lambda: path_add(path_scale(STRAIGHT_LIFT, 1e308), path_scale(STRAIGHT_LIFT, 1e308)),
                          controlled_path.NonFiniteLevelError, "level 0 block has non-finite entries"),
    "path-scale-overflow": (lambda: path_scale(path_scale(STRAIGHT_LIFT, 1e308), 1e308),
                            controlled_path.NonFiniteLevelError, "level 0 block has non-finite entries"),
}


@pytest.mark.parametrize("build, error, message", CASES.values(), ids=CASES.keys())
def test_library_boundary(build, error, message):
    with pytest.raises(error, match=message):
        build()


# The signature sweep.  One valid call per public callable of the library
# modules that has a parameter annotated ``int``: (target, valid arguments,
# largest valid value per integer, where there is one).  A call replaces one
# integer at a time with a bad value.  ``SolverConfig`` checks its budgets
# in ``validate``, so its call validates.
SWEEP = [
    (word_index, {"word": (1, 2), "d": 2}, {"d": 4}),
    (index_word, {"idx": 1, "r": 2, "d": 2}, {"idx": 3, "r": 5, "d": 4}),
    (level_words, {"d": 2, "r": 2}, {"d": 4, "r": 5}),
    (TensorSeries, {"d": 1, "N": 1, "levels": [[1.0], [0.0]]}, {"d": 4, "N": 5}),
    (TensorSeries.unit, {"d": 2, "N": 2}, {"d": 4, "N": 5}),
    (TensorSeries.from_word, {"word": (1,), "d": 2, "N": 2}, {"d": 4, "N": 5}),
    (SERIES.level, {"i": 1}, {"i": 3}),
    (SERIES.with_level, {"i": 1, "block": np.zeros(2)}, {"i": 3}),
    (exp_segment, {"v": [1.0], "N": 2}, {"N": 5}),
    (shuffle_product, {"u": (1,), "w": (2,), "n_max": 2}, {"n_max": 5}),
    (coproduct, {"xi": SERIES, "k": 2}, {"k": 6}),
    (symmetrize, {"block": np.zeros(4), "dim": 2, "k": 2}, {}),
    (admissible_norm, {"xi": SERIES, "i": 1}, {"i": 3}),
    (GeometricRoughPath, {"times": [0.0, 1.0], "d": 1, "N": 2, "beta": 0.4, "levels": rough().levels},
     {"d": 4, "N": 5}),
    (WALK.value, {"idx": 1}, {"idx": 8}),
    (lift_path, {"path": PiecewiseLinearPath([0.0, 1.0], [0.0, 1.0]), "N": 2}, {"N": 5}),
    (increment, {"X": WALK, "s_idx": 0, "t_idx": 4}, {"s_idx": 8, "t_idx": 8}),
    (restrict, {"X": WALK, "s_idx": 0, "t_idx": 4}, {"s_idx": 8, "t_idx": 8}),
    (holder_norm, {"X": WALK, "level": 1, "beta": 0.3}, {"level": 3}),
    (ControlledPath, {"times": LIFT.times, "d": 1, "N": 3, "dim_u": 1, "levels": LIFT.levels},
     {"d": 4, "N": 5}),
    (remainder_rows, {"Y": LIFT, "X": WALK, "i": 1, "s_idx": 0}, {"i": 2, "s_idx": 8}),
    (level_holder_norm, {"Y": LIFT, "i": 1, "exponent": 0.3}, {"i": 2}),
    (restrict_path, {"Y": LIFT, "s_idx": 0, "t_idx": 4}, {"s_idx": 8, "t_idx": 8}),
    (LipFunction, {"dim_in": 1, "dim_out": 1, "n_levels": 1, "evaluator": no_eval}, {}),
    (LINE.eval_levels, {"top": 1, "ys": [[0.0]]}, {"top": 2}),
    (LINE.eval, {"j": 1, "ys": [[0.0]]}, {"j": 2}),
    (LINE.eval_at, {"j": 1, "y": [0.0]}, {"j": 2}),
    (constant, {"value": [1.0], "dim_in": 1, "n_levels": 1}, {}),
    (linear, {"matrix": [[1.0]], "n_levels": 1}, {}),
    (identity, {"dim": 1, "n_levels": 1}, {}),
    (polynomial, {"dim_in": 1, "dim_out": 1, "coeffs": {(1,): [1.0]}, "n_levels": 1}, {}),
    (ridge, {"dim_in": 1, "dim_out": 1, "terms": [{"coef": [1.0], "kind": "sin", "weight": [0.5]}],
             "n_levels": 1}, {}),
    (from_config, {"spec": {"kind": "linear", "matrix": [[1.0]]}, "n_levels": 1}, {}),
    (taylor_remainder, {"F": LINE, "j": 1, "x": [0.0], "y": [1.0]}, {"j": 2}),
    (lip_norm_check, {"F": LINE, "lo": 0.0, "hi": 1.0, "sample_count": 4}, {}),
    (expansion_identity_check, {"y_blocks": [lvl[0] for lvl in LIFT.levels],
                                "x_inc": increment(WALK, 0, 4), "r": 1, "k": 1}, {"r": 2, "k": 2}),
    (remainder_regularity_probe, {"F": linear([[1.0]], n_levels=3), "Y": LIFT, "X": WALK, "r": 1,
                                  "alpha": 0.3}, {"r": 2}),
    (PART.remove, {"j": 1}, {"j": 2}),
    (dyadic_partition, {"s_idx": 0, "t_idx": 8, "depth": 2}, {}),
    (rough_integral.rough_integral, {"Z": LIFT, "X": WALK, "s_idx": 0, "t_idx": 8},
     {"s_idx": 8, "t_idx": 8}),
    (removal_identity_check, {"Z": LIFT, "X": WALK, "partition": PART, "j": 1}, {"j": 2}),
    (convergence_rate_probe, {"Z": LIFT, "X": WALK, "s_idx": 0, "t_idx": 8, "depths": [1, 2]},
     {"s_idx": 8, "t_idx": 8}),
    (tail_constant, {"N": 3, "alpha": 0.5}, {"N": 5}),
    (check_exponents, {"N": 3, "alpha": 0.29, "beta": 1 / 3}, {"N": 5}),
    (SolverConfig, {"alpha": 0.29, "beta": 1 / 3, "max_picard_iters": 5, "max_patches": 5}, {}),
    (SolverConfig(0.29, 1 / 3).validate, {"N": 3}, {"N": 5}),
]
# Result records: the library fills their fields in and reads none of them.
RECORDS = {PatchReport, SolveReport, RemainderProbe, LipReport, RateProbe, ContinuityProbe}
INTEGER, FLOAT = ("int",), ("float", "float | None")


def sweep_call(target, args):
    out = target(**args)
    return out.validate(3) if isinstance(out, SolverConfig) else out


def qualname(obj):
    obj = getattr(obj, "__func__", obj)
    return f"{obj.__module__}.{obj.__qualname__}"


def annotated(target, kinds):
    return [p.name for p in inspect.signature(target).parameters.values() if p.annotation in kinds]


def integer_params(target):
    return annotated(target, INTEGER)


def public_parameters(kinds):
    """(qualified name, parameter) of every parameter annotated as one of
    ``kinds`` of the public functions, classes and public methods of the
    library modules and of ``roughpaths.__all__``."""
    found = set()
    modules = (tensor_algebra, rough_path, controlled_path, lipschitz, rough_integral, rde_solver)
    names = [(m, n) for m in modules for n in vars(m)] + [(roughpaths, n) for n in roughpaths.__all__]
    for module, name in names:
        obj = getattr(module, name)
        if (name.startswith("_") or not callable(obj) or obj in RECORDS
                or (inspect.isclass(obj) and issubclass(obj, Exception))
                or not getattr(obj, "__module__", "").startswith("roughpaths.")):
            continue
        candidates = [obj]
        if inspect.isclass(obj):
            candidates += [getattr(obj, attr) for attr in vars(obj)
                           if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr))]
        found |= {(qualname(c), name) for c in candidates for name in annotated(c, kinds)}
    return found


def sweep_cases():
    for target, args, tops in SWEEP:
        for name in integer_params(target):
            bad = [True, 1.5, 2.0, -1] + ([tops[name] + 1] if name in tops else [])
            for value in bad:
                yield pytest.param(target, args, name, value, id=f"{qualname(target)}-{name}-{value!r}")


def assert_rejected(target, args, name, value):
    with pytest.raises((ValueError, IndexError)) as info:
        sweep_call(target, {**args, name: value})
    assert re.search(rf"\b{name}\b", str(info.value)), (name, value, str(info.value))


def test_sweep_covers_every_integer_parameter():
    assert {qualname(target) for target, _, _ in SWEEP} == {q for q, _ in public_parameters(INTEGER)}
    for target, args, tops in SWEEP:
        assert set(tops) <= set(integer_params(target)) <= set(args), qualname(target)


@pytest.mark.parametrize("target, args", [(t, a) for t, a, _ in SWEEP],
                         ids=[qualname(t) for t, _, _ in SWEEP])
def test_sweep_valid_calls_run(target, args):
    sweep_call(target, args)


@pytest.mark.parametrize("target, args, name, value", list(sweep_cases()))
def test_sweep_rejects_bad_integers(target, args, name, value):
    assert_rejected(target, args, name, value)


BAD_INTEGERS = st.one_of(
    st.booleans(), st.floats(), st.floats().map(np.float64), st.integers(max_value=-1),
    st.sampled_from([None, "2", np.bool_(True), np.float32(1.0)]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sweep_rejects_drawn_bad_integers(data):
    target, args, tops = data.draw(st.sampled_from(SWEEP))
    name = data.draw(st.sampled_from(integer_params(target)))
    above = [st.integers(min_value=tops[name] + 1)] if name in tops else []
    assert_rejected(target, args, name, data.draw(st.one_of(BAD_INTEGERS, *above)))


# The float sweep.  One valid call per public callable with a parameter
# annotated ``float`` or ``float | None``: (target, valid arguments, {name:
# (values past a finite end of its range, closed ends)}).  A call replaces one
# float at a time with NaN, -inf, a bool, each value past an end, and +inf
# unless +inf is a closed end; each closed end must run.
ALPHA = ([0.25, 1.5], [1.0])  # (1/(N+1), 1] at N = 3
BETA = ([0.0, 1.5], [1.0])  # (0, 1]
TOL = ([-1e-12], [0.0, inf])  # [0, inf]
ANY = ([], [])  # (-inf, inf)
JOIN = {"left": restrict_path(LIFT, 0, 4), "right": restrict_path(LIFT, 4, 8), "X": WALK}
SOLVE = {"F": SCALAR, "X": STRAIGHT, "y0": [1.0], "horizon": 0.25, "config": CONFIG}
FLOAT_SWEEP = [
    (TensorSeries.from_word, {"word": (1,), "d": 2, "N": 2}, {"coeff": ANY}),
    (is_group_like, {"xi": SERIES, "tol": 1e-9}, {"tol": TOL}),
    (GeometricRoughPath, {"times": [0.0, 1.0], "d": 1, "N": 2, "beta": 0.4, "levels": rough().levels},
     {"beta": BETA}),
    (lift_path, {"path": PiecewiseLinearPath([0.0, 1.0], [0.0, 1.0]), "N": 2}, {"beta": ([0.0, 1.5], [1.0, None])}),
    (holder_norm, {"X": WALK, "level": 1, "beta": 0.3}, {"beta": BETA}),
    (holder_distance, {"Xa": WALK, "Xb": WALK, "beta": 0.3}, {"beta": BETA}),
    (seminorm, {"Y": LIFT, "X": WALK, "alpha": 0.3}, {"alpha": ALPHA}),
    (prefix_seminorms, {"Y": LIFT, "X": WALK, "alpha": 0.3}, {"alpha": ALPHA}),
    (distance, {"Ya": LIFT, "Yb": LIFT, "Xa": WALK, "Xb": WALK, "alpha": 0.3}, {"alpha": ALPHA}),
    (triple_norm, {"Y": LIFT, "X": WALK, "alpha": 0.3}, {"alpha": ALPHA}),
    (level_holder_norm, {"Y": LIFT, "i": 1, "exponent": 0.3}, {"exponent": BETA}),
    (path_scale, {"Y": LIFT, "c": 2.0}, {"c": ANY}),
    (concatenate, JOIN, {"tol": TOL}),
    (lip_norm_check, {"F": LINE, "lo": 0.0, "hi": 1.0, "sample_count": 4}, {"declared": ([-1e-12], [0.0, None])}),
    (remainder_regularity_probe, {"F": linear([[1.0]], n_levels=3), "Y": LIFT, "X": WALK, "r": 1,
                                  "alpha": 0.3}, {"alpha": ALPHA}),
    (tail_constant, {"N": 3, "alpha": 0.5}, {"alpha": ALPHA}),
    (check_exponents, {"N": 3, "alpha": 0.29, "beta": 1 / 3},
     {"alpha": ([0.25, 1 / 3], []), "beta": ([0.25, 0.34], [1 / 3])}),
    (SolverConfig, {"alpha": 0.29, "beta": 1 / 3},
     {"alpha": ([0.25, 1 / 3], []), "beta": ([0.25, 0.34], [1 / 3]), "contraction_tol": ([0.0], []),
      "tau_init": ([0.0], []), "tau_shrink": ([0.0, 1.0], []), "explosion_bound": ([0.0], [inf])}),
    (grid_index, {"times": WALK.times, "t": 0.5}, {"t": ANY}),
    (solve, SOLVE, {"horizon": ANY}),
    (continuity_probe, {"F": SCALAR, "Xa": STRAIGHT, "Xb": STRAIGHT, "y0a": [1.0], "y0b": [1.5],
                        "horizon": 0.25, "config": CONFIG}, {"horizon": ANY}),
]


def float_cases():
    for target, args, ranges in FLOAT_SWEEP:
        for name, (past, ends) in ranges.items():
            for value in [nan, -inf, True, *past] + ([] if inf in ends else [inf]):
                yield pytest.param(target, args, name, value, id=f"{qualname(target)}-{name}-{value!r}")


def test_sweep_covers_every_float_parameter():
    swept = {(qualname(target), name) for target, _, ranges in FLOAT_SWEEP for name in ranges}
    assert swept == public_parameters(FLOAT)
    for target, args, _ in FLOAT_SWEEP:
        assert set(args) <= set(inspect.signature(target).parameters), qualname(target)


@pytest.mark.parametrize("target, args", [(t, a) for t, a, _ in FLOAT_SWEEP],
                         ids=[qualname(t) for t, _, _ in FLOAT_SWEEP])
def test_float_sweep_valid_calls_run(target, args):
    sweep_call(target, args)


@pytest.mark.parametrize("target, args, name, value", [
    pytest.param(target, args, name, value, id=f"{qualname(target)}-{name}-{value!r}")
    for target, args, ranges in FLOAT_SWEEP for name, (_, ends) in ranges.items() for value in ends])
def test_float_sweep_closed_ends_run(target, args, name, value):
    sweep_call(target, {**args, name: value})


@pytest.mark.parametrize("target, args, name, value", list(float_cases()))
def test_sweep_rejects_bad_floats(target, args, name, value):
    with pytest.raises(ValueError) as info:
        sweep_call(target, {**args, name: value})
    assert re.search(rf"\b{name}\b", str(info.value)), (name, value, str(info.value))
