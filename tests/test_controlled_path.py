import numpy as np
import pytest

from roughpaths.controlled_path import (
    ControlledPath,
    canonical_lift,
    concatenate,
    distance,
    level_holder_norm,
    path_add,
    path_scale,
    path_sub,
    prefix_seminorms,
    remainder_rows,
    restrict_path,
    seminorm,
    triple_norm,
    zero_remainder_path,
)
from roughpaths import controlled_path, rough_path
from roughpaths.controlled_path import (
    NonFiniteLevelError,
    _prefix_seminorms,
    _remainder_blocks,
    _remainder_plan,
)
from roughpaths.lipschitz import linear, remainder_regularity_probe
from roughpaths.oracle import distance_reference, seminorm_reference
from roughpaths.rough_path import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    _increments,
    group_like_deviation,
    holder_distance,
    holder_norm,
    lift_path,
    restrict,
)


def random_driver(rng, d, N, n_segments, horizon=1.0):
    times = np.linspace(0.0, horizon, n_segments + 1)
    points = rng.standard_normal((n_segments + 1, d))
    return lift_path(PiecewiseLinearPath(times, points), N)


# The exponent these tests measure at: the midpoint of (1/(N+1), beta) for
# N = 3 and beta = 1/3, the drivers of ``random_driver``.
ALPHA = 0.5 * (1.0 / 4 + 1.0 / 3)


def random_controlled(rng, X, dim_u):
    levels = [rng.standard_normal((X.n_points, dim_u, X.d**i)) for i in range(X.N)]
    return ControlledPath(X.times, X.d, X.N, dim_u, levels)


def test_constructor_validates_shapes():
    X = random_driver(np.random.default_rng(0), 2, 3, 4)
    with pytest.raises(ValueError):
        ControlledPath(X.times, 2, 3, 1, [np.zeros((5, 1, 1)), np.zeros((5, 1, 2)), np.zeros((5, 1, 3))])


def test_constructor_rejects_non_finite_levels():
    X = random_driver(np.random.default_rng(0), 2, 3, 4)
    for bad in (np.nan, np.inf, -np.inf):
        levels = [np.zeros((5, 1, 2**i)) for i in range(3)]
        levels[1][2, 0, 1] = bad
        with pytest.raises(NonFiniteLevelError, match="level 1"):
            ControlledPath(X.times, 2, 3, 1, levels)


def walk_driver(rng, d, N, P, step=0.3):
    times = np.linspace(0.0, 1.0, P)
    points = np.cumsum(step * rng.standard_normal((P, d)), axis=0)
    return lift_path(PiecewiseLinearPath(times, points), N)


def test_seminorm_matches_reference():
    # The block scan by Chen's relation against the pair-by-pair row scan
    # with its own increment and einsum pairing, over every d <= 4, N <= 5.
    rng = np.random.default_rng(40)
    for d in range(1, 5):
        for N in range(1, 6):
            alpha = (1.0 / (N + 1) + 0.6) / 2
            for P in (5, 17):
                X = walk_driver(rng, d, N, P)
                for e in (1, 2):
                    Y = random_controlled(rng, X, e)
                    ref = seminorm_reference(Y, X, alpha)
                    assert abs(seminorm(Y, X, alpha) - ref) <= 1e-13 * ref, (d, N, P, e)


def test_distance_matches_reference():
    # On one driver Y -> RY is linear: the distance of two paths is the
    # seminorm of their difference, the gap the solver measures.
    rng, rng_c = np.random.default_rng(41), np.random.default_rng(42)
    for d in range(1, 5):
        for N in range(1, 6):
            alpha = (1.0 / (N + 1) + 0.6) / 2
            for P in (5, 17):
                Xa, Xb = walk_driver(rng, d, N, P), walk_driver(rng, d, N, P)
                for e in (1, 2):
                    Ya = random_controlled(rng, Xa, e)
                    Yb = random_controlled(rng, Xb, e)
                    ref = distance_reference(Ya, Yb, Xa, Xb, alpha)
                    assert abs(distance(Ya, Yb, Xa, Xb, alpha) - ref) <= 1e-13 * ref, (d, N, P, e)
                    Yc = random_controlled(rng_c, Xa, e)
                    ref = distance_reference(Ya, Yc, Xa, Xa, alpha)
                    gap = seminorm(path_sub(Ya, Yc), Xa, alpha)
                    assert abs(gap - ref) <= 1e-13 * ref, (d, N, P, e)


def test_zero_remainder_roundoff_floor():
    # Every remainder of a zero-remainder path vanishes, so both scans read
    # their own roundoff: the block scan pairs levels with the running
    # signature X_{0,t} and its inverse, the reference with X_{s,t} directly.
    # Measured on this path: 7.1e-14 (block scan) and 5.3e-14 (reference).
    rng = np.random.default_rng(42)
    X = walk_driver(rng, 2, 4, 33)
    blocks = [rng.standard_normal((2, 2**i)) for i in range(4)]
    Y = zero_remainder_path(blocks, X)
    assert seminorm(Y, X, 0.24) < 5e-13
    assert seminorm_reference(Y, X, 0.24) < 5e-13


def test_large_amplitude_walk_matches_reference():
    # Steps of size 3 make the running signature X_{0,t} reach about 7e5, so
    # the block scan cancels terms far larger than the increments X_{s,t}
    # the reference pairs with.  The kernel still agrees with the reference,
    # and its zero-remainder floor stays within a small factor of the
    # reference's: 1.3e-9 against 5.2e-10 here, at most 2.8x seen over
    # d 1..3, N 3..5, P 65/129 and steps 0.3..10.  Both floors grow with the
    # size of the levels, about 1.3e4 on this path.
    rng = np.random.default_rng(44)
    Xa, Xb = walk_driver(rng, 2, 4, 65, step=3.0), walk_driver(rng, 2, 4, 65, step=3.0)
    Ya, Yb = random_controlled(rng, Xa, 2), random_controlled(rng, Xb, 2)
    ref = seminorm_reference(Ya, Xa, 0.24)
    assert abs(seminorm(Ya, Xa, 0.24) - ref) <= 1e-13 * ref
    ref = distance_reference(Ya, Yb, Xa, Xb, 0.24)
    assert abs(distance(Ya, Yb, Xa, Xb, 0.24) - ref) <= 1e-13 * ref
    Z = zero_remainder_path([rng.standard_normal((2, 2**i)) for i in range(4)], Xa)
    floor = seminorm_reference(Z, Xa, 0.24)
    assert 0.0 < floor < 1e-8
    assert seminorm(Z, Xa, 0.24) <= 4.0 * floor


def test_scans_do_not_depend_on_tiling(monkeypatch):
    # One pair per tile (so one start row per block), then the whole grid in
    # one tile: every pair is summed in the same order, so the maxima agree
    # bit for bit with the default budget.  One plan, kept or rebuilt on
    # every pass, reused across scans of several paths on one grid gives the
    # values of separate scans, and so does one scan of all the paths.
    rng = np.random.default_rng(43)
    cases = []
    for d, N, e in ((1, 3, 1), (2, 4, 2), (3, 5, 1), (4, 3, 2)):
        X, Xb = walk_driver(rng, d, N, 19), walk_driver(rng, d, N, 19)
        cases.append((X, Xb, random_controlled(rng, X, e), random_controlled(rng, Xb, e),
                      random_controlled(rng, X, e)))

    def scans():
        out = []
        for Xa, Xb, Ya, Yb, Yc in cases:
            plan = _remainder_plan(Xa, Ya.dim_u, 0.3)
            with monkeypatch.context() as patched:
                patched.setattr(rough_path, "_PLAN_BLOCKS", 0)
                rebuilt = _remainder_plan(Xa, Ya.dim_u, 0.3)
            assert not isinstance(rebuilt, tuple)
            streamed = [prefix_seminorms(Y, Xa, 0.3).tolist() for Y in (Ya, Yc, Ya)]
            for reused in (plan, rebuilt):
                assert [_prefix_seminorms([Y.levels], Xa, reused)[0].tolist() for Y in (Ya, Yc, Ya)] == streamed
            # One scan of several level lists gives each one's prefix seminorms.
            together = _remainder_plan(Xa, 3 * Ya.dim_u, 0.3)
            assert _prefix_seminorms([Ya.levels, Yc.levels, Ya.levels], Xa, together).tolist() == streamed
            # Every level of one driver Holder pass is that level's one-level
            # pass, and a plan rebuilt on every pass gives the same values.
            levels = range(1, Xa.N + 1)
            maxima = [rough_path._holder_maxima(Xa, other, 0.3, levels) for other in (None, Xb)]
            assert maxima == [[rough_path._holder_maxima(Xa, other, 0.3, [i])[0] for i in levels]
                              for other in (None, Xb)]
            with monkeypatch.context() as patched:
                patched.setattr(rough_path, "_PLAN_BLOCKS", 0)
                assert [rough_path._holder_maxima(Xa, other, 0.3, levels) for other in (None, Xb)] == maxima
            out.append((seminorm(Ya, Xa, 0.3), distance(Ya, Yb, Xa, Xb, 0.3), distance(Ya, Ya, Xa, Xa, 0.3),
                        [holder_norm(Xa, level, 0.3) for level in levels],
                        holder_distance(Xa, Xb, 0.3), maxima,
                        group_like_deviation(Xa),
                        # The maximum of every level per end point, and the prefix seminorms.
                        rough_path._scan_pairs(plan, _remainder_blocks(Ya.levels, Xa, range(Ya.N))).tolist(),
                        streamed))
        return out

    default = scans()
    for budget in (1, 10**9):
        monkeypatch.setattr(rough_path, "_PAIR_BLOCK", budget)
        assert scans() == default
    # The maxima hide last-bit changes away from the maximizing pair, so
    # compare every pair's remainder too: one start row against the grid.
    for Xa, _, Ya, _, _ in cases:
        P = Xa.n_points
        every = _remainder_blocks(Ya.levels, Xa, range(Ya.N))
        every_whole = every(slice(0, P - 1), slice(1, P))
        for i in range(Ya.N):
            block = _remainder_blocks(Ya.levels, Xa, [i])
            whole = block(slice(0, P - 1), slice(1, P))[0]
            for s in range(P - 1):
                assert np.array_equal(block(slice(s, s + 1), slice(s + 1, P))[0][0], whole[s, s:])
                assert np.array_equal(block(slice(s, s + 1), slice(P - 1, P))[0][0, 0], whole[s, -1])
                # remainder_rows reads the same all-rows maps, one start row.
                own = remainder_rows(Ya, Xa, i, s)[1:].reshape(P - 1 - s, -1)
                assert np.array_equal(own, whole[s, s:])
                # One pass over every level gives each level's one-level values.
                row = every(slice(s, s + 1), slice(s + 1, P))[i][0]
                assert np.array_equal(row, whole[s, s:])
                assert np.array_equal(every_whole[i][s, s:], whole[s, s:])


def test_prefix_seminorms_are_seminorms_of_the_prefixes():
    # Entry j is the seminorm of the path restricted to grid indices 0..j on
    # the re-based driver, over every d <= 4, N <= 5; the last is the seminorm.
    rng = np.random.default_rng(45)
    for d in range(1, 5):
        for N in range(1, 6):
            X = walk_driver(rng, d, N, 9 if d**N > 64 else 17)
            Y = random_controlled(rng, X, 2)
            alpha = 0.5 * (1.0 / (N + 1) + 1.0 / N)
            prefixes = prefix_seminorms(Y, X, alpha)
            assert prefixes[0] == 0.0 and (np.diff(prefixes) >= 0).all()
            assert prefixes[-1] == seminorm(Y, X, alpha)
            for j in range(1, X.n_points):
                want = seminorm(restrict_path(Y, 0, j), restrict(X, 0, j), alpha)
                assert abs(prefixes[j] - want) <= 1e-13 * want, (d, N, j)


def test_scan_keeps_a_nan_pair(monkeypatch):
    # RY^0 = Y^0_t - Y^0_s - Y^1_s X^1_{s,t} - Y^2_s X^2_{s,t} is inf - inf for
    # every pair; the oracle reads inf.  A NaN pair must not drop its tile.
    times = np.arange(5.0)
    X = lift_path(PiecewiseLinearPath(times, 10.0 * times), 3)
    Y = ControlledPath(X.times, 1, 3, 1, [np.zeros((5, 1, 1)), np.full((5, 1, 1), 1e308),
                                          np.full((5, 1, 1), -1e308)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(remainder_rows(Y, X, 0, 0)[1:]).all()
        assert seminorm_reference(Y, X, 0.3) == np.inf
        assert not np.isfinite(seminorm(Y, X, 0.3))
    # One pair per tile on three points: a NaN pair before, between and after
    # finite and infinite ones propagates; finite pairs keep their maximum.
    monkeypatch.setattr(rough_path, "_PAIR_BLOCK", 1)
    for values in ((np.nan, 1.0, np.inf), (1.0, np.nan, np.inf), (np.inf, 1.0, np.nan),
                   (1.0, 3.0, 2.0)):
        pairs = dict(zip(((0, 1), (0, 2), (1, 2)), values))
        ends = rough_path._scan_pairs(
            rough_path._pair_plan(np.arange(3.0), 1, [0.0]),
            lambda rows, cols: [np.full((1, 1, 1), pairs[rows.start, cols.start])])
        assert np.isnan(ends.max()) if np.isnan(values).any() else ends.max(axis=1).tolist() == [3.0]
        # Each end point keeps the maximum over its own start rows, NaN included.
        expect = [0.0, pairs[0, 1], np.max([pairs[0, 2], pairs[1, 2]])]
        np.testing.assert_array_equal(ends, [expect])


def test_one_scan_of_several_paths_matches_separate_scans(monkeypatch):
    # The closing pass of a solve: one scan gives the prefix seminorms of a
    # path and of its difference to another, bit for bit those of two
    # prefix_seminorms calls, over every d <= 4, N <= 5 and both target
    # dimensions.  Every tile's blocks, both paths together, stay within
    # _PAIR_BLOCK.
    rng = np.random.default_rng(47)
    real_scan = controlled_path._scan_pairs
    widths = []

    def bounded_scan(plan, block_fn, paths=1):
        def measured(rows, cols):
            blocks = block_fn(rows, cols)
            widths.append(sum(block.size for block in blocks))
            return blocks

        return real_scan(plan, measured, paths)

    monkeypatch.setattr(controlled_path, "_scan_pairs", bounded_scan)
    for budget in (rough_path._PAIR_BLOCK, 64):
        monkeypatch.setattr(rough_path, "_PAIR_BLOCK", budget)
        for d in range(1, 5):
            for N in range(1, 6):
                X = walk_driver(rng, d, N, 9 if d**N > 64 else 17)
                alpha = 0.5 * (1.0 / (N + 1) + 1.0 / N)
                for e in (1, 2):
                    Y, W = random_controlled(rng, X, e), random_controlled(rng, X, e)
                    gap = path_sub(Y, W)
                    want = [prefix_seminorms(Y, X, alpha), prefix_seminorms(gap, X, alpha)]
                    assert [row[-1] for row in want] == [seminorm(Y, X, alpha), seminorm(gap, X, alpha)]
                    widths.clear()
                    got = _prefix_seminorms([Y.levels, gap.levels], X, _remainder_plan(X, 2 * e, alpha))
                    assert got.tobytes() == np.array(want).tobytes(), (d, N, e)
                    assert widths and max(widths) <= max(budget, 2 * e * sum(d**i for i in range(N)))


def test_one_scan_of_several_paths_keeps_a_nan_to_its_path():
    # A NaN pair in one path of the shared scan reaches that path's value
    # only, in either position; the other path keeps its own seminorm.
    rng = np.random.default_rng(48)
    X = walk_driver(rng, 2, 3, 17)
    Y, W = random_controlled(rng, X, 2), random_controlled(rng, X, 2)
    broken = [level.copy() for level in W.levels]
    broken[1][7, 1, 0] = np.nan
    plan = _remainder_plan(X, 4, 0.3)
    first = _prefix_seminorms([broken, Y.levels], X, plan)[:, -1]
    second = _prefix_seminorms([Y.levels, broken], X, plan)[:, -1]
    assert np.isnan(first[0]) and np.isnan(second[1])
    assert first[1] == second[0] == seminorm(Y, X, 0.3)


def test_path_arithmetic_rejects_other_depth_or_dimension():
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 1.0, 9)
    path = PiecewiseLinearPath(times, rng.standard_normal((9, 2)))
    Y3, Y2 = canonical_lift(lift_path(path, 3)), canonical_lift(lift_path(path, 2))
    Yd1 = random_controlled(rng, lift_path(PiecewiseLinearPath(times, times), 3), 2)
    Yd2 = random_controlled(rng, lift_path(path, 3), 2)
    for pair in ((Y2, Y3), (Y3, Y2), (Yd2, Yd1), (Yd1, Yd2)):
        for op in (path_add, path_sub):
            with pytest.raises(ValueError, match=r"\(d, N\)"):
                op(*pair)


def test_pair_tiles_stay_within_budget():
    # Pure arithmetic on the tile plan at the caps corner d=4, N=5, e=4,
    # P=65: every remainder and increment width, no pair block allocated.
    # The scan plan's gap powers, one (R, T) block per exponent, stay within
    # the budget too, for one level and for every level of a seminorm.
    P, d, N, e = 65, 4, 5, 4
    times = np.cumsum(np.random.default_rng(44).uniform(0.5, 1.5, P))
    scans = ([(e * d**i, [0.3]) for i in range(N)] + [(d**level, [0.3]) for level in range(1, N + 1)]
             + [(e * sum(d**i for i in range(N)), [(N - i) * 0.3 for i in range(N)])])
    everything = {(s, t) for s in range(P) for t in range(s + 1, P)}
    for width, exponents in scans:
        seen = []
        tiles = list(rough_path._pair_tiles(P, width))
        plan = list(rough_path._pair_plan(times, width, exponents))
        assert plan[0] == (len(exponents), P) and len(plan) == len(tiles) + 1
        for (rows, cols, keep), (rows_p, cols_p, drop, powers) in zip(tiles, plan[1:]):
            assert (rows.stop - rows.start) * (cols.stop - cols.start) * width <= rough_path._PAIR_BLOCK
            later = np.arange(cols.start, cols.stop) > np.arange(rows.start, rows.stop)[:, None]
            assert later[keep].all() and later[keep].size == later.sum()
            seen += [(s, t) for s in range(rows.start, rows.stop)
                     for t in range(cols.start, cols.stop) if t > s]
            # The plan's tile: the same pairs, masked pairs raised to 1.
            assert (rows_p, cols_p) == (rows, cols)
            assert powers.shape == (len(exponents),) + later.shape
            assert powers.size <= rough_path._PAIR_BLOCK
            np.testing.assert_array_equal(later, True if drop is None else ~drop)
            gaps = times[cols] - times[rows, None]
            for power, exp in zip(powers, exponents):
                assert (power[~later] == 1.0).all()
                np.testing.assert_array_equal(power[later], gaps[later]**exp)
        assert len(seen) == len(everything) and set(seen) == everything


def test_plan_is_kept_only_within_budget(monkeypatch):
    # A plan keeps its tiles only when its gap powers fit _PLAN_BLOCKS pair
    # blocks, whatever the grid; past that it rebuilds them on every pass.
    # Kept or rebuilt, every pass gives the same tiles.  The bound reads P
    # and the exponents alone, so a large grid makes no tile before a pass.
    budget = rough_path._PLAN_BLOCKS * rough_path._PAIR_BLOCK
    for N in range(1, 6):
        exponents = [(N - i) * 0.3 for i in range(N)]
        for P in (2, 17, 65, 129, 257, 513):
            times = np.linspace(0.0, 1.0, P)
            plan = rough_path._pair_plan(times, 4 * N, exponents)
            assert isinstance(plan, tuple) == (N * P**2 <= budget)
            if isinstance(plan, tuple):
                assert sum(powers.size for *_, powers in plan[1:]) <= budget
                assert sum(powers.nbytes + (0 if drop is None else drop.nbytes)
                           for *_, drop, powers in plan[1:]) <= 9 * budget
            with monkeypatch.context() as patched:
                patched.setattr(rough_path, "_PLAN_BLOCKS", 0)
                rebuilt = rough_path._pair_plan(times, 4 * N, exponents)
            assert not isinstance(rebuilt, tuple)
            first = list(plan)
            for other in (list(plan), list(rebuilt), list(rebuilt)):
                assert other[0] == first[0] == (N, P) and len(other) == len(first)
                for mine, theirs in zip(first[1:], other[1:]):
                    assert mine[:2] == theirs[:2]
                    np.testing.assert_array_equal(mine[2], theirs[2])
                    np.testing.assert_array_equal(mine[3], theirs[3])
    # The README solve's local drivers (P = 129, N = 3) keep their plans.
    assert isinstance(rough_path._pair_plan(np.linspace(0.0, 1.0, 129), 3, [0.9, 0.6, 0.3]), tuple)

    def no_tiles(*args):
        raise AssertionError("no tile may be built before a pass")

    monkeypatch.setattr(rough_path, "_pair_tiles", no_tiles)
    for P in (4097, 8193, 10**6):
        plan = rough_path._pair_plan(np.linspace(0.0, 1.0, P), 3, [0.9, 0.6, 0.3])
        assert not isinstance(plan, tuple)
        passes = iter(plan)
        assert next(passes) == (3, P)
        with pytest.raises(AssertionError, match="no tile"):
            next(passes)


def test_one_plan_past_the_budget_serves_every_scan_of_an_attempt(monkeypatch):
    # A local attempt whose grid is past the budget scans its residuals and
    # its ball distance over one plan that rebuilds its tiles on every pass:
    # each pass gives the bytes of the same scan over a kept plan.
    rng = np.random.default_rng(49)
    X = walk_driver(rng, 2, 3, 17)
    paths = [random_controlled(rng, X, 2).levels for _ in range(3)]
    kept = _remainder_plan(X, 2, 0.3)
    monkeypatch.setattr(rough_path, "_PLAN_BLOCKS", 0)
    rebuilt = _remainder_plan(X, 2, 0.3)
    assert isinstance(kept, tuple) and not isinstance(rebuilt, tuple)
    for levels in paths + paths:
        assert (_prefix_seminorms([levels], X, rebuilt).tobytes()
                == _prefix_seminorms([levels], X, kept).tobytes())


def test_canonical_lift_remainders_vanish():
    rng = np.random.default_rng(1)
    path = PiecewiseLinearPath(np.linspace(0, 1, 7), rng.standard_normal((7, 2)))
    X = lift_path(path, 3)
    Y = canonical_lift(X)
    for i in range(3):
        for s in range(7):
            rows = remainder_rows(Y, X, i, s)
            assert np.max(np.abs(rows)) < 1e-13
    # Independent check: the level-0 remainder telescopes polyline increments.
    for s in range(6):
        for t in range(s, 7):
            direct = (path.points[t] - path.points[s]) - (path.points[t] - path.points[s])
            assert np.allclose(remainder_rows(Y, X, 0, s)[t - s][:, 0], direct, atol=1e-13)
    assert seminorm(Y, X, ALPHA) < 1e-12


def test_constant_path_zero_remainder():
    X = random_driver(np.random.default_rng(2), 2, 3, 5)
    levels = [np.ones((6, 1, 1)), np.zeros((6, 1, 2)), np.zeros((6, 1, 4))]
    Y = ControlledPath(X.times, 2, 3, 1, levels)
    for i in range(3):
        assert np.max(np.abs(remainder_rows(Y, X, i, 0))) == 0.0
    assert seminorm(Y, X, 0.3) == 0.0


def test_top_level_remainder_is_plain_increment():
    rng = np.random.default_rng(3)
    X = random_driver(rng, 2, 3, 4)
    Y = random_controlled(rng, X, 2)
    s, t = 1, 3
    top = remainder_rows(Y, X, 2, s)[t - s]
    assert np.allclose(top, Y.levels[2][t] - Y.levels[2][s])


def test_remainder_level_out_of_range():
    rng = np.random.default_rng(4)
    X = random_driver(rng, 2, 3, 4)
    Y = random_controlled(rng, X, 1)
    with pytest.raises(ValueError):
        remainder_rows(Y, X, 3, 0)


def test_seminorm_zero_path():
    X = random_driver(np.random.default_rng(5), 2, 3, 4)
    Y = ControlledPath(X.times, 2, 3, 1, [np.zeros((5, 1, 2**i)) for i in range(3)])
    assert seminorm(Y, X, 0.3) == 0.0
    assert triple_norm(Y, X, 0.3) == 0.0


def test_distance_pseudometric():
    rng = np.random.default_rng(6)
    X = random_driver(rng, 2, 3, 5)
    Ya, Yb, Yc = (random_controlled(rng, X, 2) for _ in range(3))
    assert distance(Ya, Ya, X, X, ALPHA) == 0.0
    assert distance(Ya, Yb, X, X, ALPHA) == distance(Yb, Ya, X, X, ALPHA)
    dab = distance(Ya, Yb, X, X, ALPHA)
    dbc = distance(Yb, Yc, X, X, ALPHA)
    dac = distance(Ya, Yc, X, X, ALPHA)
    assert dac <= dab + dbc + 1e-12
    zero = ControlledPath(X.times, 2, 3, 2, [np.zeros_like(l) for l in Ya.levels])
    assert distance(Ya, zero, X, X, ALPHA) == pytest.approx(seminorm(Ya, X, ALPHA))


@pytest.mark.parametrize("alpha", [np.nan, 0.25, 1.5], ids=["nan", "below", "above"])
def test_norms_reject_alpha_outside_range(alpha):
    # At N = 3 alpha must lie in (1/4, 1].  Every measure checks it before
    # scanning: the running maximum of a scan drops NaN ratios, so a NaN
    # exponent would read 0.0.
    rng = np.random.default_rng(15)
    X = random_driver(rng, 2, 3, 8)
    Ya, Yb = random_controlled(rng, X, 2), random_controlled(rng, X, 2)
    F = linear(rng.standard_normal((2, 2)), n_levels=3)
    measures = (lambda: seminorm(Ya, X, alpha), lambda: triple_norm(Ya, X, alpha),
                lambda: distance(Ya, Yb, X, X, alpha),
                lambda: remainder_regularity_probe(F, Ya, X, 1, alpha))
    for measure in measures:
        with pytest.raises(ValueError, match=r"alpha .* outside \(0.25, 1\]"):
            measure()


def test_distance_rejects_paths_of_other_depth():
    # Canonical lifts of one path at N = 3 and N = 2: each is a valid pair
    # with its own driver, but the two cannot be compared level by level.
    rng = np.random.default_rng(16)
    path = PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), rng.standard_normal((9, 2)))
    X3, X2 = lift_path(path, 3), lift_path(path, 2)
    Y3, Y2 = canonical_lift(X3), canonical_lift(X2)
    for args in ((Y3, Y2, X3, X2), (Y2, Y3, X2, X3)):
        with pytest.raises(ValueError, match=r"\(d, N\)"):
            distance(*args, 0.4)


def test_triple_norm_homogeneity():
    rng = np.random.default_rng(7)
    X = random_driver(rng, 2, 3, 4)
    Y = random_controlled(rng, X, 1)
    base = triple_norm(Y, X, ALPHA)
    assert triple_norm(path_scale(Y, -2.5), X, ALPHA) == pytest.approx(2.5 * base)


def test_completeness_proxy_linear_decay():
    rng = np.random.default_rng(8)
    X = random_driver(rng, 2, 3, 4)
    Y = random_controlled(rng, X, 1)
    Z = random_controlled(rng, X, 1)
    base = triple_norm(Z, X, ALPHA)
    for n in range(1, 6):
        Yn = path_add(Y, path_scale(Z, 2.0**-n))
        assert triple_norm(path_sub(Yn, Y), X, ALPHA) == pytest.approx(2.0**-n * base, rel=1e-12)


def test_canonical_seminorm_ignores_top_driver_level():
    rng = np.random.default_rng(9)
    X = random_driver(rng, 2, 3, 5)
    Y = canonical_lift(X)
    levels = [arr.copy() for arr in X.levels]
    levels[3] = levels[3] + rng.standard_normal(levels[3].shape)
    X_perturbed = GeometricRoughPath(X.times, X.d, X.N, X.beta, levels)
    assert seminorm(Y, X_perturbed, ALPHA) == seminorm(Y, X, ALPHA)


def test_cross_interval_remainder_identity():
    # RY^k_{s,t} = RY^k_{u,t} + sum_j RY^j_{s,u} X^{j-k}_{u,t} for any levels.
    rng = np.random.default_rng(10)
    X = random_driver(rng, 2, 3, 8)
    Y = random_controlled(rng, X, 2)
    scale = max(np.max(np.abs(l)) for l in Y.levels)
    for s, u, t in [(0, 3, 7), (1, 4, 6), (2, 5, 8)]:
        xrows = _increments(X, u, slice(None), X.N)
        for k in range(Y.N):
            lhs = remainder_rows(Y, X, k, s)[t - s]
            rhs = remainder_rows(Y, X, k, u)[t - u]
            for j in range(k, Y.N):
                block = remainder_rows(Y, X, j, s)[u - s]
                cube = block.reshape(Y.dim_u, X.d ** (j - k), X.d**k)
                rhs = rhs + np.einsum("ejk,j->ek", cube, xrows[j - k][t])
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, scale))


def test_concatenate_roundtrip_and_trivial_left():
    rng = np.random.default_rng(11)
    X = random_driver(rng, 2, 3, 6)
    Y = random_controlled(rng, X, 2)
    left = restrict_path(Y, 0, 3)
    right = restrict_path(Y, 3, 6)
    back = concatenate(left, right, X)
    for a, b in zip(back.levels, Y.levels):
        assert np.array_equal(a, b)
    # Single-point left piece: the joined path is just the right piece.
    point = ControlledPath(Y.times[:1], Y.d, Y.N, Y.dim_u,
                           [lvl[:1] for lvl in Y.levels])
    same = concatenate(point, Y, X)
    for a, b in zip(same.levels, Y.levels):
        assert np.array_equal(a, b)


def test_concatenate_rejects_mismatch():
    rng = np.random.default_rng(12)
    X = random_driver(rng, 2, 3, 6)
    Y = random_controlled(rng, X, 2)
    left = restrict_path(Y, 0, 3)
    shifted = restrict_path(Y, 3, 6).replace_levels(
        [lvl + 1e-6 for lvl in restrict_path(Y, 3, 6).levels])
    with pytest.raises(ValueError):
        concatenate(left, shifted, X)


def test_zero_remainder_paths_concatenate_cleanly():
    # Two zero-remainder pieces over adjacent intervals with matching data:
    # remainders stay identically zero across the junction.
    from roughpaths.rough_path import restrict

    rng = np.random.default_rng(14)
    X = random_driver(rng, 2, 3, 8)
    blocks = [rng.standard_normal((2, 2**i)) for i in range(3)]
    left = zero_remainder_path(blocks, restrict(X, 0, 4))
    end_blocks = [left.levels[i][-1] for i in range(3)]
    right = zero_remainder_path(end_blocks, restrict(X, 4, 8))
    glued = concatenate(left, right, X)
    for i in range(3):
        for s in range(8):
            assert np.max(np.abs(remainder_rows(glued, X, i, s))) < 1e-12
    assert seminorm(glued, X, 0.3) < 1e-11


def test_level_holder_norm_linear_path():
    w = np.array([1.5, -0.5])
    times = np.linspace(0.0, 1.0, 9)
    X = lift_path(PiecewiseLinearPath(times, np.outer(times, w)), 3)
    Y = canonical_lift(X)
    # |Y^0_{s,t}| = |w| (t-s); the ratio peaks at the full interval.
    assert level_holder_norm(Y, 0, 0.3) == pytest.approx(np.abs(w).sum())
    assert level_holder_norm(Y, 1, 0.3) == 0.0
    # Top level matches its own remainder seminorm (plain increments).
    assert level_holder_norm(Y, Y.N - 1, 0.3) == 0.0


def test_exports_parse():
    rng = np.random.default_rng(13)
    X = random_driver(rng, 2, 2, 3)
    Y = canonical_lift(X)
    blob = Y.to_json_dict()
    assert blob["dim_u"] == 2 and len(blob["levels"]) == 2
    csv_text = Y.level0_csv()
    assert csv_text.splitlines()[0] == "t,y1,y2"
    assert len(csv_text.splitlines()) == 1 + Y.n_points
