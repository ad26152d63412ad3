import io

import numpy as np
import pytest

from roughpaths.controlled_path import canonical_lift, level_holder_norm
from roughpaths.rough_path import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    _holder_maxima,
    _increments,
    chen_deviation,
    group_like_deviation,
    holder_distance,
    holder_norm,
    increment,
    lift_path,
    restrict,
)
from roughpaths.oracle import holder_maxima
from roughpaths.tensor_algebra import (
    TensorSeries,
    exp_segment,
    group_inverse,
    is_group_like,
    tensor_mul,
)


def random_path(rng, d, n_segments, horizon=1.0):
    times = np.sort(rng.uniform(0.0, horizon, n_segments - 1))
    times = np.concatenate([[0.0], times, [horizon]])
    while np.any(np.diff(times) <= 1e-9):
        times = np.sort(rng.uniform(0.0, horizon, n_segments - 1))
        times = np.concatenate([[0.0], times, [horizon]])
    points = rng.standard_normal((n_segments + 1, d))
    return PiecewiseLinearPath(times, points)


def test_path_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearPath([0.0, 0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PiecewiseLinearPath([0.0, 1.0], np.zeros((3, 2)))


@pytest.mark.parametrize("times, points", [
    ([0.0, np.nan, 1.0], np.zeros((3, 1))),
    ([0.0, 0.5, np.inf], np.zeros((3, 1))),
    ([0.0, 0.5, 1.0], [[0.0], [np.inf], [1.0]]),
    ([0.0, 0.5, 1.0], [[0.0], [-np.inf], [np.nan]]),
])
def test_path_rejects_non_finite(times, points):
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearPath(times, points)


def test_lift_constructor_rejects_non_finite():
    X = lift_path(PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.5]]), 2)
    for bad in (np.nan, np.inf):
        levels = [lvl.copy() for lvl in X.levels]
        levels[2][1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GeometricRoughPath(X.times, 1, 2, 0.4, levels)
    with pytest.raises(ValueError, match="finite"):
        GeometricRoughPath([0.0, np.nan, 1.0], 1, 2, 0.4, X.levels)


def test_csv_roundtrip():
    p = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0, 1.0], [2.0, -1.0], [3.0, 0.25]])
    q = PiecewiseLinearPath.from_csv(io.StringIO(p.to_csv()))
    assert np.allclose(p.times, q.times)
    assert np.allclose(p.points, q.points)


def test_csv_rejects_missing_column():
    bad = "t,x1\n0.0\n1.0,2.0\n"
    with pytest.raises(ValueError):
        PiecewiseLinearPath.from_csv(io.StringIO(bad))


def test_lift_single_segment():
    p = PiecewiseLinearPath([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
    X = lift_path(p, 2)
    end = X.value(1)
    assert np.allclose(end.level(1), [1.0, 0.0])
    expected2 = np.zeros(4)
    expected2[0] = 0.5  # e1 (x) e1 / 2
    assert np.allclose(end.level(2), expected2)


def test_lift_constant_path_is_unit():
    p = PiecewiseLinearPath([0.0, 0.3, 1.0], np.ones((3, 2)))
    X = lift_path(p, 3)
    for idx in range(3):
        g = X.value(idx)
        assert np.allclose(g.level(0), [1.0])
        for r in range(1, 4):
            assert np.allclose(g.level(r), 0.0)


def test_lift_two_segment_level_two():
    # Chen product of exp(e1) and exp(e2): level 2 is (e1e1 + e2e2)/2 + e1e2.
    p = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    X = lift_path(p, 2)
    lvl2 = X.value(2).level(2).reshape(2, 2)
    expected = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert np.allclose(lvl2, expected, atol=1e-15)


def test_lift_equals_running_segment_products():
    # The level-by-level lift reproduces the running product of one-segment
    # signatures bit for bit, on short and long grids.
    rng = np.random.default_rng(9)
    for d, N, segments in [(1, 3, 6), (2, 4, 6), (3, 5, 6), (4, 2, 6), (2, 4, 128), (4, 5, 128)]:
        p = random_path(rng, d, segments)
        X = lift_path(p, N)
        g = TensorSeries.unit(d, N)
        for i in range(1, p.times.size):
            g = tensor_mul(g, exp_segment(p.points[i] - p.points[i - 1], N))
            for r in range(N + 1):
                assert np.array_equal(X.levels[r][i], g.levels[r])


def test_increment_identity_and_endpoint():
    rng = np.random.default_rng(0)
    p = random_path(rng, 2, 5)
    X = lift_path(p, 3)
    unit = TensorSeries.unit(2, 3)
    ii = increment(X, 2, 2)
    for r in range(4):
        assert np.allclose(ii.level(r), unit.level(r))
    full = increment(X, 0, 5)
    end = X.value(5)
    for r in range(4):
        assert np.allclose(full.level(r), end.level(r), atol=1e-13)
    with pytest.raises(IndexError):
        increment(X, 0, 6)
    with pytest.raises(ValueError):
        increment(X, 3, 1)


def test_chen_on_random_paths():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        p = random_path(rng, d, int(rng.integers(2, 12)))
        X = lift_path(p, N)
        assert chen_deviation(X) <= 1e-12 * max(1.0, X.value(X.n_points - 1).max_abs())


def test_scans_propagate_nan_increments():
    # The raw constructor takes these finite levels, but their increments
    # overflow: X_{1,0} level 2 is inf and X_{1,1} level 2 is NaN.  A NaN
    # increment must not drop out of the maxima.
    X = GeometricRoughPath([0.0, 1.0], 1, 2, 0.5,
                           [np.ones((2, 1)), [[0.0], [1e200]], [[0.0], [1e300]]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(chen_deviation(X))
        assert not group_like_deviation(X) <= 1e-10


@pytest.mark.parametrize("N", [0, 6, -1, True, 2.0, 2.5, "3", None])
def test_lift_rejects_level_outside_caps(N):
    path = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.5]])
    with pytest.raises(ValueError, match="level"):
        lift_path(path, N)


def test_lift_rejects_dimension_over_cap():
    with pytest.raises(ValueError, match="dimension"):
        lift_path(PiecewiseLinearPath([0.0, 1.0], np.zeros((2, 5))), 2)
    assert lift_path(PiecewiseLinearPath([0.0, 1.0], np.zeros((2, 4))), np.int64(2)).N == 2


@pytest.mark.parametrize("idx", [0.5, 1.0, True, np.float64(2.0), "1", None])
def test_grid_index_must_be_an_integer(idx):
    X = lift_path(PiecewiseLinearPath([0.0, 0.5, 1.0, 1.5], np.arange(8.0).reshape(4, 2)), 2)
    with pytest.raises(IndexError, match="grid index s_idx .* outside 0..3"):
        increment(X, idx, 3)
    with pytest.raises(IndexError, match="grid index t_idx .* outside 0..3"):
        increment(X, 0, idx)
    with pytest.raises(IndexError, match="grid index s_idx .* outside 0..3"):
        restrict(X, idx, 3)
    with pytest.raises(IndexError, match="grid index idx .* outside 0..3"):
        X.value(idx)
    assert increment(X, np.int64(1), 3).coeff((1,)) == 4.0


def test_increments_row_matches_pointwise():
    rng = np.random.default_rng(2)
    p = random_path(rng, 2, 6)
    X = lift_path(p, 3)
    rows = _increments(X, 2, slice(None), X.N)
    for t in range(2, 7):
        inc = increment(X, 2, t)
        for r in range(4):
            assert np.allclose(rows[r][t], inc.level(r), atol=1e-13)


def test_all_increments_group_like():
    rng = np.random.default_rng(3)
    p = random_path(rng, 2, 4)
    X = lift_path(p, 3)
    assert group_like_deviation(X) <= 1e-12 * max(1.0, X.value(4).max_abs()) ** 3


@pytest.mark.parametrize("d, N, P", [(2, 3, 5), (3, 4, 6)])
def test_group_like_deviation_matches_pairwise_checks(d, N, P):
    # The row-batched scan returns exactly the worst single-increment check.
    X = lift_path(random_path(np.random.default_rng(12), d, P - 1), N)
    pairwise = max(is_group_like(increment(X, s, t), 1e-10)[1]
                   for s in range(P) for t in range(s + 1, P))
    assert group_like_deviation(X) == pairwise
    assert pairwise > 0.0


def test_reparametrization_invariance_of_endpoint():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((6, 2))
    p1 = PiecewiseLinearPath(np.linspace(0, 1, 6), pts)
    p2 = PiecewiseLinearPath(np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 1.0, 5)])), pts)
    X1 = lift_path(p1, 3)
    X2 = lift_path(p2, 3)
    a, b = X1.value(5), X2.value(5)
    for r in range(4):
        assert np.allclose(a.level(r), b.level(r), atol=1e-12)


def test_holder_norm_linear_path():
    w = np.array([2.0, -1.0])
    times = np.linspace(0.0, 1.0, 9)
    p = PiecewiseLinearPath(times, np.outer(times, w))
    X = lift_path(p, 2)
    beta = 0.4
    # |w| (t-s)^(1-beta) is maximized at (0, 1) for a linear path on [0, 1].
    assert holder_norm(X, 1, beta) == pytest.approx(np.abs(w).sum())
    # level 2 is w (x) w (t-s)^2 / 2; ratio peaks at (0, 1) when beta <= 1/2.
    assert holder_norm(X, 2, beta) == pytest.approx(np.abs(np.outer(w, w)).sum() / 2.0)


def test_holder_norm_constant_path():
    p = PiecewiseLinearPath([0.0, 1.0, 2.0], np.zeros((3, 2)))
    X = lift_path(p, 2)
    assert holder_norm(X, 1, 0.5) == 0.0
    assert holder_norm(X, 2, 0.5) == 0.0


def test_holder_norm_monotone_under_refinement():
    rng = np.random.default_rng(5)
    p = random_path(rng, 2, 6)
    X = lift_path(p, 2)
    Xr = lift_path(p.refine_midpoints(), 2)
    for i in (1, 2):
        assert holder_norm(Xr, i, 0.45) >= holder_norm(X, i, 0.45) - 1e-13


@pytest.mark.parametrize("beta", [np.nan, 0.0, 1.5], ids=["nan", "below", "above"])
def test_holder_scans_reject_beta_outside_range(beta):
    rng = np.random.default_rng(16)
    times = np.linspace(0.0, 1.0, 9)
    Xa, Xb = (lift_path(PiecewiseLinearPath(times, rng.standard_normal((9, 2))), 3)
              for _ in range(2))
    with pytest.raises(ValueError, match=r"beta .* outside \(0, 1\]"):
        holder_distance(Xa, Xb, beta)
    with pytest.raises(ValueError, match=r"beta .* outside \(0, 1\]"):
        holder_norm(Xa, 1, beta)
    with pytest.raises(ValueError, match=r"exponent .* outside \(0, 1\]"):
        level_holder_norm(canonical_lift(Xa), 0, beta)


def test_holder_distance_properties():
    rng = np.random.default_rng(6)
    times = np.linspace(0, 1, 7)
    pa = PiecewiseLinearPath(times, rng.standard_normal((7, 2)))
    pb = PiecewiseLinearPath(times, rng.standard_normal((7, 2)))
    Xa, Xb = lift_path(pa, 3), lift_path(pb, 3)
    assert holder_distance(Xa, Xa, 1 / 3) == 0.0
    assert holder_distance(Xa, Xb, 1 / 3) == pytest.approx(holder_distance(Xb, Xa, 1 / 3))
    # Distance to the unit path is the sum of the level norms, bit for bit.
    unit = lift_path(PiecewiseLinearPath(times, np.zeros((7, 2))), Xa.N, Xa.beta)
    assert holder_distance(Xa, unit, 1 / 3) == sum(holder_norm(Xa, i, 1 / 3) for i in range(1, Xa.N + 1))
    pc = PiecewiseLinearPath(np.linspace(0, 1, 5), rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        holder_distance(Xa, lift_path(pc, 3), 1 / 3)


def test_restrict_rebases_increments():
    rng = np.random.default_rng(7)
    p = random_path(rng, 2, 8)
    X = lift_path(p, 3)
    sub = restrict(X, 2, 6)
    assert sub.n_points == 5
    for m in range(5):
        expected = increment(X, 2, 2 + m)
        got = sub.value(m)
        for r in range(4):
            assert np.allclose(got.level(r), expected.level(r), atol=1e-13)
    # Chen consistency survives rebasing.
    assert chen_deviation(sub) < 1e-12 * max(1.0, sub.value(4).max_abs())


def test_step_increments_chain_to_endpoint():
    rng = np.random.default_rng(8)
    p = random_path(rng, 2, 5)
    X = lift_path(p, 2)
    acc = TensorSeries.unit(2, 2)
    for m in range(X.n_points - 1):
        acc = tensor_mul(acc, increment(X, m, m + 1))
    end = X.value(5)
    for r in range(3):
        assert np.allclose(acc.level(r), end.level(r), atol=1e-13)


def test_step_increments_are_cached_read_only():
    X = lift_path(random_path(np.random.default_rng(12), 3, 9), 4)
    a = np.arange(X.n_points)
    steps = X._step_increments()
    assert X._step_increments() is steps
    expected = _increments(X, a[:-1], a[1:], X.N)
    assert [lvl.shape for lvl in steps] == [lvl.shape for lvl in expected]
    assert [lvl.tobytes() for lvl in steps] == [lvl.tobytes() for lvl in expected]
    with pytest.raises(ValueError):
        steps[2][0, 0] = 1.0


def test_pair_scans_match_chained_oracle():
    # Every prefix of the driver, so the maxima sit at different grid pairs.
    rng = np.random.default_rng(9)
    pa = random_path(rng, 2, 11)
    pb = PiecewiseLinearPath(pa.times, rng.standard_normal(pa.points.shape))
    N, beta = 3, 1 / 3
    Xa, Xb = lift_path(pa, N, beta), lift_path(pb, N, beta)
    levels = range(1, N + 1)
    for end in range(1, Xa.n_points):
        sub_a, sub_b = restrict(Xa, 0, end), restrict(Xb, 0, end)
        prefix_a, prefix_b = (PiecewiseLinearPath(p.times[:end + 1], p.points[:end + 1])
                              for p in (pa, pb))
        unit = lift_path(PiecewiseLinearPath(prefix_a.times, np.zeros_like(prefix_a.points)), N)
        norms = holder_maxima(prefix_a, N, beta)
        assert _holder_maxima(sub_a, None, beta, levels) == pytest.approx(norms, rel=1e-12)
        for i in levels:
            assert holder_norm(sub_a, i, beta) == pytest.approx(norms[i - 1], rel=1e-12)
        # The distance to the constant path is the sum of the level norms, bit for bit.
        assert holder_distance(sub_a, unit, beta) == sum(holder_norm(sub_a, i, beta) for i in levels)
        dists = holder_maxima(prefix_a, N, beta, other=prefix_b)
        assert _holder_maxima(sub_a, sub_b, beta, levels) == pytest.approx(dists, rel=1e-12)
        assert holder_distance(sub_a, sub_b, beta) == pytest.approx(sum(dists), rel=1e-12)


def test_increments_rows_equal_pointwise_product():
    rng = np.random.default_rng(10)
    X = lift_path(random_path(rng, 2, 7), 3)
    for s in range(X.n_points):
        rows = _increments(X, s, slice(None), X.N)
        inv = group_inverse(X.value(s))
        for t in range(s, X.n_points):
            expected = tensor_mul(inv, X.value(t))
            for r in range(X.N + 1):
                assert np.array_equal(rows[r][t], expected.level(r))


def test_increment_batches_equal_pointwise_increment():
    # Index-array chains and (rows, None) x (None, cols) tiles give each
    # pair's increment bit for bit as the single increment does.
    X = lift_path(random_path(np.random.default_rng(11), 3, 9), 4)
    s, t = np.array([0, 2, 3, 7, 0]), np.array([1, 5, 9, 8, 9])
    chain = _increments(X, s, t, X.N)
    top = 2
    tile = _increments(X, (slice(1, 5), None), (None, slice(2, 10)), top)
    assert len(tile) == top + 1 and tile[top].shape == (4, 8, 9)
    for k in range(s.size):
        expected = increment(X, int(s[k]), int(t[k])).levels
        for r in range(X.N + 1):
            assert np.array_equal(chain[r][k], expected[r])
    for a in range(1, 5):
        for b in range(a + 1, 10):
            expected = increment(X, a, b).levels
            for r in range(top + 1):
                assert np.array_equal(tile[r][a - 1, b - 2], expected[r])
