from decimal import Decimal

import numpy as np
import pytest

from roughpaths.controlled_path import ControlledPath, _fill_leading, remainder_rows, seminorm
from roughpaths.oracle import compensated_sum_reference, riemann_stieltjes
from roughpaths.rough_integral import (
    Partition,
    _hurwitz_zeta2,
    _operator_slot_last,
    compensated_sum,
    convergence_rate_probe,
    dyadic_partition,
    integral_controlled,
    removal_identity_check,
    rough_integral,
    tail_constant,
)
from roughpaths.rough_path import PiecewiseLinearPath, lift_path
from roughpaths.tensor_algebra import word_index


def line_driver(N=2, n=16, T=1.0):
    times = np.linspace(0.0, T, n + 1)
    return lift_path(PiecewiseLinearPath(times, times[:, None]), N), times


def rough_driver(rng, d=2, N=3, n=64):
    times = np.linspace(0.0, 1.0, n + 1)
    pts = np.cumsum(rng.standard_normal((n + 1, d)) * 0.3, axis=0)
    return lift_path(PiecewiseLinearPath(times, pts), N)


def random_integrand(rng, X, e):
    levels = [rng.standard_normal((X.n_points, e * X.d, X.d**i)) for i in range(X.N)]
    return ControlledPath(X.times, X.d, X.N, e * X.d, levels)


def signature_integrand(X):
    # Z^0_t: v -> X^1_{0,t} (x) v, Z^1 the identity pairing; integrates to X^2.
    d = X.d
    e = d * d
    n = X.n_points
    z0 = np.zeros((n, e * d, 1))
    for a in range(d):
        for b in range(d):
            z0[:, (a * d + b) * d + b, 0] = X.levels[1][:, a]
    z1 = np.zeros((n, e * d, d))
    for a in range(d):
        for b in range(d):
            z1[:, (a * d + b) * d + b, a] = 1.0
    levels = [z0, z1] + [np.zeros((n, e * d, d**i)) for i in range(2, X.N)]
    return ControlledPath(X.times, d, X.N, e * d, levels)


def test_partition_validation_and_mesh():
    with pytest.raises(ValueError):
        Partition((3, 2))
    p = Partition((0, 2, 5))
    assert p.mesh(np.linspace(0, 1, 6)) == pytest.approx(0.6)
    assert p.remove(1).indices == (0, 5)
    with pytest.raises(ValueError):
        p.remove(2)
    # Numpy integers are grid indices too, stored as int.
    q = Partition(np.array([0, 3], dtype=np.int32))
    assert q.indices == (0, 3) and all(type(i) is int for i in q.indices)


def test_zero_integrand():
    X, _ = line_driver()
    Z = ControlledPath(X.times, 1, 2, 1, [np.zeros((17, 1, 1)), np.zeros((17, 1, 1))])
    val = compensated_sum(Z, X, Partition((0, 7, 16)))
    assert np.allclose(val, 0.0)


def test_telescoping_smooth_case_exact_half():
    # Z = (x, 1, 0): every partition gives exactly 1/2 on x_t = t over [0,1].
    X, times = line_driver(N=2, n=16)
    levels = [times[:, None, None].copy(), np.ones((17, 1, 1))]
    Z = ControlledPath(X.times, 1, 2, 1, levels)
    for part in (Partition((0, 16)), Partition((0, 3, 9, 16)), Partition(tuple(range(17)))):
        assert compensated_sum(Z, X, part)[0] == pytest.approx(0.5, abs=1e-14)
    val, err = rough_integral(Z, X, 0, 16)
    assert val[0] == pytest.approx(0.5, abs=1e-14)
    assert err < 1e-14


def test_constant_integrand_telescopes():
    rng = np.random.default_rng(0)
    X = rough_driver(rng)
    e = 2
    A = rng.standard_normal((e, X.d))
    n = X.n_points
    levels = [np.tile(A.reshape(-1, 1), (n, 1, 1)).reshape(n, e * X.d, 1)]
    levels += [np.zeros((n, e * X.d, X.d**i)) for i in range(1, X.N)]
    Z = ControlledPath(X.times, X.d, X.N, e * X.d, levels)
    for part in (Partition((0, n - 1)), Partition((0, 5, 20, n - 1))):
        got = compensated_sum(Z, X, part)
        want = A @ X.levels[1][n - 1]
        assert np.allclose(got, want, atol=1e-12)


def test_signature_integrand_reproduces_level_two():
    rng = np.random.default_rng(1)
    X = rough_driver(rng, d=2, N=3, n=32)
    Z = signature_integrand(X)
    # All remainders of this integrand vanish, so every partition agrees.
    for i in range(Z.N):
        assert np.max(np.abs(remainder_rows(Z, X, i, 0))) < 1e-12
    t_idx = X.n_points - 1
    want = X.levels[2][t_idx]
    for part in (Partition((0, t_idx)), Partition((0, 3, 17, t_idx)),
                 dyadic_partition(0, t_idx, 3)):
        got = compensated_sum(Z, X, part)
        assert np.allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_rough_integral_trivial_interval():
    X, _ = line_driver()
    Z = ControlledPath(X.times, 1, 2, 1, [np.zeros((17, 1, 1)), np.zeros((17, 1, 1))])
    val, err = rough_integral(Z, X, 5, 5)
    assert val.shape == (1,) and val[0] == 0.0 and err == 0.0


def test_integral_controlled_structure():
    rng = np.random.default_rng(2)
    X = rough_driver(rng, d=2, N=3, n=24)
    Z = random_integrand(rng, X, e=2)
    offset = np.array([1.0, -2.0])
    I = integral_controlled(Z, X, offset)
    assert I.dim_u == 2
    assert np.allclose(I.path_values()[0], offset)
    # Level shift holds pointwise and exactly.
    n, e, d = X.n_points, 2, X.d
    for k in range(1, X.N):
        expected = Z.levels[k - 1].reshape(n, e, d, d ** (k - 1)).transpose(0, 1, 3, 2)
        assert np.array_equal(I.levels[k], expected.reshape(n, e, d**k))
    # Increments of level 0 match single-interval integrals.
    for s, t in [(0, 5), (3, 20), (10, 24)]:
        val, _ = rough_integral(Z, X, s, t)
        assert np.allclose(I.path_values()[t] - I.path_values()[s], val, atol=1e-11)
    # The result is a genuine controlled path: finite seminorm.
    assert np.isfinite(seminorm(I, X, 0.3))


def test_integral_level0_remainder_decomposition():
    # RI^0_{s,t} differs from the one-interval compensated error exactly by
    # the top-level term Z^{N-1}_s X^N_{s,t}.
    rng = np.random.default_rng(3)
    X = rough_driver(rng, d=2, N=3, n=16)
    Z = random_integrand(rng, X, e=1)
    I = integral_controlled(Z, X)
    from roughpaths.rough_path import increment

    for s, t in [(0, 9), (2, 13)]:
        ri0 = remainder_rows(I, X, 0, s)[t - s][:, 0]
        val, _ = rough_integral(Z, X, s, t)
        inc = increment(X, s, t)
        comp = compensated_sum(Z, X, Partition((s, t)))
        top = _fill_leading(_operator_slot_last(Z.levels[X.N - 1][s], X.d),
                            inc.levels[X.N])[:, 0]
        assert np.allclose(ri0, (val - comp) + top, atol=1e-11)


def test_removal_identity_random_instances():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        X = rough_driver(rng, d=2, N=3, n=24)
        Z = random_integrand(rng, X, e=2)
        inner = np.sort(rng.choice(np.arange(1, 24), size=4, replace=False))
        part = Partition((0, *inner, 24))
        j = int(rng.integers(1, len(part.indices) - 1))
        worst = max(worst, removal_identity_check(Z, X, part, j))
    assert worst < 1e-12 * 100


def test_removal_identity_three_point_partition():
    rng = np.random.default_rng(5)
    X = rough_driver(rng, d=2, N=3, n=8)
    Z = random_integrand(rng, X, e=1)
    part = Partition((0, 4, 8))
    assert removal_identity_check(Z, X, part, 1) < 1e-12


def test_refinement_increments_decay_on_average():
    # Genuinely controlled integrand: a smooth field composed with the
    # canonical lift of a random polyline.
    from roughpaths.controlled_path import canonical_lift
    from roughpaths.lipschitz import compose, ridge

    rng = np.random.default_rng(6)
    mean_ratios = []
    for _ in range(5):
        X = rough_driver(rng, d=2, N=3, n=64)
        F = ridge(2, 2, [{"coef": [1.0, 0.0], "kind": "sin", "weight": [1.0, 0.5]},
                         {"coef": [0.0, 1.0], "kind": "cos", "weight": [-0.4, 1.0]}],
                  n_levels=3)
        Z = compose(F, canonical_lift(X), X)
        probe = convergence_rate_probe(Z, X, 0, 64, depths=[1, 2, 3, 4, 5])
        ratios = [b / a for a, b in zip(probe.increments, probe.increments[1:]) if a > 0]
        mean_ratios.extend(np.log(ratios))
    # Geometric-mean ratio below 1: increments decay on average.
    assert np.mean(mean_ratios) < 0.0


def test_rate_probe_non_applicable_for_smooth_case():
    X, times = line_driver(N=2, n=32)
    levels = [times[:, None, None].copy(), np.ones((33, 1, 1))]
    Z = ControlledPath(X.times, 1, 2, 1, levels)
    probe = convergence_rate_probe(Z, X, 0, 32, depths=[1, 2, 3, 4])
    assert probe.exponent is None


def test_smooth_matches_stieltjes_oracle():
    # integrand f(t) = t^2 against x_t = t with full level data at N=3: the
    # compensated sum integrates degree-2 polynomials exactly.
    n = 64
    times = np.linspace(0.0, 1.0, n + 1)
    path = PiecewiseLinearPath(times, times[:, None])
    X = lift_path(path, 3)
    levels = [(times**2)[:, None, None].copy(), (2 * times)[:, None, None].copy(),
              np.full((n + 1, 1, 1), 2.0)]
    Z = ControlledPath(X.times, 1, 3, 1, levels)
    val, _ = rough_integral(Z, X, 0, n)
    assert val[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    oracle_val = riemann_stieltjes(lambda t: np.array([[t * t]]), path, refinement=64)
    assert val[0] == pytest.approx(oracle_val.value[0], abs=1e-3)


def test_tail_constant_closed_form_and_divergence():
    # (N+1) alpha = 2: the series is 4 (pi^2/6 - 1).
    assert tail_constant(3, 0.5) == pytest.approx(4 * (np.pi**2 / 6 - 1), rel=1e-12)
    for alpha in (0.25, np.nan):
        with pytest.raises(ValueError):
            tail_constant(3, alpha)


# pi to 50 digits: the closed forms lose digits to the "- 1" in double precision.
PI = Decimal("3.14159265358979323846264338327950288419716939937510")


@pytest.mark.parametrize("p, denominator", [(2, 6), (4, 90), (6, 945)])
def test_hurwitz_zeta_closed_forms(p, denominator):
    exact = float(PI**p / denominator - 1)
    assert _hurwitz_zeta2(float(p)) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
def test_hurwitz_zeta_pole(h):
    # zeta(p, 2) = 1/(p-1) + (gamma - 1) + O(p - 1) near the pole.
    p = 1.0 + h
    h = p - 1.0  # the exact gap of the rounded p
    gamma = 0.5772156649015329
    assert abs(_hurwitz_zeta2(p) - 1.0 / h - (gamma - 1.0)) <= 0.1 * h


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_tail_constant_matches_scipy(N):
    special = pytest.importorskip("scipy.special")
    top = (N + 1) / N
    ps = np.concatenate([1.0 + np.logspace(-9, np.log10(top - 1.0), 200),
                         np.linspace(1.0 + 1e-9, top, 200)])
    for p in ps:
        alpha = p / (N + 1)
        q = (N + 1) * alpha
        if q <= 1.0:
            continue
        assert tail_constant(N, alpha) == pytest.approx(2.0**q * special.zeta(q, 2), rel=2e-15)


def test_pair_block_identity_pairing():
    # Level-1 identity block, paired with a level-2 driver tensor in all its
    # slots (operator slot last), recovers the driver tensor itself.
    d = 2
    e = d * d
    block = np.zeros((e * d, d))
    for a in range(d):
        for b in range(d):
            block[(a * d + b) * d + b, a] = 1.0
    x2 = np.arange(4.0)
    assert np.allclose(_fill_leading(_operator_slot_last(block, d), x2)[:, 0], x2)


def test_compensated_sum_matches_reference():
    # The batched interval terms against the per-interval, per-level loop.
    rng = np.random.default_rng(41)
    for d in range(1, 5):
        for N in range(1, 6):
            X = rough_driver(rng, d=d, N=N, n=8)
            n = X.n_points
            for e in (1, 2):
                levels = [rng.standard_normal((n, e * d, d**i)) for i in range(N)]
                Z = ControlledPath(X.times, d, N, e * d, levels)
                for part in (Partition(tuple(range(n))), Partition((0, 3, 4, n - 1)),
                             Partition((2, 6))):
                    want = compensated_sum_reference(Z, X, part)
                    got = compensated_sum(Z, X, part)
                    assert got.shape == want.shape == (e,)
                    scale = np.maximum(1.0, np.abs(want))
                    assert np.all(np.abs(got - want) <= 1e-13 * scale), (d, N, e, part)


def _dyadic_by_formula(s_idx, t_idx, depth):
    pieces = 2**depth
    raw = s_idx + np.round(np.arange(pieces + 1) * (t_idx - s_idx) / pieces).astype(int)
    return tuple(int(i) for i in np.unique(raw))


@pytest.mark.parametrize("s_idx, t_idx", [(0, 1), (0, 8), (3, 11), (5, 100), (0, 1000)])
def test_dyadic_partition_full_range_shortcut(s_idx, t_idx):
    # Depths at which 2**depth reaches the window length take every grid
    # index without forming 2**depth points; depth 30 once allocated 8 GiB.
    for depth in range(13):
        assert dyadic_partition(s_idx, t_idx, depth).indices == \
            _dyadic_by_formula(s_idx, t_idx, depth)
    assert dyadic_partition(s_idx, t_idx, 40).indices == tuple(range(s_idx, t_idx + 1))


@pytest.mark.parametrize("depth", [-1, -5, 1.5, 2.0, True, False, "2", None])
def test_dyadic_partition_rejects_bad_depth(depth):
    # A negative depth once gave (0, 16) on [0, 8], past the window's end;
    # depth 1.5 gave (0, 3, 6, 8).
    with pytest.raises(ValueError, match="depth"):
        dyadic_partition(0, 8, depth)
    X, times = line_driver(N=2, n=8)
    Z = ControlledPath(X.times, 1, 2, 1, [times[:, None, None].copy(), np.ones((9, 1, 1))])
    with pytest.raises(ValueError, match="depth"):
        convergence_rate_probe(Z, X, 0, 8, depths=[1, depth, 3])
    assert dyadic_partition(0, 8, np.int64(2)).indices == (0, 2, 4, 6, 8)
