import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from roughpaths.controlled_path import (
    ControlledPath,
    _remainder_blocks,
    canonical_lift,
    distance,
    path_add,
    path_scale,
    remainder_rows,
)
from roughpaths.lipschitz import (
    _composed_level,
    RIDGE_KINDS,
    LipFunction,
    compose,
    constant,
    _level_total_sums,
    _slot_maps,
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
from roughpaths.oracle import compose_reference, composed_level_reference, slotwise_product
from roughpaths.rde_solver import canonical_initial_path
from roughpaths.rough_integral import _operator_slot_last
from roughpaths import tensor_algebra
from roughpaths.rough_path import PiecewiseLinearPath, _pair_plan, _scan_pairs, increment, lift_path
from roughpaths.tensor_algebra import (
    TensorSeries,
    _basis_sectors,
    coproduct,
    level_words,
    symmetrize,
)
from test_acceptance import weierstrass_path


def line_driver(N=3, n=8, d=1):
    times = np.linspace(0.0, 1.0, n + 1)
    pts = np.tile(times[:, None], (1, d))
    return lift_path(PiecewiseLinearPath(times, pts), N)


def random_driver(rng, d, N, n_segments):
    times = np.linspace(0.0, 1.0, n_segments + 1)
    return lift_path(PiecewiseLinearPath(times, rng.standard_normal((n_segments + 1, d))), N)


def random_controlled(rng, X, dim_u):
    levels = [rng.standard_normal((X.n_points, dim_u, X.d**i)) for i in range(X.N)]
    return ControlledPath(X.times, X.d, X.N, dim_u, levels)


def sin_scalar(n_levels):
    return ridge(1, 1, [{"coef": [1.0], "kind": "sin", "weight": [1.0]}], n_levels)


def test_taylor_remainder_polynomial_exact():
    F = polynomial(2, 1, {(2, 0): [1.0], (1, 1): [2.0], (0, 0): [-0.5]}, n_levels=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        for j in range(2):
            assert np.max(np.abs(taylor_remainder(F, j, x, y))) < 1e-12


def test_taylor_remainder_sine_closed_form():
    F = sin_scalar(2)
    x, y = 0.4, 1.3
    r0 = taylor_remainder(F, 0, [x], [y])[0, 0]
    expected = math.sin(y) - math.sin(x) - math.cos(x) * (y - x) + math.sin(x) * (y - x) ** 2 / 2
    assert r0 == pytest.approx(expected, abs=1e-14)
    assert np.max(np.abs(taylor_remainder(F, 1, [x], [x]))) == 0.0


def test_derivative_blocks_are_symmetric():
    rng = np.random.default_rng(1)
    F = polynomial(2, 1, {(3, 1): [1.0], (1, 2): [0.7]}, n_levels=4)
    G = ridge(2, 1, [{"coef": [1.0], "kind": "exp", "weight": [0.3, -0.2]}], n_levels=4)
    for fn in (F, G):
        ys = rng.standard_normal((4, 2))
        for j in range(fn.n_levels + 1):
            blocks = fn.eval(j, ys)
            assert np.max(np.abs(blocks - symmetrize(blocks, 2, j))) < 1e-13


@pytest.mark.parametrize("dim_in", [1, 2, 3])
def test_field_blocks_are_symmetric_in_their_slots(dim_in):
    # Composition reads each set partition in one slot order, so every block
    # F^j must be symmetric.  Constant, linear and polynomial blocks are
    # symmetric exactly; a ridge block is coef * g^(j) times an outer product
    # of j weights, whose entries multiply the same factors in different
    # orders, so its slot permutations agree to 8 ulps of the largest entry.
    rng = np.random.default_rng(25)
    n = 5
    ys = rng.standard_normal((4, dim_in))
    coeffs = {expo: rng.standard_normal(2)
              for expo in itertools.product(range(4), repeat=dim_in) if sum(expo) <= 6}
    terms = [{"coef": rng.standard_normal(2), "kind": kind,
              "weight": rng.standard_normal(dim_in), "phase": 0.3} for kind in RIDGE_KINDS]
    fields = [(constant([1.0, -2.0], dim_in, n), 0.0),
              (linear(rng.standard_normal((2, dim_in)), n_levels=n), 0.0),
              (polynomial(dim_in, 2, coeffs, n), 0.0),
              (ridge(dim_in, 2, terms, n), 8 * np.finfo(float).eps)]
    for F, rel in fields:
        for j in range(n + 1):
            block = F.eval(j, ys)
            # Every call reads level j bit for bit, whatever levels it asks for.
            for top in range(j, n + 1):
                assert F.eval_levels(top, ys)[j].tobytes() == block.tobytes(), (F.label, j, top)
            cube = block.reshape((4, 2) + (dim_in,) * j)
            for perm in itertools.permutations(range(j)):
                gap = np.abs(cube - cube.transpose((0, 1) + tuple(2 + p for p in perm)))
                assert np.max(gap) <= rel * np.max(np.abs(cube)), (F.label, j, perm)


def test_compose_and_start_path_call_the_evaluator_once():
    # Composition and the start path read every level they need at one point
    # set, so each makes one evaluator call, not one per level.
    X = random_driver(np.random.default_rng(26), 2, 5, 8)
    G = ridge(1, 2, [{"coef": [1.0, 0.0], "kind": "sin", "weight": [0.5]},
                     {"coef": [0.0, 1.0], "kind": "exp", "weight": [0.2]}], n_levels=5)
    tops = []

    def counting(top, ys):
        tops.append(top)
        return G.eval_levels(top, ys)

    F = LipFunction(1, 2, 5, counting)
    Y = canonical_initial_path([0.3], F, X)
    assert tops == [3]
    Z = compose(F, Y, X)
    assert tops == [3, 4]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(Z.levels, compose(G, Y, X).levels))


def test_lip_norm_check_linear_and_sine():
    A = np.array([[1.0, -2.0]])
    F = linear(A, n_levels=2)
    rep = lip_norm_check(F, [-1, -1], [1, 1], declared=100.0, sample_count=32)
    assert rep.remainder_ratios[1] == 0.0
    assert not rep.violated
    G = sin_scalar(2)
    rep = lip_norm_check(G, [-np.pi], [np.pi], declared=1.0, sample_count=64)
    assert max(rep.remainder_ratios) <= 1.0 + 1e-9
    assert not rep.violated
    assert lip_norm_check(G, [-np.pi], [np.pi], declared=1e-3, sample_count=16).violated


def test_lip_norm_check_calls_the_evaluator_twice():
    # Every level at the sampled points x and at the points y comes from one
    # call per point set, and the batched remainders agree with
    # taylor_remainder taken one sample pair at a time.
    G = ridge(2, 2, [{"coef": [1.0, 0.5], "kind": "sin", "weight": [0.5, -0.3], "phase": 0.2},
                     {"coef": [0.3, -1.0], "kind": "exp", "weight": [0.2, 0.1]}], n_levels=4)
    tops = []

    def counting(top, ys):
        tops.append(top)
        return G.eval_levels(top, ys)

    rep = lip_norm_check(LipFunction(2, 2, 4, counting), [-1, -1], [1, 1], sample_count=64)
    assert tops == [4, 4]
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(-1, 1, (64, 2)), rng.uniform(-1, 1, (64, 2))
    gaps = np.abs(ys - xs).sum(axis=1)
    expected = [max(np.abs(taylor_remainder(G, j, x, y)).sum() / gap ** (5 - j)
                    for x, y, gap in zip(xs, ys, gaps)) for j in range(5)]
    assert rep.remainder_ratios == pytest.approx(expected, rel=1e-13)


def test_compose_with_linear_field_maps_levels():
    rng = np.random.default_rng(2)
    X = random_driver(rng, 2, 3, 6)
    Y = random_controlled(rng, X, 2)
    A = rng.standard_normal((3, 2))
    Z = compose(linear(A, n_levels=3), Y, X)
    for r in range(3):
        expected = np.einsum("ue,pek->puk", A, Y.levels[r])
        assert np.allclose(Z.levels[r], expected, atol=1e-13)


def test_compose_with_constant_field():
    rng = np.random.default_rng(3)
    X = random_driver(rng, 2, 3, 5)
    Y = random_controlled(rng, X, 2)
    Z = compose(constant([2.0, -1.0, 0.5], 2, n_levels=3), Y, X)
    assert np.allclose(Z.path_values(), np.tile([2.0, -1.0, 0.5], (Y.n_points, 1)))
    for r in (1, 2):
        assert np.max(np.abs(Z.levels[r])) == 0.0


def test_compose_identity_is_identity():
    rng = np.random.default_rng(4)
    X = random_driver(rng, 2, 3, 5)
    Y = random_controlled(rng, X, 2)
    Z = compose(identity(2, n_levels=3), Y, X)
    for r in range(3):
        assert np.array_equal(Z.levels[r], Y.levels[r])


def test_compose_square_of_line():
    # F(y) = y^2 along x_t = t: levels are x^2, 2x, 2.
    X = line_driver(N=3, n=10)
    Y = canonical_lift(X)
    F = polynomial(1, 1, {(2,): [1.0]}, n_levels=3)
    Z = compose(F, Y, X)
    t = X.times
    assert np.allclose(Z.path_values()[:, 0], t**2, atol=1e-13)
    assert np.allclose(Z.levels[1][:, 0, 0], 2 * t, atol=1e-13)
    assert np.allclose(Z.levels[2][:, 0, :], 2.0, atol=1e-13)


def test_ridge_levels_match_direct_formula():
    # Bit for bit: sum over terms, in order, of coef * g^(j)(weight . y + phase) * weight^(x)j.
    rng = np.random.default_rng(21)
    terms = [{"coef": list(rng.standard_normal(3)), "kind": kind,
              "weight": list(rng.standard_normal(2)), "phase": 0.7}
             for kind in ("sin", "cos", "exp")]
    F = ridge(2, 3, terms, n_levels=4)
    ys = rng.standard_normal((6, 2))
    for j in range(5):
        expected = np.zeros((6, 3, 2**j))
        for term in terms:
            coef, weight = np.array(term["coef"]), np.array(term["weight"])
            x = ys @ weight + 0.7
            vals = np.exp(x) if term["kind"] == "exp" else \
                (np.sin if term["kind"] == "sin" else np.cos)(x + j * np.pi / 2.0)
            wj = reduce(lambda a, b: np.multiply.outer(a, b).ravel(), [weight] * j, np.ones(1))
            expected += vals[:, None, None] * np.multiply.outer(coef, wj)[None]
        assert F.eval(j, ys).tobytes() == expected.tobytes()


def symmetric_blocks(a, e, j):
    """s[i_1..i_j] = a[sorted(i_1..i_j)] over the last axis: exactly symmetric."""
    return a[..., [np.ravel_multi_index(tuple(sorted(i)), (e,) * j)
                   for i in itertools.product(range(e), repeat=j)]]


def test_composed_level_matches_transpose_reference():
    # Bit for bit, for one grid point and for several: the set partitions of
    # each profile are added in the order of one transpose per set partition.
    # Against the ordered-partition sum with 1/j! of the oracle, the blocks
    # being exactly symmetric, every entry agrees to 1e-13 of the sum of the
    # sizes of its terms, which is the composed level of |F^j| and |Y^l|.
    rng = np.random.default_rng(24)

    def wide(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)

    for d, N, e, u in [(1, 5, 1, 1), (2, 5, 2, 3), (3, 5, 1, 3), (4, 4, 2, 2), (4, 5, 1, 1)]:
        for P in (1, 6):
            f_blocks = {j: symmetric_blocks(wide((P, u, e**j)), e, j) for j in range(N)}
            y_levels = [wide((P, e, d**i)) for i in range(N)]
            for r in range(1, N):
                got = _composed_level(f_blocks, y_levels, r)
                want = composed_level_reference(f_blocks, y_levels, r)
                assert got.tobytes() == want.tobytes(), (d, N, P, r)
        # The six-point batch, as a controlled path on a driver's grid.
        X = random_driver(rng, d, N, P - 1)
        F = LipFunction(e, u, N - 1, lambda top, ys: [f_blocks[j] for j in range(top + 1)])
        ordered = compose_reference(F, ControlledPath(X.times, d, N, e, y_levels), X).levels
        abs_blocks = {j: np.abs(b) for j, b in f_blocks.items()}
        for r in range(1, N):
            sizes = _composed_level(abs_blocks, [np.abs(y) for y in y_levels], r)
            got = _composed_level(f_blocks, y_levels, r)
            assert np.all(np.abs(got - ordered[r]) <= 1e-13 * sizes), (d, N, r)


def test_compose_memory_stays_near_output_size():
    # At the caps corner d=4, N=5 with a two-dimensional state, the
    # assignment sums gather in bounded tiles: at P=257 the peak is 2.6 times
    # the 1.4 MB output, where one untiled gather would take 20 times.
    rng = np.random.default_rng(22)
    d, N, e, P = 4, 5, 2, 257
    times = np.linspace(0.0, 1.0, P)
    X = lift_path(PiecewiseLinearPath(times, np.cumsum(0.05 * rng.standard_normal((P, d)), 0)), N)
    Y = ControlledPath(times, d, N, e, [rng.standard_normal((P, e, d**i)) for i in range(N)])
    F = ridge(e, 2, [{"coef": [1.0, 0.5], "kind": "sin", "weight": [0.3, -0.2]}], N)
    compose(F, Y, X)
    tracemalloc.start()
    try:
        Z = compose(F, Y, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * sum(level.nbytes for level in Z.levels)


@pytest.mark.parametrize("block", [1, 40])
def test_compose_does_not_depend_on_gather_tiles(monkeypatch, block):
    rng = np.random.default_rng(23)
    for d, N, dim_u in [(1, 4, 1), (2, 4, 2), (3, 3, 1)]:
        X = random_driver(rng, d, N, 4)
        Y = random_controlled(rng, X, dim_u)
        F = ridge(dim_u, 2, [{"coef": [1.0, -0.5], "kind": "cos",
                              "weight": list(rng.standard_normal(dim_u))}], N)
        wide = compose(F, Y, X)
        monkeypatch.setattr(tensor_algebra, "_GATHER_BLOCK", block)
        tiled = compose(F, Y, X)
        monkeypatch.undo()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(wide.levels, tiled.levels)), (d, N)


def test_compose_requires_enough_levels():
    X = line_driver(N=3, n=4)
    Y = canonical_lift(X)
    with pytest.raises(ValueError):
        compose(identity(1, n_levels=2), Y, X)


def _brute_truncation(y_blocks, x_inc, xi, k, lo=None, hi=math.inf):
    # Independent route: materialize the box power of the increment, multiply
    # by the coproduct of the word, and apply the level maps directly.  Only
    # keys whose level total lies in [lo, hi] count; the default window,
    # totals >= N, is the truncation term.
    d, N = x_inc.d, x_inc.N
    lo = N if lo is None else lo
    e = y_blocks[1].shape[0]
    xbox = {sizes: reduce(np.multiply.outer, [x_inc.level(l) for l in sizes]).ravel()
            for sizes in itertools.product(range(N + 1), repeat=k)}
    prod = slotwise_product(xbox, coproduct(TensorSeries.from_word(xi, d, N), k), d, N)
    total = np.zeros(e**k)
    for sizes, block in prod.items():
        if any(l < 1 or l > N - 1 for l in sizes) or not lo <= sum(sizes) <= hi:
            continue
        # One coefficient per tuple of slot words, at its slot-wise flat indices.
        for key in np.ndindex(*(d**l for l in sizes)):
            c = block.reshape([d**l for l in sizes])[key]
            vec = np.ones(1)
            for m, w in zip(sizes, key):
                vec = np.multiply.outer(vec, y_blocks[m][:, w]).ravel()
            total += c * vec
    return total / math.factorial(k)


def level_rows(y_blocks, x_inc, r, k):
    """The expansion pass for every basis word of length r, by level total,
    one row per word and divided by k!."""
    sums = _level_total_sums(_slot_maps(y_blocks, x_inc), _basis_sectors(x_inc.d, r, k), x_inc.N)
    return {total: rows / math.factorial(k) for total, rows in sums.items()}


def truncation_rows(y_blocks, x_inc, r, k):
    """The truncation term for every basis word of length r: the pass's entry at N."""
    e = y_blocks[1].shape[0]
    return level_rows(y_blocks, x_inc, r, k).get(x_inc.N, np.zeros((x_inc.d**r, e**k)))


def test_truncation_correction_trivial_cases():
    rng = np.random.default_rng(5)
    X = random_driver(rng, 2, 3, 4)
    inc = increment(X, 0, 4)
    y_blocks = [rng.standard_normal((2, 2**i)) for i in range(3)]
    # Arity 1: the index range {i >= N, i <= N-1} is empty.
    assert np.max(np.abs(truncation_rows(y_blocks, inc, 1, 1))) == 0.0
    zeros = [np.zeros((2, 2**i)) for i in range(3)]
    assert np.max(np.abs(truncation_rows(zeros, inc, 1, 2))) == 0.0


def test_truncation_correction_matches_brute_force():
    # Row w of the batched term is the correction for the basis word w.
    rng = np.random.default_rng(6)
    for N in (3, 4):
        X = random_driver(rng, 2, N, 5)
        inc = increment(X, 1, 4)
        y_blocks = [rng.standard_normal((2, 2**i)) for i in range(N)]
        for k in (1, 2):
            for r in range(1, N):
                rows = truncation_rows(y_blocks, inc, r, k)
                assert rows.shape == (2**r, 2**k)
                sums = level_rows(y_blocks, inc, r, k)
                for idx, xi in enumerate(level_words(2, r)):
                    want = _brute_truncation(y_blocks, inc, xi, k)
                    assert np.allclose(rows[idx], want, atol=1e-12), (N, k, xi)
                    # The entries below N, which make up the rest of the left side.
                    for total in range(1, N):
                        got = sums[total][idx] if total in sums else 0.0
                        want = _brute_truncation(y_blocks, inc, xi, k, total, total)
                        assert np.allclose(got, want, atol=1e-12), (N, k, xi, total)


def test_truncation_correction_contributing_profiles():
    # N=3, k=2, |xi|=1: only level pairs (1,2), (2,1), (2,2) can contribute.
    rng = np.random.default_rng(7)
    X = random_driver(rng, 2, 3, 4)
    inc = increment(X, 0, 3)
    y_blocks = [rng.standard_normal((2, 2**i)) for i in range(3)]
    full = truncation_rows(y_blocks, inc, 1, 2)
    # Knock out level 2 of Y: only the (1, 2)-type profiles vanish with it.
    y_no2 = [y_blocks[0], y_blocks[1], np.zeros_like(y_blocks[2])]
    assert np.max(np.abs(truncation_rows(y_no2, inc, 1, 2))) == 0.0
    assert np.max(np.abs(full[0])) > 0.0 and np.max(np.abs(full[1])) > 0.0


def test_expansion_identity_arity_one():
    rng = np.random.default_rng(8)
    X = random_driver(rng, 2, 3, 6)
    Y = random_controlled(rng, X, 2)
    y_blocks = [Y.levels[i][1] for i in range(Y.N)]
    for r in (1, 2):
        assert expansion_identity_check(y_blocks, increment(X, 1, 5), r, 1) < 1e-12


def test_expansion_identity_all_arities_genuine_lift():
    rng = np.random.default_rng(9)
    for N in (3, 4):
        X = random_driver(rng, 2, N, 4)
        Y = random_controlled(rng, X, 2)
        y_blocks = [Y.levels[i][0] for i in range(N)]
        for k in range(1, N):
            for r in range(1, N):
                dev = expansion_identity_check(y_blocks, increment(X, 0, 4), r, k)
                assert dev < 1e-10, (N, k, r, dev)


def test_expansion_identity_rejects_out_of_range_levels():
    rng = np.random.default_rng(12)
    X = random_driver(rng, 2, 3, 4)
    y_blocks = [rng.standard_normal((2, 2**i)) for i in range(3)]
    for r, k in [(0, 1), (3, 1), (1, 0), (1, 3)]:
        with pytest.raises(ValueError):
            expansion_identity_check(y_blocks, increment(X, 0, 4), r, k)


def test_expansion_identity_rejects_malformed_y_blocks():
    rng = np.random.default_rng(13)
    inc = increment(random_driver(rng, 2, 3, 4), 0, 4)
    too_few = [rng.standard_normal((2, 2**i)) for i in range(2)]
    wrong_d = [rng.standard_normal((2, 3**i)) for i in range(3)]
    mixed_e = [rng.standard_normal((2 + (i == 2), 2**i)) for i in range(3)]
    for y_blocks in (too_few, wrong_d, mixed_e):
        with pytest.raises(ValueError, match="y_blocks must be N = 3 blocks"):
            expansion_identity_check(y_blocks, inc, 1, 2)


def test_expansion_identity_needs_group_like_driver():
    # Splitting a level-2 block across slots only happens once N >= 4, so the
    # counterexample zeroes level 2 of an N=4 increment.
    rng = np.random.default_rng(10)
    X = random_driver(rng, 2, 4, 4)
    y_blocks = [rng.standard_normal((2, 2**i)) for i in range(4)]
    inc = increment(X, 0, 4)
    broken = inc.with_level(2, np.zeros(4))
    worst = max(expansion_identity_check(y_blocks, broken, 1, k) for k in (1, 2, 3))
    assert worst > 1e-3


def test_remainder_probe_linear_on_canonical_lift():
    rng = np.random.default_rng(11)
    X = random_driver(rng, 2, 3, 6)
    Y = canonical_lift(X)
    F = linear(rng.standard_normal((2, 2)), n_levels=3)
    for r in (1, 2):
        probe = remainder_regularity_probe(F, Y, X, r, 0.3)
        assert probe.max_remainder < 1e-12
    G = constant([1.0], 2, n_levels=3)
    for r in (1, 2):
        assert remainder_regularity_probe(G, Y, X, r, 0.3).max_ratio == 0.0
    for r in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            remainder_regularity_probe(G, Y, X, r, 0.3)


def test_remainder_probe_values_on_ridge_walk():
    # P=129, d=2, N=4: the per-level block scan keeps the values the
    # all-level row scan gave (pinned here), to 1e-13 relative.
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 129)
    X = lift_path(PiecewiseLinearPath(times, 0.3 * np.cumsum(rng.standard_normal((129, 2)), axis=0) / 11),
                  4, 0.25)
    Y = canonical_lift(X)
    F = ridge(2, 3, [{"coef": [1.0, 0.0, 0.5], "kind": "sin", "weight": [1.0, -0.5]},
                     {"coef": [0.0, 1.0, -0.3], "kind": "cos", "weight": [0.7, 1.0]}], n_levels=4)
    pinned = {1: (0.047683842822049426, 0.09302817700772104),
              2: (0.48219303617239495, 0.7492725909283283),
              3: (3.265357587027502, 4.021179479983098)}
    for r, (max_remainder, max_ratio) in pinned.items():
        probe = remainder_regularity_probe(F, Y, X, r, 0.24)
        assert probe.max_remainder == pytest.approx(max_remainder, rel=1e-13, abs=0)
        assert probe.max_ratio == pytest.approx(max_ratio, rel=1e-13, abs=0)


def test_remainder_probe_equals_two_one_exponent_scans():
    # The probe scans its one level's block at two exponents in one pass;
    # each maximum is that of a one-exponent scan, bit for bit.
    rng = np.random.default_rng(12)
    X = random_driver(rng, 2, 3, 16)
    Y = canonical_lift(X)
    F = ridge(2, 2, [{"coef": [1.0, 0.5], "kind": "sin", "weight": [1.0, -0.5]}], n_levels=3)
    Z = compose(F, Y, X)
    for r in (0, 1, 2):
        probe = remainder_regularity_probe(F, Y, X, r, 0.3)
        rem = _remainder_blocks(Z.levels, X, [r])
        alone = [float(_scan_pairs(_pair_plan(X.times, Z.dim_u * Z.d**r, [exponent]), rem).max())
                 for exponent in (0.0, (X.N - r) * 0.3)]
        assert [probe.max_remainder, probe.max_ratio] == alone


@pytest.mark.parametrize("driver, N, alpha, beta", [
    ("walk", 3, 0.3, None),
    # A rough driver in the regime beta <= 1/3, at every level count it needs.
    ("weierstrass", 3, 0.28, 0.32),
    ("weierstrass", 4, 0.22, 0.24),
    ("weierstrass", 5, 0.18, 0.195),
], ids=["walk-N3", "weierstrass-N3", "weierstrass-N4", "weierstrass-N5"])
def test_compose_continuity_linear_in_epsilon(driver, N, alpha, beta):
    rng = np.random.default_rng(12)
    if driver == "walk":
        X = random_driver(rng, 2, N, 6)
    else:
        X = lift_path(weierstrass_path(n=96, octaves=6, amp=0.2, seed=7), N, beta)
    Y = canonical_lift(X)
    bump = random_controlled(rng, X, 2)
    F = ridge(2, 1, [{"coef": [1.0], "kind": "sin", "weight": [0.9, -0.4]}], n_levels=N)
    base = compose(F, Y, X)
    ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        Z = compose(F, path_add(Y, path_scale(bump, eps)), X)
        ratios.append(distance(Z, base, X, X, alpha) / eps)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.1)


def reference_fields(rng, e, dim_out, n_levels):
    """A sin/cos/exp ridge field and a cubic polynomial field R^e -> R^dim_out."""
    terms = [{"coef": rng.standard_normal(dim_out), "kind": kind,
              "weight": 0.5 * rng.standard_normal(e), "phase": float(rng.uniform(0, 3))}
             for kind in ("sin", "cos", "exp")]
    coeffs = {expo: rng.standard_normal(dim_out)
              for expo in itertools.product(range(4), repeat=e) if sum(expo) <= 3}
    return [ridge(e, dim_out, terms, n_levels), polynomial(e, dim_out, coeffs, n_levels)]


def assert_levels_match(got, want, rel=1e-13):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def test_compose_matches_reference():
    rng = np.random.default_rng(31)
    for d in range(1, 5):
        for N in range(1, 6):
            X = random_driver(rng, d, N, 4)
            for e in (1, 2):
                Y = random_controlled(rng, X, e)
                for F in reference_fields(rng, e, 2, N):
                    assert_levels_match(compose(F, Y, X).levels,
                                        compose_reference(F, Y, X).levels)


def test_canonical_initial_blocks_match_reference():
    # Block r + 1 of the start path is level r of F composed with blocks 0..r.
    rng = np.random.default_rng(32)
    for d in range(1, 5):
        for N in range(2, 6):
            X = random_driver(rng, d, N, 2)
            for e in (1, 2):
                for F in reference_fields(rng, e, e * d, N):
                    W = canonical_initial_path(0.3 * rng.standard_normal(e), F, X)
                    start = ControlledPath(W.times[:1], d, N - 1, e,
                                           [lvl[:1] for lvl in W.levels[:N - 1]])
                    Z = compose_reference(F, start, X)
                    assert_levels_match([W.levels[r + 1][0] for r in range(N - 1)],
                                        [_operator_slot_last(Z.levels[r][0], d)
                                         for r in range(N - 1)])


def test_from_config_kinds():
    lin = from_config({"kind": "linear", "matrix": [[1.0, 0.0]], "offset": [0.5]}, 2)
    assert lin.dim_in == 2 and lin.dim_out == 1
    poly = from_config({"kind": "polynomial", "dim_in": 1, "dim_out": 1,
                        "coeffs": [{"exponents": [2], "value": [1.0]}]}, 3)
    assert poly.eval_at(0, [3.0])[0, 0] == pytest.approx(9.0)
    built = from_config({"kind": "builtin", "dim_in": 1, "dim_out": 2,
                         "terms": [{"coef": [1.0, 0.0], "kind": "sin", "weight": [1.0]},
                                   {"coef": [0.0, 1.0], "kind": "cos", "weight": [1.0]}]}, 3)
    out = built.eval_at(0, [0.3])[:, 0]
    assert np.allclose(out, [math.sin(0.3), math.cos(0.3)])
    cst = from_config({"kind": "constant", "value": [1.0], "dim_in": 1}, 2)
    assert cst.eval_at(1, [0.0]).shape == (1, 1)
    with pytest.raises(ValueError):
        from_config({"kind": "mystery"}, 2)


def test_from_config_sums_repeated_exponents():
    poly = from_config({"kind": "polynomial", "dim_in": 1, "dim_out": 1,
                        "coeffs": [{"exponents": [1], "value": [1.0]},
                                   {"exponents": [1], "value": [2.0]}]}, 2)
    assert poly.eval_at(0, [1.0])[0, 0] == 3.0
    assert poly.eval_at(1, [1.0])[0, 0] == 3.0


def test_polynomial_rejects_fractional_exponents():
    with pytest.raises(ValueError):
        polynomial(1, 1, {(1.7,): [1.0]}, n_levels=2)
    square = polynomial(1, 1, {(2.0,): [1.0]}, n_levels=2)
    assert square.eval_at(0, [3.0])[0, 0] == 9.0
    assert square.eval_at(1, [3.0])[0, 0] == 6.0
