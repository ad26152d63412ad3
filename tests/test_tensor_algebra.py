import itertools
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpaths
from roughpaths import oracle, tensor_algebra
from roughpaths.rough_path import PiecewiseLinearPath, lift_path, restrict
from roughpaths.tensor_algebra import (
    MAX_DIM,
    MAX_LEVEL,
    TensorSeries,
    _basis_sectors,
    _coproduct_sectors,
    _max_abs,
    _product_level,
    _set_partition_axes,
    _set_partition_gathers,
    admissible_norm,
    coproduct,
    exp_segment,
    group_inverse,
    index_word,
    is_group_like,
    level_words,
    shuffle_product,
    symmetrize,
    tensor_mul,
    word_index,
)


def random_series(rng, d, N, scale=1.0, unit_scalar=False):
    levels = [scale * rng.standard_normal(d**i) for i in range(N + 1)]
    if unit_scalar:
        levels[0] = np.ones(1)
    return TensorSeries(d, N, levels)


def test_word_index_roundtrip():
    d = 3
    for r in range(4):
        for idx, w in enumerate(level_words(d, r)):
            assert word_index(w, d) == idx
            assert index_word(idx, r, d) == w


def test_series_validation():
    with pytest.raises(ValueError):
        TensorSeries(5, 2, [[1.0], [0] * 5, [0] * 25])
    with pytest.raises(ValueError):
        TensorSeries(2, 6, [[1.0]] + [[0] * 2**i for i in range(1, 7)])
    with pytest.raises(ValueError):
        TensorSeries(2, 2, [[1.0], [0, 0], [0, 0, 0]])
    for d, N in [(True, 1), (2, True), (2.0, 1), (2, 1.0), (0, 1), (2, 0)]:
        with pytest.raises(ValueError, match="outside"):
            TensorSeries(d, N, [[1.0], [0, 0]])


def test_series_immutable():
    a = TensorSeries.unit(2, 2)
    with pytest.raises(ValueError):
        a.level(1)[0] = 3.0
    with pytest.raises(AttributeError):
        a.d = 3


@pytest.mark.parametrize("d, N, i, block", [(1, 1, -1, [9.0]), (2, 2, 3, np.zeros(8))],
                         ids=["below-0", "above-N"])
def test_with_level_rejects_level_outside_series(d, N, i, block):
    with pytest.raises(ValueError, match=f"level i {i} outside 0..{N}"):
        TensorSeries.unit(d, N).with_level(i, block)


@pytest.mark.parametrize("i", [-1, 3], ids=["below-0", "above-N"])
def test_level_rejects_level_outside_series(i):
    with pytest.raises(ValueError, match=f"level i {i} outside 0..2"):
        TensorSeries.unit(2, 2).level(i)


def test_public_names_resolve():
    assert all(hasattr(roughpaths, name) for name in roughpaths.__all__)
    assert "BoxTensor" not in roughpaths.__all__


def test_tensor_mul_basis_example():
    # (1, e1, 0) (x) (1, e2, 0) = (1, e1+e2, e1(x)e2), expanded by hand.
    a = TensorSeries(2, 2, [[1.0], [1.0, 0.0], [0.0] * 4])
    b = TensorSeries(2, 2, [[1.0], [0.0, 1.0], [0.0] * 4])
    c = tensor_mul(a, b)
    assert np.allclose(c.level(0), [1.0])
    assert np.allclose(c.level(1), [1.0, 1.0])
    assert np.allclose(c.level(2), [0.0, 1.0, 0.0, 0.0])


def test_tensor_mul_unit_identity():
    rng = np.random.default_rng(0)
    a = random_series(rng, 3, 3)
    u = TensorSeries.unit(3, 3)
    for x in (tensor_mul(u, a), tensor_mul(a, u)):
        for i in range(4):
            assert np.allclose(x.level(i), a.level(i), atol=0.0)


def test_tensor_mul_truncation_kills_high_levels():
    c = TensorSeries(1, 2, [[0.0], [0.0], [2.0]])
    cp = TensorSeries(1, 2, [[0.0], [0.0], [3.0]])
    prod = tensor_mul(c, cp)
    assert prod.max_abs() == 0.0


def test_tensor_mul_rejects_mismatch():
    with pytest.raises(ValueError):
        tensor_mul(TensorSeries.unit(2, 2), TensorSeries.unit(3, 2))


@given(seed=st.integers(0, 10_000), d=st.integers(1, 3), N=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_tensor_mul_associative(seed, d, N):
    rng = np.random.default_rng(seed)
    a, b, c = (random_series(rng, d, N) for _ in range(3))
    left = tensor_mul(tensor_mul(a, b), c)
    right = tensor_mul(a, tensor_mul(b, c))
    scale = max(1.0, left.max_abs())
    for i in range(N + 1):
        assert np.allclose(left.level(i), right.level(i), atol=1e-13 * scale)


def test_group_inverse_exp_symmetry():
    v = np.array([0.7, -0.3])
    inv = group_inverse(exp_segment(v, 3))
    expected = exp_segment(-v, 3)
    for i in range(4):
        assert np.allclose(inv.level(i), expected.level(i), atol=1e-14)


def test_group_inverse_levelwise_formula():
    # Solving g (x) h = unit level by level gives h = (1, -x1, x1(x)x1 - x2).
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal(2)
    x2 = rng.standard_normal(4)
    g = TensorSeries(2, 2, [[1.0], x1, x2])
    h = group_inverse(g)
    assert np.allclose(h.level(1), -x1)
    assert np.allclose(h.level(2), np.outer(x1, x1).ravel() - x2)
    prod = tensor_mul(g, h)
    unit = TensorSeries.unit(2, 2)
    for i in range(3):
        assert np.allclose(prod.level(i), unit.level(i), atol=1e-13)


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_group_inverse_matches_neumann_reference_bytes(d):
    # Level by level, the inverse is the Neumann loop's final pass summed in
    # the same order: equal bytes, signs of zero included, whenever g^0 is 1.
    rng = np.random.default_rng(40 + d)
    for N in range(1, MAX_LEVEL + 1):
        points = np.cumsum(rng.standard_normal((9, d)), axis=0)
        points[:3] = 0.0  # a flat stretch: the lift's first three rows are exact zeros
        X = lift_path(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), points), N)
        assert not X.levels[N][:3].any()
        noisy = [X.levels[0]] + [lvl + 0.1 * rng.standard_normal(lvl.shape) for lvl in X.levels[1:]]
        single = random_series(rng, d, N, unit_scalar=True).levels
        for g in (X.levels, restrict(X, 1, 7).levels, noisy, single):
            got = tensor_algebra._group_inverse_levels(g)
            expected = oracle.group_inverse_reference(g)
            assert [lvl.shape for lvl in got] == [lvl.shape for lvl in expected]
            assert [lvl.tobytes() for lvl in got] == [lvl.tobytes() for lvl in expected]


def test_group_inverse_unit_and_rejection():
    u = TensorSeries.unit(2, 3)
    inv = group_inverse(u)
    for i in range(4):
        assert np.allclose(inv.level(i), u.level(i))
    with pytest.raises(ValueError):
        group_inverse(TensorSeries(1, 1, [[0.5], [0.0]]))


def test_exp_segment_zero_is_unit():
    e = exp_segment(np.zeros(2), 3)
    u = TensorSeries.unit(2, 3)
    for i in range(4):
        assert np.allclose(e.level(i), u.level(i))


def test_exp_segment_factorials():
    e = exp_segment([1.0], 3)
    assert np.allclose([e.level(i)[0] for i in range(4)], [1.0, 1.0, 0.5, 1.0 / 6.0])


@pytest.mark.parametrize("v, N, what", [
    ([1.0], 0, "level"), ([1.0], 6, "level"), ([1.0], True, "level"), ([1.0], 2.0, "level"),
    ([1.0], -1, "level"), (np.ones(5), 2, "dimension"), ([], 2, "dimension"),
])
def test_exp_segment_rejects_values_outside_caps(v, N, what):
    with pytest.raises(ValueError, match=what):
        exp_segment(v, N)


def test_max_abs_propagates_nan():
    # max(worst, x) keeps worst when x is NaN; the one reduction does not.
    assert _max_abs([]) == 0.0 and _max_abs([np.zeros(0)]) == 0.0
    assert _max_abs([np.array([-3.0, 1.0]), 2.0]) == 3.0
    for blocks in ([1.0, np.nan], [np.nan, 1.0], [np.array([0.0, np.nan]), np.array([np.inf])]):
        assert np.isnan(_max_abs(blocks))
        assert np.isnan(_max_abs(iter(blocks)))
    assert _max_abs([np.array([1.0, -np.inf])]) == np.inf


def test_exp_segment_collinear_chen():
    v = np.array([0.4])
    two = tensor_mul(exp_segment(v, 4), exp_segment(v, 4))
    direct = exp_segment(2 * v, 4)
    for i in range(5):
        assert np.allclose(two.level(i), direct.level(i), atol=1e-15)


def nonzero_terms(sectors, d):
    """The nonzero coefficients of dense coproduct sectors, keyed by the tuple
    of slot words that each flat index splits into."""
    terms = {}
    for sizes, block in sectors.items():
        cuts = list(itertools.accumulate(sizes, initial=0))
        for idx in np.flatnonzero(block):
            w = index_word(int(idx), cuts[-1], d)
            terms[tuple(w[a:b] for a, b in zip(cuts, cuts[1:]))] = float(block[idx])
    return terms


def test_coproduct_two_letter_word():
    # delta_2(v1 (x) v2) = v1v2 [] 1 + 1 [] v1v2 + v1 [] v2 + v2 [] v1.
    xi = TensorSeries.from_word((1, 2), 2, 2)
    expected = {
        ((1, 2), ()): 1.0,
        ((), (1, 2)): 1.0,
        ((1,), (2,)): 1.0,
        ((2,), (1,)): 1.0,
    }
    assert nonzero_terms(coproduct(xi, 2), 2) == expected


def test_coproduct_arity_one_is_identity_embedding():
    rng = np.random.default_rng(2)
    xi = random_series(rng, 2, 3)
    sectors = coproduct(xi, 1)
    assert list(sectors) == [(r,) for r in range(4)]
    for r in range(4):
        assert sectors[r,].tobytes() == xi.level(r).tobytes()


def test_coproduct_single_letter():
    xi = TensorSeries.from_word((1,), 2, 2)
    assert nonzero_terms(coproduct(xi, 2), 2) == {((1,), ()): 1.0, ((), (1,)): 1.0}


def test_coproduct_matches_partition_oracle():
    # Exact agreement with the recursive subset-partition enumeration; a
    # sector of another total than the word's length is zero.
    for d, k in itertools.product((1, 2, 3), (1, 2, 3)):
        for r in range(0, 5):
            counts = oracle.partition_counts(d, r, k)
            for w in level_words(d, r):
                sectors = coproduct(TensorSeries.from_word(w, d, 4), k)
                for sizes, block in sectors.items():
                    want = counts[sizes][word_index(w, d)] if sum(sizes) == r else 0.0
                    assert np.all(block == want), (d, k, w, sizes)


def test_coproduct_is_the_read_only_dense_sectors():
    rng = np.random.default_rng(41)
    for d in range(1, 5):
        for N in range(1, 6):
            xi = random_series(rng, d, N)
            for k in range(1, N + 2):
                sectors = coproduct(xi, k)
                assert isinstance(sectors, MappingProxyType)
                assert same_sectors(sectors, _coproduct_sectors(xi.levels, k)), (d, N, k)
                assert all(not b.flags.writeable for b in sectors.values())


@pytest.mark.parametrize("k", [0, -1])
def test_coproduct_rejects_arity_below_one(k):
    with pytest.raises(ValueError, match="arity"):
        coproduct(TensorSeries.unit(2, 2), k)


def wide_levels(rng, d, N, lead):
    """Level lists over 16 decades with signed zeros mixed in, so that any
    change in the order of a sum shows in the last bits."""
    levels = []
    for i in range(N + 1):
        block = rng.standard_normal(lead + (d**i,)) * 10.0 ** rng.integers(-8, 8, lead + (d**i,))
        levels.append(np.where(rng.random(block.shape) < 0.1, -0.0, block))
    return levels


def same_sectors(a, b):
    return list(a) == list(b) and all(
        a[s].shape == b[s].shape and a[s].tobytes() == b[s].tobytes() for s in a)


@pytest.mark.parametrize("d, N", [(1, 5), (2, 5), (3, 5), (4, 4), (4, 5)])
def test_coproduct_sectors_match_transpose_reference(d, N):
    # Bit for bit, signed zeros included: every assignment is added in the
    # order of one transpose per assignment, at every arity, for a single
    # series and for batches of one and of several rows.
    rng = np.random.default_rng(40 + d)
    leads = [(), (1,), (3,)] if (d, N) == (4, 5) else [(), (1,), (5,), (2, 3)]
    for lead in leads:
        levels = wide_levels(rng, d, N, lead)
        for k in range(1, N + 2):
            assert same_sectors(_coproduct_sectors(levels, k),
                                oracle.coproduct_sectors_reference(levels, k)), (lead, k)


@pytest.mark.parametrize("block", [1, 7, 60])
def test_coproduct_sectors_do_not_depend_on_gather_tiles(monkeypatch, block):
    # Tiny budgets split both the words and the batch, down to one-entry tiles.
    monkeypatch.setattr(tensor_algebra, "_GATHER_BLOCK", block)
    rng = np.random.default_rng(50)
    cases = [(1, 5, ()), (1, 4, (9,)), (2, 4, ()), (2, 4, (7,)), (2, 3, (0,)), (3, 3, (2, 2))]
    for d, N, lead in cases:
        levels = wide_levels(rng, d, N, lead)
        for k in range(1, N + 1):
            assert same_sectors(_coproduct_sectors(levels, k),
                                oracle.coproduct_sectors_reference(levels, k)), (d, lead, k)


@pytest.mark.parametrize("r", range(1, 6))
def test_set_partitions_each_listed_once(r):
    # One canonical assignment per set partition of the r positions: the
    # Bell number of rows, over one profile per integer partition of r.
    axes = _set_partition_axes(r)
    assert sum(map(len, axes.values())) == [1, 2, 5, 15, 52][r - 1]
    assert len(axes) == [1, 2, 3, 5, 7][r - 1]
    listed = []
    for sizes, orders in axes.items():
        assert list(sizes) == sorted(sizes) and min(sizes) >= 1 and sum(sizes) == r
        cuts = list(itertools.accumulate(sizes, initial=0))
        for order in orders:
            blocks = [order[a:b] for a, b in zip(cuts, cuts[1:])]
            assert all(list(blk) == sorted(blk) for blk in blocks)
            assert all(blocks[i][0] < blocks[i + 1][0]
                       for i in range(len(sizes) - 1) if sizes[i] == sizes[i + 1])
            listed.append(frozenset(map(frozenset, blocks)))
    expected = {frozenset(map(frozenset, blocks))
                for j in range(1, r + 1) for blocks in oracle.enumerate_partitions(r, j, False)}
    assert len(listed) == len(set(listed)) and set(listed) == expected
    # Row a of the gather table undoes the transpose by the a-th order.
    for d in (1, 2, 3):
        base = np.arange(d**r).reshape((d,) * r)
        for sizes, idx in _set_partition_gathers(r, d).items():
            assert not idx.flags.writeable
            for row, order in zip(idx, axes[sizes]):
                assert np.array_equal(base.transpose(order).ravel()[row], base.ravel())


def test_basis_sectors_are_the_identity_batch_sectors():
    # Block (w, c) of a profile counts the ordered partitions of w's positions
    # with those block sizes whose concatenated subwords sit at flat index c,
    # as the oracle's subset-choice enumeration lists them.
    for d, r, k in [(1, 3, 2), (2, 3, 3), (3, 2, 2), (2, 4, 4), (4, 2, 3)]:
        counts = oracle.partition_counts(d, r, k)
        cached = _basis_sectors(d, r, k)
        assert cached.keys() == counts.keys()
        assert all(cached[s].tobytes() == counts[s].tobytes() for s in counts)
        assert _basis_sectors(d, r, k) is cached
        assert all(not b.flags.writeable for b in cached.values())


def sector_gap(a, b):
    """Max coefficient gap between two sets of sectors, a missing one zero."""
    return max(float(np.max(np.abs(a.get(s, 0.0) - b.get(s, 0.0)))) for s in a.keys() | b.keys())


def test_coproduct_is_box_homomorphism_on_low_degree():
    # delta_k(xi (x) eta) = delta_k(xi) * delta_k(eta) when total degree <= N.
    rng = np.random.default_rng(3)
    d, N = 2, 4
    for k in (2, 3):
        xi = TensorSeries(d, N, [rng.standard_normal(d**i) if i <= 2 else np.zeros(d**i)
                                 for i in range(N + 1)])
        eta = TensorSeries(d, N, [rng.standard_normal(d**i) if i <= 2 else np.zeros(d**i)
                                  for i in range(N + 1)])
        lhs = coproduct(tensor_mul(xi, eta), k)
        rhs = oracle.slotwise_product(coproduct(xi, k), coproduct(eta, k), d, N)
        assert sector_gap(lhs, rhs) < 1e-12


def test_shuffle_examples():
    assert shuffle_product((1,), (2,), 4) == {(1, 2): 1.0, (2, 1): 1.0}
    assert shuffle_product((), (1, 2), 4) == {(1, 2): 1.0}
    assert shuffle_product((1,), (1,), 4) == {(1, 1): 2.0}
    with pytest.raises(ValueError):
        shuffle_product((1, 1, 1), (1, 1), 4)
    for bad in [((MAX_DIM + 1,), (1,)), ((0,), (1,))]:
        with pytest.raises(ValueError):
            shuffle_product(*bad, 4)


def test_shuffle_matches_interleaving_oracle():
    # Every split of the positions into |u| and |w| places one interleaving.
    pairs = [((1, 2), (2,)), ((3, 1), (1, 3)), ((1,), (2, 2, 4)), ((2, 1, 2), (1, 1)), ((), ())]
    for u, w in pairs:
        r = len(u) + len(w)
        expected: dict = {}
        for first, second in oracle.enumerate_partitions(r, 2):
            if len(first) != len(u):
                continue
            key = [0] * r
            for p, a in zip(first + second, u + w):
                key[p] = a
            expected[tuple(key)] = expected.get(tuple(key), 0.0) + 1.0
        assert shuffle_product(u, w, 5) == expected


def test_shuffle_coproduct_duality():
    # <delta_2(xi), u [] w> = <xi, u shuffle w> for all word pairs fitting level N.
    rng = np.random.default_rng(4)
    d, N = 2, 4
    xi = random_series(rng, d, N)
    sectors = coproduct(xi, 2)
    for ru in range(N + 1):
        for rw in range(N + 1 - ru):
            for u in level_words(d, ru):
                for w in level_words(d, rw):
                    sh = shuffle_product(u, w, N)
                    pairing = sum(mult * xi.coeff(word) for word, mult in sh.items())
                    coeff = sectors[ru, rw][word_index(u + w, d)]
                    assert coeff == pytest.approx(pairing, abs=1e-12)


def test_is_group_like_exponential():
    ok, dev = is_group_like(exp_segment([0.3, -1.2], 4), 1e-12)
    assert ok and dev < 1e-13


def test_is_group_like_counterexample_magnitude():
    # (1, e1, 0): arity-2 coproduct misses the e1 [] e1 sector, magnitude 1.
    xi = TensorSeries(2, 2, [[1.0], [1.0, 0.0], [0.0] * 4])
    ok, dev = is_group_like(xi, 1e-10)
    assert not ok
    assert dev == pytest.approx(1.0)


def test_is_group_like_rejects_bad_scalar():
    with pytest.raises(ValueError):
        is_group_like(TensorSeries(1, 1, [[0.0], [1.0]]), 1e-10)


def test_is_group_like_matches_box_route():
    # The coproduct of a group-like g is the slotwise product of g placed in
    # each slot in turn, sum over profiles of g^{l_1} [] ... [] g^{l_k}.
    g = tensor_mul(exp_segment([0.5, 0.1], 3), exp_segment([-0.2, 0.8], 3))
    d, N = 2, 3
    for k in (2, 3):
        lhs = coproduct(g, k)
        rhs = {(0,) * k: np.ones(1)}
        for j in range(k):
            slot = {tuple(l if i == j else 0 for i in range(k)): g.level(l) for l in range(N + 1)}
            rhs = oracle.slotwise_product(rhs, slot, d, N)
        # The coproduct keeps the profiles of total at most N.
        assert sector_gap(lhs, {s: b for s, b in rhs.items() if sum(s) <= N}) < 1e-12
    ok, dev = is_group_like(g, 1e-12)
    assert ok, dev


def test_symmetrize_examples():
    sym = np.array([1.0, 2.0, 2.0, 5.0])  # symmetric 2x2
    assert np.allclose(symmetrize(sym, 2, 2), sym)
    e12 = np.zeros(4)
    e12[word_index((1, 2), 2)] = 1.0
    out = symmetrize(e12, 2, 2)
    expected = np.zeros(4)
    expected[word_index((1, 2), 2)] = 0.5
    expected[word_index((2, 1), 2)] = 0.5
    assert np.allclose(out, expected)
    anti = np.zeros(4)
    anti[word_index((1, 2), 2)] = 1.0
    anti[word_index((2, 1), 2)] = -1.0
    assert np.allclose(symmetrize(anti, 2, 2), 0.0)


@given(seed=st.integers(0, 10_000), dim=st.integers(1, 3), k=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_symmetrize_is_projection(seed, dim, k):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal(dim**k)
    once = symmetrize(block, dim, k)
    twice = symmetrize(once, dim, k)
    assert np.allclose(once, twice, atol=1e-14)


def test_admissible_norm_axioms():
    u = TensorSeries.unit(2, 2)
    assert admissible_norm(u, 0) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        vw = np.multiply.outer(v, w).ravel()
        xi = TensorSeries(3, 2, [[0.0], np.zeros(3), vw])
        # l1 is a cross norm: equality, hence submultiplicativity.
        assert admissible_norm(xi, 2) == pytest.approx(np.abs(v).sum() * np.abs(w).sum())
        perm = vw.reshape(3, 3).T.ravel()
        xi_p = TensorSeries(3, 2, [[0.0], np.zeros(3), perm])
        assert admissible_norm(xi_p, 2) == pytest.approx(admissible_norm(xi, 2))


def _product_level_broadcast(a, b, r):
    # The product level with its leading shape from np.broadcast_shapes of the
    # operands' level 0, the kernel's earlier form.
    lead = np.broadcast_shapes(a[0].shape[:-1], b[0].shape[:-1])
    acc = np.zeros(lead + (b[r].shape[-1],))
    for i in range(min(r + 1, len(a))):
        acc += (a[i][..., :, None] * b[r - i][..., None, :]).reshape(lead + (-1,))
    return acc


def test_product_level_takes_its_shape_from_the_first_term():
    # Batched x single, single x batched, two batches broadcast against each
    # other, and shorter left factors: the bytes of the earlier form, whose
    # zero start turns a -0.0 product into 0.0 (a lone level-0 left factor
    # against a -0.0 entry).
    rng = np.random.default_rng(81)

    def levels(lead, d, N):
        out = [np.ones(lead + (1,))] + [rng.standard_normal(lead + (d**i,)) for i in range(1, N + 1)]
        out[1][..., 0] = 0.0
        out[-1][..., -1] = -0.0
        return out

    for d in range(1, 5):
        for N in range(1, 6):
            single, batched = levels((), d, N), levels((5,), d, N)
            rows, cols = levels((3, 1), d, N), levels((1, 4), d, N)
            for a, b in ((batched, single), (single, batched), (batched, batched),
                         (single, single), (rows, cols), (batched[:2], single), (single[:1], batched)):
                for r in range(N + 1):
                    got, want = _product_level(a, b, r), _product_level_broadcast(a, b, r)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, N, r)
