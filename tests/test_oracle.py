import numpy as np
import pytest

from roughpaths.oracle import enumerate_partitions, ode_rk4, riemann_stieltjes, slotwise_product
from roughpaths.rough_path import PiecewiseLinearPath
from roughpaths.tensor_algebra import word_index


def test_rk4_zero_field_constant():
    path = PiecewiseLinearPath([0.0, 0.5, 1.0], [[0.0], [0.3], [1.0]])
    out = ode_rk4(lambda y: np.zeros((2, 1)), path, [1.0, -1.0], substeps=4)
    assert np.allclose(out, [1.0, -1.0])


def test_rk4_exponential():
    times = np.linspace(0.0, 1.0, 2)
    path = PiecewiseLinearPath(times, times[:, None])
    out = ode_rk4(lambda y: y[:, None], path, [1.0], substeps=100)
    assert abs(out[-1, 0] - np.e) < 1e-9


def test_rk4_rotation_preserves_norm():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    times = np.linspace(0.0, 1.0, 11)
    path = PiecewiseLinearPath(times, times[:, None])
    out = ode_rk4(lambda y: (A @ y)[:, None], path, [1.0, 0.0], substeps=20)
    norms = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_stieltjes_linear_integrand():
    times = np.linspace(0.0, 1.0, 5)
    path = PiecewiseLinearPath(times, times[:, None])
    for refinement in (8, 64):
        res = riemann_stieltjes(lambda t: np.array([[t]]), path, refinement)
        assert abs(res.value[0] - 0.5) < 1.0 / (4 * refinement)


def test_stieltjes_zero_and_constant():
    times = np.linspace(0.0, 2.0, 4)
    pts = np.column_stack([times, -times])
    path = PiecewiseLinearPath(times, pts)
    zero = riemann_stieltjes(lambda t: np.zeros((1, 2)), path, 4)
    assert np.allclose(zero.value, 0.0)
    A = np.array([[2.0, 1.0]])
    const = riemann_stieltjes(lambda t: A, path, 4)
    assert np.allclose(const.value, A @ (pts[-1] - pts[0]))


def test_enumerate_partitions_counts():
    assert len(enumerate_partitions(2, 2)) == 4
    assert enumerate_partitions(0, 2) == [((), ())]
    assert len(enumerate_partitions(3, 2, allow_empty=False)) == 6
    for blocks in enumerate_partitions(3, 2):
        flat = sorted(p for blk in blocks for p in blk)
        assert flat == [0, 1, 2]
        for blk in blocks:
            assert list(blk) == sorted(blk)


def test_enumerate_partitions_matches_powers():
    for r in range(5):
        for k in (1, 2, 3):
            assert len(enumerate_partitions(r, k)) == k**r


def test_slotwise_product_unit_and_slotwise():
    def term(sizes, word, c=1.0):
        block = np.zeros(2 ** len(word))
        block[word_index(word, 2)] = c
        return {sizes: block}

    def product(a, b):
        return {s: x.tolist() for s, x in slotwise_product(a, b, 2, 2).items()}

    ab = term((1, 2), (1, 2, 1), 2.5)
    assert product(term((0, 0), ()), ab) == {(1, 2): ab[1, 2].tolist()}
    assert product(term((1, 0), (1,)), term((0, 1), (2,))) == {(1, 1): [0.0, 1.0, 0.0, 0.0]}
    # Slot by slot: (u_1 v_1, u_2 v_2), not the concatenation u_1 u_2 v_1 v_2.
    got = product(term((1, 1), (1, 2)), term((1, 1), (2, 1)))
    assert got == {(2, 2): term((2, 2), (1, 2, 2, 1))[2, 2].tolist()}
    # A slot longer than N is dropped.
    assert product(term((2, 0), (1, 1)), term((1, 0), (2,))) == {}
