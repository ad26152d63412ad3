"""Truncated tensor algebra over R^d.

Provides the level-graded series type, the truncated tensor product, shuffle
products, symmetrization, and the coproduct that splits a word over ordered
subset partitions.  The coproduct is computed in one place, as dense sectors,
one per block-size profile (:func:`_coproduct_sectors`); :func:`coproduct`
returns them read-only, and the group-likeness check and the expansion
identity in ``lipschitz`` read them too.  Every sum over the assignments of
word positions to blocks reads one cached table of gather indices per
(r, k, d) (:func:`_assignment_gathers`): the coproduct sectors, the
shuffle product and the composition in ``lipschitz``, whose sums run in
tiles of bounded size (:func:`_add_assignments`).

Coefficient blocks are dense float64 arrays, one per level; a word
(a_1, ..., a_r) with letters in 1..d addresses the level-r coefficient at
flat index sum((a_j - 1) * d**(r - j)), i.e. C-order flattening.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

# Construction caps: d**N * k-tuple combinatorics stays at desk scale.
MAX_DIM = 4
MAX_LEVEL = 5
# Largest gather buffer of a position-assignment sum, in doubles.
_GATHER_BLOCK = 2**14

#: A basis word: tuple of letters in 1..d.  Empty tuple is the unit word.
Word = tuple


def word_index(word: Word, d: int) -> int:
    """Flat index of a word inside its level block."""
    idx = 0
    for a in word:
        idx = idx * d + (a - 1)
    return idx


def index_word(idx: int, r: int, d: int) -> Word:
    """Inverse of :func:`word_index` at level ``r``."""
    letters = []
    for _ in range(r):
        letters.append(idx % d + 1)
        idx //= d
    return tuple(reversed(letters))


def level_words(d: int, r: int):
    """All words of length ``r``, in flat-index order."""
    return itertools.product(range(1, d + 1), repeat=r)


def _check_word(word: Word, d: int, n_max: int) -> None:
    if len(word) > n_max:
        raise ValueError(f"word length {len(word)} exceeds level cap {n_max}")
    if any(not (1 <= a <= d) for a in word):
        raise ValueError(f"word {word!r} has letters outside 1..{d}")


class TensorSeries:
    """Element of the level-N truncated tensor algebra over R^d.

    ``levels[i]`` is the dense level-i coefficient block of size ``d**i``.
    Instances are immutable; all operations return new series.
    """

    __slots__ = ("d", "N", "levels")

    def __init__(self, d: int, N: int, levels):
        if not (1 <= d <= MAX_DIM):
            raise ValueError(f"dimension {d} outside 1..{MAX_DIM}")
        if not (1 <= N <= MAX_LEVEL):
            raise ValueError(f"level {N} outside 1..{MAX_LEVEL}")
        if len(levels) != N + 1:
            raise ValueError(f"expected {N + 1} level blocks, got {len(levels)}")
        blocks = []
        for i, block in enumerate(levels):
            arr = np.array(block, dtype=float).ravel()
            if arr.size != d**i:
                raise ValueError(f"level {i} block has {arr.size} entries, expected {d**i}")
            arr.setflags(write=False)
            blocks.append(arr)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "levels", tuple(blocks))

    def __setattr__(self, name, value):
        raise AttributeError("TensorSeries is immutable")

    @classmethod
    def _wrap(cls, d: int, N: int, blocks) -> "TensorSeries":
        # Internal fast path: trusts shapes, freezes without re-copying.
        self = object.__new__(cls)
        frozen = []
        for arr in blocks:
            arr = np.ascontiguousarray(arr, dtype=float)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "levels", tuple(frozen))
        return self

    @classmethod
    def unit(cls, d: int, N: int) -> "TensorSeries":
        return cls._wrap(d, N, [np.ones(1)] + [np.zeros(d**i) for i in range(1, N + 1)])

    @classmethod
    def from_word(cls, word: Word, d: int, N: int, coeff: float = 1.0) -> "TensorSeries":
        _check_word(word, d, N)
        blocks = [np.zeros(d**i) for i in range(N + 1)]
        blocks[len(word)][word_index(word, d)] = coeff
        return cls._wrap(d, N, blocks)

    def level(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.N:
            raise ValueError(f"level {i} outside 0..{self.N}")
        return self.levels[i]

    def coeff(self, word: Word) -> float:
        _check_word(word, self.d, self.N)
        return float(self.levels[len(word)][word_index(word, self.d)])

    def with_level(self, i: int, block) -> "TensorSeries":
        """Copy of the series with level ``i`` replaced (diagnostics only)."""
        if not 0 <= i <= self.N:
            raise ValueError(f"level {i} outside 0..{self.N}")
        arr = np.array(block, dtype=float).ravel()
        if arr.size != self.d**i:
            raise ValueError("replacement block has wrong size")
        blocks = list(self.levels)
        blocks[i] = arr
        return TensorSeries._wrap(self.d, self.N, blocks)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(b))) if b.size else 0.0 for b in self.levels)

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        _check_compatible(self, other)
        return TensorSeries._wrap(self.d, self.N, [a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        _check_compatible(self, other)
        return TensorSeries._wrap(self.d, self.N, [a - b for a, b in zip(self.levels, other.levels)])

    def __neg__(self) -> "TensorSeries":
        return TensorSeries._wrap(self.d, self.N, [-a for a in self.levels])

    def to_json_dict(self) -> dict:
        return {"d": self.d, "N": self.N, "levels": [b.tolist() for b in self.levels]}

    def __repr__(self) -> str:
        return f"TensorSeries(d={self.d}, N={self.N}, |levels|={[round(admissible_norm(self, i), 6) for i in range(self.N + 1)]})"


def _check_compatible(a: TensorSeries, b: TensorSeries) -> None:
    if a.d != b.d or a.N != b.N:
        raise ValueError(f"incompatible series: (d={a.d},N={a.N}) vs (d={b.d},N={b.N})")


def _product_level(a, b, r: int) -> np.ndarray:
    """Level r of the product of level lists, broadcast over leading axes: the sum of
    a^i (x) b^(r-i) over the levels i <= r that ``a`` holds, each with trailing axis
    d**i, added up in ascending i so that batched and single products agree bit for bit.
    """
    lead = np.broadcast_shapes(a[0].shape[:-1], b[0].shape[:-1])
    acc = np.zeros(lead + (b[r].shape[-1],))
    for i in range(min(r + 1, len(a))):
        acc += (a[i][..., :, None] * b[r - i][..., None, :]).reshape(lead + (-1,))
    return acc


def _truncated_product(a, b) -> list:
    """Truncated tensor product of level lists: level r is sum_{i+j=r} a^i (x) b^j."""
    return [_product_level(a, b, r) for r in range(len(a))]


def _group_inverse_levels(g) -> list:
    """Inverse of level lists with unit scalar part, batched over leading axes.

    Computed from the finite Neumann series of (unit - g), which is exact in
    the truncated algebra because (unit - g) has zero scalar part and is
    therefore nilpotent.
    """
    if np.any(np.abs(g[0] - 1.0) > 1e-9):
        raise ValueError("group_inverse requires level-0 coefficient 1")
    unit = [np.ones_like(g[0])] + [np.zeros_like(lvl) for lvl in g[1:]]
    u = [a - b for a, b in zip(unit, g)]
    inv = unit
    for _ in range(len(g) - 1):
        inv = [a + b for a, b in zip(unit, _truncated_product(u, inv))]
    return inv


def tensor_mul(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Truncated tensor product: level r of the result is sum_{i+j=r} a^i (x) b^j."""
    _check_compatible(a, b)
    return TensorSeries._wrap(a.d, a.N, _truncated_product(a.levels, b.levels))


def group_inverse(g: TensorSeries) -> TensorSeries:
    """Inverse of a series with unit scalar part (finite Neumann series)."""
    return TensorSeries._wrap(g.d, g.N, _group_inverse_levels(g.levels))


def _segment_levels(v, N: int) -> list:
    """Signatures of linear segments with increments ``v`` (..., d) as level
    lists, batched over leading axes: level k is v^(x)k / k!."""
    lead = v.shape[:-1]
    blocks = [np.ones(lead + (1,))]
    for k in range(1, N + 1):
        blocks.append((blocks[-1][..., :, None] * v[..., None, :]).reshape(lead + (-1,)) / k)
    return blocks


def exp_segment(v, N: int) -> TensorSeries:
    """Signature of a single linear segment with increment ``v``: level k is v^(x)k / k!."""
    v = np.asarray(v, dtype=float).ravel()
    return TensorSeries._wrap(v.size, N, _segment_levels(v, N))


def shuffle_product(u: Word, w: Word, n_max: int) -> dict:
    """Shuffle product of two words as a word -> multiplicity map.

    Sums over all interleavings preserving the internal order of each word,
    i.e. over the assignments of the positions to u and w with sizes
    (|u|, |w|); coinciding interleavings accumulate multiplicity.  Letters
    lie in 1..MAX_DIM; the interleavings are read off the gather table of
    the alphabet 1..max letter, in assignment order.
    """
    uw = tuple(u) + tuple(w)
    if len(uw) > n_max:
        raise ValueError(f"combined length {len(uw)} exceeds level cap {n_max}")
    _check_word(uw, MAX_DIM, n_max)
    d = max(uw, default=1)
    # Row a gathers the transpose by assignment a's axis order; the
    # interleaving is the inverse transpose, which moves flat index s to idx[a, s].
    out: dict = {}
    for idx in _assignment_gathers(len(uw), 2, d)[len(u), len(w)][:, word_index(uw, d)]:
        key = index_word(int(idx), len(uw), d)
        out[key] = out.get(key, 0.0) + 1.0
    return out


@lru_cache(maxsize=None)
def _assignment_axes(r: int, k: int):
    """Assignments of r positions to k blocks (base-k counting), by block-size profile.

    Returns {sizes: [axis orders]} where each axis order lists the positions
    of block 1 ascending, then block 2, etc.  Transposing a level-r cube by
    such an order and flattening yields the concatenated-subwords relabeling.
    """
    grouped: dict = {}
    for assign in itertools.product(range(k), repeat=r):
        order = tuple(sorted(range(r), key=assign.__getitem__))
        grouped.setdefault(tuple(map(assign.count, range(k))), []).append(order)
    return grouped


@lru_cache(maxsize=None)
def _assignment_gathers(r: int, k: int, d: int, inverse: bool = False) -> MappingProxyType:
    """The position assignments of :func:`_assignment_axes` as gather indices.

    Returns {sizes: idx}, ``idx`` a read-only (assignments, d**r) integer
    array whose row a maps each flat index c of a level-r block to the flat
    index that the transpose by assignment a's axis order reads there: the
    transposed block flattened is ``flat[idx[a]]``.  With ``inverse`` the
    rows are the inverse permutations, the transposes by the inverse orders.
    """
    base = np.arange(d**r).reshape((d,) * r)
    table = {}
    for sizes, orders in _assignment_axes(r, k).items():
        idx = np.array([base.transpose(np.argsort(order) if inverse else order).ravel()
                        for order in orders]).reshape(len(orders), d**r)
        idx.setflags(write=False)
        table[sizes] = idx
    return MappingProxyType(table)


def _add_assignments(acc, src, idx) -> None:
    """Add the gathered rows ``src[idx[a]]`` to ``acc``, a = 0, 1, ... in turn.

    Word axis leading: ``acc`` is (words, batch) and ``src`` a C-contiguous
    (words, batch) block, so one gathered word is one contiguous run of the
    batch.  Every entry is acc + src[idx[0]] + src[idx[1]] + ..., added in
    that order, so the sum equals one transpose per assignment bit for bit.
    Each tile gathers into one buffer of at most ``_GATHER_BLOCK`` doubles
    (or of one word of one batch column, when that is larger), the tile of
    ``acc`` first, and sums it along its leading axis.
    """
    n, (words, batch) = len(idx) + 1, acc.shape
    # The batch is split only when one word of it overflows a tile; each part
    # is then copied out of src, words * width doubles.
    width = max(1, batch if n * batch <= _GATHER_BLOCK else _GATHER_BLOCK // max(n, words))
    cols = max(1, _GATHER_BLOCK // (n * width))
    for b in range(0, batch, width):
        part = src if width >= batch else np.ascontiguousarray(src[:, b:b + width])
        for c in range(0, words, cols):
            out = acc[c:c + cols, b:b + width]
            buf = np.empty((n,) + out.shape)
            buf[0] = out
            # Indices are in range; "clip" spares the buffered copy "raise" makes.
            np.take(part, idx[:, c:c + cols], axis=0, out=buf[1:], mode="clip")
            if out.size > 1:
                np.add.reduce(buf, axis=0, out=out)
            else:  # numpy sums a lone run pairwise, not in order
                out[...] = np.add.accumulate(buf, axis=0)[-1]


def _coproduct_sectors(levels, k: int) -> dict:
    """Arity-k coproduct of level lists as dense sectors, batched over leading axes.

    Returns {(l_1, ..., l_k): block}, one per block-size profile of total
    r <= N.  At the flat index of the concatenated subwords (u_1, ..., u_k)
    the block sums the level-r coefficients over the position assignments
    splitting a word into u_1, ..., u_k, in assignment order: one gather
    through the cached table of :func:`_assignment_gathers` per profile.
    """
    d, lead = levels[1].shape[-1], levels[0].shape[:-1]
    sectors = {}
    for r, level in enumerate(levels):
        src = np.ascontiguousarray(level.reshape(-1, d**r).T)
        for sizes, idx in _assignment_gathers(r, k, d).items():
            acc = np.zeros(src.shape)
            _add_assignments(acc, src, idx)
            sectors[sizes] = np.ascontiguousarray(acc.T).reshape(lead + (d**r,))
    return sectors


@lru_cache(maxsize=None)
def _basis_sectors(d: int, r: int, k: int) -> MappingProxyType:
    """Arity-k coproduct sectors of the d**r basis words of level r, word axis
    leading, read-only and cached per (d, r, k).

    These are the sectors of :func:`_coproduct_sectors` of the level-r
    identity batch at the profiles of total r, the only ones at which a basis
    word of length r is nonzero.  The caps bound the cache: at d = 4, r = 4
    the blocks of arities 1..4 hold 29 MB.
    """
    batch = [np.zeros((d**r, d**i)) for i in range(r)] + [np.eye(d**r)]
    sectors = {}
    for sizes, block in _coproduct_sectors(batch, k).items():
        if sum(sizes) == r:
            block.setflags(write=False)
            sectors[sizes] = block
    return MappingProxyType(sectors)


def coproduct(xi: TensorSeries, k: int) -> MappingProxyType:
    """Arity-k coproduct: splits each word over all ordered subset partitions.

    A word w of length r contributes its coefficient to every k-tuple
    (w|I_1, ..., w|I_k) where (I_1, ..., I_k) runs over ordered partitions of
    the positions into k possibly-empty subsets; extended linearly over levels.
    Returns the read-only sectors of :func:`_coproduct_sectors`,
    {(l_1, ..., l_k): block}, the tuple (u_1, ..., u_k) of sector
    (|u_1|, ..., |u_k|) at the flat index of the concatenation u_1 ... u_k.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    sectors = _coproduct_sectors(xi.levels, k)
    for block in sectors.values():
        block.setflags(write=False)
    return MappingProxyType(sectors)


def _group_like_deviation(levels) -> float:
    """Max gap of each coproduct sector (l_1..l_k) to xi^{l_1} box ... box xi^{l_k}, batched."""
    lead = levels[0].shape[:-1]
    worst = 0.0
    for k in range(2, len(levels)):
        for sizes, block in _coproduct_sectors(levels, k).items():
            rhs = reduce(lambda x, y: (x[..., :, None] * y[..., None, :]).reshape(lead + (-1,)),
                         (levels[l] for l in sizes))
            worst = max(worst, float(np.max(np.abs(block - rhs))))
    return worst


def is_group_like(xi: TensorSeries, tol: float) -> tuple[bool, float]:
    """Whether the coproduct of ``xi`` splits as the sum of level box-products.

    For every arity k in 2..N, compares the coproduct image against
    sum over level profiles (l_1, ..., l_k), total <= N, of
    xi^{l_1} box ... box xi^{l_k}, sector by sector.  Returns
    (within tolerance, max coefficient deviation).
    """
    if abs(float(xi.levels[0][0]) - 1.0) > 1e-9:
        raise ValueError("is_group_like requires level-0 coefficient 1")
    worst = _group_like_deviation(xi.levels)
    return worst <= tol, worst


def symmetrize(block, dim: int, k: int) -> np.ndarray:
    """Average a homogeneous k-tensor block over all slot permutations.

    ``block`` may carry leading batch axes; the last axis must have size
    ``dim**k`` and is treated as the flattened k-tensor.
    """
    a = np.asarray(block, dtype=float)
    if a.shape[-1] != dim**k:
        raise ValueError(f"last axis has {a.shape[-1]} entries, expected {dim**k}")
    if k <= 1:
        return a.copy()
    lead = a.shape[:-1]
    cube = a.reshape(lead + (dim,) * k)
    nlead = len(lead)
    acc = np.zeros_like(cube)
    for perm in itertools.permutations(range(k)):
        axes = tuple(range(nlead)) + tuple(nlead + p for p in perm)
        acc += cube.transpose(axes)
    return (acc / math.factorial(k)).reshape(a.shape)


def admissible_norm(xi: TensorSeries, i: int) -> float:
    """Level-i norm: l1 over the coordinate basis (a cross norm, permutation invariant)."""
    if not (0 <= i <= xi.N):
        raise ValueError(f"level {i} outside 0..{xi.N}")
    return float(np.sum(np.abs(xi.levels[i])))
