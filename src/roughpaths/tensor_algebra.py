"""Truncated tensor algebra over R^d.

Provides the level-graded series type, the truncated tensor product, shuffle
products, symmetrization, and the coproduct that splits a word over ordered
subset partitions.  The coproduct is computed in one place, as dense sectors,
one per block-size profile (:func:`_coproduct_sectors`); :func:`coproduct`
returns them read-only, and the group-likeness check and the expansion
identity in ``lipschitz`` read them too.  The assignments of word positions
to blocks are enumerated in one place (:func:`_assignment_axes`), and every
sum over them reads a cached table of gather indices made from it: per
(r, k, d) for the coproduct sectors and the shuffle product
(:func:`_assignment_gathers`), and per (r, d), one row per set partition of
the positions, for the composition in ``lipschitz``
(:func:`_set_partition_gathers`).  The sums run in tiles of bounded size
(:func:`_add_assignments`).

Coefficient blocks are dense float64 arrays, one per level; a word
(a_1, ..., a_r) with letters in 1..d addresses the level-r coefficient at
flat index sum((a_j - 1) * d**(r - j)), i.e. C-order flattening.
"""
from __future__ import annotations

import itertools
import math
import numbers
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
    _check_whole(d, "dimension d", 1, MAX_DIM)
    idx = 0
    for a in word:
        idx = idx * d + (a - 1)
    return idx


def index_word(idx: int, r: int, d: int) -> Word:
    """Inverse of :func:`word_index` at level ``r``."""
    _check_whole(d, "dimension d", 1, MAX_DIM)
    _check_whole(r, "word length r", 0, MAX_LEVEL)
    _check_whole(idx, "flat index idx", 0, d**r - 1)
    letters = []
    for _ in range(r):
        letters.append(idx % d + 1)
        idx //= d
    return tuple(reversed(letters))


def level_words(d: int, r: int):
    """All words of length ``r``, in flat-index order."""
    _check_whole(d, "dimension d", 1, MAX_DIM)
    _check_whole(r, "word length r", 0, MAX_LEVEL)
    return itertools.product(range(1, d + 1), repeat=r)


def _is_whole(value) -> bool:
    """Whether ``value`` is an integer, a bool excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_whole(value, name: str, lo: int, hi: int | None = None, error=ValueError) -> int:
    """``value`` as an int when it is an integer (a bool excluded) in lo..hi, or
    at least ``lo`` when ``hi`` is None; else ``error`` naming the argument."""
    if not (_is_whole(value) and lo <= value and (hi is None or value <= hi)):
        bound = f"must be an integer >= {lo}" if hi is None else f"outside {lo}..{hi}"
        raise error(f"{name} {value!r} {bound}")
    return int(value)


def _check_real(value, name: str, lo=-math.inf, hi=math.inf, ends: str = "()") -> float:
    """``value`` as a float when it is a real number (a bool excluded) from lo to hi,
    each end closed or open as ``ends`` ("[]", "(]", ...) says, any finite number by
    default; else a ValueError naming the argument.  NaN fails every comparison."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (ok and (lo <= value if ends[0] == "[" else lo < value)
            and (value <= hi if ends[1] == "]" else value < hi)):
        raise ValueError(f"{name} {value!r} outside {ends[0]}{lo:g}, {hi:g}{ends[1]}")
    return float(value)


def _non_numeric(value, arr: np.ndarray) -> str | None:
    """What keeps ``value``, read as ``arr = np.asarray(value)``, from holding
    numbers, or None when it holds them.  Numbers are an integer or float
    dtype: no bools, strings, objects or complex numbers.  An ndarray is
    judged by its dtype alone; a nested Python sequence also by its entries,
    since numpy promotes a bool listed among numbers to a number."""
    if arr.dtype.kind not in "iuf":
        return f"dtype {arr.dtype}"
    if not isinstance(value, np.ndarray) and _lists_bool(value):
        return "a bool entry"
    return None


def _lists_bool(value) -> bool:
    """Whether a bool (Python or numpy, or a bool array) sits anywhere in a
    nested list or tuple."""
    if isinstance(value, (list, tuple)):
        return any(map(_lists_bool, value))
    return isinstance(value, (bool, np.bool_)) or (isinstance(value, np.ndarray) and value.dtype.kind == "b")


def _check_array(value, name: str, shape=None) -> np.ndarray:
    """``value`` as a float array when its entries are finite numbers (no bools,
    see :func:`_non_numeric`) and, given ``shape``, it has that shape, a None
    entry matching any length; else a ValueError naming the argument."""
    arr = np.asarray(value)
    if shape is not None and (arr.ndim != len(shape) or any(
            dim is not None and dim != got for dim, got in zip(shape, arr.shape))):
        want = str(tuple("n" if dim is None else dim for dim in shape)).replace("'", "")
        raise ValueError(f"{name} has shape {arr.shape}, expected {want}")
    if bad := _non_numeric(value, arr):
        raise ValueError(f"{name} must hold numbers, got {bad}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr.astype(float, copy=False)


def _check_caps(d, N) -> None:
    """The construction caps: d in 1..MAX_DIM and N in 1..MAX_LEVEL, both integers."""
    _check_whole(d, "dimension d", 1, MAX_DIM)
    _check_whole(N, "level N", 1, MAX_LEVEL)


def _frozen_levels(d, N, levels, lead: tuple, top: int, error=ValueError, flat: bool = False) -> tuple:
    """The read-only level blocks 0..top of a level container, checked: the caps
    on (d, N), numbers (a ValueError, see :func:`_non_numeric`), level i of
    shape ``lead + (d**i,)``, finite entries (else ``error``).  A C-contiguous
    float64 block is frozen in place, not copied; with ``flat`` every block is
    copied and raveled first."""
    _check_caps(d, N)
    if len(levels) != top + 1:
        raise ValueError(f"expected {top + 1} level blocks, got {len(levels)}")
    blocks = []
    for i, block in enumerate(levels):
        arr = np.asarray(block)
        if bad := _non_numeric(block, arr):
            raise ValueError(f"level {i} block must hold numbers, got {bad}")
        arr = np.array(arr, dtype=float).ravel() if flat else np.ascontiguousarray(arr, dtype=float)
        if arr.shape != lead + (d**i,):
            raise ValueError(f"level {i} block has shape {arr.shape}, expected {lead + (d**i,)}")
        if not np.isfinite(arr).all():
            raise error(f"level {i} block has non-finite entries")
        arr.setflags(write=False)
        blocks.append(arr)
    return tuple(blocks)


def _max_abs(blocks) -> float:
    """Largest |entry| over an iterable of arrays (0.0 when there is none).

    A NaN entry makes the result NaN: ``max(worst, x)`` would drop a NaN
    that comes after a number, since comparisons with NaN are false.
    """
    return float(np.max([np.max(np.abs(b), initial=0.0) for b in blocks], initial=0.0))


def _check_word(word: Word, d: int, n_max: int) -> None:
    """A word of at most ``n_max`` letters, each an integer in 1..d."""
    _check_whole(len(word), "word length", 0, n_max)
    name = f"word {tuple(word)!r} letter"
    for a in word:
        _check_whole(a, name, 1, d)


class TensorSeries:
    """Element of the level-N truncated tensor algebra over R^d.

    ``levels[i]`` is the dense level-i coefficient block of size ``d**i``.
    Every series goes through this constructor: it copies each block, flat,
    and :func:`_frozen_levels` checks the caps, the block sizes and
    finiteness.  Instances are immutable; all operations return new series.
    """

    __slots__ = ("d", "N", "levels")

    def __init__(self, d: int, N: int, levels):
        blocks = _frozen_levels(d, N, levels, (), N, flat=True)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "levels", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("TensorSeries is immutable")

    @classmethod
    def unit(cls, d: int, N: int) -> "TensorSeries":
        _check_caps(d, N)
        return cls(d, N, [np.ones(1)] + [np.zeros(d**i) for i in range(1, N + 1)])

    @classmethod
    def from_word(cls, word: Word, d: int, N: int, coeff: float = 1.0) -> "TensorSeries":
        _check_caps(d, N)
        _check_word(word, d, N)
        blocks = [np.zeros(d**i) for i in range(N + 1)]
        blocks[len(word)][word_index(word, d)] = _check_real(coeff, "coeff")
        return cls(d, N, blocks)

    def level(self, i: int) -> np.ndarray:
        return self.levels[_check_whole(i, "level i", 0, self.N)]

    def coeff(self, word: Word) -> float:
        _check_word(word, self.d, self.N)
        return float(self.levels[len(word)][word_index(word, self.d)])

    def with_level(self, i: int, block) -> "TensorSeries":
        """Copy of the series with level ``i`` replaced (diagnostics only)."""
        self.level(i)  # checks i
        blocks = list(self.levels)
        blocks[i] = block
        return TensorSeries(self.d, self.N, blocks)

    def max_abs(self) -> float:
        return _max_abs(self.levels)

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        _check_compatible(self, other)
        return TensorSeries(self.d, self.N, [a + b for a, b in zip(self.levels, other.levels)])

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        _check_compatible(self, other)
        return TensorSeries(self.d, self.N, [a - b for a, b in zip(self.levels, other.levels)])

    def __neg__(self) -> "TensorSeries":
        return TensorSeries(self.d, self.N, [-a for a in self.levels])

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
    The leading shape is that of the first term, a^0 (x) b^r.
    """
    term = a[0][..., :, None] * b[r][..., None, :]
    lead = term.shape[:-2]
    acc = np.zeros(lead + (b[r].shape[-1],))
    acc += term.reshape(lead + (-1,))
    for i in range(1, min(r + 1, len(a))):
        acc += (a[i][..., :, None] * b[r - i][..., None, :]).reshape(lead + (-1,))
    return acc


def _truncated_product(a, b) -> list:
    """Truncated tensor product of level lists: level r is sum_{i+j=r} a^i (x) b^j."""
    return [_product_level(a, b, r) for r in range(len(a))]


def _group_inverse_levels(g) -> list:
    """Inverse of level lists with unit scalar part, batched over leading axes.

    The inverse h solves h = unit + (unit - g) (x) h.  With g^0 = 1 the
    factor (unit - g) has zero scalar part, so level r of the right side
    reads only levels below r of h: h^0 = 1, and h^r is level r of
    (unit - g) (x) h with h's own level r taken as zero, one
    :func:`_product_level` per level.  That is the final pass of the finite
    Neumann series (``oracle.group_inverse_reference``), summed in the same
    order, so the two agree bit for bit when g^0 is exactly 1, as it is for
    every lift, increment and segment exponential.  A g^0 within the
    accepted 1e-9 of 1 but not 1 is read as 1: the result is then the
    inverse of g with its scalar part set to 1, which is off from the true
    inverse, and from the Neumann loop, by O(|g^0 - 1|).
    """
    if np.any(np.abs(g[0] - 1.0) > 1e-9):
        raise ValueError("group_inverse requires level-0 coefficient 1")
    u = [np.zeros_like(g[0])] + [-lvl for lvl in g[1:]]
    inv = [np.ones_like(g[0])]
    for r in range(1, len(g)):
        inv.append(_product_level(u, inv + [np.zeros_like(g[r])], r))
    return inv


def tensor_mul(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Truncated tensor product: level r of the result is sum_{i+j=r} a^i (x) b^j."""
    _check_compatible(a, b)
    return TensorSeries(a.d, a.N, _truncated_product(a.levels, b.levels))


def group_inverse(g: TensorSeries) -> TensorSeries:
    """Inverse of a series with unit scalar part, level by level (see
    :func:`_group_inverse_levels`)."""
    return TensorSeries(g.d, g.N, _group_inverse_levels(g.levels))


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
    v = _check_array(v, "increment v", (None,))
    _check_caps(v.size, N)
    return TensorSeries(v.size, N, _segment_levels(v, N))


def shuffle_product(u: Word, w: Word, n_max: int) -> dict:
    """Shuffle product of two words as a word -> multiplicity map.

    Sums over all interleavings preserving the internal order of each word,
    i.e. over the assignments of the positions to u and w with sizes
    (|u|, |w|); coinciding interleavings accumulate multiplicity.  Letters
    lie in 1..MAX_DIM; the interleavings are read off the gather table of
    the alphabet 1..max letter, in assignment order.
    """
    uw = tuple(u) + tuple(w)
    _check_word(uw, MAX_DIM, _check_whole(n_max, "level cap n_max", 0, MAX_LEVEL))
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


def _gather_rows(orders, r: int, d: int) -> np.ndarray:
    """Read-only (len(orders), d**r) gather indices: row a maps each flat index
    c of a level-r block to the flat index that the transpose by ``orders[a]``
    reads there, so the transposed block flattened is ``flat[idx[a]]``."""
    base = np.arange(d**r).reshape((d,) * r)
    idx = np.array([base.transpose(order).ravel() for order in orders]).reshape(len(orders), d**r)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _assignment_gathers(r: int, k: int, d: int) -> MappingProxyType:
    """The position assignments of :func:`_assignment_axes` as gather indices,
    {sizes: idx}, row a of ``idx`` the transpose by assignment a's axis order
    (see :func:`_gather_rows`)."""
    return MappingProxyType({sizes: _gather_rows(orders, r, d)
                             for sizes, orders in _assignment_axes(r, k).items()})


@lru_cache(maxsize=None)
def _set_partition_axes(r: int) -> MappingProxyType:
    """The set partitions of r >= 1 positions, one position assignment each.

    Returns {sizes: (axis orders)} over the non-decreasing block-size
    profiles with no empty block, the integer partitions of r, arity j =
    len(sizes) ascending.  The orders are those of :func:`_assignment_axes`
    at arity j, in its order, kept when the blocks of equal size are ordered
    by their smallest position: of the j! assignments that label the blocks
    of one set partition, exactly one has sorted sizes and such ties.
    """
    table = {}
    for j in range(1, r + 1):
        for sizes, orders in _assignment_axes(r, j).items():
            if 0 in sizes or list(sizes) != sorted(sizes):
                continue
            # Each block lists its positions ascending, so its first entry is its smallest.
            starts = list(itertools.accumulate(sizes, initial=0))
            ties = [i for i in range(j - 1) if sizes[i] == sizes[i + 1]]
            table[sizes] = tuple(order for order in orders
                                 if all(order[starts[i]] < order[starts[i + 1]] for i in ties))
    return MappingProxyType(table)


@lru_cache(maxsize=None)
def _set_partition_gathers(r: int, d: int) -> MappingProxyType:
    """The set partitions of :func:`_set_partition_axes` as gather indices,
    {sizes: idx}: row a of ``idx`` is the transpose by the inverse of the
    a-th axis order, which moves a block listed block by block back to word
    order."""
    return MappingProxyType({sizes: _gather_rows([np.argsort(order) for order in orders], r, d)
                             for sizes, orders in _set_partition_axes(r).items()})


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
            part.take(idx[:, c:c + cols], axis=0, out=buf[1:], mode="clip")
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
    The arity k is an integer in 1..MAX_LEVEL + 1: a word has at most N
    letters, so a larger k only adds empty slots, while the work grows as k**N.
    """
    _check_whole(k, "arity k", 1, MAX_LEVEL + 1)
    sectors = _coproduct_sectors(xi.levels, k)
    for block in sectors.values():
        block.setflags(write=False)
    return MappingProxyType(sectors)


def _group_like_deviation(levels) -> float:
    """Max gap of each coproduct sector (l_1..l_k) to xi^{l_1} box ... box xi^{l_k}, batched."""
    lead = levels[0].shape[:-1]

    def box(sizes):
        return reduce(lambda x, y: (x[..., :, None] * y[..., None, :]).reshape(lead + (-1,)),
                      (levels[l] for l in sizes))

    return _max_abs(block - box(sizes) for k in range(2, len(levels))
                    for sizes, block in _coproduct_sectors(levels, k).items())


def is_group_like(xi: TensorSeries, tol: float) -> tuple[bool, float]:
    """Whether the coproduct of ``xi`` splits as the sum of level box-products.

    For every arity k in 2..N, compares the coproduct image against
    sum over level profiles (l_1, ..., l_k), total <= N, of
    xi^{l_1} box ... box xi^{l_k}, sector by sector.  Returns
    (within tolerance, max coefficient deviation).
    """
    tol = _check_real(tol, "tol", 0, math.inf, "[]")
    if abs(float(xi.levels[0][0]) - 1.0) > 1e-9:
        raise ValueError("is_group_like requires level-0 coefficient 1")
    worst = _group_like_deviation(xi.levels)
    return worst <= tol, worst


def symmetrize(block, dim: int, k: int) -> np.ndarray:
    """Average a homogeneous k-tensor block over all slot permutations.

    ``block`` may carry leading batch axes; the last axis must have size
    ``dim**k`` and is treated as the flattened k-tensor.
    """
    _check_whole(dim, "dimension dim", 1)
    _check_whole(k, "degree k", 0)
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
    return float(np.sum(np.abs(xi.level(i))))
