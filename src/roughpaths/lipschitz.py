"""Lipschitz collections and their action on controlled paths.

A Lipschitz function carries its value and all derivative levels as
symmetric multilinear blocks with exact, hand-coded derivatives (constant,
linear, polynomial, and smooth ridge combinations of sin/cos/exp).  The
composition of such a function with a controlled path produces the
derivative paths of the image via the coproduct expansion, a Faa di Bruno
sum over ordered partitions of the word positions weighted by 1/j!.  Since
F^j is symmetric, the j! orders of the blocks of one set partition give equal
terms, so the sum is taken over set partitions, unweighted (the set-partition
form of Faa di Bruno's formula; M. Hardy, Electron. J. Combin. 13, 2006): at
word length 4, 15 set partitions in place of 75 ordered ones.  It is
evaluated grouped by non-decreasing block-size profile l_1 <= ... <= l_j, an
integer partition of the word length: one batched contraction of F^j against
Y^{l_1}, ..., Y^{l_j} per profile, then one tiled gather that sums the set
partitions with that profile through the cached table of ``tensor_algebra``,
so the count of numpy calls per level grows neither with the d**r word
columns nor with the partitions.  The module also exposes a
numerical verifier for the symmetrized expansion identity that makes the
composition work, one check per word length r: the d**r basis words of that
level enter as one batch.  One slot-by-slot pass over the cached coproduct
sectors of the basis words, with partial sums keyed by level total, gives
both the left side and the truncation term; the independent main term
contracts the dense coproduct sectors of the driver increment times the
word, one slot map per block.
Probes check Taylor-remainder consistency and composed-remainder regularity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .controlled_path import (
    ControlledPath,
    _check_pair,
    _fill_leading,
    _remainder_blocks,
)
from .rough_path import GeometricRoughPath, _pair_plan, _scan_pairs
from .tensor_algebra import (
    TensorSeries,
    _add_assignments,
    _basis_sectors,
    _check_array,
    _check_real,
    _check_whole,
    _coproduct_sectors,
    _max_abs,
    _set_partition_gathers,
    _truncated_product,
    symmetrize,
)


class LipFunction:
    """A function together with its derivative levels 0..n_levels, Lip-gamma
    with gamma = n_levels + 1.

    The evaluator contract: ``evaluator(top, ys)`` takes an integer
    0 <= top <= n_levels and a (P, dim_in) float batch of points, and returns
    the list of levels 0..top at those points, level j a symmetric
    multilinear block of shape (P, dim_out, dim_in**j).  Evaluators must be
    pure, and each block must be symmetric in its j input slots: composition
    reads every set partition of the word positions in one slot order only,
    so a block that is not symmetric gives a wrong composed path.
    ``eval_levels`` is the one checked route to the evaluator; ``eval`` and
    ``eval_at`` read one level through it.
    """

    def __init__(self, dim_in: int, dim_out: int, n_levels: int, evaluator,
                 label: str = "custom"):
        self.dim_in = _check_whole(dim_in, "dim_in", 1)
        self.dim_out = _check_whole(dim_out, "dim_out", 1)
        self.n_levels = _check_whole(n_levels, "n_levels", 0)
        self.label = label
        self._evaluator = evaluator

    def eval_levels(self, top: int, ys) -> list:
        """Levels 0..top at a (P, dim_in) batch of points, from one evaluator call."""
        top = _check_whole(top, "derivative level top", 0, self.n_levels)
        ys = _check_array(np.atleast_2d(ys), "points ys", (None, self.dim_in))
        levels = list(self._evaluator(top, ys))
        got = [np.shape(block) for block in levels]
        expected = [(ys.shape[0], self.dim_out, self.dim_in**j) for j in range(top + 1)]
        if got != expected:
            raise ValueError(f"evaluator returned {got}, expected {expected}")
        return levels

    def eval(self, j: int, ys) -> np.ndarray:
        """Level-j block at a batch of points, shape (P, dim_out, dim_in**j)."""
        j = _check_whole(j, "derivative level j", 0, self.n_levels)
        return self.eval_levels(j, ys)[j]

    def eval_at(self, j: int, y) -> np.ndarray:
        """Level-j block at a single point, shape (dim_out, dim_in**j)."""
        return self.eval(j, _check_array(y, "point y", (self.dim_in,))[None])[0]

    def __repr__(self) -> str:
        return (f"LipFunction({self.label}, W=R^{self.dim_in}, U=R^{self.dim_out}, "
                f"levels=0..{self.n_levels})")


def constant(value, dim_in: int, n_levels: int) -> LipFunction:
    value = _check_array(value, "constant value").ravel()

    def ev(top, ys):
        p = ys.shape[0]
        levels = [np.broadcast_to(value[None, :, None], (p, value.size, 1)).copy()]
        return levels + [np.zeros((p, value.size, dim_in**j)) for j in range(1, top + 1)]

    return LipFunction(dim_in, value.size, n_levels, ev, label="constant")


def linear(matrix, offset=None, n_levels: int = 1) -> LipFunction:
    A = np.atleast_2d(_check_array(matrix, "linear matrix"))
    dim_out, dim_in = A.shape
    b = np.zeros(dim_out) if offset is None else _check_array(offset, "linear offset").ravel()
    if b.size != dim_out:
        raise ValueError(f"offset has {b.size} entries, the matrix {dim_out} rows")

    def ev(top, ys):
        p = ys.shape[0]
        levels = [(ys @ A.T + b)[:, :, None]]
        if top >= 1:
            levels.append(np.broadcast_to(A[None], (p, dim_out, dim_in)).copy())
        return levels + [np.zeros((p, dim_out, dim_in**j)) for j in range(2, top + 1)]

    return LipFunction(dim_in, dim_out, n_levels, ev, label="linear")


def identity(dim: int, n_levels: int = 1) -> LipFunction:
    return linear(np.eye(_check_whole(dim, "dimension dim", 1)), n_levels=n_levels)


def polynomial(dim_in: int, dim_out: int, coeffs: dict | list, n_levels: int) -> LipFunction:
    """Multivariate polynomial with exact derivative levels.

    ``coeffs`` maps exponent tuples (length dim_in, non-negative whole
    numbers) to output vectors, as a dict or as a list of pairs; the field is
    the sum of the listed monomials, so a repeated exponent tuple adds up.
    """
    monos = []

    def ev(top, ys):
        levels = []
        for j in range(top + 1):
            out = np.zeros((ys.shape[0], dim_out, dim_in**j))
            for flat, word in enumerate(itertools.product(range(dim_in), repeat=j)):
                counts = np.bincount(np.array(word, dtype=int), minlength=dim_in)
                for expo, vec in monos:
                    if np.any(counts > expo):
                        continue
                    fall = 1.0
                    for m, q in zip(expo, counts):
                        for step in range(q):
                            fall *= m - step
                    powers = np.prod(ys ** (expo - counts), axis=1)
                    out[:, :, flat] += np.outer(fall * powers, vec)
            levels.append(out)
        return levels

    # The function checks the dimensions and n_levels before the monomials are read against them.
    field = LipFunction(dim_in, dim_out, n_levels, ev, label="polynomial")
    for expo, vec in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
        if len(expo) != dim_in or any(m < 0 or not float(m).is_integer() for m in expo):
            raise ValueError(f"bad exponent tuple {expo!r}")
        expo = tuple(int(m) for m in expo)
        vec = _check_array(vec, "monomial value").ravel()
        if vec.size != dim_out:
            raise ValueError("monomial value has wrong output dimension")
        monos.append((np.array(expo), vec))
    return field


RIDGE_KINDS = ("sin", "cos", "exp")


def ridge(dim_in: int, dim_out: int, terms, n_levels: int) -> LipFunction:
    """Sum of smooth ridge terms coef * g(weight . y + phase), g in sin/cos/exp.

    Every derivative level is exact: level j contributes
    coef * g^(j)(weight . y + phase) * weight^(x)j.
    """
    def g_derivs(kind, x, top):
        """g^(j)(x) for j = 0..top.  sin and cos are taken at x + j pi/2 on
        every level: the derivative cycle (+-sin x, +-cos x) moves the last bits."""
        if kind == "exp":
            return [np.exp(x)] * (top + 1)
        g = np.sin if kind == "sin" else np.cos
        return [g(x + j * np.pi / 2.0) for j in range(top + 1)]

    def ev(top, ys):
        p = ys.shape[0]
        levels = [np.zeros((p, dim_out, dim_in**j)) for j in range(top + 1)]
        for (_, kind, weight, phase), outer in zip(parsed, outers):
            for out, vals, block in zip(levels, g_derivs(kind, ys @ weight + phase, top), outer):
                out += vals[:, None, None] * block[None]
        return levels

    # The function checks the dimensions and n_levels before the terms are read against them.
    field = LipFunction(dim_in, dim_out, n_levels, ev, label="ridge")
    parsed = []
    for term in terms:
        coef = _check_array(term["coef"], "ridge coef").ravel()
        weight = _check_array(term["weight"], "ridge weight").ravel()
        kind = term["kind"]
        phase = _check_real(term.get("phase", 0.0), "ridge phase")
        if kind not in RIDGE_KINDS:
            raise ValueError(f"unknown ridge kind {kind!r}")
        if coef.size != dim_out or weight.size != dim_in:
            raise ValueError("ridge term dimensions do not match")
        parsed.append((coef, kind, weight, phase))
    # coef (x) weight^(x)j per term and level, built once.
    outers = [[np.multiply.outer(coef, reduce(lambda a, b: np.multiply.outer(a, b).ravel(),
                                              [weight] * j, np.ones(1)))
               for j in range(n_levels + 1)] for coef, _, weight, _ in parsed]
    return field


def from_config(spec: dict, n_levels: int) -> LipFunction:
    """Build a field from a field spec the CLI's config table has checked."""
    kind = spec["kind"]
    if kind == "constant":
        return constant(spec["value"], spec["dim_in"], n_levels)
    if kind == "linear":
        return linear(spec["matrix"], spec.get("offset"), n_levels)
    if kind == "polynomial":
        coeffs = [(entry["exponents"], entry["value"]) for entry in spec["coeffs"]]
        return polynomial(spec["dim_in"], spec["dim_out"], coeffs, n_levels)
    if kind == "builtin":
        return ridge(spec["dim_in"], spec["dim_out"], spec["terms"], n_levels)
    raise ValueError(f"unknown field kind {kind!r}")


def _taylor_defects(F: LipFunction, j: int, at_x, at_y, steps) -> np.ndarray:
    """F^j(y) minus its expansion around x through the available levels, for a
    batch of sample pairs: ``at_x`` holds the levels 0..n_levels at the points
    x, ``at_y`` level j at the points y, and ``steps`` the (P, dim_in) steps
    y - x.  Returns (P, dim_out, dim_in**j)."""
    P = steps.shape[0]
    out = at_y.copy()
    powers = np.ones((P, 1))
    for l in range(0, F.n_levels - j + 1):
        block = at_x[j + l].reshape(P, F.dim_out, F.dim_in**l, F.dim_in**j)
        out -= np.einsum("pelk,pl->pek", block, powers) / math.factorial(l)
        powers = (steps[:, :, None] * powers[:, None, :]).reshape(P, -1)
    return out


def taylor_remainder(F: LipFunction, j: int, x, y) -> np.ndarray:
    """Defect of the level-j expansion of F around x evaluated at y.

    Returns F^j(y) minus the expansion through the available levels, as a
    (dim_out, dim_in**j) block.
    """
    x = _check_array(x, "point x", (F.dim_in,))
    y = _check_array(y, "point y", (F.dim_in,))
    at_y = F.eval(j, y[None])
    return _taylor_defects(F, j, F.eval_levels(F.n_levels, x[None]), at_y, (y - x)[None])[0]


@dataclass(frozen=True)
class LipReport:
    level_norms: list
    remainder_ratios: list
    declared: float | None
    violated: bool


def lip_norm_check(F: LipFunction, lo, hi, declared: float | None = None,
                   sample_count: int = 64, rng=None) -> LipReport:
    """Empirical level norms and remainder ratios on a box; report-only.

    The level-j remainder ratio divides by |y - x|^(gamma - j), gamma =
    n_levels + 1.  Sampling can falsify a ``declared`` bound (None, or a
    number >= 0) on the Lip norm, never prove it.  Each end of the box [lo, hi]
    is one finite number or one per input coordinate, with lo <= hi and a
    finite width hi - lo, and ``sample_count`` an integer >= 1; a field or an
    expansion that overflows on the box is a ValueError.  Every level at the
    sampled points x and y comes from two evaluator calls, one per point set,
    and the remainders of all samples from one batched expansion per level.
    """
    lo, hi = (np.broadcast_to(_check_array(end, f"box {name}", (F.dim_in,) if np.ndim(end) else ()),
                              (F.dim_in,)) for end, name in ((lo, "lo"), (hi, "hi")))
    if not (lo <= hi).all():
        raise ValueError(f"box lo {lo.tolist()} exceeds hi {hi.tolist()}")
    box = f"box lo {lo.tolist()} to hi {hi.tolist()}"
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo).all():
            raise ValueError(f"{box} has a width hi - lo that is not finite")
    sample_count = _check_whole(sample_count, "sample_count", 1)
    if declared is not None:
        declared = _check_real(declared, "declared", 0, math.inf, "[)")
    rng = np.random.default_rng(0) if rng is None else rng
    # An overflow in the samples, the field or its expansion fails the
    # finiteness check of the norms and ratios below.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = rng.uniform(lo, hi, (sample_count, F.dim_in))
        ys = rng.uniform(lo, hi, (sample_count, F.dim_in))
        at_x, at_y = F.eval_levels(F.n_levels, xs), F.eval_levels(F.n_levels, ys)
        level_norms = [float(np.max(np.abs(blocks).reshape(sample_count, -1).sum(axis=1)))
                       for blocks in at_x]
        gaps = np.abs(ys - xs).sum(axis=1)
        far = gaps >= 1e-9
        ratios = []
        for j in range(F.n_levels + 1):
            defects = _taylor_defects(F, j, at_x, at_y[j], ys - xs)
            ratios.append(_max_abs([np.abs(defects).reshape(sample_count, -1).sum(axis=1)[far]
                                    / gaps[far] ** (F.n_levels + 1 - j)]))
    if not np.isfinite(level_norms).all():
        raise ValueError(f"the field overflowed on the {box}")
    if not np.isfinite(ratios).all():
        raise ValueError(f"the field's expansion overflowed on the {box}")
    empirical = _max_abs(level_norms + ratios)
    violated = declared is not None and not empirical <= declared * (1 + 1e-9)
    return LipReport(level_norms, ratios, declared, violated)


def _composed_level(f_blocks, y_levels, r: int) -> np.ndarray:
    """Level r >= 1 of a composition, batched over the leading grid axis.

    ``f_blocks[j]`` is F^j at the grid points, shape (P, u, e**j), and
    ``y_levels[i]`` is level i of the controlled path, shape (P, e, d**i);
    returns (P, u, d**r).  The Faa di Bruno sum runs over set partitions of
    the r word positions, grouped by non-decreasing block-size profile
    (l_1 <= ... <= l_j): F^j is contracted against Y^{l_j}, ..., Y^{l_1} one
    factor at a time, once per profile.  The result lists the positions of
    block 1, then block 2, etc.; one tiled gather through the cached table of
    ``tensor_algebra._set_partition_gathers`` moves it back to word order for
    every set partition with that profile and adds them in turn, word axis
    leading, bit for bit as one transpose per set partition would.  Each set
    partition is read in one block order only, which equals the 1/j! sum over
    its j! orders because F^j is symmetric.
    """
    P, u = f_blocks[1].shape[:2]
    e, d = y_levels[1].shape[1:]
    acc = np.zeros((d**r, P * u))
    for sizes, idx in _set_partition_gathers(r, d).items():
        t, width = f_blocks[len(sizes)], 1
        for l in reversed(sizes):
            t = y_levels[l].swapaxes(1, 2)[:, None] @ t.reshape(P, -1, e, width)
            width *= d**l
        _add_assignments(acc, np.ascontiguousarray(t.reshape(P * u, d**r).T), idx)
    return np.ascontiguousarray(acc.T).reshape(P, u, d**r)


def compose(F: LipFunction, Y: ControlledPath, X: GeometricRoughPath) -> ControlledPath:
    """Image of a controlled path under a Lipschitz function, as a controlled path.

    Level 0 is the pointwise image; level r collects, over arities j and
    ordered nonempty partitions of the r word positions, the level-j blocks
    of F applied to the box products of Y's levels, weighted by 1/j!.  As F^j
    is symmetric this is the unweighted sum over set partitions, one block
    order each (see ``_composed_level``): one contraction per non-decreasing
    block-size profile, then one tiled gather over its set partitions.  The
    levels F^0..F^{N-1} at the grid points come from one evaluator call.
    """
    _check_compose(F, Y, X)
    return ControlledPath(Y.times, Y.d, Y.N, F.dim_out, _compose_levels(F, Y.levels))


def _check_compose(F: LipFunction, Y: ControlledPath, X: GeometricRoughPath) -> None:
    """The checks of :func:`compose`: F maps Y's target, has levels 0..N, and Y
    lives on X."""
    if F.dim_in != Y.dim_u:
        raise ValueError(f"field expects W=R^{F.dim_in}, path has target R^{Y.dim_u}")
    if F.n_levels < Y.N:
        raise ValueError(f"field has levels 0..{F.n_levels}, need at least 0..{Y.N}")
    _check_pair(Y, X)


def _compose_levels(F: LipFunction, y_levels) -> list:
    """The levels of :func:`compose` of the level list ``y_levels``, unchecked:
    level i of shape (P, dim_out, d**i)."""
    f_blocks = F.eval_levels(len(y_levels) - 1, y_levels[0][:, :, 0])
    return [np.asarray(f_blocks[0], dtype=float)] + [
        _composed_level(f_blocks, y_levels, r) for r in range(1, len(y_levels))]


def _slot_maps(y_blocks, x_inc: TensorSeries) -> dict:
    """Slot maps (i, m) -> Y^i(X^{i-m} (x) .): level i of the controlled path with its
    leading i - m slots filled by the driver increment, as (e, d**m) matrices."""
    return {(i, m): _fill_leading(np.asarray(y_blocks[i]), x_inc.levels[i - m])
            for i in range(1, x_inc.N) for m in range(i + 1)}


def _contract_slots(block, mats) -> np.ndarray:
    """Apply one (e, d**m_j) matrix per slot to flat sector blocks (slot 1 most
    significant), batched over the leading word axis; returns the (words, e**k)
    blocks in the same slot order."""
    words = len(block)
    for mat in mats:
        block = (mat @ block.reshape(words, mat.shape[1], -1)).swapaxes(1, 2)
        block = block.reshape(words, -1)
    return block


def _level_total_sums(maps, sectors, N: int) -> dict:
    """The slot-map expansion of arity-k sectors of a batch of basis words
    (word axis leading, empty blocks included), split by level total.

    Contracts one slot at a time: a slot of size m takes every map (i, m),
    max(m, 1) <= i <= N-1, and partial sums are keyed by min(running level
    total, N); the maps that take a partial sum to N are added up first and
    contracted once.  Returns {total: (words, e**k) rows}; the entry at N is the
    part that the driver's truncated coproduct cannot split.
    """
    sums: dict = {}
    for sizes, block in sectors.items():
        partial = {0: block}
        for m in sizes:
            nxt: dict = {}
            for total, t in partial.items():
                top = max(m, 1, N - total)  # the maps from here on reach N
                for i in range(max(m, 1), top):
                    nxt[total + i] = nxt.get(total + i, 0) + _contract_slots(t, [maps[i, m]])
                if top < N:
                    reach = sum(maps[i, m] for i in range(top, N))
                    nxt[N] = nxt.get(N, 0) + _contract_slots(t, [reach])
            partial = nxt
        for total, t in partial.items():
            sums[total] = sums.get(total, 0) + t
    return sums


def expansion_identity_check(y_blocks, x_inc: TensorSeries, r: int, k: int) -> float:
    """Max symmetrized deviation between the two expansions of a composed level,
    over all d**r basis words of length r at once.

    ``y_blocks`` are levels 0..N-1 of the controlled path at the base point,
    (e, d**i) blocks.  One slot-by-slot pass (``_level_total_sums``) gives the
    left side, the sum of all its entries, and the truncation term, its entry
    at N; the right side adds that term to the coproduct pushed through the
    product of the driver increment with the word.  Both sides are linear in
    the word, so the words of level r enter as one batch: the identity block
    of that level, word axis leading.  The deviation is divided by max(1,
    largest |entry| of the two symmetrized sides), so it is relative once the
    terms outgrow 1.  Exact (to roundoff) whenever the driver increment is
    group-like.
    """
    d, N = x_inc.d, x_inc.N
    _check_whole(k, "arity k", 1, N - 1)
    _check_whole(r, "word length r", 1, N - 1)
    y_blocks = [np.asarray(b, dtype=float) for b in y_blocks]
    e = y_blocks[0].shape[0] if y_blocks and y_blocks[0].ndim == 2 else 0
    if e < 1 or len(y_blocks) != N or any(b.shape != (e, d**i) for i, b in enumerate(y_blocks)):
        raise ValueError(f"y_blocks must be N = {N} blocks of shapes (e, d**i), i < N, "
                         f"d = {d}; got {[b.shape for b in y_blocks]}")
    maps = _slot_maps(y_blocks, x_inc)
    sums = _level_total_sums(maps, _basis_sectors(d, r, k), N)
    lhs = sum(sums.values()) / math.factorial(k)

    words = [np.zeros((d**r, d**i)) for i in range(N)]
    words[r] = np.eye(d**r)
    main = np.zeros((d**r, e**k))
    for sizes, block in _coproduct_sectors(_truncated_product(x_inc.levels[:N], words), k).items():
        if 0 not in sizes and r <= sum(sizes):
            main += _contract_slots(block, [maps[m, m] for m in sizes])
    rhs = (main + sums.get(N, 0.0)) / math.factorial(k)

    lhs, rhs = symmetrize(lhs, e, k), symmetrize(rhs, e, k)
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


@dataclass(frozen=True)
class RemainderProbe:
    level: int
    max_remainder: float
    max_ratio: float


def remainder_regularity_probe(F: LipFunction, Y: ControlledPath, X: GeometricRoughPath,
                               r: int, alpha: float) -> RemainderProbe:
    """Composed-path remainder scan: max |RZ^r_{s,t}| and its Holder ratio at
    exponent (N - r) alpha, for 1/(N+1) < alpha <= 1.

    A finite ratio across the grid is the observable form of the stability
    of controlled paths under Lipschitz composition.
    """
    _check_whole(r, "level r", 0, Y.N - 1)
    alpha = _check_real(alpha, "alpha", 1.0 / (Y.N + 1), 1, "(]")
    Z = compose(F, Y, X)
    rem = _remainder_blocks(Z.levels, X, [r])

    def blocks(rows, cols):
        # The one level's block, read at both exponents.
        block, = rem(rows, cols)
        return [block, block]

    ends = _scan_pairs(_pair_plan(Y.times, Z.dim_u * Z.d**r, [0.0, (Y.N - r) * alpha]), blocks)
    worst_abs, worst_ratio = ends.max(axis=1).tolist()
    return RemainderProbe(level=r, max_remainder=worst_abs, max_ratio=worst_ratio)
