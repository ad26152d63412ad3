"""Geometric rough paths built from piecewise-linear drivers.

A lift stores the running signatures X_{t0,ti} on the driver grid, built
level by level.  Work that depends on the driver alone is done once per
driver and cached read-only on first use, for the life of the driver: the
stacked inverses X_{t0,ti}^{-1}, one product level per inverse level, and
the increments of the consecutive grid steps, which every Picard step
integrates against; each holds one (P, d**i) array per level i <= N.
Every increment X_{s,t} = X_{t0,s}^{-1} (x) X_{t0,t} is one truncated
product against the cached inverse stack, batched along the grid axis
(:func:`_increments`).  Holder norms, distances and remainder bounds are grid
maxima over all O(M^2) pairs, taken by one scan (:func:`_scan_pairs`) over
tiles of start rows and end points: each tile's pair block holds at most
256 KB of doubles (``_PAIR_BLOCK``), so the pair values are never
materialized at once, and a pair's value does not depend on its tile.  Each
pair's l1 norm is one in-place pass over its block.  The scan keeps the
maximum per end point, so the maxima of every prefix of the grid come from
the same pass.  The grid-only work of a scan, its tiles, masks and gap
powers, is its plan (:func:`_pair_plan`), which any number of scans on one
grid may read.  One rule decides what a plan holds: its tiles are kept when
their gap powers fit in ``_PLAN_BLOCKS`` pair blocks, 2 MB whatever the
grid, and rebuilt tile by tile on every pass otherwise.  One
scan may also serve several paths, each tile's gap powers computed once for
all of them.  No driver holds a plan.  The driver's Holder norms and
distances are one kernel, :func:`_holder_maxima`: one scan gives every level
asked for, each tile taking each driver's increments once.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from .tensor_algebra import TensorSeries, _check_caps, _frozen_levels, _group_inverse_levels
from .tensor_algebra import _check_array, _check_real, _check_whole, _group_like_deviation, _non_numeric
from .tensor_algebra import _max_abs, _product_level, _segment_levels, _truncated_product

# Doubles in one pair block (start rows x end points x entries per pair, all
# levels of a seminorm together) of a grid-pair scan, 256 KB.  Each tile costs
# numpy a fixed number of calls, so fewer, larger tiles cost less.  README line
# lift + solve in process (P = 513, 2-core VM, median of 12 alternating
# processes of 10 solves): 36.0 ms at 8192, 31.6 ms at 16384 and 32.2 ms at
# 32768 (39.2 ms at 8192 before the in-place l1 pass); the CLI solve's peak
# RSS, spawned from a small parent, 31.29, 31.76 and 31.90 MB.
_PAIR_BLOCK = 32768
# A plan (_pair_plan) keeps its tiles when its gap powers fit in this many
# pair blocks, 2 MB, and rebuilds them on every pass otherwise.  The README
# solve's local drivers (P = 129, N = 3) pass the bound, len(exponents) * P**2
# = 1.5 blocks, and hold 1.2; its closing scan at P = 513 is rebuilt.
_PLAN_BLOCKS = 8


def _grid_times(times, least: int) -> np.ndarray:
    """The read-only grid of a grid-sampled object: a 1-D array of numbers,
    finite, strictly increasing, at least ``least`` points.  A NaN fails every
    comparison, so finite end points and increasing steps make every time
    finite in one pass."""
    arr = np.asarray(times)
    if bad := _non_numeric(times, arr):
        raise ValueError(f"grid times must hold numbers, got {bad}")
    times = np.array(arr, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"grid times must be a 1-D array, got shape {times.shape}")
    if times.size < least or not (math.isfinite(times[0]) and math.isfinite(times[-1])
                                  and (times[1:] > times[:-1]).all()):
        raise ValueError(f"grid times must be finite and strictly increasing, at least {least} points")
    times.setflags(write=False)
    return times


class PiecewiseLinearPath:
    """Continuous piecewise-linear path: strictly increasing times, points in R^d."""

    __slots__ = ("times", "points")

    def __init__(self, times, points):
        times = _grid_times(times, 2)
        points = np.ascontiguousarray(_check_array(points, "points"))
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError(f"points must be a (P, d) array with d >= 1, got shape {points.shape}")
        if times.size != points.shape[0]:
            raise ValueError("times and points disagree in length")
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseLinearPath is immutable")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    @classmethod
    def from_csv(cls, source) -> "PiecewiseLinearPath":
        """Parse `t,x1,...,xd` rows; ``source`` is a path or open text file."""
        if hasattr(source, "read"):
            rows = list(csv.reader(source))
        else:
            with open(source, newline="") as fh:
                rows = list(csv.reader(fh))
        if not rows:
            raise ValueError("empty path CSV")
        header = [h.strip() for h in rows[0]]
        if header[:1] != ["t"] or len(header) < 2 or any(not h.startswith("x") for h in header[1:]):
            raise ValueError("path CSV must have header t,x1,...,xd")
        data = np.array([[float(v) for v in row] for row in rows[1:] if row], dtype=float)
        if data.ndim != 2 or data.shape[1] != len(header):
            raise ValueError("path CSV rows do not match header width")
        return cls(data[:, 0], data[:, 1:])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t"] + [f"x{i+1}" for i in range(self.d)])
        for t, p in zip(self.times, self.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in p])
        return buf.getvalue()

    def refine_midpoints(self) -> "PiecewiseLinearPath":
        """Insert segment midpoints; the underlying geometric path is unchanged."""
        t = self.times
        p = self.points
        mid_t = 0.5 * (t[:-1] + t[1:])
        mid_p = 0.5 * (p[:-1] + p[1:])
        new_t = np.empty(2 * t.size - 1)
        new_t[0::2] = t
        new_t[1::2] = mid_t
        new_p = np.empty((2 * p.shape[0] - 1, p.shape[1]))
        new_p[0::2] = p
        new_p[1::2] = mid_p
        return PiecewiseLinearPath(new_t, new_p)


class GeometricRoughPath:
    """Grid-sampled group-valued path t -> X_{t0,t} with a declared Holder exponent.

    ``levels[i]`` stacks the level-i blocks of the running signature at every
    grid point, shape (M+1, d**i).  Use :func:`lift_path` to construct lifts;
    the raw constructor checks the grid, beta and the level blocks (caps,
    shapes, finiteness), not group-likeness.
    """

    __slots__ = ("times", "d", "N", "beta", "levels", "_inverses", "_steps")

    def __init__(self, times, d: int, N: int, beta: float, levels):
        times = _grid_times(times, 1)
        beta = _check_real(beta, "beta", 0, 1, "(]")  # the level exponents i beta
        levels = _frozen_levels(d, N, levels, (times.size,), N)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_inverses", None)
        object.__setattr__(self, "_steps", None)

    def __setattr__(self, name, value):
        raise AttributeError("GeometricRoughPath is immutable")

    @property
    def n_points(self) -> int:
        return self.times.size

    def value(self, idx: int) -> TensorSeries:
        """Running signature X_{t0, t_idx} as a series."""
        idx = _check_whole(idx, "grid index idx", 0, self.n_points - 1, IndexError)
        return TensorSeries(self.d, self.N, [lvl[idx] for lvl in self.levels])

    def _cached(self, slot: str, build) -> tuple:
        """The level arrays held in ``slot``: made by ``build()`` on first use,
        then kept read-only for the life of the driver."""
        if getattr(self, slot) is None:
            arrays = tuple(build())
            for arr in arrays:
                arr.setflags(write=False)
            object.__setattr__(self, slot, arrays)
        return getattr(self, slot)

    def _inverse_stack(self) -> tuple:
        """Stacked inverses X_{t0,t_i}^{-1}, one (P, d**i) array per level (cached),
        one :func:`_product_level` per level (see ``_group_inverse_levels``)."""
        return self._cached("_inverses", lambda: _group_inverse_levels(self.levels))

    def _step_increments(self) -> tuple:
        """Increments X_{t_k,t_{k+1}} of every grid step, one (P - 1, d**i) array per
        level (cached): the values of :func:`_increments` over consecutive indices."""
        return self._cached("_steps", lambda: _increments(
            self, np.arange(self.n_points - 1), np.arange(1, self.n_points), self.N))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "beta": self.beta,
            "grid": self.times.tolist(),
            "levels": [lvl.tolist() for lvl in self.levels],
        }


def lift_path(path: PiecewiseLinearPath, N: int, beta: float | None = None) -> GeometricRoughPath:
    """Level-N signature lift of a piecewise-linear path, exact by Chen concatenation.

    N must be an integer in 1..5 and the path's dimension at most 4.
    """
    d = path.d
    _check_caps(d, N)
    if beta is None:
        beta = min(0.5, 1.0 / N)
    n = path.times.size
    # A lift that overflows is rejected by the constructor's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _segment_levels(np.diff(path.points, axis=0), N)
        levels = [np.ones((n, 1))]
        # Level r of X_{t0,t_{i-1}} (x) S_i is T^r_i + X^r_{t0,t_{i-1}}, T^r_i pairing the
        # lower levels with the step S_i: the product adds the X^r (x) 1 term last, so
        # one batched T^r and one running sum per level match it bit for bit.
        for r in range(1, N + 1):
            terms = np.zeros((n, d**r))
            terms[1:] = _product_level([lvl[:-1] for lvl in levels], steps, r)
            levels.append(np.cumsum(terms, axis=0))
    return GeometricRoughPath(path.times, d, N, beta, levels)


def increment(X: GeometricRoughPath, s_idx: int, t_idx: int) -> TensorSeries:
    """The increment X_{s,t} = X_{t0,s}^{-1} (x) X_{t0,t}."""
    s_idx = _check_whole(s_idx, "grid index s_idx", 0, X.n_points - 1, IndexError)
    t_idx = _check_whole(t_idx, "grid index t_idx", 0, X.n_points - 1, IndexError)
    if s_idx > t_idx:
        raise ValueError("increment requires s_idx <= t_idx")
    if s_idx == t_idx:
        return TensorSeries.unit(X.d, X.N)
    return TensorSeries(X.d, X.N, _increments(X, s_idx, t_idx, X.N))


def _increments(X: GeometricRoughPath, s, t, top: int) -> list:
    """Levels 0..top of X_{s,t} = X_{t0,s}^{-1} (x) X_{t0,t}, batched along the grid axis.

    Grid indices ``s`` and ``t`` (ints, slices, index arrays, tuples with
    ``None`` axes) broadcast against each other; level r has trailing axis
    d**r.  Pairs with t < s hold group-algebra values that callers ignore.
    """
    return _truncated_product([lvl[s] for lvl in X._inverse_stack()[:top + 1]],
                              [lvl[t] for lvl in X.levels[:top + 1]])


def restrict(X: GeometricRoughPath, s_idx: int, t_idx: int) -> GeometricRoughPath:
    """Sub-path on grid indices s_idx..t_idx, rebased so the start is the unit."""
    s_idx = _check_whole(s_idx, "grid index s_idx", 0, X.n_points - 1, IndexError)
    t_idx = _check_whole(t_idx, "grid index t_idx", 0, X.n_points - 1, IndexError)
    if s_idx >= t_idx:
        raise ValueError("restrict requires s_idx < t_idx")
    rows = slice(s_idx, t_idx + 1)
    return GeometricRoughPath(X.times[rows], X.d, X.N, X.beta, _increments(X, s_idx, rows, X.N))


def _pair_tiles(n: int, width: int):
    """Tiles (rows, cols, keep) of start rows s and end points t covering every
    pair s < t of an n-point grid exactly once, start rows taken in chunks.

    A tile holds at most ``_PAIR_BLOCK // width`` pairs, at least one, so its
    (rows, cols, width) block stays within ``_PAIR_BLOCK`` doubles whenever a
    single pair does.  The columns of a chunk start at t = s0 + 1; ``keep``
    indexes the pairs t > s of the tile's (R, T) block: a boolean mask, or
    ``...`` when every end point lies past the tile's start rows.
    """
    pairs = max(1, _PAIR_BLOCK // width)
    s0 = 0
    while s0 < n - 1:
        s1 = s0 + max(1, min(n - 1 - s0, pairs // (n - 1 - s0)))
        step = max(1, pairs // (s1 - s0))
        for t0 in range(s0 + 1, n, step):
            t1 = min(n, t0 + step)
            keep = np.arange(t0, t1) > np.arange(s0, s1)[:, None] if t0 < s1 else ...
            yield slice(s0, s1), slice(t0, t1), keep
        s0 = s1


def _pair_plan(times: np.ndarray, width: int, exponents):
    """The grid-only work of a grid-pair scan over ``times``, for pair blocks of
    ``width`` doubles per pair and one Holder exponent per block, which any
    number of scans may read.

    A pass yields the shape (len(exponents), P) of the scan's result, then one
    tile (rows, cols, drop, powers) per tile of :func:`_pair_tiles`: ``drop``
    masks the pairs t <= s of the tile's (R, T) block (None when it has none),
    and ``powers`` stacks gap**exponent, one (R, T) block per exponent.  A
    masked pair's gap is <= 0; it is raised to 1, which keeps its power finite
    and silent.  The chunks of R start rows span at most R * P pairs each and
    cover the P - 1 start rows once, so len(exponents) * P**2 bounds the
    doubles of the powers: within ``_PLAN_BLOCKS`` pair blocks the tiles are
    built here and kept (a tuple), past it every pass rebuilds them one by one.
    """
    def tiles():
        yield len(exponents), times.size
        for rows, cols, keep in _pair_tiles(times.size, width):
            gaps = times[cols] - times[rows, None]
            drop = None
            if keep is not ...:
                drop = ~keep
                gaps = np.maximum(gaps, drop)
            yield rows, cols, drop, np.stack([gaps**exp for exp in exponents])

    if len(exponents) * times.size**2 <= _PLAN_BLOCKS * _PAIR_BLOCK:
        return tuple(tiles())
    return _Rebuilt(tiles)


class _Rebuilt:
    """A plan past the budget: each pass over it builds its tiles afresh."""

    __slots__ = ("_tiles",)

    def __init__(self, tiles):
        self._tiles = tiles

    def __iter__(self):
        return self._tiles()


def _l1_in_place(block: np.ndarray) -> np.ndarray:
    """The l1 norm of each pair of a (R, T, w) block, over its trailing axis,
    in one pass that overwrites the block with its magnitudes.

    Bit for bit ``np.abs(block).sum(axis=-1)``: below 8 entries numpy's sum
    adds them one by one from the first, so the columns are added in that
    order.  A short trailing axis is numpy's slow reduction path: on an
    (85, 128, w) block at w = 2..7 the sum took 180-245 us, the column adds
    12-62 us.  One entry is a view of the block.
    """
    np.abs(block, out=block)
    w = block.shape[-1]
    if w >= 8:
        return block.sum(axis=-1)
    if w == 1:
        return block[..., 0]
    norm = block[..., 0] + block[..., 1]
    for j in range(2, w):
        norm += block[..., j]
    return norm


def _scan_pairs(plan, block_fn, paths: int = 1) -> np.ndarray:
    """Max of l1-norm / gap**exponent over grid pairs s < t, per exponent and per end point.

    ``plan`` is a :func:`_pair_plan` of the grid.  ``block_fn(rows, cols)``
    returns one block per exponent, each an (R, T, w) array of pair entries
    for the start rows and end points of one tile; pairs with t <= s are
    masked out.  So one pass scans every level of a seminorm.  The blocks
    are the scan's to overwrite (:func:`_l1_in_place`), so none may be a view
    of an input level; one block may be listed twice, as |.| is idempotent.
    Returns a (len(exponents), P) array: entry [k, t] is the maximum over
    start rows s < t (0 at t = 0).  Its row maxima are the maxima over all
    pairs; its running maximum along t is the maximum over the pairs of every
    prefix [t_0, t_j].  A NaN pair propagates to its end point.  The scan
    keeps no pairwise array past its tile.

    With ``paths`` > 1, one pass scans that many paths over one plan:
    ``block_fn`` returns the blocks of every exponent for path 0, then for
    path 1, and so on, each tile's gap powers serve them all, and the result
    stacks one (len(exponents), P) array per path.  Its plan's width counts
    the entries of all paths.
    """
    plan = iter(plan)
    n_exp, P = next(plan)
    ends = np.zeros((paths * n_exp, P))
    for rows, cols, drop, powers in plan:
        ratios = np.empty((paths * n_exp,) + powers.shape[1:])
        for k, (ratio, block) in enumerate(zip(ratios, block_fn(rows, cols))):
            np.divide(_l1_in_place(block), powers[k % n_exp], out=ratio)
        if drop is not None:
            np.copyto(ratios, -np.inf, where=drop)
        tile = ends[:, cols]
        np.maximum(tile, ratios.max(axis=1), out=tile)
    return ends


def _holder_maxima(Xa: GeometricRoughPath, Xb: GeometricRoughPath | None, beta: float, levels) -> list:
    """For each level i in ``levels``, the grid maximum over pairs s < t of
    |Xa^i_{s,t} - Xb^i_{s,t}| / (t-s)^(i beta); with ``Xb`` None its term is
    dropped.  One scan over one plan: each tile takes the increments of each
    driver once, up to the top level asked for, and every level's maximum is
    that of a one-level scan, bit for bit.  The kernel twin of
    ``oracle.holder_maxima``; the drivers are checked by the caller."""
    top = max(levels)

    def blocks(rows, cols):
        inc = _increments(Xa, (rows, None), (None, cols), top)
        if Xb is None:
            return [inc[i] for i in levels]
        other = _increments(Xb, (rows, None), (None, cols), top)
        return [np.subtract(inc[i], other[i], out=inc[i]) for i in levels]

    plan = _pair_plan(Xa.times, sum(Xa.d**i for i in levels), [i * beta for i in levels])
    return [float(m) for m in _scan_pairs(plan, blocks).max(axis=1)]


def holder_norm(X: GeometricRoughPath, level: int, beta: float) -> float:
    """Grid maximum of |X^level_{s,t}| / (t-s)^(level*beta) over all pairs s < t."""
    level = _check_whole(level, "level", 1, X.N)
    beta = _check_real(beta, "beta", 0, 1, "(]")
    return _holder_maxima(X, None, beta, [level])[0]


def holder_distance(Xa: GeometricRoughPath, Xb: GeometricRoughPath, beta: float) -> float:
    """Sum over levels of the Holder seminorm of the levelwise increment
    difference; against the lift of a constant path, the sum of the level
    Holder norms of ``Xa``."""
    if Xa.d != Xb.d or Xa.N != Xb.N:
        raise ValueError("rough paths are incompatible")
    if Xa.n_points != Xb.n_points or not np.array_equal(Xa.times, Xb.times):
        raise ValueError("rough paths must share the grid; resample upstream")
    beta = _check_real(beta, "beta", 0, 1, "(]")
    return sum(_holder_maxima(Xa, Xb, beta, range(1, Xa.N + 1)))


def chen_deviation(X: GeometricRoughPath) -> float:
    """Max coefficient deviation of X_{s,u} (x) X_{u,t} from X_{s,t} over grid triples.

    Batched per junction index u over all (s <= u, t >= u) pairs; a NaN
    deviation propagates to the result.
    """
    pair = _increments(X, (slice(None), None), None, X.N)

    def gaps(u):
        prod = _truncated_product([lvl[: u + 1, u, None] for lvl in pair],
                                  [lvl[None, u, u:] for lvl in pair])
        return (prod[r] - pair[r][: u + 1, u:] for r in range(1, X.N + 1))

    return _max_abs(gap for u in range(X.n_points) for gap in gaps(u))


def group_like_deviation(X: GeometricRoughPath) -> float:
    """Worst group-likeness violation over all grid-pair increments, batched per pair
    tile; a NaN violation propagates to the result."""
    width = sum(X.d**r for r in range(X.N + 1))
    return _max_abs(
        _group_like_deviation([lvl[keep] for lvl in _increments(X, (s, None), (None, t), X.N)])
        for s, t, keep in _pair_tiles(X.n_points, width))
