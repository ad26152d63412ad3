"""Geometric rough paths built from piecewise-linear drivers.

A lift stores the running signatures X_{t0,ti} on the driver grid, built
level by level, and, once first needed, their stacked inverses
X_{t0,ti}^{-1}; every increment X_{s,t} = X_{t0,s}^{-1} (x) X_{t0,t} is one
truncated product against that cached stack, batched along the grid axis
(:func:`_increments`).  Holder norms, distances and remainder bounds are grid
maxima over all O(M^2) pairs, taken by one scan (:func:`_scan_pairs`) over
tiles of start rows and end points: each tile's pair block holds at most a
fixed number of doubles (``_PAIR_BLOCK``), so the pairwise tensors are never
materialized at once, and a pair's value does not depend on its tile.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .tensor_algebra import TensorSeries, _group_inverse_levels, _group_like_deviation
from .tensor_algebra import _product_level, _segment_levels, _truncated_product

# Doubles in one pair block (start rows x end points x entries per pair) of
# a grid-pair scan.  On the README line solve (P=513, 2-core VM) 8192 kept
# the peak memory within 0.6 MB of 2048 and ran as fast as 32768 within
# run-to-run noise; the whole grid in one block added 6 MB.
_PAIR_BLOCK = 8192


class PiecewiseLinearPath:
    """Continuous piecewise-linear path: strictly increasing times, points in R^d."""

    __slots__ = ("times", "points")

    def __init__(self, times, points):
        times = np.asarray(times, dtype=float).ravel()
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if times.size != points.shape[0]:
            raise ValueError("times and points disagree in length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(points))):
            raise ValueError("times and points must be finite")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing with at least two entries")
        times.setflags(write=False)
        points = np.ascontiguousarray(points, dtype=float)
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


def _check_beta(beta: float) -> None:
    """The level exponents i beta need 0 < beta <= 1."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta {beta} outside (0, 1]")


class GeometricRoughPath:
    """Grid-sampled group-valued path t -> X_{t0,t} with a declared Holder exponent.

    ``levels[i]`` stacks the level-i blocks of the running signature at every
    grid point, shape (M+1, d**i).  Use :func:`lift_path` to construct lifts;
    the raw constructor checks shapes only.
    """

    __slots__ = ("times", "d", "N", "beta", "levels", "_inverses")

    def __init__(self, times, d: int, N: int, beta: float, levels):
        times = np.asarray(times, dtype=float).ravel()
        if times.size < 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be finite and strictly increasing")
        if len(levels) != N + 1:
            raise ValueError(f"expected {N + 1} stacked level blocks")
        _check_beta(beta)
        stacked = []
        for i, arr in enumerate(levels):
            arr = np.ascontiguousarray(arr, dtype=float)
            if arr.shape != (times.size, d**i):
                raise ValueError(f"level {i} block has shape {arr.shape}, expected {(times.size, d**i)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"level {i} block has non-finite entries")
            arr.setflags(write=False)
            stacked.append(arr)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "levels", tuple(stacked))
        object.__setattr__(self, "_inverses", None)

    def __setattr__(self, name, value):
        raise AttributeError("GeometricRoughPath is immutable")

    @property
    def n_points(self) -> int:
        return self.times.size

    def value(self, idx: int) -> TensorSeries:
        """Running signature X_{t0, t_idx} as a series."""
        self._check_index(idx)
        return TensorSeries._wrap(self.d, self.N, [lvl[idx] for lvl in self.levels])

    def _check_index(self, idx: int) -> None:
        if not (0 <= idx < self.n_points):
            raise IndexError(f"grid index {idx} outside 0..{self.n_points - 1}")

    def _inverse_stack(self) -> tuple:
        """Stacked inverses X_{t0,t_i}^{-1}, one (P, d**i) array per level (cached)."""
        if self._inverses is None:
            stacked = _group_inverse_levels(self.levels)
            for arr in stacked:
                arr.setflags(write=False)
            object.__setattr__(self, "_inverses", tuple(stacked))
        return self._inverses

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "beta": self.beta,
            "grid": self.times.tolist(),
            "levels": [lvl.tolist() for lvl in self.levels],
        }


def lift_path(path: PiecewiseLinearPath, N: int, beta: float | None = None) -> GeometricRoughPath:
    """Level-N signature lift of a piecewise-linear path, exact by Chen concatenation."""
    d = path.d
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
    X._check_index(s_idx)
    X._check_index(t_idx)
    if s_idx > t_idx:
        raise ValueError("increment requires s_idx <= t_idx")
    if s_idx == t_idx:
        return TensorSeries.unit(X.d, X.N)
    return TensorSeries._wrap(X.d, X.N, _increments(X, s_idx, t_idx, X.N))


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
    X._check_index(s_idx)
    X._check_index(t_idx)
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


def _scan_pairs(times: np.ndarray, block_fn, width: int, exponents) -> list[float]:
    """Max of l1-norm / gap**exponent over all grid pairs s < t, one result per exponent.

    ``block_fn(rows, cols)`` returns the (R, T, width) block of pair entries
    for the start rows and end points of one tile of :func:`_pair_tiles`; its
    pairs with t <= s are masked out.
    """
    worst = [0.0] * len(exponents)
    for rows, cols, keep in _pair_tiles(times.size, width):
        norms = np.abs(block_fn(rows, cols)).sum(axis=-1)[keep]
        gaps = (times[cols] - times[rows, None])[keep]
        for k, exp in enumerate(exponents):
            worst[k] = max(worst[k], float(np.max(norms / gaps**exp)))
    return worst


def holder_norm(X: GeometricRoughPath, level: int, beta: float) -> float:
    """Grid maximum of |X^level_{s,t}| / (t-s)^(level*beta) over all pairs s < t."""
    if not (1 <= level <= X.N):
        raise ValueError(f"level {level} outside 1..{X.N}")
    _check_beta(beta)
    return _scan_pairs(X.times, lambda s, t: _increments(X, (s, None), (None, t), level)[level],
                       X.d**level, [level * beta])[0]


def holder_distance(Xa: GeometricRoughPath, Xb: GeometricRoughPath, beta: float) -> float:
    """Sum over levels of the Holder seminorm of the levelwise increment difference."""
    if Xa.d != Xb.d or Xa.N != Xb.N:
        raise ValueError("rough paths are incompatible")
    if Xa.n_points != Xb.n_points or not np.array_equal(Xa.times, Xb.times):
        raise ValueError("rough paths must share the grid; resample upstream")
    _check_beta(beta)

    def block(i):
        return lambda s, t: (_increments(Xa, (s, None), (None, t), i)[i]
                             - _increments(Xb, (s, None), (None, t), i)[i])

    return sum(_scan_pairs(Xa.times, block(i), Xa.d**i, [i * beta])[0] for i in range(1, Xa.N + 1))


def path_norm(X: GeometricRoughPath, beta: float) -> float:
    """Sum over levels of the level Holder norms (distance to the unit path)."""
    return sum(holder_norm(X, i, beta) for i in range(1, X.N + 1))


def chen_deviation(X: GeometricRoughPath) -> float:
    """Max coefficient deviation of X_{s,u} (x) X_{u,t} from X_{s,t} over grid triples.

    Batched per junction index u over all (s <= u, t >= u) pairs.
    """
    n = X.n_points
    pair = _increments(X, (slice(None), None), None, X.N)
    worst = 0.0
    for u in range(n):
        prod = _truncated_product([lvl[: u + 1, u, None] for lvl in pair],
                                  [lvl[None, u, u:] for lvl in pair])
        for r in range(1, X.N + 1):
            dev = np.abs(prod[r] - pair[r][: u + 1, u:])
            worst = max(worst, float(dev.max()))
    return worst


def group_like_deviation(X: GeometricRoughPath) -> float:
    """Worst group-likeness violation over all grid-pair increments, batched per pair tile."""
    worst = 0.0
    for rows, cols, keep in _pair_tiles(X.n_points, sum(X.d**r for r in range(X.N + 1))):
        worst = max(worst, _group_like_deviation(
            [lvl[keep] for lvl in _increments(X, (rows, None), (None, cols), X.N)]))
    return worst
