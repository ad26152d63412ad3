"""Controlled rough paths on the driver's grid.

A controlled path stores, per level i < N, the grid-sampled linear maps from
V^(x)i to the target space U.  Remainders subtract the local expansion
against the driver's increments; their grid-pair Holder maxima define the
seminorm, distance and full norm used by the solver.

Remainders come from one kernel, :func:`_remainder_blocks`, in one pass over
all the levels asked for.  By Chen's relation X_{s,t} = X_{0,s}^{-1} (x) X_{0,t},
the remainder RY^i_{s,t} = Y^i_t - sum_j Y^{i+j}_s(X^j_{s,t} (x) .) regroups as
Y^i_t - sum_b C^{i,b}_s(X^b_{0,t} (x) .), where C^{i,b}_s pairs the levels at
s with the cached inverse X_{0,s}^{-1} and depends on i + b only through one
expansion map A^{i+b}_s.  The maps are built once per call for every start
row and every level, after which the remainders of any block of (s, t) pairs
are one einsum per level of those maps with the running signature, with no
per-row increment.  The grid-pair scans of ``rough_path`` take every level of
a seminorm in one scan, over tiles of bounded size.

The kernels read level lists, not containers: :func:`_remainder_blocks` and
the one seminorm kernel :func:`_prefix_seminorms` take the levels of a path,
or the level differences of two paths never built as one, and the public
functions pass ``Y.levels`` after their checks.  One call of
:func:`_prefix_seminorms` scans one or more level lists over one plan
(:func:`_remainder_plan`), each tile's gap powers serving them all, and
gives each list's seminorm of every prefix of the grid.  Nothing here is
cached: the expansion maps live for one call, and a plan as long as its
caller holds it (a local solve: one attempt).  A plan keeps its tiles when
they fit 2 MB (318 KB at P = 129 and N = 3) and rebuilds them on every scan
otherwise.  Over one driver Y -> RY is linear, so the gap between two paths
on the same driver is the seminorm of their difference; ``distance`` serves
the gap between paths on two drivers.

Every pairing of a controlled level with a driver tensor in its leading
slots, Y^{i+j}_s(X^j_{s,t} (x) .), is one contraction, :func:`_fill_leading`,
broadcast over leading axes: the expansion maps and the zero-remainder start
path here, the slot maps of ``lipschitz`` and the compensated sums of
``rough_integral`` all call it.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from .rough_path import GeometricRoughPath, _grid_times, _pair_plan, _scan_pairs
from .tensor_algebra import _check_caps, _check_real, _check_whole, _frozen_levels, _max_abs, _numeric_array


class NonFiniteLevelError(ValueError):
    """A controlled path was given a level with NaN or inf entries."""


class ControlledPath:
    """Tuple (Y^0, ..., Y^{N-1}) of map-valued paths sharing the driver grid.

    ``levels[i]`` has shape (P, dim_u, d**i); level 0 is the actual path with
    a trailing singleton axis; a non-finite entry raises
    :class:`NonFiniteLevelError`.  Immutable after construction.  A path carries
    no Holder exponent: the norms that measure it take alpha as an argument.
    """

    __slots__ = ("times", "d", "N", "dim_u", "levels")

    def __init__(self, times, d: int, N: int, dim_u: int, levels):
        times = _grid_times(times, 1)
        _check_whole(dim_u, "target dimension dim_u", 1)
        _check_caps(d, N)  # before N - 1 is taken
        levels = _frozen_levels(d, N, levels, (times.size, dim_u), N - 1, NonFiniteLevelError)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "dim_u", dim_u)
        object.__setattr__(self, "levels", levels)

    def __setattr__(self, name, value):
        raise AttributeError("ControlledPath is immutable")

    @property
    def n_points(self) -> int:
        return self.times.size

    def path_values(self) -> np.ndarray:
        """The level-0 path as a (P, dim_u) array."""
        return self.levels[0][:, :, 0]

    def replace_levels(self, new_levels) -> "ControlledPath":
        return ControlledPath(self.times, self.d, self.N, self.dim_u, new_levels)

    def to_json_dict(self) -> dict:
        return {
            "grid": self.times.tolist(),
            "d": self.d,
            "N": self.N,
            "dim_u": self.dim_u,
            "levels": [lvl.tolist() for lvl in self.levels],
        }

    def level0_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t"] + [f"y{i+1}" for i in range(self.dim_u)])
        for t, row in zip(self.times, self.path_values()):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        return buf.getvalue()


def _check_pair(Y: ControlledPath, X: GeometricRoughPath) -> None:
    if Y.d != X.d or Y.N != X.N:
        raise ValueError("controlled path and driver disagree in (d, N)")
    if Y.n_points != X.n_points or not np.array_equal(Y.times, X.times):
        raise ValueError("controlled path must share the driver grid exactly")


def _fill_leading(block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fill the leading slots of maps with driver tensors, broadcast over leading axes.

    ``block`` has shape (..., e, d**(j+i)) and ``x`` shape (..., d**j); the
    result, shape (..., e, d**i), is the map left on the trailing i slots.
    """
    m = x.shape[-1]
    cube = block.reshape(block.shape[:-1] + (m, block.shape[-1] // m))
    return np.einsum("...ejk,...j->...ek", cube, x)


def _remainder_blocks(y_levels, X: GeometricRoughPath, levels):
    """RY^i for every level i in ``levels`` of the level list ``y_levels`` on X
    (level i of shape (P, e, d**i), P and (d, N) those of X) by Chen's
    relation, as a pair-block function for ``_scan_pairs``.

    Builds the expansion maps A^m_s = sum_c Y^{m+c}_s((X_{0,s}^{-1})^c (x) .)
    once for every grid row s and m >= min(levels), from the cached inverse
    stack; the maps C^{i,b} of level i are the blocks of A^{i+b} with the b
    leading slots moved ahead, for b = 0..N-1-i, stacked along one word axis.
    The returned ``block(rows, cols)`` gives, for s in ``rows`` and t in
    ``cols``, one (R, T, e * d**i) array per level,
    RY^i_{s,t} = Y^i_t - sum_b C^{i,b}_s(X^b_{0,t} (x) .): one einsum over the
    words of X^0_{0,t}..X^{N-1-i}_{0,t}.  The einsum runs numpy's own loop in
    one fixed order per pair, never a BLAS product, whose rounding follows the
    matrix shape: a pair's value does not depend on the block it is in.
    """
    (P, e, _), d, N = y_levels[0].shape, X.d, X.N
    inv = X._inverse_stack()
    expansions = {}
    for m in range(min(levels), N):
        acc = y_levels[m]
        for c in range(1, N - m):
            acc = acc + _fill_leading(y_levels[m + c], inv[c])
        expansions[m] = acc
    # Driver words X^b_{0,t}, b = 0..N-1, one row each; level i reads the leading rows.
    words = np.concatenate([lvl.T for lvl in X.levels[:N]])
    values, maps = [], []
    for i in levels:
        values.append(y_levels[i].reshape(P, e * d**i))
        maps.append(np.concatenate(
            [expansions[i + b].reshape(P, e, d**b, d**i).swapaxes(1, 2).reshape(P, d**b, e * d**i)
             for b in range(N - i)], axis=1))

    def block(rows, cols):
        out = []
        for value, m in zip(values, maps):
            rem = np.einsum("rke,kt->rte", m[rows], words[:m.shape[1], cols])
            out.append(np.subtract(value[None, cols], rem, out=rem))
        return out

    return block


def remainder_rows(Y: ControlledPath, X: GeometricRoughPath, i: int, s_idx: int) -> np.ndarray:
    """RY^i_{s,t} for fixed s and every t >= s, shape (P - s, dim_u, d**i)."""
    _check_pair(Y, X)
    _check_whole(i, "level i", 0, Y.N - 1)
    s_idx = _check_whole(s_idx, "grid index s_idx", 0, X.n_points - 1, IndexError)
    rows = _remainder_blocks(Y.levels, X, [i])(slice(s_idx, s_idx + 1), slice(s_idx, Y.n_points))[0]
    return rows.reshape(-1, Y.dim_u, Y.d**i)


def _remainder_plan(X: GeometricRoughPath, dim_u: int, alpha: float):
    """The :func:`_pair_plan` of a remainder scan on X's grid at exponent
    alpha: every level in one pass, level i at exponent (N - i) alpha, for
    paths whose target dimensions sum to ``dim_u`` (a tile holds every level
    of every path it scans)."""
    width = dim_u * sum(X.d**i for i in range(X.N))
    return _pair_plan(X.times, width, [(X.N - i) * alpha for i in range(X.N)])


def seminorm(Y: ControlledPath, X: GeometricRoughPath, alpha: float) -> float:
    """Sum over levels of the grid-pair maxima of |RY^i| / (t-s)^((N-i) alpha),
    for 1/(N+1) < alpha <= 1."""
    return float(prefix_seminorms(Y, X, alpha)[-1])


def prefix_seminorms(Y: ControlledPath, X: GeometricRoughPath, alpha: float) -> np.ndarray:
    """The seminorm of every prefix of the grid, from one scan: entry j is the
    seminorm of Y on grid indices 0..j (0 at j = 0), and the last entry is
    :func:`seminorm`.  A remainder RY_{s,t} depends on s and t alone, so entry
    j is the seminorm of ``restrict_path(Y, 0, j)`` on the re-based driver up
    to the roundoff of re-basing.  The entries do not decrease."""
    _check_pair(Y, X)
    alpha = _check_real(alpha, "alpha", 1.0 / (Y.N + 1), 1, "(]")  # the exponents (N - i) alpha
    return _prefix_seminorms([Y.levels], X, _remainder_plan(X, Y.dim_u, alpha))[0]


def _prefix_seminorms(level_lists, X: GeometricRoughPath, plan) -> np.ndarray:
    """:func:`prefix_seminorms` of each level list on X, unchecked, from one
    scan over ``plan``, a :func:`_remainder_plan` on X for the sum of their
    target dimensions: a (len(level_lists), P) array.  Each tile's gap powers
    serve every list, and a tile's blocks of all lists together stay within
    ``_PAIR_BLOCK`` doubles.  A row does not depend on the other lists or on
    the tiling, bit for bit."""
    remainders = [_remainder_blocks(levels, X, range(X.N)) for levels in level_lists]

    def blocks(rows, cols):
        return [block for rem in remainders for block in rem(rows, cols)]

    ends = _scan_pairs(plan, blocks, paths=len(level_lists))
    return np.maximum.accumulate(ends, axis=1).reshape(len(level_lists), X.N, -1).sum(axis=1)


def distance(Ya: ControlledPath, Yb: ControlledPath,
             Xa: GeometricRoughPath, Xb: GeometricRoughPath, alpha: float) -> float:
    """Controlled distance at exponent alpha: the sum over levels of the
    grid-pair maxima of |RY^i - RYtilde^i| / (t-s)^((N-i) alpha)."""
    _check_pair(Ya, Xa)
    _check_pair(Yb, Xa)
    _check_pair(Yb, Xb)
    if Ya.dim_u != Yb.dim_u:
        raise ValueError("controlled paths must share the target dimension")
    alpha = _check_real(alpha, "alpha", 1.0 / (Ya.N + 1), 1, "(]")
    rem_a = _remainder_blocks(Ya.levels, Xa, range(Ya.N))
    rem_b = _remainder_blocks(Yb.levels, Xb, range(Ya.N))

    def block(rows, cols):
        return [np.subtract(a, b, out=a) for a, b in zip(rem_a(rows, cols), rem_b(rows, cols))]

    return float(sum(_scan_pairs(_remainder_plan(Xa, Ya.dim_u, alpha), block).max(axis=1)))


def _initial_norm(y_levels) -> float:
    """Sum of the l1 norms of the initial blocks Y^i_{t0} of a level list."""
    return sum(float(np.abs(level[0]).sum()) for level in y_levels)


def triple_norm(Y: ControlledPath, X: GeometricRoughPath, alpha: float) -> float:
    """Banach norm at exponent alpha: controlled seminorm plus l1 norms of the
    initial blocks."""
    return seminorm(Y, X, alpha) + _initial_norm(Y.levels)


def level_holder_norm(Y: ControlledPath, i: int, exponent: float) -> float:
    """Grid maximum of |Y^i_t - Y^i_s| / (t-s)^exponent, for 0 < exponent <= 1."""
    _check_whole(i, "level i", 0, Y.N - 1)
    exponent = _check_real(exponent, "exponent", 0, 1, "(]")
    lvl = Y.levels[i].reshape(Y.n_points, -1)
    return float(_scan_pairs(_pair_plan(Y.times, lvl.shape[1], [exponent]),
                             lambda rows, cols: [lvl[None, cols] - lvl[rows, None]]).max())


def zero_remainder_path(blocks, X: GeometricRoughPath) -> ControlledPath:
    """The unique controlled path with the given start blocks and RY = 0.

    ``blocks[i]`` is the (dim_u, d**i) level-i map at the grid start; each
    level propagates along the driver's running signature so that every
    remainder vanishes identically.
    """
    blocks = list(blocks)
    if len(blocks) != X.N:
        raise ValueError(f"expected {X.N} start blocks")
    blocks = [_numeric_array(b, f"start block {i}") for i, b in enumerate(blocks)]
    n, d = X.n_points, X.d
    e = blocks[0].shape[0] if blocks[0].ndim else 1
    for i, block in enumerate(blocks):
        if block.shape != (e, d**i):
            raise ValueError(f"start block {i} must have shape ({e}, {d**i}), got {block.shape}")
        if not np.isfinite(block).all():
            raise NonFiniteLevelError(f"start block {i} has non-finite entries")
    levels = []
    for i in range(X.N):
        arr = np.zeros((n, e, d**i))
        for j in range(i, X.N):
            arr += _fill_leading(blocks[j], X.levels[j - i])
        levels.append(arr)
    return ControlledPath(X.times, d, X.N, e, levels)


def canonical_lift(X: GeometricRoughPath) -> ControlledPath:
    """The driver's own level-1 path controlled by itself: the zero-remainder
    path with start blocks (0, identity, 0, ...)."""
    if X.N < 2:
        raise ValueError("canonical lift needs N >= 2")
    d = X.d
    blocks = [np.zeros((d, 1)), np.eye(d)] + [np.zeros((d, d**i)) for i in range(2, X.N)]
    return zero_remainder_path(blocks, X)


def _check_summands(Ya: ControlledPath, Yb: ControlledPath) -> None:
    if Ya.d != Yb.d or Ya.N != Yb.N:
        raise ValueError("controlled paths disagree in (d, N)")
    if not np.array_equal(Ya.times, Yb.times) or Ya.dim_u != Yb.dim_u:
        raise ValueError("controlled paths must share grid and target")


# Path arithmetic: an overflow is left to the constructor's finiteness check.
def path_add(Ya: ControlledPath, Yb: ControlledPath) -> ControlledPath:
    _check_summands(Ya, Yb)
    with np.errstate(over="ignore", invalid="ignore"):
        return Ya.replace_levels([a + b for a, b in zip(Ya.levels, Yb.levels)])


def path_sub(Ya: ControlledPath, Yb: ControlledPath) -> ControlledPath:
    _check_summands(Ya, Yb)
    with np.errstate(over="ignore", invalid="ignore"):
        return Ya.replace_levels([a - b for a, b in zip(Ya.levels, Yb.levels)])


def path_scale(Y: ControlledPath, c: float) -> ControlledPath:
    c = _check_real(c, "scale factor c")
    with np.errstate(over="ignore", invalid="ignore"):
        return Y.replace_levels([c * a for a in Y.levels])


def concatenate(left: ControlledPath, right: ControlledPath, X: GeometricRoughPath,
                tol: float = 1e-10) -> ControlledPath:
    """Join controlled paths over adjacent intervals sharing a junction point.

    End values of ``left`` must match start values of ``right`` at every
    level within ``tol`` >= 0 (max-abs); the junction row keeps the left values.
    """
    tol = _check_real(tol, "tol", 0, math.inf, "[]")
    if left.d != right.d or left.N != right.N or left.dim_u != right.dim_u:
        raise ValueError("controlled paths are incompatible")
    if left.times[-1] != right.times[0]:
        raise ValueError("junction times differ")
    mismatch = _max_abs(left.levels[i][-1] - right.levels[i][0] for i in range(left.N))
    if not mismatch <= tol:
        raise ValueError(f"junction value mismatch {mismatch:.3e} exceeds {tol:.3e}")
    times = np.concatenate([left.times, right.times[1:]])
    start = int(np.searchsorted(X.times, times[0]))
    if start + times.size > X.n_points or not np.array_equal(times, X.times[start:start + times.size]):
        raise ValueError("joined grid must be a contiguous slice of the driver grid")
    levels = [np.concatenate([a, b[1:]], axis=0) for a, b in zip(left.levels, right.levels)]
    return ControlledPath(times, left.d, left.N, left.dim_u, levels)


def restrict_path(Y: ControlledPath, s_idx: int, t_idx: int) -> ControlledPath:
    """Slice a controlled path to grid indices s_idx..t_idx."""
    _check_whole(s_idx, "grid index s_idx", 0, Y.n_points - 1, IndexError)
    _check_whole(t_idx, "grid index t_idx", 0, Y.n_points - 1, IndexError)
    if s_idx >= t_idx:
        raise ValueError(f"restriction needs s_idx < t_idx, got ({s_idx}, {t_idx})")
    rows = slice(s_idx, t_idx + 1)
    return ControlledPath(Y.times[rows], Y.d, Y.N, Y.dim_u, [lvl[rows] for lvl in Y.levels])
