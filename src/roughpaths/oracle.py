"""Independent brute-force references used by the test suite.

Classical RK4 integration, left-point Riemann-Stieltjes sums, a recursive
enumeration of ordered subset partitions with the coproduct counts of basis
words read off it, the slotwise product of coproduct sectors, the coproduct
sectors summed one transpose per position assignment, the composed levels
summed one transpose per set partition, Holder grid maxima from signatures
chained segment by segment, the Lipschitz composition summed column by
column over ordered partitions with weight 1/j!,
the compensated sum taken one interval and one level at a time, the
controlled seminorm and distance scanned pair by pair from each pair's own
increment, and the group inverse by the finite Neumann series.
Deliberately naive: these are oracles, not production paths.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .controlled_path import ControlledPath
from .records import _Record
from .rough_path import increment
from .tensor_algebra import _assignment_axes, _set_partition_axes, _truncated_product
from .tensor_algebra import exp_segment, word_index


class OracleResult(_Record, frozen=True):
    value: np.ndarray
    method: str
    resolution: int


def ode_rk4(field, path, y0, substeps: int = 1) -> np.ndarray:
    """Classical RK4 for dy = field(y) dx along a piecewise-linear driver.

    ``field(y)`` returns the (dim_u, d) matrix applied to dx.  Returns the
    solution at every grid point of ``path``, shape (M+1, dim_u).
    """
    times = np.asarray(path.times, dtype=float)
    points = np.asarray(path.points, dtype=float)
    y = np.array(y0, dtype=float).ravel()
    out = [y.copy()]
    for seg in range(len(times) - 1):
        dx = (points[seg + 1] - points[seg]) / substeps
        for _ in range(substeps):
            k1 = field(y) @ dx
            k2 = field(y + 0.5 * k1) @ dx
            k3 = field(y + 0.5 * k2) @ dx
            k4 = field(y + k3) @ dx
            y = y + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(y.copy())
    return np.array(out)


def riemann_stieltjes(integrand, path, refinement: int = 1) -> OracleResult:
    """Left-point Stieltjes sum of ``integrand(t) dx_t`` over the driver grid.

    ``integrand(t)`` returns a (dim_u, d) matrix.  Each grid segment is split
    into ``refinement`` equal pieces; the path is interpolated linearly.
    """
    times = np.asarray(path.times, dtype=float)
    points = np.asarray(path.points, dtype=float)
    total = None
    for seg in range(len(times) - 1):
        t0, t1 = times[seg], times[seg + 1]
        dx = (points[seg + 1] - points[seg]) / refinement
        for j in range(refinement):
            t = t0 + (t1 - t0) * j / refinement
            term = np.asarray(integrand(t), dtype=float) @ dx
            total = term if total is None else total + term
    if total is None:
        total = np.zeros(0)
    return OracleResult(value=total, method="left_stieltjes", resolution=refinement)


def enumerate_partitions(r: int, k: int, allow_empty: bool = True) -> list:
    """All ordered k-tuples of disjoint subsets covering {0, ..., r-1}.

    Recursive subset-choice enumeration (first block chooses a subset, the
    rest partition the remainder), independent of the base-k assignment walk
    used by the algebra module.
    """
    def subsets(items):
        items = list(items)
        for mask in range(1 << len(items)):
            yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)

    def rec(remaining, blocks_left):
        if blocks_left == 1:
            yield (tuple(remaining),)
            return
        for first in subsets(remaining):
            rest = [p for p in remaining if p not in first]
            for tail in rec(rest, blocks_left - 1):
                yield (first,) + tail

    out = []
    for blocks in rec(list(range(r)), k):
        if not allow_empty and any(len(b) == 0 for b in blocks):
            continue
        out.append(blocks)
    return out


def partition_counts(d: int, r: int, k: int) -> dict:
    """Arity-k coproduct of the d**r basis words of level r, counted from the
    subset-choice enumeration: {sizes: counts}, ``counts`` a (d**r, d**r)
    array whose entry (w, c) counts the ordered partitions of the positions of
    w with those block sizes whose concatenated subwords sit at flat index c.
    """
    counts: dict = {}
    for blocks in enumerate_partitions(r, k):
        sizes = tuple(map(len, blocks))
        if sizes not in counts:
            counts[sizes] = np.zeros((d**r, d**r))
        for w in itertools.product(range(1, d + 1), repeat=r):
            sub = tuple(w[p] for blk in blocks for p in blk)
            counts[sizes][word_index(w, d), word_index(sub, d)] += 1.0
    return counts


def slotwise_product(a: dict, b: dict, d: int, N: int) -> dict:
    """Slotwise concatenation product of arity-k dense sectors {sizes: block},
    laid out as ``tensor_algebra.coproduct`` returns them: (u_1, ..., u_k) of
    ``a`` times (v_1, ..., v_k) of ``b`` adds to (u_1 v_1, ..., u_k v_k), and
    products with a slot longer than N are dropped.  One outer product per
    pair of sectors, its axes transposed into slot order.
    """
    out: dict = {}
    for sa, xa in a.items():
        for sb, xb in b.items():
            sizes = tuple(p + q for p, q in zip(sa, sb))
            if max(sizes, default=0) > N:
                continue
            # Axes of a's slots come first, then b's; take them slot by slot.
            ca = list(itertools.accumulate(sa, initial=0))
            cb = list(itertools.accumulate(sb, initial=ca[-1]))
            order = [ax for j in range(len(sizes))
                     for ax in (*range(ca[j], ca[j + 1]), *range(cb[j], cb[j + 1]))]
            cube = np.multiply.outer(xa, xb).reshape((d,) * sum(sizes))
            out[sizes] = out.get(sizes, 0.0) + cube.transpose(order).ravel()
    return out


def coproduct_sectors_reference(levels, k: int) -> dict:
    """Arity-k coproduct sectors of level lists, batched over leading axes, as
    {sizes: block}: per block-size profile, the level-r cube transposed by each
    position assignment's axis order and flattened, added into a zero block one
    assignment at a time, in assignment order.
    """
    d, lead = levels[1].shape[-1], levels[0].shape[:-1]
    sectors = {}
    for r, level in enumerate(levels):
        cube = level.reshape((-1,) + (d,) * r)
        for sizes, orders in _assignment_axes(r, k).items():
            acc = np.zeros((cube.shape[0], d**r))
            for order in orders:
                acc += cube.transpose((0,) + tuple(1 + p for p in order)).reshape(acc.shape)
            sectors[sizes] = acc.reshape(lead + (d**r,))
    return sectors


def group_inverse_reference(g) -> list:
    """Inverse of level lists with level-0 coefficient 1, batched over leading
    axes, by the finite Neumann series: N passes of inv <- unit + (unit - g) (x) inv,
    each a full truncated product.  Exact in the truncated algebra because
    (unit - g) has zero scalar part and is therefore nilpotent."""
    unit = [np.ones_like(g[0])] + [np.zeros_like(lvl) for lvl in g[1:]]
    u = [a - b for a, b in zip(unit, g)]
    inv = unit
    for _ in range(len(g) - 1):
        inv = [a + b for a, b in zip(unit, _truncated_product(u, inv))]
    return inv


def chained_signature(points, N: int) -> list:
    """Signature of the polyline through ``points``, level by level.

    Multiplies the segment exponentials left to right with a plain double
    loop over levels: no group inverse and no batched product.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    sig = [np.ones(1)] + [np.zeros(d**r) for r in range(1, N + 1)]
    for a, b in zip(points, points[1:]):
        seg = exp_segment(b - a, N).levels
        sig = [sum(np.multiply.outer(sig[i], seg[r - i]).ravel() for i in range(r + 1))
               for r in range(N + 1)]
    return sig


def holder_maxima(path, N: int, beta: float, other=None) -> list:
    """Per level i = 1..N, the grid maximum over s < t of
    |X^i_{s,t} - Xother^i_{s,t}| / (t - s)^(i beta), each increment being the
    chained signature of the sub-polyline points[s..t].  Without ``other`` the
    second term is zero, giving the level Holder norms.
    """
    times = np.asarray(path.times, dtype=float)
    worst = [0.0] * N
    for s in range(times.size - 1):
        for t in range(s + 1, times.size):
            inc = chained_signature(path.points[s:t + 1], N)
            if other is not None:
                inc_b = chained_signature(other.points[s:t + 1], N)
                inc = [a - b for a, b in zip(inc, inc_b)]
            for i in range(1, N + 1):
                ratio = float(np.abs(inc[i]).sum()) / (times[t] - times[s]) ** (i * beta)
                worst[i - 1] = max(worst[i - 1], ratio)
    return worst


def compose_reference(F, Y, X) -> ControlledPath:
    """Composition of a Lipschitz function with a controlled path, one word
    column at a time: level r at column w sums, over arities j and ordered
    nonempty partitions (B_1..B_j) of the positions of w, F^j applied to
    Y^{|B_1|}[w|B_1] (x) ... (x) Y^{|B_j|}[w|B_j], weighted by 1/j!.
    """
    P, d, N = Y.n_points, Y.d, Y.N
    ys = Y.path_values()
    f_blocks = {j: F.eval(j, ys) for j in range(1, N)}
    z_levels = [F.eval(0, ys)]
    for r in range(1, N):
        block = np.zeros((P, F.dim_out, d**r))
        partitions = {j: enumerate_partitions(r, j, allow_empty=False) for j in range(1, r + 1)}
        for col, word in enumerate(itertools.product(range(1, d + 1), repeat=r)):
            acc = np.zeros((P, F.dim_out))
            for j in range(1, r + 1):
                fj = f_blocks[j]
                inv_jfact = 1.0 / math.factorial(j)
                for blocks in partitions[j]:
                    tensor = np.ones((P, 1))
                    for blk in blocks:
                        vec = Y.levels[len(blk)][:, :, word_index(tuple(word[p] for p in blk), d)]
                        tensor = np.einsum("pa,pb->pab", tensor, vec).reshape(P, -1)
                    acc += inv_jfact * np.einsum("pux,px->pu", fj, tensor)
            block[:, :, col] = acc
        z_levels.append(block)
    return ControlledPath(Y.times, d, N, F.dim_out, z_levels)


def composed_level_reference(f_blocks, y_levels, r: int) -> np.ndarray:
    """Level r >= 1 of a composition on the arguments of
    ``lipschitz._composed_level``: per non-decreasing block-size profile, F^j
    contracted against the profile's levels of Y, then transposed back to
    word order by the inverse of each set partition's axis order and added
    into a zero cube one set partition at a time, in table order.
    """
    P, u = f_blocks[1].shape[:2]
    e, d = y_levels[1].shape[1:]
    cube = np.zeros((P, u) + (d,) * r)
    for sizes, orders in _set_partition_axes(r).items():
        t, width = f_blocks[len(sizes)], 1
        for l in reversed(sizes):
            t = np.swapaxes(y_levels[l], 1, 2)[:, None] @ t.reshape(P, -1, e, width)
            width *= d**l
        t = t.reshape(cube.shape)
        for order in orders:
            cube += t.transpose((0, 1) + tuple(2 + q for q in np.argsort(order)))
    return cube.reshape(P, u, d**r)


def compensated_sum_reference(Z, X, partition) -> np.ndarray:
    """Sum over partition intervals [a, b] and levels k = 1..N of Z^{k-1}_a
    paired with X^k_{a,b}, one interval and one level at a time, ascending.

    Z^{k-1}_a maps V^(x)(k-1) into L(V;U), rows in (u, v) order: the term is
    sum over v and w of Z^{k-1}_a[(u, v), w] X^k_{a,b}[w v], the word w
    filling the map's slots and the letter v the operator's.
    """
    e, d = Z.dim_u // Z.d, Z.d
    idx = partition.indices
    total = np.zeros(e)
    for a, b in zip(idx, idx[1:]):
        inc = increment(X, a, b)
        for k in range(1, X.N + 1):
            block = Z.levels[k - 1][a].reshape(e, d, d ** (k - 1))
            x_k = inc.levels[k].reshape(d ** (k - 1), d)
            total = total + np.einsum("uvw,wv->u", block, x_k)
    return total


def _remainder_reference(Y, inc, i: int, s: int, t: int) -> np.ndarray:
    """RY^i_{s,t} = Y^i_t - Y^i_s - sum_j Y^{i+j}_s paired with X^j_{s,t} in its
    leading j slots, one einsum over the (e, d**j, d**i) cube per j."""
    e, d = Y.dim_u, Y.d
    rem = Y.levels[i][t] - Y.levels[i][s]
    for j in range(1, Y.N - i):
        cube = Y.levels[i + j][s].reshape(e, d**j, d**i)
        rem = rem - np.einsum("ujk,j->uk", cube, inc.levels[j])
    return rem


def _remainder_maxima(Ya, Xa, Yb, Xb, alpha) -> float:
    """Sum over levels i of the grid maximum over s < t of
    |RYa^i_{s,t} - RYb^i_{s,t}| / (t - s)^((N - i) alpha), the second term
    dropped when ``Yb`` is None; one increment(X, s, t) per pair and driver."""
    times, N = Ya.times, Ya.N
    worst = [0.0] * N
    for s in range(times.size - 1):
        for t in range(s + 1, times.size):
            inc_a = increment(Xa, s, t)
            inc_b = None if Yb is None else increment(Xb, s, t)
            for i in range(N):
                rem = _remainder_reference(Ya, inc_a, i, s, t)
                if Yb is not None:
                    rem = rem - _remainder_reference(Yb, inc_b, i, s, t)
                ratio = float(np.abs(rem).sum()) / (times[t] - times[s]) ** ((N - i) * alpha)
                worst[i] = max(worst[i], ratio)
    return sum(worst)


def seminorm_reference(Y, X, alpha: float) -> float:
    """The controlled seminorm, scanned pair by pair (see ``_remainder_maxima``)."""
    return _remainder_maxima(Y, X, None, None, alpha)


def distance_reference(Ya, Yb, Xa, Xb, alpha: float) -> float:
    """The controlled distance, scanned pair by pair (see ``_remainder_maxima``)."""
    return _remainder_maxima(Ya, Xa, Yb, Xb, alpha)
