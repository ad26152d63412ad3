"""Rough integration of controlled integrands by compensated Riemann sums.

The integrand is a controlled path whose target is the space of linear maps
V -> U, stored flat with target dimension dim_u * d (row-major (u, v)).  The
integral on the driver's native grid is the realized limit; dyadic
coarsenings estimate convergence.  The terms Z^{k-1}_a X^k_{a,b} of every
interval and level come from one batched kernel, :func:`_interval_terms`,
one leading-slot contraction per level against increments passed in: the
running integral reads the driver's cached grid-step increments, computed
once per driver however many Picard steps integrate against it, and a
compensated sum over a coarser partition takes its own from
``rough_path._increments``.  Summation order is fixed (ascending time, then
level) so results are bit-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controlled_path import ControlledPath, _check_pair, _fill_leading, _remainder_blocks
from .rough_path import GeometricRoughPath, _increments
from .tensor_algebra import MAX_LEVEL, _check_array, _check_real, _check_whole


@dataclass(frozen=True)
class Partition:
    """Ordered subset of grid indices (integers >= 0) with fixed endpoints."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(_check_whole(i, "partition index", 0) for i in self.indices)
        if len(idx) < 2 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("partition indices must be strictly increasing, length >= 2")
        object.__setattr__(self, "indices", idx)

    def mesh(self, times) -> float:
        t = np.asarray(times, dtype=float)[list(self.indices)]
        return float(np.max(np.diff(t)))

    def remove(self, j: int) -> "Partition":
        """The partition without its interior point j, 0 < j < len(indices) - 1."""
        j = _check_whole(j, "interior point j", 1, len(self.indices) - 2)
        return Partition(self.indices[:j] + self.indices[j + 1:])


def dyadic_partition(s_idx: int, t_idx: int, depth: int) -> Partition:
    """2**depth intervals with indices snapped to the grid (duplicates merged),
    for integers 0 <= s_idx < t_idx and ``depth`` >= 0."""
    s_idx = _check_whole(s_idx, "dyadic window s_idx", 0)
    t_idx = _check_whole(t_idx, "dyadic window t_idx", 0)
    if s_idx >= t_idx:
        raise ValueError(f"dyadic window ({s_idx}, {t_idx}) needs s_idx < t_idx")
    depth = _check_whole(depth, "dyadic depth", 0)
    # Once 2**depth >= t_idx - s_idx every grid index is hit: skip forming 2**depth points.
    if depth >= int(t_idx - s_idx - 1).bit_length():
        return Partition(tuple(range(s_idx, t_idx + 1)))
    pieces = 2**depth
    raw = s_idx + np.round(np.arange(pieces + 1) * (t_idx - s_idx) / pieces).astype(int)
    # The snapped indices do not decrease, so equal ones are neighbours: merge them in order.
    return Partition(tuple(dict.fromkeys(raw.tolist())))


def _integrand_dims(dim_u: int, d: int) -> tuple[int, int]:
    """(e, d) for an integrand of target dimension dim_u = e * d, maps V -> U = R^e."""
    if dim_u % d != 0:
        raise ValueError("integrand target must be L(V;U): dim_u divisible by d")
    return dim_u // d, d


def _operator_slot_last(block: np.ndarray, d: int) -> np.ndarray:
    """Reinterpret maps V^(x)r -> L(V;U) as maps V^(x)(r+1) -> U.

    ``block`` has shape (..., e*d, d**r) with rows in (u, v) order; the
    result has shape (..., e, d**(r+1)), the operator slot v last.
    """
    lead, e, m = block.shape[:-2], block.shape[-2] // d, block.shape[-1]
    return block.reshape(lead + (e, d, m)).swapaxes(-1, -2).reshape(lead + (e, d * m))


def _interval_terms(blocks, inc) -> np.ndarray:
    """Terms Z^{k-1}_a paired with X^k_{a,b} over intervals [a, b], shape
    (intervals, N, e): interval, then level k = 1..N.  ``blocks[k - 1]`` holds
    the integrand level k - 1 at the intervals' starts a with the operator
    slot moved last (:func:`_operator_slot_last`), shape (intervals, e, d**k);
    ``inc`` holds the levels of the intervals' driver increments X_{a,b},
    level k of shape (intervals, d**k).

    The integrand block maps V^(x)(k-1) into L(V;U); with the operator slot
    moved last, the driver tensor fills all k of its slots.
    """
    return np.stack([_fill_leading(block, inc[k])[..., 0] for k, block in enumerate(blocks, start=1)],
                    axis=1)


def compensated_sum(Z: ControlledPath, X: GeometricRoughPath, partition: Partition) -> np.ndarray:
    """Sum over partition intervals of sum_k Z^{k-1} paired with X^k.

    Deterministic left-to-right reduction: ascending time, then level.
    """
    idx = partition.indices
    if idx[-1] >= X.n_points:
        raise ValueError("partition leaves the driver grid")
    _check_pair(Z, X)
    _, d = _integrand_dims(Z.dim_u, Z.d)
    a, b = np.asarray(idx[:-1]), np.asarray(idx[1:])
    terms = _interval_terms([_operator_slot_last(z[a], d) for z in Z.levels], _increments(X, a, b, X.N))
    return np.cumsum(terms.reshape(-1, terms.shape[-1]), axis=0)[-1]


def rough_integral(Z: ControlledPath, X: GeometricRoughPath,
                   s_idx: int, t_idx: int) -> tuple[np.ndarray, float]:
    """Integral over [t_s, t_t]: native-grid value plus observed Cauchy increment.

    The error estimate is the gap between the finest dyadic coarsening below
    the native grid and the native value.
    """
    _check_pair(Z, X)
    s_idx = _check_whole(s_idx, "grid index s_idx", 0, X.n_points - 1, IndexError)
    t_idx = _check_whole(t_idx, "grid index t_idx", 0, X.n_points - 1, IndexError)
    if s_idx > t_idx:
        raise ValueError(f"rough_integral requires s_idx <= t_idx, got s_idx={s_idx}, t_idx={t_idx}")
    e, _ = _integrand_dims(Z.dim_u, Z.d)
    if s_idx == t_idx:
        return np.zeros(e), 0.0
    finest = compensated_sum(Z, X, Partition(tuple(range(s_idx, t_idx + 1))))
    if t_idx - s_idx == 1:
        return finest, 0.0
    depth = max(0, int(np.ceil(np.log2(t_idx - s_idx))) - 1)
    coarser = compensated_sum(Z, X, dyadic_partition(s_idx, t_idx, depth))
    return finest, float(np.abs(finest - coarser).sum())


def integral_controlled(Z: ControlledPath, X: GeometricRoughPath,
                        offset=None) -> ControlledPath:
    """The indefinite integral as a controlled path: running level 0, and the
    integrand's levels shifted up by one with the operator slot re-absorbed."""
    e, _ = _integrand_dims(Z.dim_u, Z.d)
    _check_pair(Z, X)
    if offset is not None:
        offset = _check_array(offset, "offset", (e,))
    return ControlledPath(X.times, X.d, X.N, e, _integral_levels(Z.levels, X, offset))


def _integral_levels(z_levels, X: GeometricRoughPath, offset) -> list:
    """The levels of :func:`integral_controlled` of the integrand level list
    ``z_levels`` on X from a checked ``offset``: level i of shape (P, e, d**i).

    Every entry of the integrand reaches the integral, in a level or in a
    step term of level 0, except level N - 1 at the last grid point.
    """
    # Each integrand level with its operator slot last, once: the step terms
    # read it at the step starts, and it is the integral's next level up.
    shifted = [_operator_slot_last(z, X.d) for z in z_levels]
    level0 = np.zeros(shifted[0].shape[:2])
    per_step = _interval_terms([z[:-1] for z in shifted], X._step_increments()).sum(axis=1)
    np.cumsum(per_step, axis=0, out=level0[1:])
    if offset is not None:
        level0 = level0 + offset[None, :]
    return [level0[:, :, None]] + shifted[:-1]


def removal_identity_check(Z: ControlledPath, X: GeometricRoughPath,
                           partition: Partition, j: int) -> float:
    """Deviation in the exact identity for removing one interior partition point:
    the sum difference equals the integrand remainder over the left gap paired
    with the driver levels over the right gap: the remainders RZ^{k-1}_{a,b} of
    every level from one pass, paired with X^k_{b,c} by the per-interval kernel."""
    coarse = partition.remove(j)
    idx = partition.indices
    _, d = _integrand_dims(Z.dim_u, Z.d)
    lhs = compensated_sum(Z, X, partition) - compensated_sum(Z, X, coarse)
    a, b, c = idx[j - 1], idx[j], idx[j + 1]
    rem = _remainder_blocks(Z.levels, X, range(Z.N))(slice(a, a + 1), slice(b, b + 1))
    blocks = [_operator_slot_last(r.reshape(1, Z.dim_u, -1), d) for r in rem]
    rhs = np.cumsum(_interval_terms(blocks, _increments(X, [b], [c], X.N))[0], axis=0)[-1]
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class RateProbe:
    depths: list
    meshes: list
    values: list
    increments: list
    exponent: float | None

    def rows(self) -> list:
        """CSV rows: depth, mesh, value_norm, cauchy_increment (empty at the
        finest depth, which has no successor)."""
        out = []
        for i, (dep, mesh, val) in enumerate(zip(self.depths, self.meshes, self.values)):
            inc = self.increments[i] if i < len(self.increments) else ""
            out.append((dep, mesh, float(np.abs(val).sum()), inc))
        return out


def convergence_rate_probe(Z: ControlledPath, X: GeometricRoughPath,
                           s_idx: int, t_idx: int, depths) -> RateProbe:
    """Fit the decay exponent of Cauchy increments against the partition mesh.

    Increments below roundoff make the fit meaningless; the probe then
    reports no exponent.  ``depths`` holds one or more integers >= 0.
    """
    _check_whole(s_idx, "grid index s_idx", 0, X.n_points - 1, IndexError)
    _check_whole(t_idx, "grid index t_idx", 0, X.n_points - 1, IndexError)
    # Each depth is checked by its partition before the sort compares it.
    parts = sorted(((m, dyadic_partition(s_idx, t_idx, m)) for m in depths), key=lambda mp: mp[0])
    if not parts:
        raise ValueError("depths must hold at least one depth")
    depths = [m for m, _ in parts]
    values = [compensated_sum(Z, X, part) for _, part in parts]
    meshes = [part.mesh(X.times) for _, part in parts]
    increments = [float(np.abs(a - b).sum()) for a, b in zip(values, values[1:])]
    scale = max(float(np.abs(v).sum()) for v in values)
    usable = [(mesh, inc) for mesh, inc in zip(meshes, increments)
              if inc > 1e-13 * max(1.0, scale)]
    if len(usable) < 2:
        return RateProbe(depths, meshes, values, increments, None)
    logm = np.log([m for m, _ in usable])
    logi = np.log([i for _, i in usable])
    slope = float(np.polyfit(logm, logi, 1)[0])
    return RateProbe(depths, meshes, values, increments, slope)


# Direct terms of zeta(p, 2) end below the cutoff; B_2, ..., B_16 correct the tail.
_ZETA_CUTOFF = 12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _hurwitz_zeta2(p: float) -> float:
    """The Hurwitz zeta value zeta(p, 2) = sum_{m>=2} m^-p for p > 1.

    The tail from n = _ZETA_CUTOFF is n^(1-p)/(p-1) + n^-p/2 plus the
    corrections B_2k/(2k)! p(p+1)...(p+2k-2) n^(-p-2k+1); its first term
    carries the pole at p = 1 exactly.
    """
    n = float(_ZETA_CUTOFF)
    terms = [m**-p for m in range(2, _ZETA_CUTOFF)]
    terms += [n ** (1.0 - p) / (p - 1.0), n**-p / 2.0]
    rising, power = p, n ** (-p - 1.0)
    for k, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / math.factorial(2 * k) * rising * power)
        rising *= (p + 2 * k - 1) * (p + 2 * k)
        power /= n * n
    return math.fsum(terms)


def tail_constant(N: int, alpha: float) -> float:
    """The diagnostic series sum_{n>=3} (2/(n-1))^((N+1) alpha).

    Equal to 2^p zeta(p, 2) with p = (N+1) alpha, evaluated by
    :func:`_hurwitz_zeta2`; direct summation cannot reach the needed accuracy
    for exponents close to 1.  Diverges unless (N+1) alpha > 1.
    """
    lo = 1.0 / (_check_whole(N, "level N", 1, MAX_LEVEL) + 1)
    p = (N + 1) * _check_real(alpha, "alpha", lo, 1, "(]")
    if not p > 1.0:  # (N+1) alpha can round to 1 at the open end, as at N = 2 and 5
        raise ValueError(f"(N+1)*alpha = {p} must exceed 1 for the tail to converge")
    return float(2.0**p * _hurwitz_zeta2(p))
