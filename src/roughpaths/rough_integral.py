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

from .controlled_path import ControlledPath, _check_pair, _fill_leading, remainder_rows
from .rough_path import GeometricRoughPath, _increments, increment
from .tensor_algebra import _is_whole


@dataclass(frozen=True)
class Partition:
    """Ordered subset of grid indices with fixed endpoints."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("partition indices must be strictly increasing, length >= 2")
        object.__setattr__(self, "indices", idx)

    def mesh(self, times) -> float:
        t = np.asarray(times, dtype=float)[list(self.indices)]
        return float(np.max(np.diff(t)))

    def remove(self, j: int) -> "Partition":
        if not (0 < j < len(self.indices) - 1):
            raise ValueError("only interior points can be removed")
        return Partition(self.indices[:j] + self.indices[j + 1:])


def dyadic_partition(s_idx: int, t_idx: int, depth: int) -> Partition:
    """2**depth intervals with indices snapped to the grid (duplicates merged),
    for integers 0 <= s_idx < t_idx and ``depth`` >= 0."""
    if not (_is_whole(s_idx) and _is_whole(t_idx) and 0 <= s_idx < t_idx):
        raise ValueError(f"dyadic window ({s_idx!r}, {t_idx!r}) needs integers 0 <= s_idx < t_idx")
    if not (_is_whole(depth) and depth >= 0):
        raise ValueError(f"dyadic depth {depth!r} must be an integer >= 0")
    # Once 2**depth >= t_idx - s_idx every grid index is hit: skip forming 2**depth points.
    if depth >= int(t_idx - s_idx - 1).bit_length():
        return Partition(tuple(range(s_idx, t_idx + 1)))
    pieces = 2**depth
    raw = s_idx + np.round(np.arange(pieces + 1) * (t_idx - s_idx) / pieces).astype(int)
    # The snapped indices do not decrease, so equal ones are neighbours: merge them in order.
    return Partition(tuple(dict.fromkeys(raw.tolist())))


def _integrand_dims(Z: ControlledPath) -> tuple[int, int]:
    if Z.dim_u % Z.d != 0:
        raise ValueError("integrand target must be L(V;U): dim_u divisible by d")
    return Z.dim_u // Z.d, Z.d


def _operator_slot_last(block: np.ndarray, d: int) -> np.ndarray:
    """Reinterpret maps V^(x)r -> L(V;U) as maps V^(x)(r+1) -> U.

    ``block`` has shape (..., e*d, d**r) with rows in (u, v) order; the
    result has shape (..., e, d**(r+1)), the operator slot v last.
    """
    lead, e, m = block.shape[:-2], block.shape[-2] // d, block.shape[-1]
    return np.swapaxes(block.reshape(lead + (e, d, m)), -1, -2).reshape(lead + (e, d * m))


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
    if idx[0] < 0 or idx[-1] >= X.n_points:
        raise ValueError("partition leaves the driver grid")
    _check_pair(Z, X)
    _, d = _integrand_dims(Z)
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
    e, _ = _integrand_dims(Z)
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
    e, d = _integrand_dims(Z)
    _check_pair(Z, X)
    # Each integrand level with its operator slot last, once: the step terms
    # read it at the step starts, and it is the integral's next level up.
    shifted = [_operator_slot_last(z, d) for z in Z.levels]
    level0 = np.zeros((X.n_points, e))
    per_step = _interval_terms([z[:-1] for z in shifted], X._step_increments()).sum(axis=1)
    np.cumsum(per_step, axis=0, out=level0[1:])
    if offset is not None:
        level0 = level0 + np.asarray(offset, dtype=float).ravel()[None, :]
    return ControlledPath(X.times, X.d, X.N, e, [level0[:, :, None]] + shifted[:-1])


def removal_identity_check(Z: ControlledPath, X: GeometricRoughPath,
                           partition: Partition, j: int) -> float:
    """Deviation in the exact identity for removing one interior partition point:
    the sum difference equals the integrand remainder over the left gap paired
    with the driver levels over the right gap."""
    idx = partition.indices
    if not (0 < j < len(idx) - 1):
        raise ValueError("j must index an interior partition point")
    e, d = _integrand_dims(Z)
    lhs = compensated_sum(Z, X, partition) - compensated_sum(Z, X, partition.remove(j))
    a, b = idx[j - 1], idx[j]
    inc_right = increment(X, b, idx[j + 1])
    rhs = np.zeros(e)
    for k in range(1, X.N + 1):
        rz = _operator_slot_last(remainder_rows(Z, X, k - 1, a)[b - a], d)
        rhs = rhs + _fill_leading(rz, inc_right.levels[k])[:, 0]
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
    reports no exponent.  Each depth must be an integer >= 0.
    """
    # Each depth is checked by its partition before the sort compares it.
    parts = sorted(((m, dyadic_partition(s_idx, t_idx, m)) for m in depths), key=lambda mp: mp[0])
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
    p = (N + 1) * alpha
    if not p > 1.0:  # also rejects NaN
        raise ValueError(f"(N+1)*alpha = {p} must exceed 1 for the tail to converge")
    return float(2.0**p * _hurwitz_zeta2(p))
