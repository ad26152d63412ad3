"""Fixed-point solver for dY = F(Y) dX in the controlled-path sense.

One Picard step composes the field with the current iterate and integrates
the result; local solves iterate from the canonical zero-remainder start
path inside the unit ball, and a patching loop with adaptive interval
length extends local solutions to the full horizon.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .controlled_path import (
    ControlledPath,
    NonFiniteLevelError,
    _initial_norm,
    concatenate,
    distance,
    path_sub,
    prefix_seminorms,
    restrict_path,
    seminorm,
    triple_norm,
    zero_remainder_path,
)
from .lipschitz import LipFunction, _composed_level, compose
from .rough_integral import _operator_slot_last, integral_controlled
from .rough_path import GeometricRoughPath, holder_distance, restrict
from .tensor_algebra import _max_abs


# Largest ball distance of an accepted local solution: the unit ball, with slack for roundoff.
_BALL_RADIUS = 1.0 + 1e-9


class ContractionFailure(RuntimeError):
    """Local Picard iteration did not contract; the caller should shrink tau."""


class BallExit(ContractionFailure):
    """Iterates converged but the fixed point sits outside the unit ball.

    Carries the converged result ``local`` and ``in_ball``, the grid steps of
    its longest prefix that stays in the ball (0 when none does): the
    solution map is causal, so :func:`solve` keeps that prefix as a patch.
    Shrinking tau only helps up to a point: the ball distance carries a
    Holder-constant term that does not scale with the interval length, so
    rough drivers can make the ball unattainable on any grid interval.
    """

    def __init__(self, message, local=None, in_ball: int = 0):
        super().__init__(message)
        self.local = local
        self.in_ball = in_ball


class SolveFailure(RuntimeError):
    """Solve failed; :func:`solve` attaches the partial solution and report."""

    partial: ControlledPath | None = None
    report: SolveReport | None = None


def _is_int_at_least(value, least: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def check_exponents(N: int, alpha: float, beta: float) -> list:
    """Enforce 1/(N+1) < alpha < beta <= 1/N; warn when alpha is within 1e-9 of an open end."""
    lo = 1.0 / (N + 1)
    if not (lo < alpha < beta <= 1.0 / N):
        raise ValueError(f"exponents must satisfy 1/{N + 1} < alpha < beta <= 1/{N}, "
                         f"got alpha={alpha}, beta={beta}")
    if alpha - lo < 1e-9 or beta - alpha < 1e-9:
        return [f"alpha={alpha} sits at the edge of the open interval "
                f"({lo:.6f}, beta={beta}); estimates degrade near the boundary"]
    return []


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    beta: float
    max_picard_iters: int = 60
    contraction_tol: float = 1e-10
    tau_init: float = 0.25
    tau_shrink: float = 0.5
    max_patches: int = 64
    explosion_bound: float = 1e8

    def validate(self, N: int) -> list:
        """Enforce the exponent window and the budgets; returns the window's warnings."""
        warnings = check_exponents(N, self.alpha, self.beta)
        if not all(_is_int_at_least(v, 1) for v in (self.max_picard_iters, self.max_patches)):
            raise ValueError("iteration and patch budgets must be integers >= 1")
        # A NaN or infinite tau never shrinks to one grid step: the patch loop would not end.
        if not (0 < self.contraction_tol < math.inf and 0 < self.tau_init < math.inf):
            raise ValueError("contraction_tol and tau_init must be finite and positive")
        if not 0 < self.tau_shrink < 1:
            raise ValueError("tau_shrink must lie in (0, 1)")
        if not self.explosion_bound > 0:
            raise ValueError("explosion_bound must be positive")
        return warnings


@dataclass
class PatchReport:
    t_start: float
    t_end: float
    tau: float
    iterations: int
    final_residual: float
    residuals: list = field(default_factory=list)


@dataclass
class SolveReport:
    patches: list
    n_patches: int = 0
    solution_seminorm: float = 0.0
    solution_norm: float = 0.0
    global_residual: float = 0.0
    junction_mismatch: float = 0.0
    ball_exits: int = 0
    wall_time_s: float = 0.0
    success: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def canonical_initial_path(y0, F: LipFunction, X: GeometricRoughPath) -> ControlledPath:
    """Zero-remainder start path: initial blocks from the field's derivative
    recursion at y0, propagated along the driver's running signature."""
    y0 = np.asarray(y0, dtype=float).ravel()
    d, N = X.d, X.N
    e = y0.size
    if F.dim_in != e or F.dim_out != e * d:
        raise ValueError("field must map U to L(V;U) for this state dimension")
    if F.n_levels < N - 1:
        raise ValueError(f"field has levels 0..{F.n_levels}, need at least 0..{N - 1}")
    # Level r + 1 is level r of F composed with the levels 0..r found so far,
    # all on a one-point batch.  Overflow is caught by the controlled path's
    # finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        f_blocks = {j: F.eval(j, y0[None]) for j in range(N - 1)}
        w0 = [y0[None, :, None]]
        for r in range(N - 1):
            z = f_blocks[0] if r == 0 else _composed_level(f_blocks, w0, r)
            w0.append(_operator_slot_last(z, d))
        return zero_remainder_path([w[0] for w in w0], X)


def picard_step(Y: ControlledPath, F: LipFunction, X: GeometricRoughPath, y0) -> ControlledPath:
    """One application of the solution map: integrate the composed field."""
    # Overflow is caught by the controlled paths' finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        return integral_controlled(compose(F, Y, X), X, offset=np.asarray(y0, dtype=float))


@dataclass
class LocalSolve:
    path: ControlledPath
    iterations: int
    residuals: list


def solve_local(F: LipFunction, X_local: GeometricRoughPath, y0, config: SolverConfig,
                initial_guess: ControlledPath | None = None,
                enforce_ball: bool = True) -> LocalSolve:
    """Iterate the solution map on one interval until the successive-iterate
    norm drops below the contraction tolerance.

    Raises :class:`ContractionFailure` when iterates diverge or stall past
    the iteration budget, and :class:`BallExit` (carrying the converged
    result and its longest in-ball prefix, read off the one ball-distance
    scan) when the final iterate leaves the unit ball around the start
    path while ``enforce_ball`` is set, and :class:`SolveFailure` when the
    start path or an iterate overflows or breaches the explosion guard, or
    a residual is not finite.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    try:
        W = canonical_initial_path(y0, F, X_local)
    except NonFiniteLevelError as err:
        raise SolveFailure(f"start path overflowed: {err}") from err
    Y = W if initial_guess is None else initial_guess
    residuals: list = []
    for it in range(config.max_picard_iters):
        try:
            Y_new = picard_step(Y, F, X_local, y0)
        except NonFiniteLevelError as err:
            raise SolveFailure(f"Picard iterate overflowed: {err}") from err
        peak = float(np.max(np.abs(Y_new.path_values())))
        if not np.isfinite(peak) or peak > config.explosion_bound:
            raise SolveFailure(f"state norm {peak:.3e} breached the explosion guard "
                               f"{config.explosion_bound:.3e}")
        res = triple_norm(path_sub(Y_new, Y), X_local, config.alpha)
        if not math.isfinite(res):
            raise SolveFailure(f"Picard residual {res} is not finite")
        residuals.append(res)
        Y = Y_new
        if res <= config.contraction_tol:
            local = LocalSolve(Y, it + 1, residuals)
            if enforce_ball:
                # The ball distance of every prefix, non-decreasing in its end point.
                ball = prefix_seminorms(path_sub(Y, W), X_local, config.alpha)
                if ball[-1] > _BALL_RADIUS:
                    raise BallExit("converged outside the unit ball", local=local,
                                   in_ball=int(np.count_nonzero(ball <= _BALL_RADIUS)) - 1)
            return local
        if len(residuals) >= 3 and residuals[-1] > residuals[-2] > residuals[-3] \
                and residuals[-1] > 10.0 * residuals[0]:
            raise ContractionFailure("residuals diverge; shrink tau")
    raise ContractionFailure(f"no contraction within {config.max_picard_iters} iterations")


def grid_index(times, t: float, tol: float = 1e-9) -> int:
    idx = int(np.argmin(np.abs(np.asarray(times) - t)))
    if not abs(times[idx] - t) <= tol:  # also rejects NaN, whose argmin is 0
        raise ValueError(f"time {t} is not grid-representable (nearest {times[idx]})")
    return idx


def _up_to(X: GeometricRoughPath, idx_T: int) -> GeometricRoughPath:
    """The driver on grid indices 0..idx_T; X itself when that is its whole grid."""
    return restrict(X, 0, idx_T) if idx_T < X.n_points - 1 else X


def solve(F: LipFunction, X: GeometricRoughPath, y0, horizon: float,
          config: SolverConfig) -> tuple[ControlledPath, SolveReport]:
    """Global solve on [t0, horizon] by patching local fixed points.

    A working interval length tau is reused across patches.  An attempt that
    converges outside the unit ball keeps its longest in-ball prefix of one
    grid step or more as a patch, with the attempt's iterations and
    residuals, and tau becomes that prefix's length.  tau shrinks by
    ``tau_shrink`` on non-contraction and on a ball exit with no such prefix,
    and grows back by ``1 / tau_shrink``, up to ``tau_init``, after each
    attempt accepted whole.  Patches join at shared grid points, the junction
    keeping the left end values.
    """
    config.validate(X.N)
    start = time.perf_counter()
    idx_T = grid_index(X.times, horizon)
    if idx_T <= 0:
        raise ValueError("horizon must exceed the grid start")
    report = SolveReport(patches=[])
    junction_tol = max(1e-9, 1e3 * config.contraction_tol)

    y_current = np.asarray(y0, dtype=float).ravel()
    tau = config.tau_init
    idx0 = 0
    solution: ControlledPath | None = None
    enforce_ball = True
    try:
        while idx0 < idx_T:
            if len(report.patches) >= config.max_patches:
                raise SolveFailure("patch budget exhausted")
            idx1 = min(idx_T, int(np.searchsorted(X.times, X.times[idx0] + tau + 1e-12,
                                                  side="right")) - 1)
            idx1 = max(idx1, idx0 + 1)
            X_loc = restrict(X, idx0, idx1)
            tau_next = min(config.tau_init, tau / config.tau_shrink)
            try:
                local = solve_local(F, X_loc, y_current, config, enforce_ball=enforce_ball)
            except BallExit as err:
                if err.in_ball >= 1:
                    # The iterate restricted to a prefix is the iterate on that
                    # prefix; the next attempt takes the length that fitted here.
                    idx1 = idx0 + err.in_ball
                    tau_next = float(X.times[idx1] - X.times[idx0])
                    local = LocalSolve(restrict_path(err.local.path, 0, err.in_ball),
                                       err.local.iterations, err.local.residuals)
                elif idx1 > idx0 + 1:
                    tau *= config.tau_shrink
                    continue
                else:
                    # Converged residuals but the ball is unattainable even on one
                    # grid step: fall back to residual-only mode and restart at the
                    # configured interval length; the exits are reported.
                    report.ball_exits += 1
                    enforce_ball = False
                    tau = config.tau_init
                    continue
            except ContractionFailure as err:
                if idx1 == idx0 + 1:
                    raise SolveFailure(f"non-contraction at minimum interval: {err}") from err
                tau *= config.tau_shrink
                continue
            report.patches.append(PatchReport(
                t_start=float(X.times[idx0]), t_end=float(X.times[idx1]),
                tau=float(X.times[idx1] - X.times[idx0]),
                iterations=local.iterations,
                final_residual=local.residuals[-1],
                residuals=list(local.residuals)))
            report.n_patches = len(report.patches)
            if solution is None:
                solution = local.path
            else:
                report.junction_mismatch = _max_abs(
                    [report.junction_mismatch]
                    + [solution.levels[i][-1] - local.path.levels[i][0] for i in range(solution.N)])
                solution = concatenate(solution, local.path, X, tol=junction_tol)
            y_current = solution.path_values()[-1]
            idx0 = idx1
            tau = tau_next

        X_T = _up_to(X, idx_T)
        report.solution_seminorm = seminorm(solution, X_T, config.alpha)
        report.solution_norm = report.solution_seminorm + _initial_norm(solution)
        try:
            image = picard_step(solution, F, X_T, y0)
        except NonFiniteLevelError as err:
            raise SolveFailure(f"Picard image of the solution overflowed: {err}") from err
    except SolveFailure as err:
        err.partial, err.report = solution, report
        raise
    report.global_residual = seminorm(path_sub(solution, image), X_T, config.alpha)
    report.wall_time_s = time.perf_counter() - start
    report.success = True
    return solution, report


def levels_from_field(Y: ControlledPath, F: LipFunction, X: GeometricRoughPath) -> float:
    """Max deviation between Y's levels i >= 1 and the shifted composed levels.

    At a solution these agree: the higher levels are determined by the
    level-0 path through the field.
    """
    Z = compose(F, Y, X)
    return _max_abs(Y.levels[i] - _operator_slot_last(Z.levels[i - 1], Y.d) for i in range(1, Y.N))


@dataclass(frozen=True)
class ContinuityProbe:
    d_out: float
    d_in: float
    ratio: float


def continuity_probe(F: LipFunction, Xa: GeometricRoughPath, Xb: GeometricRoughPath,
                     y0a, y0b, horizon: float, config: SolverConfig) -> ContinuityProbe:
    """Solve under both drivers/initial values and compare output to input distance."""
    Ya, _ = solve(F, Xa, y0a, horizon, config)
    Yb, _ = solve(F, Xb, y0b, horizon, config)
    idx_T = grid_index(Xa.times, horizon)
    Xa_T, Xb_T = _up_to(Xa, idx_T), _up_to(Xb, idx_T)
    d_out = distance(Ya, Yb, Xa_T, Xb_T, config.alpha)
    d_in = holder_distance(Xa_T, Xb_T, config.beta) + float(
        np.abs(np.asarray(y0a, dtype=float) - np.asarray(y0b, dtype=float)).sum())
    ratio = d_out / d_in if d_in > 0 else 0.0
    return ContinuityProbe(d_out=d_out, d_in=d_in, ratio=ratio)
