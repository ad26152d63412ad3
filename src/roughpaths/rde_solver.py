"""Fixed-point solver for dY = F(Y) dX in the controlled-path sense.

One Picard step composes the field with the current iterate and integrates
the result; a local solve iterates from the canonical zero-remainder start
path and returns its outcome, and a patching loop with adaptive interval
length keeps the fixed points that lie in the unit ball around their start
path and extends them to the full horizon.  The loop runs on level lists:
a Picard step builds one controlled path, the iterate, and the residuals,
the ball distance and the closing seminorms are scanned from level lists
and level differences by one kernel, ``controlled_path._prefix_seminorms``.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from .controlled_path import (
    ControlledPath,
    NonFiniteLevelError,
    _initial_norm,
    _prefix_seminorms,
    _remainder_plan,
    concatenate,
    distance,
    restrict_path,
    zero_remainder_path,
)
from .lipschitz import LipFunction, _check_compose, _compose_levels, _composed_level, compose
from .rough_integral import _integral_levels, _integrand_dims, _operator_slot_last
from .rough_path import GeometricRoughPath, holder_distance, restrict
from .tensor_algebra import MAX_LEVEL, _check_array, _check_real, _check_whole, _max_abs


# Largest ball distance of an accepted local solution: the unit ball, with slack for roundoff.
_BALL_RADIUS = 1.0 + 1e-9


class SolveFailure(RuntimeError):
    """Solve failed; :func:`solve` attaches the partial solution and report."""

    partial: ControlledPath | None = None
    report: SolveReport | None = None


def check_exponents(N: int, alpha: float, beta: float) -> list:
    """Enforce 1/(N+1) < alpha < beta <= 1/N; warn when alpha is within 1e-9 of an open end."""
    lo = 1.0 / (_check_whole(N, "level N", 1, MAX_LEVEL) + 1)
    alpha = _check_real(alpha, "alpha", lo, 1.0 / N)
    beta = _check_real(beta, "beta", lo, 1.0 / N, "(]")
    if not alpha < beta:
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
        _check_whole(self.max_picard_iters, "max_picard_iters", 1)
        _check_whole(self.max_patches, "max_patches", 1)
        # A NaN or infinite tau never shrinks to one grid step: the patch loop would not end.
        _check_real(self.contraction_tol, "contraction_tol", 0)
        _check_real(self.tau_init, "tau_init", 0)
        _check_real(self.tau_shrink, "tau_shrink", 0, 1)
        _check_real(self.explosion_bound, "explosion_bound", 0, math.inf, "(]")
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
    y0 = _check_array(y0, "y0", (F.dim_in,))
    d, N = X.d, X.N
    e = F.dim_in
    if F.dim_out != e * d:
        raise ValueError("field must map U to L(V;U) for this state dimension")
    if F.n_levels < N - 1:
        raise ValueError(f"field has levels 0..{F.n_levels}, need at least 0..{N - 1}")
    # Level r + 1 is level r of F composed with the levels 0..r found so far,
    # all on a one-point batch.  Overflow is caught by the controlled path's
    # finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        f_blocks = F.eval_levels(max(N - 2, 0), y0[None])
        w0 = [y0[None, :, None]]
        for r in range(N - 1):
            z = f_blocks[0] if r == 0 else _composed_level(f_blocks, w0, r)
            w0.append(_operator_slot_last(z, d))
        return zero_remainder_path([w[0] for w in w0], X)


def picard_step(Y: ControlledPath, F: LipFunction, X: GeometricRoughPath, y0) -> ControlledPath:
    """One application of the solution map: integrate the composed field.

    Equal bit for bit to ``integral_controlled(compose(F, Y, X), X,
    offset=y0)``, with the checks of both, but the composed field Z stays a
    level list: the iterate is the one controlled path built.  A non-finite
    Z raises :class:`NonFiniteLevelError` as its own construction would.
    """
    _check_compose(F, Y, X)
    e, _ = _integrand_dims(F.dim_out, X.d)
    y0 = _check_array(y0, "y0", (e,))
    # Overflow is caught by the finiteness checks below and of the iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        z_levels = _compose_levels(F, Y.levels)
        # The one entry of Z that reaches no entry of the iterate.
        if not np.isfinite(z_levels[-1][-1]).all():
            raise NonFiniteLevelError(f"level {X.N - 1} block of the composed field has "
                                      "non-finite entries")
        levels = _integral_levels(z_levels, X, y0)
    return ControlledPath(X.times, X.d, X.N, e, levels)


@dataclass
class LocalSolve:
    """One local attempt: the last iterate, the start path (the centre of the
    unit ball), the residual of each Picard step, and the outcome:
    ``"converged"``, ``"diverged"`` or ``"stalled"`` past the iteration budget.
    It keeps the attempt's prefix-seminorm scan, which holds the attempt's
    scan plan, for the ball distance (:func:`_in_ball_steps`)."""
    path: ControlledPath
    start: ControlledPath
    residuals: list
    outcome: str
    _scan: Callable | None = field(default=None, repr=False, compare=False)


def _difference(Ya: ControlledPath, Yb: ControlledPath) -> list:
    """The levels of Ya - Yb, a level list: an overflow is left to the caller's
    finiteness check of what it computes from them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [a - b for a, b in zip(Ya.levels, Yb.levels)]


def solve_local(F: LipFunction, X_local: GeometricRoughPath, y0, config: SolverConfig,
                initial_guess: ControlledPath | None = None) -> LocalSolve:
    """Iterate the solution map on one interval until the successive-iterate
    norm drops below the contraction tolerance, and return the attempt.

    Each Picard step builds one controlled path, the iterate; its residual,
    the triple norm of the difference to the previous iterate, is scanned
    from the level differences.  Raises :class:`SolveFailure` when the start
    path or an iterate overflows or breaches the explosion guard, or a
    residual is not finite.
    """
    try:
        W = canonical_initial_path(y0, F, X_local)
    except NonFiniteLevelError as err:
        raise SolveFailure(f"start path overflowed: {err}") from err
    Y = W if initial_guess is None else initial_guess
    # Every residual and the ball distance scan one plan, dropped with the attempt.
    plan = _remainder_plan(X_local, W.dim_u, config.alpha)

    def scan(levels):
        # Overflow shows as a non-finite value, which the caller checks.
        with np.errstate(over="ignore", invalid="ignore"):
            return _prefix_seminorms([levels], X_local, plan)[0]

    residuals: list = []
    for _ in range(config.max_picard_iters):
        try:
            Y_new = picard_step(Y, F, X_local, y0)
        except NonFiniteLevelError as err:
            raise SolveFailure(f"Picard iterate overflowed: {err}") from err
        peak = float(np.max(np.abs(Y_new.path_values())))
        if not np.isfinite(peak) or peak > config.explosion_bound:
            raise SolveFailure(f"state norm {peak:.3e} breached the explosion guard "
                               f"{config.explosion_bound:.3e}")
        step = _difference(Y_new, Y)
        # triple_norm(path_sub(Y_new, Y), X_local, alpha), over the attempt's plan.
        res = float(scan(step)[-1]) + _initial_norm(step)
        if not math.isfinite(res):
            raise SolveFailure(f"Picard residual {res} is not finite")
        residuals.append(res)
        Y = Y_new
        if res <= config.contraction_tol:
            return LocalSolve(Y, W, residuals, "converged", scan)
        if len(residuals) >= 3 and residuals[-1] > residuals[-2] > residuals[-3] \
                and residuals[-1] > 10.0 * residuals[0]:
            return LocalSolve(Y, W, residuals, "diverged", scan)
    return LocalSolve(Y, W, residuals, "stalled", scan)


def _in_ball_steps(local: LocalSolve) -> int:
    """Grid steps of the longest prefix of the attempt inside the unit ball
    around its start path (0 when none is), from the ball distance of every
    prefix, which one scan over the attempt's plan gives and which is
    non-decreasing in the end point.  A non-finite ball distance of the whole
    attempt raises :class:`SolveFailure`."""
    ball = local._scan(_difference(local.path, local.start))
    if not math.isfinite(ball[-1]):
        raise SolveFailure(f"ball distance {ball[-1]} is not finite")
    return int(np.count_nonzero(ball <= _BALL_RADIUS)) - 1


def grid_index(times, t: float, tol: float = 1e-9) -> int:
    t = _check_real(t, "time t")
    tol = _check_real(tol, "tol", 0, math.inf, "[]")
    idx = int(np.argmin(np.abs(np.asarray(times) - t)))
    if not abs(times[idx] - t) <= tol:
        raise ValueError(f"time {t} is not grid-representable (nearest {times[idx]})")
    return idx


def _up_to(X: GeometricRoughPath, idx_T: int) -> GeometricRoughPath:
    """The driver on grid indices 0..idx_T; X itself when that is its whole grid."""
    return restrict(X, 0, idx_T) if idx_T < X.n_points - 1 else X


def solve(F: LipFunction, X: GeometricRoughPath, y0, horizon: float,
          config: SolverConfig) -> tuple[ControlledPath, SolveReport]:
    """Global solve on [t0, horizon] by patching local fixed points.

    A working interval length tau is reused across patches.  The fixed point
    of a converged attempt is checked against the unit ball around its start
    path; one that leaves the ball keeps its longest in-ball prefix of one
    grid step or more as a patch, with the attempt's iterations and
    residuals, and tau becomes that prefix's length.  tau shrinks by
    ``tau_shrink`` on an attempt that diverges or stalls and on one with no
    such prefix, and grows back by ``1 / tau_shrink``, up to ``tau_init``,
    after each attempt accepted whole.  Non-contraction on one grid step
    fails the solve.  When no fixed point on one grid step is in the ball,
    the solve reports a ball exit, stops checking the ball (residual-only
    mode) and restarts at ``tau_init``.  Patches join at shared grid points,
    the junction keeping the left end values.  One closing pass on the
    horizon's driver gives the report's solution seminorm and global
    residual, the seminorm of the solution minus its Picard image.

    Raises :class:`SolveFailure`, with the partial solution and the report
    attached, when a local solve does (see :func:`solve_local`), when the
    patch budget runs out or one grid step does not contract, when the
    Picard image of the solution overflows, or when a ball distance or a
    closing seminorm is not finite.
    """
    config.validate(X.N)
    start = time.perf_counter()
    y_current = _check_array(y0, "y0", (F.dim_in,))
    idx_T = grid_index(X.times, _check_real(horizon, "horizon"))
    if idx_T <= 0:
        raise ValueError("horizon must exceed the grid start")
    report = SolveReport(patches=[])
    junction_tol = max(1e-9, 1e3 * config.contraction_tol)

    tau = config.tau_init
    idx0 = 0
    solution: ControlledPath | None = None
    check_ball = True
    try:
        while idx0 < idx_T:
            if len(report.patches) >= config.max_patches:
                raise SolveFailure("patch budget exhausted")
            idx1 = min(idx_T, int(np.searchsorted(X.times, X.times[idx0] + tau + 1e-12,
                                                  side="right")) - 1)
            idx1 = max(idx1, idx0 + 1)
            X_loc = restrict(X, idx0, idx1)
            tau_next = min(config.tau_init, tau / config.tau_shrink)
            local = solve_local(F, X_loc, y_current, config)
            steps = idx1 - idx0
            in_ball = 0
            if local.outcome == "converged":
                in_ball = _in_ball_steps(local) if check_ball else steps
            if in_ball == 0 and steps > 1:
                tau *= config.tau_shrink
                continue
            if in_ball == 0 and local.outcome != "converged":
                why = ("residuals diverge; shrink tau" if local.outcome == "diverged"
                       else f"no contraction within {config.max_picard_iters} iterations")
                raise SolveFailure(f"non-contraction at minimum interval: {why}")
            if in_ball == 0:
                # Converged, but not even one grid step reaches the ball: its
                # distance has a Holder-constant term that does not shrink with
                # the interval.  Stop checking the ball, report the exit and
                # restart at the configured interval length.
                report.ball_exits += 1
                check_ball = False
                tau = config.tau_init
                continue
            path = local.path
            if in_ball < steps:
                # The iterate restricted to a prefix is the iterate on that
                # prefix; the next attempt takes the length that fitted here.
                idx1 = idx0 + in_ball
                tau_next = float(X.times[idx1] - X.times[idx0])
                path = restrict_path(path, 0, in_ball)
            report.patches.append(PatchReport(
                t_start=float(X.times[idx0]), t_end=float(X.times[idx1]),
                tau=float(X.times[idx1] - X.times[idx0]),
                iterations=len(local.residuals),
                final_residual=local.residuals[-1],
                residuals=list(local.residuals)))
            report.n_patches = len(report.patches)
            if solution is None:
                solution = path
            else:
                report.junction_mismatch = _max_abs(
                    [report.junction_mismatch]
                    + [solution.levels[i][-1] - path.levels[i][0] for i in range(solution.N)])
                solution = concatenate(solution, path, X, tol=junction_tol)
            y_current = solution.path_values()[-1]
            idx0 = idx1
            tau = tau_next

        X_T = _up_to(X, idx_T)
        try:
            image = picard_step(solution, F, X_T, y0)
        except NonFiniteLevelError as err:
            raise SolveFailure(f"Picard image of the solution overflowed: {err}") from err
        # The seminorms of the solution and of solution - image, from one scan.
        plan = _remainder_plan(X_T, 2 * solution.dim_u, config.alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            closing = _prefix_seminorms([solution.levels, _difference(solution, image)], X_T, plan)[:, -1]
        report.solution_seminorm, report.global_residual = closing.tolist()
        report.solution_norm = report.solution_seminorm + _initial_norm(solution.levels)
        for name, value in zip(("solution seminorm", "global residual"), closing):
            if not math.isfinite(value):
                raise SolveFailure(f"{name} {value} is not finite")
    except SolveFailure as err:
        err.partial, err.report = solution, report
        raise
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
