import gc

import numpy as np
import pytest

from roughpaths import controlled_path, rde_solver, rough_integral, rough_path, tensor_algebra
from roughpaths.controlled_path import (
    ControlledPath,
    NonFiniteLevelError,
    distance,
    path_add,
    path_sub,
    remainder_rows,
    restrict_path,
    seminorm,
    triple_norm,
)
from roughpaths.lipschitz import compose, constant, linear, polynomial, ridge
from roughpaths.oracle import ode_rk4
from roughpaths.rough_integral import integral_controlled
from roughpaths.rde_solver import (
    ContinuityProbe,
    LocalSolve,
    SolveFailure,
    SolverConfig,
    _in_ball_steps,
    canonical_initial_path,
    continuity_probe,
    grid_index,
    levels_from_field,
    picard_step,
    solve,
    solve_local,
)
from roughpaths.rough_path import PiecewiseLinearPath, lift_path, restrict
from test_acceptance import weierstrass_path


def line_driver(n=256, N=3, T=1.0):
    times = np.linspace(0.0, T, n + 1)
    return lift_path(PiecewiseLinearPath(times, times[:, None]), N, beta=1.0 / N), times


def default_config(N=3, **kw):
    base = dict(alpha=0.29, beta=1.0 / N, tau_init=0.25, contraction_tol=1e-11)
    base.update(kw)
    return SolverConfig(**base)


def scalar_identity_field(n_levels=3):
    return linear(np.array([[1.0]]), n_levels=n_levels)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.5, beta=0.4).validate(3)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.2, beta=0.3).validate(3)  # alpha <= 1/(N+1)
    warnings = SolverConfig(alpha=0.25 + 1e-12, beta=1 / 3).validate(3)
    assert warnings
    # beta = 1/N is the closed end of the window: no warning.
    assert SolverConfig(alpha=0.29, beta=1 / 3).validate(3) == []
    # A NaN or infinite tau never shrinks to one grid step, so the patch loop
    # would retry forever; fractional or boolean budgets are not counts.
    for bad in ({"tau_init": np.nan}, {"tau_init": np.inf}, {"tau_shrink": np.nan},
                {"contraction_tol": np.nan}, {"contraction_tol": np.inf},
                {"explosion_bound": np.nan}, {"max_picard_iters": 2.5},
                {"max_picard_iters": True}, {"max_patches": 0}, {"max_patches": 3.0}):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.29, beta=1 / 3, **bad).validate(3)
    assert SolverConfig(alpha=0.29, beta=1 / 3, explosion_bound=np.inf,
                        max_patches=np.int64(8)).validate(3) == []


def test_canonical_initial_path_zero_field():
    X, _ = line_driver(n=16)
    F = constant(np.zeros(1), 1, n_levels=3)
    W = canonical_initial_path([2.0], F, X)
    assert np.allclose(W.path_values(), 2.0)
    for i in (1, 2):
        assert np.max(np.abs(W.levels[i])) == 0.0


def test_canonical_initial_path_blocks_and_remainders():
    X, _ = line_driver(n=32)
    F = scalar_identity_field()
    y0 = 1.7
    W = canonical_initial_path([y0], F, X)
    # First derivative block is the field value; the next repeats it for a
    # scalar linear field.
    assert W.levels[1][0, 0, 0] == pytest.approx(y0)
    assert W.levels[2][0, 0, 0] == pytest.approx(y0)
    for i in range(3):
        for s in (0, 7, 19):
            assert np.max(np.abs(remainder_rows(W, X, i, s))) < 1e-12


def test_picard_step_zero_and_constant_fields():
    X, times = line_driver(n=32)
    rng = np.random.default_rng(0)
    junk = ControlledPath(X.times, 1, 3, 1,
                          [rng.standard_normal((33, 1, 1)) for _ in range(3)])
    Fz = constant(np.zeros(1), 1, n_levels=3)
    out = picard_step(junk, Fz, X, [3.0])
    assert np.allclose(out.path_values(), 3.0)
    c = 0.7
    Fc = constant([c], 1, n_levels=3)
    once = picard_step(junk, Fc, X, [1.0])
    assert np.allclose(once.path_values()[:, 0], 1.0 + c * times, atol=1e-12)
    twice = picard_step(once, Fc, X, [1.0])
    assert distance(twice, once, X, X, 0.29) < 1e-12


def test_solve_local_zero_field_single_iteration():
    X, _ = line_driver(n=16)
    F = constant(np.zeros(1), 1, n_levels=3)
    local = solve_local(F, X, [5.0], default_config())
    assert (local.outcome, len(local.residuals)) == ("converged", 1)
    assert _in_ball_steps(local) == 16
    assert np.allclose(local.path.path_values(), 5.0)
    start = canonical_initial_path([5.0], F, X)
    assert all(np.array_equal(a, b) for a, b in zip(local.start.levels, start.levels))


def test_solve_local_exponential_on_quarter_interval():
    X, times = line_driver(n=256)
    idx = 64
    X_loc = restrict(X, 0, idx)
    local = solve_local(scalar_identity_field(), X_loc, [1.0], default_config())
    assert local.outcome == "converged"
    assert _in_ball_steps(local) == idx
    got = local.path.path_values()[:, 0]
    assert np.max(np.abs(got - np.exp(times[: idx + 1]))) < 1e-8
    # Residuals decay geometrically once contraction kicks in.
    ratios = [b / a for a, b in zip(local.residuals, local.residuals[1:]) if a > 0]
    assert np.median(ratios) < 0.5


def test_solve_exponential_full_horizon():
    X, times = line_driver(n=256)
    Y, report = solve(scalar_identity_field(), X, [1.0], 1.0, default_config())
    assert report.success
    assert abs(Y.path_values()[-1, 0] - np.e) < 1e-7
    assert np.max(np.abs(Y.path_values()[:, 0] - np.exp(times))) < 1e-7
    assert report.global_residual <= 10 * default_config().contraction_tol


def test_solve_zero_field_one_patch():
    X, _ = line_driver(n=64)
    cfg = default_config(tau_init=2.0)
    Y, report = solve(constant(np.zeros(1), 1, n_levels=3), X, [4.0], 1.0, cfg)
    assert report.n_patches == 1
    assert np.allclose(Y.path_values(), 4.0)


def test_solve_rotation_matches_rk4_and_preserves_norm():
    n = 256
    times = np.linspace(0.0, 1.0, n + 1)
    path = PiecewiseLinearPath(times, times[:, None])
    X = lift_path(path, 3, beta=1 / 3)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    F = linear(A, n_levels=3)  # output dim 2 = dim_u * d with d = 1
    y0 = np.array([1.0, 0.0])
    Y, report = solve(F, X, y0, 1.0, default_config())
    got = Y.path_values()
    # Closed form: rotation of y0 by angle t.
    exact = np.stack([np.cos(times), np.sin(times)], axis=1)
    assert np.max(np.abs(got - exact)) < 1e-6
    norms = np.linalg.norm(got, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6
    oracle = ode_rk4(lambda y: (A @ y)[:, None], path, y0, substeps=10)
    assert np.max(np.abs(got - oracle)) < 1e-6


def test_solution_levels_determined_by_level0():
    X, _ = line_driver(n=128)
    F = scalar_identity_field()
    cfg = default_config()
    Y, _ = solve(F, X, [1.0], 1.0, cfg)
    assert levels_from_field(Y, F, X) < 1e3 * cfg.contraction_tol


def test_solution_solves_integral_equation():
    X, _ = line_driver(n=128)
    F = scalar_identity_field()
    cfg = default_config()
    Y, _ = solve(F, X, [1.0], 1.0, cfg)
    stepped = picard_step(Y, F, X, [1.0])
    assert np.max(np.abs(stepped.path_values() - Y.path_values())) < 10 * cfg.contraction_tol
    assert distance(stepped, Y, X, X, cfg.alpha) <= 10 * cfg.contraction_tol


def test_uniqueness_from_different_initial_guesses():
    X, _ = line_driver(n=128)
    idx = 32
    X_loc = restrict(X, 0, idx)
    F = scalar_identity_field()
    cfg = default_config()
    base = solve_local(F, X_loc, [1.0], cfg)
    W = canonical_initial_path([1.0], F, X_loc)
    bump = np.sin(np.pi * X_loc.times)  # vanishes at the interval start
    pert = ControlledPath(X_loc.times, 1, 3, 1,
                          [0.05 * bump[:, None, None] * np.ones((idx + 1, 1, 1))
                           for _ in range(3)])
    other = solve_local(F, X_loc, [1.0], cfg, initial_guess=path_add(W, pert))
    assert base.outcome == other.outcome == "converged"
    assert _in_ball_steps(base) == _in_ball_steps(other) == idx
    assert distance(base.path, other.path, X_loc, X_loc, cfg.alpha) <= 10 * cfg.contraction_tol


def test_picard_steps_reuse_the_driver_cache(monkeypatch):
    # Once the first Picard step on a restricted driver has built its inverse
    # stack and grid-step increments, later steps and seminorms only read them.
    X, _ = line_driver(n=64)
    X_loc = restrict(X, 8, 40)
    F = scalar_identity_field()
    Y = picard_step(canonical_initial_path([1.0], F, X_loc), F, X_loc, [1.0])
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for module in (tensor_algebra, rough_path, rough_integral):
        for name in ("_group_inverse_levels", "_increments"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    Y = picard_step(Y, F, X_loc, [1.0])
    seminorm(Y, X_loc, default_config().alpha)
    assert calls == []


def test_split_horizon_matches_full():
    X, times = line_driver(n=128)
    F = scalar_identity_field()
    cfg = default_config()
    full, _ = solve(F, X, [1.0], 1.0, cfg)
    half_idx = grid_index(times, 0.5)
    left, _ = solve(F, X, [1.0], 0.5, cfg)
    X_right = restrict(X, half_idx, 128)
    right, _ = solve(F, X_right, left.path_values()[-1], 1.0, cfg)
    glued_vals = np.concatenate([left.path_values(), right.path_values()[1:]])
    assert np.max(np.abs(glued_vals - full.path_values())) <= 10 * cfg.contraction_tol
    glued = ControlledPath(times, 1, 3, 1,
                           [np.concatenate([a, b[1:]]) for a, b in zip(left.levels, right.levels)])
    assert distance(glued, full, X, X, cfg.alpha) <= 10 * cfg.contraction_tol


def test_explosion_guard_trips():
    X, _ = line_driver(n=64)
    F = polynomial(1, 1, {(2,): [1.0]}, n_levels=3)  # dY = Y^2 dX blows up at t = 0.5
    cfg = default_config(explosion_bound=50.0, max_patches=512)
    with pytest.raises(SolveFailure) as info:
        solve(F, X, [2.0], 1.0, cfg)
    # The guard trips inside a local solve; the patches before it are kept.
    assert info.value.partial is not None and info.value.report is not None
    assert info.value.report.n_patches == len(info.value.report.patches) >= 1


def test_overflowing_iterate_is_a_solve_failure():
    # exp of the start path's values along a steep driver overflows in the
    # first compose; the iterate's non-finite levels end the solve as a
    # numerical failure, not as bad input.
    times = np.linspace(0.0, 1.0, 9)
    X = lift_path(PiecewiseLinearPath(times, 1000.0 * times[:, None]), 3, beta=1 / 3)
    F = ridge(1, 1, [{"coef": [1.0], "kind": "exp", "weight": [1.0]}], n_levels=3)
    with pytest.raises(SolveFailure, match="overflowed"):
        solve(F, X, [0.0], 1.0, default_config())


def test_non_finite_residual_is_a_solve_failure(monkeypatch):
    # A NaN residual compares false with every bound, so without the check the
    # loop would run to max_picard_iters and report a contraction failure.
    X, _ = line_driver(n=16)
    monkeypatch.setattr(rde_solver, "_prefix_seminorms", lambda *args: np.array([[0.0, float("nan")]]))
    with pytest.raises(SolveFailure, match="residual nan is not finite"):
        solve_local(scalar_identity_field(), X, [1.0], default_config())


def test_overflowing_picard_difference_is_a_solve_failure():
    # On a constant driver the iterate's level 1 is the field's value,
    # 1.7e308, and the guess's is -1.7e308: their difference overflows, and
    # the residual reports it.
    times = np.linspace(0.0, 1.0, 9)
    X = lift_path(PiecewiseLinearPath(times, np.zeros((9, 1))), 2)
    guess = ControlledPath(X.times, 1, 2, 1, [np.zeros((9, 1, 1)), np.full((9, 1, 1), -1.7e308)])
    cfg = SolverConfig(alpha=0.4, beta=0.45)
    with pytest.raises(SolveFailure, match=r"Picard residual \S+ is not finite"):
        solve_local(constant([1.7e308], 1, 2), X, [0.0], cfg, initial_guess=guess)


def test_overflowing_ball_and_closing_differences_are_solve_failures(monkeypatch):
    # The same field and driver: the start path and the fixed point agree,
    # with level 1 at 1.7e308.  A start path, or a Picard image of the
    # solution, at -1.7e308 makes the ball distance, or the global residual,
    # overflow; both end as solve failures, the latter with the report.
    times = np.linspace(0.0, 1.0, 9)
    X = lift_path(PiecewiseLinearPath(times, np.zeros((9, 1))), 2)
    F, cfg = constant([1.7e308], 1, 2), SolverConfig(alpha=0.4, beta=0.45)
    local = solve_local(F, X, [0.0], cfg)
    assert local.outcome == "converged" and _in_ball_steps(local) == 8
    flipped = ControlledPath(X.times, 1, 2, 1, [np.zeros((9, 1, 1)), np.full((9, 1, 1), -1.7e308)])
    with pytest.raises(SolveFailure, match=r"ball distance \S+ is not finite"):
        _in_ball_steps(LocalSolve(local.path, flipped, local.residuals, local.outcome, local._scan))

    real_step = rde_solver.picard_step
    monkeypatch.setattr(rde_solver, "picard_step",
                        lambda Y, F, X_arg, y0: flipped if X_arg is X else real_step(Y, F, X_arg, y0))
    with pytest.raises(SolveFailure, match="global residual nan is not finite") as info:
        solve(F, X, [0.0], 1.0, cfg)
    assert info.value.partial is not None and info.value.report.n_patches >= 1


def sweep_fields(rng, e, d, N):
    """A ridge, a linear, a polynomial and a constant field from R^e to
    L(R^d; R^e); the constant one holds a -0.0, which reaches level 1 of a
    Picard iterate."""
    out = e * d
    return [
        constant([-0.0] + list(rng.standard_normal(out - 1)), e, N),
        ridge(e, out, [{"coef": list(0.3 * rng.standard_normal(out)), "kind": kind,
                        "weight": list(0.3 * rng.standard_normal(e)), "phase": 0.3}
                       for kind in ("sin", "exp")], n_levels=N),
        linear(0.3 * rng.standard_normal((out, e)), rng.standard_normal(out), n_levels=N),
        polynomial(e, out, [((2,) + (0,) * (e - 1), list(0.3 * rng.standard_normal(out))),
                            ((1,) * e, list(0.3 * rng.standard_normal(out)))], n_levels=N),
    ]


def sweep_cases():
    """(X, Y, y0, F, alpha) over every d <= 4, N <= 5, dim_u in {1, 2} and the
    four field kinds, on six-point walks."""
    rng = np.random.default_rng(91)
    for d in range(1, 5):
        for N in range(1, 6):
            times = np.linspace(0.0, 1.0, 6)
            X = lift_path(PiecewiseLinearPath(times, np.cumsum(0.2 * rng.standard_normal((6, d)), 0)), N)
            for e in (1, 2):
                levels = [0.5 * rng.standard_normal((6, e, d**i)) for i in range(N)]
                Y = ControlledPath(times, d, N, e, levels)
                for F in sweep_fields(rng, e, d, N):
                    yield X, Y, rng.standard_normal(e), F, 0.5 * (1.0 / (N + 1) + 1.0 / N)


def level_bytes(Y):
    return [level.tobytes() for level in Y.levels]


def test_picard_step_matches_compose_then_integrate():
    # The fused step builds only the iterate; its levels are those of the
    # two public calls, byte for byte, the constant field's -0.0 included.
    for X, Y, y0, F, _ in sweep_cases():
        want = integral_controlled(compose(F, Y, X), X, offset=y0)
        assert level_bytes(picard_step(Y, F, X, y0)) == level_bytes(want), (X.d, X.N, Y.dim_u, F.label)


def test_picard_step_raises_on_a_non_finite_composed_field():
    # At the last grid point exp(700) is finite and exp(700) * 1e10 is not:
    # only the composed field's top level there overflows, the one entry
    # that reaches no entry of the iterate, and it is checked alone.
    times = np.linspace(0.0, 1.0, 5)
    X = lift_path(PiecewiseLinearPath(times, times[:, None]), 2)
    F = ridge(1, 1, [{"coef": [1.0], "kind": "exp", "weight": [1.0]}], n_levels=2)
    values, slopes = np.zeros((5, 1, 1)), np.zeros((5, 1, 1))
    values[-1], slopes[-1] = 700.0, 1e10
    Y = ControlledPath(times, 1, 2, 1, [values, slopes])
    with pytest.raises(NonFiniteLevelError):
        with np.errstate(over="ignore", invalid="ignore"):
            compose(F, Y, X)
    with pytest.raises(NonFiniteLevelError, match="composed field"):
        picard_step(Y, F, X, [0.0])


def test_residuals_are_triple_norms_of_the_differences():
    # The residual scanned from the level differences over the attempt's
    # plan equals the triple norm of the difference path, bit for bit.
    for X, _, y0, F, alpha in sweep_cases():
        cfg = SolverConfig(alpha=alpha, beta=1.0 / X.N, max_picard_iters=3, contraction_tol=1e-300)
        local = solve_local(F, X, y0, cfg)
        Y = canonical_initial_path(y0, F, X)
        for res in local.residuals:
            Y_new = picard_step(Y, F, X, y0)
            want = triple_norm(path_sub(Y_new, Y), X, alpha)
            assert np.float64(res).tobytes() == np.float64(want).tobytes(), (X.d, X.N, F.label)
            Y = Y_new
        assert level_bytes(local.path) == level_bytes(Y)


def test_closing_pass_matches_two_seminorms():
    # The report's solution seminorm and global residual, from one scan,
    # against the two seminorm calls on the horizon's driver.
    cases = [(line_driver(n=128)[0], scalar_identity_field(), [1.0], default_config(), 1.0)]
    N, alpha, beta = ROUGH_CELLS[1]
    cfg = SolverConfig(alpha=alpha, beta=beta, tau_init=0.25, contraction_tol=1e-12)
    X = lift_path(weierstrass_path(n=24, octaves=6, amp=0.2, seed=7), N, beta)
    cases.append((X, ridge_field(N), [0.3], cfg, 0.75))
    for X, F, y0, cfg, horizon in cases:
        Y, report = solve(F, X, y0, horizon, cfg)
        X_T = restrict(X, 0, Y.n_points - 1) if Y.n_points < X.n_points else X
        image = picard_step(Y, F, X_T, y0)
        assert report.solution_seminorm == seminorm(Y, X_T, cfg.alpha)
        assert report.global_residual == seminorm(path_sub(Y, image), X_T, cfg.alpha)


def test_one_controlled_path_per_picard_step(monkeypatch):
    # Inside a local solve the start path and each iterate are the only
    # controlled paths built: the composed field, the differences and the
    # ball distance stay level lists.
    built = []
    real_init = ControlledPath.__init__

    def counted(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(ControlledPath, "__init__", counted)
    for X, F, y0 in ((restrict(line_driver(n=64)[0], 0, 16), scalar_identity_field(), [1.0]),
                     (lift_path(PiecewiseLinearPath(np.linspace(0.0, 0.25, 9),
                                                    np.cumsum(np.full((9, 3), 0.05), 0)), 5),
                      ridge(1, 3, [{"coef": [1.0, 0.5, -0.5], "kind": "sin", "weight": [0.5]}], 5),
                      [0.2])):
        built.clear()
        local = solve_local(F, X, y0, SolverConfig(alpha=0.5 * (1 / (X.N + 1) + 1 / X.N), beta=1 / X.N))
        assert local.outcome == "converged" and len(local.residuals) > 1
        assert len(built) == 1 + len(local.residuals)
        _in_ball_steps(local)
        assert len(built) == 1 + len(local.residuals)


def test_patch_budget_exhausted_keeps_the_accepted_patch():
    X, _ = line_driver(n=32)
    with pytest.raises(SolveFailure, match="patch budget exhausted") as info:
        solve(scalar_identity_field(), X, [1.0], 1.0, default_config(max_patches=1))
    assert info.value.partial is not None
    assert info.value.report.n_patches == 1
    assert info.value.partial.times[-1] == 0.25


def test_non_contraction_at_one_grid_step_is_a_solve_failure():
    # One Picard step never reaches the tolerance: tau shrinks to a single
    # grid step, which then fails too, before any patch is accepted.
    X, _ = line_driver(n=16)
    with pytest.raises(SolveFailure, match="non-contraction at minimum interval") as info:
        solve(scalar_identity_field(), X, [1.0], 1.0, default_config(max_picard_iters=1))
    assert info.value.partial is None
    assert info.value.report.n_patches == 0


@pytest.mark.parametrize("scale, iters, outcome, why", [
    (1.0, 1, "stalled", "no contraction within 1 iterations"),
    (20.0, 60, "diverged", "residuals diverge; shrink tau"),
])
def test_non_contraction_outcomes_and_failure_texts(scale, iters, outcome, why):
    # The grid step 0.5 exceeds tau_init, so solve's first attempt spans one
    # grid step: its non-contraction fails the solve, and the text says how.
    X, _ = line_driver(n=2)
    F = linear(np.array([[scale]]), n_levels=3)
    cfg = default_config(max_picard_iters=iters)
    local = solve_local(F, X, [1.0], cfg)
    assert local.outcome == outcome and len(local.residuals) <= iters
    with pytest.raises(SolveFailure) as info:
        solve(F, X, [1.0], 1.0, cfg)
    assert str(info.value) == f"non-contraction at minimum interval: {why}"


def test_horizon_at_grid_start_rejected():
    X, _ = line_driver(n=16)
    with pytest.raises(ValueError, match="horizon must exceed the grid start"):
        solve(scalar_identity_field(), X, [1.0], 0.0, default_config())


def test_readme_line_solve_counts():
    # The README scenario: dY = Y dX along x_t = t on 513 points.  The attempt
    # on [0.75, 1] converges outside the ball; its in-ball prefix up to
    # 0.98046875 is kept with the attempt's 10 iterations, so 5 attempts make
    # the 5 patches.
    X, _ = line_driver(n=512)
    Y, report = solve(scalar_identity_field(), X, [1.0], 1.0, default_config())
    assert report.n_patches == 5
    assert [p.iterations for p in report.patches] == [10, 10, 10, 10, 6]
    assert [p.t_end for p in report.patches] == [0.25, 0.5, 0.75, 0.98046875, 1.0]
    assert np.max(np.abs(Y.path_values()[:, 0] - np.exp(X.times))) < 1e-8


def test_one_scan_plan_per_local_attempt(monkeypatch):
    # The README solve again: each local attempt builds the plan of its scans
    # (tiles, masks, gap powers) once, kept since it fits the budget, and
    # every Picard residual of the attempt and its ball distance scan with
    # it.  The closing pass scans the two seminorms on the horizon's driver
    # over one plan, past the budget at P = 513, so rebuilt by its one pass.
    # Nothing else holds a plan after the solve: not the caller's driver,
    # whose caches are its per-level arrays, nor the report.
    X, _ = line_driver(n=512)
    attempts, plans, scans = [], [], []

    def counted_local(*args, **kwargs):
        attempts.append(args[1].n_points)
        return real_local(*args, **kwargs)

    def counted_plan(*args):
        plans.append(real_plan(*args))
        return plans[-1]

    def counted_scan(plan, block_fn, paths=1):
        scans.append((id(plan) if isinstance(plan, tuple) else None, paths))
        return real_scan(plan, block_fn, paths)

    real_local, real_plan, real_scan = solve_local, rde_solver._remainder_plan, controlled_path._scan_pairs
    monkeypatch.setattr(rde_solver, "solve_local", counted_local)
    monkeypatch.setattr(rde_solver, "_remainder_plan", counted_plan)
    monkeypatch.setattr(controlled_path, "_scan_pairs", counted_scan)
    Y, report = solve(scalar_identity_field(), X, [1.0], 1.0, default_config())
    monkeypatch.undo()
    reused = [plan for plan, _ in scans if plan is not None]
    total = len(scans)
    # One plan per attempt, kept, then the closing pass's.
    assert len(attempts) == 5 and [isinstance(plan, tuple) for plan in plans] == [True] * 5 + [False]
    # 46 residual scans and one ball scan per attempt.
    assert sum(p.iterations for p in report.patches) == 46 and len(reused) == 46 + 5
    assert set(reused) == {id(plan) for plan in plans[:-1]}
    assert [plan[0][1] for plan in plans[:-1]] == attempts
    assert [scan for scan in scans if scan[0] is None] == [(None, 2)] and scans[-1] == (None, 2)
    assert next(iter(plans[-1])) == (3, 513)
    for plan in plans:
        assert gc.get_referrers(plan) == [plans]
    for cache, rows in ((X._inverses, X.n_points), (X._steps, X.n_points - 1)):
        assert [lvl.shape for lvl in cache] == [(rows, X.d**r) for r in range(X.N + 1)]

    # Past the budget every plan is rebuilt by each scan, with the same bytes.
    monkeypatch.setattr(rough_path, "_PLAN_BLOCKS", 0)
    monkeypatch.setattr(controlled_path, "_scan_pairs", counted_scan)
    scans.clear()
    Y_streamed, streamed = solve(scalar_identity_field(), X, [1.0], 1.0, default_config())
    assert len(scans) == total and {plan for plan, _ in scans} == {None}
    assert [lvl.tobytes() for lvl in Y_streamed.levels] == [lvl.tobytes() for lvl in Y.levels]
    assert [p.residuals for p in streamed.patches] == [p.residuals for p in report.patches]
    streamed.wall_time_s = report.wall_time_s
    assert streamed == report


def test_non_contraction_shrinks_tau():
    # A tight iteration budget makes the full-horizon attempt fail, forcing
    # the adaptive interval length below its initial value.
    X, _ = line_driver(n=256)
    F = scalar_identity_field()
    cfg = default_config(tau_init=1.0, max_picard_iters=12, contraction_tol=1e-10)
    Y, report = solve(F, X, [1.0], 1.0, cfg)
    assert report.n_patches > 1
    assert np.max(np.abs(Y.path_values()[:, 0] - np.exp(X.times))) < 1e-7


def test_smooth_driver_convergence_order():
    # With N levels the per-step compensated sum is an order-N Taylor scheme;
    # the measured global error slope on dY = Y dX should be close to N.
    cfg = default_config(contraction_tol=1e-13)
    errors = []
    grids = (32, 64, 128)
    for n in grids:
        X, _ = line_driver(n=n)
        Y, _ = solve(scalar_identity_field(), X, [1.0], 1.0, cfg)
        errors.append(abs(Y.path_values()[-1, 0] - np.e))
    slopes = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(2.5 < s < 3.5 for s in slopes), (errors, slopes)


# The rough ladder: (N, alpha, beta) of C10's ridge field on a Weierstrass polyline.
ROUGH_CELLS = [(2, 0.40, 0.45), (3, 0.28, 0.32), (4, 0.22, 0.24)]


def ridge_field(N):
    return ridge(1, 2, [{"coef": [1.0, 0.0], "kind": "sin", "weight": [1.0]},
                        {"coef": [0.0, 1.0], "kind": "cos", "weight": [1.0]}], n_levels=N)


@pytest.mark.parametrize("N, alpha, beta", ROUGH_CELLS)
def test_rough_driver_convergence_order(N, alpha, beta):
    # C10's field on a coarse rough polyline, midpoint-refined: the lift is
    # the polyline's exact signature, so RK4 along it is the reference.  The
    # polyline is Lipschitz below its mesh, so the order is about N, the
    # step-N Euler order with beta = 1 (Davie 2008).  Max errors read
    # 1.04e-2/2.92e-3/7.69e-4/1.97e-4, 2.95e-3/2.52e-4/2.50e-5/2.79e-6 and
    # 7.53e-4/6.58e-5/4.53e-6/2.95e-7 at M = 24..192 when M = 192 was added:
    # fitted orders 1.91, 3.35 and 3.78.  M = 192 runs within the default
    # patch budget because a ball exit keeps its in-ball prefix.
    F = ridge_field(N)
    cfg = SolverConfig(alpha=alpha, beta=beta, tau_init=0.25, contraction_tol=1e-12)
    path = weierstrass_path(n=24, octaves=6, amp=0.2, seed=7)
    sizes, errors = [], []
    for _ in range(4):
        Y, _ = solve(F, lift_path(path, N, beta), [0.3], 1.0, cfg)
        oracle = ode_rk4(lambda y: F.eval_at(0, y).reshape(1, 2), path, [0.3], substeps=20)
        sizes.append(path.n_segments)
        errors.append(np.max(np.abs(Y.path_values() - oracle)))
        path = path.refine_midpoints()
    order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert order >= N - 0.5, (errors, order)


def test_rough_cell_pins_the_unit_ball_fallback():
    # N = 2, M = 24 takes every branch of the unit-ball policy: the attempt
    # on [0, 0.25] keeps its in-ball prefix [0, 0.125]; the one on
    # [0.125, 0.25] has no in-ball prefix, so tau shrinks; the one-step
    # attempt on [0.125, 0.1667] has none either, so solve falls back to
    # residual-only mode once and restarts at tau_init.
    N, alpha, beta = ROUGH_CELLS[0]
    cfg = SolverConfig(alpha=alpha, beta=beta, tau_init=0.25, contraction_tol=1e-12)
    X = lift_path(weierstrass_path(n=24, octaves=6, amp=0.2, seed=7), N, beta)
    _, report = solve(ridge_field(N), X, [0.3], 1.0, cfg)
    assert report.ball_exits == 1
    assert [p.t_end for p in report.patches] == [0.125, 0.375, 0.625, 0.875, 1.0]
    assert [p.iterations for p in report.patches] == [12, 13, 13, 12, 7]


@pytest.mark.parametrize("N, alpha, beta", ROUGH_CELLS)
def test_accepted_prefix_matches_fresh_solve(N, alpha, beta):
    # An attempt over six grid steps of the rough ladder converges outside the
    # ball.  The solution map is causal, so its longest in-ball prefix is the
    # fixed point on that prefix: a fresh solve there agrees to the
    # contraction tolerance, and solve keeps exactly that prefix as its patch.
    F = ridge_field(N)
    cfg = SolverConfig(alpha=alpha, beta=beta, tau_init=0.25, contraction_tol=1e-12)
    X = lift_path(weierstrass_path(n=24, octaves=6, amp=0.2, seed=7), N, beta)
    local = solve_local(F, restrict(X, 0, 6), [0.3], cfg)
    assert local.outcome == "converged"
    j = _in_ball_steps(local)
    assert 1 <= j < 6
    prefix = restrict_path(local.path, 0, j)
    fresh = solve_local(F, restrict(X, 0, j), [0.3], cfg)
    assert fresh.outcome == "converged" and _in_ball_steps(fresh) == j
    assert triple_norm(path_sub(prefix, fresh.path), restrict(X, 0, j), alpha) <= cfg.contraction_tol
    Y, report = solve(F, X, [0.3], 1.0, cfg)
    first = report.patches[0]
    assert (first.t_end, first.iterations) == (X.times[j], len(local.residuals))
    assert first.residuals == local.residuals
    assert all(np.array_equal(a[:j + 1], b) for a, b in zip(Y.levels, prefix.levels))


def test_solve_at_caps_matches_rk4_on_walk():
    # d = 3, N = 5 on a Gaussian walk: the lift is the exact signature of the
    # polyline, so the RDE solution is the ODE solution along it.
    d, N, M = 3, 5, 32
    times = np.linspace(0.0, 1.0, M + 1)
    steps = 0.05 * np.random.default_rng(0).standard_normal((M, d))
    path = PiecewiseLinearPath(times, np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)]))
    terms = [{"coef": [1.0 if u == a else 0.0 for u in range(d)], "kind": "sin",
              "weight": [0.5]} for a in range(d)]
    F = ridge(1, d, terms, n_levels=N)
    cfg = SolverConfig(alpha=(1 / 6 + 1 / 5) / 2, beta=1 / 5, tau_init=0.25,
                       contraction_tol=1e-10)
    Y, report = solve(F, lift_path(path, N, 1 / 5), [0.2], 0.5, cfg)
    assert report.success
    assert [p.t_end for p in report.patches] == [0.25, 0.5]
    assert [p.iterations for p in report.patches] == [8, 8]
    oracle = ode_rk4(lambda y: F.eval_at(0, y).reshape(1, d), path, [0.2], substeps=20)
    assert np.max(np.abs(Y.path_values() - oracle[:M // 2 + 1])) <= 1e-8


def test_grid_index_rejects_off_grid():
    _, times = line_driver(n=16)
    with pytest.raises(ValueError):
        grid_index(times, 0.3 + 1e-4)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_grid_index_rejects_non_finite(t):
    # argmin over NaN gaps is 0 and abs(nan) > tol is False: must not map to t0.
    with pytest.raises(ValueError, match=r"time t \S+ outside \(-inf, inf\)"):
        grid_index(np.linspace(0.0, 1.0, 9), t)


def test_continuity_probe_identical_inputs():
    X, _ = line_driver(n=64)
    probe = continuity_probe(scalar_identity_field(), X, X, [1.0], [1.0], 1.0,
                             default_config())
    assert probe.d_out == 0.0


# The solution map on a rough driver, beta <= 1/3, at N = 4 and 5: C10's
# field and contraction tolerance on a coarse sample of its driver.
ROUGH_CASES = [(4, 0.22, 0.24), (5, 0.18, 0.195)]
ROUGH_IDS = ["weierstrass-N4", "weierstrass-N5"]


def rough_scenario(N, alpha, beta):
    path = weierstrass_path(n=48, octaves=6, amp=0.2, seed=7)
    return path, ridge_field(N), default_config(N, alpha=alpha, beta=beta, contraction_tol=1e-10)


@pytest.mark.parametrize("driver, N, alpha, beta",
                         [("line", 3, 0.29, 1 / 3)] + [("weierstrass", *c) for c in ROUGH_CASES],
                         ids=["line-N3"] + ROUGH_IDS)
def test_continuity_probe_linear_in_initial_value(driver, N, alpha, beta):
    # d_out / eps read 49.913/49.928/49.935 at N = 4 and 214.06/214.09/214.10
    # at N = 5 when these cases were added.
    if driver == "line":
        X, _ = line_driver(n=64)
        F, y0, cfg = scalar_identity_field(), 1.0, default_config()
    else:
        path, F, cfg = rough_scenario(N, alpha, beta)
        X, y0 = lift_path(path, N, beta), 0.3
    ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        probe = continuity_probe(F, X, X, [y0], [y0 + eps], 1.0, cfg)
        ratios.append(probe.d_out / eps)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.1)


@pytest.mark.parametrize("N, alpha, beta", ROUGH_CASES, ids=ROUGH_IDS)
def test_continuity_probe_linear_in_driver_shift(N, alpha, beta):
    # Shift the driver by eps * 0.5 sin(pi t) * (1, -0.5).  d_out / d_in read
    # 1.59958/1.59955/1.59954 at N = 4 and 6.81547/6.81565/6.81574 at N = 5
    # when this test was added.
    path, F, cfg = rough_scenario(N, alpha, beta)
    X = lift_path(path, N, beta)
    shift = 0.5 * np.sin(np.pi * path.times)[:, None] * np.array([1.0, -0.5])
    ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        Xp = lift_path(PiecewiseLinearPath(path.times, path.points + eps * shift), N, beta)
        ratios.append(continuity_probe(F, X, Xp, [0.3], [0.3], 1.0, cfg).ratio)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.1)


def test_continuity_probe_driver_refinement():
    # Lifting finer polyline approximations of the same curve shrinks the
    # output distance.
    rng = np.random.default_rng(1)
    n = 128
    times = np.linspace(0.0, 1.0, n + 1)
    smooth = np.stack([np.sin(2 * np.pi * times), np.cos(2 * np.pi * times)], axis=1) * 0.3
    X_true = lift_path(PiecewiseLinearPath(times, smooth), 2, beta=0.5)

    def coarse_lift(segments):
        knots = np.linspace(0.0, 1.0, segments + 1)
        vals = np.stack([np.sin(2 * np.pi * knots), np.cos(2 * np.pi * knots)], axis=1) * 0.3
        interp = np.stack([np.interp(times, knots, vals[:, k]) for k in range(2)], axis=1)
        return lift_path(PiecewiseLinearPath(times, interp), 2, beta=0.5)

    F = ridge(2, 4, [{"coef": [1.0, 0.0, 0.0, 0.0], "kind": "sin", "weight": [1.0, 0.0]},
                     {"coef": [0.0, 1.0, 0.0, 0.0], "kind": "cos", "weight": [0.0, 1.0]},
                     {"coef": [0.0, 0.0, 1.0, 0.0], "kind": "cos", "weight": [1.0, 0.0]},
                     {"coef": [0.0, 0.0, 0.0, 1.0], "kind": "sin", "weight": [0.0, -1.0]}],
              n_levels=2)
    cfg = SolverConfig(alpha=0.37, beta=0.5, tau_init=0.25, contraction_tol=1e-10)
    d_outs = []
    for segments in (16, 64):
        probe = continuity_probe(F, coarse_lift(segments), X_true,
                                 [0.5, -0.25], [0.5, -0.25], 1.0, cfg)
        d_outs.append(probe.d_out)
    assert d_outs[1] < d_outs[0]
