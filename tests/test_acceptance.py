"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Property-based checks at desk scale; tolerances are pinned here and must not
be loosened.  Criteria with runtime budgets assert wall time too.
"""
import time

import numpy as np
import pytest

from roughpaths import controlled_path as cp
from roughpaths import lipschitz as lip
from roughpaths import oracle
from roughpaths import rough_integral as ri
from roughpaths import rough_path as rp
from roughpaths import tensor_algebra as ta
from roughpaths.rde_solver import (
    SolverConfig,
    _in_ball_steps,
    canonical_initial_path,
    continuity_probe,
    grid_index,
    picard_step,
    solve,
    solve_local,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_walk_path(rng, d, segments, step=0.25):
    times = np.linspace(0.0, 1.0, segments + 1)
    pts = np.cumsum(rng.standard_normal((segments + 1, d)) * step, axis=0)
    return rp.PiecewiseLinearPath(times, pts)


def weierstrass_path(n=512, d=2, hurst=0.32, octaves=9, amp=0.15, seed=3, base=2.3):
    """Polyline sample of a lacunary trig sum with Holder-like scaling.

    The non-dyadic frequency ratio avoids resonant cancellation against the
    dyadic partitions used by the rate probes.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.zeros((n + 1, d))
    for k in range(octaves):
        phase = rng.uniform(0, 2 * np.pi, d)
        freq = base**k
        for c in range(d):
            pts[:, c] += amp * freq**-hurst * np.cos(2 * np.pi * freq * t + phase[c])
    return rp.PiecewiseLinearPath(t, pts)


def line_lift(n, N):
    t = np.linspace(0.0, 1.0, n + 1)
    return rp.lift_path(rp.PiecewiseLinearPath(t, t[:, None]), N, beta=1.0 / N)


def test_c01_chen_multiplicativity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        segments = int(rng.integers(1, 33))
        X = rp.lift_path(random_walk_path(rng, d, segments), N)
        scale = max(1.0, X.value(X.n_points - 1).max_abs())
        worst = max(worst, rp.chen_deviation(X) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report("C1 Chen multiplicativity", ok, f"max_dev={worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_c02_group_likeness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        X = rp.lift_path(random_walk_path(rng, d, int(rng.integers(1, 9))), N)
        worst = max(worst, rp.group_like_deviation(X))
    # Deterministic counterexample: axis-aligned corner, level 2 zeroed.
    corner = rp.PiecewiseLinearPath([0.0, 0.5, 1.0], [[0, 0], [1, 0], [1, 1]])
    inc = rp.increment(rp.lift_path(corner, 2), 0, 2)
    _, bad_dev = ta.is_group_like(inc.with_level(2, np.zeros(4)), 1e-10)
    ok = worst <= 1e-10 and bad_dev >= 0.5
    _report("C2 group-likeness", ok, f"lift_dev={worst:.3e}, counterexample_dev={bad_dev:.3f}")
    assert worst <= 1e-10
    assert bad_dev >= 0.5


def test_c03_coproduct_correctness():
    mismatches = 0
    for d in (1, 2):
        for k in (1, 2, 3):
            for r in range(0, 5):
                counts = oracle.partition_counts(d, r, k)
                for w in ta.level_words(d, r):
                    sectors = ta.coproduct(ta.TensorSeries.from_word(w, d, 4), k)
                    row = ta.word_index(w, d)
                    if any(np.any(block != (counts[s][row] if sum(s) == r else 0.0))
                           for s, block in sectors.items()):
                        mismatches += 1
    rng = np.random.default_rng(103)
    d, N = 2, 4
    xi = ta.TensorSeries(d, N, [rng.standard_normal(d**i) for i in range(N + 1)])
    sectors = ta.coproduct(xi, 2)
    dual_dev = 0.0
    for ru in range(N + 1):
        for rw in range(N + 1 - ru):
            for u in ta.level_words(d, ru):
                for w in ta.level_words(d, rw):
                    pairing = sum(mult * xi.coeff(word)
                                  for word, mult in ta.shuffle_product(u, w, N).items())
                    coeff = sectors[ru, rw][ta.word_index(u + w, d)]
                    dual_dev = max(dual_dev, abs(coeff - pairing))
    ok = mismatches == 0 and dual_dev <= 1e-12
    _report("C3 coproduct correctness", ok,
            f"mismatches={mismatches}, duality_dev={dual_dev:.3e}")
    assert mismatches == 0
    assert dual_dev <= 1e-12


def test_c04_expansion_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for d, N in [(2, N) for N in [3, 4] * 10 + [5, 5]] + [(3, 4), (4, 4), (3, 5)]:
        X = rp.lift_path(random_walk_path(rng, d, 4, step=0.3), N)
        inc = rp.increment(X, 0, 4)
        y_blocks = [rng.standard_normal((2, d**i)) for i in range(N)]
        for k in range(1, N):
            for r in range(1, N):
                worst = max(worst, lip.expansion_identity_check(y_blocks, inc, r, k))
    # Necessity of the geometric hypothesis: zero the level-2 block at N=4,
    # once per alphabet; every alphabet must show the failure.
    broken_dev = np.inf
    for d in (2, 3):
        X = rp.lift_path(random_walk_path(rng, d, 4, step=0.5), 4)
        broken = rp.increment(X, 0, 4).with_level(2, np.zeros(d**2))
        y_blocks = [rng.standard_normal((2, d**i)) for i in range(4)]
        broken_dev = min(broken_dev, max(lip.expansion_identity_check(y_blocks, broken, r, k)
                                         for k in (1, 2, 3) for r in (1, 2, 3)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and broken_dev > 1e-3 and elapsed < 60.0
    _report("C4 expansion identity", ok,
            f"max_dev={worst:.3e}, broken_dev={broken_dev:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert broken_dev > 1e-3
    assert elapsed < 60.0


def test_c05_point_removal_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(2, 4))
        X = rp.lift_path(random_walk_path(rng, d, 16, step=0.2), N)
        e = int(rng.integers(1, 3))
        levels = [rng.standard_normal((17, e * d, d**i)) for i in range(N)]
        Z = cp.ControlledPath(X.times, d, N, e * d, levels)
        inner = np.sort(rng.choice(np.arange(1, 16), size=3, replace=False))
        part = ri.Partition((0, *map(int, inner), 16))
        j = int(rng.integers(1, len(part.indices) - 1))
        worst = max(worst, ri.removal_identity_check(Z, X, part, j))
    ok = worst <= 1e-12
    _report("C5 point-removal identity", ok, f"max_dev={worst:.3e}")
    assert worst <= 1e-12


def test_c06_rough_integral_vs_classical():
    # Smooth polynomial integrand with full level data: exact telescoping.
    n = 64
    X = line_lift(n, 3)
    t = X.times
    levels = [(t**2)[:, None, None].copy(), (2 * t)[:, None, None].copy(),
              np.full((n + 1, 1, 1), 2.0)]
    Z = cp.ControlledPath(X.times, 1, 3, 1, levels)
    val, _ = ri.rough_integral(Z, X, 0, n)
    poly_dev = abs(val[0] - 1.0 / 3.0)
    stielt = oracle.riemann_stieltjes(
        lambda s: np.array([[s * s]]), rp.PiecewiseLinearPath(t, t[:, None]), refinement=256)
    stielt_dev = abs(val[0] - stielt.value[0])

    # Linear integrand: exact 1/2 for any partition.
    X2 = line_lift(32, 2)
    lev2 = [X2.times[:, None, None].copy(), np.ones((33, 1, 1))]
    Z2 = cp.ControlledPath(X2.times, 1, 2, 1, lev2)
    lin_dev = abs(ri.compensated_sum(Z2, X2, ri.Partition((0, 7, 32)))[0] - 0.5)

    # Signature integrand reproduces the level-2 block for any partition.
    rng = np.random.default_rng(106)
    Xr = rp.lift_path(random_walk_path(rng, 2, 32, step=0.2), 3)
    d, nr = 2, Xr.n_points
    e = d * d
    z0 = np.zeros((nr, e * d, 1))
    z1 = np.zeros((nr, e * d, d))
    for a in range(d):
        for b in range(d):
            z0[:, (a * d + b) * d + b, 0] = Xr.levels[1][:, a]
            z1[:, (a * d + b) * d + b, a] = 1.0
    Zs = cp.ControlledPath(Xr.times, d, 3, e * d,
                           [z0, z1, np.zeros((nr, e * d, d**2))])
    sig_dev = 0.0
    want = Xr.levels[2][nr - 1]
    for part in (ri.Partition((0, nr - 1)), ri.Partition((0, 5, 19, nr - 1)),
                 ri.dyadic_partition(0, nr - 1, 4)):
        got = ri.compensated_sum(Zs, Xr, part)
        sig_dev = max(sig_dev, float(np.max(np.abs(got - want))))

    ok = poly_dev <= 1e-9 and lin_dev <= 1e-12 and sig_dev <= 1e-12 and stielt_dev < 1e-2
    _report("C6 integral vs classical", ok,
            f"poly_dev={poly_dev:.2e}, lin_dev={lin_dev:.2e}, sig_dev={sig_dev:.2e}")
    assert poly_dev <= 1e-9
    assert lin_dev <= 1e-12
    assert sig_dev <= 1e-12
    assert stielt_dev < 1e-2


def test_c07_convergence_rate():
    # The theoretical decay per depth is weak at these exponents, so the fit
    # uses the per-mesh envelope of Cauchy increments over phase draws of the
    # rough polyline; single draws fluctuate below the error envelope.
    N, alpha = 3, 0.28
    F = lip.ridge(2, 2, [{"coef": [1.0, 0.0], "kind": "sin", "weight": [1.0, 0.4]},
                         {"coef": [0.0, 1.0], "kind": "cos", "weight": [-0.3, 1.0]}],
                  n_levels=N)
    depths = [1, 2, 3, 4, 5, 6]
    envelope = {}
    for seed in range(3, 9):
        X = rp.lift_path(weierstrass_path(n=512, seed=seed), N, beta=0.32)
        Z = lip.compose(F, cp.canonical_lift(X), X)
        probe = ri.convergence_rate_probe(Z, X, 0, 512, depths=depths)
        for mesh, inc in zip(probe.meshes, probe.increments):
            envelope[mesh] = max(envelope.get(mesh, 0.0), inc)
    pairs = [(m, i) for m, i in envelope.items() if i > 1e-13]
    fitted = float(np.polyfit(np.log([m for m, _ in pairs]),
                              np.log([i for _, i in pairs]), 1)[0])
    bound = (N + 1) * alpha - 1.0 - 0.2
    ok = fitted >= bound and len(depths) >= 4
    _report("C7 convergence rate", ok,
            f"fitted={fitted:.3f}, bound={bound:.3f}, depths={len(depths)}")
    assert fitted >= bound


def test_c08_rde_exactness():
    start = time.perf_counter()
    cfg = SolverConfig(alpha=0.29, beta=1 / 3, tau_init=0.25, contraction_tol=1e-11)
    X = line_lift(512, 3)
    F = lip.linear(np.array([[1.0]]), n_levels=3)
    Y, _ = solve(F, X, [1.0], 1.0, cfg)
    exp_err = abs(Y.path_values()[-1, 0] - np.e)

    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    Frot = lip.linear(A, n_levels=3)
    y0 = np.array([1.0, 0.0])
    Yrot, _ = solve(Frot, X, y0, 1.0, cfg)
    vals = Yrot.path_values()
    norm_drift = float(np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)))
    path = rp.PiecewiseLinearPath(X.times, X.times[:, None])
    rk4 = oracle.ode_rk4(lambda y: (A @ y)[:, None], path, y0, substeps=10)
    rk4_dev = float(np.max(np.abs(vals - rk4)))
    elapsed = time.perf_counter() - start
    ok = exp_err <= 1e-7 and norm_drift <= 1e-6 and rk4_dev <= 1e-6 and elapsed < 30.0
    _report("C8 RDE exactness", ok,
            f"exp_err={exp_err:.2e}, norm_drift={norm_drift:.2e}, "
            f"rk4_dev={rk4_dev:.2e}, {elapsed:.1f}s")
    assert exp_err <= 1e-7
    assert norm_drift <= 1e-6
    assert rk4_dev <= 1e-6
    assert elapsed < 30.0


def test_c09_fixed_point_uniqueness_patching():
    cfg = SolverConfig(alpha=0.29, beta=1 / 3, tau_init=0.25, contraction_tol=1e-11)
    X = line_lift(128, 3)
    F = lip.linear(np.array([[1.0]]), n_levels=3)
    Y, report = solve(F, X, [1.0], 1.0, cfg)
    residual = report.global_residual

    # Distinct admissible initial guesses converge to the same local solution.
    X_loc = rp.restrict(X, 0, 32)
    base = solve_local(F, X_loc, [1.0], cfg)
    W = canonical_initial_path([1.0], F, X_loc)
    bump = np.sin(np.pi * X_loc.times)
    pert = cp.ControlledPath(X_loc.times, 1, 3, 1,
                             [0.05 * bump[:, None, None] * np.ones((33, 1, 1))
                              for _ in range(3)])
    other = solve_local(F, X_loc, [1.0], cfg, initial_guess=cp.path_add(W, pert))
    assert base.outcome == other.outcome == "converged"
    assert _in_ball_steps(base) == _in_ball_steps(other) == 32
    guess_gap = cp.distance(base.path, other.path, X_loc, X_loc, cfg.alpha)

    # Split-horizon vs full-horizon.
    half = grid_index(X.times, 0.5)
    left, _ = solve(F, X, [1.0], 0.5, cfg)
    right, _ = solve(F, rp.restrict(X, half, 128), left.path_values()[-1], 1.0, cfg)
    glued = cp.ControlledPath(X.times, 1, 3, 1,
                              [np.concatenate([a, b[1:]])
                               for a, b in zip(left.levels, right.levels)])
    split_gap = cp.distance(glued, Y, X, X, cfg.alpha)

    tol = cfg.contraction_tol
    ok = residual <= tol and guess_gap <= 10 * tol and split_gap <= 10 * tol
    _report("C9 fixed point and uniqueness", ok,
            f"residual={residual:.2e}, guess_gap={guess_gap:.2e}, split_gap={split_gap:.2e}")
    assert residual <= tol
    assert guess_gap <= 10 * tol
    assert split_gap <= 10 * tol


def test_c10_lipschitz_stability_under_refinement():
    N, alpha = 3, 0.28
    cfg = SolverConfig(alpha=alpha, beta=0.32, tau_init=0.25, contraction_tol=1e-10)
    F = lip.ridge(1, 2, [{"coef": [1.0, 0.0], "kind": "sin", "weight": [1.0]},
                         {"coef": [0.0, 1.0], "kind": "cos", "weight": [1.0]}],
                  n_levels=N)
    coarse = weierstrass_path(n=96, octaves=6, amp=0.2, seed=7)
    ratios = {}
    for label, path in (("coarse", coarse), ("fine", coarse.refine_midpoints())):
        X = rp.lift_path(path, N, beta=0.32)
        Y, _ = solve(F, X, [0.3], 1.0, cfg)
        ratios[label] = [lip.remainder_regularity_probe(F, Y, X, r, alpha).max_ratio
                         for r in range(N)]
    growth = [f / c for c, f in zip(ratios["coarse"], ratios["fine"]) if c > 0]
    ok = all(g < 2.0 for g in growth)
    _report("C10 composed-remainder stability", ok,
            f"coarse={[f'{v:.3f}' for v in ratios['coarse']]}, "
            f"fine={[f'{v:.3f}' for v in ratios['fine']]}")
    assert all(g < 2.0 for g in growth)


def test_c11_continuity_in_data():
    cfg = SolverConfig(alpha=0.29, beta=1 / 3, tau_init=0.25, contraction_tol=1e-11)
    n = 128
    t = np.linspace(0.0, 1.0, n + 1)
    X = rp.lift_path(rp.PiecewiseLinearPath(t, t[:, None]), 3, beta=1 / 3)
    F = lip.linear(np.array([[1.0]]), n_levels=3)

    y0_ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        probe = continuity_probe(F, X, X, [1.0], [1.0 + eps], 1.0, cfg)
        y0_ratios.append(probe.d_out / eps)
    y0_ok = (abs(y0_ratios[0] / y0_ratios[1] - 1) < 0.1
             and abs(y0_ratios[1] / y0_ratios[2] - 1) < 0.1)

    bump = 0.5 * np.sin(np.pi * t)
    drv_ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        Xp = rp.lift_path(rp.PiecewiseLinearPath(t, (t + eps * bump)[:, None]), 3, beta=1 / 3)
        probe = continuity_probe(F, X, Xp, [1.0], [1.0], 1.0, cfg)
        drv_ratios.append(probe.d_out / eps)
    drv_ok = (abs(drv_ratios[0] / drv_ratios[1] - 1) < 0.1
              and abs(drv_ratios[1] / drv_ratios[2] - 1) < 0.1)

    ok = y0_ok and drv_ok
    _report("C11 continuity in data", ok,
            f"y0_ratios={[f'{v:.4f}' for v in y0_ratios]}, "
            f"driver_ratios={[f'{v:.4f}' for v in drv_ratios]}")
    assert y0_ok
    assert drv_ok
