import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radloc.cones import distance_to_cone, project_to_cone
from radloc import initializer
from radloc.errors import InfeasibleInitError, MalformedInputError
from radloc.geometry import Cone, Frame, unit
from radloc.initializer import (
    InitProblem,
    Mode,
    _qp_step,
    cost_and_gradient,
    default_bounds,
    jacobian,
    minimize,
    residuals,
    solve,
)

from oracles import (
    central_difference,
    cone_distance_reference,
    feasibility_margin,
    grid_search_cost,
    qp_step_reference,
    rotate_about_axis,
    stationarity_residual,
)

UP = np.array([0.0, 0.0, 1.0])


def cone_through(p_star, origin, theta, tilt_dir, frame=Frame.WORLD, timestamp=0.0):
    """Cone with apex at origin passing exactly through p_star.

    The axis is the apex-to-target direction rotated by theta about the
    given perpendicular direction, so the target lies on the surface at
    scattering angle theta.
    """
    d = np.asarray(p_star, dtype=float) - np.asarray(origin, dtype=float)
    axis0 = np.asarray(unit(d))
    perp = unit(np.asarray(tilt_dir) - axis0 * float(np.dot(tilt_dir, axis0)))
    axis = rotate_about_axis(axis0, perp, theta)
    return Cone(origin, axis, theta, frame, timestamp)


def exact_instance(p_star, rng, n=5, arc=20.0, altitude=5.0):
    """Cones through p_star from apices spread along an arc."""
    cones = []
    for i in range(n):
        angle = (i / max(n - 1, 1) - 0.5) * (arc / 10.0)
        origin = p_star + np.array(
            [12.0 * math.cos(angle), 12.0 * math.sin(angle), altitude]
        )
        theta = rng.uniform(0.3, 1.2)
        cones.append(cone_through(p_star, origin, theta, rng.normal(size=3)))
    return cones


# --- residuals and jacobian ---


def test_residuals_zero_on_exact_instance():
    rng = np.random.default_rng(0)
    p = np.array([10.0, -3.0, 2.0])
    cones = exact_instance(p, rng)
    assert np.all(np.abs(residuals(p, cones)) < 1e-9)


def test_residuals_behind_apex():
    cone = Cone(np.zeros(3), UP, math.pi / 4, Frame.WORLD)
    assert residuals(np.array([0.0, 0.0, -2.0]), [cone])[0] == 2.0


def test_residuals_match_reference():
    rng = np.random.default_rng(1)
    cones = exact_instance(np.array([1.0, 2.0, 0.0]), rng)
    for _ in range(100):
        p = rng.normal(size=3) * 8.0
        want = np.array(
            [
                cone_distance_reference(p, c.origin, c.axis, c.half_angle)[0]
                for c in cones
            ]
        )
        assert np.allclose(residuals(p, cones), want, atol=1e-12)


def test_jacobian_behind_apex_gradient():
    cone = Cone(np.zeros(3), UP, math.pi / 4, Frame.WORLD)
    J = jacobian(np.array([0.0, 0.0, -2.0]), [cone])
    assert np.allclose(J[0], [0.0, 0.0, -1.0], atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    cones = exact_instance(np.array([0.0, 0.0, 0.0]), rng)
    checked = 0
    while checked < 200:
        p = rng.normal(size=3) * 6.0
        r = residuals(p, cones)
        # skip subgradient points: near-zero residuals or apex/axis closeness
        if np.any(r < 1e-3):
            continue
        J = jacobian(p, cones)
        for i, c in enumerate(cones):
            fd = central_difference(lambda q, c=c: distance_to_cone(q, c), p)
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(J[i] - fd) / denom < 1e-5
        checked += 1


def test_jacobian_unit_normal_on_surface():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cone = Cone(
            rng.normal(size=3), unit(rng.normal(size=3)), rng.uniform(0.3, 1.2), Frame.WORLD
        )
        p_star = rng.normal(size=3) * 5.0 + cone.origin
        res = project_to_cone(p_star, cone)
        if res.case.value != "surface" or math.dist(res.point, cone.origin) < 0.5:
            continue
        on_surface = res.point
        row = jacobian(on_surface, [cone])[0]
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)
        # direction agrees with the normalized offset of a nudged point
        nudged = on_surface + 1e-6 * row
        off = nudged - project_to_cone(nudged, cone).point
        assert np.allclose(unit(off), row, atol=1e-4)


def test_cost_gradient_consistency():
    rng = np.random.default_rng(4)
    cones = exact_instance(np.array([2.0, -1.0, 1.0]), rng)
    for _ in range(20):
        p = rng.normal(size=3) * 5.0
        if np.any(residuals(p, cones) < 1e-3):
            continue
        cost, grad = cost_and_gradient(p, cones)
        assert cost == pytest.approx(float(np.sum(residuals(p, cones) ** 2)), rel=1e-12)
        fd = central_difference(lambda q: cost_and_gradient(q, cones)[0], p)
        assert np.allclose(grad, fd, atol=1e-5 * max(1.0, np.linalg.norm(fd)))


# --- problem validation ---


def test_problem_validation():
    rng = np.random.default_rng(5)
    cones = exact_instance(np.zeros(3), rng)
    with pytest.raises(MalformedInputError):
        InitProblem(cones=cones[:2])
    with pytest.raises(MalformedInputError):
        InitProblem(cones=cones, multistart=0)
    with pytest.raises(MalformedInputError):
        InitProblem(cones=cones, max_iterations=0)
    with pytest.raises(MalformedInputError):
        InitProblem(cones=cones, bounds=(np.zeros(3), np.zeros(3)))
    prob = InitProblem(cones=cones, mode="2d")
    assert prob.mode is Mode.TWO_D


def test_default_bounds_cover_apices():
    rng = np.random.default_rng(6)
    cones = exact_instance(np.array([5.0, 5.0, 0.0]), rng)
    lo, hi = default_bounds(cones)
    apices = np.array([c.origin for c in cones])
    assert np.all(lo <= apices.min(axis=0) - 199.0)
    assert np.all(hi >= apices.max(axis=0) + 199.0)


# --- solve ---


def test_solve_recovers_exact_point():
    rng = np.random.default_rng(7)
    p_star = np.array([10.0, -3.0, 2.0])
    cones = exact_instance(p_star, rng)
    sol = solve(InitProblem(cones=cones))
    assert np.linalg.norm(sol.p - p_star) < 1e-3
    assert sol.cost < 1e-8
    assert not sol.degenerate


def test_solve_recovers_exact_instances_from_default_starts():
    # the release gate's instance family over five times its seeds; with
    # starts taken from the cheapest raw draws, seeds 98 and 342 stopped
    # in a false basin 8 m and 20 m from the source
    missed = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        p_star = np.array(
            [rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0), rng.uniform(-2.0, 2.0)]
        )
        sol = solve(InitProblem(cones=exact_instance(p_star, rng)))
        err = float(np.linalg.norm(sol.p - p_star))
        if sol.degenerate or err > 1e-3:
            missed.append((seed, err))
    assert missed == []


def test_solve_shared_apex_degenerate():
    rng = np.random.default_rng(8)
    p_star = np.array([10.0, -3.0, 2.0])
    origin = np.array([0.0, 0.0, 5.0])
    cones = [
        cone_through(p_star, origin, 0.3 + 0.2 * i, rng.normal(size=3)) for i in range(5)
    ]
    sol = solve(InitProblem(cones=cones))
    assert sol.degenerate
    # any zero-cost point lies on the apex-to-target ray
    assert sol.cost < 1e-6


def test_solve_mode2d_pins_ground_plane():
    rng = np.random.default_rng(9)
    p_star = np.array([10.0, -3.0, 0.0])
    cones = exact_instance(p_star, rng)
    sol = solve(InitProblem(cones=cones, mode=Mode.TWO_D))
    assert sol.p[2] == 0.0
    assert np.linalg.norm(sol.p[:2] - p_star[:2]) < 1e-3


def test_solve_feasibility_and_certificate():
    rng = np.random.default_rng(10)
    for k in range(10):
        p_star = rng.uniform(-10, 10, size=3)
        p_star[2] = abs(p_star[2])
        cones = exact_instance(p_star, rng)
        # noisy half-angles so the optimum is interior with nonzero cost
        noisy = [
            Cone(
                c.origin,
                c.axis,
                float(np.clip(c.half_angle + rng.normal(0, 0.03), 0.05, 1.5)),
                Frame.WORLD,
            )
            for c in cones
        ]
        prob = InitProblem(cones=noisy)
        sol = solve(prob)
        for c in noisy:
            assert float(np.dot(c.axis, sol.p - c.origin)) >= -1e-6
        assert stationarity_residual(sol.p, prob) <= 1e-6


def test_solve_recovers_exact_60_cone_instance():
    rng = np.random.default_rng(17)
    p_star = np.array([6.0, -4.0, 1.5])
    sol = solve(InitProblem(cones=exact_instance(p_star, rng, n=60)))
    assert np.linalg.norm(sol.p - p_star) < 1e-3
    assert sol.cost < 1e-8
    assert not sol.degenerate


def test_solve_deterministic():
    rng = np.random.default_rng(11)
    cones = exact_instance(np.array([4.0, 4.0, 1.0]), rng)
    a = solve(InitProblem(cones=cones))
    b = solve(InitProblem(cones=cones))
    assert np.array_equal(a.p, b.p)
    assert a.cost == b.cost


def test_solve_translation_equivariance():
    rng = np.random.default_rng(12)
    p_star = np.array([3.0, -2.0, 1.0])
    cones = exact_instance(p_star, rng)
    shift = np.array([100.0, -50.0, 30.0])
    moved = [
        Cone(c.origin + shift, c.axis, c.half_angle, Frame.WORLD) for c in cones
    ]
    base = solve(InitProblem(cones=cones))
    translated = solve(InitProblem(cones=moved))
    assert np.linalg.norm(translated.p - (base.p + shift)) < 1e-6


def test_solve_yaw_equivariance():
    # the exact yaw (x, y) -> (-y, x) of every origin and axis, on the
    # exact-instance family: the yawed solve recovers the yawed source, keeps
    # the verdict, and maps back onto the unyawed solution. Seeds 0-49
    # measured 1.5e-11 at most, so the tolerance leaves a factor of 65.
    def yaw(v):
        return -v[1], v[0], v[2]

    for seed in range(50):
        rng = np.random.default_rng(seed)
        p_star = np.array(
            [rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0), rng.uniform(-2.0, 2.0)]
        )
        cones = exact_instance(p_star, rng)
        yawed = [Cone(yaw(c.origin), yaw(c.axis), c.half_angle, Frame.WORLD) for c in cones]
        base, turned = solve(InitProblem(cones=cones)), solve(InitProblem(cones=yawed))
        assert not turned.degenerate and turned.degenerate == base.degenerate, seed
        assert np.linalg.norm(turned.p - np.array(yaw(p_star))) < 1e-3, seed
        assert np.linalg.norm(turned.p - np.array(yaw(base.p))) < 1e-9, seed


def test_solve_dominates_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        p_star = rng.uniform(-5, 5, size=3)
        cones = exact_instance(p_star, rng)
        noisy = [
            Cone(
                c.origin,
                c.axis,
                float(np.clip(c.half_angle + rng.normal(0, 0.05), 0.05, 1.5)),
                Frame.WORLD,
            )
            for c in cones
        ]
        lo, hi = p_star - 3.0, p_star + 3.0
        prob = InitProblem(cones=noisy, bounds=(lo, hi))
        sol = solve(prob)
        grid_cost, _ = grid_search_cost(noisy, lo, hi, resolution=0.2)
        assert sol.cost <= grid_cost + 1e-3


def test_solve_infeasible_raises():
    cones = [
        Cone(np.array([0.0, 0.0, 10.0]), UP, 0.5, Frame.WORLD),
        Cone(np.array([0.0, 0.0, 0.0]), -UP, 0.5, Frame.WORLD),
        Cone(np.array([0.0, 0.0, 20.0]), UP, 0.5, Frame.WORLD),
    ]
    # z >= 10, z <= 0 and z >= 20 cannot all hold
    with pytest.raises(InfeasibleInitError):
        solve(InitProblem(cones=cones, bounds=(np.full(3, -30.0), np.full(3, 30.0))))


def random_halfspace_problem(rng):
    """Cones with scattered apices and mostly downward, partly flipped axes.

    Half the problems are ground-plane ones and half have a tight box of
    2-20 m somewhere near the apices instead of the default one, so the
    half-spaces and the box leave no common point about as often as not.
    """
    two_d = rng.random() < 0.5
    n = int(rng.integers(3, 7))
    base = rng.uniform(-50.0, 50.0, 3)
    base[2] = 3.0 + rng.uniform(0.0, 5.0)
    origins = base + rng.normal(0.0, 8.0, (n, 3))
    axes = rng.normal(size=(n, 3)) + np.array([0.0, 0.0, -1.0])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    axes[rng.random(n) < 0.3] *= -1.0
    cones = [Cone(o, a, float(rng.uniform(0.2, 1.4)), Frame.WORLD) for o, a in zip(origins, axes)]
    bounds = None
    if rng.random() < 0.5:
        center, half = base + rng.normal(0.0, 10.0, 3), rng.uniform(1.0, 10.0)
        bounds = (center - half, center + half)
        if two_d:
            bounds[0][2], bounds[1][2] = min(bounds[0][2], -1.0), max(bounds[1][2], 1.0)
    return InitProblem(cones=cones, mode=Mode.TWO_D if two_d else Mode.THREE_D, bounds=bounds)


def test_solve_feasibility_verdict_matches_lp_oracle():
    rng = np.random.default_rng(15)
    verdicts = {True: 0, False: 0}
    for i in range(240):
        prob = random_halfspace_problem(rng)
        margin = feasibility_margin(prob)
        # a problem whose verdict turns on a micrometre is ill-posed here
        assert abs(margin) > 1e-6, (i, margin)
        feasible = margin > 0.0
        verdicts[feasible] += 1
        if not feasible:
            with pytest.raises(InfeasibleInitError):
                solve(prob)
            continue
        sol = solve(prob)
        lo, hi = prob.bounds
        assert np.all(sol.p >= lo) and np.all(sol.p <= hi), i
        for c in prob.cones:
            assert float(np.dot(c.axis, sol.p - c.origin)) >= -1e-6, i
        if prob.mode is Mode.TWO_D:
            assert sol.p[2] == 0.0
    assert min(verdicts.values()) >= 60, verdicts


def test_solve_optimum_on_box_face_is_stationary():
    rng = np.random.default_rng(16)
    p_star = np.array([4.0, -2.0, 1.0])
    cones = exact_instance(p_star, rng)
    # the source lies 2 m beyond the box's +x face
    lo, hi = p_star - 10.0, p_star + 10.0
    hi[0] = p_star[0] - 2.0
    prob = InitProblem(cones=cones, bounds=(lo, hi))
    sol = solve(prob)
    assert sol.p[0] == pytest.approx(hi[0], abs=1e-9)
    assert np.all(sol.p[1:] > lo[1:]) and np.all(sol.p[1:] < hi[1:])
    _, grad = cost_and_gradient(sol.p, cones)
    # the cost falls towards the source, so the face holds the point back
    assert grad[0] < -1e-3
    assert stationarity_residual(sol.p, prob) <= 1e-6


def random_constrained_step(rng, dims):
    """A constrained step as _descend poses it, from 1-8 starts.

    1-20 unit half-space rows plus the box's 2 * dims rows; in a quarter
    of the instances half the rows copy others (duplicates, or opposites
    that leave a slab or nothing), in another quarter of the 3D ones every
    normal lies in one plane. The rows' common set holds a centre point; the starts
    scatter around it, most of them outside it.
    """
    m = int(rng.integers(1, 21))
    a = rng.normal(size=(m, dims))
    kind, half = rng.integers(4), m // 2
    if kind == 1 and dims == 3:
        w = np.asarray(unit(rng.normal(size=3)))
        a -= np.outer(a @ w, w)
    a /= np.linalg.norm(a, axis=1)[:, None]
    centre = rng.uniform(-5.0, 5.0, dims)
    b = a @ centre - rng.uniform(0.0, 3.0, m)
    copies = rng.integers(0, m, half)
    if kind == 2:
        a[:half], b[:half] = a[copies], b[copies] + rng.uniform(-1.0, 1.0, half)
    elif kind == 3:
        a[:half], b[:half] = -a[copies], -b[copies] + rng.uniform(-1.0, 1.0, half)
    eye = np.eye(dims)
    rows = np.vstack([a, eye, -eye])
    bound = np.concatenate([b, centre - rng.uniform(1.0, 10.0, dims), -centre - rng.uniform(1.0, 10.0, dims)])
    k = int(rng.integers(1, 9))
    q = rng.normal(size=(k, dims, dims))
    normal = q @ np.swapaxes(q, 1, 2) + 10.0 ** rng.uniform(-3.0, 1.0, (k, 1, 1)) * eye
    starts = centre + rng.normal(0.0, 4.0, (k, dims))
    return normal, rng.normal(0.0, 10.0, (k, dims)), rows, bound - starts @ rows.T


def test_qp_step_matches_active_set_enumeration():
    rng = np.random.default_rng(18)
    verdicts = {True: 0, False: 0}
    for i in range(600):
        step = random_constrained_step(rng, 2 + i % 2)
        s, ok = _qp_step(*step)
        s_ref, ok_ref = qp_step_reference(*step)
        assert np.array_equal(ok, ok_ref), i
        assert np.all(np.abs(s - s_ref)[ok] <= 1e-9 * (1.0 + np.abs(s_ref[ok]))), i
        for v in ok:
            verdicts[bool(v)] += 1
    assert min(verdicts.values()) >= 500, verdicts


def test_runtime_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, radloc, radloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_solve_reports_iterations():
    rng = np.random.default_rng(14)
    cones = exact_instance(np.array([1.0, 1.0, 1.0]), rng)
    sol = solve(InitProblem(cones=cones))
    assert np.isfinite(sol.condition)


def test_minimize_reports_steps_and_evaluations(monkeypatch):
    # what the benchmark's tracer reads of the polish: the steps the slowest
    # start took (at the cap when a start is cut off) and the cost evaluations
    calls = []

    def traced(batch, x0, **kwargs):
        out = minimize(batch, x0, **kwargs)
        calls.append((len(x0), kwargs["options"]["maxiter"], out))
        return out

    monkeypatch.setattr(initializer, "minimize", traced)
    cones = exact_instance(np.array([1.0, 1.0, 1.0]), np.random.default_rng(14))
    solve(InitProblem(cones=cones))
    (starts, maxiter, full), = calls
    assert 2 <= full.nit < maxiter
    assert full.nfev >= starts + full.nit
    # one step short of what the slowest start needs, it stops at the cap
    solve(InitProblem(cones=cones, max_iterations=full.nit - 1))
    starts, maxiter, cut = calls[-1]
    assert cut.nit == maxiter == full.nit - 1
    assert cut.nfev >= starts + cut.nit
