"""End-to-end acceptance gate for the package.

One test per release criterion, in order. Each prints a single
[PASS]/[FAIL] line naming what it checked (run pytest with -s to see
them) before asserting, so a red run still identifies the gate that
tripped. Budgeted checks also report elapsed wall time.
"""

import math
import time
from pathlib import Path

import numpy as np

import radloc
from radloc.cli import main
from radloc.cones import distance_to_cone, project_to_cone
from radloc.estimator import NoiseConfig
from radloc.events import (
    EventClass,
    _scattering_cosine,
    build_cone,
    delta_z,
    process_hits,
)
from radloc.geometry import Cone, Frame, unit
from radloc.initializer import InitProblem, Mode, jacobian, solve
from radloc.simulator import (
    CONE_RATE_CONSTANT,
    DetectorModel,
    Program,
    Scenario,
    metrics,
    run_scenario,
)

from oracles import (
    central_difference,
    grid_search_cost,
    planar_cone_distance,
    scattered_photon_energy,
    surface_points,
)
from test_events import energy_split, synthetic_stream
from test_initializer import exact_instance

SCENARIO_DIR = Path(radloc.__file__).parent / "scenarios"


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")


def test_kinematics_reference_values():
    cones, _, _, _ = build_cone(energy_split([315.70], [394.22]))
    (theta,) = cones.half_angles.tolist()
    dz = delta_z(20.31, 0.0)
    ok = abs(theta - 1.13) <= 0.01 and abs(dz - 0.472) <= 0.005
    report(
        ok,
        "two-pixel kinematics reference case: "
        f"angle {theta:.4f} rad (want 1.13 +- 0.01), "
        f"depth offset {dz:.5f} mm (want 0.472 +- 0.005)",
    )
    assert ok


def test_kinematics_roundtrip_bulk():
    rng = np.random.default_rng(5)
    n = 100_000
    energies = rng.uniform(100.0, 1000.0, n).tolist()
    angles = rng.uniform(0.05, math.pi - 0.05, n).tolist()
    start = time.perf_counter()
    e_prime = np.array([scattered_photon_energy(e, theta) for e, theta in zip(energies, angles)])
    # build_cone's kinematics without its per-cone records: the cosine on
    # columns, then one math.acos per pair
    cosine = _scattering_cosine(np.array(energies) - e_prime, e_prime)
    back = np.array([math.acos(b) for b in cosine.tolist()])
    worst = float(np.max(np.abs(back - angles))) if np.all(np.abs(cosine) < 1.0) else math.inf
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(
        ok,
        f"energy-to-angle roundtrip on {n} random pairs: "
        f"worst {worst:.3g} rad (<=1e-9), {elapsed:.2f} s (<1 s)",
    )
    assert ok


def test_projection_properties_bulk():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_idem = 0.0
    worst_surf = 0.0
    worst_gap = -np.inf
    checked = 0
    while checked < 1000:
        origin = rng.uniform(-10.0, 10.0, 3)
        axis = unit(rng.normal(size=3))
        half_angle = rng.uniform(0.1, math.pi / 2 - 0.05)
        cone = Cone(origin, axis, half_angle, Frame.WORLD)
        x = origin + np.asarray(unit(rng.normal(size=3))) * rng.uniform(0.0, 30.0)
        res = project_to_cone(x, cone)
        # minimality is contracted for the front half-space; behind it
        # the apex is returned by design and is not the nearest point
        if res.alpha >= math.pi / 2:
            continue
        checked += 1
        again = project_to_cone(res.point, cone)
        worst_idem = max(worst_idem, math.dist(again.point, res.point))
        worst_surf = max(worst_surf, distance_to_cone(res.point, cone))
        # the projection must beat a dense surface sampling
        rmax = 3.0 * (float(np.linalg.norm(x - origin)) + 1.0)
        samples = surface_points(
            origin,
            axis,
            half_angle,
            np.linspace(0.0, rmax, 100),
            np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False),
        )
        best_sample = float(np.min(np.linalg.norm(samples - x, axis=1)))
        worst_gap = max(worst_gap, float(np.linalg.norm(x - res.point)) - best_sample)
    # axial-plane cases against the closed-form in-plane distance
    worst_planar = 0.0
    for _ in range(1000):
        origin = rng.uniform(-10.0, 10.0, 3)
        axis = unit(rng.normal(size=3))
        half_angle = rng.uniform(0.1, math.pi / 2 - 0.05)
        cone = Cone(origin, axis, half_angle, Frame.WORLD)
        perp = np.asarray(unit(np.cross(axis, unit(rng.normal(size=3)))))
        ell = rng.uniform(0.5, 30.0)
        alpha = rng.uniform(0.02, math.pi / 2 - 0.02)
        t_ax, rho = ell * math.cos(alpha), ell * math.sin(alpha)
        x = origin + t_ax * np.asarray(axis) + rho * perp
        worst_planar = max(
            worst_planar,
            abs(distance_to_cone(x, cone) - planar_cone_distance(rho, t_ax, half_angle)),
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_idem <= 1e-9
        and worst_surf <= 1e-9
        and worst_gap <= 1e-7
        and worst_planar <= 1e-9
        and elapsed < 10.0
    )
    report(
        ok,
        "cone projection on 1000 random cases: "
        f"idempotence {worst_idem:.2g} (<=1e-9), "
        f"on-surface residual {worst_surf:.2g} (<=1e-9), "
        f"margin over 1e4-point sampling {worst_gap:.2g} (<=1e-7), "
        f"axial-plane closed form {worst_planar:.2g} (<=1e-9), "
        f"{elapsed:.2f} s (<10 s)",
    )
    assert ok


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 1000:
        origin = rng.uniform(-10.0, 10.0, 3)
        axis = unit(rng.normal(size=3))
        half_angle = rng.uniform(0.1, math.pi / 2 - 0.05)
        cone = Cone(origin, axis, half_angle, Frame.WORLD)
        p = origin + np.asarray(unit(rng.normal(size=3))) * rng.uniform(0.5, 20.0)
        # skip subgradient points: on the surface, on the axis, at the apex
        u = p - origin
        axial = float(u @ axis)
        perp = math.sqrt(max(float(u @ u) - axial * axial, 0.0))
        if distance_to_cone(p, cone) < 1e-2 or perp < 1e-2:
            continue
        row = jacobian(p, [cone])[0]
        fd = central_difference(lambda q: distance_to_cone(q, cone), p)
        rel = float(np.linalg.norm(row - fd)) / max(float(np.linalg.norm(fd)), 1e-12)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    report(
        ok,
        f"analytic distance gradient vs central differences on {checked} "
        f"non-degenerate cases: worst relative error {worst:.3g} (<=1e-5), "
        f"{elapsed:.2f} s (<5 s)",
    )
    assert ok


def test_exact_cone_recovery_and_shared_apex_degeneracy():
    worst_err = 0.0
    worst_solve = 0.0
    min_spread = np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p_star = np.array(
            [rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0), rng.uniform(-2.0, 2.0)]
        )
        cones = exact_instance(p_star, rng)
        origins = np.array([c.origin for c in cones])
        spread = max(
            float(np.linalg.norm(a - b)) for a in origins for b in origins
        )
        min_spread = min(min_spread, spread)
        t0 = time.perf_counter()
        sol = solve(InitProblem(cones=cones))
        worst_solve = max(worst_solve, time.perf_counter() - t0)
        if sol.degenerate:
            worst_err = np.inf
        worst_err = max(worst_err, float(np.linalg.norm(sol.p - p_star)))
    flagged = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        apex = rng.uniform(-10.0, 10.0, 3)
        cones = [
            Cone(apex, unit(rng.normal(size=3)), rng.uniform(0.3, 1.2), Frame.WORLD)
            for _ in range(5)
        ]
        if solve(InitProblem(cones=cones)).degenerate:
            flagged += 1
    ok = (
        min_spread >= 5.0
        and worst_err <= 1e-3
        and worst_solve <= 1.0
        and flagged == 100
    )
    report(
        ok,
        "closed-geometry source recovery on 100 exact five-cone instances "
        f"(apex spread >= {min_spread:.1f} m): worst error {worst_err:.2g} m "
        f"(<=1e-3), slowest solve {worst_solve * 1e3:.0f} ms (<=1 s); "
        f"shared-apex instances flagged degenerate {flagged}/100",
    )
    assert ok


def test_solver_cost_dominates_grid_search():
    start = time.perf_counter()
    worst_excess = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p_star = np.array(
            [rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(0.0, 3.0)]
        )
        noisy = [
            Cone(
                c.origin,
                c.axis,
                float(np.clip(c.half_angle + rng.normal(0.0, 0.05), 0.05, 1.5)),
                c.frame,
                c.timestamp,
            )
            for c in exact_instance(p_star, rng)
        ]
        lo, hi = p_star - 3.0, p_star + 3.0
        sol = solve(InitProblem(cones=noisy, bounds=(lo, hi)))
        grid_cost, _ = grid_search_cost(noisy, lo, hi, resolution=0.1)
        worst_excess = max(worst_excess, sol.cost - grid_cost)
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-3
    report(
        ok,
        "constrained solve vs 0.1 m exhaustive grid on 100 noisy instances: "
        f"worst cost excess {worst_excess:.3g} m^2 (<=1e-3), {elapsed:.0f} s",
    )
    assert ok


def test_static_source_convergence():
    noise = NoiseConfig(
        r=2.0, q=0.02, init_variance=25.0, multistart=4, max_iterations=60
    )
    start = time.perf_counter()
    passed = 0
    for seed in range(100):
        scenario = Scenario(
            source_initial=np.array([8.0, -4.0, 0.0]),
            activity=3.0e9,
            area=(40.0, 20.0),
            uav_speed=2.0,
            orbit_radius=10.0,
            flight_altitude=5.0,
            detector=DetectorModel(angular_sigma=0.05),
            duration=30.0,
            seed=seed,
            timestep=0.5,
            estimator=noise,
        )
        rep = run_scenario(scenario)
        errs = {count: err for _, count, err, _ in rep.corrections}
        if 15 in errs and errs[15] < 2.0:
            passed += 1
    elapsed = time.perf_counter() - start
    ok = passed >= 90 and elapsed < 60.0
    report(
        ok,
        "static-source runs within 2 m after 15 accepted cones: "
        f"{passed}/100 (need >=90), {elapsed:.0f} s (<60 s)",
    )
    assert ok


def test_moving_source_tracking():
    noise = NoiseConfig(
        r=0.5,
        q=1.0,
        gate=25.0,
        init_variance=25.0,
        multistart=4,
        max_iterations=60,
    )
    # calibrated so a 10 m standoff yields about 1.7 usable cones per second
    activity = 1.7 * 125.0 / CONE_RATE_CONSTANT
    start = time.perf_counter()
    passed = 0
    for seed in range(100):
        scenario = Scenario(
            source_initial=np.array([10.0, 2.0, 0.0]),
            source_velocity=np.array([0.8, 0.6, 0.0]),
            activity=activity,
            area=(30.0, 30.0),
            uav_speed=5.0,
            orbit_radius=10.0,
            flight_altitude=5.0,
            detector=DetectorModel(angular_sigma=0.05),
            duration=300.0,
            seed=seed,
            timestep=0.5,
            estimator=noise,
        )
        summary = metrics(run_scenario(scenario))
        err = summary["post_lock_mean_planar_error_m"]
        if err is not None and err < 5.0:
            passed += 1
    elapsed = time.perf_counter() - start
    ok = passed >= 80
    report(
        ok,
        "1 m/s source tracked over 300 s with mean planar error under 5 m: "
        f"{passed}/100 (need >=80), {elapsed:.0f} s",
    )
    assert ok


def test_degenerate_geometry_is_flagged_not_tracked():
    noise = NoiseConfig(multistart=2, max_iterations=40)
    start = time.perf_counter()
    stationary_ok = 0
    for seed in range(100):
        scenario = Scenario(
            source_initial=np.zeros(3),
            activity=3.0e9,
            area=(40.0, 40.0),
            uav_speed=0.0,
            flight_altitude=5.0,
            detector=DetectorModel(angular_sigma=0.05),
            duration=20.0,
            seed=seed,
            timestep=0.5,
            program=Program.STATIONARY,
            uav_start=np.array([8.0, 0.0, 5.0]),
            estimator=noise,
        )
        summary = metrics(run_scenario(scenario))
        if summary["degenerate_only"] and summary["tracked_steps"] == 0:
            stationary_ok += 1
    radial_ok = 0
    for seed in range(100):
        scenario = Scenario(
            source_initial=np.zeros(3),
            activity=3.0e9,
            area=(40.0, 40.0),
            uav_speed=1.0,
            flight_altitude=0.0,
            detector=DetectorModel(),
            duration=8.0,
            seed=seed,
            timestep=0.5,
            program=Program.RADIAL,
            uav_start=np.array([12.0, 0.0, 0.0]),
            estimator=noise,
        )
        summary = metrics(run_scenario(scenario))
        if summary["degenerate_only"] and summary["tracked_steps"] == 0:
            radial_ok += 1
    elapsed = time.perf_counter() - start
    ok = stationary_ok == 100 and radial_ok == 100 and elapsed < 60.0
    report(
        ok,
        "unresolvable viewing geometry never reaches tracking: "
        f"hovering {stationary_ok}/100, straight-line radial {radial_ok}/100 "
        f"(need 100/100 each), {elapsed:.0f} s (<60 s)",
    )
    assert ok


def test_stream_classification_rates_and_shares():
    hits = synthetic_stream(6073, 18, 8, 250.0)
    start = time.perf_counter()
    result = process_hits(hits, duration=250.0)
    elapsed = time.perf_counter() - start
    summary = result.summary
    counts = summary.counts
    rates = summary.rates()
    shares = summary.shares()
    got_counts = (
        counts[EventClass.PHOTOELECTRIC],
        counts[EventClass.COMPTON_CANDIDATE],
        counts[EventClass.BACKGROUND],
    )
    got_rates = (
        round(rates[EventClass.PHOTOELECTRIC], 2),
        round(rates[EventClass.COMPTON_CANDIDATE], 3),
        round(rates[EventClass.BACKGROUND], 3),
    )
    got_shares = (
        round(shares[EventClass.PHOTOELECTRIC], 3),
        round(shares[EventClass.COMPTON_CANDIDATE], 3),
        round(shares[EventClass.BACKGROUND], 3),
    )
    ok = (
        got_counts == (6073, 18, 8)
        and got_rates == (24.29, 0.072, 0.032)
        and got_shares == (0.996, 0.003, 0.001)
        and elapsed < 1.0
    )
    report(
        ok,
        "250 s stream classification: counts "
        f"{got_counts} (want (6073, 18, 8)), rates {got_rates} "
        f"(want (24.29, 0.072, 0.032)) per s, shares {got_shares} "
        f"(want (0.996, 0.003, 0.001)), {elapsed:.2f} s (<1 s)",
    )
    assert ok


def test_simulation_reproducibility(tmp_path):
    scenario = SCENARIO_DIR / "static_3gbq.yaml"
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        outputs.append(out)
    steps_same = (
        (outputs[0] / "steps.csv").read_bytes() == (outputs[1] / "steps.csv").read_bytes()
    )
    summary_same = (
        (outputs[0] / "summary.json").read_bytes()
        == (outputs[1] / "summary.json").read_bytes()
    )
    ok = steps_same and summary_same
    report(
        ok,
        "same-seed simulation reruns byte-identical: "
        f"steps.csv {'yes' if steps_same else 'NO'}, "
        f"summary.json {'yes' if summary_same else 'NO'}",
    )
    assert ok
