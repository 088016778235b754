import math
from collections import Counter

import numpy as np
import pytest

from radloc import simulator
from radloc.cones import distance_to_cone
from radloc.errors import MalformedInputError
from radloc.estimator import NoiseConfig
from radloc.geometry import unit
from radloc.io import STEPS_HEADER
from radloc.simulator import (
    CONE_RATE_CONSTANT,
    MAX_THETA,
    MIN_THETA,
    DetectorModel,
    Program,
    Scenario,
    metrics,
    run_scenario,
    sample_cones,
)

from oracles import quat_to_matrix, sample_cones_reference, source_at, trajectory_waypoints


# --- configuration validation ---


def test_detector_model_validation():
    with pytest.raises(MalformedInputError):
        DetectorModel(background_rate=-0.1)
    with pytest.raises(MalformedInputError):
        DetectorModel(angular_sigma=-0.01)
    with pytest.raises(MalformedInputError):
        DetectorModel(axis_sigma=math.nan)
    assert 0.0 < MIN_THETA < MAX_THETA < math.pi


def test_scenario_validation():
    with pytest.raises(MalformedInputError):
        Scenario(activity=0.0)
    with pytest.raises(MalformedInputError):
        Scenario(timestep=0.0)
    with pytest.raises(MalformedInputError):
        Scenario(orbit_radius=-1.0)
    with pytest.raises(MalformedInputError):
        Scenario(area=(0.0, 10.0))


def test_source_kinematics_exact():
    sc = Scenario(source_initial=[1.0, 2.0, 0.0], source_velocity=[0.8, -0.6, 0.0])
    assert np.array_equal(source_at(sc, 0.0), [1.0, 2.0, 0.0])
    t = 12.5
    assert np.array_equal(source_at(sc, t), np.asarray(sc.source_initial) + t * np.asarray(sc.source_velocity))


# --- trajectories ---


def test_trajectory_revolution_time():
    # 10 m radius at 1 m/s: one revolution in 2*pi*10 s
    dt = 0.1
    poses = trajectory_waypoints(np.zeros(3), 10.0, 1.0, dt, 700)
    start = np.asarray(poses[0].position)
    gaps = [np.linalg.norm(np.asarray(p.position) - start) for p in poses[5:]]
    k = int(np.argmin(gaps)) + 5
    assert poses[k].timestamp == pytest.approx(2.0 * math.pi * 10.0, abs=0.2)


def test_trajectory_constant_chord():
    poses = trajectory_waypoints(np.array([3.0, -2.0, 0.0]), 7.0, 1.3, 0.5, 100, altitude=5.0)
    for a, b in zip(poses, poses[1:]):
        assert math.dist(b.position, a.position) == pytest.approx(1.3 * 0.5, abs=1e-9)
        assert a.position[2] == 5.0


def test_trajectory_yaw_faces_center():
    center = np.array([1.0, 2.0, 5.0])
    for pose in trajectory_waypoints(center, 10.0, 1.0, 0.5, 40):
        forward = np.asarray(quat_to_matrix(pose.orientation)) @ np.array([1.0, 0.0, 0.0])
        to_center = center - np.asarray(pose.position)
        to_center[2] = 0.0
        assert np.dot(unit(forward), unit(to_center)) == pytest.approx(1.0, abs=1e-9)


def test_trajectory_rejects_bad_radius():
    with pytest.raises(MalformedInputError):
        trajectory_waypoints(np.zeros(3), 0.0, 1.0, 0.5, 10)


# --- detector sampling ---


def test_sample_cones_exact_geometry():
    rng = np.random.default_rng(0)
    model = DetectorModel()  # zero noise, zero background
    source = np.array([5.0, -3.0, 0.0])
    apex = (0.0, 0.0, 5.0)
    seen = 0
    for _ in range(200):
        src, bg = sample_cones(source, apex, 0.0, model, 3.0e9, 0.5, rng)
        assert bg == []
        for cone in src:
            assert distance_to_cone(source, cone) < 1e-9
            assert MIN_THETA <= cone.half_angle <= MAX_THETA
            assert cone.origin == apex
            seen += 1
    assert seen > 100


def test_sample_cones_moving_source_geometry():
    rng = np.random.default_rng(1)
    model = DetectorModel()
    sc = Scenario(source_initial=[10.0, 2.0, 0.0], source_velocity=[0.8, 0.6, 0.0])
    for k in range(100):
        t = 0.5 * k
        source = source_at(sc, t)
        src, bg = sample_cones(source, (0.0, 0.0, 5.0), t, model, 3.0e9, 0.5, rng)
        for cone in src + bg:
            assert distance_to_cone(source, cone) < 1e-9
            assert cone.timestamp == t


def test_sample_cones_calibrated_rate():
    # 3 GBq at 10 m: 1.7 cones/s on average
    rng = np.random.default_rng(2)
    model = DetectorModel()
    source = np.array([10.0, 0.0, 0.0])
    apex = (0.0, 0.0, 0.0)
    total = sum(sum(map(len, sample_cones(source, apex, 0.0, model, 3.0e9, 1.0, rng))) for _ in range(1000))
    assert total / 1000.0 == pytest.approx(1.7, abs=0.2)


def test_sample_cones_inverse_square():
    rng = np.random.default_rng(3)
    model = DetectorModel()
    apex = (0.0, 0.0, 0.0)
    near = sum(
        sum(map(len, sample_cones(np.array([10.0, 0, 0]), apex, 0.0, model, 3.0e9, 5.0, rng)))
        for _ in range(2000)
    )
    far = sum(
        sum(map(len, sample_cones(np.array([20.0, 0, 0]), apex, 0.0, model, 3.0e9, 5.0, rng)))
        for _ in range(2000)
    )
    assert near / far == pytest.approx(4.0, abs=0.3)


def test_sample_cones_background_rate_and_noise():
    rng = np.random.default_rng(4)
    model = DetectorModel(angular_sigma=0.05, background_rate=0.5)
    source = np.array([10.0, 0.0, 0.0])
    src_cones, bg_cones = [], []
    for _ in range(400):
        src, bg = sample_cones(source, (0.0, 0.0, 0.0), 0.0, model, 3.0e9, 1.0, rng)
        src_cones.extend(src)
        bg_cones.extend(bg)
    cones = src_cones + bg_cones
    # noisy cones no longer contain the source exactly, but most come close
    misses = np.array([distance_to_cone(source, c) for c in cones])
    assert np.median(misses) < 1.0
    # background share roughly 0.5 / (1.7 + 0.5), both as returned and as seen
    assert np.mean(misses > 3.0) == pytest.approx(0.5 / 2.2, abs=0.1)
    assert len(bg_cones) / len(cones) == pytest.approx(0.5 / 2.2, abs=0.1)
    assert np.median([distance_to_cone(source, c) for c in src_cones]) < 1.0


def _cone_bits(cones):
    return [[v.hex() for v in (*c.origin, *c.axis, c.half_angle, c.timestamp)] for c in cones]


def test_sample_cones_matches_the_generator_call_reference():
    # both noise terms, and background on or off, the branches the closed
    # loop's bundled scenarios do not all take: equal cones, bit for bit,
    # and the generator left in an equal state after each of a run of calls
    # (with no background the reference still calls poisson(0), which draws nothing)
    rng = np.random.default_rng(11)
    drawn = Counter()
    for k in range(300):
        model = DetectorModel(
            angular_sigma=rng.uniform(0.01, 0.2) * (k % 3 != 0),
            axis_sigma=rng.uniform(0.01, 0.2) * (k % 3 != 1),
            background_rate=rng.uniform(0.5, 3.0) * (k % 4 != 0),
        )
        apex, t = tuple(rng.normal(size=3) * 20.0), 0.5 * k
        source = rng.normal(size=3) * 20.0
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_cones(source, apex, t, model, 3.0e10, 2.0, ours)
            want = sample_cones_reference(source, apex, t, model, 3.0e10, 2.0, theirs)
            assert [_cone_bits(c) for c in got] == [_cone_bits(c) for c in want]
            assert ours.bit_generator.state == theirs.bit_generator.state
            drawn["background" if model.background_rate else "no background"] += len(got[0])
            drawn["background cones"] += len(got[1])
    assert min(drawn.values()) >= 300, drawn


def test_sample_cones_rejects_coincident_source():
    rng = np.random.default_rng(5)
    with pytest.raises(MalformedInputError):
        sample_cones(np.array([1.0, 1.0, 1.0]), (1.0, 1.0, 1.0), 0.0, DetectorModel(), 3.0e9, 0.5, rng)


# --- closed-loop runs ---


def static_scenario(**overrides):
    base = dict(
        source_initial=[8.0, -4.0, 0.0],
        activity=3.0e9,
        area=(40.0, 20.0),
        uav_speed=2.0,
        orbit_radius=10.0,
        flight_altitude=5.0,
        detector=DetectorModel(),
        duration=30.0,
        seed=7,
        timestep=0.5,
        estimator=NoiseConfig(
            r=2.0, q=0.02, init_variance=25.0, multistart=4, max_iterations=60
        ),
    )
    base.update(overrides)
    return Scenario(**base)


# a step row's cells by their STEPS_HEADER column
T, PHASE, ACTION = (STEPS_HEADER.index(c) for c in ("t_s", "phase", "action"))
TRUTH = slice(STEPS_HEADER.index("truth_x"), STEPS_HEADER.index("truth_z") + 1)
EST = slice(STEPS_HEADER.index("est_x"), STEPS_HEADER.index("est_z") + 1)


def estimate(step):
    """A step row's estimate cells, or None where they are NaN: no hypothesis at that step."""
    x = step[EST]
    return None if all(map(math.isnan, x)) else x


def report_equal(a, b):
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        if sa[T] != sb[T] or sa[PHASE] != sb[PHASE]:
            return False
        if sa[ACTION] != sb[ACTION] or not np.array_equal(sa[TRUTH], sb[TRUTH]):
            return False
        # the estimate cells are NaN where no hypothesis exists
        if not np.array_equal(sa[EST], sb[EST], equal_nan=True):
            return False
    return (
        a.corrections == b.corrections
        and a.transitions == b.transitions
        and a.stats == b.stats
        and (a.cones_source, a.cones_background) == (b.cones_source, b.cones_background)
    )


def test_run_scenario_deterministic():
    sc1 = static_scenario(detector=DetectorModel(angular_sigma=0.05, background_rate=0.1))
    sc2 = static_scenario(detector=DetectorModel(angular_sigma=0.05, background_rate=0.1))
    assert report_equal(run_scenario(sc1), run_scenario(sc2))


def test_run_scenario_noiseless_static_converges_fast():
    report = run_scenario(static_scenario())
    by_count = {count: err for _, count, err, _ in report.corrections}
    assert 15 in by_count
    assert by_count[15] < 1.0


def test_run_scenario_truth_follows_kinematics():
    sc = static_scenario(source_velocity=[0.5, -0.25, 0.0], duration=10.0)
    report = run_scenario(sc)
    for k, step in enumerate(report.steps):
        t = k * sc.timestep
        assert step[T] == t
        assert np.array_equal(step[TRUTH], source_at(sc, t))


def test_run_scenario_orbit_only_while_tracking():
    # the search orbits exactly while it has an estimate, and each transition
    # lands on a step where that flips; the open-loop programs carry their name
    report = run_scenario(
        static_scenario(detector=DetectorModel(angular_sigma=0.05, background_rate=0.1))
    )
    assert {step[PHASE] for step in report.steps} == {"sweep", "orbit"}
    flips = []
    tracking = False
    for step in report.steps:
        assert (step[PHASE] == "orbit") == (estimate(step) is not None)
        if (estimate(step) is not None) != tracking:
            tracking = not tracking
            flips.append((step[T], step[PHASE]))
    assert report.transitions == flips
    for program in (Program.STATIONARY, Program.RADIAL):
        report = run_scenario(static_scenario(program=program, duration=5.0))
        assert report.steps and {step[PHASE] for step in report.steps} == {program.value}


def test_run_scenario_steps_are_steps_csv_rows():
    # a cell per STEPS_HEADER column; the error cell is the estimate's
    # distance to the truth, and NaN with the estimate cells before a lock
    report = run_scenario(
        static_scenario(detector=DetectorModel(angular_sigma=0.05, background_rate=0.1))
    )
    err = STEPS_HEADER.index("err_m")
    tracked = 0
    for step in report.steps:
        assert len(step) == len(STEPS_HEADER)
        if estimate(step) is None:
            assert math.isnan(step[err])
        else:
            tracked += 1
            assert step[err] == math.dist(step[EST], step[TRUTH])
    assert 0 < tracked < len(report.steps)
    assert metrics(report)["tracked_steps"] == tracked


def test_run_scenario_stationary_uav_never_tracks():
    sc = Scenario(
        source_initial=[0.0, 0.0, 0.0],
        activity=3.0e9,
        area=(40.0, 40.0),
        uav_speed=0.0,
        flight_altitude=5.0,
        detector=DetectorModel(angular_sigma=0.05),
        duration=20.0,
        seed=3,
        timestep=0.5,
        program=Program.STATIONARY,
        uav_start=[8.0, 0.0, 5.0],
        estimator=NoiseConfig(multistart=2, max_iterations=40),
    )
    summary = metrics(run_scenario(sc))
    assert summary["degenerate_only"]
    assert summary["tracked_steps"] == 0
    assert summary["time_to_init_s"] is None


def test_run_scenario_radial_approach_never_tracks():
    sc = Scenario(
        source_initial=[0.0, 0.0, 0.0],
        activity=3.0e9,
        area=(40.0, 40.0),
        uav_speed=1.0,
        flight_altitude=0.0,
        detector=DetectorModel(),
        duration=10.0,
        seed=3,
        timestep=0.5,
        program=Program.RADIAL,
        uav_start=[12.0, 0.0, 0.0],
        estimator=NoiseConfig(multistart=2, max_iterations=40),
    )
    summary = metrics(run_scenario(sc))
    assert summary["degenerate_only"]
    assert summary["tracked_steps"] == 0


def test_run_scenario_background_only_never_initializes(monkeypatch):
    # spurious cones have uniform random geometry; the best-fit point of
    # any five of them leaves a residual the consistency gate rejects
    monkeypatch.setattr(simulator, "CONE_RATE_CONSTANT", 0.0)
    sc = static_scenario(
        detector=DetectorModel(background_rate=0.1),
        duration=120.0,
        estimator=NoiseConfig(multistart=4, max_iterations=60),
    )
    report = run_scenario(sc)
    assert report.cones_source == 0
    assert report.cones_background >= 5
    assert report.init_time is None
    # every attempted solve was thrown out one way or another
    stats = report.stats
    assert stats.degenerate_solves + stats.infeasible_solves + stats.inconsistent_solves > 0
    assert metrics(report)["time_to_init_s"] is None


def test_metrics_zero_duration():
    summary = metrics(run_scenario(static_scenario(duration=0.0)))
    assert summary["cones_total"] == 0
    assert summary["accepted"] == 0
    assert summary["cone_rate_per_s"] == 0.0
    assert summary["time_to_init_s"] is None
    assert summary["post_lock_mean_error_m"] is None


def test_metrics_running_mean_error_nonincreasing_noiseless():
    report = run_scenario(static_scenario())
    errs = [err for _, _, err, _ in report.corrections]
    assert errs, "expected accepted corrections"
    means = np.cumsum(errs) / np.arange(1, len(errs) + 1)
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-9


def test_metrics_keys_and_rates():
    report = run_scenario(static_scenario(duration=15.0))
    summary = metrics(report)
    assert summary["cones_total"] == report.cones_source + report.cones_background
    assert summary["cone_rate_per_s"] == pytest.approx(summary["cones_total"] / 15.0)
    if summary["accepted"] + summary["rejected"] > 0:
        assert 0.0 <= summary["acceptance_rate"] <= 1.0


def test_cone_rate_constant_anchor():
    # 3 GBq at 10 m -> 1.7 cones/s by construction
    assert CONE_RATE_CONSTANT * 3.0e9 / 10.0 ** 2 == pytest.approx(1.7, rel=1e-12)
