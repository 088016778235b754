"""Flight-and-detector simulator with a closed-loop search strategy.

Generates UAV poses along sweep/orbit circles, samples Compton cones
from a parametric detector model (Poisson arrivals with inverse-square
intensity, exact cone-through-source geometry plus angular noise),
injects uniform background cones, and drives the estimator session with
the naive strategy: sweep the area until a hypothesis locks, then orbit
the hypothesis; a reset sends the vehicle back to sweeping.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import MalformedInputError
from .estimator import Action, NoiseConfig, SessionStats, SourceEstimator, Status
from .geometry import Cone, Frame, Pose, cross, perpendicular_unit, quat_from_axis_angle, rotate_about_axis
from .initializer import Mode

log = logging.getLogger(__name__)

# cones * m^2 / (s * Bq): a 3 GBq source seen from 10 m yields the
# reference 1.7 cones/s operating point
CONE_RATE_CONSTANT = 1.7 * 10.0 ** 2 / 3.0e9

_E3 = np.array([0.0, 0.0, 1.0])


class Program(Enum):
    """Flight program: closed-loop search, or open-loop degenerate motions."""

    SEARCH = "search"
    STATIONARY = "stationary"
    RADIAL = "radial"


class Phase(Enum):
    SWEEP_AREA = "sweep"
    ORBIT_HYPOTHESIS = "orbit"


@dataclass
class DetectorModel:
    """Parametric surrogate for the physics detector chain."""

    cone_rate_constant: float = CONE_RATE_CONSTANT
    angular_sigma: float = 0.0  # rad, half-angle measurement noise
    axis_sigma: float = 0.0  # rad, axis direction noise
    background_rate: float = 0.0  # spurious cones / s
    min_theta: float = 0.2
    max_theta: float = 1.4

    def __post_init__(self) -> None:
        rates_and_sigmas = (self.cone_rate_constant, self.background_rate, self.angular_sigma, self.axis_sigma)
        if not all(0.0 <= v < math.inf for v in rates_and_sigmas):  # written so that NaN fails
            raise MalformedInputError("rates and noise sigmas must be finite and nonnegative")
        if not (0.0 < self.min_theta < self.max_theta < math.pi):
            raise MalformedInputError("need 0 < min_theta < max_theta < pi")


@dataclass
class Scenario:
    """Full simulation configuration; deterministic given the seed."""

    source_initial: np.ndarray = field(default_factory=lambda: np.zeros(3))
    source_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    activity: float = 3.0e9  # Bq
    area: tuple[float, float] = (100.0, 100.0)  # meters, centered on origin
    uav_speed: float = 1.0
    orbit_radius: float = 10.0
    flight_altitude: float = 5.0
    detector: DetectorModel = field(default_factory=DetectorModel)
    duration: float = 120.0
    seed: int = 0
    timestep: float = 0.5
    program: Program = Program.SEARCH
    uav_start: np.ndarray | None = None
    mode: Mode = Mode.THREE_D
    estimator: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self) -> None:
        self.source_initial = np.asarray(self.source_initial, dtype=float).reshape(3)
        self.source_velocity = np.asarray(self.source_velocity, dtype=float).reshape(3)
        if self.uav_start is not None:
            self.uav_start = np.asarray(self.uav_start, dtype=float).reshape(3)
        points = [p for p in (self.source_initial, self.source_velocity, self.uav_start) if p is not None]
        scalars = [self.activity, self.uav_speed, self.orbit_radius, self.flight_altitude, self.duration]
        if not all(map(math.isfinite, np.concatenate(points).tolist() + scalars + [self.timestep, *self.area])):
            raise MalformedInputError("scenario values must be finite")
        if not (self.activity > 0 and self.orbit_radius > 0 and self.timestep > 0 and min(self.area) > 0):
            raise MalformedInputError("activity, orbit radius, timestep and area sides must be positive")
        if not (self.uav_speed >= 0 and self.duration >= 0):
            raise MalformedInputError("speed and duration must be nonnegative")
        self.program = Program(self.program)
        self.mode = Mode(self.mode)

    def source_at(self, t: float) -> np.ndarray:
        return self.source_initial + t * self.source_velocity


@dataclass
class StrategyState:
    phase: Phase = Phase.SWEEP_AREA
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    azimuth: float = 0.0


@dataclass
class StepRecord:
    t: float
    truth: np.ndarray
    estimate: np.ndarray | None
    error: float  # nan while no hypothesis exists
    phase: str
    status: str
    action: str  # last ingest action within the step, or "none"


@dataclass
class SimulationReport:
    seed: int
    duration: float
    steps: list[StepRecord] = field(default_factory=list)
    transitions: list[tuple[float, str]] = field(default_factory=list)
    corrections: list[tuple[float, int, float, float]] = field(default_factory=list)
    cones_source: int = 0
    cones_background: int = 0
    stats: SessionStats = field(default_factory=SessionStats)
    init_time: float | None = None  # first lock


def _circle_pose(t: float, center: np.ndarray, radius: float, azimuth: float, altitude: float) -> Pose:
    """Pose on a horizontal circle, yaw facing the center."""
    position = np.array(
        [center[0] + radius * math.cos(azimuth), center[1] + radius * math.sin(azimuth), altitude]
    )
    yaw = math.atan2(center[1] - position[1], center[0] - position[0])
    return Pose(t, position, quat_from_axis_angle(_E3, yaw))


def _chord_step(speed: float, timestep: float, radius: float) -> float:
    """Azimuth increment whose chord length equals speed * timestep."""
    return 2.0 * math.asin(min(1.0, speed * timestep / (2.0 * radius)))


def trajectory_waypoints(
    center: np.ndarray,
    radius: float,
    speed: float,
    timestep: float,
    count: int,
    altitude: float | None = None,
    start_azimuth: float = 0.0,
) -> list[Pose]:
    """Pose stream on a circle at constant speed, yaw toward the center.

    Consecutive positions are exactly speed*timestep apart (chord
    stepping), so the angular rate is speed/radius up to O(timestep^2).
    """
    if radius <= 0:
        raise MalformedInputError("radius must be positive")
    center = np.asarray(center, dtype=float).reshape(3)
    z = center[2] if altitude is None else altitude
    dphi = _chord_step(speed, timestep, radius)
    return [
        _circle_pose(k * timestep, center, radius, start_azimuth + k * dphi, z)
        for k in range(count)
    ]


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    n = float(np.linalg.norm(v))
    while n < 1e-12:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
    return v / n


def _perpendicular_unit_random(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector perpendicular to v."""
    w0 = perpendicular_unit(v)
    w1 = cross(v, w0)
    psi = float(rng.uniform(0.0, 2.0 * math.pi))
    return math.cos(psi) * w0 + math.sin(psi) * w1


def sample_cones(
    source: np.ndarray,
    pose: Pose,
    model: DetectorModel,
    activity: float,
    dt: float,
    rng: np.random.Generator,
) -> tuple[list[Cone], list[Cone]]:
    """Source-driven and background cones for one timestep, in that order."""
    apex = pose.position
    offset = np.asarray(source, dtype=float) - apex
    dist2 = float(offset @ offset)
    if dist2 < 1e-12:
        raise MalformedInputError("source coincides with the detector")
    lam = model.cone_rate_constant * activity / dist2
    true_dir = offset / math.sqrt(dist2)

    source_cones: list[Cone] = []
    for _ in range(int(rng.poisson(lam * dt))):
        theta = float(rng.uniform(model.min_theta, model.max_theta))
        axis = rotate_about_axis(true_dir, _perpendicular_unit_random(true_dir, rng), theta)
        if model.axis_sigma > 0.0:
            tilt = float(rng.normal(0.0, model.axis_sigma))
            axis = rotate_about_axis(axis, _perpendicular_unit_random(axis, rng), tilt)
        half_angle = theta
        if model.angular_sigma > 0.0:
            half_angle = float(
                np.clip(theta + rng.normal(0.0, model.angular_sigma), 1e-3, math.pi - 1e-3)
            )
        axis = axis / float(np.linalg.norm(axis))
        source_cones.append(Cone(apex.copy(), axis, half_angle, Frame.WORLD, pose.timestamp))

    background: list[Cone] = []
    for _ in range(int(rng.poisson(model.background_rate * dt))):
        axis = _random_unit(rng)
        theta = float(rng.uniform(model.min_theta, model.max_theta))
        background.append(Cone(apex.copy(), axis, theta, Frame.WORLD, pose.timestamp))
    return source_cones, background


def _default_start(scenario: Scenario) -> np.ndarray:
    alt = scenario.flight_altitude
    if scenario.program is Program.STATIONARY:
        return scenario.source_initial + np.array([10.0, 0.0, 0.0]) + np.array([0.0, 0.0, alt])
    if scenario.program is Program.RADIAL:
        return scenario.source_initial + np.array([30.0, 0.0, 0.0]) + np.array([0.0, 0.0, alt])
    sweep_radius = min(scenario.area) / 2.0
    return np.array([sweep_radius, 0.0, alt])


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Advance the closed loop scenario and log every step.

    Per step: move the source along its exact linear kinematics, sample
    cones at the current pose, feed them through the estimator, apply the
    strategy transitions, then fly the vehicle one step further.
    """
    rng = np.random.default_rng(scenario.seed)
    session = SourceEstimator(scenario.estimator, scenario.mode)
    report = SimulationReport(scenario.seed, scenario.duration, stats=session.stats)

    alt = scenario.flight_altitude
    sweep_center = np.array([0.0, 0.0, alt])
    sweep_radius = min(scenario.area) / 2.0
    strategy = StrategyState(center=sweep_center.copy())

    position = (
        scenario.uav_start.copy() if scenario.uav_start is not None else _default_start(scenario)
    )
    if scenario.program is Program.SEARCH:
        strategy.azimuth = math.atan2(
            position[1] - sweep_center[1], position[0] - sweep_center[0]
        )

    n_steps = int(round(scenario.duration / scenario.timestep))
    for k in range(n_steps):
        t = k * scenario.timestep
        truth = scenario.source_at(t)
        focus = strategy.center if scenario.program is Program.SEARCH else scenario.source_initial
        yaw = math.atan2(focus[1] - position[1], focus[0] - position[0])
        pose = Pose(t, position.copy(), quat_from_axis_angle(_E3, yaw))

        src, bg = sample_cones(truth, pose, scenario.detector, scenario.activity, scenario.timestep, rng)
        report.cones_source += len(src)
        report.cones_background += len(bg)

        last_action = "none"
        for cone in src + bg:
            state, action = session.ingest(cone)
            last_action = action.value
            if action is Action.CORRECTED:
                err = float(np.linalg.norm(state.x - truth))
                err_xy = float(np.linalg.norm((state.x - truth)[:2]))
                report.corrections.append((t, session.stats.accepted, err, err_xy))
            elif action is Action.RESET:
                log.info("reset at t=%.1f", t)

        tracking = session.state.status is Status.TRACKING
        if report.init_time is None and session.init_time is not None:
            report.init_time = session.init_time

        # strategy reacts only to estimator status changes: a lock starts
        # the orbit around the hypothesis, a reset the sweep again
        if scenario.program is Program.SEARCH and tracking == (strategy.phase is Phase.SWEEP_AREA):
            strategy.phase = Phase.ORBIT_HYPOTHESIS if tracking else Phase.SWEEP_AREA
            strategy.center = session.state.x.copy() if tracking else sweep_center.copy()
            strategy.azimuth = math.atan2(
                position[1] - strategy.center[1], position[0] - strategy.center[0]
            )
            report.transitions.append((t, strategy.phase.value))

        estimate = session.state.x.copy() if tracking else None
        error = float(np.linalg.norm(estimate - truth)) if estimate is not None else float("nan")
        report.steps.append(
            StepRecord(
                t,
                truth,
                estimate,
                error,
                strategy.phase.value if scenario.program is Program.SEARCH else scenario.program.value,
                session.state.status.value,
                last_action,
            )
        )

        position = _advance(scenario, strategy, session, position)

    return report


def _advance(
    scenario: Scenario,
    strategy: StrategyState,
    session: SourceEstimator,
    position: np.ndarray,
) -> np.ndarray:
    """Next vehicle position under the active program."""
    dt = scenario.timestep
    speed = scenario.uav_speed
    alt = scenario.flight_altitude
    if scenario.program is Program.STATIONARY or speed == 0.0:
        return position
    if scenario.program is Program.RADIAL:
        target = scenario.source_initial.copy()
        target[2] = alt
        offset = target - position
        dist = float(np.linalg.norm(offset))
        standoff = 1.5  # keep a residual range so the rate stays finite
        if dist <= standoff:
            return position
        step = min(speed * dt, dist - standoff)
        return position + offset / dist * step

    if strategy.phase is Phase.ORBIT_HYPOTHESIS:
        # follow the live hypothesis so a moving source stays encircled
        if session.state.status is Status.TRACKING:
            strategy.center = session.state.x.copy()
        radius = scenario.orbit_radius
    else:
        radius = min(scenario.area) / 2.0
    strategy.azimuth += _chord_step(speed, dt, radius)
    return np.array(
        [
            strategy.center[0] + radius * math.cos(strategy.azimuth),
            strategy.center[1] + radius * math.sin(strategy.azimuth),
            alt,
        ]
    )


def metrics(report: SimulationReport) -> dict:
    """Summary statistics of one simulation run."""
    tracked = [s for s in report.steps if s.estimate is not None]
    post_lock_errors = np.array([s.error for s in tracked]) if tracked else np.array([])
    planar = (
        np.array([float(np.linalg.norm((s.estimate - s.truth)[:2])) for s in tracked])
        if tracked
        else np.array([])
    )
    total_cones = report.cones_source + report.cones_background
    stats = report.stats
    judged = stats.accepted + stats.rejected
    return {
        "duration_s": report.duration,
        "seed": report.seed,
        "time_to_init_s": report.init_time,
        "cones_total": total_cones,
        "cones_source": report.cones_source,
        "cones_background": report.cones_background,
        "cone_rate_per_s": total_cones / report.duration if report.duration > 0 else 0.0,
        **asdict(stats),
        "acceptance_rate": stats.accepted / judged if judged > 0 else None,
        "degenerate_only": stats.degenerate_solves > 0 and report.init_time is None,
        "post_lock_mean_error_m": float(post_lock_errors.mean()) if tracked else None,
        "post_lock_max_error_m": float(post_lock_errors.max()) if tracked else None,
        "post_lock_mean_planar_error_m": float(planar.mean()) if tracked else None,
        "post_lock_max_planar_error_m": float(planar.max()) if tracked else None,
        "tracked_steps": len(tracked),
        "transitions": report.transitions,
    }


__all__ = [
    "CONE_RATE_CONSTANT",
    "DetectorModel",
    "Phase",
    "Program",
    "Scenario",
    "SimulationReport",
    "StepRecord",
    "StrategyState",
    "metrics",
    "run_scenario",
    "sample_cones",
    "trajectory_waypoints",
]
