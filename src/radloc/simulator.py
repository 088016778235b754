"""Flight-and-detector simulator with a closed-loop search strategy.

Generates UAV poses along sweep/orbit circles, samples Compton cones
from a parametric detector model (Poisson arrivals with inverse-square
intensity, exact cone-through-source geometry plus angular noise),
injects uniform background cones, and drives the estimator session with
the naive strategy: sweep the area until a hypothesis locks, then orbit
the hypothesis; a reset sends the vehicle back to sweeping. Cones are
sampled in the world frame at the vehicle position, so the loop builds
no heading or orientation; each variate is one scalar draw from the run's
Generator in a fixed order, so the seed fixes every cone. The sampler and
the loop are straight-line float arithmetic, and each step is logged as
the row of cells steps.csv writes for it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import MalformedInputError
from .estimator import Action, NoiseConfig, SessionStats, SourceEstimator
from .geometry import Cone, Vec3, _world_cone, cross, perpendicular_unit, unit, vec3

log = logging.getLogger(__name__)

# cones * m^2 / (s * Bq): a 3 GBq source seen from 10 m yields the
# reference 1.7 cones/s operating point
CONE_RATE_CONSTANT = 1.7 * 10.0 ** 2 / 3.0e9
# range of the sampled scattering angle in rad, uniform within it
MIN_THETA = 0.2
MAX_THETA = 1.4

_TWO_PI = 2.0 * math.pi
# a step row's action names, looked up once per step
_NAMES = {None: "none", **{a: a.value for a in Action}}
# the actions each ingest is compared with, looked up once
_CORRECTED, _RESET = Action.CORRECTED, Action.RESET


class Program(Enum):
    """Flight program: closed-loop search, or open-loop degenerate motions."""

    SEARCH = "search"
    STATIONARY = "stationary"
    RADIAL = "radial"


@dataclass
class DetectorModel:
    """Parametric surrogate for the physics detector chain."""

    angular_sigma: float = 0.0  # rad, half-angle measurement noise
    axis_sigma: float = 0.0  # rad, axis direction noise
    background_rate: float = 0.0  # spurious cones / s

    def __post_init__(self) -> None:
        rate_and_sigmas = (self.background_rate, self.angular_sigma, self.axis_sigma)
        if not all(0.0 <= v < math.inf for v in rate_and_sigmas):  # written so that NaN fails
            raise MalformedInputError("rates and noise sigmas must be finite and nonnegative")


@dataclass
class Scenario:
    """Full simulation configuration; deterministic given the seed."""

    source_initial: Vec3 = (0.0, 0.0, 0.0)
    source_velocity: Vec3 = (0.0, 0.0, 0.0)
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
    uav_start: Vec3 | None = None
    estimator: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self) -> None:
        self.source_initial = vec3(self.source_initial)
        self.source_velocity = vec3(self.source_velocity)
        if self.uav_start is not None:
            self.uav_start = vec3(self.uav_start)
        points = [p for p in (self.source_initial, self.source_velocity, self.uav_start) if p is not None]
        scalars = [self.activity, self.uav_speed, self.orbit_radius, self.flight_altitude, self.duration]
        if not all(map(math.isfinite, [c for p in points for c in p] + scalars + [self.timestep, *self.area])):
            raise MalformedInputError("scenario values must be finite")
        if not (self.activity > 0 and self.orbit_radius > 0 and self.timestep > 0 and min(self.area) > 0):
            raise MalformedInputError("activity, orbit radius, timestep and area sides must be positive")
        if not (self.uav_speed >= 0 and self.duration >= 0 and self.seed >= 0):
            raise MalformedInputError("speed, duration and seed must be nonnegative")
        self.program = Program(self.program)


@dataclass
class SimulationReport:
    seed: int
    duration: float
    # per step the cells of its steps.csv row, in STEPS_HEADER order: t, truth,
    # estimate, error (those four NaN while no hypothesis exists), phase, action
    steps: list[tuple] = field(default_factory=list)
    transitions: list[tuple[float, str]] = field(default_factory=list)
    corrections: list[tuple[float, int, float, float]] = field(default_factory=list)
    cones_source: int = 0
    cones_background: int = 0
    stats: SessionStats = field(default_factory=SessionStats)
    init_time: float | None = None  # first lock


def _chord_step(speed: float, timestep: float, radius: float) -> float:
    """Azimuth increment whose chord length equals speed * timestep."""
    return 2.0 * math.asin(min(1.0, speed * timestep / (2.0 * radius)))


def _random_unit(rng: np.random.Generator) -> Vec3:
    while True:
        x, y, z = rng.normal(size=3).tolist()
        n = math.hypot(x, y, z)
        if n >= 1e-12:
            return x / n, y / n, z / n


def _about_perpendicular(v: Vec3, w0: Vec3, w1: Vec3, psi: float, angle: float) -> Vec3:
    """v rotated by angle about its unit perpendicular cos(psi) w0 + sin(psi) w1, w0 being
    perpendicular_unit(v) and w1 = v x w0, by Rodrigues' formula (right-hand rule)."""
    (v0, v1, v2), (a0, a1, a2), (b0, b1, b2) = v, w0, w1
    c, s = math.cos(psi), math.sin(psi)
    k0, k1, k2 = unit((c * a0 + s * b0, c * a1 + s * b1, c * a2 + s * b2))
    c, s = math.cos(angle), math.sin(angle)
    dot, f = k0 * v0 + k1 * v1 + k2 * v2, 1.0 - c
    return (
        v0 * c + (k1 * v2 - k2 * v1) * s + k0 * dot * f,
        v1 * c + (k2 * v0 - k0 * v2) * s + k1 * dot * f,
        v2 * c + (k0 * v1 - k1 * v0) * s + k2 * dot * f,
    )


def sample_cones(source, apex: Vec3, t: float, model: DetectorModel, activity: float, dt: float,
                 rng: np.random.Generator) -> tuple[list[Cone], list[Cone]]:
    """Source-driven and background cones for one timestep at apex and time t, in that order."""
    (s0, s1, s2), (a0, a1, a2) = map(float, source), map(float, apex)
    o0, o1, o2 = s0 - a0, s1 - a1, s2 - a2
    dist2 = o0 * o0 + o1 * o1 + o2 * o2
    if dist2 < 1e-12:
        raise MalformedInputError("source coincides with the detector")
    lam = CONE_RATE_CONSTANT * activity / dist2

    # numpy draws uniform(lo, hi) as lo + (hi - lo) * random() and
    # normal(0, sigma) as 0 + sigma * standard_normal(), so these are the
    # same floats from the same stream, without the per-call overhead
    lo, span, random = MIN_THETA, MAX_THETA - MIN_THETA, rng.random
    apex = a0, a1, a2
    source_cones: list[Cone] = []
    count = rng.poisson(lam * dt)
    if count:  # what the step's cones share: true_dir, its perpendicular pair w0, w1 and the bound calls
        d = math.sqrt(dist2)
        true_dir = d0, d1, d2 = o0 / d, o1 / d, o2 / d
        p0, p1, p2 = perpendicular_unit(true_dir)
        q0, q1, q2 = d1 * p2 - d2 * p1, d2 * p0 - d0 * p2, d0 * p1 - d1 * p0  # w1 = cross(true_dir, w0)
        standard_normal, cos, sin, hypot = rng.standard_normal, math.cos, math.sin, math.hypot
        axis_sigma, angular_sigma = model.axis_sigma, model.angular_sigma
    for _ in range(count):
        # _about_perpendicular(true_dir, w0, w1, psi, theta), its unit call and the final
        # unit(axis), written out in the same operations: the same floats without the calls
        theta = lo + span * random()
        psi = _TWO_PI * random()
        c, s = cos(psi), sin(psi)
        k0, k1, k2 = c * p0 + s * q0, c * p1 + s * q1, c * p2 + s * q2
        n = hypot(k0, k1, k2)
        k0, k1, k2 = k0 / n, k1 / n, k2 / n
        c, s = cos(theta), sin(theta)
        dot, f = k0 * d0 + k1 * d1 + k2 * d2, 1.0 - c
        x = d0 * c + (k1 * d2 - k2 * d1) * s + k0 * dot * f
        y = d1 * c + (k2 * d0 - k0 * d2) * s + k1 * dot * f
        z = d2 * c + (k0 * d1 - k1 * d0) * s + k2 * dot * f
        if axis_sigma > 0.0:
            tilt = float(rng.normal(0.0, axis_sigma))
            axis = x, y, z
            w = perpendicular_unit(axis)
            x, y, z = _about_perpendicular(axis, w, cross(axis, w), _TWO_PI * random(), tilt)
        half_angle = theta
        if angular_sigma > 0.0:
            half_angle = min(max(theta + angular_sigma * standard_normal(), 1e-3), math.pi - 1e-3)
        n = hypot(x, y, z)
        source_cones.append(_world_cone(apex, (x / n, y / n, z / n), half_angle, t))

    background: list[Cone] = []
    # poisson(0) is 0 without a draw, so skipping the call leaves the stream as it was
    n_background = rng.poisson(model.background_rate * dt) if model.background_rate > 0.0 else 0
    for _ in range(n_background):
        axis = _random_unit(rng)
        theta = lo + span * random()
        background.append(_world_cone(apex, axis, theta, t))
    return source_cones, background


def _default_start(scenario: Scenario) -> Vec3:
    alt = scenario.flight_altitude
    x, y, z = scenario.source_initial
    if scenario.program is Program.STATIONARY:
        return x + 10.0, y, z + alt
    if scenario.program is Program.RADIAL:
        return x + 30.0, y, z + alt
    sweep_radius = min(scenario.area) / 2.0
    return sweep_radius, 0.0, alt


def _approach(position: Vec3, target: Vec3, step: float) -> Vec3:
    """A step of at most `step` straight toward target, held at a standoff."""
    offset = [a - b for a, b in zip(target, position)]
    dist = math.hypot(*offset)
    standoff = 1.5  # keep a residual range so the rate stays finite
    if dist <= standoff:
        return position
    step = min(step, dist - standoff)
    return tuple(p + o / dist * step for p, o in zip(position, offset))


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Advance the closed loop scenario and log every step.

    Per step: move the source along its exact linear kinematics, sample
    cones at the current pose, feed them through the estimator, apply the
    strategy transitions, then fly the vehicle one step further.
    """
    rng = np.random.default_rng(scenario.seed)
    session = SourceEstimator(scenario.estimator)
    report = SimulationReport(scenario.seed, scenario.duration, stats=session.stats)

    dt, speed, alt = scenario.timestep, scenario.uav_speed, scenario.flight_altitude
    sweep_center, sweep_radius = (0.0, 0.0, alt), min(scenario.area) / 2.0
    position = scenario.uav_start if scenario.uav_start is not None else _default_start(scenario)
    search = scenario.program is Program.SEARCH
    moving = not (speed == 0.0 or scenario.program is Program.STATIONARY)
    # the azimuth step of each circle, whose radius is fixed for the run
    sweep_step = _chord_step(speed, dt, sweep_radius)
    orbit_step = _chord_step(speed, dt, scenario.orbit_radius)
    orbiting = False
    azimuth = math.atan2(position[1] - sweep_center[1], position[0] - sweep_center[0])

    (s0, s1, s2), (v0, v1, v2) = scenario.source_initial, scenario.source_velocity
    detector, activity, stats, nan = scenario.detector, scenario.activity, session.stats, math.nan
    steps, corrections, transitions = report.steps, report.corrections, report.transitions
    n_source = n_background = 0
    init_time = None
    phase = "sweep" if search else scenario.program.value
    n_steps = int(round(scenario.duration / dt))
    for k in range(n_steps):
        t = k * dt
        truth = s0 + t * v0, s1 + t * v1, s2 + t * v2
        p0, p1, p2 = position
        # a finite sum proves every entry finite; one that is not is settled entry by entry
        if not math.isfinite(p0 + p1 + p2) and not all(map(math.isfinite, position)):
            raise MalformedInputError(f"pose position must be finite, got {position!r}")

        src, bg = sample_cones(truth, position, t, detector, activity, dt, rng)
        n_source += len(src)
        n_background += len(bg)

        action = None
        for cone in src + bg:
            state, action = session.ingest(cone)
            if action is _CORRECTED:
                x = state.x
                corrections.append((t, stats.accepted, math.dist(x, truth), math.dist(x[:2], truth[:2])))
            elif action is _RESET:
                log.info("reset at t=%.1f", t)

        tracking = session.state is not None
        if init_time is None:  # the first lock; session.init_time moves on every lock
            init_time = session.init_time

        # strategy reacts only to estimator status changes: a lock starts
        # the orbit around the hypothesis, a reset the sweep again
        if search and tracking != orbiting:
            orbiting = tracking
            center = session.state.x if orbiting else sweep_center
            azimuth = math.atan2(position[1] - center[1], position[0] - center[0])
            phase = "orbit" if orbiting else "sweep"
            transitions.append((t, phase))

        if tracking:
            x = session.state.x
            steps.append((t, *truth, *x, math.dist(x, truth), phase, _NAMES[action]))
        else:
            steps.append((t, *truth, nan, nan, nan, nan, phase, _NAMES[action]))

        if not moving:
            continue
        if not search:
            position = _approach(position, (*scenario.source_initial[:2], alt), speed * dt)
            continue
        # the orbit follows the live hypothesis so a moving source stays encircled
        if orbiting:
            center, radius, step = session.state.x, scenario.orbit_radius, orbit_step
        else:
            center, radius, step = sweep_center, sweep_radius, sweep_step
        azimuth += step
        position = center[0] + radius * math.cos(azimuth), center[1] + radius * math.sin(azimuth), alt

    report.cones_source, report.cones_background, report.init_time = n_source, n_background, init_time
    return report


def metrics(report: SimulationReport) -> dict:
    """Summary statistics of one simulation run."""
    # a step row's cells: t, truth 1-3, estimate 4-6 and error 7, phase, action
    tracked = [s for s in report.steps if not math.isnan(s[4])]
    post_lock_errors = np.array([s[7] for s in tracked])
    planar = np.array([math.dist(s[4:6], s[1:3]) for s in tracked])
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
    "MAX_THETA",
    "MIN_THETA",
    "Program",
    "Scenario",
    "SimulationReport",
    "metrics",
    "run_scenario",
    "sample_cones",
]
