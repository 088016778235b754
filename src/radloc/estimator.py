"""Source-position Kalman filter with cone-surface projection corrections.

The state is the hypothesized source position with its covariance. The
motion model is identity (stationary target plus process noise); each
measurement is a cone, turned into a pseudo-measurement by projecting
the hypothesis onto the cone surface. The measurement covariance is
anisotropic: informative along the correction direction, effectively
uninformative across it. A session object handles the lifecycle:
collect cones, initialize by constrained least squares, track, and
reset after a run of gated outliers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .cones import ProjectionCase, project_to_cone, surface_normal
from .errors import FilterLifecycleError, InfeasibleInitError, MalformedInputError
from .geometry import Cone, Frame
from .initializer import BOUNDS_MARGIN, InitProblem, InitSolution, Mode, default_bounds, solve

log = logging.getLogger(__name__)

_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


class Status(Enum):
    COLLECTING = "collecting"
    TRACKING = "tracking"


class Action(Enum):
    """What ingesting one cone did to the session."""

    BUFFERED = "buffered"
    CORRECTED = "corrected"
    REJECTED = "rejected"
    RESET = "reset"


@dataclass
class NoiseConfig:
    """Filter and initialization tuning knobs; the one place their defaults live.

    r is the measurement variance (m^2) along the correction direction,
    far_variance the variance across it, in the two directions the cone
    says nothing about. q is per-prediction process noise (m^2) that lets
    the stationary-target model follow a slowly moving source. A cone
    whose squared Mahalanobis innovation exceeds outlier_gate is rejected;
    one more rejection than reset_run_length in a row resets the
    hypothesis, and with reseed_rejected the rejected run seeds the new
    buffer.

    Initialization solves on init_cone_count cones whose origins lie
    pairwise more than min_origin_separation m apart, and starts the
    filter with variance init_variance (m^2) on each axis. If the buffer
    reaches fallback_factor * init_cone_count cones with no such subset,
    the freshest init_cone_count cones are solved anyway, so degenerate
    geometry is reported. The solve searches the apices' box inflated by
    init_bounds_margin m, from init_multistart starts of at most
    init_max_iterations iterations each; it is degenerate (direction
    only) when the normal matrix's condition number exceeds
    degeneracy_threshold, and inconsistent when its cost exceeds
    init_cost_gate * init_cone_count * r.
    """

    r: float = 1.0
    far_variance: float = 1e9
    q: float = 0.01
    outlier_gate: float = 9.0
    init_cone_count: int = 5
    min_origin_separation: float = 0.5
    init_variance: float = 100.0
    reseed_rejected: bool = True
    reset_run_length: int = 3
    init_multistart: int = InitProblem.multistart_count
    init_bounds_margin: float = BOUNDS_MARGIN
    fallback_factor: int = 3
    degeneracy_threshold: float = InitProblem.degeneracy_threshold
    init_max_iterations: int = InitProblem.max_iterations
    init_cost_gate: float = 3.0

    def __post_init__(self) -> None:
        if self.r <= 0.0 or self.far_variance <= self.r:
            raise MalformedInputError("need 0 < r < far_variance")
        if self.q < 0.0 or self.outlier_gate <= 0.0:
            raise MalformedInputError("q must be >= 0 and outlier_gate > 0")
        if self.init_cone_count < 3:
            raise MalformedInputError("init_cone_count must be >= 3")
        if self.init_cost_gate <= 0.0:
            raise MalformedInputError("init_cost_gate must be positive")


@dataclass
class SessionStats:
    """One session's counters, spread into summary.json as they are.

    Corrections taken and gated, hypotheses reset, and failed
    initialization attempts by reason.
    """

    accepted: int = 0
    rejected: int = 0
    resets: int = 0
    degenerate_solves: int = 0
    infeasible_solves: int = 0
    inconsistent_solves: int = 0


@dataclass
class FilterState:
    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.eye(3))
    mode: Mode = Mode.THREE_D
    consecutive_outliers: int = 0
    status: Status = Status.COLLECTING

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float).reshape(3).copy()
        omega = np.asarray(self.omega, dtype=float).reshape(3, 3).copy()
        if float(np.max(np.abs(omega - omega.T))) > 1e-12:
            raise MalformedInputError("covariance must be symmetric")
        if float(np.min(np.linalg.eigvalsh(omega))) <= 0.0:
            raise MalformedInputError("covariance must be positive definite")
        self.omega = omega
        self.mode = Mode(self.mode)


def predict(state: FilterState, config: NoiseConfig) -> FilterState:
    """Identity-motion prediction: position kept, covariance inflated by q."""
    if state.status is not Status.TRACKING:
        raise FilterLifecycleError("predict requires an initialized (tracking) state")
    omega = state.omega + config.q * _IDENTITY
    return FilterState(state.x, omega, state.mode, state.consecutive_outliers, state.status)


def _projectors(direction: np.ndarray) -> np.ndarray:
    """n n^T / n^T n and I minus it, stacked: symmetric, and no entry cancels."""
    x, y, z = direction.tolist()
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    flat = [xx, xy, xz, xy, yy, yz, xz, yz, zz, yy + zz, -xy, -xz, -xy, xx + zz, -yz, -xz, -yz, xx + yy]
    return np.array(flat).reshape(2, 3, 3) / (xx + yy + zz)


def correct(state: FilterState, cone: Cone, config: NoiseConfig) -> FilterState:
    """One gated Kalman correction toward the cone surface.

    The innovation nu points from the hypothesis to its projection on the
    cone, along n; one solve of S = omega + far (I - n n^T) + r n n^T
    gives both d2 = nu^T S^-1 nu and the gain. A hypothesis already on the
    surface takes the surface normal as n; at the apex or on the axis
    there is no usable direction and nothing to update. A cone whose d2
    exceeds outlier_gate is gated: an innovation exactly at the gate is
    accepted. Accepted measurements (including zero-innovation ones,
    which update only the covariance along the surface normal) reset the
    outlier run; gated ones increment it and leave the state untouched
    otherwise. Ground-plane mode re-pins z to 0 and restores the prior z
    variance so the flattening never fakes confidence in altitude.
    """
    if state.status is not Status.TRACKING:
        raise FilterLifecycleError("correct requires an initialized (tracking) state")
    if cone.frame is not Frame.WORLD:
        raise MalformedInputError("corrections expect world-frame cones")

    res = project_to_cone(state.x, cone)
    nu = res.point - state.x
    n = math.hypot(*nu.tolist())
    if n > 1e-12 * max(1.0, math.hypot(*state.x.tolist())):
        direction = nu / n
    elif res.case is ProjectionCase.SURFACE:
        try:
            direction = surface_normal(res.point, cone)
        except ValueError:
            return replace(state, consecutive_outliers=0)
    else:
        return replace(state, consecutive_outliers=0)
    along, across = _projectors(direction)
    s_mat = state.omega + config.far_variance * across + config.r * along
    solved = np.linalg.solve(s_mat, np.concatenate((nu[:, None], state.omega), axis=1))
    if float(nu @ solved[:, 0]) > config.outlier_gate:
        return replace(state, consecutive_outliers=state.consecutive_outliers + 1)

    gain = solved[:, 1:].T  # omega S^-1
    x_new = state.x + gain @ nu
    ik = _IDENTITY - gain
    # Joseph form, with K R K^T = r (K n)(K n)^T + far (K P)(K P)^T for
    # P = I - n n^T: no far_variance-sized terms are formed to cancel
    kn = gain @ direction
    kp = gain @ across
    omega_new = ik @ state.omega @ ik.T + config.r * (kn[:, None] * kn)
    omega_new += config.far_variance * (kp @ kp.T)
    omega_new = 0.5 * (omega_new + omega_new.T)

    if state.mode is Mode.TWO_D:
        prior_zz = state.omega[2, 2]
        x_new[2] = 0.0
        omega_new[2, :] = 0.0
        omega_new[:, 2] = 0.0
        omega_new[2, 2] = prior_zz

    return FilterState(x_new, omega_new, state.mode, 0, Status.TRACKING)


class SourceEstimator:
    """One estimation session: buffer, initialize, track, reset.

    Feed world-frame cones in timestamp order through ingest(); the
    session reports what it did with each one. Initialization waits for
    init_cone_count cones whose origins are pairwise separated; if the
    platform never moves enough, a fallback solve on the most recent
    cones runs anyway so degenerate geometry gets reported instead of
    stalling silently.
    """

    def __init__(self, config: NoiseConfig | None = None, mode: Mode = Mode.THREE_D):
        self.config = config if config is not None else NoiseConfig()
        self.mode = Mode(mode)
        self.state = FilterState(mode=self.mode)
        self.buffer: list[Cone] = []
        self._rejected_run: list[Cone] = []
        self.last_solution: InitSolution | None = None
        self.stats = SessionStats()
        self.init_time: float | None = None

    def ingest(self, cone: Cone) -> tuple[FilterState, Action]:
        if cone.frame is not Frame.WORLD:
            raise MalformedInputError("ingest expects world-frame cones")
        if self.state.status is Status.COLLECTING:
            self.buffer.append(cone)
            trigger = self._separated_subset()
            if trigger is None and len(self.buffer) >= self.config.fallback_factor * self.config.init_cone_count:
                # stuck buffer: solve on the freshest cones so degenerate
                # geometry (hovering, radial approach) surfaces in the report
                trigger = self.buffer[-self.config.init_cone_count :]
            if trigger is not None:
                self._try_initialize(trigger, cone.timestamp)
            return self.state, Action.BUFFERED

        self.state = predict(self.state, self.config)
        before = self.state.consecutive_outliers
        self.state = correct(self.state, cone, self.config)
        if self.state.consecutive_outliers > before:
            self.stats.rejected += 1
            self._rejected_run.append(cone)
            if self.state.consecutive_outliers > self.config.reset_run_length:
                return self._reset()
            return self.state, Action.REJECTED
        self.stats.accepted += 1
        self._rejected_run.clear()
        return self.state, Action.CORRECTED

    def _reset(self) -> tuple[FilterState, Action]:
        self.stats.resets += 1
        seed = list(self._rejected_run[-(self.config.reset_run_length + 1) :])
        self._rejected_run.clear()
        self.buffer = seed if self.config.reseed_rejected else []
        self.state = FilterState(mode=self.mode)
        log.info("hypothesis reset; reseeding buffer with %d cones", len(self.buffer))
        return self.state, Action.RESET

    def _separated_subset(self) -> list[Cone] | None:
        """Earliest arrival-order subset with pairwise separated origins."""
        kept: list[Cone] = []
        min_sep = self.config.min_origin_separation
        for cone in self.buffer:
            if all(float(np.linalg.norm(cone.origin - k.origin)) > min_sep for k in kept):
                kept.append(cone)
                if len(kept) == self.config.init_cone_count:
                    return kept
        return None

    def _try_initialize(self, cones: list[Cone], timestamp: float) -> bool:
        problem = InitProblem(
            list(cones),
            mode=self.mode,
            bounds=default_bounds(cones, self.config.init_bounds_margin),
            multistart_count=self.config.init_multistart,
            degeneracy_threshold=self.config.degeneracy_threshold,
            max_iterations=self.config.init_max_iterations,
        )
        try:
            solution = solve(problem)
        except InfeasibleInitError:
            self.stats.infeasible_solves += 1
            log.debug("initialization infeasible at t=%.3f", timestamp)
            return False
        self.last_solution = solution
        if solution.degenerate:
            self.stats.degenerate_solves += 1
            log.debug(
                "degenerate initialization (condition %.3g) at t=%.3f",
                solution.condition,
                timestamp,
            )
            return False
        # consistency gate: geometrically lucky but mutually inconsistent
        # cones (pure background) leave a large best-fit residual
        if solution.cost > self.config.init_cost_gate * len(cones) * self.config.r:
            self.stats.inconsistent_solves += 1
            log.debug(
                "inconsistent initialization (cost %.3g) at t=%.3f", solution.cost, timestamp
            )
            return False
        self.state = FilterState(
            solution.p,
            self.config.init_variance * np.eye(3),
            self.mode,
            0,
            Status.TRACKING,
        )
        self.buffer = []
        self.init_time = timestamp
        log.info("initialized at t=%.3f, p=%s", timestamp, np.round(solution.p, 3))
        return True


__all__ = [
    "Action",
    "FilterState",
    "NoiseConfig",
    "SessionStats",
    "SourceEstimator",
    "Status",
    "correct",
    "predict",
]
