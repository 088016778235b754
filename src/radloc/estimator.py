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
        # each check reads "not (valid)", so a NaN fails it
        if not (0.0 < self.r < self.far_variance < math.inf and 0.0 < self.init_variance < math.inf):
            raise MalformedInputError("need 0 < r < far_variance < inf and 0 < init_variance < inf")
        if not all(0.0 <= v < math.inf for v in (self.q, self.min_origin_separation, self.init_bounds_margin)):
            raise MalformedInputError("q, min_origin_separation and init_bounds_margin must be finite and >= 0")
        if not (self.outlier_gate > 0.0 and self.init_cost_gate > 0.0 and self.degeneracy_threshold >= 1.0):
            raise MalformedInputError("need outlier_gate > 0, init_cost_gate > 0 and degeneracy_threshold >= 1")
        if not (self.init_cone_count >= 3 and self.fallback_factor >= 1 and self.reset_run_length >= 0):
            raise MalformedInputError("need init_cone_count >= 3, fallback_factor >= 1, reset_run_length >= 0")
        if not (self.init_multistart >= 1 and self.init_max_iterations >= 1):
            raise MalformedInputError("need init_multistart >= 1 and init_max_iterations >= 1")


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
    """Source hypothesis x (m) with covariance omega (m^2), and its lifecycle.

    Every state is checked on construction, the filter's own included:
    x and omega are finite, omega is symmetric to 1e-12 and positive
    definite (every LDL^T pivot > 0). A failure raises MalformedInputError.
    """

    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.eye(3))
    mode: Mode = Mode.THREE_D
    consecutive_outliers: int = 0
    status: Status = Status.COLLECTING

    def __post_init__(self) -> None:
        # checked on floats: eigvalsh and numpy comparisons cost several times more
        self.x = np.array(self.x, dtype=float).reshape(3)
        self.omega = np.array(self.omega, dtype=float).reshape(3, 3)
        o00, o01, o02, o10, o11, o12, o20, o21, o22 = flat = self.omega.ravel().tolist()
        if not all(map(math.isfinite, self.x.tolist() + flat)):
            raise MalformedInputError("state must be finite")
        if not max(abs(o01 - o10), abs(o02 - o20), abs(o12 - o21)) <= 1e-12:
            raise MalformedInputError("covariance must be symmetric")
        if _ldl(o00, o01, o02, o11, o12, o22) is None:
            raise MalformedInputError("covariance must be positive definite")
        self.mode = Mode(self.mode)


def _ldl(s00: float, s01: float, s02: float, s11: float, s12: float, s22: float):
    """S = L D L^T of a symmetric 3x3 S given by its upper triangle, as (e0, e1, e2, l10, l20,
    l21); None unless every pivot e is positive, which is when S is positive definite."""
    if not s00 > 0.0:
        return None
    l10, l20 = s01 / s00, s02 / s00
    e1 = s11 - l10 * s01
    if not e1 > 0.0:
        return None
    l21 = (s12 - l20 * s01) / e1
    e2 = s22 - l20 * s02 - l21 * l21 * e1
    return (s00, e1, e2, l10, l20, l21) if e2 > 0.0 else None


def _ldl_solve(factor, b0: float, b1: float, b2: float) -> tuple[float, float, float]:
    """S^-1 b from _ldl's factor of S."""
    e0, e1, e2, l10, l20, l21 = factor
    z1 = b1 - l10 * b0
    y2 = (b2 - l20 * b0 - l21 * z1) / e2
    y1 = z1 / e1 - l21 * y2
    return b0 / e0 - l10 * y1 - l20 * y2, y1, y2


def predict(state: FilterState, config: NoiseConfig) -> FilterState:
    """Identity-motion prediction: position kept, covariance inflated by q."""
    if state.status is not Status.TRACKING:
        raise FilterLifecycleError("predict requires an initialized (tracking) state")
    omega = state.omega + config.q * _IDENTITY
    return FilterState(state.x, omega, state.mode, state.consecutive_outliers, state.status)


def correct(state: FilterState, cone: Cone, config: NoiseConfig) -> FilterState:
    """One gated Kalman correction toward the cone surface.

    The innovation nu points from the hypothesis to its projection on the
    cone, along n; one LDL^T factorization of S = omega + far (I - n n^T)
    + r n n^T gives both d2 = nu^T S^-1 nu and the gain. A hypothesis
    already on the surface takes the surface normal as n; at the apex or
    on the axis there is no usable direction and nothing to update. A cone
    whose d2 exceeds outlier_gate is gated: an innovation exactly at the
    gate is accepted. Accepted measurements (including zero-innovation
    ones, which update only the covariance along the surface normal) reset
    the outlier run; gated ones increment it and leave the state untouched
    otherwise. Ground-plane mode re-pins z to 0 and restores the prior z
    variance so the flattening never fakes confidence in altitude.
    """
    if state.status is not Status.TRACKING:
        raise FilterLifecycleError("correct requires an initialized (tracking) state")
    if cone.frame is not Frame.WORLD:
        raise MalformedInputError("corrections expect world-frame cones")

    # on floats: each numpy call on a 3x3 array costs more than its arithmetic
    res = project_to_cone(state.x, cone)
    (x0, x1, x2), (p0, p1, p2) = state.x.tolist(), res.point.tolist()
    v0, v1, v2 = p0 - x0, p1 - x1, p2 - x2
    n = math.hypot(v0, v1, v2)
    if n > 1e-12 * max(1.0, math.hypot(x0, x1, x2)):
        d0, d1, d2 = v0 / n, v1 / n, v2 / n
    elif res.case is ProjectionCase.SURFACE:
        try:
            d0, d1, d2 = surface_normal(res.point, cone).tolist()
        except ValueError:
            return replace(state, consecutive_outliers=0)
    else:
        return replace(state, consecutive_outliers=0)
    # along = n n^T / n^T n and P = I - along; each diagonal entry of P is
    # a sum of the other two squares, so no entry cancels
    r, far = config.r, config.far_variance
    nn = d0 * d0 + d1 * d1 + d2 * d2
    a00, a11, a22 = d0 * d0 / nn, d1 * d1 / nn, d2 * d2 / nn
    a01, a02, a12 = d0 * d1 / nn, d0 * d2 / nn, d1 * d2 / nn
    c00, c11, c22 = (d1 * d1 + d2 * d2) / nn, (d0 * d0 + d2 * d2) / nn, (d0 * d0 + d1 * d1) / nn
    omega = state.omega.tolist()
    (o00, o01, o02), (_, o11, o12), (_, _, o22) = omega
    factor = _ldl(  # of S = omega + far P + r along
        o00 + far * c00 + r * a00, o01 - far * a01 + r * a01, o02 - far * a02 + r * a02,
        o11 + far * c11 + r * a11, o12 - far * a12 + r * a12, o22 + far * c22 + r * a22,
    )
    if factor is None:
        raise MalformedInputError("innovation covariance not definite in floats: far_variance / r too large")
    y0, y1, y2 = _ldl_solve(factor, v0, v1, v2)
    if v0 * y0 + v1 * y1 + v2 * y2 > config.outlier_gate:
        return replace(state, consecutive_outliers=state.consecutive_outliers + 1)

    # x moves by K nu = omega S^-1 nu. K = omega S^-1 is solved row by row
    # (omega is symmetric), then the Joseph form with K R K^T = r (K n)(K n)^T
    # + far (K P)(K P)^T, so no far_variance-sized terms are formed to cancel.
    x_new = [xi + o0 * y0 + o1 * y1 + o2 * y2 for xi, (o0, o1, o2) in zip((x0, x1, x2), omega)]
    gain = [_ldl_solve(factor, *row) for row in omega]
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = gain
    kn = [k0 * d0 + k1 * d1 + k2 * d2 for k0, k1, k2 in gain]
    ik = (1.0 - k00, -k01, -k02), (-k10, 1.0 - k11, -k12), (-k20, -k21, 1.0 - k22)
    kp = _mul(gain, ((c00, -a01, -a02), (-a01, c11, -a12), (-a02, -a12, c22)))
    j, f = _mul(_mul(ik, omega), ik), _mul(kp, kp)
    # each entry of the new omega is written once, so it is symmetric
    (w00, w01, w02), (w11, w12), (w22,) = [
        [j[i][k] + r * kn[i] * kn[k] + far * f[i][k] for k in range(i, 3)] for i in range(3)
    ]
    if state.mode is Mode.TWO_D:
        x_new[2], w02, w12, w22 = 0.0, 0.0, 0.0, o22
    omega_new = [[w00, w01, w02], [w01, w11, w12], [w02, w12, w22]]
    return FilterState(np.array(x_new), np.array(omega_new), state.mode, 0, Status.TRACKING)


def _mul(a, b_t) -> list[list[float]]:
    """a @ b for 3x3 nested sequences, b given by its columns."""
    return [[a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in b_t] for a0, a1, a2 in a]


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
