"""Source-position Kalman filter with cone-surface projection corrections.

The state is the hypothesized source position with its covariance. The
motion model is identity (stationary target plus process noise); each
measurement is a cone, turned into a pseudo-measurement by projecting
the hypothesis onto the cone surface. The measurement covariance is
anisotropic: informative along the correction direction, effectively
uninformative across it. A session object handles the lifecycle:
collect cones, initialize by constrained least squares, track, and
reset after a run of gated outliers. The session has a filter state
only while tracking.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .cones import ProjectionCase, project_to_cone, surface_normal
from .errors import InfeasibleInitError, MalformedInputError
from .geometry import Cone, Frame, Vec3, vec3
from .initializer import InitProblem, InitSolution, Mode, solve

log = logging.getLogger(__name__)


class Action(Enum):
    """What ingesting one cone did to the session."""

    BUFFERED = "buffered"
    CORRECTED = "corrected"
    REJECTED = "rejected"
    RESET = "reset"


# members the tracking path reads, looked up once: an enum member lookup
# costs about 0.1 us, as much as a few float operations
_WORLD, _SURFACE, _TWO_D = Frame.WORLD, ProjectionCase.SURFACE, Mode.TWO_D
_CORRECTED, _REJECTED = Action.CORRECTED, Action.REJECTED


# Fixed session rules, explained in NoiseConfig's docstring
MIN_ORIGIN_SEPARATION = 0.5  # m
RESET_RUN_LENGTH = 3
FALLBACK_FACTOR = 3
INIT_COST_GATE = 3.0


@dataclass
class NoiseConfig:
    """Filter and initialization tuning knobs; the one place their names and defaults live.

    Each field has one name: the Python keyword, the key in a scenario's
    estimator section and the dest of its estimate flag, if it has one.
    mode is the estimation space: free 3D, or the ground plane, where
    every correction re-pins z to 0. r is the measurement variance (m^2)
    along the correction direction, far_variance the variance across it,
    in the two directions the cone says nothing about. q is
    per-prediction process noise (m^2) that lets the stationary-target
    model follow a slowly moving source. A cone whose squared
    Mahalanobis innovation exceeds gate is rejected; RESET_RUN_LENGTH + 1
    (4) rejections in a row reset the hypothesis, and the rejected run
    is the new buffer.

    Initialization solves on init_count cones whose origins lie pairwise
    more than MIN_ORIGIN_SEPARATION (0.5 m) apart, and starts the filter
    with variance init_variance (m^2) on each axis. If the buffer reaches
    FALLBACK_FACTOR (3) * init_count cones with no such subset, the
    freshest init_count cones are solved anyway, so degenerate geometry
    is reported. The solve searches the apices' box inflated by
    initializer.BOUNDS_MARGIN (200 m), from multistart starts of at most
    max_iterations iterations each; it is degenerate (direction only)
    when the normal matrix's condition number exceeds
    initializer.DEGENERACY_THRESHOLD (1e6), and inconsistent when its
    cost exceeds INIT_COST_GATE (3.0) * init_count * r.
    """

    mode: Mode = Mode.THREE_D
    r: float = 1.0
    far_variance: float = 1e9
    q: float = 0.01
    gate: float = 9.0
    init_count: int = 5
    init_variance: float = 100.0
    multistart: int = InitProblem.multistart
    max_iterations: int = InitProblem.max_iterations

    def __post_init__(self) -> None:
        # each check reads "not (valid)", so a NaN fails it
        if not (0.0 < self.r < self.far_variance < math.inf and 0.0 < self.init_variance < math.inf):
            raise MalformedInputError("need 0 < r < far_variance < inf and 0 < init_variance < inf")
        if not (0.0 <= self.q < math.inf and self.gate > 0.0):
            raise MalformedInputError("need 0 <= q < inf and gate > 0")
        if not (self.init_count >= 3 and self.multistart >= 1 and self.max_iterations >= 1):
            raise MalformedInputError("need init_count >= 3, multistart >= 1 and max_iterations >= 1")
        self.mode = Mode(self.mode)


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
    """Source hypothesis x (m) with covariance omega (m^2).

    x is a tuple of three floats and omega the tuple of the covariance's
    six upper entries (xx, xy, xz, yy, yz, zz), the order of _ldl's
    arguments and of estimates.csv's columns, whatever sequences they were
    given as. Every state is checked: x and omega finite and omega
    positive definite (every LDL^T pivot > 0), or MalformedInputError.
    predict and correct run the checks on the floats they computed,
    without converting them again; a correct that returns its input state
    returns it as it is.
    """

    x: Vec3
    omega: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        self.x, self.omega = vec3(self.x), tuple(map(float, self.omega))
        _check(self.x, self.omega)


def _check(x: Vec3, omega: tuple[float, ...]) -> None:
    """FilterState's checks of x and omega, given as tuples of floats."""
    (x0, x1, x2), (o00, o01, o02, o11, o12, o22) = x, omega
    # a finite sum proves every entry finite; one that is not (an entry
    # infinite or NaN, or finite entries summing past the float range)
    # is settled entry by entry
    if not math.isfinite(x0 + x1 + x2 + o00 + o01 + o02 + o11 + o12 + o22) and not all(
        map(math.isfinite, (x0, x1, x2, o00, o01, o02, o11, o12, o22))
    ):
        raise MalformedInputError("state must be finite")
    if _ldl(o00, o01, o02, o11, o12, o22) is None:
        raise MalformedInputError("covariance must be positive definite")


def _state(x: Vec3, omega: tuple[float, ...]) -> FilterState:
    """A FilterState of fields in their stored form, without __post_init__: x and omega checked already."""
    state = object.__new__(FilterState)
    state.x, state.omega = x, omega
    return state


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


def predict(state: FilterState, config: NoiseConfig) -> FilterState:
    """Identity-motion prediction: position kept, covariance inflated by q."""
    q = config.q
    o00, o01, o02, o11, o12, o22 = state.omega
    omega = o00 + q, o01, o02, o11 + q, o12, o22 + q
    _check(state.x, omega)
    return _state(state.x, omega)


def correct(state: FilterState, cone: Cone, config: NoiseConfig) -> FilterState | None:
    """One gated Kalman correction toward the cone surface.

    The innovation nu points from the hypothesis to its projection on the
    cone, along n; one LDL^T factorization of S = omega + far (I - n n^T)
    + r n n^T gives both d2 = nu^T S^-1 nu and the gain. A hypothesis
    already on the surface takes the surface normal as n; at the apex or
    on the axis there is no usable direction and nothing to update, so the
    input state is returned. A cone whose d2 exceeds the gate is gated,
    and None is returned: an innovation exactly at the gate is accepted.
    An accepted measurement (a zero-innovation one updates only the
    covariance along the surface normal) returns the new state.
    Ground-plane mode re-pins z to 0 and restores the prior z variance so
    the flattening never fakes confidence in altitude. The step is plain
    float arithmetic, each entry in a fixed order of operations, so equal
    inputs give equal bits.
    """
    if cone.frame is not _WORLD:
        raise MalformedInputError("corrections expect world-frame cones")

    point, case, _, _ = project_to_cone(state.x, cone)
    (x0, x1, x2), (p0, p1, p2) = state.x, point
    v0, v1, v2 = p0 - x0, p1 - x1, p2 - x2
    n = math.hypot(v0, v1, v2)
    if n > 1e-12 * max(1.0, math.hypot(x0, x1, x2)):
        d0, d1, d2 = v0 / n, v1 / n, v2 / n
    elif case is _SURFACE:
        try:
            d0, d1, d2 = surface_normal(point, cone)
        except ValueError:
            return state
    else:
        return state
    # along = n n^T / n^T n and P = I - along; each diagonal entry of P is
    # a sum of the other two squares, so no entry cancels
    r, far = config.r, config.far_variance
    nn = d0 * d0 + d1 * d1 + d2 * d2
    a00, a11, a22 = d0 * d0 / nn, d1 * d1 / nn, d2 * d2 / nn
    a01, a02, a12 = d0 * d1 / nn, d0 * d2 / nn, d1 * d2 / nn
    c00, c11, c22 = (d1 * d1 + d2 * d2) / nn, (d0 * d0 + d2 * d2) / nn, (d0 * d0 + d1 * d1) / nn
    o00, o01, o02, o11, o12, o22 = state.omega
    factor = _ldl(  # of S = omega + far P + r along
        o00 + far * c00 + r * a00, o01 - far * a01 + r * a01, o02 - far * a02 + r * a02,
        o11 + far * c11 + r * a11, o12 - far * a12 + r * a12, o22 + far * c22 + r * a22,
    )
    if factor is None:
        raise MalformedInputError("innovation covariance not definite in floats: far_variance / r too large")
    # each S^-1 b below is forward substitution with L, division by D and
    # back substitution with L^T, written out in place
    e0, e1, e2, l10, l20, l21 = factor
    z1 = v1 - l10 * v0
    y2 = (v2 - l20 * v0 - l21 * z1) / e2
    y1 = z1 / e1 - l21 * y2
    y0 = v0 / e0 - l10 * y1 - l20 * y2
    if v0 * y0 + v1 * y1 + v2 * y2 > config.gate:
        return None

    # x moves by K nu = omega S^-1 nu. K = omega S^-1 is solved row by row
    # (omega is symmetric), then the Joseph form (I - K) omega (I - K)^T + K R K^T
    # with K R K^T = r (K n)(K n)^T + far (K P)(K P)^T, so no far_variance-sized
    # terms are formed to cancel; entry by entry, the upper triangle only.
    z1 = o01 - l10 * o00
    k02 = (o02 - l20 * o00 - l21 * z1) / e2
    k01 = z1 / e1 - l21 * k02
    k00 = o00 / e0 - l10 * k01 - l20 * k02
    z1 = o11 - l10 * o01
    k12 = (o12 - l20 * o01 - l21 * z1) / e2
    k11 = z1 / e1 - l21 * k12
    k10 = o01 / e0 - l10 * k11 - l20 * k12
    z1 = o12 - l10 * o02
    k22 = (o22 - l20 * o02 - l21 * z1) / e2
    k21 = z1 / e1 - l21 * k22
    k20 = o02 / e0 - l10 * k21 - l20 * k22
    n0, n1, n2 = k00 * d0 + k01 * d1 + k02 * d2, k10 * d0 + k11 * d1 + k12 * d2, k20 * d0 + k21 * d1 + k22 * d2
    q00, q01, q02 = (k00 * c00 - k01 * a01 - k02 * a02, -k00 * a01 + k01 * c11 - k02 * a12,
                     -k00 * a02 - k01 * a12 + k02 * c22)
    q10, q11, q12 = (k10 * c00 - k11 * a01 - k12 * a02, -k10 * a01 + k11 * c11 - k12 * a12,
                     -k10 * a02 - k11 * a12 + k12 * c22)
    q20, q21, q22 = (k20 * c00 - k21 * a01 - k22 * a02, -k20 * a01 + k21 * c11 - k22 * a12,
                     -k20 * a02 - k21 * a12 + k22 * c22)
    i00, i11, i22 = 1.0 - k00, 1.0 - k11, 1.0 - k22
    m00, m01, m02 = (i00 * o00 - k01 * o01 - k02 * o02, i00 * o01 - k01 * o11 - k02 * o12,
                     i00 * o02 - k01 * o12 - k02 * o22)
    m10, m11, m12 = (-k10 * o00 + i11 * o01 - k12 * o02, -k10 * o01 + i11 * o11 - k12 * o12,
                     -k10 * o02 + i11 * o12 - k12 * o22)
    m20, m21, m22 = (-k20 * o00 - k21 * o01 + i22 * o02, -k20 * o01 - k21 * o11 + i22 * o12,
                     -k20 * o02 - k21 * o12 + i22 * o22)
    w00 = m00 * i00 - m01 * k01 - m02 * k02 + r * n0 * n0 + far * (q00 * q00 + q01 * q01 + q02 * q02)
    w01 = -m00 * k10 + m01 * i11 - m02 * k12 + r * n0 * n1 + far * (q00 * q10 + q01 * q11 + q02 * q12)
    w02 = -m00 * k20 - m01 * k21 + m02 * i22 + r * n0 * n2 + far * (q00 * q20 + q01 * q21 + q02 * q22)
    w11 = -m10 * k10 + m11 * i11 - m12 * k12 + r * n1 * n1 + far * (q10 * q10 + q11 * q11 + q12 * q12)
    w12 = -m10 * k20 - m11 * k21 + m12 * i22 + r * n1 * n2 + far * (q10 * q20 + q11 * q21 + q12 * q22)
    w22 = -m20 * k20 - m21 * k21 + m22 * i22 + r * n2 * n2 + far * (q20 * q20 + q21 * q21 + q22 * q22)
    xy = x0 + o00 * y0 + o01 * y1 + o02 * y2, x1 + o01 * y0 + o11 * y1 + o12 * y2
    z = x2 + o02 * y0 + o12 * y1 + o22 * y2
    if config.mode is _TWO_D:
        z, w02, w12, w22 = 0.0, 0.0, 0.0, o22
    x, omega = (*xy, z), (w00, w01, w02, w11, w12, w22)
    _check(x, omega)
    return _state(x, omega)


class SourceEstimator:
    """One estimation session: buffer, initialize, track, reset.

    Feed world-frame cones in timestamp order through ingest(); the
    session reports what it did with each one. Initialization waits for
    init_count cones whose origins are pairwise separated; if the
    platform never moves enough, a fallback solve on the most recent
    cones runs anyway so degenerate geometry gets reported instead of
    stalling silently.

    state is None while collecting and the filter state while tracking.
    buffer holds every cone the filter has not absorbed: while
    collecting, the cones initialization may solve on; while tracking,
    the gated cones since the last accepted one. When that run grows past
    RESET_RUN_LENGTH, the hypothesis is dropped and the run is the buffer
    the next initialization starts from.
    """

    def __init__(self, config: NoiseConfig | None = None):
        self.config = config if config is not None else NoiseConfig()
        self.state: FilterState | None = None
        self.buffer: list[Cone] = []
        self.last_solution: InitSolution | None = None
        self.stats = SessionStats()
        self.init_time: float | None = None

    def ingest(self, cone: Cone) -> tuple[FilterState | None, Action]:
        if cone.frame is not _WORLD:
            raise MalformedInputError("ingest expects world-frame cones")
        if self.state is None:
            self.buffer.append(cone)
            trigger = self._separated_subset()
            if trigger is None and len(self.buffer) >= FALLBACK_FACTOR * self.config.init_count:
                # stuck buffer: solve on the freshest cones so degenerate
                # geometry (hovering, radial approach) surfaces in the report
                trigger = self.buffer[-self.config.init_count :]
            if trigger is not None:
                self._try_initialize(trigger, cone.timestamp)
            return self.state, Action.BUFFERED

        predicted = predict(self.state, self.config)
        corrected = correct(predicted, cone, self.config)
        if corrected is None:
            self.stats.rejected += 1
            self.buffer.append(cone)
            if len(self.buffer) > RESET_RUN_LENGTH:
                self.stats.resets += 1
                self.state = None
                log.info("hypothesis reset; reseeding buffer with %d cones", len(self.buffer))
                return None, Action.RESET
            self.state = predicted
            return predicted, _REJECTED
        self.stats.accepted += 1
        self.buffer.clear()
        self.state = corrected
        return corrected, _CORRECTED

    def _separated_subset(self) -> list[Cone] | None:
        """Earliest arrival-order subset with pairwise separated origins."""
        kept: list[Cone] = []
        for cone in self.buffer:
            if all(math.dist(cone.origin, k.origin) > MIN_ORIGIN_SEPARATION for k in kept):
                kept.append(cone)
                if len(kept) == self.config.init_count:
                    return kept
        return None

    def _try_initialize(self, cones: list[Cone], timestamp: float) -> None:
        problem = InitProblem(
            list(cones),
            mode=self.config.mode,
            multistart=self.config.multistart,
            max_iterations=self.config.max_iterations,
        )
        try:
            solution = solve(problem)
        except InfeasibleInitError:
            self.stats.infeasible_solves += 1
            log.debug("initialization infeasible at t=%.3f", timestamp)
            return
        self.last_solution = solution
        if solution.degenerate:
            self.stats.degenerate_solves += 1
            log.debug(
                "degenerate initialization (condition %.3g) at t=%.3f",
                solution.condition,
                timestamp,
            )
            return
        # consistency gate: geometrically lucky but mutually inconsistent
        # cones (pure background) leave a large best-fit residual
        if solution.cost > INIT_COST_GATE * len(cones) * self.config.r:
            self.stats.inconsistent_solves += 1
            log.debug(
                "inconsistent initialization (cost %.3g) at t=%.3f", solution.cost, timestamp
            )
            return
        v = self.config.init_variance
        self.state = FilterState(solution.p, (v, 0.0, 0.0, v, 0.0, v))
        self.buffer = []
        self.init_time = timestamp
        log.info("initialized at t=%.3f, p=(%.3f, %.3f, %.3f)", timestamp, *self.state.x)


__all__ = [
    "Action",
    "FilterState",
    "NoiseConfig",
    "SessionStats",
    "SourceEstimator",
    "correct",
    "predict",
]
