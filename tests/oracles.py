"""Independent reference implementations used to check the production code.

Everything here is deliberately written with a different formulation than
the library (vectorized half-plane geometry instead of per-point angle
arithmetic, exhaustive enumeration instead of greedy scans) so agreement
is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, nnls

from radloc import io as rio
from radloc.constants import (
    BACKGROUND_THRESHOLD_KEV,
    CLUSTER_TOA_GAP_NS,
    COINCIDENCE_WINDOW_NS,
    ELECTRON_REST_ENERGY_KEV,
    PIXEL_PITCH_MM,
    SENSOR_PIXELS,
)
from radloc.cones import ProjectionCase, project_to_cone, surface_normal
from radloc.errors import (
    MalformedInputError,
    OrderingError,
    ParseError,
    PoseExtrapolationError,
    SchemaError,
)
from radloc.events import (
    ClassificationSummary,
    EventClass,
    HitBatch,
    PipelineResult,
    delta_z,
)
from radloc.estimator import FilterState, NoiseConfig, _ldl
from radloc.geometry import Cone, Frame, PoseStream, Quat, Vec3, cross, perpendicular_unit, unit
from radloc.initializer import _SLACK, Mode, cost_and_gradient
from radloc.simulator import CONE_RATE_CONSTANT, MAX_THETA, MIN_THETA


class DegenerateGeometryError(Exception):
    """A pair whose two events coincide, so that its cone axis is undefined."""


class InvalidScatteringError(Exception):
    """An energy split that no single Compton scattering gives: its cosine is outside (-1, 1)."""


def scattering_angle(electron_energy: float, photon_energy: float) -> float:
    """Scattering angle of one energy split, as radloc.events.build_cone computes
    it per pair: math.acos of the Compton cosine, which must lie in (-1, 1)."""
    if not (electron_energy > 0.0 and photon_energy > 0.0):
        raise MalformedInputError("energies must be positive")
    b = 1.0 + ELECTRON_REST_ENERGY_KEV * (1.0 / (electron_energy + photon_energy) - 1.0 / photon_energy)
    if not (-1.0 < b < 1.0):
        raise InvalidScatteringError(f"scattering cosine out of range: B = {b:.6g}")
    return math.acos(b)


def rotate_about_axis(v, axis, angle: float) -> tuple[float, float, float]:
    """Rodrigues rotation of v about a unit axis by angle (right-hand rule)."""
    v = tuple(map(float, v))
    k = unit(axis)
    c, s = math.cos(angle), math.sin(angle)
    dot = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    return tuple(vi * c + wi * s + ki * dot * (1.0 - c) for vi, wi, ki in zip(v, cross(k, v), k))


def perpendicular_unit_reference(v) -> Vec3:
    """radloc.geometry.perpendicular_unit as it was written before its
    floats were spelled out: each basis vector minus its part along v in
    a comprehension, the world x-axis first, then y. The production form
    must give the same bits, the sign of each zero included.
    """
    v = unit(v)
    for i, basis in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))):
        w = [b - vj * v[i] for b, vj in zip(basis, v)]  # basis . v is v[i]
        n = math.hypot(*w)
        if n > 1e-6:
            return w[0] / n, w[1] / n, w[2] / n
    raise MalformedInputError("could not construct a perpendicular vector")


def quat_from_axis_angle(axis, angle: float) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) of the rotation by angle about axis."""
    k0, k1, k2 = unit(axis)
    half = 0.5 * angle
    s = math.sin(half)
    return math.cos(half), s * k0, s * k1, s * k2


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """3x3 rotation matrix about an axis (Rodrigues form)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def cone_distance_reference(points: np.ndarray, origin, axis, half_angle) -> np.ndarray:
    """Distance from each point to the cone, same case split as production.

    Behind the apex plane the distance to the apex is reported; ahead of it
    the 2D axial half-plane picture is used: the point (rho, t) against the
    generator line through the origin with direction (sin T, cos T).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    origin = np.asarray(origin, dtype=float)
    axis = np.asarray(axis, dtype=float)
    u = points - origin
    ell = np.linalg.norm(u, axis=1)
    t = u @ axis
    rho = np.sqrt(np.maximum(ell * ell - t * t, 0.0))
    line = np.abs(rho * np.cos(half_angle) - t * np.sin(half_angle))
    return np.where(t < 0.0, ell, line)


def planar_cone_distance(rho: float, t: float, half_angle: float) -> float:
    """Axial-plane oracle: distance from (rho, t) to the generator line."""
    return abs(rho * np.cos(half_angle) - t * np.sin(half_angle))


def surface_points(origin, axis, half_angle, ranges, azimuths) -> np.ndarray:
    """Cone surface points at given generator ranges and azimuths."""
    origin = np.asarray(origin, dtype=float)
    axis = np.asarray(axis, dtype=float)
    # any orthonormal pair perpendicular to the axis will do
    trial = np.array([1.0, 0.0, 0.0])
    if abs(trial @ axis) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    w0 = trial - (trial @ axis) * axis
    w0 /= np.linalg.norm(w0)
    w1 = np.cross(axis, w0)
    ranges = np.asarray(ranges, dtype=float)[:, None]
    az = np.asarray(azimuths, dtype=float)[:, None]
    radial = np.cos(az) * w0 + np.sin(az) * w1
    gen = np.cos(half_angle) * axis + np.sin(half_angle) * radial
    return origin + ranges * gen


def measurement_covariance_reference(direction, r: float, far: float) -> np.ndarray:
    """R from its eigenbasis: r along n, far along two unit vectors across it."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    w0 = perpendicular_unit(n)
    w1 = np.cross(n, w0)
    return r * np.outer(n, n) + far * (np.outer(w0, w0) + np.outer(w1, w1))


def kalman_cone_update_reference(x, omega, nu, direction, r: float, far: float, ground_plane=False):
    """Textbook Kalman update for one cone pseudo-measurement.

    R from the eigenbasis, separate solves for the squared Mahalanobis
    distance and the gain, and the Joseph form (I - K) omega (I - K)^T +
    K R K^T. With ground_plane, z is pinned to 0 and the prior z variance
    restored, as the filter's 2d mode does. Returns (d2, x_new, omega_new).
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    nu = np.asarray(nu, dtype=float)
    R = measurement_covariance_reference(direction, r, far)
    S = omega + R
    d2 = float(nu @ np.linalg.solve(S, nu))
    K = np.linalg.solve(S, omega).T  # omega S^-1, omega and S symmetric
    x_new = x + K @ nu
    IK = np.eye(3) - K
    omega_new = IK @ omega @ IK.T + K @ R @ K.T
    omega_new = 0.5 * (omega_new + omega_new.T)
    if ground_plane:
        x_new[2] = 0.0
        omega_new[2, :] = 0.0
        omega_new[:, 2] = 0.0
        omega_new[2, 2] = omega[2, 2]
    return d2, x_new, omega_new


def cone_normal_reference(point, origin, axis, half_angle) -> np.ndarray:
    """Outward unit surface normal: the numerical gradient of the signed
    axial-plane offset rho cos T - t sin T at a point off the axis."""
    origin = np.asarray(origin, dtype=float)
    axis = np.asarray(axis, dtype=float)

    def offset(p):
        u = p - origin
        t = u @ axis
        return np.sqrt(max(u @ u - t * t, 0.0)) * np.cos(half_angle) - t * np.sin(half_angle)

    g = central_difference(offset, point)
    return g / np.linalg.norm(g)


def packed(m) -> tuple[float, float, float, float, float, float]:
    """The upper entries (xx, xy, xz, yy, yz, zz) of a 3x3 matrix given as rows,
    the form radloc.estimator.FilterState stores a covariance in."""
    (xx, xy, xz), (_, yy, yz), (_, _, zz) = m
    return float(xx), float(xy), float(xz), float(yy), float(yz), float(zz)


def rows(omega) -> tuple[tuple[float, float, float], ...]:
    """A covariance stored as its six upper entries, as the rows of the symmetric matrix."""
    xx, xy, xz, yy, yz, zz = omega
    return (xx, xy, xz), (xy, yy, yz), (xz, yz, zz)


def _ldl_solve(factor, b0: float, b1: float, b2: float) -> tuple[float, float, float]:
    """S^-1 b from radloc.estimator._ldl's factor of S, as a function: correct
    writes the same substitutions out in place, in the same order."""
    e0, e1, e2, l10, l20, l21 = factor
    z1 = b1 - l10 * b0
    y2 = (b2 - l20 * b0 - l21 * z1) / e2
    y1 = z1 / e1 - l21 * y2
    return b0 / e0 - l10 * y1 - l20 * y2, y1, y2


def correct_reference(state: FilterState, cone: Cone, config: NoiseConfig) -> FilterState | None:
    """The filter correction as radloc.estimator.correct computed it before it
    was written out entry by entry: the same floating-point operations in the
    same order, with the gain rows, I - K, K P and the Joseph form built as
    nested lists multiplied by _mul_reference. The production function must
    match it bit for bit; the LDL^T factorization is shared, not re-derived. A gated
    cone gives None, and one with no usable direction the state it was given.
    """
    if cone.frame is not Frame.WORLD:
        raise MalformedInputError("corrections expect world-frame cones")

    res = project_to_cone(state.x, cone)
    (x0, x1, x2), (p0, p1, p2) = state.x, res.point
    v0, v1, v2 = p0 - x0, p1 - x1, p2 - x2
    n = math.hypot(v0, v1, v2)
    if n > 1e-12 * max(1.0, math.hypot(x0, x1, x2)):
        d0, d1, d2 = v0 / n, v1 / n, v2 / n
    elif res.case is ProjectionCase.SURFACE:
        try:
            d0, d1, d2 = surface_normal(res.point, cone)
        except ValueError:
            return state
    else:
        return state
    r, far = config.r, config.far_variance
    nn = d0 * d0 + d1 * d1 + d2 * d2
    a00, a11, a22 = d0 * d0 / nn, d1 * d1 / nn, d2 * d2 / nn
    a01, a02, a12 = d0 * d1 / nn, d0 * d2 / nn, d1 * d2 / nn
    c00, c11, c22 = (d1 * d1 + d2 * d2) / nn, (d0 * d0 + d2 * d2) / nn, (d0 * d0 + d1 * d1) / nn
    omega = rows(state.omega)
    o00, o01, o02, o11, o12, o22 = state.omega
    factor = _ldl(
        o00 + far * c00 + r * a00, o01 - far * a01 + r * a01, o02 - far * a02 + r * a02,
        o11 + far * c11 + r * a11, o12 - far * a12 + r * a12, o22 + far * c22 + r * a22,
    )
    if factor is None:
        raise MalformedInputError("innovation covariance not definite in floats: far_variance / r too large")
    y0, y1, y2 = _ldl_solve(factor, v0, v1, v2)
    if v0 * y0 + v1 * y1 + v2 * y2 > config.gate:
        return None

    x_new = [xi + o0 * y0 + o1 * y1 + o2 * y2 for xi, (o0, o1, o2) in zip((x0, x1, x2), omega)]
    gain = [_ldl_solve(factor, *row) for row in omega]
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = gain
    kn = [k0 * d0 + k1 * d1 + k2 * d2 for k0, k1, k2 in gain]
    ik = (1.0 - k00, -k01, -k02), (-k10, 1.0 - k11, -k12), (-k20, -k21, 1.0 - k22)
    kp = _mul_reference(gain, ((c00, -a01, -a02), (-a01, c11, -a12), (-a02, -a12, c22)))
    j, f = _mul_reference(_mul_reference(ik, omega), ik), _mul_reference(kp, kp)
    (w00, w01, w02), (w11, w12), (w22,) = [
        [j[i][k] + r * kn[i] * kn[k] + far * f[i][k] for k in range(i, 3)] for i in range(3)
    ]
    if config.mode is Mode.TWO_D:
        x_new[2], w02, w12, w22 = 0.0, 0.0, 0.0, o22
    return FilterState(x_new, (w00, w01, w02, w11, w12, w22))


def _split_reference(px: float, py: float, pz: float, cone: Cone) -> tuple[float, float, float, float, float, float]:
    """Apex offset length, axial coordinate, off-axis offset and its length."""
    ox, oy, oz = cone.origin
    ax, ay, az = cone.axis
    ux, uy, uz = px - ox, py - oy, pz - oz
    axial = ax * ux + ay * uy + az * uz
    wx, wy, wz = ux - axial * ax, uy - axial * ay, uz - axial * az
    return math.hypot(ux, uy, uz), axial, wx, wy, wz, math.hypot(wx, wy, wz)


def project_to_cone_reference(x, cone: Cone) -> tuple[Vec3, ProjectionCase, float, float]:
    """radloc.cones.project_to_cone as it was written with a _split helper
    and enum lookups at each return: the bit-level referee of the inline
    version, whose float operations run in the same order. Returns the
    point, the case, alpha and beta.
    """
    px, py, pz = map(float, x)
    ell, axial, wx, wy, wz, perp_norm = _split_reference(px, py, pz, cone)
    if ell < 1e-15:
        return cone.origin, ProjectionCase.ON_AXIS, 0.0, -cone.half_angle

    alpha = math.atan2(perp_norm, axial)
    beta = alpha - cone.half_angle

    if alpha >= 0.5 * math.pi:
        return cone.origin, ProjectionCase.APEX, alpha, beta

    case = ProjectionCase.SURFACE
    if perp_norm < 1e-12 * ell:
        wx, wy, wz = perpendicular_unit(cone.axis)
        case = ProjectionCase.ON_AXIS
    else:
        wx, wy, wz = wx / perp_norm, wy / perp_norm, wz / perp_norm

    along = ell * math.cos(beta)
    if along <= 0.0:
        return cone.origin, ProjectionCase.APEX, alpha, beta

    c, s = math.cos(cone.half_angle), math.sin(cone.half_angle)
    (ox, oy, oz), (ax, ay, az) = cone.origin, cone.axis
    qx = ox + along * (c * ax + s * wx)
    qy = oy + along * (c * ay + s * wy)
    qz = oz + along * (c * az + s * wz)
    return (qx, qy, qz), case, alpha, beta


def check_reference(x: Vec3, omega) -> None:
    """radloc.estimator's state checks entry by entry: each of the nine
    floats (x, then omega's six upper entries) finite and omega's LDL^T
    pivots positive, each failure a MalformedInputError with the library's
    message.
    """
    for value in (*x, *omega):
        if not math.isfinite(value):
            raise MalformedInputError("state must be finite")
    if _ldl(*omega) is None:
        raise MalformedInputError("covariance must be positive definite")


def _mul_reference(a, b_t) -> list[list[float]]:
    """a @ b for 3x3 nested sequences, b given by its columns."""
    return [[a0 * b0 + a1 * b1 + a2 * b2 for b0, b1, b2 in b_t] for a0, a1, a2 in a]


def central_difference(f, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of R^3."""
    p = np.asarray(p, dtype=float)
    g = np.zeros(3)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        g[k] = (f(p + dp) - f(p - dp)) / (2.0 * h)
    return g


def grid_search_cost(cones, lo, hi, resolution: float = 0.1):
    """Feasible-masked grid minimum of the summed squared cone distance.

    Returns (best cost, best point). Grid points violating any half-space
    constraint axis . (p - origin) >= 0 are excluded.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.arange(lo[k], hi[k] + resolution / 2, resolution) for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    feasible = np.ones(len(pts), dtype=bool)
    for c in cones:
        feasible &= (pts - c.origin) @ c.axis >= 0.0
    pts = pts[feasible]
    if len(pts) == 0:
        return np.inf, None
    cost = np.zeros(len(pts))
    for c in cones:
        d = cone_distance_reference(pts, c.origin, c.axis, c.half_angle)
        cost += d * d
    k = int(np.argmin(cost))
    return float(cost[k]), pts[k]


def stationarity_residual(p, problem) -> float:
    """Norm of the cost gradient projected onto the feasible directions.

    First-order optimality measure of an InitProblem solution: the
    gradient minus its best representation by nonnegative multipliers on
    the active constraints, the half-spaces axis . (p - origin) >= 0 and
    the faces of the bounds box.
    """
    p = np.asarray(p, dtype=float)
    free = slice(0, 2) if problem.mode is Mode.TWO_D else slice(0, 3)
    _, g = cost_and_gradient(p, problem.cones)
    a = np.array([c.axis for c in problem.cones])
    b = np.array([float(np.dot(c.axis, c.origin)) for c in problem.cones])
    lo, hi = problem.bounds
    eye = np.eye(3)[free]
    rows = np.vstack(
        [a[(a @ p - b) < 1e-6], eye[p[free] - lo[free] < 1e-9], -eye[hi[free] - p[free] < 1e-9]]
    )
    if len(rows) == 0:
        return float(np.linalg.norm(g[free]))
    return float(nnls(rows[:, free].T, g[free])[1])


def feasibility_margin(problem) -> float:
    """Largest t for which a point of the bounds box meets every half-space by t.

    Linear program over (p, t), with t capped at 1 m: maximize t subject
    to axis . (p - origin) >= t for every cone and lo <= p <= hi (z = 0
    in the ground-plane mode). The half-spaces and the box have a common
    point exactly when the result is >= 0.
    """
    free = 2 if problem.mode is Mode.TWO_D else 3
    a = np.array([c.axis for c in problem.cones])[:, :free]
    b = np.array([float(np.dot(c.axis, c.origin)) for c in problem.cones])
    lo, hi = problem.bounds
    res = linprog(
        c=np.r_[np.zeros(free), -1.0],
        A_ub=np.hstack([-a, np.ones((len(a), 1))]),
        b_ub=-b,
        bounds=[*zip(lo[:free], hi[:free]), (None, 1.0)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun)


# --- the initializer's constrained step by enumeration of active sets, as
# the library solved it before its dual active-set loop ---


@functools.lru_cache(maxsize=32)
def _row_sets(rows: int, dims: int) -> list[np.ndarray]:
    """Every set of 1 to dims constraint row indices, as (n, size) chunks.

    Chunks bound qp_step_reference's working arrays when a problem has many
    cones: the number of sets grows with the cube of the row count.
    """
    chunks = []
    for size in range(1, dims + 1):
        sets = np.array(list(itertools.combinations(range(rows), size)), dtype=np.intp).reshape(-1, size)
        chunks.extend(np.array_split(sets, -(-len(sets) // 2048)))
    return chunks


def qp_step_reference(
    normal: np.ndarray, grad: np.ndarray, rows: np.ndarray, need: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of 1/2 s.H.s + g.s subject to rows . s >= need, per start.

    normal is (K, d, d) positive definite, grad (K, d), need (K, m), and
    d <= 3. The minimizer is the equality-constrained minimizer on some
    set of at most d independent active rows, and no feasible point
    costs less than it, so every such set is tried and the cheapest
    feasible candidate kept. Returns the steps and, per start, whether
    any candidate was feasible.
    """
    k, dims = grad.shape
    inv = np.linalg.inv(normal)
    free = -np.einsum("kij,kj->ki", inv, grad)
    spread = np.einsum("kij,mj->kim", inv, rows)  # H^-1 rows^T
    gram = np.einsum("mi,kin->kmn", rows, spread)
    gap = need - free @ rows.T  # how far the free minimizer misses each row

    best = free
    best_cost = np.where(np.all(gap <= _SLACK, axis=1), 0.0, np.inf)
    for sets in _row_sets(len(rows), dims):
        size = sets.shape[1]
        sub = gram[:, sets[:, :, None], sets[:, None, :]]
        # the rows of a set must be independent; a dependent set has no
        # unique minimizer and is skipped
        regular = np.linalg.det(sub) > 1e-12 * np.prod(np.diagonal(sub, axis1=-2, axis2=-1), axis=-1)
        sub = np.where(regular[..., None, None], sub, np.eye(size))
        gap_s = gap[:, sets]
        mult = np.linalg.solve(sub, gap_s[..., None])[..., 0]
        cand = free[:, None, :] + np.einsum("kdns,kns->knd", spread[:, :, sets], mult)
        ok = regular & np.all(cand @ rows.T >= need[:, None, :] - _SLACK, axis=-1)
        obj = np.where(ok, 0.5 * np.einsum("kns,kns->kn", mult, gap_s), np.inf)
        pick = np.argmin(obj, axis=1)
        obj_min = obj[np.arange(k), pick]
        cheaper = obj_min < best_cost
        best = np.where(cheaper[:, None], cand[np.arange(k), pick], best)
        best_cost = np.where(cheaper, obj_min, best_cost)
    return best, np.isfinite(best_cost)


def sample_cones_reference(source, apex, t: float, model, activity: float, dt: float, rng):
    """One timestep's source and background cones as radloc.simulator.sample_cones
    drew them before its sampling was written out on floats: a numpy
    Generator call per variate (uniform, normal) and rotate_about_axis
    per rotation. From a generator in the same state the production
    sampler must give equal cones and leave the generator in an equal
    state.
    """
    o0, o1, o2 = (s - a for s, a in zip(map(float, source), apex))
    dist2 = o0 * o0 + o1 * o1 + o2 * o2
    if dist2 < 1e-12:
        raise MalformedInputError("source coincides with the detector")
    lam = CONE_RATE_CONSTANT * activity / dist2
    d = math.sqrt(dist2)
    true_dir = o0 / d, o1 / d, o2 / d

    source_cones = []
    for _ in range(int(rng.poisson(lam * dt))):
        theta = float(rng.uniform(MIN_THETA, MAX_THETA))
        axis = rotate_about_axis(true_dir, _perpendicular_unit_random_reference(true_dir, rng), theta)
        if model.axis_sigma > 0.0:
            tilt = float(rng.normal(0.0, model.axis_sigma))
            axis = rotate_about_axis(axis, _perpendicular_unit_random_reference(axis, rng), tilt)
        half_angle = theta
        if model.angular_sigma > 0.0:
            half_angle = min(max(theta + rng.normal(0.0, model.angular_sigma), 1e-3), math.pi - 1e-3)
        source_cones.append(Cone(apex, unit(axis), half_angle, Frame.WORLD, t))

    background = []
    for _ in range(int(rng.poisson(model.background_rate * dt))):
        while True:
            x, y, z = rng.normal(size=3).tolist()
            n = math.hypot(x, y, z)
            if n >= 1e-12:
                break
        theta = float(rng.uniform(MIN_THETA, MAX_THETA))
        background.append(Cone(apex, (x / n, y / n, z / n), theta, Frame.WORLD, t))
    return source_cones, background


def _perpendicular_unit_random_reference(v, rng):
    """Uniformly random unit vector perpendicular to v."""
    w0 = perpendicular_unit(v)
    w1 = cross(v, w0)
    psi = float(rng.uniform(0.0, 2.0 * math.pi))
    c, s = math.cos(psi), math.sin(psi)
    return tuple(c * a + s * b for a, b in zip(w0, w1))


def scattered_photon_energy(incident_energy: float, theta: float) -> float:
    """Forward Compton formula: the scattered photon's energy (keV) for an
    incident energy (keV) and a scattering angle, E / (1 + (E / m_e c^2)(1 - cos theta))."""
    return incident_energy / (1.0 + (incident_energy / ELECTRON_REST_ENERGY_KEV) * (1.0 - math.cos(theta)))


def best_disjoint_pairing(toas, window: float):
    """Exhaustive maximum-cardinality pairing of timestamps within a window.

    Only usable for small inputs; enumerates every disjoint pairing and
    keeps the largest (ties by earliest pair times), mirroring what the
    greedy scan is supposed to achieve on a sorted line.
    """
    toas = sorted(toas)
    n = len(toas)
    best: list[tuple[float, float]] = []

    def recurse(remaining, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if not remaining:
            return
        first, rest = remaining[0], remaining[1:]
        # pair `first` with any partner in range, or leave it single
        for i, cand in enumerate(rest):
            if abs(cand - first) <= window:
                recurse(rest[:i] + rest[i + 1:], chosen + [(first, cand)])
        recurse(rest, chosen)

    recurse(toas, [])
    return best


def exhaustive_min_norm(vectors) -> float:
    """Smallest pairwise separation, brute force."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    out = np.inf
    for a, b in itertools.combinations(vectors, 2):
        out = min(out, float(np.linalg.norm(a - b)))
    return out


# --- hits to world cones, in the numpy formulation the library ran before
# it moved to Python floats. numpy reduces fewer than eight terms in
# sequence and more in eight interleaved partial sums, and its norm and
# matrix-vector products go through BLAS, which may fuse multiply-adds. ---


def track_centroid_reference(track):
    """Energy-weighted (x mm, y mm), energy keV and toa ns of a track with np.average."""
    cols = np.array(track.cols) + 0.5
    rows = np.array(track.rows) + 0.5
    energies = np.array(track.energies)
    x = float(np.average(cols, weights=energies)) * PIXEL_PITCH_MM
    y = float(np.average(rows, weights=energies)) * PIXEL_PITCH_MM
    return x, y, float(energies.sum()), min(track.toas)


def build_cone_reference(pair) -> Cone:
    """Camera-frame cone of a Compton pair, its axis normalized by np.linalg.norm."""
    theta = scattering_angle(pair.electron_energy, pair.photon_energy)
    dz = delta_z(pair.electron_toa, pair.photon_toa)
    electron = np.array([pair.electron_xy[0], pair.electron_xy[1], dz]) * 1e-3
    photon = np.array([pair.photon_xy[0], pair.photon_xy[1], 0.0]) * 1e-3
    sep = electron - photon
    norm = float(np.linalg.norm(sep))
    if norm < 1e-9:
        raise DegenerateGeometryError("coincident pair events; cone axis undefined")
    timestamp = min(pair.electron_toa, pair.photon_toa) * 1e-9
    return Cone(electron, sep / norm, theta, Frame.CAMERA, timestamp)


def _quat_normalize_reference(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / float(np.linalg.norm(q))


def quat_to_matrix_reference(q) -> np.ndarray:
    w, x, y, z = _quat_normalize_reference(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_slerp_reference(q0, q1, t: float) -> np.ndarray:
    q0 = _quat_normalize_reference(q0)
    q1 = _quat_normalize_reference(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 0.9995:
        return _quat_normalize_reference(q0 + t * (q1 - q0))
    theta = math.acos(min(1.0, dot))
    s0 = math.sin((1.0 - t) * theta) / math.sin(theta)
    s1 = math.sin(t * theta) / math.sin(theta)
    return s0 * q0 + s1 * q1


@dataclass
class Pose:
    """Timestamped rigid pose of the vehicle body in the world frame, checked and
    normalized one record at a time: the per-row reference for the pose reader."""

    timestamp: float
    position: tuple
    orientation: tuple  # unit quaternion, w-first

    def __post_init__(self) -> None:
        px, py, pz = map(float, self.position)
        self.position = (px, py, pz)
        if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
            raise MalformedInputError(f"pose position must be finite, got {self.position!r}")
        w, x, y, z = map(float, self.orientation)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not abs(n - 1.0) <= 1e-6:
            raise MalformedInputError(f"orientation quaternion not unit norm: {n!r}")
        self.orientation = (w / n, x / n, y / n, z / n)


def pose_stream(poses) -> PoseStream:
    """The library's pose stream of a list of Pose records."""
    return PoseStream([p.timestamp for p in poses], [p.position for p in poses], [p.orientation for p in poses])


def camera_cones(cones, times) -> list:
    """A ConeBatch of camera-frame cones and its time column as Cone records, one per cone."""
    columns = (cones.origins.tolist(), cones.axes.tolist(), cones.half_angles.tolist(), times.tolist())
    return [Cone(o, a, h, Frame.CAMERA, t) for o, a, h, t in zip(*columns)]


def source_at(scenario, t: float) -> tuple:
    """A scenario's source position at time t: the start moved at constant velocity."""
    return tuple(p + t * v for p, v in zip(scenario.source_initial, scenario.source_velocity))


def interpolate_pose_reference(stream, t: float) -> Pose:
    """Pose at t by a linear scan for the timestamps, lerp and numpy slerp."""
    times = [p.timestamp for p in stream]
    if t < times[0] or t > times[-1]:
        raise PoseExtrapolationError(f"t = {t} outside [{times[0]}, {times[-1]}]")
    i = bisect_left(times, t)
    if times[i] == t:
        p = stream[i]
        pose = Pose(p.timestamp, p.position, p.orientation)
        q = p.orientation
    else:
        lo, hi = stream[i - 1], stream[i]
        u = (t - lo.timestamp) / (hi.timestamp - lo.timestamp)
        q = quat_slerp_reference(lo.orientation, hi.orientation, u)
        pose = Pose(t, (1.0 - u) * np.asarray(lo.position) + u * np.asarray(hi.position), q)
    pose.orientation = _quat_normalize_reference(q)  # as Pose normalized with numpy
    return pose


def transform_cone_reference(cone, pose) -> Cone:
    """World-frame cone: R @ origin + position, R @ axis renormalized."""
    R = quat_to_matrix_reference(pose.orientation)
    axis = R @ cone.axis
    return Cone(
        R @ cone.origin + pose.position,
        axis / float(np.linalg.norm(axis)),
        cone.half_angle,
        Frame.WORLD,
        pose.timestamp,
    )


def world_cones_reference(hits, poses, threshold: float = BACKGROUND_THRESHOLD_KEV) -> list:
    """What `radloc reconstruct` writes for a hit stream at default settings.

    Clustering and pairing are the per-hit and per-track references
    below; every float step after them is one of the references above.
    """
    cones = []
    for first, second in pair_coincident_reference(cluster_hits_reference(hits))[0]:
        photon, electron = (first, second) if first.toa <= second.toa else (second, first)
        px, py, pe, pt = track_centroid_reference(photon)
        ex, ey, ee, et = track_centroid_reference(electron)
        if pe + ee > threshold:
            continue
        try:
            cones.append(build_cone_reference(ComptonPair((ex, ey), (px, py), ee, pe, et, pt)))
        except (InvalidScatteringError, DegenerateGeometryError):
            continue
    cones.sort(key=lambda c: c.timestamp)
    world = []
    for cone in cones:
        try:
            pose = interpolate_pose_reference(poses, cone.timestamp)
        except PoseExtrapolationError:
            continue
        world.append(transform_cone_reference(cone, pose))
    return world


# --- CSV files read one line and one cell at a time, in the documented
# dialect (split at commas, no quoting, plain decimal numbers), each row
# checked before the next is read, as the library read them before its
# table reader ---


def _rows_reference(path, header):
    """(line number, cells) of each nonblank line after a matching header."""
    lines = Path(path).read_text().splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != header:
        raise SchemaError(f"{path}: bad header", keys=header)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(cells)}", path=str(path), line=lineno)
        yield lineno, cells


def _floats_reference(cells, path, lineno) -> list[float]:
    values = []
    for cell in cells:
        # float() also reads digit separators and non-ASCII digits; plain decimal does not
        if "_" in cell or not cell.strip().isascii():
            raise ParseError(f"not a number: {cell!r}", path=str(path), line=lineno)
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"not a number: {cell!r}", path=str(path), line=lineno) from None
    return values


def _finite_reference(value: float, label: str, path, lineno) -> None:
    if not math.isfinite(value):
        raise ParseError(f"{label} must be finite, got {value!r}", path=str(path), line=lineno)


def _record_reference(make, path, lineno):
    try:
        return make()
    except MalformedInputError as exc:
        raise ParseError(str(exc), path=str(path), line=lineno) from exc


def read_hits_reference(path) -> HitBatch:
    toa, col, row, energy = [], [], [], []
    for lineno, cells in _rows_reference(path, rio.HITS_HEADER):
        t, c, r, e = _floats_reference(cells, path, lineno)
        _finite_reference(t, "timestamp", path, lineno)
        if not (c.is_integer() and r.is_integer()):
            raise ParseError(f"pixel ({c:g}, {r:g}) not integral", path=str(path), line=lineno)
        if not e > 0.0:
            raise ParseError(f"hit energy must be positive, got {e!r}", path=str(path), line=lineno)
        if not (0 <= c < SENSOR_PIXELS and 0 <= r < SENSOR_PIXELS):
            raise ParseError(f"pixel ({int(c)}, {int(r)}) outside the sensor matrix", path=str(path), line=lineno)
        for column, value in zip((toa, col, row, energy), (t, int(c), int(r), e)):
            column.append(value)
    return HitBatch(toa, col, row, energy)


def read_pairs_reference(path) -> list:
    pairs = []
    for lineno, cells in _rows_reference(path, rio.PAIRS_HEADER):
        ex, ey, ee, et, px, py, pe, pt = _floats_reference(cells, path, lineno)
        for t in (et, pt):
            _finite_reference(t, "timestamp", path, lineno)
        pairs.append(_record_reference(lambda: ComptonPair((ex, ey), (px, py), ee, pe, et, pt), path, lineno))
    return pairs


def read_poses_reference(path) -> list:
    poses = []
    for lineno, cells in _rows_reference(path, rio.POSES_HEADER):
        t, px, py, pz, qw, qx, qy, qz = _floats_reference(cells, path, lineno)
        _finite_reference(t, "timestamp", path, lineno)
        if poses and t <= poses[-1].timestamp:
            raise OrderingError(f"{path}:{lineno}: pose timestamps must strictly increase")
        poses.append(_record_reference(lambda: Pose(t, (px, py, pz), (qw, qx, qy, qz)), path, lineno))
    return poses


def read_cones_reference(path) -> list:
    cones = []
    for lineno, cells in _rows_reference(path, rio.CONES_HEADER):
        t, ox, oy, oz, dx, dy, dz, theta = _floats_reference(cells[:8], path, lineno)
        frame = cells[8].strip()
        if frame not in ("C", "W"):
            raise ParseError(f"frame must be C or W, got {frame!r}", path=str(path), line=lineno)
        _finite_reference(t, "timestamp", path, lineno)
        if cones and t < cones[-1].timestamp:
            raise OrderingError(f"{path}:{lineno}: cone timestamps must be nondecreasing")
        norm = math.hypot(dx, dy, dz)
        if norm < 1e-12:
            raise ParseError("zero cone axis", path=str(path), line=lineno)
        axis = (dx / norm, dy / norm, dz / norm)
        cones.append(_record_reference(lambda: Cone((ox, oy, oz), axis, theta, Frame(frame), t), path, lineno))
    return cones


def read_estimates_reference(path) -> list[dict]:
    rows = []
    for lineno, cells in _rows_reference(path, rio.ESTIMATES_HEADER):
        values = _floats_reference(cells[:10], path, lineno)
        _finite_reference(values[0], "timestamp", path, lineno)
        rows.append({**dict(zip(rio.ESTIMATES_HEADER, values)), "status": cells[10].strip(),
                     "action": cells[11].strip()})
    return rows


def read_truth_reference(path) -> tuple[np.ndarray, np.ndarray]:
    """A plain truth file or a step log; of a step log only the truth
    columns are read as numbers."""
    header = [c.strip() for c in Path(path).read_text().splitlines()[0].split(",")]
    if header not in (rio.TRUTH_HEADER, rio.STEPS_HEADER):
        raise SchemaError(f"{path}: not a truth or step file", keys=header)
    data = []
    for lineno, cells in _rows_reference(path, header):
        values = _floats_reference(cells[:4], path, lineno)
        for value, label in zip(values, ("timestamp", *header[1:4])):
            _finite_reference(value, label, path, lineno)
        if data and values[0] < data[-1][0]:
            raise OrderingError(f"{path}:{lineno}: truth timestamps must be nondecreasing")
        data.append(values)
    if not data:
        raise SchemaError(f"{path}: no truth samples", keys=[])
    return np.array(data)[:, 0], np.array(data)[:, 1:4]


# --- hits to tracks and pairs, one hit and one track at a time, as the
# library did before it moved to column batches ---


def cluster_hits_reference(hits: HitBatch, max_toa_gap: float = CLUSTER_TOA_GAP_NS) -> list:
    """Tracks by union-find, one hit at a time in time order.

    Each hit is merged with the latest earlier hit seen on each of the
    nine pixels around it when that hit is at most max_toa_gap older.
    """
    toas, cols, rows, energies = (c.tolist() for c in (hits.toa, hits.col, hits.row, hits.energy))
    n = len(toas)
    order = sorted(range(n), key=toas.__getitem__)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    last_seen: dict[tuple[int, int], int] = {}  # latest hit on each pixel so far
    for idx in order:
        c, r = cols[idx], rows[idx]
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                j = last_seen.get((c + dc, r + dr))
                if j is not None and toas[idx] - toas[j] <= max_toa_gap:
                    ri, rj = find(idx), find(j)
                    if ri != rj:
                        parent[rj] = ri
        last_seen[(c, r)] = idx

    groups: dict[int, list[int]] = {}
    for idx in order:
        groups.setdefault(find(idx), []).append(idx)
    tracks = [
        PixelTrack([toas[i] for i in g], [cols[i] for i in g], [rows[i] for i in g], [energies[i] for i in g])
        for g in groups.values()
    ]
    tracks.sort(key=lambda t: t.toa)
    return tracks


def pair_coincident_reference(tracks, window: float = COINCIDENCE_WINDOW_NS, drop_ambiguous: bool = False):
    """Earliest-first pairing of PixelTracks by a scan over them in time order.

    Returns the pairs and the number of tracks dropped in runs of 3+
    mutually coincident tracks when drop_ambiguous is set.
    """
    ordered = sorted(tracks, key=lambda t: t.toa)
    pairs, dropped, i = [], 0, 0
    while i + 1 < len(ordered):
        if ordered[i + 1].toa - ordered[i].toa <= window:
            if drop_ambiguous and i + 2 < len(ordered) and ordered[i + 2].toa - ordered[i].toa <= window:
                j = i + 2
                while j < len(ordered) and ordered[j].toa - ordered[i].toa <= window:
                    j += 1
                dropped += j - i
                i = j
                continue
            pairs.append((ordered[i], ordered[i + 1]))
            i += 2
        else:
            i += 1
    return pairs, dropped


# --- the per-record float pipeline: one object per track, pair and cone,
# as the library ran it before column batches. Its sums run in hit order
# and its angles through math.acos, the float steps the batches keep. ---


@dataclass
class PixelTrack:
    """A connected cluster of hits, one list entry per hit, in time order."""

    toas: list[float]  # ns
    cols: list[int]
    rows: list[int]
    energies: list[float]  # keV
    toa: float = field(init=False)  # earliest charge arrival, ns
    energy: float = field(init=False)  # keV

    def __post_init__(self) -> None:
        if not self.toas:
            raise MalformedInputError("a track needs at least one hit")
        self.toa = min(self.toas)
        self.energy = sum(self.energies)


@dataclass(frozen=True)
class ComptonPair:
    """Matched recoil-electron / scattered-photon tracks: mm, keV and ns."""

    electron_xy: tuple[float, float]
    photon_xy: tuple[float, float]
    electron_energy: float
    photon_energy: float
    electron_toa: float
    photon_toa: float

    def __post_init__(self) -> None:
        if not (self.electron_energy > 0.0 and self.photon_energy > 0.0):
            raise MalformedInputError("pair energies must be positive")
        if not all(map(math.isfinite, (*self.electron_xy, *self.photon_xy))):
            raise MalformedInputError("pair positions must be finite")


def track_centroid(track: PixelTrack) -> tuple[float, float, float, float]:
    """Energy-weighted centroid (x mm, y mm), energy keV and toa ns, summed in hit order."""
    sx = sy = energy = 0.0
    for col, row, e in zip(track.cols, track.rows, track.energies):
        sx += (col + 0.5) * e
        sy += (row + 0.5) * e
        energy += e
    return sx / energy * PIXEL_PITCH_MM, sy / energy * PIXEL_PITCH_MM, energy, track.toa


def classify_track(total_energy: float, paired: bool, threshold: float = BACKGROUND_THRESHOLD_KEV) -> EventClass:
    """Background above the threshold; below it, Compton when paired, else photoelectric."""
    if total_energy > threshold:
        return EventClass.BACKGROUND
    return EventClass.COMPTON_CANDIDATE if paired else EventClass.PHOTOELECTRIC


def make_pair_record(first: PixelTrack, second: PixelTrack) -> ComptonPair:
    """The earlier track is the scattered photon, the later the recoil electron."""
    a, b = (first, second) if first.toa <= second.toa else (second, first)
    px, py, pe, pt = track_centroid(a)
    ex, ey, ee, et = track_centroid(b)
    return ComptonPair((ex, ey), (px, py), ee, pe, et, pt)


def build_cone_record(pair: ComptonPair) -> Cone:
    """Camera-frame cone of one pair in Python floats; raises when it gives none."""
    theta = scattering_angle(pair.electron_energy, pair.photon_energy)
    (ex, ey), (px, py) = pair.electron_xy, pair.photon_xy
    electron = (ex * 1e-3, ey * 1e-3, delta_z(pair.electron_toa, pair.photon_toa) * 1e-3)
    sx, sy, sz = electron[0] - px * 1e-3, electron[1] - py * 1e-3, electron[2]
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if norm < 1e-9:
        raise DegenerateGeometryError("coincident pair events; cone axis undefined")
    timestamp = min(pair.electron_toa, pair.photon_toa) * 1e-9
    return Cone(electron, (sx / norm, sy / norm, sz / norm), theta, Frame.CAMERA, timestamp)


def process_pairs_record(pairs, threshold: float = BACKGROUND_THRESHOLD_KEV, duration: float | None = None,
                         unpaired_tracks=(), ambiguous: int = 0) -> PipelineResult:
    """Classify ComptonPairs and lone PixelTracks one at a time and build the cones,
    a list of Cone records, with their times."""
    summary = ClassificationSummary(ambiguous=ambiguous)
    cones, times = [], []
    for pair in pairs:
        times.extend((pair.electron_toa, pair.photon_toa))
        cls = classify_track(pair.electron_energy + pair.photon_energy, paired=True, threshold=threshold)
        summary.counts[cls] += 1
        if cls is not EventClass.COMPTON_CANDIDATE:
            continue
        try:
            cones.append(build_cone_record(pair))
        except InvalidScatteringError:
            summary.invalid_scattering += 1
        except DegenerateGeometryError:
            summary.degenerate_geometry += 1
    for track in unpaired_tracks:
        summary.counts[classify_track(track.energy, paired=False, threshold=threshold)] += 1
    if duration is not None:
        summary.duration = duration
    elif times:
        summary.duration = (max(times) - min(times)) * 1e-9
    cones.sort(key=lambda c: c.timestamp)
    return PipelineResult(cones, [c.timestamp for c in cones], summary, pair_count=len(pairs))


def process_hits_record(hits: HitBatch, max_toa_gap: float = CLUSTER_TOA_GAP_NS,
                        window: float = COINCIDENCE_WINDOW_NS, threshold: float = BACKGROUND_THRESHOLD_KEV,
                        drop_ambiguous: bool = False, duration: float | None = None) -> PipelineResult:
    """process_hits through the references above, one hit, track and pair at a time."""
    tracks = cluster_hits_reference(hits, max_toa_gap)
    pairs, ambiguous = pair_coincident_reference(tracks, window, drop_ambiguous)
    paired = {id(t) for pair in pairs for t in pair}
    if duration is None and len(hits):
        duration = float(hits.toa.max() - hits.toa.min()) * 1e-9
    return process_pairs_record([make_pair_record(a, b) for a, b in pairs], threshold, duration,
                                [t for t in tracks if id(t) not in paired], ambiguous)


def trajectory_waypoints(center, radius: float, speed: float, timestep: float, count: int,
                         altitude: float | None = None, start_azimuth: float = 0.0) -> list[Pose]:
    """Pose stream on a horizontal circle at constant speed, yaw toward the center.

    Consecutive positions are exactly speed*timestep apart (chord
    stepping), so the angular rate is speed/radius up to O(timestep^2).
    """
    if radius <= 0:
        raise MalformedInputError("radius must be positive")
    center = np.asarray(center, dtype=float).reshape(3)
    z = center[2] if altitude is None else altitude
    dphi = 2.0 * math.asin(min(1.0, speed * timestep / (2.0 * radius)))
    poses = []
    for k in range(count):
        phi = start_azimuth + k * dphi
        position = center + radius * np.array([math.cos(phi), math.sin(phi), 0.0])
        position[2] = z
        yaw = math.atan2(center[1] - position[1], center[0] - position[0])
        poses.append(Pose(k * timestep, position, (math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw))))
    return poses


# --- the world-frame step composed of scalar quaternion helpers, as the
# library ran it before writing the step inline: the bit-level referee of
# radloc.geometry's interpolate_pose and transform_cone, whose float
# operations run in the same order. ---


def quat_normalize(q) -> Quat:
    w, x, y, z = map(float, q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-15:
        raise MalformedInputError("zero quaternion")
    return w / n, x / n, y / n, z / n


def quat_to_matrix(q) -> tuple[Vec3, Vec3, Vec3]:
    """Rows of the rotation matrix of a unit quaternion (w, x, y, z), used as given."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def quat_slerp(q0, q1, t: float) -> Quat:
    """Shortest-arc spherical interpolation between two unit quaternions, used as given."""
    dot = q0[0] * q1[0] + q0[1] * q1[1] + q0[2] * q1[2] + q0[3] * q1[3]
    if dot < 0.0:
        q1 = tuple(-c for c in q1)
        dot = -dot
    if dot > 0.9995:
        # nearly identical: lerp + renormalize avoids sin(theta) ~ 0
        return quat_normalize([a + t * (b - a) for a, b in zip(q0, q1)])
    theta = math.acos(min(1.0, dot))
    s0 = math.sin((1.0 - t) * theta) / math.sin(theta)
    s1 = math.sin(t * theta) / math.sin(theta)
    return tuple(s0 * a + s1 * b for a, b in zip(q0, q1))


def interpolate_pose_composed(stream: PoseStream, t: float) -> tuple[Vec3, Quat]:
    """Position and orientation at time t of a pose stream, in O(log P).

    A binary search finds the bracketing samples. Position is
    interpolated linearly, orientation by slerp; an exact timestamp match
    gives that sample's values. The orientation is normalized once more
    either way. Raises PoseExtrapolationError outside [first, last].
    """
    times = stream.times
    if not times:
        raise MalformedInputError("empty pose stream")
    if not times[0] <= t <= times[-1]:
        raise PoseExtrapolationError(f"t = {t} outside pose stream range [{times[0]}, {times[-1]}]")
    i = bisect_left(times, t)
    if times[i] == t:
        return stream.positions[i], quat_normalize(stream.orientations[i])
    u = (t - times[i - 1]) / (times[i] - times[i - 1])
    v = 1.0 - u
    (a0, a1, a2), (b0, b1, b2) = stream.positions[i - 1], stream.positions[i]
    q = quat_slerp(stream.orientations[i - 1], stream.orientations[i], u)
    return (v * a0 + u * b0, v * a1 + u * b1, v * a2 + u * b2), quat_normalize(q)


def transform_cone_composed(origin: Vec3, axis: Vec3, half_angle: float, t: float, pose: tuple[Vec3, Quat]) -> Cone:
    """The world-frame cone at time t of a camera-frame origin, axis and half-angle.

    The camera frame is the body frame, since no flag or config key sets
    camera extrinsics: the pose rotates and moves the origin and rotates the axis.
    """
    position, orientation = pose
    rows = quat_to_matrix(orientation)
    o0, o1, o2 = origin
    a0, a1, a2 = axis
    world = [r0 * o0 + r1 * o1 + r2 * o2 + p for (r0, r1, r2), p in zip(rows, position)]
    x, y, z = (r0 * a0 + r1 * a1 + r2 * a2 for r0, r1, r2 in rows)
    n = math.sqrt(x * x + y * y + z * z)
    return Cone(world, (x / n, y / n, z / n), half_angle, Frame.WORLD, t)
