"""Independent reference implementations used to check the production code.

Everything here is deliberately written with a different formulation than
the library (vectorized half-plane geometry instead of per-point angle
arithmetic, exhaustive enumeration instead of greedy scans) so agreement
is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import nnls

from radloc.geometry import perpendicular_unit
from radloc.initializer import Mode, cost_and_gradient


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
    the active half-space constraints axis . (p - origin) >= 0.
    """
    p = np.asarray(p, dtype=float)
    free = slice(0, 2) if problem.mode is Mode.TWO_D else slice(0, 3)
    _, g = cost_and_gradient(p, problem.cones)
    a = np.array([c.axis for c in problem.cones])
    b = np.array([float(np.dot(c.axis, c.origin)) for c in problem.cones])
    active = (a @ p - b) < 1e-6
    if not np.any(active):
        return float(np.linalg.norm(g[free]))
    return float(nnls(a[active][:, free].T, g[free])[1])


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
