"""Point-to-cone distance and orthogonal projection onto a cone surface.

A cone here is always the single nap emanating from its apex. These two
operations are the measurement model for everything downstream: the
initializer minimizes squared distances, computed with their gradients
by the ConeBatch kernel over many points and cones at once; the tracking
filter corrects toward the projected point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import Cone, perpendicular_unit


class ProjectionCase(Enum):
    """Which branch produced the projected point."""

    SURFACE = "surface"
    APEX = "apex"
    ON_AXIS = "on_axis"


@dataclass(frozen=True)
class ProjectionResult:
    """Projected point with the diagnostic angles of the construction.

    alpha is the angle between the apex-to-point offset and the cone
    axis; beta = alpha - half_angle is the rotation that carries the
    point onto the surface.
    """

    point: np.ndarray
    case: ProjectionCase
    alpha: float
    beta: float
    distance: float


def _split(point: np.ndarray, cone: Cone) -> tuple[float, float, float, float, float, float]:
    """Apex offset length, axial coordinate, off-axis offset and its length, on floats."""
    px, py, pz = np.asarray(point, dtype=float).tolist()
    ox, oy, oz = cone.origin.tolist()
    ax, ay, az = cone.axis.tolist()
    ux, uy, uz = px - ox, py - oy, pz - oz
    axial = ax * ux + ay * uy + az * uz
    wx, wy, wz = ux - axial * ax, uy - axial * ay, uz - axial * az
    return math.hypot(ux, uy, uz), axial, wx, wy, wz, math.hypot(wx, wy, wz)


@dataclass(frozen=True)
class ConeBatch:
    """N cones as arrays: the one kernel for distance and its gradient.

    Every method broadcasts over points of shape (..., 3) and returns one
    value per point and cone, shape (..., N), or one gradient, shape
    (..., N, 3): a single point of shape (3,) gives one row per cone.
    """

    origins: np.ndarray  # (N, 3)
    axes: np.ndarray  # (N, 3), unit
    half_angles: np.ndarray  # (N,)

    @classmethod
    def of(cls, cones: Sequence[Cone] | ConeBatch) -> ConeBatch:
        """Stack a sequence of cones; a batch is returned as it is."""
        if isinstance(cones, ConeBatch):
            return cones
        return cls(
            np.array([c.origin for c in cones], dtype=float).reshape(-1, 3),
            np.array([c.axis for c in cones], dtype=float).reshape(-1, 3),
            np.array([c.half_angle for c in cones], dtype=float),
        )

    def _offsets(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float)[..., None, :] - self.origins

    def _coordinates(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Length, axial coordinate and off-axis distance of apex offsets u."""
        a = self.axes
        ell = np.sqrt(np.einsum("...i,...i->...", u, u))
        axial = np.einsum("...i,...i->...", u, a)
        # |axis x u|, written out: np.cross costs more than the arithmetic here
        c0 = a[:, 1] * u[..., 2] - a[:, 2] * u[..., 1]
        c1 = a[:, 2] * u[..., 0] - a[:, 0] * u[..., 2]
        c2 = a[:, 0] * u[..., 1] - a[:, 1] * u[..., 0]
        return ell, axial, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)

    def _signed(self, ell: np.ndarray, axial: np.ndarray, perp_norm: np.ndarray) -> np.ndarray:
        # |u| sin(alpha - T), expanded
        cos_t, sin_t = self._cos_sin
        surface = perp_norm * cos_t - axial * sin_t
        return np.where(ell < 1e-15, 0.0, np.where(axial < 0.0, ell, surface))

    def signed_deviation(self, points: np.ndarray) -> np.ndarray:
        """Signed surface offset: positive outside the cone, negative inside.

        Points behind the apex plane (axis . (p - o) < 0) count as outside
        and are charged the full distance to the apex; elsewhere the
        offset is |p - o| * sin(alpha - half_angle). The apex itself is 0.
        """
        return self._signed(*self._coordinates(self._offsets(points)))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Shortest distance to each cone, as used by the solver."""
        return np.abs(self.signed_deviation(points))

    def derivatives(
        self, points: np.ndarray, eps: float = 1e-9
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distances, their gradients and curvature terms, with nonsmooth points nudged.

        The distance has kinks at the apex, on the axis, and on the apex
        plane between the behind-apex and surface expressions; there the
        point is moved by a deterministic eps (along a fixed perpendicular
        of the axis at the apex and on the axis, along the axis on the
        apex plane) to pick one one-sided derivative, and the distance is
        taken at the moved point too. Behind the apex plane the gradient
        is the unit apex offset.

        The curvature terms, shape (..., 3, 3), sum d * Hessian(d) over
        the cones; with J^T J they add up to half the Hessian of the
        summed squared distance. Ahead of the apex plane d = |s| with
        s = |axis x u| cos(T) - (axis . u) sin(T), so
        d * Hessian(d) = s cos(T) / |axis x u|^3 (axis x u)(axis x u)^T:
        convex where that coefficient is positive (outside a cone narrower
        than a half-space, inside a wider one), concave elsewhere. Behind
        the plane d = |u| and d * Hessian(d) = I - uhat uhat^T, convex.
        Returns distances, gradients, the convex sum and the concave sum;
        J^T J plus the convex sum is positive semidefinite.
        """
        u = self._offsets(points)
        ell, axial, perp_norm = self._coordinates(u)
        at_apex = ell < 1e-12
        if at_apex.any():
            u = np.where(at_apex[..., None], u + eps * self._perpendiculars, u)
            ell, axial, perp_norm = self._coordinates(u)
        on_plane = np.abs(axial) < 1e-12 * np.maximum(ell, 1.0)
        if on_plane.any():
            u = np.where(on_plane[..., None], u + eps * self.axes, u)
            ell, axial, perp_norm = self._coordinates(u)
        behind = axial < 0.0
        on_axis = ~behind & (perp_norm < 1e-12 * ell)
        if on_axis.any():
            u = np.where(on_axis[..., None], u + eps * self._perpendiculars, u)
            ell, axial, perp_norm = self._coordinates(u)
        cos_t, sin_t = self._cos_sin
        a = self.axes
        uhat = u / ell[..., None]
        cross = np.stack(
            [
                a[:, 1] * u[..., 2] - a[:, 2] * u[..., 1],
                a[:, 2] * u[..., 0] - a[:, 0] * u[..., 2],
                a[:, 0] * u[..., 1] - a[:, 1] * u[..., 0],
            ],
            axis=-1,
        )
        signed = perp_norm * cos_t - axial * sin_t
        dist = np.where(behind, ell, np.abs(signed))
        # ahead of the plane perp_norm > 0, the axis having been nudged off;
        # the unit radial direction is d(perp_norm)/dp
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = (u - axial[..., None] * a) / perp_norm[..., None]
            weight = np.where(behind, 0.0, signed * cos_t / perp_norm**3)
        surface = np.where(signed >= 0.0, 1.0, -1.0)[..., None] * (
            cos_t[:, None] * radial - sin_t[:, None] * a
        )
        back = behind.astype(float)
        cross_t = np.swapaxes(cross, -1, -2)
        convex = (cross_t * np.maximum(weight, 0.0)[..., None, :]) @ cross
        convex -= (np.swapaxes(uhat, -1, -2) * back[..., None, :]) @ uhat
        convex += back.sum(axis=-1)[..., None, None] * np.eye(3)
        concave = (cross_t * np.minimum(weight, 0.0)[..., None, :]) @ cross
        return dist, np.where(behind[..., None], uhat, surface), convex, concave

    @cached_property
    def _cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cos(self.half_angles), np.sin(self.half_angles)

    @cached_property
    def _perpendiculars(self) -> np.ndarray:
        """Each axis's deterministic perpendicular, the nudge direction at kinks."""
        return np.array([perpendicular_unit(a) for a in self.axes]).reshape(-1, 3)


def distance_to_cone(point: np.ndarray, cone: Cone) -> float:
    """Shortest distance from a point to the cone, as used by the solver.

    Points behind the apex plane (axis . (p - o) < 0) are charged the full
    distance to the apex; elsewhere the perpendicular drop onto the
    surface, |p - o| * |sin(alpha - half_angle)|.
    """
    return float(ConeBatch.of([cone]).distance(point)[0])


def project_to_cone(x: np.ndarray, cone: Cone) -> ProjectionResult:
    """Orthogonally project a point onto the cone surface.

    Surface case (alpha < pi/2): x' = o + |x - o| * cos(beta) * v, with v
    the unit surface generator in the plane spanned by the axis and the
    point. Points at alpha >= pi/2 map to the apex. On the axis the
    azimuth is undetermined; a fixed perpendicular (world x-axis
    projected off the axis) makes the result deterministic, tagged
    ON_AXIS. A cone opened past a right angle can put the generator foot
    behind the apex (cos(beta) <= 0); the apex is then nearest.
    """
    x = np.asarray(x, dtype=float)
    ell, axial, wx, wy, wz, perp_norm = _split(x, cone)
    if ell < 1e-15:
        # apex is itself a surface point; azimuth meaningless
        return ProjectionResult(cone.origin.copy(), ProjectionCase.ON_AXIS, 0.0, -cone.half_angle, 0.0)

    alpha = math.atan2(perp_norm, axial)
    beta = alpha - cone.half_angle

    if alpha >= 0.5 * math.pi:
        return ProjectionResult(cone.origin.copy(), ProjectionCase.APEX, alpha, beta, ell)

    case = ProjectionCase.SURFACE
    if perp_norm < 1e-12 * ell:
        wx, wy, wz = perpendicular_unit(cone.axis).tolist()
        case = ProjectionCase.ON_AXIS
    else:
        wx, wy, wz = wx / perp_norm, wy / perp_norm, wz / perp_norm

    along = ell * math.cos(beta)
    if along <= 0.0:
        return ProjectionResult(cone.origin.copy(), ProjectionCase.APEX, alpha, beta, ell)

    c, s = math.cos(cone.half_angle), math.sin(cone.half_angle)
    (ox, oy, oz), (ax, ay, az) = cone.origin.tolist(), cone.axis.tolist()
    qx = ox + along * (c * ax + s * wx)
    qy = oy + along * (c * ay + s * wy)
    qz = oz + along * (c * az + s * wz)
    px, py, pz = x.tolist()
    gap = math.hypot(px - qx, py - qy, pz - qz)
    return ProjectionResult(np.array([qx, qy, qz]), case, alpha, beta, gap)


def surface_normal(point: np.ndarray, cone: Cone) -> np.ndarray:
    """Outward unit normal of the cone surface at a point on (or near) it.

    Defined wherever the point has a resolvable azimuth about the axis.
    Used by the filter when a zero-length innovation still carries
    directional information.
    """
    ell, _, wx, wy, wz, perp_norm = _split(point, cone)
    if ell < 1e-15:
        raise ValueError("normal undefined at the apex")
    if perp_norm < 1e-12 * ell:
        raise ValueError("normal undefined on the axis")
    wx, wy, wz = wx / perp_norm, wy / perp_norm, wz / perp_norm
    c, s = math.cos(cone.half_angle), math.sin(cone.half_angle)
    ax, ay, az = cone.axis.tolist()
    return np.array([c * wx - s * ax, c * wy - s * ay, c * wz - s * az])


__all__ = [
    "ConeBatch",
    "ProjectionCase",
    "ProjectionResult",
    "distance_to_cone",
    "project_to_cone",
    "surface_normal",
]
