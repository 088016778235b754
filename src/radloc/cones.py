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
        surface = ell * np.sin(np.arctan2(perp_norm, axial) - self.half_angles)
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

    def distance_and_gradient(
        self, points: np.ndarray, eps: float = 1e-9
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and their gradients, with nonsmooth points nudged.

        The distance has kinks at the apex, on the axis, and on the apex
        plane between the behind-apex and surface expressions; there the
        point is moved by a deterministic eps (along a fixed perpendicular
        of the axis at the apex and on the axis, along the axis on the
        apex plane) to pick one one-sided derivative. Behind the apex
        plane the gradient is the unit apex offset.
        """
        u = self._offsets(points)
        ell, axial, perp_norm = self._coordinates(u)
        dist = np.abs(self._signed(ell, axial, perp_norm))
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
        uhat = u / ell[..., None]
        alpha = np.arctan2(perp_norm, axial)
        beta = alpha - self.half_angles
        sin_beta = np.sin(beta)
        sign = np.where(sin_beta >= 0.0, 1.0, -1.0)
        # d(ell)/dp = uhat, d(alpha)/dp = -(axis - cos(alpha) uhat)/(ell sin(alpha));
        # sin(alpha) vanishes only behind the apex, where this branch is unused
        with np.errstate(divide="ignore", invalid="ignore"):
            tilt = (sign * np.cos(beta) / np.sin(alpha))[..., None]
            surface = (sign * sin_beta)[..., None] * uhat - tilt * (
                self.axes - np.cos(alpha)[..., None] * uhat
            )
        return dist, np.where(behind[..., None], uhat, surface)

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
