"""Core 3D geometry: vectors, rotations, pose streams, and the cone primitive.

Conventions: a 3-vector is a tuple of three Python floats, and so is
every vector a record here holds; quaternions are unit-norm and w-first
(w, x, y, z), all rotations are active, and a rotation matrix is the
tuple of its rows. The helpers accept any sequence of numbers (a numpy
array too) and return tuples: on one vector at a time, numpy's per-call
cost would outweigh the arithmetic. Use np.asarray for array arithmetic
on a record's fields.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import MalformedInputError, PoseExtrapolationError

_UNIT_TOL = 1e-9

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]


def vec3(v) -> Vec3:
    """v as a tuple of three floats; another length raises ValueError."""
    x, y, z = map(float, v)
    return x, y, z


def unit(v) -> Vec3:
    """Normalize a vector; raises on (near-)zero input."""
    x, y, z = map(float, v)
    n = math.hypot(x, y, z)
    if n < 1e-15:
        raise MalformedInputError("cannot normalize a zero-length vector")
    return x / n, y / n, z / n


def cross(a, b) -> Vec3:
    """Cross product of two 3-vectors."""
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def perpendicular_unit(v) -> Vec3:
    """A deterministic unit vector perpendicular to v.

    Projects the world x-axis onto the plane normal to v, falling back to
    the world y-axis when v is (anti)parallel to x.
    """
    v = unit(v)
    for i, basis in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))):
        w = [b - vj * v[i] for b, vj in zip(basis, v)]  # basis . v is v[i]
        n = math.hypot(*w)
        if n > 1e-6:
            return w[0] / n, w[1] / n, w[2] / n
    raise MalformedInputError("could not construct a perpendicular vector")


# --- Quaternions (w-first) ---


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


class Frame(str, Enum):
    """Reference frame tag for cones."""

    CAMERA = "C"
    WORLD = "W"


@dataclass
class Cone:
    """One Compton measurement: all source directions consistent with an event.

    The surface is the single nap {origin + t * v : t >= 0, angle(v, axis)
    = half_angle}. Origin finite, in meters, axis a unit vector, half_angle
    in radians within (0, pi). Origin and axis are stored as tuples of
    floats, whatever sequence they were given as.
    """

    origin: Vec3
    axis: Vec3
    half_angle: float
    frame: Frame = Frame.CAMERA
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        ox, oy, oz = map(float, self.origin)
        ax, ay, az = map(float, self.axis)
        self.origin, self.axis = (ox, oy, oz), (ax, ay, az)
        if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(oz)):
            raise MalformedInputError(f"cone origin must be finite, got {self.origin!r}")
        # "not <=" so that a NaN norm fails too
        n = math.hypot(ax, ay, az)
        if not abs(n - 1.0) <= _UNIT_TOL:
            raise MalformedInputError(f"cone axis must be unit length, got |axis| = {n!r}")
        if not (0.0 < self.half_angle < math.pi):
            raise MalformedInputError(f"cone half-angle out of (0, pi): {self.half_angle!r}")
        if not isinstance(self.frame, Frame):
            self.frame = Frame(self.frame)


class PoseStream(NamedTuple):
    """Vehicle poses in the world frame as three lists, times strictly increasing, orientations unit."""

    times: list[float]
    positions: list[Vec3]
    orientations: list[Quat]


def interpolate_pose(stream: PoseStream, t: float) -> tuple[Vec3, Quat]:
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


def transform_cone(origin: Vec3, axis: Vec3, half_angle: float, t: float, pose: tuple[Vec3, Quat]) -> Cone:
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


__all__ = [
    "Cone",
    "Frame",
    "PoseStream",
    "cross",
    "interpolate_pose",
    "perpendicular_unit",
    "quat_normalize",
    "quat_slerp",
    "quat_to_matrix",
    "transform_cone",
    "unit",
    "vec3",
]
