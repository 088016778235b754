"""Core 3D geometry: vectors, pose streams, the cone primitive and the world-frame step.

Conventions: a 3-vector is a tuple of three Python floats, and so is
every vector a record here holds; quaternions are unit-norm and w-first
(w, x, y, z), and all rotations are active. The helpers accept any
sequence of numbers (a numpy array too) and return tuples: on one vector
at a time, numpy's per-call cost would outweigh the arithmetic. Use
np.asarray for array arithmetic on a record's fields. There are no
quaternion helpers: the world-frame step is inline float arithmetic.
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


class Frame(str, Enum):
    """Reference frame tag for cones."""

    CAMERA = "C"
    WORLD = "W"


# looked up once: an enum member lookup costs a sixth of a world cone's construction
_WORLD = Frame.WORLD


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
        self.origin, self.axis = vec3(self.origin), vec3(self.axis)
        _check(self.origin, self.axis, self.half_angle)
        if not isinstance(self.frame, Frame):
            self.frame = Frame(self.frame)


def _check(origin: Vec3, axis: Vec3, half_angle: float) -> None:
    """Cone's checks of origin, axis and half-angle, the vectors given as tuples of floats."""
    ox, oy, oz = origin
    if not (math.isfinite(ox) and math.isfinite(oy) and math.isfinite(oz)):
        raise MalformedInputError(f"cone origin must be finite, got {origin!r}")
    # "not <=" so that a NaN norm fails too
    n = math.hypot(*axis)
    if not abs(n - 1.0) <= _UNIT_TOL:
        raise MalformedInputError(f"cone axis must be unit length, got |axis| = {n!r}")
    if not (0.0 < half_angle < math.pi):
        raise MalformedInputError(f"cone half-angle out of (0, pi): {half_angle!r}")


def _world_cone(origin: Vec3, axis: Vec3, half_angle: float, t: float) -> Cone:
    """A world-frame Cone of fields in their stored form, without __post_init__: checked here once."""
    _check(origin, axis, half_angle)
    cone = object.__new__(Cone)
    cone.origin, cone.axis, cone.half_angle = origin, axis, half_angle
    cone.frame, cone.timestamp = _WORLD, t
    return cone


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
    times, positions, orientations = stream
    if not times:
        raise MalformedInputError("empty pose stream")
    if not times[0] <= t <= times[-1]:
        raise PoseExtrapolationError(f"t = {t} outside pose stream range [{times[0]}, {times[-1]}]")
    i = bisect_left(times, t)
    if times[i] == t:
        position, (w, x, y, z) = positions[i], orientations[i]
    else:
        t0, t1 = times[i - 1], times[i]
        u = (t - t0) / (t1 - t0)
        v = 1.0 - u
        (a0, a1, a2), (b0, b1, b2) = positions[i - 1], positions[i]
        position = v * a0 + u * b0, v * a1 + u * b1, v * a2 + u * b2
        (w0, x0, y0, z0), (w1, x1, y1, z1) = orientations[i - 1], orientations[i]
        dot = w0 * w1 + x0 * x1 + y0 * y1 + z0 * z1
        if dot < 0.0:  # q and -q are one rotation: take the shorter arc
            w1, x1, y1, z1, dot = -w1, -x1, -y1, -z1, -dot
        if dot > 0.9995:
            # nearly identical: lerp + renormalize avoids sin(theta) ~ 0
            w, x, y, z = w0 + u * (w1 - w0), x0 + u * (x1 - x0), y0 + u * (y1 - y0), z0 + u * (z1 - z0)
            n = math.sqrt(w * w + x * x + y * y + z * z)
            if n < 1e-15:
                raise MalformedInputError("zero quaternion")
            w, x, y, z = w / n, x / n, y / n, z / n
        else:
            theta = math.acos(min(1.0, dot))
            sin_theta = math.sin(theta)
            s0, s1 = math.sin(v * theta) / sin_theta, math.sin(u * theta) / sin_theta
            w, x, y, z = s0 * w0 + s1 * w1, s0 * x0 + s1 * x1, s0 * y0 + s1 * y1, s0 * z0 + s1 * z1
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-15:
        raise MalformedInputError("zero quaternion")
    return position, (w / n, x / n, y / n, z / n)


def transform_cone(origin: Vec3, axis: Vec3, half_angle: float, t: float, pose: tuple[Vec3, Quat]) -> Cone:
    """The world-frame cone at time t of a camera-frame origin, axis and half-angle.

    The camera frame is the body frame, since no flag or config key sets
    camera extrinsics: the pose rotates and moves the origin and rotates the axis,
    its quaternion used as given. Components given as numpy scalars are stored as floats.
    """
    (p0, p1, p2), (w, x, y, z) = pose
    xx, yy, zz, xy, xz, yz, wx, wy, wz = x * x, y * y, z * z, x * y, x * z, y * z, w * x, w * y, w * z
    r00, r01, r02 = 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)
    r10, r11, r12 = 2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)
    r20, r21, r22 = 2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)
    (o0, o1, o2), (a0, a1, a2) = origin, axis
    x, y, z = r00 * a0 + r01 * a1 + r02 * a2, r10 * a0 + r11 * a1 + r12 * a2, r20 * a0 + r21 * a1 + r22 * a2
    n = math.sqrt(x * x + y * y + z * z)
    world = (float(r00 * o0 + r01 * o1 + r02 * o2 + p0), float(r10 * o0 + r11 * o1 + r12 * o2 + p1),
             float(r20 * o0 + r21 * o1 + r22 * o2 + p2))
    return _world_cone(world, (float(x / n), float(y / n), float(z / n)), half_angle, t)


__all__ = [
    "Cone",
    "Frame",
    "PoseStream",
    "cross",
    "interpolate_pose",
    "perpendicular_unit",
    "transform_cone",
    "unit",
    "vec3",
]
