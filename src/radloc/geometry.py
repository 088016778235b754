"""Core 3D geometry: vectors, rotations, poses, and the cone primitive.

Conventions: column-free numpy arrays of shape (3,), quaternions are
unit-norm and w-first (w, x, y, z), all rotations are active.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MalformedInputError, PoseExtrapolationError

_UNIT_TOL = 1e-9


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector; raises on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-15:
        raise MalformedInputError("cannot normalize a zero-length vector")
    return v / n


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, written out on floats: np.cross's bits, far cheaper."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def rotate_about_axis(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v about a unit axis by angle (right-hand rule)."""
    v = np.asarray(v, dtype=float)
    k = unit(axis)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + cross(k, v) * s + k * float(np.dot(k, v)) * (1.0 - c)


def perpendicular_unit(v: np.ndarray) -> np.ndarray:
    """A deterministic unit vector perpendicular to v.

    Projects the world x-axis onto the plane normal to v, falling back to
    the world y-axis when v is (anti)parallel to x.
    """
    v = unit(v)
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        w = basis - v * float(np.dot(basis, v))
        n = float(np.linalg.norm(w))
        if n > 1e-6:
            return w / n
    raise MalformedInputError("could not construct a perpendicular vector")


# --- Quaternions (w-first) ---


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = float(np.linalg.norm(q))
    if n < 1e-15:
        raise MalformedInputError("zero quaternion")
    return q / n


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    k = unit(axis)
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * k))


def quat_slerp(q0: np.ndarray, q1: np.ndarray, t: float) -> np.ndarray:
    """Shortest-arc spherical interpolation between unit quaternions."""
    q0 = quat_normalize(q0)
    q1 = quat_normalize(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 0.9995:
        # nearly identical: lerp + renormalize avoids sin(theta) ~ 0
        return quat_normalize(q0 + t * (q1 - q0))
    theta = math.acos(min(1.0, dot))
    s0 = math.sin((1.0 - t) * theta) / math.sin(theta)
    s1 = math.sin(t * theta) / math.sin(theta)
    return s0 * q0 + s1 * q1


class Frame(str, Enum):
    """Reference frame tag for cones."""

    CAMERA = "C"
    WORLD = "W"


@dataclass
class Cone:
    """One Compton measurement: all source directions consistent with an event.

    The surface is the single nap {origin + t * v : t >= 0, angle(v, axis)
    = half_angle}. Origin finite, in meters, axis a unit vector, half_angle
    in radians within (0, pi).
    """

    origin: np.ndarray
    axis: np.ndarray
    half_angle: float
    frame: Frame = Frame.CAMERA
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float).reshape(3).copy()
        self.axis = np.asarray(self.axis, dtype=float).reshape(3).copy()
        # checked on floats: np.isfinite and np.linalg.norm cost several times more
        if not all(map(math.isfinite, self.origin.tolist())):
            raise MalformedInputError(f"cone origin must be finite, got {self.origin.tolist()!r}")
        # "not <=" so that a NaN norm fails too
        n = math.hypot(*self.axis.tolist())
        if not abs(n - 1.0) <= _UNIT_TOL:
            raise MalformedInputError(f"cone axis must be unit length, got |axis| = {n!r}")
        if not (0.0 < self.half_angle < math.pi):
            raise MalformedInputError(f"cone half-angle out of (0, pi): {self.half_angle!r}")
        self.frame = Frame(self.frame)


@dataclass
class Pose:
    """Timestamped rigid pose of the vehicle body in the world frame."""

    timestamp: float
    position: np.ndarray
    orientation: np.ndarray  # unit quaternion, w-first

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3).copy()
        if not all(map(math.isfinite, self.position.tolist())):
            raise MalformedInputError(f"pose position must be finite, got {self.position.tolist()!r}")
        q = np.asarray(self.orientation, dtype=float).reshape(4).copy()
        n = float(np.linalg.norm(q))
        if not abs(n - 1.0) <= 1e-6:
            raise MalformedInputError(f"orientation quaternion not unit norm: {n!r}")
        self.orientation = q / n

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)


def interpolate_pose(stream: list[Pose], t: float) -> Pose:
    """Pose at time t from a time-ordered stream.

    Position is interpolated linearly, orientation by slerp between the
    bracketing samples; an exact timestamp match returns that sample.
    Raises PoseExtrapolationError outside [first, last].
    """
    if not stream:
        raise MalformedInputError("empty pose stream")
    times = [p.timestamp for p in stream]
    if t < times[0] or t > times[-1]:
        raise PoseExtrapolationError(
            f"t = {t} outside pose stream range [{times[0]}, {times[-1]}]"
        )
    i = bisect_left(times, t)
    if i < len(times) and times[i] == t:
        p = stream[i]
        return Pose(p.timestamp, p.position.copy(), p.orientation.copy())
    lo, hi = stream[i - 1], stream[i]
    u = (t - lo.timestamp) / (hi.timestamp - lo.timestamp)
    pos = (1.0 - u) * lo.position + u * hi.position
    q = quat_slerp(lo.orientation, hi.orientation, u)
    return Pose(t, pos, q)


def transform_cone(cone: Cone, pose: Pose) -> Cone:
    """Map a camera-frame cone into the world frame.

    The camera frame is the body frame, since no flag or config key sets
    camera extrinsics: the pose rotates and moves the cone origin, rotates
    the axis, and leaves the half-angle untouched.
    """
    if cone.frame is not Frame.CAMERA:
        raise MalformedInputError("transform_cone expects a camera-frame cone")
    R_wb = pose.rotation()
    origin_w = R_wb @ cone.origin + pose.position
    axis_w = R_wb @ cone.axis
    axis_w = axis_w / float(np.linalg.norm(axis_w))
    return Cone(origin_w, axis_w, cone.half_angle, Frame.WORLD, pose.timestamp)


__all__ = [
    "Cone",
    "Frame",
    "Pose",
    "cross",
    "interpolate_pose",
    "perpendicular_unit",
    "quat_from_axis_angle",
    "quat_normalize",
    "quat_slerp",
    "quat_to_matrix",
    "rotate_about_axis",
    "transform_cone",
    "unit",
]
