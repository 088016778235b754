import math
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest

from radloc.errors import MalformedInputError, PoseExtrapolationError
from radloc.geometry import (
    Cone,
    Frame,
    PoseStream,
    cross,
    interpolate_pose,
    perpendicular_unit,
    transform_cone,
    unit,
)
from radloc.simulator import _about_perpendicular

from oracles import (
    Pose,
    interpolate_pose_composed,
    interpolate_pose_reference,
    perpendicular_unit_reference,
    pose_stream,
    quat_from_axis_angle,
    quat_slerp,
    quat_to_matrix,
    rotate_about_axis,
    rotation_matrix,
    transform_cone_composed,
    transform_cone_reference,
)


def test_unit_normalizes():
    v = unit(np.array([3.0, 0.0, 4.0]))
    assert np.allclose(v, [0.6, 0.0, 0.8])
    with pytest.raises(MalformedInputError):
        unit(np.zeros(3))


def test_cross_is_bit_identical_to_numpy():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2000, 3)) * rng.lognormal(0.0, 5.0, size=(2000, 1))
    b = rng.normal(size=(2000, 3))
    for ai, bi in zip(a, b):
        assert np.array_equal(cross(ai, bi), np.cross(ai, bi))
    assert np.array_equal(cross([1.0, 0, 0], [0.0, 1, 0]), [0.0, 0.0, 1.0])


def test_about_perpendicular_quarter_turn():
    # x's perpendicular pair is (y, z): psi = pi/2 turns about z, taking x to y
    v = (1.0, 0.0, 0.0)
    w0 = perpendicular_unit(v)
    v = _about_perpendicular(v, w0, cross(v, w0), math.pi / 2, math.pi / 2)
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)


def test_rotation_matrix_matches_rodrigues():
    # the sampler's rotation about cos(psi) w0 + sin(psi) w1, against the
    # matrix form about the same axis
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = unit(rng.normal(size=3))
        w0 = perpendicular_unit(v)
        w1 = cross(v, w0)
        psi, angle = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-math.pi, math.pi)
        axis = math.cos(psi) * np.asarray(w0) + math.sin(psi) * np.asarray(w1)
        assert np.allclose(
            rotation_matrix(axis, angle) @ v, _about_perpendicular(v, w0, w1, psi, angle), atol=1e-12
        )
        # and bit for bit the generic Rodrigues rotation about that axis
        assert _about_perpendicular(v, w0, w1, psi, angle) == rotate_about_axis(v, axis, angle)


def test_perpendicular_unit_properties():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = unit(rng.normal(size=3))
        w = perpendicular_unit(v)
        assert abs(np.dot(v, w)) < 1e-12
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    # deterministic for repeated calls
    v = unit(np.array([0.3, -0.2, 0.9]))
    assert np.array_equal(perpendicular_unit(v), perpendicular_unit(v))
    # x-parallel input falls back to the y basis
    w = perpendicular_unit(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_perpendicular_unit_is_bit_identical_to_the_comprehension_reference():
    # float.hex tells every bit, a zero's sign too: seeded unit and
    # unnormalized vectors as tuples and as numpy rows, vectors with zero
    # entries, and the exactly x-parallel and anti-parallel ones (and a
    # nearly parallel one) that take the world y-axis fallback
    rng = np.random.default_rng(29)
    fallback = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (7.5, 0.0, -0.0), (1.0, 1e-9, 0.0), np.array([-2.0, 0.0, 0.0])]
    zeros = [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, -2.0, 0.0), (-0.0, 3.0, -0.0), (0.0, 1.0, 1.0)]
    scaled = rng.normal(size=(500, 3)) * rng.lognormal(0.0, 3.0, size=(500, 1))
    cases = fallback + zeros + [tuple(v.tolist()) for v in scaled] + list(rng.normal(size=(500, 3)))

    def bits(w):
        assert all(type(c) is float for c in w)
        return [float.hex(c) for c in w]

    for v in cases:
        assert bits(perpendicular_unit(v)) == bits(perpendicular_unit_reference(v)), v
    for v in fallback:
        assert abs(perpendicular_unit(v)[1]) > 0.999999
    for bad in (np.zeros(3), (math.nan, 0.0, 0.0)):
        for perpendicular in (perpendicular_unit, perpendicular_unit_reference):
            with pytest.raises(MalformedInputError):
                perpendicular(bad)


def test_quat_to_matrix_matches_axis_angle():
    rng = np.random.default_rng(19)
    for _ in range(50):
        axis = unit(rng.normal(size=3))
        angle = rng.uniform(-math.pi, math.pi)
        q = quat_from_axis_angle(axis, angle)
        assert np.allclose(quat_to_matrix(q), rotation_matrix(axis, angle), atol=1e-12)


def test_quat_slerp_endpoints_and_shortest_arc():
    q0 = quat_from_axis_angle(np.array([0.0, 0, 1]), 0.0)
    q1 = quat_from_axis_angle(np.array([0.0, 0, 1]), math.pi / 2)
    assert np.allclose(quat_slerp(q0, q1, 0.0), q0)
    assert np.allclose(quat_slerp(q0, q1, 1.0), q1)
    qm = quat_slerp(q0, q1, 0.5)
    assert np.allclose(quat_to_matrix(qm), rotation_matrix(np.array([0.0, 0, 1]), math.pi / 4), atol=1e-12)
    # q and -q are the same rotation; slerp must not take the long way
    qh = quat_slerp(q0, -np.asarray(q1), 0.5)
    assert np.allclose(quat_to_matrix(qh), quat_to_matrix(qm), atol=1e-12)


def test_cone_validation():
    with pytest.raises(MalformedInputError):
        Cone(np.zeros(3), np.array([0.0, 0, 2.0]), 0.5)
    with pytest.raises(MalformedInputError):
        Cone(np.zeros(3), np.array([0.0, 0, 1.0]), 0.0)
    with pytest.raises(MalformedInputError):
        Cone(np.zeros(3), np.array([0.0, 0, 1.0]), math.pi)
    # NaN compares false both ways, so each check must fail it explicitly
    for bad in (math.nan, math.inf):
        with pytest.raises(MalformedInputError):
            Cone(np.array([bad, 0.0, 0.0]), np.array([0.0, 0, 1.0]), 0.5)
        with pytest.raises(MalformedInputError):
            Cone(np.zeros(3), np.array([bad, 0, 1.0]), 0.5)
        with pytest.raises(MalformedInputError):
            Cone(np.zeros(3), np.array([0.0, 0, 1.0]), bad)
    c = Cone(np.zeros(3), np.array([0.0, 0, 1.0]), 0.5, frame="W")
    assert c.frame is Frame.WORLD


def test_records_store_tuples_of_floats():
    # numpy input is stored as plain floats, so record fields never carry arrays
    cone = Cone(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.6, 0.8]), 0.5, Frame.CAMERA, 1.0)
    stream = PoseStream([1.0, 2.0], [(4.0, 5.0, 6.0)] * 2, [(1.0, 0.0, 0.0, 0.0)] * 2)
    position, orientation = interpolate_pose(stream, 1.5)
    world = transform_cone(np.array(cone.origin), np.array(cone.axis), cone.half_angle, 1.5, (position, orientation))
    for v in (cone.origin, cone.axis, position, orientation, world.origin, world.axis):
        assert type(v) is tuple and all(type(c) is float for c in v)
    assert (len(cone.origin), len(cone.axis), len(position), len(orientation)) == (3, 3, 3, 4)


def test_interpolate_pose_exact_and_midpoint():
    stream = pose_stream([
        Pose(0.0, np.zeros(3), quat_from_axis_angle(np.array([0.0, 0, 1]), 0.0)),
        Pose(2.0, np.array([2.0, 0, 0]), quat_from_axis_angle(np.array([0.0, 0, 1]), math.pi / 2)),
    ])
    position, _ = interpolate_pose(stream, 2.0)
    assert np.allclose(position, [2.0, 0, 0])
    position, orientation = interpolate_pose(stream, 1.0)
    assert np.allclose(position, [1.0, 0, 0])
    assert np.allclose(
        quat_to_matrix(orientation), rotation_matrix(np.array([0.0, 0, 1]), math.pi / 4), atol=1e-12
    )


def test_interpolate_pose_rejects_extrapolation():
    stream = PoseStream([1.0], [(0.0, 0.0, 0.0)], [(1.0, 0.0, 0.0, 0.0)])
    with pytest.raises(PoseExtrapolationError):
        interpolate_pose(stream, 0.5)
    with pytest.raises(PoseExtrapolationError):
        interpolate_pose(stream, 1.5)
    with pytest.raises(MalformedInputError):
        interpolate_pose(PoseStream([], [], []), 0.0)


def random_pose_stream(rng, n, spin=None):
    """Random orientations, or with spin a steady turn of spin rad per sample
    (small turns take slerp's lerp branch)."""
    times = np.cumsum(rng.uniform(0.01, 0.2, size=n)).tolist()
    axis = unit(rng.normal(size=3))
    return [
        Pose(t, rng.normal(size=3) * 20.0,
             quat_from_axis_angle(axis, spin * k) if spin is not None
             else quat_from_axis_angle(unit(rng.normal(size=3)), rng.uniform(-math.pi, math.pi)))
        for k, t in enumerate(times)
    ]


def test_interpolate_pose_at_and_just_inside_the_ends():
    rng = np.random.default_rng(43)
    stream = random_pose_stream(rng, 50)
    poses = pose_stream(stream)
    first, last = stream[0], stream[-1]
    for sample in (first, last):
        position, orientation = interpolate_pose(poses, sample.timestamp)
        assert np.array_equal(position, sample.position)
        assert np.max(np.abs(np.subtract(orientation, sample.orientation))) <= 1e-15
    inside = (math.nextafter(first.timestamp, math.inf), math.nextafter(last.timestamp, -math.inf))
    for t, sample in zip(inside, (first, last)):
        (position, orientation), want = interpolate_pose(poses, t), interpolate_pose_reference(stream, t)
        position = np.asarray(position)
        assert np.max(np.abs(position - sample.position)) <= 1e-12 * np.linalg.norm(sample.position)
        assert np.max(np.abs(position - want.position)) <= 1e-12 * np.linalg.norm(want.position)
        assert np.max(np.abs(np.subtract(orientation, want.orientation))) <= 1e-15
    for t in (math.nextafter(first.timestamp, -math.inf), math.nextafter(last.timestamp, math.inf)):
        with pytest.raises(PoseExtrapolationError):
            interpolate_pose(poses, t)


def test_world_cones_match_numpy_reference():
    # world cones agree with the numpy formulation to rounding: BLAS may
    # fuse the multiply-adds of its norms and matrix products, Python does not
    rng = np.random.default_rng(47)
    for spin in (None, 0.01, 0.5) * 7:
        stream = random_pose_stream(rng, int(rng.integers(2, 200)), spin)
        poses = pose_stream(stream)
        # sample times: interior, and each pose's own timestamp
        t0, t1 = stream[0].timestamp, stream[-1].timestamp
        times = [*rng.uniform(t0, t1, size=50).tolist(), *(p.timestamp for p in stream[::7])]
        for t in times:
            cone = Cone(rng.normal(size=3) * 0.01, unit(rng.normal(size=3)), rng.uniform(0.1, 3.0),
                        Frame.CAMERA, t)
            got = transform_cone(cone.origin, cone.axis, cone.half_angle, t, interpolate_pose(poses, t))
            want = transform_cone_reference(cone, interpolate_pose_reference(stream, t))
            assert (got.timestamp, got.half_angle, got.frame) == (want.timestamp, want.half_angle, want.frame)
            assert np.max(np.abs(np.subtract(got.origin, want.origin))) <= 1e-12 * np.linalg.norm(want.origin)
            assert np.max(np.abs(np.subtract(got.axis, want.axis))) <= 1e-15


def _bits(*values):
    return tuple(map(float.hex, values))


def test_world_frame_step_matches_the_composed_helpers_to_the_last_bit():
    # the inline step runs the composed helpers' float operations in their
    # order, so every output float is equal, signed zeros included; each
    # case is tagged with the branch it takes, and every branch is taken
    rng = np.random.default_rng(53)
    taken = Counter()
    # random turns (slerp, half of them sign-flipped), 0.02 rad per sample as
    # in the benchmark's pose stream (lerp) and 0.5 rad (slerp); negating
    # every other quaternion, the same rotations, flips the sign of each dot
    for spin, negate in ((None, False), (0.02, False), (0.02, True), (0.5, False), (0.5, True)) * 8:
        stream = random_pose_stream(rng, int(rng.integers(2, 40)), spin)
        poses = pose_stream(stream)
        if negate:
            poses.orientations[1::2] = [tuple(-c for c in q) for q in poses.orientations[1::2]]
        t0, t1 = poses.times[0], poses.times[-1]
        inside = (math.nextafter(t0, math.inf), math.nextafter(t1, -math.inf))
        for t in (*rng.uniform(t0, t1, size=60).tolist(), *poses.times, *inside):
            i = bisect_left(poses.times, t)
            if poses.times[i] == t:
                taken["first" if i == 0 else "last" if i == len(poses.times) - 1 else "exact"] += 1
            else:
                dot = sum(a * b for a, b in zip(poses.orientations[i - 1], poses.orientations[i]))
                taken[("flipped " if dot < 0.0 else "") + ("lerp" if abs(dot) > 0.9995 else "slerp")] += 1
            origin, axis = (rng.normal(size=3) * 0.01).tolist(), unit(rng.normal(size=3))
            half_angle = float(rng.uniform(0.1, 3.0))
            pose, want_pose = interpolate_pose(poses, t), interpolate_pose_composed(poses, t)
            assert _bits(*pose[0], *pose[1]) == _bits(*want_pose[0], *want_pose[1])
            got = transform_cone(origin, axis, half_angle, t, pose)
            want = transform_cone_composed(origin, axis, half_angle, t, want_pose)
            assert got.frame is want.frame is Frame.WORLD
            assert (_bits(got.timestamp, *got.origin, *got.axis, got.half_angle)
                    == _bits(want.timestamp, *want.origin, *want.axis, want.half_angle))
    branches = {"first", "last", "exact", "lerp", "flipped lerp", "slerp", "flipped slerp"}
    assert set(taken) == branches and min(taken.values()) >= 40, taken
    assert sum(taken.values()) >= 3000, taken


def test_transform_cone_refuses_with_the_cone_messages():
    # the world cone is checked once, on the floats just computed, with the
    # checks and messages of Cone itself; a NaN quaternion makes every
    # rotated origin component NaN, so the origin check refuses it first,
    # and a NaN camera axis reaches the axis check
    origin, up, still = (0.01, 0.0, 0.002), (0.0, 0.0, 1.0), ((1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0))
    refused = [  # camera axis, half-angle, pose, and how Cone's message starts
        (up, 0.5, ((math.inf, 0.0, 0.0), still[1]), "cone origin must be finite"),
        (up, 0.5, ((0.0, math.nan, 0.0), still[1]), "cone origin must be finite"),
        (up, 0.5, (still[0], (math.nan, 0.0, 0.0, 0.0)), "cone origin must be finite"),
        ((math.nan, 0.0, 1.0), 0.5, still, "cone axis must be unit length, got |axis| = nan"),
        (up, 0.0, still, "cone half-angle out of (0, pi): 0.0"),
        (up, math.pi, still, "cone half-angle out of (0, pi)"),
    ]
    for axis, half_angle, pose, message in refused:
        with pytest.raises(MalformedInputError) as got:
            transform_cone(origin, axis, half_angle, 2.0, pose)
        with pytest.raises(MalformedInputError) as want:
            transform_cone_composed(origin, axis, half_angle, 2.0, pose)
        assert str(got.value) == str(want.value) and str(got.value).startswith(message)


def test_interpolate_pose_refuses_a_zero_quaternion_at_and_between_samples():
    zero = (0.0, 0.0, 0.0, 0.0)
    cases = [
        (PoseStream([0.0, 1.0], [(0.0, 0.0, 0.0)] * 2, [(1.0, 0.0, 0.0, 0.0), zero]), 1.0),  # exact match
        (PoseStream([0.0, 1.0], [(0.0, 0.0, 0.0)] * 2, [zero, zero]), 0.25),  # between samples
    ]
    for stream, t in cases:
        for step in (interpolate_pose, interpolate_pose_composed):
            with pytest.raises(MalformedInputError, match="^zero quaternion$"):
                step(stream, t)


def test_transform_cone_identity_pose():
    out = transform_cone((0.01, 0.0, 0.002), (0.0, 0.0, 1.0), 0.6, 7.0, ((10.0, -3.0, 5.0), (1.0, 0.0, 0.0, 0.0)))
    assert out.frame is Frame.WORLD
    assert out.timestamp == 7.0
    assert np.allclose(out.origin, [10.01, -3.0, 5.002])
    assert np.allclose(out.axis, [0.0, 0, 1.0])
    assert out.half_angle == 0.6


def test_transform_cone_rotation():
    # a 90 degree yaw turns the camera's +x into world +y, origin and axis alike
    yaw = quat_from_axis_angle(np.array([0.0, 0, 1.0]), math.pi / 2)
    out = transform_cone((0.1, 0.0, 0.02), (1.0, 0.0, 0.0), 0.4, 0.0, ((5.0, 0.0, 0.0), yaw))
    assert np.allclose(out.origin, [5.0, 0.1, 0.02], atol=1e-12)
    assert np.allclose(out.axis, [0.0, 1.0, 0.0], atol=1e-12)


def test_transform_cone_preserves_surface_membership():
    # a point on the camera-frame surface maps onto the world-frame surface
    rng = np.random.default_rng(23)
    from radloc.cones import distance_to_cone

    for _ in range(20):
        axis = unit(rng.normal(size=3))
        theta = rng.uniform(0.2, 1.2)
        cone = Cone(rng.normal(size=3) * 0.01, axis, theta, Frame.CAMERA)
        pose = Pose(
            0.0,
            rng.normal(size=3) * 5.0,
            quat_from_axis_angle(unit(rng.normal(size=3)), rng.uniform(-2, 2)),
        )
        w0 = perpendicular_unit(axis)
        gen = rotate_about_axis(axis, np.cross(axis, w0), theta)
        p_cam = np.asarray(cone.origin) + 3.0 * np.asarray(gen)
        out = transform_cone(cone.origin, cone.axis, cone.half_angle, 0.0, (pose.position, pose.orientation))
        p_world = np.asarray(quat_to_matrix(pose.orientation)) @ p_cam + pose.position
        assert distance_to_cone(p_world, out) < 1e-9
