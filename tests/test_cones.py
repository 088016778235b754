import math
from collections import Counter

import numpy as np
import pytest

from radloc.cones import (
    ConeBatch,
    ProjectionCase,
    distance_to_cone,
    project_to_cone,
    surface_normal,
)
from radloc.geometry import Cone, Frame, unit

from oracles import (
    cone_distance_reference,
    planar_cone_distance,
    project_to_cone_reference,
    rotation_matrix,
    surface_points,
)

UP = np.array([0.0, 0.0, 1.0])


def upcone(theta=math.pi / 4):
    return Cone(np.zeros(3), UP, theta, Frame.WORLD)


def random_cone(rng):
    # the printed case split (behind-apex -> apex distance, alpha >= pi/2
    # -> apex projection) is only self-consistent for half-angles below a
    # right angle; wider cones are pinned in a dedicated test below
    return Cone(
        rng.normal(size=3) * 3.0,
        unit(rng.normal(size=3)),
        rng.uniform(0.1, math.pi / 2 - 0.05),
        Frame.WORLD,
    )


# --- distance ---


def test_distance_on_surface_is_zero():
    assert distance_to_cone(np.array([1.0, 0.0, 1.0]), upcone()) == pytest.approx(0.0, abs=1e-15)


def test_distance_behind_apex_is_apex_distance():
    assert distance_to_cone(np.array([0.0, 0.0, -2.0]), upcone()) == 2.0


def test_distance_axial_plane_value():
    # distance from (0.5, 1) to the line z = x in the axial plane
    got = distance_to_cone(np.array([0.5, 0.0, 1.0]), upcone())
    assert got == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-12)
    assert got == pytest.approx(0.35355, abs=5e-6)


def test_distance_at_apex_is_zero():
    assert distance_to_cone(np.zeros(3), upcone()) == 0.0


def test_distance_matches_reference_formulation():
    rng = np.random.default_rng(42)
    for _ in range(300):
        cone = random_cone(rng)
        p = cone.origin + rng.normal(size=3) * 4.0
        want = cone_distance_reference(p, cone.origin, cone.axis, cone.half_angle)[0]
        assert distance_to_cone(p, cone) == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_distance_planar_oracle_axial_cases():
    # points constructed in a known axial plane of random cones
    rng = np.random.default_rng(17)
    for _ in range(200):
        cone = random_cone(rng)
        w = unit(np.cross(cone.axis, unit(rng.normal(size=3))))
        t = rng.uniform(0.0, 5.0)  # in front of the apex plane
        rho = rng.uniform(0.0, 5.0)
        p = np.asarray(cone.origin) + t * np.asarray(cone.axis) + rho * np.asarray(w)
        want = planar_cone_distance(rho, t, cone.half_angle)
        assert distance_to_cone(p, cone) == pytest.approx(want, abs=1e-9)


def test_signed_deviation_sign():
    points = np.array([[0.9, 0.0, 0.1], [0.1, 0.0, 0.9], [1.0, 0.0, 1.0]])
    outside, inside, on_surface = ConeBatch.of([upcone()]).signed_deviation(points)[:, 0]
    assert outside > 0  # wide of the surface
    assert inside < 0
    assert abs(on_surface) < 1e-15
    # magnitude always matches the unsigned distance
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = random_cone(rng)
        p = c.origin + rng.normal(size=3) * 3.0
        got = ConeBatch.of([c]).signed_deviation(p)[0]
        assert abs(got) == pytest.approx(distance_to_cone(p, c), abs=1e-15)


# --- projection ---


def test_project_point_on_surface_is_fixed():
    x = np.array([1.0, 0.0, 1.0])
    res = project_to_cone(x, upcone())
    assert res.case is ProjectionCase.SURFACE
    assert np.allclose(res.point, [1.0, 0.0, 1.0], atol=1e-12)
    assert math.dist(x, res.point) == pytest.approx(0.0, abs=1e-12)


def test_project_behind_apex_maps_to_apex():
    x = np.array([0.0, 0.0, -1.0])
    res = project_to_cone(x, upcone())
    assert res.case is ProjectionCase.APEX
    assert np.allclose(res.point, np.zeros(3))
    assert res.alpha == pytest.approx(math.pi, abs=1e-12)
    assert math.dist(x, res.point) == 1.0


def test_project_axial_plane_value():
    res = project_to_cone(np.array([0.5, 0.0, 1.0]), upcone())
    assert res.case is ProjectionCase.SURFACE
    assert np.allclose(res.point, [0.75, 0.0, 0.75], atol=1e-12)


def test_project_on_axis_deterministic():
    res = project_to_cone(np.array([0.0, 0.0, 2.0]), upcone())
    assert res.case is ProjectionCase.ON_AXIS
    assert np.linalg.norm(res.point) == pytest.approx(2.0 * math.cos(math.pi / 4), abs=1e-12)
    # azimuth fixed by the world x-axis convention
    assert res.point[0] > 0.0
    assert res.point[1] == pytest.approx(0.0, abs=1e-15)
    again = project_to_cone(np.array([0.0, 0.0, 2.0]), upcone())
    assert np.array_equal(res.point, again.point)


def test_project_apex_input():
    res = project_to_cone(np.zeros(3), upcone())
    assert res.case is ProjectionCase.ON_AXIS
    assert np.allclose(res.point, np.zeros(3))
    assert res.alpha == 0.0
    assert res.beta == -math.pi / 4


def test_project_wide_cone_behind_foot_clamps_to_apex():
    # half-angle past a right angle: the generator foot of a point near the
    # axis lands behind the apex, so the apex is the nearest surface point
    cone = Cone(np.zeros(3), UP, 2.0, Frame.WORLD)
    res = project_to_cone(np.array([0.0 + 1e-3, 0.0, 1.0]), cone)
    assert res.case is ProjectionCase.APEX


def test_projection_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(300):
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        res = project_to_cone(x, cone)
        res2 = project_to_cone(res.point, cone)
        assert np.linalg.norm(np.subtract(res2.point, res.point)) < 1e-9


def test_projection_lands_on_surface():
    rng = np.random.default_rng(2)
    for _ in range(300):
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        res = project_to_cone(x, cone)
        assert distance_to_cone(res.point, cone) < 1e-9


def test_projection_agrees_with_distance():
    # |x - x'| equals the analytic distance on the surface branch
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 300:
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        res = project_to_cone(x, cone)
        if res.case is not ProjectionCase.SURFACE or not -math.pi / 2 < res.beta < math.pi / 2:
            continue
        assert np.linalg.norm(x - res.point) == pytest.approx(
            distance_to_cone(x, cone), abs=1e-9, rel=1e-9
        )
        checked += 1


def test_projection_minimality_against_sampling():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        res = project_to_cone(x, cone)
        if res.case is not ProjectionCase.SURFACE:
            continue
        reach = 3.0 * (np.linalg.norm(x - cone.origin) + 1.0)
        samples = surface_points(
            cone.origin,
            cone.axis,
            cone.half_angle,
            rng.uniform(0.0, reach, size=2000),
            rng.uniform(0.0, 2 * math.pi, size=2000),
        )
        best = float(np.min(np.linalg.norm(samples - x, axis=1)))
        assert np.linalg.norm(x - res.point) <= best + 1e-7
        checked += 1


def test_projection_orthogonality():
    # residual perpendicular to both tangent directions at the foot
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 200:
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        res = project_to_cone(x, cone)
        if res.case is not ProjectionCase.SURFACE or math.dist(x, res.point) < 1e-6:
            continue
        r = x - res.point
        gen = unit(np.subtract(res.point, cone.origin))
        azim = unit(np.cross(cone.axis, np.subtract(res.point, cone.origin)))
        assert abs(np.dot(r, gen)) < 1e-9 * np.linalg.norm(r)
        assert abs(np.dot(r, azim)) < 1e-9 * np.linalg.norm(r)
        checked += 1


def test_projection_rotation_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(100):
        cone = random_cone(rng)
        x = cone.origin + rng.normal(size=3) * 4.0
        R = rotation_matrix(unit(rng.normal(size=3)), rng.uniform(-math.pi, math.pi))
        rotated = Cone(
            cone.origin, R @ cone.axis / np.linalg.norm(R @ cone.axis), cone.half_angle, Frame.WORLD
        )
        x_rot = cone.origin + R @ (x - cone.origin)
        res = project_to_cone(x, cone)
        res_rot = project_to_cone(x_rot, rotated)
        want = cone.origin + R @ np.subtract(res.point, cone.origin)
        if res.case is ProjectionCase.SURFACE:
            assert np.linalg.norm(res_rot.point - want) < 1e-9
        assert math.dist(x_rot, res_rot.point) == pytest.approx(math.dist(x, res.point), abs=1e-9)


# --- surface helpers ---


def test_projection_is_bit_identical_to_the_split_reference():
    # every branch over seeded points: the apex itself, behind the apex
    # plane, on the axis, inside a cone wider than pi/2 (the generator foot
    # behind the apex) and the plain surface case; the point, alpha and beta
    # must agree to the last bit and the case must be the same member
    rng = np.random.default_rng(28)
    seen = Counter()
    for i in range(2000):
        kind = ("apex", "behind", "on_axis", "wide_foot", "surface")[i % 5]
        axis = unit(rng.normal(size=3))
        origin = tuple(rng.normal(size=3) * 10.0)
        half_angle = rng.uniform(math.pi / 2 + 0.05, math.pi - 0.05) if kind == "wide_foot" else rng.uniform(0.05, 1.5)
        cone = Cone(origin, axis, half_angle, Frame.WORLD)
        reach = 10.0 ** rng.uniform(-2.0, 2.0)
        if kind == "apex":
            x = origin
        elif kind == "behind":
            d = unit(rng.normal(size=3))
            x = np.add(origin, reach * np.sign(-np.dot(d, axis)) * np.asarray(d))
        elif kind == "on_axis":
            x = [o + reach * a for o, a in zip(origin, axis)]
        elif kind == "wide_foot":
            # inside the cone at alpha < half_angle - pi / 2, so that cos(beta) < 0
            x = surface_points(origin, axis, rng.uniform(0.0, half_angle - math.pi / 2), [reach],
                               [rng.uniform(0.0, 2.0 * math.pi)])[0]
        else:
            x = surface_points(origin, axis, half_angle, [reach], [rng.uniform(0.0, 2.0 * math.pi)])[0]
            x = x + rng.normal(size=3) * reach * 0.3
        point, case, alpha, beta = project_to_cone_reference(x, cone)
        res = project_to_cone(x, cone)
        assert res.case is case, (kind, x, cone)
        assert [c.hex() for c in (*res.point, res.alpha, res.beta)] == [
            c.hex() for c in (*point, alpha, beta)
        ], (kind, x, cone)
        seen[kind, case] += 1
    assert seen["apex", ProjectionCase.ON_AXIS] == 400, seen
    assert seen["behind", ProjectionCase.APEX] == 400, seen
    assert seen["on_axis", ProjectionCase.ON_AXIS] == 400, seen
    assert seen["wide_foot", ProjectionCase.APEX] == 400, seen
    assert seen["surface", ProjectionCase.SURFACE] >= 300, seen


def test_surface_normal_orthogonal_to_tangents():
    rng = np.random.default_rng(9)
    for _ in range(100):
        cone = random_cone(rng)
        r, az = rng.uniform(0.5, 5.0), rng.uniform(0, 2 * math.pi)
        p = surface_points(cone.origin, cone.axis, cone.half_angle, [r], [az])[0]
        n = surface_normal(p, cone)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        gen = unit(p - cone.origin)
        azim = unit(np.cross(cone.axis, p - cone.origin))
        assert abs(np.dot(n, gen)) < 1e-12
        assert abs(np.dot(n, azim)) < 1e-12
        # outward: stepping along the normal leaves the cone
        assert ConeBatch.of([cone]).signed_deviation(p + 1e-6 * np.asarray(n))[0] > 0


def test_surface_normal_undefined_cases():
    cone = upcone()
    with pytest.raises(ValueError):
        surface_normal(np.zeros(3), cone)
    with pytest.raises(ValueError):
        surface_normal(np.array([0.0, 0.0, 3.0]), cone)


def test_wide_cone_clips_to_apex():
    # for half-angles past a right angle the surface lies behind the apex
    # plane, where the distance is charged to the apex and re-projection
    # collapses there; this asymmetry is deliberate
    cone = Cone(np.zeros(3), UP, 2.0, Frame.WORLD)
    x = np.array([1.0, 0.0, 0.5])  # alpha < pi/2
    res = project_to_cone(x, cone)
    assert res.case is ProjectionCase.SURFACE
    assert np.dot(res.point, UP) < 0.0
    assert distance_to_cone(res.point, cone) == pytest.approx(
        np.linalg.norm(res.point), abs=1e-12
    )
    again = project_to_cone(res.point, cone)
    assert again.case is ProjectionCase.APEX
