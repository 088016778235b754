import math
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radloc.cones import ProjectionCase, project_to_cone
from radloc import estimator
from radloc.errors import InfeasibleInitError, MalformedInputError
from radloc.estimator import (
    Action,
    FilterState,
    NoiseConfig,
    SourceEstimator,
    correct,
    predict,
)
from radloc.geometry import Cone, Frame, unit
from radloc.initializer import Mode
from radloc.io import load_scenario
from radloc.simulator import run_scenario

from oracles import (
    check_reference,
    cone_normal_reference,
    correct_reference,
    kalman_cone_update_reference,
    packed,
    rows,
    surface_points,
)
from test_initializer import cone_through, exact_instance


def tracking_state(x, omega=None):
    """A filter state at x whose covariance is given as a symmetric 3x3 matrix, the identity by default."""
    return FilterState(
        x=np.asarray(x, dtype=float),
        omega=packed(np.eye(3) if omega is None else omega),
    )


def apex_cone(origin, toward):
    """Cone whose apex is the projection for points on the far side."""
    axis = np.asarray(unit(np.asarray(toward, dtype=float) - np.asarray(origin, dtype=float)))
    return Cone(origin, -axis, 0.5, Frame.WORLD)


# --- config and state validation ---


def test_noise_config_validation():
    with pytest.raises(MalformedInputError):
        NoiseConfig(r=0.0)
    with pytest.raises(MalformedInputError):
        NoiseConfig(r=2.0, far_variance=1.0)
    with pytest.raises(MalformedInputError):
        NoiseConfig(q=-0.1)
    with pytest.raises(MalformedInputError):
        NoiseConfig(gate=0.0)
    with pytest.raises(MalformedInputError):
        NoiseConfig(init_count=2)
    assert NoiseConfig(mode="2d").mode is Mode.TWO_D
    with pytest.raises(ValueError):
        NoiseConfig(mode="4d")
    nan, inf = math.nan, math.inf
    # NaN fails every range check, and a knob the filter's arithmetic uses
    # must be finite
    for bad in (
        {"r": nan},
        {"far_variance": nan},
        {"far_variance": inf},
        {"q": nan},
        {"q": inf},
        {"gate": nan},
        {"init_variance": -1.0},
        {"init_variance": 0.0},
        {"init_variance": nan},
        {"init_variance": inf},
    ):
        with pytest.raises(MalformedInputError):
            NoiseConfig(**bad)


def test_filter_state_stores_tuples_of_floats():
    state = tracking_state(np.array([1.0, 2.0, 3.0]), omega=2.0 * np.eye(3))
    cone = Cone(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -1.0]), 0.5, Frame.WORLD)
    for s in (state, predict(state, NoiseConfig()), correct(state, cone, NoiseConfig())):
        assert type(s.x) is tuple and len(s.x) == 3 and all(type(c) is float for c in s.x)
        assert type(s.omega) is tuple and len(s.omega) == 6 and all(type(c) is float for c in s.omega)
    # a positive diagonal, but indefinite: the second pivot is negative
    with pytest.raises(MalformedInputError):
        FilterState((0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 1.0, 0.0, 1.0))


def test_filter_state_validation():
    with pytest.raises(MalformedInputError):
        FilterState((0.0, 0.0, 0.0), packed(np.diag([1.0, 1.0, 0.0])))
    for x in ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]):
        with pytest.raises(MalformedInputError):
            FilterState(x, packed(np.eye(3)))
    for i, j, value in ((0, 0, math.nan), (1, 1, math.inf), (0, 2, math.nan), (1, 2, math.inf)):
        bad = np.eye(3)
        bad[i, j] = bad[j, i] = value
        with pytest.raises(MalformedInputError):
            FilterState((0.0, 0.0, 0.0), packed(bad))


def test_positive_definite_check_matches_eigvalsh():
    # FilterState's float LDL^T pivot test against the eigenvalue verdict on
    # random symmetric matrices: positive definite, indefinite, semidefinite
    # like diag(1, 1, 0), near singular and badly scaled. The two may differ
    # only in the band |lam_min| <= 1e-12 * lam_max, where rounding decides
    # either way (lam_max: the largest eigenvalue magnitude).
    rng = np.random.default_rng(47)
    outside, inside = Counter(), 0
    for i in range(4000):
        kind = ("spd", "indefinite", "semidefinite", "near_singular", "scaled")[i % 5]
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        if kind == "indefinite":
            lam[rng.integers(3)] *= -1.0
        elif kind == "semidefinite":
            lam[rng.integers(3)] = 0.0
        elif kind == "near_singular":
            lam[0] = lam.max() * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -8.0)
        elif kind == "scaled" and rng.random() < 0.3:  # about a third indefinite
            lam[0] *= -1.0
        omega = q @ np.diag(lam) @ q.T
        if kind == "scaled":
            # entries from about 1e-6 to 1e9, the range of init_variance
            # and far_variance
            scale = 10.0 ** rng.uniform(-1.5, 3.0, size=3)
            omega = omega * np.outer(scale, scale)
        omega = 0.5 * (omega + omega.T)
        eig = np.linalg.eigvalsh(omega)
        if abs(eig[0]) <= 1e-12 * np.max(np.abs(eig)):
            inside += 1
            continue
        try:
            FilterState((0.0, 0.0, 0.0), packed(omega))
            accepted = True
        except MalformedInputError:
            accepted = False
        assert accepted == (eig[0] > 0.0), (kind, eig, omega)
        outside[kind, accepted] += 1
    assert outside["spd", True] == 800 and not outside["spd", False], outside
    for kind in ("near_singular", "scaled"):
        assert outside[kind, True] >= 100, outside
    for kind in ("indefinite", "near_singular", "scaled"):
        assert outside[kind, False] >= 100, outside
    assert inside >= 800, inside  # every semidefinite one


def _verdict(check, x, omega):
    try:
        check(x, omega)
    except MalformedInputError as e:
        return str(e)
    return None


def test_state_checks_give_the_per_entry_verdicts():
    # estimator._check against the entry-by-entry checks: finite entries whose
    # sum leaves the float range, and every non-finite value in every position
    eye = 1.0, 0.0, 0.0, 1.0, 0.0, 1.0
    big = 1e308, 0.0, 0.0, 1e308, 0.0, 1e308
    for x, omega in (((1e308, 1e308, 0.0), eye), ((-1e308, -1e308, 1.0), eye), ((1e308, 0.0, 0.0), big)):
        assert _verdict(estimator._check, x, omega) is None
        assert _verdict(check_reference, x, omega) is None
        FilterState(x, omega)
    flat = (0.5, -1.0, 2.0, *eye)
    for i in range(9):
        for bad in (math.nan, math.inf, -math.inf):
            e = list(flat)
            e[i] = bad
            x, omega = tuple(e[:3]), tuple(e[3:])
            assert _verdict(estimator._check, x, omega) == "state must be finite", (i, bad)
            assert _verdict(check_reference, x, omega) == "state must be finite", (i, bad)


# --- predict ---


def test_predict_identity_motion():
    s = tracking_state([1.0, 2.0, 3.0])
    out = predict(s, NoiseConfig(q=0.0))
    assert np.array_equal(out.x, [1.0, 2.0, 3.0])
    assert out.omega == packed(np.eye(3))


def test_predict_additive_q():
    s = tracking_state([0.0, 0.0, 0.0])
    out = predict(s, NoiseConfig(q=0.1))
    assert np.allclose(rows(out.omega), 1.1 * np.eye(3))
    for _ in range(9):
        out = predict(out, NoiseConfig(q=0.1))
    assert np.allclose(rows(out.omega), 2.0 * np.eye(3), atol=1e-12)


def test_predict_checks_the_state_it_builds():
    # the diagonal overflows to inf: predict's own state is checked, not trusted
    big = 1.5e308
    state = tracking_state([0.0, 0.0, 0.0], omega=np.diag([big, big, big]))
    with pytest.raises(MalformedInputError, match="state must be finite"):
        predict(state, NoiseConfig(q=1e308))


# --- correct ---


def test_correct_halves_unit_prior_gap():
    # innovation of 1 m along x with omega = I and r = 1: gain 0.5
    state = tracking_state([2.0, 0.0, 0.0])
    cone = apex_cone([1.0, 0.0, 0.0], toward=[2.0, 0.0, 0.0])
    out = correct(state, cone, NoiseConfig(r=1.0, q=0.0))
    assert out is not None
    assert np.allclose(out.x, [1.5, 0.0, 0.0], atol=1e-8)


def test_correct_uninformative_limit():
    # r pushed toward far_variance: the measurement barely moves the state
    state = tracking_state([2.0, 0.0, 0.0])
    cone = apex_cone([1.0, 0.0, 0.0], toward=[2.0, 0.0, 0.0])
    out = correct(state, cone, NoiseConfig(r=1e8, far_variance=1e9, q=0.0))
    assert np.linalg.norm(np.subtract(out.x, state.x)) < 1e-7


def test_correct_zero_innovation_shrinks_along_normal():
    cone = Cone(np.zeros(3), np.array([0.0, 0, 1.0]), math.pi / 4, Frame.WORLD)
    x = np.array([1.0, 0.0, 1.0])  # exactly on the surface
    state = tracking_state(x, omega=4.0 * np.eye(3))
    out = correct(state, cone, NoiseConfig(r=1.0, q=0.0))
    assert out is not None
    assert np.allclose(out.x, x, atol=1e-12)
    # variance drops along the surface normal, stays put along the generator
    normal = np.asarray(unit(np.array([1.0, 0.0, -1.0])))
    gen = np.asarray(unit(np.array([1.0, 0.0, 1.0])))
    omega = np.asarray(rows(out.omega))
    assert normal @ omega @ normal < 4.0
    assert gen @ omega @ gen == pytest.approx(4.0, rel=1e-6)


def test_correct_gated_outlier_increments_run():
    # a gated cone gives no new state and leaves x as it was; the session
    # counts the run (test_session_reset_after_outlier_run)
    state = tracking_state([0.0, 0.0, 0.0])
    far_cone = apex_cone([100.0, 0.0, 0.0], toward=[0.0, 0.0, 0.0])
    assert correct(state, far_cone, NoiseConfig(r=1.0, q=0.0, gate=9.0)) is None
    assert state.x == (0.0, 0.0, 0.0)


def test_correct_requires_tracking_and_world_frame():
    cam = Cone(np.zeros(3), np.array([0.0, 0, 1.0]), 0.5, Frame.CAMERA)
    with pytest.raises(MalformedInputError):
        correct(tracking_state([0.0, 0, 2.0]), cam, NoiseConfig())


def test_correct_refuses_innovation_covariance_it_cannot_factor():
    # far_variance / r = 1e20 leaves S positive definite on paper but not
    # in doubles: the filter says so instead of updating with garbage
    cone = Cone(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.5, Frame.WORLD)
    with pytest.raises(MalformedInputError, match="innovation covariance"):
        correct(tracking_state([3.0, 1.0, 2.0]), cone, NoiseConfig(r=1.0, far_variance=1e20))
    assert correct(tracking_state([3.0, 1.0, 2.0]), cone, NoiseConfig()) is not None


def test_correct_mode2d_pins_ground_plane():
    rng = np.random.default_rng(5)
    p_star = np.array([4.0, -2.0, 0.0])
    state = tracking_state([6.0, 1.0, 0.0], omega=25.0 * np.eye(3))
    cfg = NoiseConfig(r=1.0, q=0.0, mode=Mode.TWO_D)
    for i in range(20):
        cone = cone_through(
            p_star, p_star + np.array([8 * math.cos(i), 8 * math.sin(i), 5.0]),
            0.4 + 0.3 * (i % 3), rng.normal(size=3),
        )
        prior_zz = state.omega[5]
        state = correct(state, cone, cfg)
        omega = np.asarray(rows(state.omega))
        assert state.x[2] == 0.0
        assert np.all(omega[2, :2] == 0.0)
        assert np.all(omega[:2, 2] == 0.0)
        assert omega[2, 2] == prior_zz
    assert np.linalg.norm(state.x[:2] - p_star[:2]) < 0.5


def test_correct_second_application_moves_less():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p_star = rng.normal(size=3) * 3.0
        cone = cone_through(p_star, p_star + rng.normal(size=3) * 6.0, 0.7, rng.normal(size=3))
        state = tracking_state(p_star + rng.normal(size=3), omega=4.0 * np.eye(3))
        cfg = NoiseConfig(r=1.0, q=0.0)
        s1 = correct(state, cone, cfg)
        first = np.linalg.norm(np.subtract(s1.x, state.x))
        if first < 1e-9:
            continue
        s2 = correct(s1, cone, cfg)
        second = np.linalg.norm(np.subtract(s2.x, s1.x))
        assert second < first


def test_gain_orthogonality_bound():
    # with an isotropic prior the gain cross-coupling is negligible; each
    # innovation is 5 m, d2 = 25 / 2, so a gate of 25 accepts every cone
    cfg = NoiseConfig(r=1.0, far_variance=1e9, q=0.0, gate=25.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = np.asarray(unit(rng.normal(size=3)))
        x = np.zeros(3)
        cone = apex_cone(5.0 * u, toward=[0.0, 0.0, 0.0])
        state = tracking_state(x)
        out = correct(state, cone, cfg)
        assert out is not None
        move = out.x - x
        parallel = float(move @ u)
        ortho = np.linalg.norm(move - parallel * u)
        assert abs(ortho) <= cfg.r / cfg.far_variance * abs(parallel) + 1e-12


# --- outlier gate: correct returns None for a gated cone ---


def test_is_outlier_examples():
    state = tracking_state([0.0, 0.0, 0.0])
    cfg = NoiseConfig(r=1.0, q=0.0, gate=9.0)
    on_surface = Cone(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]), 0.5, Frame.WORLD)
    p = surface_points(on_surface.origin, on_surface.axis, on_surface.half_angle, [2.0], [0.3])[0]
    assert correct(tracking_state(p), on_surface, cfg) is not None
    # a 100 m innovation against unit-scale covariance trips the gate
    far_cone = apex_cone([100.0, 0.0, 0.0], toward=[0.0, 0.0, 0.0])
    assert correct(state, far_cone, cfg) is None


def test_is_outlier_boundary_is_inclusive():
    # apex projection makes the innovation exactly 4 m; omega = I and
    # r = 1 give S = 2 along it, so d^2 = 16 / 2 = 8 exactly
    state = tracking_state([4.0, 0.0, 0.0])
    cone = apex_cone([0.0, 0.0, 0.0], toward=[4.0, 0.0, 0.0])
    assert correct(state, cone, NoiseConfig(r=1.0, gate=8.0)) is not None
    assert correct(state, cone, NoiseConfig(r=1.0, gate=7.999)) is None


# --- filter step against the textbook reference ---


def reference_cases(rng, count):
    """Tracking states in both modes, each with a cone whose surface passes
    near the state, far from it, or exactly through it (zero innovation).
    Half use the default far_variance; at the smaller ones the across-cone
    term of the covariance update is large enough to be checked."""
    for i in range(count):
        mode = Mode.TWO_D if i % 2 else Mode.THREE_D
        kind = ("near", "far", "surface")[i % 3]
        p_star = rng.normal(size=3) * 10.0
        if mode is Mode.TWO_D:
            p_star[2] = 0.0
        origin = p_star + np.asarray(unit(rng.normal(size=3))) * rng.uniform(5.0, 30.0)
        cone = cone_through(p_star, origin, rng.uniform(0.2, 1.3), rng.normal(size=3))
        x = p_star.copy()
        if kind == "near":
            x += rng.normal(size=3) * rng.choice([0.1, 1.0, 3.0])
        elif kind == "far":
            x += rng.normal(size=3) * 30.0
        if mode is Mode.TWO_D:
            x[2] = 0.0
        a = rng.normal(size=(3, 3)) * rng.uniform(0.3, 5.0, size=3)
        omega = a @ a.T + rng.uniform(0.01, 1.0) * np.eye(3)
        cfg = NoiseConfig(
            r=rng.uniform(0.25, 2.0),
            far_variance=rng.choice([1e9, 1e9, 1e5, 1e3]),
            gate=rng.choice([9.0, 25.0]),
            mode=mode,
        )
        yield tracking_state(x, 0.5 * (omega + omega.T)), cone, cfg


def test_correct_matches_reference_kalman_update():
    # Tolerances from a long-double analysis of this update: S holds
    # far_variance-sized entries, so its small eigenvalue lam = r + n'omega n
    # along the correction direction n is known only to about
    # far_variance * eps, and the step K nu only to a relative
    # far_variance * eps / lam (worst seen over 15,000 cases: 0.97 of that).
    # Over those cases the reference's covariance is within 7e-7 of the
    # long-double one (relative to its largest entry), the filter's 1.4e-9.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(31)
    seen = Counter()
    for state, cone, cfg in reference_cases(rng, 2400):
        res = project_to_cone(state.x, cone)
        nu = np.subtract(res.point, state.x)
        on_surface = np.linalg.norm(nu) <= 1e-12 * max(1.0, np.linalg.norm(state.x))
        direction = nu
        if on_surface:
            assert res.case is ProjectionCase.SURFACE
            direction = cone_normal_reference(res.point, cone.origin, cone.axis, cone.half_angle)
        d2, x_ref, omega_ref = kalman_cone_update_reference(
            state.x, rows(state.omega), nu, direction, cfg.r, cfg.far_variance,
            ground_plane=cfg.mode is Mode.TWO_D,
        )
        out = correct(state, cone, cfg)
        gated = out is None
        if abs(d2 - cfg.gate) <= 1e-6:
            continue
        assert gated == (d2 > cfg.gate)
        if gated:
            seen["gated"] += 1
            continue
        seen["surface" if on_surface else "accepted"] += 1
        n = direction / np.linalg.norm(direction)
        lam = cfg.r + float(n @ np.asarray(rows(state.omega)) @ n)
        step = float(np.linalg.norm(x_ref - state.x))
        assert np.linalg.norm(out.x - x_ref) <= 10.0 * cfg.far_variance * eps / lam * step + 1e-12
        assert np.max(np.abs(rows(out.omega) - omega_ref)) <= 1e-6 * np.max(np.abs(omega_ref))
        if cfg.mode is Mode.TWO_D:
            assert out.x[2] == 0.0 and out.omega[5] == state.omega[5]
    assert min(seen["accepted"], seen["gated"], seen["surface"]) >= 300, seen


def _bits(state):
    """A state's floats as hex strings, which tell -0.0 from 0.0; None for a gated cone."""
    if state is None:
        return None
    return [v.hex() for v in state.x], [v.hex() for v in state.omega]


def _outcome(state, cone, cfg, fn):
    try:
        return _bits(fn(state, cone, cfg))
    except MalformedInputError as exc:
        return str(exc)


def _gate_at_d2(state, cone, cfg):
    """The smallest gate that accepts the cone, which is its d2 exactly: for
    positive floats the order of the values is that of their bit patterns."""
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 1e300))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        gate = struct.unpack("<d", struct.pack("<q", mid))[0]
        accepted = correct(state, cone, replace(cfg, gate=gate)) is not None
        lo, hi = (lo, mid) if accepted else (mid, hi)
    return struct.unpack("<d", struct.pack("<q", hi))[0]


def test_correct_is_bit_identical_to_the_nested_list_reference():
    rng = np.random.default_rng(47)
    seen = Counter()
    for i, (state, cone, cfg) in enumerate(reference_cases(rng, 1200)):
        # once a symmetry skew and an outlier count; still drawn, so that the cases stay the same
        rng.integers(-4, 5), rng.integers(0, 4)
        cases = [cfg]
        d2 = _gate_at_d2(state, cone, cfg) if i % 4 == 0 else 0.0
        if math.nextafter(d2, 0.0) > 0.0:  # not a zero innovation, which any gate accepts
            cases += [replace(cfg, gate=d2), replace(cfg, gate=math.nextafter(d2, 0.0))]
        res = project_to_cone(state.x, cone)
        if math.dist(res.point, state.x) <= 1e-12 * max(1.0, math.hypot(*state.x)):
            assert res.case is ProjectionCase.SURFACE
            seen["surface normal"] += 1
        for c in cases:
            out = _outcome(state, cone, c, correct)
            assert out == _outcome(state, cone, c, correct_reference)
            gated = out is None
            seen[(c.mode, "gated" if gated else "accepted")] += 1
        if len(cases) > 1:
            seen["at the gate"] += 1
            assert [_outcome(state, cone, c, correct) is None for c in cases[1:]] == [False, True]
    assert min(seen.values()) >= 50 and len(seen) == 6, seen


def test_correct_is_bit_identical_to_the_reference_without_a_direction():
    # at the apex, just behind it (APEX) and just ahead of it on the axis
    # (ON_AXIS), the projection is within 1e-12 of the hypothesis and not a
    # SURFACE case, so correct returns the state it was given
    # (the apex at 0, so that the offsets are not lost to rounding)
    rng = np.random.default_rng(5)
    for _ in range(50):
        cone = Cone((0.0, 0.0, 0.0), unit(rng.normal(size=3)), rng.uniform(0.2, 1.3), Frame.WORLD)
        for offset, case in ((0.0, ProjectionCase.ON_AXIS), (-1e-14, ProjectionCase.APEX),
                             (1e-14, ProjectionCase.ON_AXIS)):
            x = [o + offset * a for o, a in zip(cone.origin, cone.axis)]
            assert project_to_cone(x, cone).case is case
            a = rng.normal(size=(3, 3))
            state = FilterState(x, packed(a @ a.T + np.eye(3)))
            for mode in Mode:
                cfg = NoiseConfig(mode=mode)
                out = _outcome(state, cone, cfg, correct)
                assert out == _outcome(state, cone, cfg, correct_reference)
                assert correct(state, cone, cfg) is state


# --- covariance health and convergence ---


def test_covariance_spd_over_random_sequences():
    rng = np.random.default_rng(10)
    cfg = NoiseConfig(r=0.8, q=0.05, gate=25.0)
    for _ in range(200):
        p_star = rng.normal(size=3) * 5.0
        state = tracking_state(p_star + rng.normal(size=3) * 3.0, omega=9.0 * np.eye(3))
        for _ in range(50):
            state = predict(state, cfg)
            cone = cone_through(
                p_star + rng.normal(size=3) * 0.3,
                p_star + rng.normal(size=3) * 10.0,
                rng.uniform(0.2, 1.3),
                rng.normal(size=3),
            )
            state = correct(state, cone, cfg) or state  # a gated cone keeps the state, as in the session
            omega = np.asarray(rows(state.omega))
            assert np.max(np.abs(omega - omega.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(omega)) > 0.0


def axis_normal_cone(p_star, i, theta, ell, t_dir):
    """Cone through p_star whose outward surface normal there is exactly e_i."""
    e = np.zeros(3)
    e[i] = 1.0
    t = np.asarray(unit(np.asarray(t_dir, dtype=float) - (t_dir @ e) * e))
    w = math.cos(theta) * e + math.sin(theta) * t
    a = -math.sin(theta) * e + math.cos(theta) * t
    origin = p_star - ell * (math.cos(theta) * a + math.sin(theta) * w)
    return Cone(origin, a, theta, Frame.WORLD)


def test_convergence_is_monotone_on_exact_cones():
    # cycling normals over the coordinate axes keeps the gain axis-aligned,
    # so each correction shrinks one error component and leaves the rest
    cfg = NoiseConfig(r=1.0, q=0.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p_star = rng.normal(size=3) * 3.0
        state = tracking_state(
            p_star + 0.05 * np.asarray(unit(rng.normal(size=3))), omega=100.0 * np.eye(3)
        )
        errors = [np.linalg.norm(state.x - p_star)]
        for k in range(50):
            cone = axis_normal_cone(
                p_star, k % 3, rng.uniform(0.3, 1.2),
                rng.uniform(8.0, 15.0), rng.normal(size=3),
            )
            state = correct(state, cone, cfg)
            errors.append(np.linalg.norm(state.x - p_star))
        assert errors[-1] < 0.01
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12


def test_convergence_from_metre_scale_offset():
    cfg = NoiseConfig(r=1.0, q=0.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p_star = rng.normal(size=3) * 3.0
        state = tracking_state(
            p_star + 1.0 * np.asarray(unit(rng.normal(size=3))), omega=100.0 * np.eye(3)
        )
        for _ in range(50):
            origin = p_star + 12.0 * np.asarray(unit(rng.normal(size=3)))
            cone = cone_through(p_star, origin, rng.uniform(0.3, 1.2), rng.normal(size=3))
            state = correct(state, cone, cfg)
        assert np.linalg.norm(state.x - p_star) < 0.01


# --- session lifecycle ---


def world_cones_through(p_star, rng, n, base_angle=0.0, spread=12.0):
    cones = []
    for i in range(n):
        ang = base_angle + 2.0 * math.pi * i / max(n, 1)
        origin = p_star + np.array(
            [spread * math.cos(ang), spread * math.sin(ang), 5.0]
        )
        c = cone_through(p_star, origin, rng.uniform(0.3, 1.2), rng.normal(size=3))
        cones.append(Cone(c.origin, c.axis, c.half_angle, Frame.WORLD, float(i)))
    return cones


def test_session_buffers_until_count_reached():
    rng = np.random.default_rng(12)
    est = SourceEstimator(NoiseConfig(init_count=5, multistart=4))
    cones = world_cones_through(np.array([5.0, 5.0, 0.0]), rng, 4)
    for c in cones:
        state, action = est.ingest(c)
        assert action is Action.BUFFERED
        assert state is None


def test_session_initializes_and_tracks():
    rng = np.random.default_rng(13)
    p_star = np.array([5.0, 5.0, 0.0])
    est = SourceEstimator(NoiseConfig(init_count=5, multistart=4))
    for c in world_cones_through(p_star, rng, 5):
        state, action = est.ingest(c)
    assert state is not None
    assert est.init_time == 4.0
    assert np.linalg.norm(state.x - p_star) < 0.01
    # subsequent cones correct the filter
    state, action = est.ingest(world_cones_through(p_star, rng, 1, base_angle=0.7)[0])
    assert action is Action.CORRECTED


def test_session_requires_world_frame():
    est = SourceEstimator()
    cam = Cone(np.zeros(3), np.array([0.0, 0, 1.0]), 0.5, Frame.CAMERA)
    with pytest.raises(MalformedInputError):
        est.ingest(cam)


def test_session_ignores_unseparated_origins():
    # shared-origin cones never satisfy the separation rule, and the
    # fallback solve flags the geometry as degenerate instead of tracking
    rng = np.random.default_rng(14)
    p_star = np.array([5.0, 0.0, 0.0])
    cfg = NoiseConfig(init_count=3, multistart=2)
    est = SourceEstimator(cfg)
    origin = np.array([0.0, 0.0, 5.0])
    for i in range(12):
        c = cone_through(p_star, origin, 0.3 + 0.1 * (i % 5), rng.normal(size=3))
        state, action = est.ingest(
            Cone(c.origin, c.axis, c.half_angle, Frame.WORLD, float(i))
        )
        assert state is None
    assert est.stats.degenerate_solves > 0


def test_session_rejects_inconsistent_geometry():
    # five well-conditioned cones that do not share any common point:
    # each passes through a different target, so the best-fit residual
    # stays large and the consistency gate refuses to initialize
    rng = np.random.default_rng(21)
    cfg = NoiseConfig(init_count=5, multistart=4)
    est = SourceEstimator(cfg)
    for i in range(5):
        ang = 2.0 * math.pi * i / 5.0
        target = np.array([6.0 * math.cos(3.0 * i), 6.0 * math.sin(3.0 * i), 0.0])
        origin = np.array([12.0 * math.cos(ang), 12.0 * math.sin(ang), 5.0])
        c = cone_through(target, origin, 0.5 + 0.1 * i, rng.normal(size=3))
        state, action = est.ingest(
            Cone(c.origin, c.axis, c.half_angle, Frame.WORLD, float(i))
        )
        assert state is None
    assert est.stats.inconsistent_solves >= 1
    assert est.init_time is None


def test_session_counts_infeasible_solves_apart(monkeypatch):
    # an infeasible solve is its own reason, not a degenerate geometry
    def infeasible(problem):
        raise InfeasibleInitError("no feasible start")

    monkeypatch.setattr(estimator, "solve", infeasible)
    rng = np.random.default_rng(13)
    est = SourceEstimator(NoiseConfig(init_count=5, multistart=4))
    for c in world_cones_through(np.array([5.0, 5.0, 0.0]), rng, 7):
        state, action = est.ingest(c)
        assert action is Action.BUFFERED
    assert est.stats.infeasible_solves == 3
    assert est.stats.degenerate_solves == 0
    assert est.stats.inconsistent_solves == 0
    assert est.last_solution is None
    assert est.init_time is None


def test_session_reset_after_outlier_run():
    rng = np.random.default_rng(15)
    p_star = np.array([5.0, 5.0, 0.0])
    cfg = NoiseConfig(init_count=5, multistart=4, gate=9.0, q=0.0)
    est = SourceEstimator(cfg)
    for c in world_cones_through(p_star, rng, 5):
        est.ingest(c)
    assert est.state is not None
    # garbage cones whose apex projection sits 80 m away
    actions, garbage_cones = [], []
    for i in range(4):
        garbage = apex_cone([80.0 + i, -40.0, 0.0], toward=p_star)
        garbage = Cone(garbage.origin, garbage.axis, garbage.half_angle, Frame.WORLD, 10.0 + i)
        garbage_cones.append(garbage)
        _, action = est.ingest(garbage)
        actions.append(action)
        # the buffer holds the run of gated cones: one, then two, ...
        assert est.buffer == garbage_cones
    assert actions[:3] == [Action.REJECTED] * 3
    assert actions[3] is Action.RESET
    assert est.state is None
    assert est.stats.resets == 1
    # rejected cones reseed the buffer for the next initialization attempt
    assert len(est.buffer) == 4


def test_session_accept_counters():
    rng = np.random.default_rng(17)
    p_star = np.array([2.0, 2.0, 0.0])
    est = SourceEstimator(NoiseConfig(init_count=5, multistart=4, q=0.0))
    for c in world_cones_through(p_star, rng, 5):
        est.ingest(c)
    for c in world_cones_through(p_star, rng, 6, base_angle=0.3):
        est.ingest(c)
    assert est.stats.accepted == 6
    assert est.stats.rejected == 0


def test_session_lifecycle_holds_on_closed_loop_runs(monkeypatch):
    # moving_1ms seeds 5 and 9 lock, lose the source to a run of gated
    # cones and collect again; every ingest of both runs is checked
    ingest = SourceEstimator.ingest
    ingested, actions = [], Counter()
    run = 0  # REJECTED since the last CORRECTED or lock

    def checked(session, cone):
        nonlocal run
        state, action = ingest(session, cone)
        ingested.append(cone)
        assert state is session.state
        if action is Action.BUFFERED and state is not None:  # this cone's solve locked
            assert session.init_time == cone.timestamp and session.buffer == []
            run = 0
        elif action in (Action.BUFFERED, Action.RESET):
            assert state is None
        else:
            assert state is not None
            run = run + 1 if action is Action.REJECTED else 0
            assert len(session.buffer) == run <= estimator.RESET_RUN_LENGTH
            tail = ingested[len(ingested) - run:]
            assert all(a is b for a, b in zip(session.buffer, tail, strict=True))
        if action is Action.RESET:
            tail = ingested[-(estimator.RESET_RUN_LENGTH + 1):]
            assert all(a is b for a, b in zip(session.buffer, tail, strict=True))
        actions[action] += 1
        return state, action

    monkeypatch.setattr(SourceEstimator, "ingest", checked)
    base = load_scenario(Path(estimator.__file__).parent / "scenarios" / "moving_1ms.yaml")
    for seed in (5, 9):
        ingested.clear()
        actions.clear()
        report = run_scenario(replace(base, seed=seed))
        assert report.stats.resets == actions[Action.RESET] > 0, seed
        assert actions[Action.CORRECTED] > 0 and actions[Action.REJECTED] > 0, seed


def test_tracking_ingest_calls_predict_correct_and_the_projection_once(monkeypatch):
    # the bench tracer's estimator.* and cones.project_* metrics count these
    # module-level calls: one predict and one correct per tracking ingest,
    # none while collecting, and one projection per correct
    calls = Counter()
    wrapped = {name: getattr(estimator, name) for name in ("predict", "correct", "project_to_cone")}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return wrapped[name](*args)
        return call

    def checked_correct(*args):
        before = calls["project_to_cone"]
        out = counting("correct")(*args)
        assert calls["project_to_cone"] == before + 1
        return out

    ingest, seen = SourceEstimator.ingest, Counter()

    def checked_ingest(session, cone):
        tracking, before = session.state is not None, calls.copy()
        out = ingest(session, cone)
        made = (calls["predict"] - before["predict"], calls["correct"] - before["correct"])
        assert made == ((1, 1) if tracking else (0, 0)), (tracking, made)
        seen[tracking] += 1
        return out

    monkeypatch.setattr(estimator, "predict", counting("predict"))
    monkeypatch.setattr(estimator, "correct", checked_correct)
    monkeypatch.setattr(estimator, "project_to_cone", counting("project_to_cone"))
    monkeypatch.setattr(SourceEstimator, "ingest", checked_ingest)
    report = run_scenario(load_scenario(Path(estimator.__file__).parent / "scenarios" / "static_3gbq.yaml"))
    assert seen[True] == calls["predict"] == calls["correct"] == calls["project_to_cone"] > 100, (seen, calls)
    assert seen[False] > 0 and report.stats.accepted > 0
