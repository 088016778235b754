import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from radloc import cli, estimator
from radloc.cli import main
from radloc.estimator import NoiseConfig, SourceEstimator
from radloc.initializer import InitSolution, Mode
from radloc.geometry import Cone, Frame, unit
from radloc.io import (
    CONES_HEADER,
    HITS_HEADER,
    PAIRS_HEADER,
    POSES_HEADER,
    read_cones_csv,
    read_estimates_csv,
    read_hits_csv,
    write_cones_csv,
    write_estimates_csv,
)

from oracles import read_poses_reference, world_cones_reference
from test_events import synthetic_stream
from test_initializer import cone_through

SOURCE = np.array([5.0, -3.0, 0.0])
# 107 hits over 2.35 s against a 21-pose 10 Hz stream that rolls and turns:
# ten Compton pairs of 1-4-pixel tracks (one of them in a triple
# coincidence, one after the last pose), two impossible energy splits, a
# 16-pixel ring around a pixel at the same time (coinciding centroids),
# four photoelectric tracks, and background above the threshold. pairs.csv
# holds three pre-paired events: a valid one, an impossible energy split
# and coinciding electron and photon events
FIXTURE = Path(__file__).parent / "data"


def write_hits_csv(path, hits):
    lines = [",".join(HITS_HEADER)]
    for toa, col, row, energy in zip(hits.toa, hits.col, hits.row, hits.energy):
        lines.append(f"{toa:.12g},{col},{row},{energy:.12g}")
    path.write_text("\n".join(lines) + "\n")


def write_poses_csv(path):
    lines = [",".join(POSES_HEADER), "0,0,0,5,1,0,0,0", "20,0,0,5,1,0,0,0"]
    path.write_text("\n".join(lines) + "\n")


def exact_cones_file(path, n=8):
    rng = np.random.default_rng(0)
    cones = []
    for k in range(n):
        ang = 2.0 * np.pi * k / n
        origin = SOURCE + np.array([12.0 * np.cos(ang), 12.0 * np.sin(ang), 5.0])
        c = cone_through(SOURCE, origin, 0.4 + 0.1 * (k % 4), rng.normal(size=3))
        cones.append(Cone(c.origin, c.axis, c.half_angle, Frame.WORLD, 0.5 * k))
    write_cones_csv(path, cones)
    return cones


def write_scenario_yaml(path, seed=3, duration=8.0):
    path.write_text(
        "\n".join(
            [
                "source:",
                "  position: [8.0, -4.0, 0.0]",
                "  activity_bq: 3.0e9",
                "area: [40.0, 20.0]",
                "uav:",
                "  speed: 2.0",
                "  altitude: 5.0",
                f"duration: {duration}",
                f"seed: {seed}",
                "timestep: 0.5",
                "estimator:",
                "  r: 2.0",
                "  q: 0.02",
                "  init_variance: 25.0",
                "  multistart: 4",
                "  max_iterations: 60",
                "",
            ]
        )
    )


# --- reconstruct ---


def test_reconstruct_hits_happy_path(tmp_path, capsys):
    events = tmp_path / "hits.csv"
    write_hits_csv(events, synthetic_stream(20, 4, 1, duration_s=10.0))
    poses = tmp_path / "poses.csv"
    write_poses_csv(poses)
    out = tmp_path / "out"
    code = main(
        [
            "reconstruct",
            "--events", str(events),
            "--poses", str(poses),
            "--out", str(out),
            "--duration", "10.0",
        ]
    )
    assert code == 0
    assert (out / "cones.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts"]["photoelectric"] == 20
    assert summary["counts"]["compton"] == 4
    assert summary["counts"]["background"] == 1
    assert summary["cones_written"] == 4
    stdout = capsys.readouterr().out
    assert "photoelectric" in stdout


def reconstruct_fixture(out):
    argv = ["reconstruct", "--events", str(FIXTURE / "hits.csv"), "--poses", str(FIXTURE / "poses.csv")]
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


def test_reconstruct_fixture_matches_oracle_pipeline(tmp_path):
    reconstruct_fixture(tmp_path)
    lines = (tmp_path / "cones.csv").read_text().splitlines()
    assert lines[0] == ",".join(CONES_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    want = world_cones_reference(read_hits_csv(FIXTURE / "hits.csv"), read_poses_reference(FIXTURE / "poses.csv"))
    assert len(rows) == len(want) == 9
    for row, cone in zip(rows, want):
        # times and angles come out of the same float steps; positions and
        # axes agree to rounding, and the file keeps 12 significant digits
        assert (row[0], row[7], row[8]) == (f"{cone.timestamp:.12g}", f"{cone.half_angle:.12g}", "W")
        got = np.array([float(v) for v in row[1:7]])
        assert np.max(np.abs(got[:3] - cone.origin)) <= 1e-11 * np.linalg.norm(cone.origin)
        assert np.max(np.abs(got[3:] - cone.axis)) <= 1e-11


def test_reconstruct_drop_reasons_sum_to_rejected_pairs(tmp_path):
    summary = reconstruct_fixture(tmp_path)
    assert (summary["invalid_scattering"], summary["degenerate_geometry"]) == (2, 1)
    assert summary["invalid_scattering"] + summary["degenerate_geometry"] == summary["rejected_pairs"]
    assert summary["counts"] == {"photoelectric": 5, "compton": 13, "background": 2}
    assert (summary["pairs"], summary["cones_written"], summary["outside_pose_range"]) == (14, 9, 1)


def test_reconstruct_steps_each_cone_through_one_pose_lookup_and_one_transform(tmp_path, monkeypatch):
    # the world-frame step of a cone is one interpolate_pose call, then one
    # transform_cone call unless the lookup fell outside the pose stream,
    # both looked up at radloc.cli: the benchmark's reconstruct
    # ingest_p50_ms is the time from the one's entry to the other's return
    calls = []
    interpolate, transform = cli.interpolate_pose, cli.transform_cone

    def counted_interpolate(*args, **kwargs):
        calls.append("outside")  # until the lookup returns
        pose = interpolate(*args, **kwargs)
        calls[-1] = "interpolate"
        return pose

    def counted_transform(*args, **kwargs):
        calls.append("transform")
        return transform(*args, **kwargs)

    monkeypatch.setattr(cli, "interpolate_pose", counted_interpolate)
    monkeypatch.setattr(cli, "transform_cone", counted_transform)
    summary = reconstruct_fixture(tmp_path)
    written, outside = summary["cones_written"], summary["outside_pose_range"]
    assert (written, outside) == (9, 1)
    assert calls.count("transform") == written
    assert calls.count("interpolate") + calls.count("outside") == written + outside
    assert calls.count("outside") == outside
    # every returned lookup is followed by its transform, and nothing else is
    assert [c for c in calls if c != "outside"] == ["interpolate", "transform"] * written


def test_reconstruct_drop_ambiguous_counts_the_triple(tmp_path, capsys):
    # the fixture's one triple coincidence is dropped whole, and its
    # three tracks are counted
    assert reconstruct_fixture(tmp_path / "kept")["ambiguous_tracks"] == 0
    argv = ["reconstruct", "--events", str(FIXTURE / "hits.csv"), "--poses", str(FIXTURE / "poses.csv")]
    assert main([*argv, "--drop-ambiguous", "--out", str(tmp_path / "dropped")]) == 0
    summary = json.loads((tmp_path / "dropped" / "summary.json").read_text())
    assert summary["ambiguous_tracks"] == 3
    assert "ambiguous=3 " in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--toa-gap-ns", ("nan", "-5", "0", "inf")),
        ("--window-ns", ("nan", "-5", "0", "inf")),
        ("--threshold-kev", ("nan", "-5", "0", "inf")),
        ("--duration", ("nan", "-1", "inf")),
    ],
)
def test_reconstruct_refuses_bad_knobs(tmp_path, capsys, flag, values):
    # NaN used to switch clustering or pairing off, or drop all background,
    # and a negative duration was written out as it came; a pairs file,
    # which is neither clustered nor paired, used to take any gap or window
    for events in ("hits.csv", "pairs.csv"):
        argv = ["reconstruct", "--events", str(FIXTURE / events), "--poses", str(FIXTURE / "poses.csv")]
        for value in values:
            out = tmp_path / events / value
            assert main([*argv, "--out", str(out), f"{flag}={value}"]) == 1, (events, value)
            assert "must be" in capsys.readouterr().err
            assert not (out / "summary.json").exists()
        # the smallest accepted duration still reads
        assert main([*argv, "--out", str(tmp_path / events / "ok"), "--duration", "0"]) == 0


def test_reconstruct_pairs_input(tmp_path, capsys):
    argv = ["reconstruct", "--events", str(FIXTURE / "pairs.csv"), "--poses", str(FIXTURE / "poses.csv")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["counts"] == {"photoelectric": 0, "compton": 3, "background": 0}
    assert (summary["invalid_scattering"], summary["degenerate_geometry"], summary["rejected_pairs"]) == (1, 1, 2)
    assert (summary["pairs"], summary["cones_written"]) == (3, 1)
    assert "pairs=3 rejected_pairs=2 " in capsys.readouterr().out


def test_reconstruct_header_only_pairs_file_gives_no_cones(tmp_path, capsys):
    events = tmp_path / "pairs.csv"
    events.write_text(",".join(PAIRS_HEADER) + "\n")
    argv = ["reconstruct", "--events", str(events), "--poses", str(FIXTURE / "poses.csv")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["counts"] == {"photoelectric": 0, "compton": 0, "background": 0}
    assert (summary["pairs"], summary["cones_written"], summary["duration_s"]) == (0, 0, 0.0)
    assert (tmp_path / "out" / "cones.csv").read_text() == ",".join(CONES_HEADER) + "\n"
    assert "pairs=0 rejected_pairs=0 ambiguous=0 cones=0 " in capsys.readouterr().out


def test_reconstruct_parse_error_exit_2(tmp_path, capsys):
    events = tmp_path / "hits.csv"
    poses = tmp_path / "poses.csv"
    write_poses_csv(poses)
    # a bad number, then values the hit batch refuses: NaN energy, fractional pixel
    for row in ("not_a_number,1,1,300", "100.0,10,12,nan", "100.0,10.7,12,340.5"):
        events.write_text(",".join(HITS_HEADER) + "\n99.0,10,12,340.5\n" + row + "\n")
        code = main(
            ["reconstruct", "--events", str(events), "--poses", str(poses), "--out", str(tmp_path / "o")]
        )
        assert code == 2, row
        assert f"{events}:3:" in capsys.readouterr().err


def test_reconstruct_schema_error_exit_3(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("alpha,beta\n1,2\n")
    poses = tmp_path / "poses.csv"
    write_poses_csv(poses)
    code = main(
        ["reconstruct", "--events", str(events), "--poses", str(poses), "--out", str(tmp_path / "o")]
    )
    assert code == 3


@pytest.mark.parametrize("events", ["hits.csv", "hits_empty.csv", "pairs.csv"])
def test_reconstruct_header_only_pose_file_exit_3(tmp_path, capsys, events):
    # refused by the pose reader, whatever the events hold
    poses = tmp_path / "poses.csv"
    poses.write_text(",".join(POSES_HEADER) + "\n")
    argv = ["reconstruct", "--events", str(FIXTURE / events), "--poses", str(poses)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert f"{poses}: no poses" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reconstruct_ordering_error_exit_4(tmp_path):
    events = tmp_path / "hits.csv"
    write_hits_csv(events, synthetic_stream(5, 1, 0, duration_s=1.0))
    poses = tmp_path / "poses.csv"
    poses.write_text(
        ",".join(POSES_HEADER) + "\n1,0,0,5,1,0,0,0\n0,0,0,5,1,0,0,0\n"
    )
    code = main(
        ["reconstruct", "--events", str(events), "--poses", str(poses), "--out", str(tmp_path / "o")]
    )
    assert code == 4


# --- estimate ---


def test_estimate_happy_path(tmp_path, capsys):
    cones_path = tmp_path / "cones.csv"
    cones = exact_cones_file(cones_path)
    out = tmp_path / "out"
    code = main(["estimate", "--cones", str(cones_path), "--out", str(out)])
    assert code == 0
    rows = read_estimates_csv(out / "estimates.csv")
    assert len(rows) == len(cones)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initialized"]
    assert summary["status"] == "tracking"
    assert np.linalg.norm(np.array(summary["final_estimate"]) - SOURCE) < 0.01
    assert "status=tracking" in capsys.readouterr().out


def test_estimate_action_counts_match_summary(tmp_path):
    # exact cones lock and correct; then four cones whose apex is far off and
    # faces away are gated, the fourth in a row resetting the hypothesis; the
    # exact cones again refill the buffer
    cones_path = tmp_path / "cones.csv"
    good = exact_cones_file(cones_path)
    far = np.array([500.0, 500.0, 5.0])
    bad = [Cone(far, unit(far - SOURCE), 0.4, Frame.WORLD, 4.0 + 0.1 * k) for k in range(4)]
    again = [Cone(c.origin, c.axis, c.half_angle, Frame.WORLD, 5.0 + c.timestamp) for c in good]
    write_cones_csv(cones_path, good + bad + again)
    out = tmp_path / "out"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(out)]) == 0
    actions = Counter(row["action"] for row in read_estimates_csv(out / "estimates.csv"))
    summary = json.loads((out / "summary.json").read_text())
    assert set(actions) == {"buffered", "corrected", "rejected", "reset"}, actions
    assert sum(actions.values()) == summary["cones"] == len(good + bad + again)
    assert actions["corrected"] == summary["accepted"]
    assert actions["rejected"] + actions["reset"] == summary["rejected"]
    assert actions["reset"] == summary["resets"] == 1


def test_estimate_status_line_after_a_lock_and_a_reset(tmp_path, capsys):
    # exact cones lock, then four gated cones reset the hypothesis and end the file
    cones_path = tmp_path / "cones.csv"
    good = exact_cones_file(cones_path)
    far = np.array([500.0, 500.0, 5.0])
    bad = [Cone(far, unit(far - SOURCE), 0.4, Frame.WORLD, 4.0 + 0.1 * k) for k in range(4)]
    write_cones_csv(cones_path, good + bad)
    out = tmp_path / "out"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["initialized"] and summary["init_time_s"] is not None
    assert summary["status"] == "collecting" and summary["resets"] == 1
    status = capsys.readouterr().out.splitlines()[0]
    assert status == f"status=collecting (initialized, then reset; {len(good + bad)} cones)"


def test_estimate_tuning_defaults_come_from_noise_config(tmp_path, monkeypatch):
    sessions = []

    class Recording(SourceEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(cli, "SourceEstimator", Recording)
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    assert main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "a")]) == 0
    flags = ["--mode", "2d", "--r", "0.5", "--q", "0.2", "--gate", "16", "--init-count", "6",
             "--far", "1e8", "--multistart", "3"]
    assert main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "b"), *flags]) == 0
    plain, tuned = sessions
    assert plain.config == NoiseConfig()
    assert tuned.config == NoiseConfig(
        mode=Mode.TWO_D, r=0.5, q=0.2, gate=16.0, init_count=6, far_variance=1e8, multistart=3
    )


def test_estimate_summary_counts_inconsistent_solves(tmp_path, monkeypatch):
    # a best fit far above the consistency gate: every attempt is inconsistent
    def inconsistent(problem):
        return InitSolution(np.zeros(3), 1e9, 1.0, False)

    monkeypatch.setattr(estimator, "solve", inconsistent)
    cones_path = tmp_path / "cones.csv"
    cones = exact_cones_file(cones_path)
    out = tmp_path / "out"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["inconsistent_solves"] == len(cones) - 4
    assert summary["infeasible_solves"] == 0
    assert summary["degenerate_solves"] == 0
    assert not summary["initialized"]


def test_estimate_rejects_camera_frame_exit_1(tmp_path):
    cones_path = tmp_path / "cones.csv"
    write_cones_csv(
        cones_path,
        [Cone(np.zeros(3), np.array([0.0, 0, 1.0]), 0.5, Frame.CAMERA, 0.0)],
    )
    code = main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_estimate_ordering_error_exit_4(tmp_path):
    cones_path = tmp_path / "cones.csv"
    cones_path.write_text(
        "t_s,ox,oy,oz,dx,dy,dz,theta_rad,frame\n"
        "1.0,0,0,0,1,0,0,0.5,W\n"
        "0.5,1,0,0,0,1,0,0.5,W\n"
    )
    code = main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "o")])
    assert code == 4


def test_estimate_parse_error_exit_2(tmp_path, capsys):
    cones_path = tmp_path / "cones.csv"
    # values the Cone refuses: a NaN origin, a half-angle outside (0, pi)
    for row in ("1,nan,0,0,1,0,0,0.5,W", "1,0,0,0,1,0,0,3.5,W"):
        cones_path.write_text(",".join(CONES_HEADER) + "\n0,0,0,0,1,0,0,0.5,W\n" + row + "\n")
        code = main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "o")])
        assert code == 2, row
        assert f"{cones_path}:3:" in capsys.readouterr().err


def test_estimate_schema_error_exit_3(tmp_path):
    cones_path = tmp_path / "cones.csv"
    cones_path.write_text("x,y\n1,2\n")
    code = main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "o")])
    assert code == 3


# --- metamorphic: a rigid motion of the input moves the output with it ---


def _yaw(p):
    """An exact 90 degree turn about z: (x, y) -> (-y, x), no rounding."""
    return -p[1], p[0], p[2]


def _fixture_cones(tmp_path, poses=FIXTURE / "poses.csv"):
    out = tmp_path / poses.stem
    assert main(["reconstruct", "--events", str(FIXTURE / "hits.csv"), "--poses", str(poses), "--out", str(out)]) == 0
    return read_cones_csv(out / "cones.csv")


def _estimate(cones, mode):
    """estimate's session, with its default tuning, over cones: the session and its actions."""
    session = SourceEstimator(NoiseConfig(mode=mode))
    return session, [session.ingest(cone)[1] for cone in cones]


def test_estimate_is_equivariant_under_a_shift_and_a_yaw(tmp_path):
    # the fixture's 9 world cones, each moved by a translation and, apart, by
    # the exact yaw: the counters, the actions and the lock time stay, and the
    # final estimate, mapped back, agrees. The initializer draws its starts
    # in the moved box, so this also tests that the solve finds the same
    # basin from other starts (7.1e-9 and 7.3e-9 m seen). 2d mode pins z = 0,
    # so it takes the yaw only; there every solve stays infeasible.
    cones = _fixture_cones(tmp_path)
    assert len(cones) == 9
    # (origin move, axis move, the origin move undone)
    shift = (lambda p: (p[0] + 100.0, p[1] - 50.0, p[2] + 3.0), lambda a: a,
             lambda p: (p[0] - 100.0, p[1] + 50.0, p[2] - 3.0))
    yaw = _yaw, _yaw, lambda p: (p[1], -p[0], p[2])
    for mode, cases in ((Mode.THREE_D, (shift, yaw)), (Mode.TWO_D, (yaw,))):
        base, actions = _estimate(cones, mode)
        for move, turn, back in cases:
            moved = [Cone(move(c.origin), turn(c.axis), c.half_angle, Frame.WORLD, c.timestamp) for c in cones]
            session, moved_actions = _estimate(moved, mode)
            assert (session.stats, session.init_time, moved_actions) == (base.stats, base.init_time, actions)
            if base.state is not None:
                assert math.dist(back(session.state.x), base.state.x) <= 1e-7
        if mode is Mode.THREE_D:
            assert base.state is not None and base.stats.accepted == 2
        else:
            assert base.state is None and base.stats.infeasible_solves == 3


def test_reconstruct_of_a_yawed_pose_stream_gives_the_yawed_cones(tmp_path):
    # each pose turned by the 90 degree yaw: the position by (x, y) -> (-y, x),
    # the orientation by the quaternion (c, 0, 0, c), c = sqrt(1/2), applied
    # first. Every world cone turns with it, within the rounding of that
    # quaternion product (3e-16 seen), so interpolate_pose and
    # transform_cone commute with a rigid motion of the pose stream
    c = math.sqrt(0.5)
    lines = (FIXTURE / "poses.csv").read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        t, px, py, pz, w, x, y, z = map(float, line.split(","))
        yawed = (*_yaw((px, py, pz)), c * w - c * z, c * x - c * y, c * y + c * x, c * z + c * w)
        lines[i] = ",".join(map(repr, (t, *yawed)))
    poses = tmp_path / "poses_yawed.csv"
    poses.write_text("\n".join(lines) + "\n")
    cones, turned = _fixture_cones(tmp_path), _fixture_cones(tmp_path, poses)
    assert len(turned) == len(cones) == 9
    for a, b in zip(cones, turned):
        assert (a.timestamp, a.half_angle) == (b.timestamp, b.half_angle)
        assert math.dist(_yaw(a.origin), b.origin) <= 1e-9 and math.dist(_yaw(a.axis), b.axis) <= 1e-9


# --- simulate ---


def test_simulate_happy_and_deterministic(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    write_scenario_yaml(scenario)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_seed_override(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    write_scenario_yaml(scenario, seed=3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out1), "--seed", "4"]) == 0
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out2), "--seed", "4"]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["seed"] == 4
    # a negative seed used to reach the random generator and end in a traceback
    out = tmp_path / "c"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--seed", "-1"]) == 1
    assert not out.exists()


def test_simulate_schema_error_exit_3(tmp_path, capsys):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("nonsense_key: 1\n")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 3
    # a knob that became a constant is refused by name, not ignored
    write_scenario_yaml(scenario)
    scenario.write_text(scenario.read_text() + "  reseed_rejected: false\n")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 3
    assert "reseed_rejected" in capsys.readouterr().err


def test_simulate_out_of_range_value_exit_1_at_load(tmp_path, capsys):
    # NaN and negative tuning or scenario values are refused before any
    # simulation step, with a message and no traceback; estimate's tuning
    # flags go through the same checks
    for default, bad in (
        ("  r: 2.0", "  r: .nan"),
        ("  q: 0.02", "  q: .nan"),
        ("  init_variance: 25.0", "  init_variance: -1.0"),
        ("  activity_bq: 3.0e9", "  activity_bq: .nan"),
        ("timestep: 0.5", "timestep: .nan"),
        ("seed: 3", "seed: -1"),
    ):
        scenario = tmp_path / "scenario.yaml"
        write_scenario_yaml(scenario)
        scenario.write_text(scenario.read_text().replace(default, bad))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1, bad
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    assert main(["estimate", "--cones", str(cones_path), "--out", str(tmp_path / "e"), "--r", "nan"]) == 1


def test_simulate_solver_knobs_below_one_exit_1_at_load(tmp_path, capsys):
    # a solve needs at least one start and one polish iteration; zero or
    # negative values are refused before any simulation step
    for default, bad in (
        ("  max_iterations: 60", "  max_iterations: 0"),
        ("  max_iterations: 60", "  max_iterations: -1"),
        ("  multistart: 4", "  multistart: 0"),
    ):
        scenario = tmp_path / "scenario.yaml"
        write_scenario_yaml(scenario)
        scenario.write_text(scenario.read_text().replace(default, bad))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1, bad
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def test_simulate_yaml_parse_error_exit_2(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("duration: [unclosed\n")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 2


# --- metrics ---


def test_metrics_happy_path(tmp_path):
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    est_out = tmp_path / "est"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(est_out)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "t_s,x,y,z\n" + "".join(f"{t},5.0,-3.0,0.0\n" for t in range(5))
    )
    out = tmp_path / "met"
    code = main(
        [
            "metrics",
            "--estimates", str(est_out / "estimates.csv"),
            "--truth", str(truth),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "error_series.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_error_m"] < 0.01
    assert summary["convergence_time_s"] is not None


def test_metrics_refuses_bad_threshold(tmp_path, capsys):
    # inf used to be written as Infinity, which is not JSON, and NaN as null
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    est_out = tmp_path / "est"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(est_out)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text("t_s,x,y,z\n" + "".join(f"{t},5.0,-3.0,0.0\n" for t in range(5)))
    argv = ["metrics", "--estimates", str(est_out / "estimates.csv"), "--truth", str(truth)]
    for value in ("inf", "nan", "-1", "0"):
        out = tmp_path / value
        assert main([*argv, "--out", str(out), f"--threshold={value}"]) == 1, value
        assert "threshold must be positive and finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
    assert main([*argv, "--out", str(tmp_path / "ok"), "--threshold=0.5"]) == 0


def test_metrics_refuses_nonfinite_truth(tmp_path, capsys):
    # such a truth file used to give exit 0, with null errors in summary.json
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    est_out = tmp_path / "est"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(est_out)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text("t_s,x,y,z\n0,nan,-3,0\n4,inf,-3,0\n")
    out = tmp_path / "met"
    argv = ["metrics", "--estimates", str(est_out / "estimates.csv"), "--truth", str(truth), "--out", str(out)]
    assert main(argv) == 2
    assert f"{truth}:2: x must be finite, got nan" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_metrics_no_overlap_exit_1(tmp_path):
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    est_out = tmp_path / "est"
    assert main(["estimate", "--cones", str(cones_path), "--out", str(est_out)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text("t_s,x,y,z\n100,5.0,-3.0,0.0\n101,5.0,-3.0,0.0\n")
    code = main(
        [
            "metrics",
            "--estimates", str(est_out / "estimates.csv"),
            "--truth", str(truth),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 1


def test_metrics_writes_the_same_bytes_under_every_blas_kernel(tmp_path):
    # the error norms used to go through BLAS: on this fixture the default,
    # Prescott and Haswell OpenBLAS kernels wrote three different summaries
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("OPENBLAS_CORETYPE", None)
    written = {}
    for core in ("", "Prescott", "Haswell"):
        out = tmp_path / (core or "default")
        argv = ["metrics", "--estimates", str(FIXTURE / "estimates.csv"), "--truth", str(FIXTURE / "truth.csv"),
                "--out", str(out)]
        run_env = dict(env, OPENBLAS_CORETYPE=core) if core else env
        proc = subprocess.run([sys.executable, "-m", "radloc.cli", *argv], env=run_env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        written[core] = {name: (out / name).read_bytes() for name in ("error_series.csv", "summary.json")}
    assert written["Prescott"] == written[""] == written["Haswell"]
    # collecting rows and rows outside the truth's time range are left out
    assert json.loads(written[""]["summary.json"])["samples"] == 2


def test_metrics_samples_only_rows_with_a_finite_estimate(tmp_path):
    # a row with x finite but y or z not used to count, its error NaN or infinite
    rows = [(t, 5.0, -3.0, 0.0, *(1.0, 0.0, 0.0, 1.0, 0.0, 1.0), "tracking", "corrected") for t in range(4)]
    rows[1] = (1.0, 5.0, float("nan"), 0.0, *rows[1][4:])
    rows[2] = (2.0, 5.0, -3.0, float("inf"), *rows[2][4:])
    write_estimates_csv(tmp_path / "estimates.csv", rows)
    (tmp_path / "truth.csv").write_text("t_s,x,y,z\n0,5.0,-3.0,0.0\n3,5.0,-3.0,3.0\n")
    out = tmp_path / "met"
    argv = ["metrics", "--estimates", str(tmp_path / "estimates.csv"), "--truth", str(tmp_path / "truth.csv")]
    assert main([*argv, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 2
    assert summary["max_error_m"] == 3.0 and summary["mean_error_m"] == 1.5
    series = (out / "error_series.csv").read_text().splitlines()
    assert series[1:] == ["0,0,0,0,0,0", "3,0,0,-3,3,0"]


def test_metrics_missing_truth_exit_2(tmp_path, capsys):
    estimates = tmp_path / "estimates.csv"
    write_estimates_csv(estimates, [])
    missing = tmp_path / "missing.csv"
    code = main(
        [
            "metrics",
            "--estimates", str(estimates),
            "--truth", str(missing),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert str(missing) in capsys.readouterr().err


# --- outputs ---


@pytest.mark.parametrize("command", ["reconstruct", "estimate", "simulate", "metrics"])
def test_out_under_a_regular_file_exit_1(tmp_path, capsys, command):
    # the output directory cannot be made: an error line, not a traceback
    if command == "reconstruct":
        inputs = ["--events", str(FIXTURE / "hits.csv"), "--poses", str(FIXTURE / "poses.csv")]
    elif command == "estimate":
        exact_cones_file(tmp_path / "cones.csv")
        inputs = ["--cones", str(tmp_path / "cones.csv")]
    elif command == "simulate":
        write_scenario_yaml(tmp_path / "scenario.yaml", duration=1.0)
        inputs = ["--scenario", str(tmp_path / "scenario.yaml")]
    else:
        write_estimates_csv(tmp_path / "estimates.csv", [(0.5, 5.0, -3.0, 0.0, *(1.0, 0.0, 0.0, 1.0, 0.0, 1.0),
                                                          "tracking", "corrected")])
        (tmp_path / "truth.csv").write_text("t_s,x,y,z\n0,5.0,-3.0,0.0\n1,5.0,-3.0,0.0\n")
        inputs = ["--estimates", str(tmp_path / "estimates.csv"), "--truth", str(tmp_path / "truth.csv")]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main([command, *inputs, "--out", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker / 'out'}")
    assert "Traceback" not in err


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # the rename onto a directory fails after the temp file is written
    write_scenario_yaml(tmp_path / "scenario.yaml", duration=1.0)
    out = tmp_path / "d"
    (out / "steps.csv").mkdir(parents=True)
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.yaml"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'steps.csv'}")
    assert sorted(p.name for p in out.iterdir()) == ["steps.csv"]


# --- one parser per process ---


def test_the_cached_parser_carries_nothing_between_calls(tmp_path):
    # a tuned estimate, then a plain one, writes what a first call in a
    # fresh process writes; a bad flag and another command in between
    # change nothing
    cones_path = tmp_path / "cones.csv"
    exact_cones_file(cones_path)
    plain = ["estimate", "--cones", str(cones_path), "--out"]
    scenario = tmp_path / "scenario.yaml"
    write_scenario_yaml(scenario, duration=4.0)
    reconstruct = ["reconstruct", "--events", str(FIXTURE / "hits.csv"), "--poses", str(FIXTURE / "poses.csv"), "--out"]

    def outputs(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    cli._build_parser.cache_clear()
    assert main(plain + [str(tmp_path / "fresh")]) == 0
    cli._build_parser.cache_clear()
    assert main(reconstruct + [str(tmp_path / "rec_fresh")]) == 0

    assert main(plain + [str(tmp_path / "tuned"), "--r", "2.0", "--gate", "4.0"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(plain + [str(tmp_path / "bad"), "--no-such-flag"])
    assert exc.value.code == 2
    assert main(plain + [str(tmp_path / "again")]) == 0
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "sim")]) == 0
    assert main(reconstruct + [str(tmp_path / "rec_again")]) == 0

    assert cli._build_parser.cache_info().currsize == 1
    assert outputs(tmp_path / "again") == outputs(tmp_path / "fresh")
    assert outputs(tmp_path / "tuned") != outputs(tmp_path / "fresh")
    assert outputs(tmp_path / "rec_again") == outputs(tmp_path / "rec_fresh")
    assert not (tmp_path / "bad").exists()
