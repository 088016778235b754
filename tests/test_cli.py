import json

import numpy as np
import pytest

from radloc import cli, estimator
from radloc.cli import main
from radloc.estimator import NoiseConfig, SourceEstimator
from radloc.initializer import InitSolution, Mode
from radloc.geometry import Cone, Frame
from radloc.io import (
    CONES_HEADER,
    HITS_HEADER,
    POSES_HEADER,
    read_estimates_csv,
    write_cones_csv,
    write_estimates_csv,
)

from test_events import synthetic_stream
from test_initializer import cone_through

SOURCE = np.array([5.0, -3.0, 0.0])


def write_hits_csv(path, hits):
    lines = [",".join(HITS_HEADER)]
    for h in hits:
        lines.append(f"{h.toa:.12g},{h.col},{h.row},{h.energy:.12g}")
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


def test_reconstruct_pairs_input(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "electron_x_mm,electron_y_mm,electron_kev,electron_toa_ns,"
        "photon_x_mm,photon_y_mm,photon_kev,photon_toa_ns\n"
        "1.0,1.0,315.70,120.31,3.0,4.0,394.22,100.0\n"
    )
    poses = tmp_path / "poses.csv"
    write_poses_csv(poses)
    out = tmp_path / "out"
    code = main(
        ["reconstruct", "--events", str(pairs), "--poses", str(poses), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pairs"] == 1
    assert summary["cones_written"] == 1


def test_reconstruct_parse_error_exit_2(tmp_path, capsys):
    events = tmp_path / "hits.csv"
    poses = tmp_path / "poses.csv"
    write_poses_csv(poses)
    # a bad number, then values PixelHit refuses: NaN energy, fractional pixel
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
    assert plain.mode is Mode.THREE_D
    assert tuned.config == NoiseConfig(
        r=0.5, q=0.2, outlier_gate=16.0, init_cone_count=6, far_variance=1e8, init_multistart=3
    )
    assert tuned.mode is Mode.TWO_D


def test_estimate_summary_counts_inconsistent_solves(tmp_path, monkeypatch):
    # a best fit far above the consistency gate: every attempt is inconsistent
    def inconsistent(problem):
        return InitSolution(np.zeros(3), 1e9, 1.0, False, 1)

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


def test_simulate_schema_error_exit_3(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("nonsense_key: 1\n")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 3


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
