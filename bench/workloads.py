"""Workload inputs, operations and output checks for the radloc benchmark.

A workload turns the benchmark seed into a fixed list of operations. Each
operation is one ``radloc`` command line, run in-process through
``radloc.cli.main``, plus a check of the files it wrote. One pass runs
every operation once; the benchmark repeats passes, so every operation
must produce identical counts and byte-identical outputs each time.

Nothing here imports radloc at module level: the runner puts the
checkout's ``src`` on the path first. ``load_check_helpers`` binds the
reader the checks use before any tracing wrapper is installed, so checks
never show up in the trace.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Moving-source configuration of the release gate test_moving_source_tracking:
# 1.7 cones/s at a 10 m standoff from 5 m altitude (1.7 * 125 / CONE_RATE_CONSTANT
# = 3.75e9 Bq), r=0.5, q=1.0, gate=25, multistart=4, max_iterations=60, 300 s.
TRACK_YAML = """\
source:
  position: [10.0, 2.0, 0.0]
  velocity: [0.8, 0.6, 0.0]
  activity_bq: 3.75e9
area: [30.0, 30.0]
uav:
  speed: 5.0
  orbit_radius: 10.0
  altitude: 5.0
  program: search
detector:
  angular_sigma: 0.05
  axis_sigma: 0.0
  background_rate: 0.0
estimator:
  mode: 3d
  r: 0.5
  q: 1.0
  gate: 25.0
  init_variance: 25.0
  multistart: 4
  max_iterations: 60
duration: 300.0
timestep: 0.5
seed: 0
"""

# The gate's criterion: a run passes with a post-lock mean planar error
# under 5 m, and the gate needs 80 % of runs to pass.
TRACK_ERROR_LIMIT_M = 5.0
TRACK_PASS_SHARE = 0.8

# Sizes: (track scenario seeds, reconstruct hit files, seconds per hit file,
# seconds of pose stream). A pass is kept short, so that a run repeats each
# cone's step often enough to find an undisturbed repetition of it. Every
# reconstruct file is processed against one pose file covering all of them;
# its length (which interpolate_pose's cost depends on) is fixed at 601 poses.
SIZES = {"full": (5, 1, 20.0, 60.0), "smoke": (1, 1, 4.0, 4.0)}
POSE_RATE_HZ = 10.0
EVENT_RATE_HZ = 200.0
INCIDENT_KEV = 662.0
ELECTRON_REST_KEV = 511.0
# Hit energies are multiples of 1/256 keV, so a track's summed energy is
# exact in any summation order and the expected cone angle is known exactly.
ENERGY_QUANTUM = 1.0 / 256.0

_read_cones_csv: Callable | None = None


def load_check_helpers() -> None:
    """Bind the cone reader used by the checks (call before tracing)."""
    global _read_cones_csv
    from radloc.io import read_cones_csv

    _read_cones_csv = read_cones_csv


@dataclass
class Outcome:
    """What one operation did: cones handled, its repeatable counts, and
    the reason it failed its check (None when it passed)."""

    cones: int
    counts: dict
    failure: str | None = None
    loc_error_m: float | None = None


@dataclass
class Operation:
    name: str
    argv: list[str]
    out: Path
    check: Callable[["Operation", int], Outcome]
    truth: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    input_size: dict


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_summary(op: Operation, rc: int) -> tuple[dict | None, str | None]:
    if rc != 0:
        return None, f"exit code {rc}"
    path = op.out / "summary.json"
    if not path.is_file():
        return None, "summary.json missing"
    return json.loads(path.read_text()), None


_SIM_COUNT_KEYS = (
    "cones_total",
    "accepted",
    "rejected",
    "resets",
    "degenerate_solves",
    "inconsistent_solves",
    "tracked_steps",
    "time_to_init_s",
    "post_lock_mean_planar_error_m",
)


def _simulate_counts(op: Operation, summary: dict) -> dict:
    counts = {k: summary[k] for k in _SIM_COUNT_KEYS}
    counts["sha256"] = _digest(op.out / "summary.json", op.out / "steps.csv")
    return counts


def _check_track(op: Operation, rc: int) -> Outcome:
    summary, failure = _read_summary(op, rc)
    if summary is None:
        return Outcome(0, {}, failure)
    err = summary["post_lock_mean_planar_error_m"]
    # a single miss is within the gate; the pass-level share is judged by
    # the runner (see pass_failures)
    return Outcome(summary["cones_total"], _simulate_counts(op, summary), None, err)


def _check_reconstruct(op: Operation, rc: int) -> Outcome:
    summary, failure = _read_summary(op, rc)
    if summary is None:
        return Outcome(0, {}, failure)
    truth = op.truth
    counts = {
        "counts": summary["counts"],
        "pairs": summary["pairs"],
        "rejected_pairs": summary["rejected_pairs"],
        "cones_written": summary["cones_written"],
        "outside_pose_range": summary["outside_pose_range"],
        "sha256": _digest(op.out / "summary.json", op.out / "cones.csv"),
    }
    expected = {
        "counts": truth["counts"],
        "pairs": truth["pairs"],
        "rejected_pairs": truth["rejected_pairs"],
        "cones_written": len(truth["half_angles"]),
        "outside_pose_range": 0,
    }
    for key, want in expected.items():
        if counts[key] != want:
            return Outcome(summary["cones_written"], counts, f"{key}: got {counts[key]}, want {want}")
    cones = _read_cones_csv(op.out / "cones.csv")
    if len(cones) != len(truth["half_angles"]):
        return Outcome(len(cones), counts, f"cones.csv has {len(cones)} rows")
    for i, (cone, want) in enumerate(zip(cones, truth["half_angles"])):
        # cones.csv keeps 12 significant digits
        if cone.frame.value != "W" or not math.isclose(cone.half_angle, want, rel_tol=1e-10):
            return Outcome(
                len(cones), counts, f"cone {i}: half-angle {cone.half_angle!r}, want {want!r}"
            )
    return Outcome(len(cones), counts, None)


def pass_failures(workload: str, outcomes: list[Outcome]) -> int:
    """Operations of one pass that fail a pass-level criterion.

    For ``track`` the gate asks that 80 % of runs localize under 5 m; when
    a pass misses that share, its missing runs count as failed.
    """
    if workload != "track" or not outcomes:
        return 0
    misses = sum(1 for o in outcomes if not track_locked(o))
    return misses if (len(outcomes) - misses) < TRACK_PASS_SHARE * len(outcomes) else 0


def track_locked(outcome: Outcome) -> bool:
    err = outcome.loc_error_m
    return err is not None and err < TRACK_ERROR_LIMIT_M


def build(name: str, seed: int, size: str, work: Path) -> Workload:
    """Write the inputs for one workload and seed under ``work``."""
    n_track, n_files, file_s, pose_s = SIZES[size]
    inputs = work / "inputs"
    outputs = work / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "track":
        yaml_path = inputs / "track.yaml"
        yaml_path.write_text(TRACK_YAML)
        ops = [
            Operation(
                f"track-{s}",
                ["simulate", "--scenario", str(yaml_path), "--out", str(outputs / f"track-{s}"),
                 "--seed", str(s)],
                outputs / f"track-{s}",
                _check_track,
            )
            for s in range(seed * n_track, (seed + 1) * n_track)
        ]
        return Workload(name, ops, {"scenario_seeds": n_track, "scenario_duration_s": 300.0})
    if name == "reconstruct":
        poses_path = inputs / "poses.csv"
        files, size_info = write_reconstruct_inputs(seed, n_files, file_s, pose_s, inputs, poses_path)
        ops = [
            Operation(
                hits_path.stem,
                ["reconstruct", "--events", str(hits_path), "--poses", str(poses_path),
                 "--out", str(outputs / hits_path.stem), "--duration", repr(file_s)],
                outputs / hits_path.stem,
                _check_reconstruct,
                truth,
            )
            for hits_path, truth in files
        ]
        return Workload(name, ops, size_info)
    raise ValueError(f"unknown workload {name!r}")


# --- reconstruct input generator ---

# event mix of the flat hit stream (shares of events)
_EVENT_MIX = (
    ("photoelectric", 0.50),
    ("compton", 0.30),
    ("background_single", 0.10),
    ("background_pair", 0.04),
    ("triple", 0.04),
    ("invalid_compton", 0.02),
)
_NEIGHBORS = [(dc, dr) for dc in (-1, 0, 1) for dr in (-1, 0, 1) if (dc, dr) != (0, 0)]


def _quantize(e: float) -> float:
    return round(e / ENERGY_QUANTUM) * ENERGY_QUANTUM


def _track(rng: np.random.Generator, anchor: tuple[int, int], toa: float, energy: float,
           hits: list) -> float:
    """Append a connected 1-4 pixel track; return its exact summed energy.

    The first hit carries the track's arrival time; the others follow
    within 30 ns, well inside the clustering gap.
    """
    n = int(rng.integers(1, 5))
    pixels = [anchor]
    while len(pixels) < n:
        dc, dr = _NEIGHBORS[int(rng.integers(0, 8))]
        c, r = pixels[-1][0] + dc, pixels[-1][1] + dr
        if (c, r) not in pixels:
            pixels.append((c, r))
    weights = rng.dirichlet(np.ones(n))
    parts = [max(ENERGY_QUANTUM, _quantize(energy * w)) for w in weights]
    for k, ((c, r), e) in enumerate(zip(pixels, parts)):
        jitter = 0.0 if k == 0 else float(rng.uniform(0.5, 30.0))
        hits.append((toa + jitter, c, r, e))
    return sum(parts)


def _anchors(rng: np.random.Generator, count: int) -> list[tuple[int, int]]:
    """Track anchors far enough apart that tracks of one event never touch."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        a = (int(rng.integers(4, 252)), int(rng.integers(4, 252)))
        if all(max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 10 for b in out):
            out.append(a)
    return out


def _expected_angle(electron_kev: float, photon_kev: float) -> float:
    b = 1.0 + ELECTRON_REST_KEV * (1.0 / (electron_kev + photon_kev) - 1.0 / photon_kev)
    return math.acos(b)


def _write_hits(rng: np.random.Generator, t0_s: float, duration_s: float, path: Path) -> dict:
    """One flat hit CSV covering [t0, t0 + duration); returns its truth."""
    n_events = int(EVENT_RATE_HZ * duration_s)
    spacing_ns = duration_s * 1e9 / n_events
    names = [n for n, _ in _EVENT_MIX]
    kinds = rng.choice(len(names), size=n_events, p=[p for _, p in _EVENT_MIX])
    counts = {"photoelectric": 0, "compton": 0, "background": 0}
    half_angles: list[float] = []
    pairs = rejected = 0
    hits: list[tuple[float, int, int, float]] = []
    for k, kind in enumerate(kinds):
        # events sit milliseconds apart, far beyond window and clustering gap
        toa = t0_s * 1e9 + (k + 0.5 + float(rng.uniform(-0.3, 0.3))) * spacing_ns
        kind = names[kind]
        if kind == "photoelectric":
            _track(rng, _anchors(rng, 1)[0], toa, float(rng.uniform(30.0, 700.0)), hits)
            counts["photoelectric"] += 1
        elif kind == "background_single":
            _track(rng, _anchors(rng, 1)[0], toa, float(rng.uniform(850.0, 2500.0)), hits)
            counts["background"] += 1
        elif kind == "background_pair":
            a, b = _anchors(rng, 2)
            _track(rng, a, toa, float(rng.uniform(450.0, 900.0)), hits)
            _track(rng, b, toa + float(rng.uniform(2.0, 80.0)), float(rng.uniform(450.0, 900.0)), hits)
            counts["background"] += 1
            pairs += 1
        else:
            a, b, c = _anchors(rng, 3)
            if kind == "invalid_compton":
                # cos(theta) < -1: kinematically impossible, classified but no cone
                photon_kev, electron_kev = float(rng.uniform(90.0, 150.0)), float(rng.uniform(450.0, 550.0))
            else:
                theta = float(rng.uniform(0.35, 2.6))
                photon_kev = INCIDENT_KEV / (1.0 + INCIDENT_KEV / ELECTRON_REST_KEV * (1.0 - math.cos(theta)))
                electron_kev = INCIDENT_KEV - photon_kev
            dt = float(rng.uniform(2.0, 60.0))
            # the earlier track takes the photon role
            ep = _track(rng, a, toa, photon_kev, hits)
            ee = _track(rng, b, toa + dt, electron_kev, hits)
            counts["compton"] += 1
            pairs += 1
            if kind == "invalid_compton":
                rejected += 1
            else:
                half_angles.append(_expected_angle(ee, ep))
            if kind == "triple":
                # a third track inside the same window stays unpaired
                _track(rng, c, toa + dt + float(rng.uniform(1.0, 85.0 - dt)), float(rng.uniform(30.0, 300.0)), hits)
                counts["photoelectric"] += 1

    hits.sort(key=lambda h: h[0])
    lines = ["toa_ns,col,row,energy_kev"]
    lines.extend(f"{t!r},{c},{r},{e!r}" for t, c, r, e in hits)
    path.write_text("\n".join(lines) + "\n")
    return {"counts": counts, "pairs": pairs, "rejected_pairs": rejected,
            "half_angles": half_angles, "hits": len(hits), "events": n_events}


def _write_poses(rng: np.random.Generator, duration_s: float, path: Path) -> int:
    """10 Hz pose stream on a 10 m circle at 5 m altitude; returns its length."""
    n_poses = int(round(duration_s * POSE_RATE_HZ)) + 1
    t = np.arange(n_poses) / POSE_RATE_HZ
    azimuth = float(rng.uniform(0.0, 2.0 * math.pi)) + 0.2 * t  # 2 m/s
    yaw = azimuth + math.pi  # facing the circle's centre
    roll = 0.1 * np.sin(t)  # body wobble, so the orientation is fully 3-D
    cy, sy, cr, sr = np.cos(yaw / 2), np.sin(yaw / 2), np.cos(roll / 2), np.sin(roll / 2)
    # q = q_yaw(z) * q_roll(x), w-first
    quats = np.stack([cy * cr, cy * sr, sy * sr, sy * cr], axis=1)
    pos = np.stack([10.0 * np.cos(azimuth), 10.0 * np.sin(azimuth), np.full(n_poses, 5.0)], axis=1)
    lines = ["t_s,px,py,pz,qw,qx,qy,qz"]
    for i in range(n_poses):
        cells = [float(t[i]), *map(float, pos[i]), *map(float, quats[i])]
        lines.append(",".join(repr(v) for v in cells))
    path.write_text("\n".join(lines) + "\n")
    return n_poses


def write_reconstruct_inputs(seed: int, n_files: int, file_s: float, pose_s: float, inputs: Path,
                             poses_path: Path) -> tuple[list[tuple[Path, dict]], dict]:
    """Consecutive hit CSVs plus one pose CSV of ``pose_s`` seconds from t=0.

    interpolate_pose's cost grows with the pose stream's length, so that
    length is set on its own, not by the hit files.

    Returns [(hits path, truth)] and the input size.
    """
    rng = np.random.default_rng([0x7EC0, seed])
    files = []
    for i in range(n_files):
        path = inputs / f"hits-{i}.csv"
        files.append((path, _write_hits(rng, i * file_s, file_s, path)))
    if pose_s < n_files * file_s:
        raise ValueError("the pose stream must cover every hit file")
    n_poses = _write_poses(rng, pose_s, poses_path)
    size = {
        "hit_files": n_files,
        "seconds_per_file": file_s,
        "hits": sum(t["hits"] for _, t in files),
        "events": sum(t["events"] for _, t in files),
        "cones": sum(len(t["half_angles"]) for _, t in files),
        "poses": n_poses,
        "pose_rate_hz": POSE_RATE_HZ,
    }
    return files, size
