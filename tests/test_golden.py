"""Byte identity as a committed check: runs listed in tests/golden/manifest.json
must write files with the SHA-256 digests recorded there.

Each run is a radloc command line, run in-process from the repository root
with ``--out <directory>`` appended. The runs cover only paths that write
the same bytes under every BLAS kernel: ``reconstruct`` and ``metrics``.
The manifest's ``world_cones`` entry is finer: the SHA-256 of every world
cone one reconstruct run writes, each float as ``float.hex``, so that a
one-ulp change the ``%.12g`` of cones.csv rounds away still shows. The ``filter_steps`` entry is the tracking step's:
the SHA-256 of every state ``predict`` and then ``correct`` compute over a
fixed seeded family of cases, built from Python floats alone, so that it
holds under every BLAS kernel. The ``closed_loop_events`` entry is the
closed loop's: the SHA-256 of the cells of each ``simulate`` run's steps.csv
that no BLAS kernel moves (time, truth, phase and action) and of the integer
counters of its summary.json, over the bundled scenarios at a few seeds; the
estimate columns and the summary's floats move in their last bits with the
kernel. A documented output change regenerates the digests in its own diff with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import random
import tempfile
from collections import Counter
from pathlib import Path

from radloc import io as rio
from radloc.cli import main
from radloc.estimator import FilterState, NoiseConfig, correct, predict
from radloc.geometry import Cone, Frame
from radloc.initializer import Mode

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


def digests(argv: list[str], out: Path) -> dict[str, str]:
    """Run one command into out (the working directory must be ROOT); the SHA-256 of each file it wrote."""
    assert main([*argv, "--out", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def world_cone_digest(argv: list[str], out: Path) -> str:
    """Run one reconstruct command into out; the SHA-256 of float.hex of each
    written cone's time, origin, axis and half-angle, one line per cone."""
    written, write = [], rio.write_cones_csv

    def capture(path, cones):
        written.extend(cones)
        write(path, cones)

    rio.write_cones_csv = capture
    try:
        assert main([*argv, "--out", str(out)]) == 0, argv
    finally:
        rio.write_cones_csv = write
    lines = (",".join(map(float.hex, (c.timestamp, *c.origin, *c.axis, c.half_angle))) + "\n" for c in written)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        n = math.hypot(x, y, z)
        if n > 1e-3:
            return x / n, y / n, z / n


def filter_step_cases(count: int, seed: int):
    """(state, cone, config) cases of the tracking step, from Python floats alone.

    Each config is one of six: both modes, each with three (r, far_variance,
    q, gate) settings. Each cone has a random apex, axis and half-angle in
    (0.05, pi - 0.05), wide cones included. The hypothesis is, in turn, a
    point anywhere near the apex, a point near the surface, a point on the
    surface, a point on the axis, or the apex itself, where the correction
    has no direction. omega is L L^T for a random lower-triangular L with a
    positive diagonal, at scales from 0.01 to 100 m^2.
    """
    rng = random.Random(seed)
    configs = [
        NoiseConfig(mode=mode, r=r, far_variance=far, q=q, gate=gate)
        for mode in (Mode.THREE_D, Mode.TWO_D)
        for r, far, q, gate in ((1.0, 1e9, 0.01, 9.0), (0.25, 1e6, 0.0, 4.0), (4.0, 1e9, 0.1, 25.0))
    ]
    kinds = ("near_apex", "near_surface", "on_surface", "on_axis", "apex")
    for i in range(count):
        config, kind = configs[i % len(configs)], kinds[i % len(kinds)]
        o = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), rng.uniform(0.0, 20.0)
        a = _unit(rng)
        half_angle = rng.uniform(0.05, math.pi - 0.05)
        g = _unit(rng)
        dot = g[0] * a[0] + g[1] * a[1] + g[2] * a[2]
        w = g[0] - dot * a[0], g[1] - dot * a[1], g[2] - dot * a[2]
        nw = math.hypot(*w)
        w = w[0] / nw, w[1] / nw, w[2] / nw
        reach = 10.0 ** rng.uniform(-1.0, 1.7)
        c, s = math.cos(half_angle), math.sin(half_angle)
        if kind == "near_apex":
            d = _unit(rng)
        elif kind == "on_axis":
            d = a
        else:
            d = c * a[0] + s * w[0], c * a[1] + s * w[1], c * a[2] + s * w[2]
        x = o[0] + reach * d[0], o[1] + reach * d[1], o[2] + reach * d[2]
        if kind == "near_surface":
            spread = 10.0 ** rng.uniform(-2.0, 1.0)
            x = tuple(c + spread * rng.gauss(0.0, 1.0) for c in x)
        elif kind == "apex":
            x = o
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        l00, l11, l22 = (scale * rng.uniform(0.2, 1.0) for _ in range(3))
        l10, l20, l21 = (scale * rng.gauss(0.0, 0.5) for _ in range(3))
        o00, o11 = l00 * l00, l10 * l10 + l11 * l11
        o22 = l20 * l20 + l21 * l21 + l22 * l22
        o01, o02, o12 = l10 * l00, l20 * l00, l20 * l10 + l21 * l11
        yield FilterState(x, (o00, o01, o02, o11, o12, o22)), Cone(o, a, half_angle, Frame.WORLD), config


def filter_step_digest(count: int = 3000, seed: int = 2028) -> tuple[str, Counter]:
    """The SHA-256 of float.hex of the 12 floats (x, then omega row by row) of
    each case's state after predict and of its state after correct, one line
    per case; a gated cone writes "gated" and a correction with no direction,
    which returns its input state, "kept". Also the outcomes counted by mode."""
    lines, outcomes = [], Counter()
    for state, cone, config in filter_step_cases(count, seed):
        predicted = predict(state, config)
        corrected = correct(predicted, cone, config)
        if corrected is None:
            outcome, tail = "gated", "gated"
        elif corrected is predicted:
            outcome, tail = "kept", "kept"
        else:
            outcome, tail = "accepted", _hex_state(corrected)
        outcomes[config.mode.value, outcome] += 1
        lines.append(f"{_hex_state(predicted)};{tail}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest(), outcomes


def closed_loop_event_digest(scenarios: list[str], seeds: list[int], out: Path) -> str:
    """Run simulate on each scenario at each seed into out (the working directory
    must be ROOT); the SHA-256 of each run's steps.csv cells t_s, truth_x,
    truth_y, truth_z, phase and action, one line per row, header included, and
    then its summary.json's int-valued keys as sorted JSON, one line per run."""
    lines = []
    for scenario in scenarios:
        for seed in seeds:
            run = out / f"{Path(scenario).stem}_{seed}"
            assert main(["simulate", "--scenario", scenario, "--seed", str(seed), "--out", str(run)]) == 0
            for row in (run / "steps.csv").read_text().splitlines():
                cells = row.split(",")
                lines.append(",".join(cells[:4] + cells[8:]) + "\n")
            summary = json.loads((run / "summary.json").read_text())
            lines.append(json.dumps({k: v for k, v in summary.items() if type(v) is int}, sort_keys=True) + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _hex_state(state: FilterState) -> str:
    """x, then omega row by row: each stored upper entry once more in the lower triangle."""
    xx, xy, xz, yy, yz, zz = state.omega
    return ",".join(map(float.hex, (*state.x, xx, xy, xz, xy, yy, yz, xz, yz, zz)))


def test_golden_runs_write_the_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = json.loads(MANIFEST.read_text())["runs"]
    assert [run["argv"][0] for run in runs] == ["reconstruct"] * 4 + ["metrics"]
    for run in runs:
        assert digests(run["argv"], tmp_path / run["name"]) == run["files"], run["name"]


def test_reconstruct_writes_the_manifest_world_cones_to_the_last_bit(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry = json.loads(MANIFEST.read_text())["world_cones"]
    assert entry["argv"][0] == "reconstruct"
    assert world_cone_digest(entry["argv"], tmp_path) == entry["sha256"]


def test_tracking_steps_compute_the_manifest_filter_steps_to_the_last_bit():
    entry = json.loads(MANIFEST.read_text())["filter_steps"]
    digest, outcomes = filter_step_digest(entry["count"], entry["seed"])
    for mode in ("3d", "2d"):  # every outcome in both modes
        for outcome in ("accepted", "gated", "kept"):
            assert outcomes[mode, outcome] >= 50, outcomes
    assert digest == entry["sha256"]


def test_closed_loop_runs_keep_the_manifest_events(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry = json.loads(MANIFEST.read_text())["closed_loop_events"]
    bundled = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "radloc" / "scenarios").glob("*.yaml"))
    assert entry["scenarios"] == bundled and len(bundled) == 4
    assert closed_loop_event_digest(entry["scenarios"], entry["seeds"], tmp_path) == entry["sha256"]


if __name__ == "__main__":
    os.chdir(ROOT)
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for run in manifest["runs"]:
            run["files"] = digests(run["argv"], Path(tmp) / run["name"])
        entry = manifest["world_cones"]
        entry["sha256"] = world_cone_digest(entry["argv"], Path(tmp) / "world_cones")
        entry = manifest["closed_loop_events"]
        entry["sha256"] = closed_loop_event_digest(entry["scenarios"], entry["seeds"], Path(tmp) / "closed_loop")
    entry = manifest["filter_steps"]
    entry["sha256"] = filter_step_digest(entry["count"], entry["seed"])[0]
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
