"""Byte identity as a committed check: runs listed in tests/golden/manifest.json
must write files with the SHA-256 digests recorded there.

Each run is a radloc command line, run in-process from the repository root
with ``--out <directory>`` appended. The runs cover only paths that write
the same bytes under every BLAS kernel. The manifest's ``world_cones`` entry
is finer: the SHA-256 of every world cone one reconstruct run writes, each
float as ``float.hex``, so that a one-ulp change the ``%.12g`` of cones.csv
rounds away still shows. A documented output change regenerates the digests
in its own diff with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from radloc import io as rio
from radloc.cli import main

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


def test_golden_runs_write_the_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = json.loads(MANIFEST.read_text())["runs"]
    assert [run["argv"][0] for run in runs] == ["reconstruct"] * 4
    for run in runs:
        assert digests(run["argv"], tmp_path / run["name"]) == run["files"], run["name"]


def test_reconstruct_writes_the_manifest_world_cones_to_the_last_bit(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry = json.loads(MANIFEST.read_text())["world_cones"]
    assert entry["argv"][0] == "reconstruct"
    assert world_cone_digest(entry["argv"], tmp_path) == entry["sha256"]


if __name__ == "__main__":
    os.chdir(ROOT)
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for run in manifest["runs"]:
            run["files"] = digests(run["argv"], Path(tmp) / run["name"])
        entry = manifest["world_cones"]
        entry["sha256"] = world_cone_digest(entry["argv"], Path(tmp) / "world_cones")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
