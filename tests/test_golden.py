"""Byte identity as a committed check: runs listed in tests/golden/manifest.json
must write files with the SHA-256 digests recorded there.

Each run is a radloc command line, run in-process from the repository root
with ``--out <directory>`` appended. The runs cover only paths that write
the same bytes under every BLAS kernel. A documented output change
regenerates the digests in its own diff with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from radloc.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


def digests(argv: list[str], out: Path) -> dict[str, str]:
    """Run one command into out (the working directory must be ROOT); the SHA-256 of each file it wrote."""
    assert main([*argv, "--out", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_golden_runs_write_the_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = json.loads(MANIFEST.read_text())["runs"]
    assert [run["argv"][0] for run in runs] == ["reconstruct"] * 4
    for run in runs:
        assert digests(run["argv"], tmp_path / run["name"]) == run["files"], run["name"]


if __name__ == "__main__":
    os.chdir(ROOT)
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for run in manifest["runs"]:
            run["files"] = digests(run["argv"], Path(tmp) / run["name"])
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
