import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import radloc
from radloc.cli import main
from radloc.errors import MalformedInputError, OrderingError, ParseError, SchemaError
from radloc.geometry import Cone, Frame
from radloc.io import (
    CONES_HEADER,
    ESTIMATES_HEADER,
    HITS_HEADER,
    PAIRS_HEADER,
    POSES_HEADER,
    STEPS_HEADER,
    TRUTH_HEADER,
    atomic_write,
    load_scenario,
    read_cones_csv,
    read_estimates_csv,
    read_hits_csv,
    read_pairs_csv,
    read_poses_csv,
    read_truth_csv,
    scenario_from_dict,
    sniff_events_format,
    write_cones_csv,
    write_estimates_csv,
    write_json,
    write_steps_csv,
)
from radloc.estimator import NoiseConfig
from radloc.initializer import Mode
from radloc.simulator import DetectorModel, Scenario, run_scenario

from oracles import (
    read_cones_reference,
    read_estimates_reference,
    read_hits_reference,
    read_pairs_reference,
    read_poses_reference,
    read_truth_reference,
)

SCENARIO_DIR = Path(radloc.__file__).parent / "scenarios"
FIXTURE = Path(__file__).parent / "data"


def write_lines(path, header, rows):
    path.write_text("\n".join([",".join(header)] + rows) + "\n")


# --- cones ---


def test_cones_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    cones = []
    for k in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        cones.append(
            Cone(
                rng.normal(size=3) * 10.0,
                axis,
                float(rng.uniform(0.2, 1.4)),
                Frame.WORLD if k % 2 == 0 else Frame.CAMERA,
                0.5 * k,
            )
        )
    path = tmp_path / "cones.csv"
    write_cones_csv(path, cones)
    back = read_cones_csv(path)
    assert len(back) == len(cones)
    for a, b in zip(cones, back):
        assert b.timestamp == pytest.approx(a.timestamp, rel=1e-12, abs=1e-12)
        assert np.allclose(b.origin, a.origin, rtol=1e-11)
        assert np.allclose(b.axis, a.axis, rtol=1e-11, atol=1e-11)
        assert b.half_angle == pytest.approx(a.half_angle, rel=1e-11)
        assert b.frame is a.frame


def test_cones_reader_allows_equal_timestamps(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, CONES_HEADER, ["0.5,0,0,0,1,0,0,0.7,W", "0.5,1,0,0,0,1,0,0.8,W"])
    assert len(read_cones_csv(path)) == 2


def test_cones_reader_rejects_backwards_time(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, CONES_HEADER, ["1.0,0,0,0,1,0,0,0.7,W", "0.5,1,0,0,0,1,0,0.8,W"])
    with pytest.raises(OrderingError):
        read_cones_csv(path)
    # NaN compares false both ways, so it must not pass as "in order"
    for bad in ("nan", "inf"):
        write_lines(path, CONES_HEADER, ["0,0,0,0,1,0,0,0.7,W", f"{bad},1,0,0,0,1,0,0.8,W"])
        with pytest.raises(ParseError) as err:
            read_cones_csv(path)
        assert err.value.line == 3


def test_cones_reader_normalizes_axis(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, CONES_HEADER, ["0,0,0,0,2,0,0,0.5,W"])
    (cone,) = read_cones_csv(path)
    assert np.allclose(cone.axis, [1.0, 0.0, 0.0])


def test_cones_reader_rejects_bad_frame_and_axis(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, CONES_HEADER, ["0,0,0,0,1,0,0,0.5,X"])
    with pytest.raises(ParseError):
        read_cones_csv(path)
    write_lines(path, CONES_HEADER, ["0,0,0,0,0,0,0,0.5,W"])
    with pytest.raises(ParseError):
        read_cones_csv(path)
    # the Cone refuses these values; the reader names the line
    good = "0,0,0,0,1,0,0,0.5,W"
    for bad in (
        "1,nan,0,0,1,0,0,0.5,W",
        "1,0,inf,0,1,0,0,0.5,W",
        "1,0,0,0,nan,0,0,0.5,W",
        "1,0,0,0,1,0,0,nan,W",
        "1,0,0,0,1,0,0,3.5,W",
        "1,0,0,0,1,0,0,0,W",
    ):
        write_lines(path, CONES_HEADER, [good, bad])
        with pytest.raises(ParseError) as err:
            read_cones_csv(path)
        assert err.value.line == 3, bad


def test_csv_error_carries_line_number(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, CONES_HEADER, ["0,0,0,0,1,0,0,0.5,W", "oops,0,0,0,1,0,0,0.5,W"])
    with pytest.raises(ParseError) as err:
        read_cones_csv(path)
    assert err.value.line == 3
    assert "3" in str(err.value)


def test_wrong_header_names_offending_columns(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, ["t_s", "ox", "oy", "oz", "bogus"], ["0,0,0,0,0"])
    with pytest.raises(SchemaError) as err:
        read_cones_csv(path)
    assert "bogus" in err.value.keys


def test_empty_file_is_schema_error(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_cones_csv(path)


# --- poses ---


def test_poses_reader_happy_and_ordering(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(
        path,
        POSES_HEADER,
        ["0.0,1,2,3,1,0,0,0", "0.5,2,2,3,1,0,0,0"],
    )
    poses = read_poses_csv(path)
    assert poses.times == [0.0, 0.5]
    assert poses.positions[0] == (1.0, 2.0, 3.0)
    assert poses.orientations == [(1.0, 0.0, 0.0, 0.0)] * 2

    write_lines(path, POSES_HEADER, ["0.5,1,2,3,1,0,0,0", "0.5,2,2,3,1,0,0,0"])
    with pytest.raises(OrderingError):
        read_poses_csv(path)
    write_lines(
        path, POSES_HEADER, ["0,1,2,3,1,0,0,0", "nan,2,2,3,1,0,0,0", "2,3,2,3,1,0,0,0"]
    )
    with pytest.raises(ParseError) as err:
        read_poses_csv(path)
    assert err.value.line == 3


def test_poses_reader_rejects_unnormalized_quaternion(tmp_path):
    path = tmp_path / "p.csv"
    for bad in ("0.0,1,2,3,2,0,0,0", "0.0,1,2,3,nan,0,0,0", "0.0,nan,2,3,1,0,0,0"):
        write_lines(path, POSES_HEADER, [bad])
        with pytest.raises(ParseError) as err:
            read_poses_csv(path)
        assert err.value.line == 2, bad


def test_poses_reader_reads_like_per_row_reader(tmp_path):
    # positions as written, quaternions normalized bit for bit as the per-row records do
    path = tmp_path / "p.csv"
    fixture = (FIXTURE / "poses.csv").read_text().splitlines()[1:]
    near_unit = ["0,0,0,5,1,0,0,1e-8", "1,-1e300,2,3,0.5000003,0.5,-0.5,0.5", "2,1,2,3,-0.1,0.2,0.3,0.9273618495495705"]
    for body in (fixture, near_unit, ["0,1,2,3,1,0,0,0", "", "  ", "1,1,2,3,0,1,0,0"]):
        write_lines(path, POSES_HEADER, body)
        got, want = read_poses_csv(path), read_poses_reference(path)
        assert got.times == [p.timestamp for p in want], body
        assert got.positions == [p.position for p in want]
        assert got.orientations == [p.orientation for p in want]
        assert all(type(v) is float for q in got.orientations for v in q)
    write_lines(path, POSES_HEADER, near_unit)
    for orientation in read_poses_csv(path).orientations:
        assert abs(np.linalg.norm(orientation) - 1.0) < 1e-15


def test_poses_reader_rejects_short_row(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, POSES_HEADER, ["0.0,1,2,3"])
    with pytest.raises(ParseError):
        read_poses_csv(path)


# --- hits and pairs ---


def test_hits_reader_validation(tmp_path):
    path = tmp_path / "h.csv"
    write_lines(path, HITS_HEADER, ["100.0,10,12,340.5"])
    hits = read_hits_csv(path)
    assert hit_rows(hits) == [(100.0, 10, 12, 340.5)]

    write_lines(path, HITS_HEADER, ["100.0,300,12,340.5"])
    with pytest.raises(ParseError):
        read_hits_csv(path)
    write_lines(path, HITS_HEADER, ["100.0,10,12,0.0"])
    with pytest.raises(ParseError):
        read_hits_csv(path)
    write_lines(path, HITS_HEADER, ["nan,10,12,340.5"])
    with pytest.raises(ParseError):
        read_hits_csv(path)
    # NaN energy, fractional or NaN pixel indices: refused at their line
    for bad in ("100.0,10,12,nan", "100.0,10.7,12,340.5", "100.0,10,12.5,340.5", "100.0,nan,12,340.5"):
        write_lines(path, HITS_HEADER, ["99.0,10,12,340.5", bad])
        with pytest.raises(ParseError) as err:
            read_hits_csv(path)
        assert err.value.line == 3, bad
    write_lines(path, HITS_HEADER, ["100.0,10.0,12.0,340.5"])
    assert hit_rows(read_hits_csv(path)) == [(100.0, 10, 12, 340.5)]


def test_hits_reader_line_numbers_past_blank_lines(tmp_path):
    path = tmp_path / "h.csv"
    write_lines(path, HITS_HEADER, ["99.0,10,12,340.5", "", "   ", "100.0,11,12,20.5"])
    hits = read_hits_csv(path)
    assert hit_rows(hits) == [(99.0, 10, 12, 340.5), (100.0, 11, 12, 20.5)]
    # the short row is line 5: header, a hit, two blank lines
    write_lines(path, HITS_HEADER, ["99.0,10,12,340.5", "", "   ", "100.0,10,12", "101.0,10,12,1.0"])
    with pytest.raises(ParseError, match="expected 4 fields, got 3") as err:
        read_hits_csv(path)
    assert err.value.line == 5
    # a quote is no quoting: the cell holding it is not a number, on its own line
    write_lines(path, HITS_HEADER, ["99.0,10,12,340.5", '100.0,"10,12,1.0', "101.0,10,12,1.0"])
    with pytest.raises(ParseError) as err:
        read_hits_csv(path)
    assert err.value.line == 3


# bodies each reader must refuse as its per-row reference in tests/oracles.py
# does: the same exception type and message, at the same line. Where a body
# has more than one fault, the earliest faulty line is the one reported.
GOOD_PAIR = "1.0,2.0,315.70,120.31,3.0,4.0,394.22,100.0"
GOOD_CONE = "0,0,0,0,1,0,0,0.5,W"
GOOD_ESTIMATE = "0.5,1,2,0,1,0,0,1,0,1,tracking,corrected"
MALFORMED_BODIES = {
    "hits": {
        "bad number": "99.0,10,12,340.5\nnot_a_number,1,1,300\n",
        "empty cell": "99.0,10,12,340.5\n100.0,,12,340.5\n",
        "short row": "99.0,10,12,340.5\n100.0,10,12\n",
        "long row": "99.0,10,12,340.5\n100.0,10,12,1.0,2\n",
        "trailing comma": "99.0,10,12,340.5\n100.0,10,12,1.0,\n",
        "unterminated quote": '99.0,10,12,340.5\n100.0,"10,12,1.0\n101.0,10,12,1.0\n',
        "short row after blank lines": "99.0,10,12,340.5\n\n   \n100.0,10,12\n",
        "bad hit after empty lines": "99.0,10,12,340.5\n\n\n100.0,10,12,nan\n",
        "bad hit after a line of spaces": "99.0,10,12,340.5\n  \n100.0,10,12,0\n",
        "crlf": "99.0,10,12,340.5\r\n100.0,10.5,12,1.0\r\n",
        "nan toa": "99.0,10,12,340.5\nnan,10,12,340.5\n",
        "inf toa": "99.0,10,12,340.5\ninf,10,12,340.5\n",
        "-inf toa": "99.0,10,12,340.5\n-inf,10,12,340.5\n",
        "fractional pixel": "99.0,10,12,340.5\n100.0,10.7,12,340.5\n",
        "fractional row": "99.0,10,12,340.5\n100.0,10,12.5,340.5\n",
        "nan pixel": "99.0,10,12,340.5\n100.0,nan,12,340.5\n",
        "pixel past the matrix": "99.0,10,12,340.5\n100.0,256,12,340.5\n",
        "negative pixel": "99.0,10,12,340.5\n100.0,10,-1,340.5\n",
        "zero energy": "99.0,10,12,340.5\n100.0,10,12,0.0\n",
        "nan energy": "99.0,10,12,340.5\n100.0,10,12,nan\n",
        "negative energy": "99.0,10,12,340.5\n100.0,10,12,-3\n",
        "two bad hits": "99.0,10,12,340.5\n100.0,10,300,0\n100.0,nan,12,340.5\n",
        # spellings float() reads and plain decimal does not
        "digit separator": "99.0,10,12,340.5\n1_000,10,12,340.5\n",
        "quoted cells": '99.0,10,12,340.5\n"100.0",11,12,"20.5"\n',
        "arabic digits": "99.0,10,12,340.5\n\u0661\u0660,1,1,1\n",
        "quoted cell after blank lines": '99.0,10,12,340.5\n\n   \n"100.0",11,12,"20.5"\n',
        "bad hit before a bad number": "99.0,10,12,340.5\n100.0,10,300,1.0\noops,1,1,1\n",
        "bad number before a bad hit": "99.0,10,12,340.5\noops,1,1,1\n100.0,10,300,1.0\n",
    },
    "pairs": {
        "bad number": f"{GOOD_PAIR}\n1.0,2.0,x,120.31,3.0,4.0,394.22,100.0\n",
        "short row": f"{GOOD_PAIR}\n1.0,2.0,315.70\n",
        "quoted cell": f'{GOOD_PAIR}\n"1.0",2.0,315.70,120.31,3.0,4.0,394.22,100.0\n',
        "nan electron toa": f"{GOOD_PAIR}\n1.0,2.0,315.70,nan,3.0,4.0,394.22,100.0\n",
        "inf photon toa": f"{GOOD_PAIR}\n1.0,2.0,315.70,120.31,3.0,4.0,394.22,inf\n",
        "both toas bad": f"{GOOD_PAIR}\n1.0,2.0,315.70,-inf,3.0,4.0,394.22,nan\n",
        "negative energy": f"{GOOD_PAIR}\n1.0,2.0,-5.0,120.31,3.0,4.0,394.22,100.0\n",
        "nan position": f"{GOOD_PAIR}\n1.0,nan,315.70,120.31,3.0,4.0,394.22,100.0\n",
        "bad pair before a nan toa": (
            f"{GOOD_PAIR}\n1.0,2.0,-5.0,120.31,3.0,4.0,394.22,100.0\n1.0,2.0,315.70,nan,3.0,4.0,394.22,100.0\n"
        ),
        "nan toa before a bad pair": (
            f"{GOOD_PAIR}\n1.0,2.0,315.70,nan,3.0,4.0,394.22,100.0\n1.0,2.0,-5.0,120.31,3.0,4.0,394.22,100.0\n"
        ),
        "nan toa and a bad pair on one line": f"{GOOD_PAIR}\n1.0,2.0,-5.0,nan,3.0,4.0,394.22,100.0\n",
    },
    "poses": {
        "bad quaternion then backwards time": (
            "0,0,0,5,1,0,0,0\n1,0,0,5,2,0,0,0\n2,0,0,5,1,0,0,0\n1.5,0,0,5,1,0,0,0\n"
        ),
        "backwards time then bad number": "0,0,0,5,1,0,0,0\n2,0,0,5,1,0,0,0\n1,0,0,5,1,0,0,0\noops,0,0,5,1,0,0,0\n",
        "bad number then backwards time": "0,0,0,5,1,0,0,0\noops,0,0,5,1,0,0,0\n-1,0,0,5,1,0,0,0\n",
        "equal times": "0,0,0,5,1,0,0,0\n0,1,0,5,1,0,0,0\n",
        "nan time": "0,0,0,5,1,0,0,0\nnan,0,0,5,1,0,0,0\n2,0,0,5,1,0,0,0\n",
        "nan time on a bad pose": "0,0,0,5,1,0,0,0\nnan,0,0,5,2,0,0,0\n",
        "inf position": "0,0,0,5,1,0,0,0\n1,inf,0,5,1,0,0,0\n",
        "nan position": "0,0,0,5,1,0,0,0\n1,0,0,nan,1,0,0,0\n",
        "non-unit quaternion": "0,0,0,5,1,0,0,0\n1,0,0,5,1,0,0,0.01\n",
        "nan quaternion": "0,0,0,5,1,0,0,0\n1,0,0,5,1,nan,0,0\n",
        "inf quaternion": "0,0,0,5,1,0,0,0\n1,0,0,5,1,0,-inf,0\n",
        "quaternion past the float range": "0,0,0,5,1,0,0,0\n1,0,0,5,1e200,0,0,0\n",
        "zero quaternion": "0,0,0,5,1,0,0,0\n1,0,0,5,0,0,0,0\n",
        "bad position and bad quaternion on one line": "0,0,0,5,1,0,0,0\n1,-inf,0,5,2,0,0,0\n",
        "two bad poses": "0,0,0,5,1,0,0,0\n1,0,0,5,1,0,0.5,0\n2,nan,0,5,1,0,0,0\n",
        "two bad poses, position first": "0,0,0,5,1,0,0,0\n1,0,nan,5,1,0,0,0\n2,0,0,5,0.5,0,0,0\n",
        "bad pose after backwards time": "0,0,0,5,1,0,0,0\n2,0,0,5,1,0,0,0\n1,0,0,5,1,0,0,0\n3,0,0,5,3,0,0,0\n",
        "bad pose on a backwards time": "0,0,0,5,1,0,0,0\n2,0,0,5,1,0,0,0\n1,inf,0,5,3,0,0,0\n",
        "short row": "0,0,0,5,1,0,0,0\n1,0,0,5\n",
        "digit separator": "0,0,0,5,1,0,0,0\n1_0,0,0,5,1,0,0,0\n",
    },
    "cones": {
        "bad frame": f"{GOOD_CONE}\n1,0,0,0,1,0,0,0.5,X\n",
        "quoted frame": f'{GOOD_CONE}\n1,0,0,0,1,0,0,0.5,"W"\n',
        "quoted number": f'{GOOD_CONE}\n"1",0,0,0,1,0,0,0.5,W\n',
        "zero axis": f"{GOOD_CONE}\n1,0,0,0,0,0,0,0.5,W\n",
        "half-angle past pi": f"{GOOD_CONE}\n1,0,0,0,1,0,0,3.5,W\n",
        "nan origin": f"{GOOD_CONE}\n1,nan,0,0,1,0,0,0.5,W\n",
        "nan time": f"{GOOD_CONE}\nnan,0,0,0,1,0,0,0.5,W\n",
        "backwards time": f"{GOOD_CONE}\n-1,0,0,0,1,0,0,0.5,W\n",
        "long row": f"{GOOD_CONE}\n1,0,0,0,1,0,0,0.5,W,W\n",
        "bad frame on a nan time": f"{GOOD_CONE}\nnan,0,0,0,1,0,0,0.5,X\n",
        "bad frame on a backwards time": f"{GOOD_CONE}\n-1,0,0,0,1,0,0,0.5,X\n",
        "zero axis then backwards time": f"{GOOD_CONE}\n1,0,0,0,0,0,0,0.5,W\n-1,0,0,0,1,0,0,0.5,W\n",
        "backwards time then zero axis": f"{GOOD_CONE}\n-1,0,0,0,1,0,0,0.5,W\n1,0,0,0,0,0,0,0.5,W\n",
        "bad frame after a bad cone": f"{GOOD_CONE}\n1,0,0,0,1,0,0,0,W\n2,0,0,0,1,0,0,0.5,X\n",
    },
    "estimates": {
        "nan time": f"{GOOD_ESTIMATE}\nnan,1,2,0,1,0,0,1,0,1,tracking,corrected\n",
        "short row": f"{GOOD_ESTIMATE}\n1,1,2,0,1,0,0,1,0,1,tracking\n",
        "bad covariance": f"{GOOD_ESTIMATE}\n1,1,2,0,1,0,0,one,0,1,tracking,corrected\n",
        "quoted number": f'{GOOD_ESTIMATE}\n"1",1,2,0,1,0,0,1,0,1,tracking,corrected\n',
        "nan time then short row": f"{GOOD_ESTIMATE}\ninf,1,2,0,1,0,0,1,0,1,tracking,corrected\n1,2\n",
    },
    "truth": {
        "nonfinite positions": "0,nan,-3,0\n4,inf,-3,0\n",
        "inf z": "0,1,2,0\n1,1,2,inf\n",
        "nan time": "0,1,2,0\nnan,1,2,0\n2,1,2,0\n",
        # refused at the line whose time runs backwards, before a later bad line is read
        "backwards time": "1,1,2,0\n0,1,2,0\n2,1,2,0\n",
        "backwards time then bad number": "1,1,2,0\n0,1,2,0\n2,x,2,0\n",
        "bad number then backwards time": "1,1,2,0\n2,x,2,0\n0,1,2,0\n",
        "equal times then backwards time": "1,1,2,0\n1,1,2,1\n0.5,1,2,0\n",
        "short row": "0,1,2,0\n1,1,2\n",
        "no samples": "\n",
        "digit separator": "0,1,2,0\n1,1_0,2,0\n",
    },
    "steps": {
        "nan truth": "0,1,2,0,nan,nan,nan,nan,sweep,none\n1,1,nan,0,nan,nan,nan,nan,sweep,none\n",
        "bad time": "0,1,2,0,nan,nan,nan,nan,sweep,none\nsoon,1,2,0,nan,nan,nan,nan,sweep,none\n",
        "short row": "0,1,2,0,nan,nan,nan,nan,sweep,none\n1,1,2,0,nan,nan,nan,nan,sweep\n",
        "backwards time": "1,1,2,0,nan,nan,nan,nan,sweep,none\n0,1,2,0,nan,nan,nan,nan,sweep,none\n",
    },
}
READERS = {  # kind -> header, reader, reference, the command that reads such a file
    "hits": (HITS_HEADER, read_hits_csv, read_hits_reference, "reconstruct"),
    "pairs": (PAIRS_HEADER, read_pairs_csv, read_pairs_reference, "reconstruct"),
    "poses": (POSES_HEADER, read_poses_csv, read_poses_reference, "reconstruct"),
    "cones": (CONES_HEADER, read_cones_csv, read_cones_reference, "estimate"),
    "estimates": (ESTIMATES_HEADER, read_estimates_csv, read_estimates_reference, "metrics"),
    "truth": (TRUTH_HEADER, read_truth_csv, read_truth_reference, "metrics"),
    "steps": (STEPS_HEADER, read_truth_csv, read_truth_reference, "metrics"),
}
EXIT_CODES = {ParseError: 2, SchemaError: 3, OrderingError: 4}


def hit_rows(hits):
    return list(zip(hits.toa.tolist(), hits.col.tolist(), hits.row.tolist(), hits.energy.tolist()))


def refuses_like_reference(tmp_path, capsys, kind, case):
    header, reader, reference, command = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes((",".join(header) + "\n" + MALFORMED_BODIES[kind][case]).encode())
    with pytest.raises((ParseError, SchemaError, OrderingError)) as want:
        reference(path)
    with pytest.raises(want.type) as got:
        reader(path)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "line", None) == getattr(want.value, "line", None)
    # the command that reads the file exits with the error's code and message
    poses = tmp_path / "good_poses.csv"
    write_lines(poses, POSES_HEADER, ["0,0,0,5,1,0,0,0", "20,0,0,5,1,0,0,0"])
    estimates = tmp_path / "good_estimates.csv"
    write_lines(estimates, ESTIMATES_HEADER, [GOOD_ESTIMATE])
    truth = tmp_path / "good_truth.csv"
    write_lines(truth, TRUTH_HEADER, ["0,1,2,0"])
    inputs = {
        "reconstruct": ["--events", path if kind != "poses" else FIXTURE / "hits.csv",
                        "--poses", path if kind == "poses" else poses],
        "estimate": ["--cones", path],
        "metrics": ["--estimates", path if kind == "estimates" else estimates,
                    "--truth", truth if kind == "estimates" else path],
    }[command]
    assert main([command, *map(str, inputs), "--out", str(tmp_path / "out")]) == EXIT_CODES[want.type]
    assert str(want.value) in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES["hits"]))
def test_hits_reader_refuses_like_per_row_reader(tmp_path, case, capsys):
    refuses_like_reference(tmp_path, capsys, "hits", case)


@pytest.mark.parametrize(
    "kind, case", [(kind, case) for kind in READERS if kind != "hits" for case in sorted(MALFORMED_BODIES[kind])]
)
def test_readers_refuse_like_per_row_readers(tmp_path, kind, case, capsys):
    refuses_like_reference(tmp_path, capsys, kind, case)


def test_hits_reader_reads_like_per_row_reader(tmp_path):
    path = tmp_path / "hits.csv"
    fixture = (FIXTURE / "hits.csv").read_text().splitlines()[1:]
    bodies = [
        fixture,
        [" 99.5 ,\t10,12, 1e2", "1e-320,0,255,5e-324", "-0.0,255,0,1.7976931348623157e308", "100,1e1,12.0,3"],
        ["99.0,10,12,340.5", "", "", "100.0,10,12,1.0", ""],
    ]
    for body in bodies:
        write_lines(path, HITS_HEADER, body)
        got = read_hits_csv(path)
        assert hit_rows(got) == hit_rows(read_hits_reference(path)), body
        assert got.col.dtype == got.row.dtype == np.int64


def test_step_log_reads_as_truth_like_per_row_reader(tmp_path):
    # of a step log only the truth columns are numbers; the others are not read
    path = tmp_path / "steps.csv"
    write_lines(path, STEPS_HEADER, ["0,1,2,0,nan,?,,x,sweep,none", "1,1.5,2,0,1,1,0,0.5,orbit,corrected"])
    t, truth = read_truth_csv(path)
    want_t, want_truth = read_truth_reference(path)
    assert t.tolist() == want_t.tolist() and truth.tolist() == want_truth.tolist()


def test_hits_reader_header_only_is_empty_without_warning(tmp_path):
    path = tmp_path / "hits.csv"
    for body in ([], ["", ""], ["  "]):
        write_lines(path, HITS_HEADER, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = read_hits_csv(path)
        assert len(hits) == 0 and hits.toa.shape == (0,)


def test_pairs_reader_validation(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, PAIRS_HEADER, ["1.0,2.0,315.70,120.31,3.0,4.0,394.22,100.0", "", "5,6,1e2,7,8,9,2e2,10"])
    pairs = read_pairs_csv(path)
    assert len(pairs) == 2
    assert pairs.electron_energy.tolist() == [315.70, 100.0]
    assert (pairs.photon_x.tolist(), pairs.photon_y.tolist()) == ([3.0, 8.0], [4.0, 9.0])
    # the columns hold what the per-row reader's records do
    records = read_pairs_reference(path)
    assert list(zip(pairs.electron_x.tolist(), pairs.electron_y.tolist())) == [p.electron_xy for p in records]
    assert pairs.photon_toa.tolist() == [p.photon_toa for p in records]

    write_lines(path, PAIRS_HEADER, ["1.0,2.0,-5.0,120.31,3.0,4.0,394.22,100.0"])
    with pytest.raises(ParseError):
        read_pairs_csv(path)
    write_lines(path, PAIRS_HEADER, ["1.0,2.0,315.70,nan,3.0,4.0,394.22,100.0"])
    with pytest.raises(ParseError):
        read_pairs_csv(path)
    for bad in ("1.0,2.0,nan,120.31,3.0,4.0,394.22,100.0", "nan,2.0,315.70,120.31,3.0,4.0,394.22,100.0"):
        write_lines(path, PAIRS_HEADER, [bad])
        with pytest.raises(ParseError) as err:
            read_pairs_csv(path)
        assert err.value.line == 2, bad


def test_sniff_events_format(tmp_path):
    hits = tmp_path / "h.csv"
    write_lines(hits, HITS_HEADER, [])
    assert sniff_events_format(hits) == "hits"
    pairs = tmp_path / "p.csv"
    write_lines(pairs, PAIRS_HEADER, [])
    assert sniff_events_format(pairs) == "pairs"
    other = tmp_path / "o.csv"
    write_lines(other, ["a", "b"], [])
    with pytest.raises(SchemaError):
        sniff_events_format(other)


# --- estimates and steps ---


def test_estimates_roundtrip(tmp_path):
    nan = float("nan")
    rows = [
        (0.5, 1.25, -2.5, 0.125, 4.0, 0.5, 0.25, 3.0, -0.5, 2.0, "tracking", "corrected"),
        (1.0, *(nan,) * 9, "collecting", "buffered"),
    ]
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, rows)
    back = read_estimates_csv(path)
    assert tuple(back[0].values()) == rows[0]
    assert back[0]["x"] == 1.25
    assert back[0]["status"] == "tracking"
    assert math.isnan(back[1]["x"])
    assert back[1]["action"] == "buffered"


def test_estimates_reader_rejects_nonfinite_time(tmp_path):
    # a NaN time used to reach metrics, which then wrote null errors
    path = tmp_path / "estimates.csv"
    for bad in ("nan", "inf"):
        row = "1,0,0,1,0,0,1,0,1,tracking,corrected"
        write_lines(path, ESTIMATES_HEADER, [f"0.5,{row}", f"{bad},{row}"])
        with pytest.raises(ParseError) as err:
            read_estimates_csv(path)
        assert err.value.line == 3


def test_steps_csv_serves_as_truth(tmp_path):
    sc = Scenario(source_initial=[2.0, 1.0, 0.0], duration=5.0, seed=1, timestep=0.5)
    report = run_scenario(sc)
    path = tmp_path / "steps.csv"
    write_steps_csv(path, report)
    t, truth = read_truth_csv(path)
    assert len(t) == len(report.steps)
    assert np.allclose(truth[0], [2.0, 1.0, 0.0])


def test_truth_csv_plain_schema(tmp_path):
    path = tmp_path / "truth.csv"
    write_lines(path, ["t_s", "x", "y", "z"], ["0,1,2,0", "1,1.5,2,0"])
    t, truth = read_truth_csv(path)
    assert np.array_equal(t, [0.0, 1.0])
    assert np.array_equal(truth[1], [1.5, 2.0, 0.0])

    write_lines(path, ["t_s", "x", "y", "z"], ["1,1,2,0", "0,1.5,2,0"])
    with pytest.raises(OrderingError, match=":3: truth timestamps must be nondecreasing"):
        read_truth_csv(path)
    write_lines(path, ["t_s", "x", "y", "z"], ["0,1,2,0", "nan,1.5,2,0", "2,2,2,0"])
    with pytest.raises(ParseError):
        read_truth_csv(path)

    write_lines(path, ["who", "knows"], ["1,2"])
    with pytest.raises(SchemaError):
        read_truth_csv(path)


# --- atomic writes and json ---


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write(target, "payload")
    assert target.read_text() == "payload"
    assert list(target.parent.glob("*.tmp")) == []


def test_write_json_sorts_keys_and_writes_tuples_as_lists(tmp_path):
    path = tmp_path / "s.json"
    write_json(path, {"c_flag": True, "a_none": None, "b_pair": (1.0, 2)})
    text = path.read_text()
    assert json.loads(text) == {"a_none": None, "b_pair": [1.0, 2], "c_flag": True}
    # keys sorted, trailing newline
    assert text.index('"a_none"') < text.index('"b_pair"') < text.index('"c_flag"')
    assert text.endswith("}\n")


# --- scenario configs ---


def test_bundled_scenarios_load():
    names = ["static_3gbq.yaml", "moving_1ms.yaml", "stationary_uav.yaml", "radial_motion.yaml"]
    for name in names:
        scenario = load_scenario(SCENARIO_DIR / name)
        assert scenario.duration > 0
        assert scenario.activity > 0


def test_bundled_scenarios_load_alike_with_the_pure_python_parser():
    # load_scenario takes libyaml's loader where PyYAML has it; yaml.SafeLoader
    # must give equal scenarios, so a build without libyaml runs the same
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(paths) == 4
    for path in paths:
        raw = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        assert load_scenario(path) == scenario_from_dict(raw), path.name


def test_scenario_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    scenario = load_scenario(path)
    assert scenario.area == (100.0, 100.0)
    assert scenario.uav_speed == 1.0
    assert scenario.orbit_radius == 10.0
    # every default comes from the dataclasses, none from the parser
    parsed, default = scenario_from_dict({}), Scenario()
    for f in dataclasses.fields(Scenario):
        got, want = getattr(parsed, f.name), getattr(default, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


def test_scenario_unknown_keys_rejected():
    with pytest.raises(SchemaError) as err:
        scenario_from_dict({"sorce": {}})
    assert "sorce" in err.value.keys
    with pytest.raises(SchemaError) as err:
        scenario_from_dict({"estimator": {"rr": 2.0}})
    assert "rr" in err.value.keys
    with pytest.raises(SchemaError):
        scenario_from_dict({"uav": {"speeed": 1.0}})
    with pytest.raises(SchemaError):
        scenario_from_dict({"detector": {"sigma": 0.1}})
    # knobs that became constants are refused by name
    for key in ("min_origin_separation", "reseed_rejected", "reset_run_length", "bounds_margin",
                "fallback_factor", "degeneracy_threshold", "cost_gate", "outlier_gate"):
        with pytest.raises(SchemaError) as err:
            scenario_from_dict({"estimator": {key: 1}})
        assert err.value.keys == [key]
    for key in ("cone_rate_constant", "min_theta", "max_theta"):
        with pytest.raises(SchemaError) as err:
            scenario_from_dict({"detector": {key: 1}})
        assert err.value.keys == [key]


def test_scenario_value_validation():
    with pytest.raises(SchemaError):
        scenario_from_dict({"uav": {"program": "wander"}})
    with pytest.raises(SchemaError):
        scenario_from_dict({"area": [10.0]})
    with pytest.raises(SchemaError):
        scenario_from_dict({"source": {"position": [1.0, 2.0]}})
    with pytest.raises(SchemaError):
        scenario_from_dict({"duration": "soon"})
    # int(5.9) is 5 and int(True) is 1: only integral values are accepted
    for raw in (
        {"estimator": {"init_count": 5.9}},
        {"estimator": {"init_count": True}},
        {"seed": 2.7},
        {"seed": "3"},
    ):
        with pytest.raises(SchemaError):
            scenario_from_dict(raw)
    assert scenario_from_dict({"seed": 3.0}).seed == 3
    # well-typed values out of range, NaN or infinite are domain errors
    nan, inf = math.nan, math.inf
    for raw in (
        {"estimator": {"r": nan}},
        {"estimator": {"q": nan}},
        {"estimator": {"init_variance": -1.0}},
        {"estimator": {"gate": 0.0}},
        {"estimator": {"multistart": 0}},
        {"seed": -1},
        {"source": {"activity_bq": nan}},
        {"source": {"position": [nan, 0.0, 0.0]}},
        {"source": {"velocity": [0.0, inf, 0.0]}},
        {"uav": {"start": [0.0, 0.0, nan]}},
        {"uav": {"altitude": inf}},
        {"detector": {"angular_sigma": nan}},
        {"detector": {"background_rate": inf}},
        {"timestep": nan},
        {"duration": inf},
        {"area": [nan, 10.0]},
    ):
        with pytest.raises(MalformedInputError):
            scenario_from_dict(raw)


# YAML key -> a value other than its default
ESTIMATOR_KEYS = {
    "mode": "2d",
    "r": 2.5,
    "far_variance": 1e8,
    "q": 0.5,
    "gate": 16.0,
    "init_count": 6,
    "init_variance": 25.0,
    "multistart": 3,
    "max_iterations": 60,
}
DETECTOR_KEYS = {
    "angular_sigma": 0.05,
    "axis_sigma": 0.01,
    "background_rate": 0.3,
}


def test_scenario_estimator_mapping():
    # each estimator and detector key is the name of the field it sets
    assert set(ESTIMATOR_KEYS) == {f.name for f in dataclasses.fields(NoiseConfig)}
    assert set(DETECTOR_KEYS) == {f.name for f in dataclasses.fields(DetectorModel)}
    scenario = scenario_from_dict(
        {
            "estimator": ESTIMATOR_KEYS,
            "detector": DETECTOR_KEYS,
            "uav": {"start": [1.0, 2.0, 5.0]},
        }
    )
    assert scenario.estimator == NoiseConfig(**ESTIMATOR_KEYS)
    assert scenario.estimator.mode is Mode.TWO_D
    for key, value in ESTIMATOR_KEYS.items():
        assert getattr(scenario.estimator, key) != getattr(NoiseConfig(), key), key
    for name, value in DETECTOR_KEYS.items():
        assert getattr(DetectorModel(), name) != value, name
        assert getattr(scenario.detector, name) == value, name
    assert np.array_equal(scenario.uav_start, [1.0, 2.0, 5.0])


def test_scenario_invalid_yaml_is_parse_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("duration: [unclosed\n")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_scenario_non_mapping_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(SchemaError):
        load_scenario(path)
