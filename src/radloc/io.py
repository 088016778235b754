"""File formats: CSV streams, scenario YAML, atomic output writing.

All CSV files carry a mandatory header line. Readers raise ParseError
with the offending line number, SchemaError for wrong headers or config
keys, and OrderingError when a time-ordered stream runs backwards. A
record's values are checked by its own type (ComptonPair, Pose, Cone);
the readers report its refusal as a ParseError at the line. Hit files
are read whole into one HitBatch: a bulk numeric parse, then one check
of all rows, and a bad row is mapped back to its line.
Writers go through an atomic temp-file rename so interrupted runs never
leave truncated output behind.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
from collections.abc import Iterable
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from .errors import InvalidHitError, MalformedInputError, OrderingError, ParseError, SchemaError
from .estimator import NoiseConfig
from .events import ComptonPair, HitBatch
from .geometry import Cone, Frame, Pose, Vec3, vec3
from .initializer import Mode
from .simulator import DetectorModel, Program, Scenario, SimulationReport

HITS_HEADER = ["toa_ns", "col", "row", "energy_kev"]
PAIRS_HEADER = [
    "electron_x_mm",
    "electron_y_mm",
    "electron_kev",
    "electron_toa_ns",
    "photon_x_mm",
    "photon_y_mm",
    "photon_kev",
    "photon_toa_ns",
]
POSES_HEADER = ["t_s", "px", "py", "pz", "qw", "qx", "qy", "qz"]
CONES_HEADER = ["t_s", "ox", "oy", "oz", "dx", "dy", "dz", "theta_rad", "frame"]
ESTIMATES_HEADER = [
    "t_s",
    "x",
    "y",
    "z",
    "cov_xx",
    "cov_xy",
    "cov_xz",
    "cov_yy",
    "cov_yz",
    "cov_zz",
    "status",
    "action",
]
STEPS_HEADER = [
    "t_s",
    "truth_x",
    "truth_y",
    "truth_z",
    "est_x",
    "est_y",
    "est_z",
    "err_m",
    "phase",
    "action",
]
TRUTH_HEADER = ["t_s", "x", "y", "z"]


def _fmt(value: float) -> str:
    return format(value, ".12g")


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _read_lines(path: str | Path, header: list[str]) -> list[str]:
    """The lines of a CSV file, its header line validated."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    if not lines:
        raise SchemaError(f"{path}: empty file, expected header {','.join(header)}", keys=header)
    got = [c.strip() for c in lines[0].split(",")]
    if got != header:
        raise SchemaError(
            f"{path}: bad header; expected {','.join(header)}",
            keys=sorted(set(header).symmetric_difference(got)),
        )
    return lines


def _split_rows(path: str, lines: list[str], width: int) -> list[tuple[int, list[str]]]:
    """Cells of each nonblank line after the header, with its 1-based line number."""
    rows: list[tuple[int, list[str]]] = []
    reader = csv.reader(lines[1:])
    for lineno, cells in enumerate(reader, start=2):
        if reader.line_num + 1 != lineno:  # a quote left open ran into the next line
            raise ParseError("unterminated quoted field", path=path, line=lineno)
        if not lines[lineno - 1].strip():
            continue
        if len(cells) != width:
            raise ParseError(f"expected {width} fields, got {len(cells)}", path=path, line=lineno)
        rows.append((lineno, cells))
    return rows


def _read_rows(path: str | Path, header: list[str]) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers, header validated."""
    return _split_rows(str(path), _read_lines(path, header), len(header))


def _floats(cells: list[str], path: str, lineno: int) -> list[float]:
    try:
        return list(map(float, cells))
    except ValueError:
        for cell in cells:  # name the first cell that is not a number
            try:
                float(cell)
            except ValueError as exc:
                raise ParseError(f"not a number: {cell!r}", path=path, line=lineno) from exc
        raise


def _check_timestamp(t: float, path: str, lineno: int) -> None:
    # NaN compares false with everything, so it would pass the ordering checks
    if not math.isfinite(t):
        raise ParseError(f"timestamp must be finite, got {t!r}", path=path, line=lineno)


def _header(path: Path) -> list[str]:
    try:
        with open(path) as fh:
            return [c.strip() for c in fh.readline().split(",")]
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc


def sniff_events_format(path: str | Path) -> str:
    """'hits' or 'pairs', decided by the header line."""
    header = _header(Path(path))
    if header == HITS_HEADER:
        return "hits"
    if header == PAIRS_HEADER:
        return "pairs"
    raise SchemaError(
        f"{path}: header matches neither hit nor pair schema",
        keys=sorted(set(header)),
    )


def _plain_floats(lines: list[str], width: int) -> np.ndarray | None:
    """Rows of `width` plain numbers parsed in one call, or None.

    None when the bulk parse refuses the lines: a quoted cell, a bad or
    short row, a line of spaces, or a spelling such as 1_000 that
    float() reads but the bulk parser does not. Lines that are all empty
    also give None, as the parser warns about them.
    """
    if not any(lines):
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == width else None


def read_hits_csv(path: str | Path) -> HitBatch:
    """The hit stream of a file as one checked column batch.

    The body goes through one bulk parse. What that refuses goes through
    the per-row reader, which reads what float() reads and reports a bad
    row at its line. The batch then checks every hit at once, and a bad
    hit is reported at its own line.
    """
    name = str(path)
    lines = _read_lines(path, HITS_HEADER)
    data = _plain_floats(lines[1:], len(HITS_HEADER))
    if data is None:
        rows = _split_rows(name, lines, len(HITS_HEADER))
        data = np.array([_floats(cells, name, n) for n, cells in rows]).reshape(-1, len(HITS_HEADER))
    try:
        return HitBatch(*data.T)
    except InvalidHitError as exc:
        # both parses keep one row per nonblank line, so the rows give the line
        lineno = _split_rows(name, lines, len(HITS_HEADER))[exc.index][0]
        raise ParseError(str(exc), path=name, line=lineno) from exc


def read_pairs_csv(path: str | Path) -> list[ComptonPair]:
    pairs = []
    for lineno, cells in _read_rows(path, PAIRS_HEADER):
        ex, ey, ee, et, px, py, pe, pt = _floats(cells, str(path), lineno)
        for t in (et, pt):
            _check_timestamp(t, str(path), lineno)
        try:
            pairs.append(ComptonPair((ex, ey), (px, py), ee, pe, et, pt))
        except MalformedInputError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    return pairs


def read_poses_csv(path: str | Path) -> list[Pose]:
    poses = []
    last_t = None
    for lineno, cells in _read_rows(path, POSES_HEADER):
        t, px, py, pz, qw, qx, qy, qz = _floats(cells, str(path), lineno)
        _check_timestamp(t, str(path), lineno)
        if last_t is not None and t <= last_t:
            raise OrderingError(f"{path}:{lineno}: pose timestamps must strictly increase")
        last_t = t
        try:
            poses.append(Pose(t, (px, py, pz), (qw, qx, qy, qz)))
        except MalformedInputError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    return poses


def read_cones_csv(path: str | Path) -> list[Cone]:
    cones = []
    last_t = None
    for lineno, cells in _read_rows(path, CONES_HEADER):
        values = _floats(cells[:8], str(path), lineno)
        frame = cells[8].strip()
        if frame not in ("C", "W"):
            raise ParseError(f"frame must be C or W, got {frame!r}", path=str(path), line=lineno)
        t, ox, oy, oz, dx, dy, dz, theta = values
        _check_timestamp(t, str(path), lineno)
        if last_t is not None and t < last_t:
            raise OrderingError(f"{path}:{lineno}: cone timestamps must be nondecreasing")
        last_t = t
        norm = math.hypot(dx, dy, dz)
        if norm < 1e-12:
            raise ParseError("zero cone axis", path=str(path), line=lineno)
        try:
            cones.append(Cone((ox, oy, oz), (dx / norm, dy / norm, dz / norm), theta, Frame(frame), t))
        except MalformedInputError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    return cones


def write_cones_csv(path: str | Path, cones: list[Cone]) -> None:
    buf = _io.StringIO()
    buf.write(",".join(CONES_HEADER) + "\n")
    for c in cones:
        cells = [
            _fmt(c.timestamp),
            *(_fmt(v) for v in c.origin),
            *(_fmt(v) for v in c.axis),
            _fmt(c.half_angle),
            c.frame.value,
        ]
        buf.write(",".join(cells) + "\n")
    atomic_write(path, buf.getvalue())


def write_estimates_csv(path: str | Path, rows: list[dict]) -> None:
    buf = _io.StringIO()
    buf.write(",".join(ESTIMATES_HEADER) + "\n")
    for row in rows:
        cells = [_fmt(row[k]) for k in ESTIMATES_HEADER[:10]]
        cells.append(str(row["status"]))
        cells.append(str(row["action"]))
        buf.write(",".join(cells) + "\n")
    atomic_write(path, buf.getvalue())


def read_estimates_csv(path: str | Path) -> list[dict]:
    out = []
    for lineno, cells in _read_rows(path, ESTIMATES_HEADER):
        values = _floats(cells[:10], str(path), lineno)
        _check_timestamp(values[0], str(path), lineno)
        row = dict(zip(ESTIMATES_HEADER[:10], values))
        row["status"] = cells[10].strip()
        row["action"] = cells[11].strip()
        out.append(row)
    return out


def write_steps_csv(path: str | Path, report: SimulationReport) -> None:
    buf = _io.StringIO()
    buf.write(",".join(STEPS_HEADER) + "\n")
    for s in report.steps:
        est = s.estimate if s.estimate is not None else [float("nan")] * 3
        cells = [
            _fmt(s.t),
            *(_fmt(v) for v in s.truth),
            *(_fmt(v) for v in est),
            _fmt(s.error),
            s.phase,
            s.action,
        ]
        buf.write(",".join(cells) + "\n")
    atomic_write(path, buf.getvalue())


def read_truth_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth positions over time: accepts the plain t,x,y,z schema
    or a simulator step log (truth columns extracted)."""
    path = Path(path)
    header = _header(path)
    if header not in (TRUTH_HEADER, STEPS_HEADER):
        raise SchemaError(f"{path}: not a truth or step file", keys=sorted(set(header)))
    data = []
    for lineno, cells in _read_rows(path, header):
        data.append(_floats(cells[:4], str(path), lineno))
        _check_timestamp(data[-1][0], str(path), lineno)
    data = np.array(data)
    if data.size == 0:
        raise SchemaError(f"{path}: no truth samples", keys=[])
    t = data[:, 0]
    if np.any(np.diff(t) < 0):
        raise OrderingError(f"{path}: truth timestamps must be nondecreasing")
    return t, data[:, 1:4]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_json(path: str | Path, obj) -> None:
    atomic_write(path, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


# --- scenario config ---
#
# Scenario, DetectorModel and NoiseConfig declare every field's type and
# default; io only names the YAML keys. Each section maps its keys to the
# (dataclass, field) they set, and that table is also the section's
# allowed-key set. A key the file leaves out is not passed on, so the
# dataclass default applies. The detector and estimator keys are their
# fields' names.

_SCHEMA: dict[str, dict[str, tuple[type, str]]] = {  # "" is the top level
    "": {key: (Scenario, key) for key in ("area", "duration", "timestep", "seed")},
    "source": {
        "position": (Scenario, "source_initial"),
        "velocity": (Scenario, "source_velocity"),
        "activity_bq": (Scenario, "activity"),
    },
    "uav": {
        "speed": (Scenario, "uav_speed"),
        "orbit_radius": (Scenario, "orbit_radius"),
        "altitude": (Scenario, "flight_altitude"),
        "program": (Scenario, "program"),
        "start": (Scenario, "uav_start"),
    },
    "detector": {f.name: (DetectorModel, f.name) for f in fields(DetectorModel)},
    "estimator": {f.name: (NoiseConfig, f.name) for f in fields(NoiseConfig)},
}
_SECTIONS = [name for name in _SCHEMA if name]
_HINTS = {cls: get_type_hints(cls) for cls in (Scenario, DetectorModel, NoiseConfig)}


def _vec3(value) -> Vec3:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be [x, y, z], got {value!r}")
    return vec3(value)


def _area(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("must be [width, height]")
    return float(value[0]), float(value[1])


def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


# field type -> coercion of a YAML value
_COERCE = {
    float: float,
    int: _int,
    Vec3: _vec3,
    Vec3 | None: lambda value: None if value is None else _vec3(value),
    tuple[float, float]: _area,
    Program: lambda value: Program(str(value)),
    Mode: lambda value: Mode(str(value)),
}


def _check_keys(section: dict, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise SchemaError(f"unknown {where} keys: {', '.join(unknown)}", keys=unknown)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario config file."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}", path=str(path)) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a mapping", keys=[])
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    _check_keys(raw, [*_SCHEMA[""], *_SECTIONS], "scenario")
    kwargs: dict[type, dict] = {Scenario: {}, DetectorModel: {}, NoiseConfig: {}}
    for where, table in _SCHEMA.items():
        section = (raw.get(where) or {}) if where else raw
        if not isinstance(section, dict):
            raise SchemaError(f"{where} must be a mapping", keys=[where])
        if where:
            _check_keys(section, table, where)
        for key, value in section.items():
            if key not in table:  # a section name at the top level
                continue
            cls, name = table[key]
            path = f"{where}.{key}" if where else key
            try:
                kwargs[cls][name] = _COERCE[_HINTS[cls][name]](value)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"invalid {path}: {exc}", keys=[path]) from exc
    return Scenario(
        **kwargs[Scenario],
        detector=DetectorModel(**kwargs[DetectorModel]),
        estimator=NoiseConfig(**kwargs[NoiseConfig]),
    )


__all__ = [
    "CONES_HEADER",
    "ESTIMATES_HEADER",
    "HITS_HEADER",
    "PAIRS_HEADER",
    "POSES_HEADER",
    "STEPS_HEADER",
    "TRUTH_HEADER",
    "atomic_write",
    "load_scenario",
    "read_cones_csv",
    "read_estimates_csv",
    "read_hits_csv",
    "read_pairs_csv",
    "read_poses_csv",
    "read_truth_csv",
    "scenario_from_dict",
    "sniff_events_format",
    "write_cones_csv",
    "write_estimates_csv",
    "write_json",
    "write_steps_csv",
]
