"""File formats: CSV streams, scenario YAML, atomic output writing.

Every CSV file goes through one table reader and one table writer. A
file has a header line, then one row per nonblank line: comma-separated
cells, numbers first and any text cells last. Numbers are plain decimal
(nan and inf where the record allows them); nothing is quoted and no
digit separators are read. The reader parses the numbers of the whole
body in one call and checks columns as arrays; only a failure makes it
look at single lines. Readers raise ParseError at the earliest faulty
line, SchemaError for wrong headers or config keys and for a pose or
truth file with no rows, and OrderingError when a time-ordered stream
runs backwards. A record's values are checked by its own type
(HitBatch, PairBatch, Cone; poses as columns), and a refusal is a
ParseError at its line. Writers go through an atomic temp-file rename
so interrupted runs never leave truncated output behind.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Callable, Iterable
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import InvalidRowError, MalformedInputError, OrderingError, ParseError, RadlocError, SchemaError
from .estimator import NoiseConfig
from .events import HitBatch, PairBatch
from .geometry import Cone, Frame, PoseStream, Vec3, vec3
from .initializer import Mode
from .simulator import DetectorModel, Program, Scenario, SimulationReport

# each header is a file's first line, split at its commas
HITS_HEADER = "toa_ns,col,row,energy_kev".split(",")
PAIRS_HEADER = (
    "electron_x_mm,electron_y_mm,electron_kev,electron_toa_ns,photon_x_mm,photon_y_mm,photon_kev,photon_toa_ns"
).split(",")
POSES_HEADER = "t_s,px,py,pz,qw,qx,qy,qz".split(",")
CONES_HEADER = "t_s,ox,oy,oz,dx,dy,dz,theta_rad,frame".split(",")
ESTIMATES_HEADER = "t_s,x,y,z,cov_xx,cov_xy,cov_xz,cov_yy,cov_yz,cov_zz,status,action".split(",")
STEPS_HEADER = "t_s,truth_x,truth_y,truth_z,est_x,est_y,est_z,err_m,phase,action".split(",")
TRUTH_HEADER = "t_s,x,y,z".split(",")
ERRORS_HEADER = "t_s,ex,ey,ez,err_m,err_xy_m".split(",")


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename, or leave no temp file and raise RadlocError."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # there may be no temp file, or no directory for one
            tmp.unlink()
        raise RadlocError(f"cannot write {path}: {exc}") from exc


def _write_table(path: str | Path, header: list[str], rows: Iterable[tuple], text: int = 0) -> None:
    """A CSV file of rows whose last `text` cells are text and the others
    numbers, written to 12 significant digits."""
    line = ",".join(["%.12g"] * (len(header) - text) + ["%s"] * text) + "\n"
    atomic_write(path, ",".join(header) + "\n" + "".join(line % row for row in rows))


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


def _parse(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """The one parse of CSV lines: an element of dtype per nonempty line.
    A line of the wrong width (a line of spaces too) or a number that is
    not plain raises ValueError."""
    if not any(lines):  # the parser warns on input without rows
        return np.empty(0, dtype)
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _line_fault(line: str, width: int, numeric: int, dtype: np.dtype) -> str | None:
    """Why _parse refuses one line of a table, or None when it reads it."""
    try:
        _parse([line], dtype)
        return None
    except ValueError as exc:
        fault = str(exc)
    cells = line.split(",")
    if len(cells) != width:
        return f"expected {width} fields, got {len(cells)}"
    for cell in cells[:numeric]:
        try:
            if _parse([cell], np.dtype(float)).size:  # an empty cell reads as no line
                continue
        except ValueError:
            pass
        return f"not a number: {cell!r}"
    return fault


def _first(bad: np.ndarray | list[bool]) -> int | None:
    """The index of the first true entry, or None."""
    bad = np.asarray(bad, dtype=bool)
    return int(np.argmax(bad)) if bad.any() else None


def _read_table(path: str | Path, header: list[str], build: Callable, *, text: int = 0,
                choices: dict | None = None, finite: dict | None = None, order: tuple | None = None):
    """What build(numbers, texts) makes of the rows of a CSV file.

    numbers holds all columns but the last `text` as floats, and texts
    those cells of each row, stripped. Within a row the table refuses,
    in this order: a line it cannot parse; text column k outside the
    tuple choices[k]; a non-finite value in column k, named finite[k];
    with order = (backwards, message), a row whose first column is
    backwards(it, the row before's). build gets the rows before the
    first refused one and raises InvalidRowError(i, message) to refuse
    its row i, so the earliest faulty line is the one reported: a
    refusal of build, like the table's own, is a ParseError at its line.
    """
    name = str(path)
    body = _read_lines(path, header)[1:]
    numeric = len(header) - text
    # no text field without text: an object field slows the parse down
    dtype = np.dtype([("n", float, (numeric,))] + ([("s", object, (text,))] if text else []))
    faults = []  # (row, error type, message), in the order one row is checked
    try:
        rows = _parse(body, dtype)
    except ValueError:
        kept = [line for line in body if line.strip()]
        try:
            rows = _parse(kept, dtype)  # only lines of spaces were in the way
        except ValueError:
            bad, message = next(
                (i, m) for i, line in enumerate(kept) if (m := _line_fault(line, len(header), numeric, dtype))
            )
            faults.append((bad, ParseError, message))
            rows = _parse(kept[:bad], dtype)
    numbers = rows["n"]
    texts = [[cell.strip() for cell in row] for row in rows["s"].tolist()] if text else [()] * len(rows)
    for k, allowed in (choices or {}).items():
        cells = [row[k - numeric] for row in texts]
        if (i := _first([cell not in allowed for cell in cells])) is not None:
            faults.append((i, ParseError, f"{header[k]} must be {' or '.join(allowed)}, got {cells[i]!r}"))
    for k, label in (finite or {}).items():
        if (i := _first(~np.isfinite(numbers[:, k]))) is not None:
            faults.append((i, ParseError, f"{label} must be finite, got {float(numbers[i, k])!r}"))
    if order and (i := _first(order[0](numbers[1:, 0], numbers[:-1, 0]))) is not None:
        faults.append((i + 1, OrderingError, order[1]))

    def line(i: int) -> int:  # row i is on the i-th nonblank line after the header
        return [n for n, cells in enumerate(body, 2) if cells.strip()][i]

    i, error, message = min(faults, key=lambda fault: fault[0], default=(len(rows), None, ""))
    try:
        records = build(numbers[:i], texts[:i])
    except InvalidRowError as exc:
        raise ParseError(str(exc), path=name, line=line(exc.index)) from exc
    if error is OrderingError:
        raise OrderingError(f"{name}:{line(i)}: {message}")
    if error is ParseError:
        raise ParseError(message, path=name, line=line(i))
    return records


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


def read_hits_csv(path: str | Path) -> HitBatch:
    """The hit stream of a file as one checked column batch; a bad hit
    is reported at its own line."""
    return _read_table(path, HITS_HEADER, lambda numbers, _: HitBatch(*numbers.T))


def read_pairs_csv(path: str | Path) -> PairBatch:
    """The Compton pairs of a file as one checked column batch; a bad
    pair is reported at its own line."""
    return _read_table(path, PAIRS_HEADER, lambda numbers, _: PairBatch(*numbers.T),
                       finite={3: "timestamp", 7: "timestamp"})


def _pose_stream(t, px, py, pz, qw, qx, qy, qz) -> PoseStream:
    """Poses of finite position whose quaternions, within 1e-6 of unit norm, are normalized."""
    with np.errstate(over="ignore"):  # past the float range is inf, as in Python floats
        n = np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    finite = np.isfinite(px) & np.isfinite(py) & np.isfinite(pz)
    if (i := _first(~(finite & (np.abs(n - 1.0) <= 1e-6)))) is not None:  # a NaN norm fails too
        if not finite[i]:
            position = float(px[i]), float(py[i]), float(pz[i])
            raise InvalidRowError(i, f"pose position must be finite, got {position!r}")
        raise InvalidRowError(i, f"orientation quaternion not unit norm: {float(n[i])!r}")
    orientations = zip(*(q.tolist() for q in (qw / n, qx / n, qy / n, qz / n)))
    return PoseStream(t.tolist(), list(zip(px.tolist(), py.tolist(), pz.tolist())), list(orientations))


def read_poses_csv(path: str | Path) -> PoseStream:
    order = (np.less_equal, "pose timestamps must strictly increase")
    stream = _read_table(path, POSES_HEADER, lambda numbers, _: _pose_stream(*numbers.T), finite={0: "timestamp"},
                         order=order)
    if not stream.times:
        raise SchemaError(f"{path}: no poses", keys=[])
    return stream


def _cones(numbers: np.ndarray, texts: list) -> list[Cone]:
    """A Cone per row, its axis normalized; a zero axis, or a value Cone refuses, refuses the row."""
    cones = []
    for i, ((t, ox, oy, oz, dx, dy, dz, theta), (frame,)) in enumerate(zip(numbers.tolist(), texts)):
        norm = math.hypot(dx, dy, dz)
        if norm < 1e-12:
            raise InvalidRowError(i, "zero cone axis")
        try:
            cones.append(Cone((ox, oy, oz), (dx / norm, dy / norm, dz / norm), theta, Frame(frame), t))
        except MalformedInputError as exc:
            raise InvalidRowError(i, str(exc)) from exc
    return cones


def read_cones_csv(path: str | Path) -> list[Cone]:
    order = (np.less, "cone timestamps must be nondecreasing")
    return _read_table(path, CONES_HEADER, _cones, text=1, choices={8: ("C", "W")}, finite={0: "timestamp"},
                       order=order)


def write_cones_csv(path: str | Path, cones: list[Cone]) -> None:
    rows = ((c.timestamp, *c.origin, *c.axis, c.half_angle, c.frame.value) for c in cones)
    _write_table(path, CONES_HEADER, rows, text=1)


def write_estimates_csv(path: str | Path, rows: Iterable[tuple]) -> None:
    """Estimate rows: tuples of the ESTIMATES_HEADER columns, in that order."""
    _write_table(path, ESTIMATES_HEADER, rows, text=2)


def read_estimates_csv(path: str | Path) -> list[dict]:
    def rows(numbers: np.ndarray, texts: list) -> list[dict]:
        return [dict(zip(ESTIMATES_HEADER, (*values, *cells))) for values, cells in zip(numbers.tolist(), texts)]

    return _read_table(path, ESTIMATES_HEADER, rows, text=2, finite={0: "timestamp"})


def write_steps_csv(path: str | Path, report: SimulationReport) -> None:
    nan3 = (float("nan"),) * 3
    rows = ((s.t, *s.truth, *(nan3 if s.estimate is None else s.estimate), s.error, s.phase, s.action)
            for s in report.steps)
    _write_table(path, STEPS_HEADER, rows, text=2)


def write_errors_csv(path: str | Path, rows: Iterable[tuple]) -> None:
    """An error series: t_s, the error vector, its norm and its planar norm per row."""
    _write_table(path, ERRORS_HEADER, rows)


def read_truth_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth positions over time: accepts the plain t,x,y,z schema
    or a simulator step log (truth columns extracted)."""
    path = Path(path)
    header = _header(path)
    if header not in (TRUTH_HEADER, STEPS_HEADER):
        raise SchemaError(f"{path}: not a truth or step file", keys=sorted(set(header)))
    # the truth columns come first; a step log's other cells are kept as text, unread
    finite = {0: "timestamp", 1: header[1], 2: header[2], 3: header[3]}
    order = (np.less, "truth timestamps must be nondecreasing")
    data = _read_table(path, header, lambda numbers, _: numbers, text=len(header) - 4, finite=finite, order=order)
    if data.size == 0:
        raise SchemaError(f"{path}: no truth samples", keys=[])
    return data[:, 0], data[:, 1:4]


def write_json(path: str | Path, obj) -> None:
    """obj, built of dicts with str keys, lists, tuples, str, int, float, bool
    and None, as JSON: keys sorted, two-space indent, a final newline."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
    # imported here, so that only simulate pays for PyYAML's import; libyaml's
    # parser where PyYAML was built with it: the same resolver and constructor
    # as yaml.SafeLoader, about ten times faster on a scenario file
    import yaml

    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
    "ERRORS_HEADER",
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
    "write_errors_csv",
    "write_estimates_csv",
    "write_json",
    "write_steps_csv",
]
