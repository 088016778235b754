"""Event pipeline: pixel hits -> tracks -> coincident pairs -> Compton cones.

Takes a flat stream of timestamped detector pixel hits and carries it
as columns to the cones, one call per stage and stream: a checked
HitBatch is clustered into a TrackBatch with array operations, tracks
that arrive within the coincidence window are paired by index, the
pairs become a PairBatch, and the kinematics of the Compton candidates
(depth separation and scattering angle from times and energies) and
their axes are computed as arrays. The camera-frame measurement cones
come out as one ConeBatch with a time column, plus classification
statistics. Each track's sums run over its hits in time order and each
angle is one math.acos, so a cone does not depend on what else shares
its batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .constants import (
    BACKGROUND_THRESHOLD_KEV,
    CHARGE_GATHERING_SPEED_UM_PER_NS,
    CLUSTER_TOA_GAP_NS,
    COINCIDENCE_WINDOW_NS,
    ELECTRON_REST_ENERGY_KEV,
    PIXEL_PITCH_MM,
    SENSOR_PIXELS,
)
from .errors import InvalidRowError, MalformedInputError
from .cones import ConeBatch

log = logging.getLogger(__name__)


def _float_columns(record: str, *values) -> list[np.ndarray]:
    """The values as float64 columns, refused unless 1-D and of one length."""
    columns = [np.array(v, dtype=np.float64) for v in values]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise MalformedInputError(f"{record} columns must be 1-D and of one length")
    return columns


def _set_columns(batch, columns: dict[str, np.ndarray]) -> None:
    """Store checked columns on a frozen batch, read-only."""
    for name, column in columns.items():
        column.flags.writeable = False
        object.__setattr__(batch, name, column)


def _integral_on_sensor(values: np.ndarray) -> np.ndarray:
    # NaN and inf fail both comparisons, 0.5 the floor
    return (values >= 0.0) & (values < SENSOR_PIXELS) & (np.floor(values) == values)


def _hit_fault(toa: float, col: float, row: float, energy: float) -> str:
    """Why one hit breaks the contract, naming the first check it fails."""
    if not math.isfinite(toa):
        return f"timestamp must be finite, got {toa!r}"
    if not (col.is_integer() and row.is_integer()):
        return f"pixel ({col:g}, {row:g}) not integral"
    # "not > 0" rather than "<= 0", so that NaN fails too
    if not energy > 0.0:
        return f"hit energy must be positive, got {energy!r}"
    return f"pixel ({int(col)}, {int(row)}) outside the sensor matrix"


@dataclass(frozen=True, eq=False)
class HitBatch:
    """A stream of activated pixels as four read-only columns, in stream order.

    toa is the arrival time in ns, (col, row) the pixel on the sensor
    matrix and energy the deposit in keV. Every toa is finite, every
    pixel integral and on the matrix, and every energy positive; the
    columns are checked together, and a batch with a bad hit is refused
    with an InvalidRowError that names the first one.
    """

    toa: np.ndarray  # float64
    col: np.ndarray  # int64
    row: np.ndarray  # int64
    energy: np.ndarray  # float64

    def __post_init__(self) -> None:
        toa, col, row, energy = _float_columns("hit", self.toa, self.col, self.row, self.energy)
        ok = np.isfinite(toa) & _integral_on_sensor(col) & _integral_on_sensor(row) & (energy > 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            fault = _hit_fault(*(float(v[i]) for v in (toa, col, row, energy)))
            raise InvalidRowError(i, fault)
        _set_columns(self, {"toa": toa, "col": col.astype(np.int64), "row": row.astype(np.int64), "energy": energy})

    def __len__(self) -> int:
        return len(self.toa)


# TrackBatch and Pairing hold arrays made from checked columns, and are
# plain classes: defining a frozen dataclass adds about 1 ms to every
# radloc import


class TrackBatch:
    """Particle tracks as four float columns, one entry per track.

    toa is the track's earliest hit time in ns, energy its summed
    deposit in keV and (x, y) its energy-weighted centroid in mm on the
    sensor plane.
    """

    def __init__(self, toa: np.ndarray, energy: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        self.toa, self.energy, self.x, self.y = toa, energy, x, y

    def __len__(self) -> int:
        return len(self.toa)


class Pairing:
    """Coincident tracks as rows of two track indices, the earlier track first.

    ambiguous counts the tracks dropped as multi-coincidences.
    """

    def __init__(self, index: np.ndarray, ambiguous: int) -> None:
        self.index, self.ambiguous = index, ambiguous  # index: (pairs, 2) int64

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class PairBatch:
    """Matched recoil-electron / scattered-photon tracks, one entry per scattering event.

    Eight read-only float columns, in the order of a pairs file's:
    centroid coordinates in mm on the sensor plane, energies in keV,
    times in ns. Every energy is positive and every position finite; a
    batch with a bad pair is refused with an InvalidRowError that names
    the first one.
    """

    electron_x: np.ndarray
    electron_y: np.ndarray
    electron_energy: np.ndarray
    electron_toa: np.ndarray
    photon_x: np.ndarray
    photon_y: np.ndarray
    photon_energy: np.ndarray
    photon_toa: np.ndarray

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        c = dict(zip(names, _float_columns("pair", *(getattr(self, name) for name in names))))
        energy_ok = (c["electron_energy"] > 0.0) & (c["photon_energy"] > 0.0)
        ok = energy_ok & np.isfinite([c["electron_x"], c["electron_y"], c["photon_x"], c["photon_y"]]).all(axis=0)
        if not ok.all():
            i = int(np.argmin(ok))
            fault = "pair energies must be positive" if not energy_ok[i] else "pair positions must be finite"
            raise InvalidRowError(i, fault)
        _set_columns(self, c)

    def __len__(self) -> int:
        return len(self.electron_toa)

    def take(self, rows: np.ndarray) -> PairBatch:
        """The pairs at the given row indices, or where a mask is true."""
        return PairBatch(*(getattr(self, f.name)[rows] for f in fields(self)))


class EventClass(Enum):
    PHOTOELECTRIC = "photoelectric"
    COMPTON_CANDIDATE = "compton"
    BACKGROUND = "background"


def check_positive(name: str, value: float) -> None:
    """Refuse a value that is not positive and finite, NaN included."""
    if not 0.0 < value < math.inf:
        raise MalformedInputError(f"{name} must be positive and finite, got {value!r}")


# pixel (col, row) -> (col + 1) * stride + row + 1, so that each of the
# eight neighbours of a sensor pixel has its own key
_STRIDE = SENSOR_PIXELS + 2
_NEIGHBOR_OFFSETS = np.array([dc * _STRIDE + dr for dc in (-1, 0, 1) for dr in (-1, 0, 1)])


def _min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of n vertices and the edges (a[k], b[k]).

    Each vertex gets the smallest vertex of its component. Rounds of
    hooking every root onto the smallest root across its edges, then
    pointer jumping until each label is a root, stop when every edge
    joins one label.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def cluster_hits(hits: HitBatch, max_toa_gap: float = CLUSTER_TOA_GAP_NS) -> TrackBatch:
    """Partition hits into tracks by 8-neighbor adjacency chained in time.

    In time order (ties kept in stream order), each hit links to the
    latest earlier hit on each of its own and its eight neighbouring
    pixels when that hit is at most max_toa_gap ns older. A track is a
    connected set of links, so two hits share one iff a chain of such
    links joins them. The latest earlier hit on a pixel comes from a
    binary search over the hits sorted by (pixel, time position), nine
    per hit, so the work is O(n log n) however many hits share a time
    window.

    Tracks come in order of their earliest hit. Pixel (col, row) spans
    [col*pitch, (col+1)*pitch), so its center sits at (col + 0.5)*pitch,
    and a track's centroid weights each center by the energy its pixel
    took. The sums run over the track's hits in time order.
    """
    check_positive("max_toa_gap", max_toa_gap)
    n = len(hits)
    if n == 0:
        return TrackBatch(*(np.empty(0) for _ in range(4)))

    order = np.argsort(hits.toa, kind="stable")
    toa = hits.toa[order]
    # hit at time position p on pixel k -> code k * n + p; sorted, with a
    # -1 in front so that every search lands on an entry
    key = (hits.col[order] + 1) * _STRIDE + hits.row[order] + 1
    code = np.sort(key * n + np.arange(n))
    by_pixel = np.concatenate(([-1], code))
    position = code % n
    first, toa_by_pixel = code - position, toa[position]  # first code of each hit's pixel
    later, earlier = [], []
    for offset in _NEIGHBOR_OFFSETS * n:
        # the needles (the neighbour pixel's code at the same time position)
        # rise with code, which keeps the search fast
        below = by_pixel[np.searchsorted(by_pixel, code + offset) - 1]  # latest earlier code
        found = below % n
        linked = (below >= first + offset) & (toa_by_pixel - toa[found] <= max_toa_gap)
        later.append(position[linked])
        earlier.append(found[linked])
    label = _min_labels(n, np.concatenate(later), np.concatenate(earlier))

    # the smallest time position, the track's earliest hit, labels each
    # track; numbering those in time order orders the tracks by it
    earliest = label == np.arange(n)
    track = (np.cumsum(earliest) - 1)[label]
    # bincount adds the weights of each track in input order: its hits in time order
    energy = hits.energy[order]
    total = np.bincount(track, weights=energy)
    # past the float range is inf, and inf / inf NaN, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        sx, sy = (np.bincount(track, weights=(column[order] + 0.5) * energy) for column in (hits.col, hits.row))
        return TrackBatch(toa[earliest], total, sx / total * PIXEL_PITCH_MM, sy / total * PIXEL_PITCH_MM)


def pair_coincident(
    tracks: TrackBatch,
    window: float = COINCIDENCE_WINDOW_NS,
    drop_ambiguous: bool = False,
) -> Pairing:
    """Greedy earliest-first disjoint pairing of tracks within the window.

    Tracks are taken in arrival order; each still-unpaired track pairs
    with its immediate successor when their representative times differ
    by at most window ns. On a timeline this greedy rule attains the
    maximum number of disjoint pairs. With drop_ambiguous=True, any run
    of 3+ tracks that are mutually within one window is discarded as an
    irreducible multi-coincidence instead of being paired greedily.
    """
    check_positive("window", window)
    order = np.argsort(tracks.toa, kind="stable")
    toa = tracks.toa[order]
    times = toa.tolist()
    n = len(times)
    starts: list[int] = []  # arrival position of each pair's earlier track
    dropped = 0
    i = 0  # the first track not yet paired or dropped
    # the scan stops only where a track and its successor are within the window
    for k in np.flatnonzero(np.diff(toa) <= window).tolist():
        if k < i:
            continue
        if drop_ambiguous and k + 2 < n and times[k + 2] - times[k] <= window:
            j = k + 3
            while j < n and times[j] - times[k] <= window:
                j += 1
            log.debug("dropping %d mutually coincident tracks at %.1f ns", j - k, times[k])
            dropped += j - k
            i = j
            continue
        starts.append(k)
        i = k + 2
    at = np.array(starts, dtype=np.int64)
    return Pairing(np.stack((order[at], order[at + 1]), axis=1), dropped)


def delta_z(electron_toa, photon_toa):
    """Depth separation in mm from the arrival-time difference in ns.

    The charge cloud drifts through the biased sensor at a fixed speed,
    so the time difference maps linearly to a depth difference. Sign
    follows (electron_toa - photon_toa). Takes floats or arrays.
    """
    return CHARGE_GATHERING_SPEED_UM_PER_NS * 1e-3 * (electron_toa - photon_toa)


def _scattering_cosine(electron_energy, photon_energy):
    """cos(theta) = 1 + m_e c^2 (1/(E_e + E_p) - 1/E_p), everything in keV; floats or arrays."""
    return 1.0 + ELECTRON_REST_ENERGY_KEV * (1.0 / (electron_energy + photon_energy) - 1.0 / photon_energy)


def make_pair(tracks: TrackBatch, first: np.ndarray, second: np.ndarray) -> PairBatch:
    """Compton pairs of the tracks at indices first[k] and second[k].

    Role convention for anonymous track input: the earlier track is the
    scattered photon, the later the recoil electron, so the depth offset
    comes out nonnegative. Each pair has this one reading and gives at
    most one cone.
    """
    swap = tracks.toa[first] > tracks.toa[second]
    photon, electron = np.where(swap, second, first), np.where(swap, first, second)
    return PairBatch(*(column[rows] for rows in (electron, photon)
                       for column in (tracks.x, tracks.y, tracks.energy, tracks.toa)))


def build_cone(pairs: PairBatch) -> tuple[ConeBatch, np.ndarray, int, int]:
    """Camera-frame measurement cones of Compton pairs, in time order.

    The electron event sits at (x, y, delta_z), the photon event at
    (x, y, 0); the apex is the electron position, the axis points from
    the photon site through the electron site, and the half-angle is the
    scattering angle. Millimeter sensor coordinates convert to meters.
    A pair whose energy split is kinematically impossible, or whose two
    events coincide (axis undefined), gives no cone. Returns the cones,
    sorted stably by time, their times in s, and the number of pairs
    dropped for each of those two reasons; the first cone past the float
    range is refused as a Cone record refuses it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in cluster_hits
        b = _scattering_cosine(pairs.electron_energy, pairs.photon_energy)
        valid = (-1.0 < b) & (b < 1.0)
        ox, oy = pairs.electron_x * 1e-3, pairs.electron_y * 1e-3
        oz = delta_z(pairs.electron_toa, pairs.photon_toa) * 1e-3
        sx, sy = ox - pairs.photon_x * 1e-3, oy - pairs.photon_y * 1e-3
        norm = np.sqrt(sx * sx + sy * sy + oz * oz)
        coincide = norm < 1e-9
        rows = np.flatnonzero(valid & ~coincide)
        time = np.minimum(pairs.electron_toa, pairs.photon_toa)[rows] * 1e-9
        by_time = np.argsort(time, kind="stable")
        rows, time = rows[by_time], time[by_time]
        norm = norm[rows]  # nonzero: the division runs over the kept rows alone
        origins = np.stack((ox[rows], oy[rows], oz[rows]), axis=1)
        axes = np.stack((sx[rows] / norm, sy[rows] / norm, oz[rows] / norm), axis=1)
    # x and y of each origin are finite, so only a separation past the float range leaves a norm not finite
    if not (finite := np.isfinite(norm)).all():
        i = int(np.argmin(finite))
        origin = tuple(origins[i].tolist())
        fault = f"cone axis must be unit length, got |axis| = {math.hypot(*axes[i].tolist())!r}"
        raise MalformedInputError(f"cone origin must be finite, got {origin!r}" if math.isinf(origin[2]) else fault)
    cones = ConeBatch(origins, axes, np.array([math.acos(cos) for cos in b[rows].tolist()]))
    return cones, time, int(np.count_nonzero(~valid)), int(np.count_nonzero(valid & coincide))


@dataclass
class ClassificationSummary:
    """Event-class bookkeeping over one processed stream."""

    counts: dict[EventClass, int] = field(
        default_factory=lambda: {c: 0 for c in EventClass}
    )
    # Compton pairs that gave no cone, by reason
    invalid_scattering: int = 0
    degenerate_geometry: int = 0
    ambiguous: int = 0
    duration: float = 0.0  # seconds

    @property
    def rejected_pairs(self) -> int:
        """Compton pairs that gave no cone."""
        return self.invalid_scattering + self.degenerate_geometry

    def rates(self) -> dict[EventClass, float]:
        """Events per second by class; zero rates for a zero-length stream."""
        if self.duration <= 0.0:
            return {c: 0.0 for c in EventClass}
        return {c: n / self.duration for c, n in self.counts.items()}

    def shares(self) -> dict[EventClass, float]:
        total = sum(self.counts.values())
        if total == 0:
            return {c: 0.0 for c in EventClass}
        return {c: n / total for c, n in self.counts.items()}


@dataclass
class PipelineResult:
    """Camera-frame cones, their times in s, and stream statistics from one pipeline run."""

    cones: ConeBatch
    times: np.ndarray
    summary: ClassificationSummary
    pair_count: int = 0


def process_pairs(
    pairs: PairBatch,
    threshold: float = BACKGROUND_THRESHOLD_KEV,
    duration: float | None = None,
    lone_energy: np.ndarray | tuple = (),
    ambiguous: int = 0,
) -> PipelineResult:
    """Classify pairs and lone tracks by energy and emit the Compton candidates' cones.

    Anything above the threshold is too energetic for the source isotope
    and counts as background; below it, a pair (on its summed energy) is
    a Compton candidate and a lone track, given by its energy, a
    photoelectric absorption. Only Compton candidates yield cones; those
    whose energy split fails the scattering-angle validity test, or whose
    two events coincide, stay classified but are dropped from cone output
    and counted under their reason. duration, in s, defaults to the time
    span of the pairs.
    """
    check_positive("threshold", threshold)
    if duration is not None and not 0.0 <= duration < math.inf:
        raise MalformedInputError(f"duration must be nonnegative and finite, got {duration!r}")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in Python floats
        background = pairs.electron_energy + pairs.photon_energy > threshold
    lone_background = np.asarray(lone_energy, dtype=np.float64) > threshold
    cones, times, invalid, degenerate = build_cone(pairs.take(~background))
    summary = ClassificationSummary(invalid_scattering=invalid, degenerate_geometry=degenerate, ambiguous=ambiguous)
    summary.counts[EventClass.PHOTOELECTRIC] = int(np.count_nonzero(~lone_background))
    summary.counts[EventClass.COMPTON_CANDIDATE] = int(np.count_nonzero(~background))
    summary.counts[EventClass.BACKGROUND] = int(np.count_nonzero(background) + np.count_nonzero(lone_background))

    if duration is not None:
        summary.duration = duration
    elif len(pairs):
        toa = np.concatenate((pairs.electron_toa, pairs.photon_toa))
        summary.duration = float(toa.max() - toa.min()) * 1e-9
    return PipelineResult(cones, times, summary, pair_count=len(pairs))


def process_hits(
    hits: HitBatch,
    max_toa_gap: float = CLUSTER_TOA_GAP_NS,
    window: float = COINCIDENCE_WINDOW_NS,
    threshold: float = BACKGROUND_THRESHOLD_KEV,
    drop_ambiguous: bool = False,
    duration: float | None = None,
) -> PipelineResult:
    """Full flat-hit pipeline: cluster, pair, classify, build cones.

    Tracks in no pair, the dropped multi-coincidences among them, are
    classified alone. duration, in s, defaults to the time span of the hits.
    """
    tracks = cluster_hits(hits, max_toa_gap)
    pairing = pair_coincident(tracks, window, drop_ambiguous)
    pairs = make_pair(tracks, *pairing.index.T)
    lone = np.ones(len(tracks), dtype=bool)
    lone[pairing.index] = False
    if duration is None and len(hits):
        duration = float(hits.toa.max() - hits.toa.min()) * 1e-9
    return process_pairs(pairs, threshold, duration, tracks.energy[lone], pairing.ambiguous)


__all__ = [
    "ClassificationSummary",
    "EventClass",
    "HitBatch",
    "PairBatch",
    "Pairing",
    "PipelineResult",
    "TrackBatch",
    "build_cone",
    "cluster_hits",
    "delta_z",
    "make_pair",
    "pair_coincident",
    "process_hits",
    "process_pairs",
]
