"""Event pipeline: pixel hits -> tracks -> coincident pairs -> Compton cones.

Takes a flat stream of timestamped detector pixel hits, held as one
checked HitBatch of columns, clusters them into particle tracks with
array operations, pairs tracks that arrive within the coincidence
window, recovers depth separation and scattering angle from times and
energies, and emits camera-frame measurement cones plus classification
statistics. Clustering builds no record per hit: each track holds
list slices of the time-sorted columns, and the per-track and per-pair
steps run on Python floats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
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
from .errors import (
    DegenerateGeometryError,
    InvalidHitError,
    InvalidScatteringError,
    MalformedInputError,
)
from .geometry import Cone, Frame

log = logging.getLogger(__name__)


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
    with an InvalidHitError that names the first one.
    """

    toa: np.ndarray  # float64
    col: np.ndarray  # int64
    row: np.ndarray  # int64
    energy: np.ndarray  # float64

    def __post_init__(self) -> None:
        toa, col, row, energy = (
            np.array(v, dtype=np.float64) for v in (self.toa, self.col, self.row, self.energy)
        )
        if toa.ndim != 1 or not toa.shape == col.shape == row.shape == energy.shape:
            raise MalformedInputError("hit columns must be 1-D and of one length")
        ok = np.isfinite(toa) & _integral_on_sensor(col) & _integral_on_sensor(row) & (energy > 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            fault = _hit_fault(*(float(v[i]) for v in (toa, col, row, energy)))
            raise InvalidHitError(i, fault)
        columns = {"toa": toa, "col": col.astype(np.int64), "row": row.astype(np.int64), "energy": energy}
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.toa)


@dataclass(slots=True, eq=False)
class PixelTrack:
    """A connected cluster of hits left by one particle interaction.

    Four columns of equal length, one entry per hit; clustering fills
    them in time order. toa and energy are derived once, on
    construction, so the columns are not to be changed afterwards.
    Not frozen: a frozen dataclass takes four times as long to build,
    and clustering builds one per track.
    """

    toas: list[float]  # ns
    cols: list[int]
    rows: list[int]
    energies: list[float]  # keV
    # set once from the hits, since sorting and pairing read them many times
    toa: float = field(init=False)  # representative time: earliest charge arrival, ns
    energy: float = field(init=False)  # keV

    def __post_init__(self) -> None:
        if not self.toas:
            raise MalformedInputError("a track needs at least one hit")
        self.toa = min(self.toas)
        self.energy = sum(self.energies)


@dataclass(frozen=True)
class ComptonPair:
    """Matched recoil-electron / scattered-photon tracks of one scattering event.

    Positions are centroid coordinates in mm on the sensor plane, times
    in ns, energies in keV.
    """

    electron_xy: tuple[float, float]
    photon_xy: tuple[float, float]
    electron_energy: float
    photon_energy: float
    electron_toa: float
    photon_toa: float

    def __post_init__(self) -> None:
        if not (self.electron_energy > 0.0 and self.photon_energy > 0.0):
            raise MalformedInputError("pair energies must be positive")
        if not all(map(math.isfinite, (*self.electron_xy, *self.photon_xy))):
            raise MalformedInputError("pair positions must be finite")

    @property
    def total_energy(self) -> float:
        return self.electron_energy + self.photon_energy


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


def cluster_hits(hits: HitBatch, max_toa_gap: float = CLUSTER_TOA_GAP_NS) -> list[PixelTrack]:
    """Partition hits into tracks by 8-neighbor adjacency chained in time.

    In time order (ties kept in stream order), each hit links to the
    latest earlier hit on each of its own and its eight neighbouring
    pixels when that hit is at most max_toa_gap ns older. A track is a
    connected set of links, so two hits share one iff a chain of such
    links joins them. The latest earlier hit on a pixel comes from a
    binary search over the hits sorted by (pixel, time position), nine
    per hit, so the work is O(n log n) however many hits share a time
    window.

    Tracks come in order of their earliest hit, each with its hits in
    time order.
    """
    check_positive("max_toa_gap", max_toa_gap)
    n = len(hits)
    if n == 0:
        return []

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

    # the smallest time position labels each track, so sorting by label
    # orders the tracks by their earliest hit and keeps time order inside
    grouped = np.argsort(label, kind="stable")
    starts = [0, *(np.flatnonzero(np.diff(label[grouped])) + 1).tolist(), n]
    stream = order[grouped]
    toas, cols, rows, energies = (
        column[stream].tolist() for column in (hits.toa, hits.col, hits.row, hits.energy)
    )
    return [
        PixelTrack(toas[i:j], cols[i:j], rows[i:j], energies[i:j])
        for i, j in zip(starts, starts[1:])
    ]


def track_centroid(track: PixelTrack) -> tuple[float, float, float, float]:
    """Energy-weighted centroid (x mm, y mm), total energy (keV), earliest toa (ns).

    Pixel (col, row) spans [col*pitch, (col+1)*pitch), so its center sits
    at (col + 0.5)*pitch, and each center is weighted by the energy its
    pixel took. The sums run in hit order, as numpy sums fewer than
    eight terms.
    """
    sx = sy = energy = 0.0
    for col, row, e in zip(track.cols, track.rows, track.energies):
        sx += (col + 0.5) * e
        sy += (row + 0.5) * e
        energy += e
    return sx / energy * PIXEL_PITCH_MM, sy / energy * PIXEL_PITCH_MM, energy, track.toa


def pair_coincident(
    tracks: list[PixelTrack],
    window: float = COINCIDENCE_WINDOW_NS,
    drop_ambiguous: bool = False,
) -> tuple[list[tuple[PixelTrack, PixelTrack]], int]:
    """Greedy earliest-first disjoint pairing of tracks within the window.

    Tracks are taken in arrival order; each still-unpaired track pairs
    with its immediate successor when their representative times differ
    by at most window ns. On a timeline this greedy rule attains the
    maximum number of disjoint pairs. With drop_ambiguous=True, any run
    of 3+ tracks that are mutually within one window is discarded as an
    irreducible multi-coincidence instead of being paired greedily.
    Returns the pairs and the number of tracks dropped.
    """
    check_positive("window", window)
    ordered = sorted(tracks, key=lambda t: t.toa)
    pairs: list[tuple[PixelTrack, PixelTrack]] = []
    dropped = 0
    i = 0
    while i + 1 < len(ordered):
        if ordered[i + 1].toa - ordered[i].toa <= window:
            if drop_ambiguous and i + 2 < len(ordered) and ordered[i + 2].toa - ordered[i].toa <= window:
                j = i + 2
                while j < len(ordered) and ordered[j].toa - ordered[i].toa <= window:
                    j += 1
                log.debug("dropping %d mutually coincident tracks at %.1f ns", j - i, ordered[i].toa)
                dropped += j - i
                i = j
                continue
            pairs.append((ordered[i], ordered[i + 1]))
            i += 2
        else:
            i += 1
    return pairs, dropped


def classify_track(
    total_energy: float, paired: bool, threshold: float = BACKGROUND_THRESHOLD_KEV
) -> EventClass:
    """Energy-threshold event classification.

    Anything above the threshold is too energetic for the source isotope
    and counts as background; below it, paired events are Compton
    candidates and lone tracks photoelectric absorptions.
    """
    check_positive("threshold", threshold)
    if not total_energy > 0.0:
        raise MalformedInputError("total_energy must be positive")
    if total_energy > threshold:
        return EventClass.BACKGROUND
    if paired:
        return EventClass.COMPTON_CANDIDATE
    return EventClass.PHOTOELECTRIC


def delta_z(electron_toa: float, photon_toa: float) -> float:
    """Depth separation in mm from the arrival-time difference in ns.

    The charge cloud drifts through the biased sensor at a fixed speed,
    so the time difference maps linearly to a depth difference. Sign
    follows (electron_toa - photon_toa).
    """
    return CHARGE_GATHERING_SPEED_UM_PER_NS * 1e-3 * (electron_toa - photon_toa)


def scattering_angle(electron_energy: float, photon_energy: float) -> float:
    """Scattering angle from the energy split between the two products.

    cos(theta) = 1 + m_e c^2 (1/(E_e + E_p) - 1/E_p), everything in keV.
    The expression is invariant under a common rescaling of the energies,
    so keV-native math is exact. Energy splits with cos(theta) outside
    (-1, 1) cannot come from a single scattering and are rejected.
    """
    if not (electron_energy > 0.0 and photon_energy > 0.0):
        raise MalformedInputError("energies must be positive")
    b = 1.0 + ELECTRON_REST_ENERGY_KEV * (
        1.0 / (electron_energy + photon_energy) - 1.0 / photon_energy
    )
    if not (-1.0 < b < 1.0):
        raise InvalidScatteringError(b)
    return math.acos(b)


def make_pair(first: PixelTrack, second: PixelTrack) -> ComptonPair:
    """Build a ComptonPair from two coincident tracks.

    Role convention for anonymous track input: the earlier track is the
    scattered photon, the later the recoil electron, so the depth offset
    comes out nonnegative. Each pair has this one reading and gives at
    most one cone.
    """
    a, b = (first, second) if first.toa <= second.toa else (second, first)
    px, py, pe, pt = track_centroid(a)
    ex, ey, ee, et = track_centroid(b)
    return ComptonPair((ex, ey), (px, py), ee, pe, et, pt)


def build_cone(pair: ComptonPair) -> Cone:
    """Camera-frame measurement cone of one Compton pair.

    The electron event sits at (x, y, delta_z), the photon event at
    (x, y, 0); the apex is the electron position, the axis points from
    the photon site through the electron site, and the half-angle is the
    scattering angle. Millimeter sensor coordinates convert to meters.
    Raises if the two events coincide (axis undefined) or the energy
    split is kinematically impossible.
    """
    theta = scattering_angle(pair.electron_energy, pair.photon_energy)
    (ex, ey), (px, py) = pair.electron_xy, pair.photon_xy
    electron = (ex * 1e-3, ey * 1e-3, delta_z(pair.electron_toa, pair.photon_toa) * 1e-3)
    sx, sy, sz = electron[0] - px * 1e-3, electron[1] - py * 1e-3, electron[2]
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if norm < 1e-9:
        raise DegenerateGeometryError("coincident pair events; cone axis undefined")
    timestamp = min(pair.electron_toa, pair.photon_toa) * 1e-9
    return Cone(electron, (sx / norm, sy / norm, sz / norm), theta, Frame.CAMERA, timestamp)


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

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def rates(self) -> dict[EventClass, float]:
        """Events per second by class; zero rates for a zero-length stream."""
        if self.duration <= 0.0:
            return {c: 0.0 for c in EventClass}
        return {c: n / self.duration for c, n in self.counts.items()}

    def shares(self) -> dict[EventClass, float]:
        total = self.total
        if total == 0:
            return {c: 0.0 for c in EventClass}
        return {c: n / total for c, n in self.counts.items()}


@dataclass
class PipelineResult:
    """Cones plus stream statistics from one pipeline run."""

    cones: list[Cone]
    summary: ClassificationSummary
    pair_count: int = 0


def process_pairs(
    pairs: list[ComptonPair],
    threshold: float = BACKGROUND_THRESHOLD_KEV,
    duration: float | None = None,
    unpaired_tracks: list[PixelTrack] | None = None,
    ambiguous: int = 0,
) -> PipelineResult:
    """Classify pairs (and leftover single tracks) and emit cones.

    Pairs are classified on their summed energy; only Compton candidates
    yield cones. Pairs whose energy split fails the scattering-angle
    validity test, or whose two events coincide, stay classified but are
    dropped from cone output and counted under their reason.
    """
    check_positive("threshold", threshold)
    if duration is not None and not 0.0 <= duration < math.inf:
        raise MalformedInputError(f"duration must be nonnegative and finite, got {duration!r}")
    summary = ClassificationSummary(ambiguous=ambiguous)
    cones: list[Cone] = []
    times: list[float] = []

    for pair in pairs:
        times.extend((pair.electron_toa, pair.photon_toa))
        cls = classify_track(pair.total_energy, paired=True, threshold=threshold)
        summary.counts[cls] += 1
        if cls is not EventClass.COMPTON_CANDIDATE:
            continue
        try:
            cones.append(build_cone(pair))
        except InvalidScatteringError as exc:
            summary.invalid_scattering += 1
            log.debug("dropped pair at %.1f ns: %s", pair.photon_toa, exc)
        except DegenerateGeometryError as exc:
            summary.degenerate_geometry += 1
            log.debug("dropped pair at %.1f ns: %s", pair.photon_toa, exc)

    for track in unpaired_tracks or []:
        times.append(track.toa)
        cls = classify_track(track.energy, paired=False, threshold=threshold)
        summary.counts[cls] += 1

    if duration is not None:
        summary.duration = duration
    elif times:
        summary.duration = (max(times) - min(times)) * 1e-9

    cones.sort(key=lambda c: c.timestamp)
    return PipelineResult(cones, summary, pair_count=len(pairs))


def process_hits(
    hits: HitBatch,
    max_toa_gap: float = CLUSTER_TOA_GAP_NS,
    window: float = COINCIDENCE_WINDOW_NS,
    threshold: float = BACKGROUND_THRESHOLD_KEV,
    drop_ambiguous: bool = False,
    duration: float | None = None,
) -> PipelineResult:
    """Full flat-hit pipeline: cluster, pair, classify, build cones."""
    tracks = cluster_hits(hits, max_toa_gap)
    pairs_raw, ambiguous = pair_coincident(tracks, window, drop_ambiguous)
    paired_ids = {id(t) for pair in pairs_raw for t in pair}
    unpaired = [t for t in tracks if id(t) not in paired_ids]
    pairs = [make_pair(a, b) for a, b in pairs_raw]
    if duration is None and len(hits):
        duration = float(hits.toa.max() - hits.toa.min()) * 1e-9
    return process_pairs(
        pairs, threshold=threshold, duration=duration, unpaired_tracks=unpaired, ambiguous=ambiguous
    )


__all__ = [
    "ClassificationSummary",
    "ComptonPair",
    "EventClass",
    "HitBatch",
    "PipelineResult",
    "PixelTrack",
    "build_cone",
    "classify_track",
    "cluster_hits",
    "delta_z",
    "make_pair",
    "pair_coincident",
    "process_hits",
    "process_pairs",
    "scattering_angle",
    "track_centroid",
]
