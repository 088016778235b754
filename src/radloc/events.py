"""Event pipeline: pixel hits -> tracks -> coincident pairs -> Compton cones.

Takes a flat stream of timestamped detector pixel hits, clusters them
into particle tracks, pairs tracks that arrive within the coincidence
window, recovers depth separation and scattering angle from times and
energies, and emits camera-frame measurement cones plus classification
statistics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

from .constants import (
    BACKGROUND_THRESHOLD_KEV,
    CHARGE_GATHERING_SPEED_UM_PER_NS,
    CLUSTER_TOA_GAP_NS,
    COINCIDENCE_WINDOW_NS,
    ELECTRON_REST_ENERGY_KEV,
    PIXEL_PITCH_MM,
    SENSOR_PIXELS,
)
from .errors import DegenerateGeometryError, InvalidScatteringError, MalformedInputError
from .geometry import Cone, Frame

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PixelHit:
    """One activated pixel: position on the matrix, deposited energy, arrival time."""

    toa: float  # ns
    col: int
    row: int
    energy: float  # keV

    def __post_init__(self) -> None:
        # "not > 0" rather than "<= 0", so that NaN fails too
        if not self.energy > 0.0:
            raise MalformedInputError(f"hit energy must be positive, got {self.energy!r}")
        if not (0 <= self.col < SENSOR_PIXELS and 0 <= self.row < SENSOR_PIXELS):
            raise MalformedInputError(f"pixel ({self.col}, {self.row}) outside the sensor matrix")


@dataclass(frozen=True)
class PixelTrack:
    """A connected cluster of hits left by one particle interaction."""

    hits: tuple[PixelHit, ...]
    # set once from the hits, since sorting and pairing read them many times
    toa: float = field(init=False)  # representative time: earliest charge arrival, ns
    energy: float = field(init=False)  # keV

    def __post_init__(self) -> None:
        if not self.hits:
            raise MalformedInputError("a track needs at least one hit")
        object.__setattr__(self, "toa", min(h.toa for h in self.hits))
        object.__setattr__(self, "energy", sum(h.energy for h in self.hits))


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


def cluster_hits(hits: list[PixelHit], max_toa_gap: float = CLUSTER_TOA_GAP_NS) -> list[PixelTrack]:
    """Partition hits into tracks by 8-neighbor adjacency chained in time.

    Two hits land in one track iff they are connected through a chain of
    hits where each consecutive link is 8-adjacent (or on the same pixel)
    and within max_toa_gap ns. Single pass over the time-sorted stream
    with a per-pixel last-seen map, so large streams stay linear.
    """
    if max_toa_gap <= 0.0:
        raise MalformedInputError("max_toa_gap must be positive")
    if not hits:
        return []

    toas = [h.toa for h in hits]
    # pixel (col, row) -> (col + 1) * stride + row + 1, so that each of the
    # eight neighbours of a sensor pixel has its own slot in last_seen
    stride = SENSOR_PIXELS + 2
    keys = [(h.col + 1) * stride + h.row + 1 for h in hits]
    neighbors = [dc * stride + dr for dc in (-1, 0, 1) for dr in (-1, 0, 1)]
    order = sorted(range(len(hits)), key=toas.__getitem__)
    parent = list(range(len(hits)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    last_seen = [-1] * (stride * stride)  # latest hit on each pixel so far
    for idx in order:
        key, toa = keys[idx], toas[idx]
        for offset in neighbors:
            j = last_seen[key + offset]
            if j >= 0 and toa - toas[j] <= max_toa_gap:
                union(idx, j)
        last_seen[key] = idx

    groups: dict[int, list[PixelHit]] = {}
    for idx in order:
        groups.setdefault(find(idx), []).append(hits[idx])
    tracks = [PixelTrack(tuple(g)) for g in groups.values()]
    tracks.sort(key=lambda t: t.toa)
    return tracks


def track_centroid(
    track: PixelTrack, energy_weighted: bool = True
) -> tuple[float, float, float, float]:
    """Centroid (x mm, y mm), total energy (keV), earliest toa (ns) of a track.

    Pixel (col, row) spans [col*pitch, (col+1)*pitch), so its center sits
    at (col + 0.5)*pitch. Weighting by deposited energy is the default;
    pass energy_weighted=False for the plain geometric mean. The sums run
    in hit order, as numpy sums fewer than eight terms.
    """
    sx = sy = sw = energy = 0.0
    for h in track.hits:
        w = h.energy if energy_weighted else 1.0
        sx += (h.col + 0.5) * w
        sy += (h.row + 0.5) * w
        sw += w
        energy += h.energy
    return sx / sw * PIXEL_PITCH_MM, sy / sw * PIXEL_PITCH_MM, energy, track.toa


def pair_coincident(
    tracks: list[PixelTrack],
    window: float = COINCIDENCE_WINDOW_NS,
    drop_ambiguous: bool = False,
) -> list[tuple[PixelTrack, PixelTrack]]:
    """Greedy earliest-first disjoint pairing of tracks within the window.

    Tracks are taken in arrival order; each still-unpaired track pairs
    with its immediate successor when their representative times differ
    by at most window ns. On a timeline this greedy rule attains the
    maximum number of disjoint pairs. With drop_ambiguous=True, any run
    of 3+ tracks that are mutually within one window is discarded as an
    irreducible multi-coincidence instead of being paired greedily.
    """
    ordered = sorted(tracks, key=lambda t: t.toa)
    pairs: list[tuple[PixelTrack, PixelTrack]] = []
    i = 0
    while i + 1 < len(ordered):
        if ordered[i + 1].toa - ordered[i].toa <= window:
            if drop_ambiguous and i + 2 < len(ordered) and ordered[i + 2].toa - ordered[i].toa <= window:
                j = i + 2
                while j < len(ordered) and ordered[j].toa - ordered[i].toa <= window:
                    j += 1
                log.debug("dropping %d mutually coincident tracks at %.1f ns", j - i, ordered[i].toa)
                i = j
                continue
            pairs.append((ordered[i], ordered[i + 1]))
            i += 2
        else:
            i += 1
    return pairs


def classify_track(
    total_energy: float, paired: bool, threshold: float = BACKGROUND_THRESHOLD_KEV
) -> EventClass:
    """Energy-threshold event classification.

    Anything above the threshold is too energetic for the source isotope
    and counts as background; below it, paired events are Compton
    candidates and lone tracks photoelectric absorptions.
    """
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


def make_pair(
    first: PixelTrack,
    second: PixelTrack,
    energy_weighted: bool = True,
) -> ComptonPair:
    """Build a ComptonPair from two coincident tracks.

    Role convention for anonymous track input: the earlier track is the
    scattered photon, the later the recoil electron, so the depth offset
    comes out nonnegative. When the true roles matter, use the
    swap-hypotheses path to emit both readings.
    """
    a, b = (first, second) if first.toa <= second.toa else (second, first)
    px, py, pe, pt = track_centroid(a, energy_weighted)
    ex, ey, ee, et = track_centroid(b, energy_weighted)
    return ComptonPair((ex, ey), (px, py), ee, pe, et, pt)


def swap_roles(pair: ComptonPair) -> ComptonPair:
    return ComptonPair(
        pair.photon_xy,
        pair.electron_xy,
        pair.photon_energy,
        pair.electron_energy,
        pair.photon_toa,
        pair.electron_toa,
    )


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
    rejected_pairs: int = 0  # Compton pairs that gave no cone
    # dropped cone candidates by reason, one per role reading tried
    invalid_scattering: int = 0
    degenerate_geometry: int = 0
    ambiguous: int = 0
    duration: float = 0.0  # seconds

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
    swap_hypotheses: bool = False,
    duration: float | None = None,
    unpaired_tracks: list[PixelTrack] | None = None,
    ambiguous: int = 0,
) -> PipelineResult:
    """Classify pairs (and leftover single tracks) and emit cones.

    Pairs are classified on their summed energy; only Compton candidates
    yield cones. Pairs whose energy split fails the scattering-angle
    validity test, or whose two events coincide, stay classified but are
    dropped from cone output and tallied under rejected_pairs; each
    dropped candidate also counts under its reason.
    """
    summary = ClassificationSummary(ambiguous=ambiguous)
    cones: list[Cone] = []
    times: list[float] = []

    for pair in pairs:
        times.extend((pair.electron_toa, pair.photon_toa))
        cls = classify_track(pair.total_energy, paired=True, threshold=threshold)
        summary.counts[cls] += 1
        if cls is not EventClass.COMPTON_CANDIDATE:
            continue
        candidates = [pair, swap_roles(pair)] if swap_hypotheses else [pair]
        ok = 0
        for cand in candidates:
            try:
                cones.append(build_cone(cand))
                ok += 1
            except InvalidScatteringError as exc:
                summary.invalid_scattering += 1
                log.debug("dropped pair at %.1f ns: %s", pair.photon_toa, exc)
            except DegenerateGeometryError as exc:
                summary.degenerate_geometry += 1
                log.debug("dropped pair at %.1f ns: %s", pair.photon_toa, exc)
        if ok == 0:
            summary.rejected_pairs += 1

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
    hits: list[PixelHit],
    max_toa_gap: float = CLUSTER_TOA_GAP_NS,
    window: float = COINCIDENCE_WINDOW_NS,
    threshold: float = BACKGROUND_THRESHOLD_KEV,
    energy_weighted: bool = True,
    swap_hypotheses: bool = False,
    drop_ambiguous: bool = False,
    duration: float | None = None,
) -> PipelineResult:
    """Full flat-hit pipeline: cluster, pair, classify, build cones."""
    tracks = cluster_hits(hits, max_toa_gap)
    pairs_raw = pair_coincident(tracks, window, drop_ambiguous)
    paired_ids = {id(t) for pair in pairs_raw for t in pair}
    unpaired = [t for t in tracks if id(t) not in paired_ids]
    ambiguous = _ambiguous_count(tracks, window) if drop_ambiguous else 0
    pairs = [make_pair(a, b, energy_weighted) for a, b in pairs_raw]
    if duration is None and hits:
        duration = (max(h.toa for h in hits) - min(h.toa for h in hits)) * 1e-9
    return process_pairs(
        pairs,
        threshold=threshold,
        swap_hypotheses=swap_hypotheses,
        duration=duration,
        unpaired_tracks=unpaired,
        ambiguous=ambiguous,
    )


def _ambiguous_count(tracks: list[PixelTrack], window: float) -> int:
    """Tracks belonging to runs of 3+ mutual coincidences (same scan as pairing)."""
    ordered = sorted(tracks, key=lambda t: t.toa)
    count = 0
    i = 0
    while i + 1 < len(ordered):
        if ordered[i + 1].toa - ordered[i].toa <= window:
            j = i + 2
            while j < len(ordered) and ordered[j].toa - ordered[i].toa <= window:
                j += 1
            if j - i >= 3:
                count += j - i
                i = j
                continue
            i += 2
        else:
            i += 1
    return count


__all__ = [
    "ClassificationSummary",
    "ComptonPair",
    "EventClass",
    "PipelineResult",
    "PixelHit",
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
    "swap_roles",
    "track_centroid",
]
