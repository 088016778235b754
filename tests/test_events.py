import math
import warnings

import numpy as np
import pytest

from radloc.constants import (
    CHARGE_GATHERING_SPEED_UM_PER_NS,
    CLUSTER_TOA_GAP_NS,
    COINCIDENCE_WINDOW_NS,
    SENSOR_THICKNESS_MM,
)
from radloc.errors import (
    InvalidRowError,
    MalformedInputError,
)
from radloc.events import (
    EventClass,
    HitBatch,
    PairBatch,
    TrackBatch,
    build_cone,
    cluster_hits,
    delta_z,
    make_pair,
    pair_coincident,
    process_hits,
    process_pairs,
)
from radloc.geometry import Frame, interpolate_pose, transform_cone

from oracles import (
    ComptonPair,
    InvalidScatteringError,
    PixelTrack,
    best_disjoint_pairing,
    build_cone_record,
    build_cone_reference,
    camera_cones,
    cluster_hits_reference,
    pose_stream,
    process_hits_record,
    scattered_photon_energy,
    track_centroid,
    track_centroid_reference,
    trajectory_waypoints,
    world_cones_reference,
)


def hit(toa, col=0, row=0, energy=100.0):
    return (toa, col, row, energy)


def batch(hits):
    """A HitBatch of (toa, col, row, energy) hits."""
    return HitBatch(*(list(column) for column in zip(*hits))) if hits else HitBatch([], [], [], [])


def tracks_at(*toas, energy=100.0):
    """A TrackBatch of tracks at the given times, all at the sensor's corner."""
    n = len(toas)
    return TrackBatch(np.array(toas, dtype=float), np.full(n, energy), np.zeros(n), np.zeros(n))


def track_rows(tracks):
    """(toa, energy, x, y) of each track of a TrackBatch."""
    return list(zip(*(c.tolist() for c in (tracks.toa, tracks.energy, tracks.x, tracks.y))))


def record_rows(tracks):
    """(toa, energy, x, y) of each PixelTrack, its sums taken in hit order."""
    rows = []
    for t in tracks:
        x, y, energy, toa = track_centroid(t)
        rows.append((toa, energy, x, y))
    return rows


def pair_batch(*pairs):
    """A PairBatch of ComptonPair records."""
    rows = [(*p.electron_xy, p.electron_energy, p.electron_toa, *p.photon_xy, p.photon_energy, p.photon_toa)
            for p in pairs]
    return PairBatch(*zip(*rows)) if rows else PairBatch(*([],) * 8)


def cone_records(pairs):
    """build_cone's cones as camera-frame Cone records, and its two drop counts."""
    cones, times, invalid, degenerate = build_cone(pairs)
    return camera_cones(cones, times), invalid, degenerate


def same_cone(got, want):
    return (got.origin, got.axis, got.half_angle, got.frame, got.timestamp) == (
        want.origin, want.axis, want.half_angle, want.frame, want.timestamp)


# --- kinematics ---


def energy_split(electron_energies, photon_energies):
    """A PairBatch of one pair per energy split, each at its own time, the
    electron 1 mm from the photon on the sensor and 20.31 ns later."""
    n = len(electron_energies)
    toa = np.arange(n) * 1e3
    return PairBatch(np.ones(n), np.full(n, 2.0), electron_energies, toa + 20.31,
                     np.ones(n), np.ones(n), photon_energies, toa)


def half_angles(electron_energies, photon_energies):
    """The scattering angles build_cone gives the energy splits, all of which must give a cone."""
    cones, times, invalid, degenerate = build_cone(energy_split(electron_energies, photon_energies))
    assert (len(cones), len(times), invalid, degenerate) == (len(electron_energies), len(electron_energies), 0, 0)
    return cones.half_angles.tolist()


def test_scattering_angle_reference_event():
    assert half_angles([315.70], [394.22]) == [pytest.approx(1.13, abs=0.01)]


def test_scattering_angle_equal_split():
    # B = 1 + 511 (1/1022 - 1/511) = 0.5 exactly
    assert half_angles([511.0], [511.0]) == [pytest.approx(math.pi / 3, abs=1e-12)]


def test_scattering_angle_vanishing_electron_energy():
    assert half_angles([1e-9], [662.0]) == [pytest.approx(0.0, abs=1e-4)]


def test_scattering_angle_rejects_impossible_split():
    # B = 1 + 511 (1/1100 - 1/100) = -3.645: no cone, counted as an invalid split
    assert cone_records(energy_split([1000.0], [100.0])) == ([], 1, 0)
    summary = process_pairs(energy_split([1000.0, 600.0], [100.0, 100.0]), threshold=2000.0).summary
    assert (summary.invalid_scattering, summary.rejected_pairs) == (2, 2)
    with pytest.raises(MalformedInputError):
        energy_split([-1.0], [100.0])


def test_scattering_angle_roundtrip():
    # forward energy split at a known angle must reproduce that angle
    rng = np.random.default_rng(12)
    e_in, theta = np.array([(rng.uniform(100.0, 1000.0), rng.uniform(0.05, math.pi - 0.05)) for _ in range(2000)]).T
    e_out = np.array([scattered_photon_energy(e, t) for e, t in zip(e_in, theta)])
    assert half_angles(e_in - e_out, e_out) == pytest.approx(theta.tolist(), abs=1e-9)


def test_delta_z_reference_event():
    assert delta_z(20.31, 0.0) == pytest.approx(0.47232936, abs=1e-9)
    assert delta_z(20.31, 0.0) == pytest.approx(0.47, abs=5e-3)


def test_delta_z_simultaneous_and_full_depth():
    assert delta_z(5.0, 5.0) == 0.0
    # the coincidence window spans exactly the sensor thickness
    assert delta_z(86.0, 0.0) == pytest.approx(2.0, abs=1e-3)


def test_coincidence_window_spans_sensor_thickness():
    # drifting through the whole sensor takes one coincidence window (0.1 % slack)
    spanned_mm = CHARGE_GATHERING_SPEED_UM_PER_NS * COINCIDENCE_WINDOW_NS * 1e-3
    assert spanned_mm == pytest.approx(SENSOR_THICKNESS_MM, rel=1e-3)


def test_delta_z_is_odd():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.uniform(0, 100, size=2)
        assert delta_z(a, b) == -delta_z(b, a)


# --- clustering ---


def test_hit_validation():
    # each bad hit is refused at its own index, after a good one
    for bad in (
        hit(0.0, energy=0.0),
        hit(0.0, energy=math.nan),
        hit(0.0, col=-1),
        hit(0.0, row=256),
        hit(0.0, col=2.5),
        hit(math.nan),
        hit(math.inf),
    ):
        with pytest.raises(InvalidRowError) as err:
            batch([hit(0.0), bad])
        assert err.value.index == 1, bad
    with pytest.raises(MalformedInputError):
        HitBatch([0.0, 1.0], [0], [0], [1.0])
    hits = batch([hit(1.0, 3.0, 4, 5.0)])
    assert hits.col.dtype == np.int64 and hits.col.tolist() == [3]
    with pytest.raises(ValueError):
        hits.toa[0] = 2.0  # the checked columns are read-only


def test_cluster_adjacent_hits_merge():
    hits = batch([hit(0.0, 10, 10), hit(1.0, 11, 11), hit(2.0, 12, 11)])
    tracks = cluster_hits(hits)
    assert len(tracks) == 1
    assert tracks.energy.tolist() == [300.0]


def test_cluster_separated_hits_split():
    hits = batch([hit(0.0, 10, 10), hit(1.0, 50, 50)])
    assert len(cluster_hits(hits)) == 2


def test_cluster_time_gap_splits():
    hits = batch([hit(0.0, 10, 10), hit(200.0, 10, 10)])
    assert len(cluster_hits(hits, max_toa_gap=100.0)) == 2
    assert len(cluster_hits(hits, max_toa_gap=300.0)) == 1


def test_cluster_chained_adjacency():
    # a long diagonal streak stays one track even though the ends are far apart
    hits = batch([hit(float(i), 10 + i, 10 + i) for i in range(20)])
    tracks = cluster_hits(hits)
    assert len(tracks) == 1


def test_cluster_empty_and_bad_gap():
    empty = cluster_hits(batch([]))
    assert len(empty) == 0 and all(c.shape == (0,) for c in (empty.toa, empty.energy, empty.x, empty.y))
    for gap in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(MalformedInputError):
            cluster_hits(batch([hit(0.0)]), max_toa_gap=gap)


def test_cluster_output_sorted_by_toa():
    hits = batch([hit(50.0, 40, 40), hit(0.0, 10, 10), hit(300.0, 80, 80)])
    toas = cluster_hits(hits).toa.tolist()
    assert toas == sorted(toas) == [0.0, 50.0, 300.0]


def assert_clusters_like_reference(hits, gap=CLUSTER_TOA_GAP_NS):
    # the same tracks in the same order; with energies drawn at random,
    # equal in-order sums leave no doubt that the hits are the same
    got, want = cluster_hits(hits, gap), cluster_hits_reference(hits, gap)
    assert track_rows(got) == record_rows(want)


def test_cluster_matches_per_hit_reference():
    # same tracks, same hits in the same order, on streams made to meet
    # every edge of the linking rule
    rng = np.random.default_rng(43)
    for k in range(60):
        n = int(rng.integers(1, 400))
        # a small patch and coarse times, so that pixels repeat and toas tie
        span = int(rng.integers(2, 40))
        col0, row0 = rng.integers(0, 256 - span, size=2)
        toas = rng.integers(0, 50, size=n) * float(rng.choice([10.0, 100.0, 250.0]))
        hits = batch([
            hit(float(t), int(col0 + c), int(row0 + r), float(e))
            for t, c, r, e in zip(toas, rng.integers(0, span, n), rng.integers(0, span, n),
                                  rng.uniform(1.0, 300.0, n))
        ])
        # gaps that some links meet exactly, and ones they just miss
        for gap in (100.0, 250.0, 249.99, 500.0):
            assert_clusters_like_reference(hits, gap)
    # corners and edges of the sensor
    edge = batch([hit(float(i), c, r) for i, (c, r) in enumerate([(0, 0), (1, 1), (255, 255), (254, 255), (0, 255)])])
    assert_clusters_like_reference(edge)
    # a burst of hits on one pixel, chained and broken by time
    burst = batch([hit(t, 7, 7) for t in (0.0, 0.0, 100.0, 200.0, 300.5, 300.5, 400.5)])
    assert_clusters_like_reference(burst)
    assert cluster_hits(burst).energy.tolist() == [400.0, 300.0]
    # a 2,000-hit diagonal chain that bounces off the sensor's corners, each
    # hit exactly one gap after the one before it
    walk = [i % 510 if i % 510 < 256 else 510 - i % 510 for i in range(2000)]
    chain = [hit(CLUSTER_TOA_GAP_NS * i, p, p) for i, p in enumerate(walk)]
    assert len(cluster_hits(batch(chain))) == 1
    assert_clusters_like_reference(batch(chain))
    # and in reverse stream order, so that time order is not stream order
    assert_clusters_like_reference(batch(chain[::-1]))


# --- centroid ---


def test_centroid_single_hit():
    tracks = cluster_hits(batch([hit(7.0, 0, 0, 100.0)]))
    assert (tracks.x[0], tracks.y[0]) == pytest.approx((0.0275, 0.0275))
    assert tracks.energy.tolist() == [100.0]
    assert tracks.toa.tolist() == [7.0]


def test_centroid_symmetric_pair():
    # two equal deposits bridged by a third midway
    tracks = cluster_hits(batch([hit(0.0, 0, 0, 100.0), hit(1.0, 1, 0, 50.0), hit(2.0, 2, 0, 100.0)]))
    assert len(tracks) == 1
    assert tracks.x[0] == pytest.approx(1.5 * 0.055)  # midway between the outer pixel centers
    assert tracks.y[0] == pytest.approx(0.5 * 0.055)


def test_centroid_energy_weighted():
    tracks = cluster_hits(batch([hit(0.0, 0, 0, 300.0), hit(1.0, 1, 0, 100.0)]))
    # 3:1 weighting of centers 0.5 and 1.5 -> 0.75 pixel
    assert tracks.x[0] == pytest.approx(0.75 * 0.055, abs=1e-12)
    assert tracks.y[0] == pytest.approx(0.0275, abs=1e-12)
    assert tracks.energy.tolist() == [400.0]


def test_centroid_toa_is_earliest():
    tracks = cluster_hits(batch([hit(9.0, 0, 0), hit(3.0, 1, 0), hit(5.0, 1, 1)]))
    assert tracks.toa.tolist() == [3.0]


def walk_tracks(rng, sizes):
    """A hit stream of one connected random walk per size, each walk's
    hits within one clustering gap and the walks far apart in time; with
    the walks as PixelTracks, their hits in time order."""
    hits, walks = [], []
    for k, n in enumerate(sizes):
        steps = rng.integers(-1, 2, size=(n, 2))
        steps[0] = rng.integers(20, 236, size=2)
        pixels = np.cumsum(steps, axis=0).tolist()
        toas = np.sort(rng.uniform(0.0, CLUSTER_TOA_GAP_NS, n)) + 1e4 * k
        walk = [hit(float(t), c, r, float(e)) for t, (c, r), e in zip(toas, pixels, rng.uniform(0.5, 300.0, n))]
        hits.extend(walk)
        walks.append(PixelTrack(*(list(column) for column in zip(*walk))))
    return batch(hits), walks


def test_centroid_matches_numpy_reference():
    # below eight terms numpy's np.average sums in sequence, as the
    # clustering does, so the results agree bit for bit; from eight on
    # numpy keeps eight interleaved partial sums, and the two orders each
    # stay within about n/2 ulp of the exact sum of n positive terms
    rng = np.random.default_rng(31)
    sizes = [1 + k % 7 for k in range(1000)] + rng.integers(8, 41, size=1000).tolist()
    hits, walks = walk_tracks(rng, sizes)
    got = track_rows(cluster_hits(hits))
    assert len(got) == len(walks)
    worst = 0.0
    for n, (toa, energy, x, y), walk in zip(sizes, got, walks):
        want_x, want_y, want_energy, want_toa = track_centroid_reference(walk)
        assert toa == want_toa
        if n < 8:
            assert (x, y, energy) == (want_x, want_y, want_energy), n
            continue
        for g, w in ((x, want_x), (y, want_y), (energy, want_energy)):
            worst = max(worst, abs(g - w) / math.ulp(w))
            assert abs(g - w) <= n * math.ulp(w), (n, g, w)
    assert worst > 0.0  # the reference's pairwise order did come into play


def test_track_toa_and_energy_are_min_and_sum_of_hits():
    rng = np.random.default_rng(37)
    hits = batch([
        hit(float(rng.uniform(0.0, 5e4)), int(rng.integers(0, 256)), int(rng.integers(0, 256)),
            float(rng.uniform(1.0, 300.0)))
        for _ in range(3000)
    ])
    tracks, want = cluster_hits(hits), cluster_hits_reference(hits)
    assert sum(len(t.toas) for t in want) == len(hits)
    assert any(len(t.toas) > 1 for t in want)
    assert tracks.toa.tolist() == [min(t.toas) for t in want] == [t.toas[0] for t in want]
    assert tracks.energy.tolist() == [sum(t.energies) for t in want]


# --- pairing ---


def pair_toas(tracks, pairing):
    return [(tracks.toa[a], tracks.toa[b]) for a, b in pairing.index.tolist()]


def test_pairing_example_three_tracks():
    # 0 and 10 pair; 30 is within the window of 10 but 10 is taken
    tracks = tracks_at(0.0, 10.0, 30.0)
    pairing = pair_coincident(tracks, window=86.0)
    assert len(pairing) == 1 and pairing.ambiguous == 0
    assert pairing.index.tolist() == [[0, 1]]


def test_pairing_outside_window():
    pairing = pair_coincident(tracks_at(0.0, 100.0), window=86.0)
    assert (len(pairing), pairing.index.shape, pairing.ambiguous) == (0, (0, 2), 0)


def test_pairing_disjoint_and_within_window():
    rng = np.random.default_rng(8)
    tracks = tracks_at(*np.cumsum(rng.exponential(60.0, size=60)))
    pairing = pair_coincident(tracks, window=86.0)
    assert len(pairing) > 0
    for a, b in pair_toas(tracks, pairing):
        assert 0.0 <= b - a <= 86.0
    used = pairing.index.ravel().tolist()
    assert len(used) == len(set(used))


def test_pairing_greedy_attains_maximum_cardinality():
    # on a line, earliest-first greedy pairing is maximum; check against
    # exhaustive enumeration on small random instances
    rng = np.random.default_rng(21)
    for _ in range(50):
        toas = sorted(rng.uniform(0, 400, size=rng.integers(2, 9)))
        got = pair_coincident(tracks_at(*toas), window=86.0)
        best = best_disjoint_pairing(toas, window=86.0)
        assert len(got) == len(best)


def test_pairing_drop_ambiguous():
    tracks = tracks_at(0.0, 10.0, 20.0)
    assert len(pair_coincident(tracks, window=86.0)) == 1
    dropped = pair_coincident(tracks, window=86.0, drop_ambiguous=True)
    assert (len(dropped), dropped.ambiguous) == (0, 3)
    # a 3-run, a pair, a 4-run and a lone track, more than a window apart
    # and given out of order: each run of 3+ is dropped and counted whole
    toas = [0.0, 20.0, 40.0, 300.0, 350.0, 600.0, 610.0, 620.0, 630.0, 900.0]
    tracks = tracks_at(*toas[::-1])
    pairing = pair_coincident(tracks, window=86.0, drop_ambiguous=True)
    assert pair_toas(tracks, pairing) == [(300.0, 350.0)]
    assert pairing.ambiguous == 7
    pairing = pair_coincident(tracks, window=86.0)
    assert pair_toas(tracks, pairing) == [(0.0, 20.0), (300.0, 350.0), (600.0, 610.0), (620.0, 630.0)]
    assert pairing.ambiguous == 0
    # a run whose drop ends inside a longer chain: 90 is out of 0's window,
    # so it pairs with 100 after the run 0, 10, 20 is dropped
    tracks = tracks_at(0.0, 10.0, 20.0, 90.0, 100.0)
    pairing = pair_coincident(tracks, window=86.0, drop_ambiguous=True)
    assert (pair_toas(tracks, pairing), pairing.ambiguous) == ([(90.0, 100.0)], 3)


def test_knobs_refuse_nan_and_nonpositive():
    for bad in (math.nan, -5.0, 0.0, math.inf):
        with pytest.raises(MalformedInputError):
            pair_coincident(tracks_at(), window=bad)
        with pytest.raises(MalformedInputError):
            process_hits(batch([hit(0.0)]), threshold=bad)
        with pytest.raises(MalformedInputError):
            process_pairs(pair_batch(), threshold=bad)
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(MalformedInputError):
            process_pairs(pair_batch(), duration=bad)
    assert process_pairs(pair_batch(), duration=0.0).summary.duration == 0.0


# --- classification ---


def classify(pair_energy=None, lone_energy=None):
    """The class process_pairs gives one pair of that summed energy, or one lone track."""
    half = None if pair_energy is None else pair_energy / 2
    pairs = [] if half is None else [ComptonPair((1.0, 2.0), (1.0, 1.0), half, half, 20.0, 0.0)]
    lone = [] if lone_energy is None else [lone_energy]
    counts = process_pairs(pair_batch(*pairs), lone_energy=np.array(lone)).summary.counts
    (cls,) = [c for c, n in counts.items() if n]
    assert counts[cls] == 1
    return cls


def test_classify_examples():
    assert classify(lone_energy=662.0) is EventClass.PHOTOELECTRIC
    assert classify(lone_energy=850.0) is EventClass.BACKGROUND
    assert classify(pair_energy=709.92) is EventClass.COMPTON_CANDIDATE


def test_classify_monotone_background():
    for e in (800.1, 900.0, 5000.0):
        assert classify(pair_energy=e) is EventClass.BACKGROUND
        assert classify(lone_energy=e) is EventClass.BACKGROUND
    # a pair of no energy, or of NaN energy, is refused
    for bad in (0.0, math.nan):
        with pytest.raises(MalformedInputError):
            PairBatch([1.0], [2.0], [bad], [20.0], [1.0], [1.0], [100.0], [0.0])


# --- pair and cone construction ---


def test_pair_batch_validation():
    good = [1.0, 2.0, 315.70, 20.31, 1.0, 1.0, 394.22, 0.0]
    for k, bad, message in ((2, -1.0, "energies"), (6, 0.0, "energies"), (0, math.inf, "positions"),
                            (5, math.nan, "positions")):
        row = list(good)
        row[k] = bad
        with pytest.raises(InvalidRowError, match=message) as err:
            PairBatch(*zip(good, row))
        assert err.value.index == 1
    with pytest.raises(MalformedInputError):
        PairBatch(*([1.0],) * 7, [1.0, 2.0])
    pairs = PairBatch(*zip(good))
    with pytest.raises(ValueError):
        pairs.electron_x[0] = 0.0  # the checked columns are read-only
    assert len(pairs.take(np.array([False]))) == 0


def test_make_pair_earlier_track_is_photon():
    tracks = TrackBatch(np.array([0.0, 20.31]), np.array([394.22, 315.70]), np.array([0.5, 2.0]),
                        np.array([0.6, 2.2]))
    pair = make_pair(tracks, np.array([0]), np.array([1]))
    assert (pair.photon_toa.tolist(), pair.electron_toa.tolist()) == ([0.0], [20.31])
    assert (pair.photon_energy.tolist(), pair.electron_energy.tolist()) == ([394.22], [315.70])
    assert (pair.photon_x.tolist(), pair.photon_y.tolist()) == ([0.5], [0.6])
    assert (pair.electron_x.tolist(), pair.electron_y.tolist()) == ([2.0], [2.2])
    # argument order is irrelevant
    same = make_pair(tracks, np.array([1]), np.array([0]))
    for name in ("electron_x", "electron_y", "electron_energy", "electron_toa",
                 "photon_x", "photon_y", "photon_energy", "photon_toa"):
        assert getattr(same, name).tolist() == getattr(pair, name).tolist()


def test_build_cone_reference_event():
    pair = ComptonPair(
        electron_xy=(1.0, 2.0),
        photon_xy=(1.0, 1.0),
        electron_energy=315.70,
        photon_energy=394.22,
        electron_toa=20.31,
        photon_toa=0.0,
    )
    (cone,), invalid, degenerate = cone_records(pair_batch(pair))
    assert (invalid, degenerate) == (0, 0)
    assert cone.frame is Frame.CAMERA
    assert np.allclose(cone.origin, [0.001, 0.002, 0.00047232936], atol=1e-12)
    want_axis = np.array([0.0, 1.0, 0.47232936])
    want_axis /= np.linalg.norm(want_axis)
    assert np.allclose(cone.axis, want_axis, atol=1e-9)
    assert cone.half_angle == pytest.approx(1.13, abs=0.01)
    assert cone.timestamp == pytest.approx(0.0, abs=1e-15)


def test_build_cone_pure_depth_separation():
    pair = ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 20.31, 0.0)
    (cone,), _, _ = cone_records(pair_batch(pair))
    assert np.allclose(cone.axis, [0.0, 0.0, 1.0])


def test_build_cone_degenerate_pair():
    pair = ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 5.0, 5.0)
    assert cone_records(pair_batch(pair)) == ([], 0, 1)


def test_build_cone_invalid_kinematics():
    pair = ComptonPair((1.0, 2.0), (1.0, 1.0), 1000.0, 100.0, 20.0, 0.0)
    assert cone_records(pair_batch(pair)) == ([], 1, 0)
    # an impossible split is counted as such even where the events coincide
    pair = ComptonPair((1.0, 1.0), (1.0, 1.0), 1000.0, 100.0, 5.0, 5.0)
    assert cone_records(pair_batch(pair)) == ([], 1, 0)


def test_build_cone_matches_numpy_reference():
    rng = np.random.default_rng(41)
    pairs = []
    for _ in range(2000):
        ee, ep = rng.uniform(20.0, 400.0, size=2)
        toa = rng.uniform(0.0, 1e9)
        pairs.append(ComptonPair(
            tuple(rng.uniform(0.0, 14.08, size=2)), tuple(rng.uniform(0.0, 14.08, size=2)),
            ee, ep, toa + rng.uniform(-86.0, 86.0), toa,
        ))
    want, records, invalid = [], [], 0
    for pair in pairs:
        try:
            want.append(build_cone_reference(pair))
            records.append(build_cone_record(pair))
        except InvalidScatteringError:
            invalid += 1
    want.sort(key=lambda c: c.timestamp)
    records.sort(key=lambda c: c.timestamp)
    got, got_invalid, degenerate = cone_records(pair_batch(*pairs))
    assert (got_invalid, degenerate) == (invalid, 0) and invalid > 0
    assert len(got) == len(want)
    for g, w, r in zip(got, want, records):
        assert np.array_equal(g.origin, w.origin)
        assert (g.half_angle, g.timestamp) == (w.half_angle, w.timestamp)
        assert np.max(np.abs(np.subtract(g.axis, w.axis))) <= 1e-15
        assert same_cone(g, r)  # and bit for bit the per-record float cone


# --- stream statistics ---


def synthetic_stream(n_photo, n_pairs, n_background, duration_s):
    """Well-separated event stream with known class counts."""
    hits = []
    spacing = duration_s * 1e9 / max(n_photo + n_pairs + n_background, 1)
    t = 0.0
    for k in range(n_photo):
        hits.append(hit(t, 10 + (k % 200), 10, 662.0))
        t += spacing
    for k in range(n_pairs):
        hits.append(hit(t, 10 + (k % 100), 60, 394.22))
        hits.append(hit(t + 20.0, 10 + (k % 100), 120, 315.70))
        t += spacing
    for k in range(n_background):
        hits.append(hit(t, 10 + (k % 200), 180, 850.0))
        t += spacing
    return batch(hits)


def test_process_hits_class_counts_and_rates():
    hits = synthetic_stream(60, 5, 2, duration_s=10.0)
    res = process_hits(hits, duration=10.0)
    assert res.summary.counts[EventClass.PHOTOELECTRIC] == 60
    assert res.summary.counts[EventClass.COMPTON_CANDIDATE] == 5
    assert res.summary.counts[EventClass.BACKGROUND] == 2
    assert res.summary.rejected_pairs == 0
    assert len(res.cones) == 5
    rates = res.summary.rates()
    assert rates[EventClass.PHOTOELECTRIC] == pytest.approx(6.0)
    shares = res.summary.shares()
    assert shares[EventClass.PHOTOELECTRIC] == pytest.approx(60 / 67)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_process_hits_rejected_pair_tally():
    # impossible energy split: classified compton but yields no cone
    hits = batch([hit(0.0, 10, 10, 100.0), hit(20.0, 60, 60, 500.0)])
    res = process_hits(hits, duration=1.0)
    assert res.summary.counts[EventClass.COMPTON_CANDIDATE] == 1
    assert res.summary.rejected_pairs == 1
    assert len(res.cones) == len(res.times) == 0


def test_process_pairs_counts_drops_by_reason():
    pairs = pair_batch(
        ComptonPair((1.0, 2.0), (1.0, 1.0), 500.0, 100.0, 20.0, 0.0),  # invalid split
        ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 5.0, 5.0),  # coinciding events
        ComptonPair((1.0, 2.0), (1.0, 1.0), 315.70, 394.22, 20.31, 0.0),  # a cone
        ComptonPair((1.0, 2.0), (1.0, 1.0), 500.0, 394.22, 20.31, 0.0),  # background: no cone, no drop
    )
    res = process_pairs(pairs)
    summary = res.summary
    assert (summary.invalid_scattering, summary.degenerate_geometry, summary.rejected_pairs) == (1, 1, 2)
    assert (res.pair_count, len(res.cones), summary.counts[EventClass.BACKGROUND]) == (4, 1, 1)
    assert summary.duration == pytest.approx(20.31e-9)  # the pairs' time span


def test_process_hits_cones_time_sorted():
    hits = synthetic_stream(0, 8, 0, duration_s=1.0)
    res = process_hits(hits)
    ts = res.times.tolist()
    assert len(ts) == len(res.cones) == 8 and ts == sorted(ts)


def test_zero_duration_rates_are_zero():
    res = process_hits(batch([]), duration=0.0)
    assert all(v == 0.0 for v in res.summary.rates().values())
    assert all(v == 0.0 for v in res.summary.shares().values())


def random_stream(rng, n_events):
    """Hits of events a few windows apart: tracks of 1-12 hits alone, in
    pairs and in triples, at energies that are no multiples of a power of
    two, so each sum's order shows in its last bits."""
    hits, t = [], 1000.0
    for _ in range(n_events):
        t += float(rng.exponential(150.0))
        for _ in range(int(rng.choice([1, 2, 2, 3]))):
            start = t + float(rng.uniform(0.0, 60.0))
            n = int(rng.integers(1, 13))
            pixels = np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0) + rng.integers(20, 236, size=2)
            toas = start + np.sort(rng.uniform(0.0, 30.0, n))
            energies = rng.uniform(5.0, 450.0, n) / n
            hits.extend(hit(float(a), int(c), int(r), float(e)) for a, (c, r), e in zip(toas, pixels, energies))
    return hits


def test_values_past_the_float_range_follow_python_floats_without_warnings():
    # sums and products past the float range become inf and NaN quietly,
    # as in the per-record floats, and end where those end
    top = 1.7976931348623157e308
    hits = batch([hit(0.0, 255, 255, top), hit(1.0, 254, 255, top),  # one track of infinite energy
                  hit(1e4, 0, 0, 5e-324), hit(1e4 + 20.0, 9, 9, 5e-324)])  # a pair of no split
    pairs = [ComptonPair((1e300, 2.0), (-1e300, 4.0), 315.70, 394.22, 120.31, 100.0),
             ComptonPair((1.0, 2.0), (3.0, 4.0), top, top, 120.31, 100.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = process_hits(hits)
        want = process_hits_record(hits)
        assert (got.summary, got.pair_count, camera_cones(got.cones, got.times)) == (
            want.summary, want.pair_count, want.cones)
        assert got.summary.counts[EventClass.BACKGROUND] == 1
        assert process_pairs(pair_batch(pairs[1])).summary.counts[EventClass.BACKGROUND] == 1
        with pytest.raises(MalformedInputError, match="unit length"):
            build_cone_record(pairs[0])
        with pytest.raises(MalformedInputError, match="unit length"):
            build_cone(pair_batch(pairs[0]))
        # a depth past the float range: the origin is named, as the record names it
        for pair in (pairs[0], ComptonPair((1.0, 2.0), (3.0, 4.0), 315.70, 394.22, top, -top)):
            with pytest.raises(MalformedInputError) as want_error:
                build_cone_record(pair)
            with pytest.raises(MalformedInputError) as got_error:
                build_cone(pair_batch(pairs[1], pair, pair))
            assert str(got_error.value) == str(want_error.value)


# three in-order terms whose np.add.reduceat sum differs in the last bit
# (100.1 + 100.1 + 158.5 is 358.7 in order, 358.70000000000005 through
# reduceat on numpy 2.4): the photon track of the first pair
REDUCEAT_TRACK = [hit(0.0, 10, 10, 100.1), hit(1.0, 11, 10, 100.1), hit(2.0, 12, 10, 158.5)]


def test_process_hits_matches_per_record_pipeline():
    # bit for bit the one-object-per-track, -pair and -cone pipeline in
    # floats, on streams the bench's 1/256 keV energies cannot stand for
    rng = np.random.default_rng(57)
    poses = trajectory_waypoints((0.0, 0.0, 0.0), 10.0, 2.0, 0.1, 40, altitude=5.0)
    stream = pose_stream(poses)
    for k in range(40):
        events = REDUCEAT_TRACK + [hit(20.0, 40, 40, 300.0)] + random_stream(rng, int(rng.integers(1, 60)))
        order = rng.permutation(len(events))  # stream order is not time order
        hits = batch([events[i] for i in order])
        for drop_ambiguous in (True, False):
            got = process_hits(hits, drop_ambiguous=drop_ambiguous)
            want = process_hits_record(hits, drop_ambiguous=drop_ambiguous)
            assert got.summary == want.summary and got.pair_count == want.pair_count, k
            cones = camera_cones(got.cones, got.times)
            assert len(cones) == len(want.cones)
            assert all(same_cone(g, w) for g, w in zip(cones, want.cones)), k
        assert cones[0].timestamp == 0.0  # the cone of the first pair
        # with the world step on top, within rounding of the numpy
        # reference, whose centroids sum 8 terms or more pairwise
        world = [transform_cone(c.origin, c.axis, c.half_angle, c.timestamp, interpolate_pose(stream, c.timestamp))
                 for c in cones if c.timestamp <= poses[-1].timestamp]
        reference = world_cones_reference(hits, poses)
        assert len(world) == len(reference) > 0
        for g, w in zip(world, reference):
            assert g.timestamp == w.timestamp and abs(g.half_angle - w.half_angle) <= 1e-12
            assert np.max(np.abs(np.subtract(g.origin, w.origin))) <= 1e-12
            assert np.max(np.abs(np.subtract(g.axis, w.axis))) <= 1e-12
