import math

import numpy as np
import pytest

from radloc.constants import (
    CHARGE_GATHERING_SPEED_UM_PER_NS,
    CLUSTER_TOA_GAP_NS,
    COINCIDENCE_WINDOW_NS,
    SENSOR_THICKNESS_MM,
)
from radloc.errors import (
    DegenerateGeometryError,
    InvalidHitError,
    InvalidScatteringError,
    MalformedInputError,
)
from radloc.events import (
    ComptonPair,
    EventClass,
    HitBatch,
    PixelTrack,
    build_cone,
    classify_track,
    cluster_hits,
    delta_z,
    make_pair,
    pair_coincident,
    process_hits,
    process_pairs,
    scattering_angle,
    track_centroid,
)
from radloc.geometry import Frame

from oracles import (
    best_disjoint_pairing,
    build_cone_reference,
    cluster_hits_reference,
    scattered_photon_energy,
    track_centroid_reference,
)


def hit(toa, col=0, row=0, energy=100.0):
    return (toa, col, row, energy)


def batch(hits):
    """A HitBatch of (toa, col, row, energy) hits."""
    return HitBatch(*(list(column) for column in zip(*hits))) if hits else HitBatch([], [], [], [])


def track_of(*hits):
    return PixelTrack(*(list(column) for column in zip(*hits)))


def track(toa, col=0, row=0, energy=100.0):
    return track_of(hit(toa, col, row, energy))


def track_hits(t):
    return list(zip(t.toas, t.cols, t.rows, t.energies))


# --- kinematics ---


def test_scattering_angle_reference_event():
    theta = scattering_angle(315.70, 394.22)
    assert theta == pytest.approx(1.13, abs=0.01)


def test_scattering_angle_equal_split():
    # B = 1 + 511 (1/1022 - 1/511) = 0.5 exactly
    assert scattering_angle(511.0, 511.0) == pytest.approx(math.pi / 3, abs=1e-12)


def test_scattering_angle_vanishing_electron_energy():
    assert scattering_angle(1e-9, 662.0) == pytest.approx(0.0, abs=1e-4)


def test_scattering_angle_rejects_impossible_split():
    with pytest.raises(InvalidScatteringError) as exc:
        scattering_angle(1000.0, 100.0)
    assert exc.value.b == pytest.approx(-3.645, abs=1e-3)
    with pytest.raises(MalformedInputError):
        scattering_angle(-1.0, 100.0)


def test_scattering_angle_roundtrip():
    # forward energy split at a known angle must reproduce that angle
    rng = np.random.default_rng(12)
    for _ in range(2000):
        e_in = rng.uniform(100.0, 1000.0)
        theta = rng.uniform(0.05, math.pi - 0.05)
        e_out = scattered_photon_energy(e_in, theta)
        assert scattering_angle(e_in - e_out, e_out) == pytest.approx(theta, abs=1e-9)


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
        with pytest.raises(InvalidHitError) as err:
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
    assert len(tracks[0].toas) == 3


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
    assert cluster_hits(batch([])) == []
    for gap in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(MalformedInputError):
            cluster_hits(batch([hit(0.0)]), max_toa_gap=gap)


def test_cluster_output_sorted_by_toa():
    hits = batch([hit(50.0, 40, 40), hit(0.0, 10, 10), hit(300.0, 80, 80)])
    tracks = cluster_hits(hits)
    toas = [t.toa for t in tracks]
    assert toas == sorted(toas)


def assert_clusters_like_reference(hits, gap=CLUSTER_TOA_GAP_NS):
    got, want = cluster_hits(hits, gap), cluster_hits_reference(hits, gap)
    assert [track_hits(t) for t in got] == [track_hits(t) for t in want]
    assert [(t.toa, t.energy) for t in got] == [(t.toa, t.energy) for t in want]


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
    assert [len(t.toas) for t in cluster_hits(burst)] == [4, 3]
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
    t = track(7.0, 0, 0, 100.0)
    x, y, e, toa = track_centroid(t)
    assert (x, y) == pytest.approx((0.0275, 0.0275))
    assert e == 100.0
    assert toa == 7.0


def test_centroid_symmetric_pair():
    t = track_of(hit(0.0, 0, 0, 100.0), hit(1.0, 2, 0, 100.0))
    x, y, _, _ = track_centroid(t)
    assert x == pytest.approx(1.5 * 0.055)  # midway between pixel centers
    assert y == pytest.approx(0.5 * 0.055)


def test_centroid_energy_weighted():
    t = track_of(hit(0.0, 0, 0, 300.0), hit(1.0, 2, 0, 100.0))
    x, y, e, _ = track_centroid(t)
    # 3:1 weighting of centers 0.5 and 2.5 -> 1.0 pixel -> 0.055 mm
    assert x == pytest.approx(0.055, abs=1e-12)
    assert y == pytest.approx(0.0275, abs=1e-12)
    assert e == 400.0


def test_centroid_toa_is_earliest():
    t = track_of(hit(9.0, 0, 0), hit(3.0, 1, 0), hit(5.0, 1, 1))
    assert track_centroid(t)[3] == 3.0


def random_track(rng, n):
    col, row = rng.integers(4, 252, size=2)
    return track_of(*(
        hit(float(rng.uniform(0.0, 1e6)), int(col + rng.integers(-4, 5)),
            int(row + rng.integers(-4, 5)), float(rng.uniform(0.5, 300.0)))
        for _ in range(n)
    ))


def test_centroid_matches_numpy_reference():
    # below eight terms numpy sums in sequence, as track_centroid does, so
    # the results agree bit for bit; from eight on numpy keeps eight
    # interleaved partial sums, and the two orders each stay within about
    # n/2 ulp of the exact sum of n positive terms
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in range(2000):
        n = 1 + k % 7 if k < 1000 else int(rng.integers(8, 41))
        t = random_track(rng, n)
        got, want = track_centroid(t), track_centroid_reference(t)
        if n < 8:
            assert got == want, n
            continue
        assert got[3] == want[3]
        for g, w in zip(got[:3], want[:3]):
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
    tracks = cluster_hits(hits)
    assert sum(len(t.toas) for t in tracks) == len(hits)
    assert any(len(t.toas) > 1 for t in tracks)
    for t in tracks:
        assert t.toa == min(t.toas) == t.toas[0]
        assert t.energy == sum(t.energies)


# --- pairing ---


def test_pairing_example_three_tracks():
    # 0 and 10 pair; 30 is within the window of 10 but 10 is taken
    tracks = [track(0.0), track(10.0, 5, 5), track(30.0, 9, 9)]
    pairs, dropped = pair_coincident(tracks, window=86.0)
    assert len(pairs) == 1 and dropped == 0
    assert (pairs[0][0].toa, pairs[0][1].toa) == (0.0, 10.0)


def test_pairing_outside_window():
    tracks = [track(0.0), track(100.0, 5, 5)]
    assert pair_coincident(tracks, window=86.0) == ([], 0)


def test_pairing_disjoint_and_within_window():
    rng = np.random.default_rng(8)
    toas = np.cumsum(rng.exponential(60.0, size=60))
    tracks = [track(float(t), i % 100, i // 100) for i, t in enumerate(toas)]
    pairs, _ = pair_coincident(tracks, window=86.0)
    used = set()
    for a, b in pairs:
        assert abs(a.toa - b.toa) <= 86.0
        assert id(a) not in used and id(b) not in used
        used.update((id(a), id(b)))


def test_pairing_greedy_attains_maximum_cardinality():
    # on a line, earliest-first greedy pairing is maximum; check against
    # exhaustive enumeration on small random instances
    rng = np.random.default_rng(21)
    for _ in range(50):
        toas = sorted(rng.uniform(0, 400, size=rng.integers(2, 9)))
        tracks = [track(float(t), i, 0) for i, t in enumerate(toas)]
        got, _ = pair_coincident(tracks, window=86.0)
        best = best_disjoint_pairing(toas, window=86.0)
        assert len(got) == len(best)


def test_pairing_drop_ambiguous():
    tracks = [track(0.0), track(10.0, 5, 5), track(20.0, 9, 9)]
    assert len(pair_coincident(tracks, window=86.0)[0]) == 1
    assert pair_coincident(tracks, window=86.0, drop_ambiguous=True) == ([], 3)
    # a 3-run, a pair, a 4-run and a lone track, more than a window apart
    # and given out of order: each run of 3+ is dropped and counted whole
    toas = [0.0, 20.0, 40.0, 300.0, 350.0, 600.0, 610.0, 620.0, 630.0, 900.0]
    tracks = [track(t, i, 0) for i, t in enumerate(toas)][::-1]
    pairs, dropped = pair_coincident(tracks, window=86.0, drop_ambiguous=True)
    assert [(a.toa, b.toa) for a, b in pairs] == [(300.0, 350.0)]
    assert dropped == 7
    pairs, dropped = pair_coincident(tracks, window=86.0)
    assert [(a.toa, b.toa) for a, b in pairs] == [(0.0, 20.0), (300.0, 350.0), (600.0, 610.0), (620.0, 630.0)]
    assert dropped == 0


def test_knobs_refuse_nan_and_nonpositive():
    for bad in (math.nan, -5.0, 0.0, math.inf):
        with pytest.raises(MalformedInputError):
            pair_coincident([], window=bad)
        with pytest.raises(MalformedInputError):
            classify_track(100.0, paired=False, threshold=bad)
        with pytest.raises(MalformedInputError):
            process_pairs([], threshold=bad)
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(MalformedInputError):
            process_pairs([], duration=bad)
    assert process_pairs([], duration=0.0).summary.duration == 0.0


# --- classification ---


def test_classify_examples():
    assert classify_track(662.0, paired=False) is EventClass.PHOTOELECTRIC
    assert classify_track(850.0, paired=False) is EventClass.BACKGROUND
    assert classify_track(709.92, paired=True) is EventClass.COMPTON_CANDIDATE


def test_classify_monotone_background():
    for e in (800.1, 900.0, 5000.0):
        assert classify_track(e, paired=True) is EventClass.BACKGROUND
        assert classify_track(e, paired=False) is EventClass.BACKGROUND
    with pytest.raises(MalformedInputError):
        classify_track(0.0, paired=False)
    with pytest.raises(MalformedInputError):
        classify_track(math.nan, paired=True)


# --- pair and cone construction ---


def test_make_pair_earlier_track_is_photon():
    a = track(0.0, 10, 10, 394.22)
    b = track(20.31, 40, 40, 315.70)
    pair = make_pair(a, b)
    assert pair.photon_toa == 0.0
    assert pair.electron_toa == 20.31
    assert pair.photon_energy == pytest.approx(394.22)
    assert pair.electron_energy == pytest.approx(315.70)
    # argument order is irrelevant
    same = make_pair(b, a)
    assert same == pair


def test_build_cone_reference_event():
    pair = ComptonPair(
        electron_xy=(1.0, 2.0),
        photon_xy=(1.0, 1.0),
        electron_energy=315.70,
        photon_energy=394.22,
        electron_toa=20.31,
        photon_toa=0.0,
    )
    cone = build_cone(pair)
    assert cone.frame is Frame.CAMERA
    assert np.allclose(cone.origin, [0.001, 0.002, 0.00047232936], atol=1e-12)
    want_axis = np.array([0.0, 1.0, 0.47232936])
    want_axis /= np.linalg.norm(want_axis)
    assert np.allclose(cone.axis, want_axis, atol=1e-9)
    assert cone.half_angle == pytest.approx(1.13, abs=0.01)
    assert cone.timestamp == pytest.approx(0.0, abs=1e-15)


def test_build_cone_pure_depth_separation():
    pair = ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 20.31, 0.0)
    cone = build_cone(pair)
    assert np.allclose(cone.axis, [0.0, 0.0, 1.0])


def test_build_cone_degenerate_pair():
    pair = ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 5.0, 5.0)
    with pytest.raises(DegenerateGeometryError):
        build_cone(pair)


def test_build_cone_invalid_kinematics():
    pair = ComptonPair((1.0, 2.0), (1.0, 1.0), 1000.0, 100.0, 20.0, 0.0)
    with pytest.raises(InvalidScatteringError):
        build_cone(pair)


def test_build_cone_matches_numpy_reference():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        ee, ep = rng.uniform(20.0, 400.0, size=2)
        toa = rng.uniform(0.0, 1e9)
        pair = ComptonPair(
            tuple(rng.uniform(0.0, 14.08, size=2)), tuple(rng.uniform(0.0, 14.08, size=2)),
            ee, ep, toa + rng.uniform(-86.0, 86.0), toa,
        )
        try:
            want = build_cone_reference(pair)
        except InvalidScatteringError:
            with pytest.raises(InvalidScatteringError):
                build_cone(pair)
            continue
        got = build_cone(pair)
        assert np.array_equal(got.origin, want.origin)
        assert (got.half_angle, got.timestamp) == (want.half_angle, want.timestamp)
        assert np.max(np.abs(np.subtract(got.axis, want.axis))) <= 1e-15


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
    assert res.cones == []


def test_process_pairs_counts_drops_by_reason():
    pairs = [
        ComptonPair((1.0, 2.0), (1.0, 1.0), 500.0, 100.0, 20.0, 0.0),  # invalid split
        ComptonPair((1.0, 1.0), (1.0, 1.0), 315.70, 394.22, 5.0, 5.0),  # coinciding events
        ComptonPair((1.0, 2.0), (1.0, 1.0), 315.70, 394.22, 20.31, 0.0),  # a cone
    ]
    summary = process_pairs(pairs).summary
    assert (summary.invalid_scattering, summary.degenerate_geometry, summary.rejected_pairs) == (1, 1, 2)


def test_process_hits_cones_time_sorted():
    hits = synthetic_stream(0, 8, 0, duration_s=1.0)
    res = process_hits(hits)
    ts = [c.timestamp for c in res.cones]
    assert ts == sorted(ts)


def test_zero_duration_rates_are_zero():
    res = process_hits(batch([]), duration=0.0)
    assert all(v == 0.0 for v in res.summary.rates().values())
    assert all(v == 0.0 for v in res.summary.shares().values())
