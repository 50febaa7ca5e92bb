import math

import numpy as np
import pytest

from tripkin.geokinematics import (
    EARTH_RADIUS_M,
    DuplicateTimestamp,
    TooFewPoints,
    Track,
    acceleration_sequence,
    haversine_distance,
    speed_sequence,
)

from oracles import haversine_m, slc_distance


def random_points(n, seed, lat_range=(-85.0, 85.0)):
    """Latitudes and longitudes of n fixes spread evenly over the sphere."""
    rng = np.random.default_rng(seed)
    lats = np.degrees(np.arcsin(rng.uniform(-1, 1, size=n)))
    lats = np.clip(lats, *lat_range)
    lons = rng.uniform(-180.0, 180.0, size=n)
    return lats, lons


class TestTrack:
    def test_validates_ranges(self):
        Track([0], [90.0], [-180.0])
        with pytest.raises(ValueError):
            Track([0], [90.5], [0.0])
        with pytest.raises(ValueError):
            Track([0], [0.0], [180.5])
        with pytest.raises(ValueError):
            Track([0], [math.nan], [0.0])
        with pytest.raises(ValueError):
            Track([math.nan], [0.0], [0.0])
        with pytest.raises(ValueError):
            Track([0.5], [0.0], [0.0])  # whole seconds only
        with pytest.raises(ValueError):
            Track([0, 1], [0.0], [0.0, 0.0])

    def test_columns_are_read_only_and_slices_are_tracks(self):
        track = Track([1, 2, 3], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert track.t.dtype == np.int64 and len(track) == 3
        with pytest.raises(ValueError):
            track.lat[0] = 0.0
        tail = track[1:]
        assert tail == Track([2, 3], [2.0, 3.0], [5.0, 6.0])
        assert tail != track
        with pytest.raises(TypeError):
            track[0]


class TestHaversine:
    def test_identical_points(self):
        assert haversine_distance(39.9, 116.4, 39.9, 116.4) == 0.0

    def test_antipodal_on_equator(self):
        d = haversine_distance(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    def test_one_millidegree_of_latitude(self):
        expected = slc_distance(39.9000, 116.4000, 39.9010, 116.4000)
        assert expected == pytest.approx(111.2, abs=0.1)
        assert haversine_distance(39.9000, 116.4000, 39.9010, 116.4000) == pytest.approx(expected, rel=1e-6)

    def test_symmetry_exact(self):
        lats, lons = random_points(200, seed=7)
        forward = haversine_distance(lats[:-1], lons[:-1], lats[1:], lons[1:])
        backward = haversine_distance(lats[1:], lons[1:], lats[:-1], lons[:-1])
        assert np.array_equal(forward, backward)

    def test_agrees_with_law_of_cosines_oracle(self):
        lats, lons = random_points(1000, seed=11)
        rng = np.random.default_rng(12)
        i, j = rng.integers(len(lats), size=(2, 1000))
        d = haversine_distance(lats[i], lons[i], lats[j], lons[j])
        for k in range(1000):
            # The cosine form loses precision near coincident/antipodal pairs.
            if d[k] < 1000.0 or d[k] > (math.pi - 0.05) * EARTH_RADIUS_M:
                continue
            want = slc_distance(float(lats[i[k]]), float(lons[i[k]]), float(lats[j[k]]), float(lons[j[k]]))
            assert d[k] == pytest.approx(want, rel=1e-6)

    def test_bit_equal_to_scalar_haversine(self):
        # The array form must reproduce the scalar math-module formula to
        # the last bit, so features stay byte-identical; short hops (the
        # urban case) and long ones both.
        lats, lons = random_points(2000, seed=15)
        rng = np.random.default_rng(16)
        near_lats = lats + rng.normal(0.0, 1e-4, size=lats.size)
        near_lons = lons + rng.normal(0.0, 1e-4, size=lons.size)
        for lat_b, lon_b in ((np.roll(lats, 1), np.roll(lons, 1)), (np.clip(near_lats, -90, 90), near_lons)):
            got = haversine_distance(lats, lons, lat_b, lon_b)
            want = [haversine_m(*args) for args in zip(lats.tolist(), lons.tolist(), lat_b.tolist(), lon_b.tolist())]
            assert got.tolist() == want

    def test_triangle_inequality(self):
        lats, lons = random_points(300, seed=13)
        rng = np.random.default_rng(14)
        a, b, c = rng.integers(len(lats), size=(3, 300))
        d_ac = haversine_distance(lats[a], lons[a], lats[c], lons[c])
        d_ab = haversine_distance(lats[a], lons[a], lats[b], lons[b])
        d_bc = haversine_distance(lats[b], lons[b], lats[c], lons[c])
        assert np.all(d_ac <= (d_ab + d_bc) * (1 + 1e-9) + 1e-9)


def speeds_of(t, lats, lons):
    return speed_sequence(np.asarray(t), np.asarray(lats, dtype=float), np.asarray(lons, dtype=float))


class TestSpeedSequence:
    def test_zero_speed(self):
        assert speeds_of([0, 10], [10.0, 10.0], [20.0, 20.0]).tolist() == [0.0]

    def test_hundred_meters_every_ten_seconds(self):
        # 100 m hops along the equator; the cosine oracle confirms the hop
        # length at its own (conditioning-limited) precision.
        deg = 100.0 / (EARTH_RADIUS_M * math.pi / 180.0)
        lons = [deg * i for i in range(3)]
        for a, b in zip(lons, lons[1:]):
            assert slc_distance(0.0, a, 0.0, b) == pytest.approx(100.0, rel=1e-6)
        speeds = speeds_of([0, 10, 20], [0.0] * 3, lons)
        assert speeds == pytest.approx([10.0, 10.0], rel=1e-9)

    def test_duplicate_timestamp(self):
        with pytest.raises(DuplicateTimestamp):
            speeds_of([5, 5], [0.0, 0.0], [0.0, 0.1])

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            speeds_of([0], [0.0], [0.0])

    def test_length_and_nonnegativity(self):
        lats, lons = random_points(50, seed=3)
        speeds = speeds_of(np.arange(50) * 7, lats, lons)
        assert len(speeds) == 49
        assert np.all(speeds >= 0.0)


class TestAccelerationSequence:
    def test_constant_speeds(self):
        accels = acceleration_sequence(np.array([1, 2, 3]), np.array([10.0, 10.0, 10.0]))
        assert accels.tolist() == [0.0, 0.0]

    def test_definition_positive(self):
        assert acceleration_sequence(np.array([0, 5]), np.array([0.0, 10.0])).tolist() == [2.0]

    def test_definition_negative(self):
        assert acceleration_sequence(np.array([0, 2]), np.array([10.0, 4.0])).tolist() == [-3.0]

    def test_errors(self):
        with pytest.raises(TooFewPoints):
            acceleration_sequence(np.array([0]), np.array([1.0]))
        with pytest.raises(DuplicateTimestamp):
            acceleration_sequence(np.array([1, 1]), np.array([1.0, 2.0]))


def test_time_shift_invariance():
    lats, lons = random_points(40, seed=22)
    t = np.arange(40) * 5
    for shift in (86400, -1234567, 10**9):
        v0 = speeds_of(t, lats, lons)
        v1 = speeds_of(t + shift, lats, lons)
        assert v1 == pytest.approx(v0, rel=1e-12)
        a0 = acceleration_sequence(t[1:], v0)
        a1 = acceleration_sequence(t[1:] + shift, v1)
        assert a1 == pytest.approx(a0, rel=1e-12)
