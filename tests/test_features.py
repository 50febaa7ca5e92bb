import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkin import features
from tripkin.features import (
    CSV_COLUMNS,
    FEATURE_NAMES,
    EmptyInput,
    FeatureDataset,
    build_feature_dataset,
    compute_iqr_bounds,
    extract_features,
    filter_outlier_trips,
    filter_users,
    quantile,
    read_features_csv,
    write_features_csv,
)
from tripkin.geokinematics import DuplicateTimestamp, TooFewPoints, Track, acceleration_sequence, speed_sequence
from tripkin.ingest import Trip
from tripkin.synth import UserProfile

from helpers import equator_trip, feature_dataset, features_of, generate_trip, random_trips
from oracles import naive_trip_features, quantile_interpolated, reduce_trips_loop


def make_row(**overrides) -> list[float]:
    values = {name: 1.0 for name in FEATURE_NAMES}
    values.update(overrides)
    return list(values.values())


def make_dataset(rows, users=None) -> FeatureDataset:
    return feature_dataset(rows, users if users is not None else ["000"] * len(rows))


def _outside_features(row, bounds) -> list[str]:
    """Names of the features on which row lies outside its fences."""
    return [name for name, v, lo, hi in zip(FEATURE_NAMES, row, bounds.lower, bounds.upper) if not lo <= v <= hi]


class TestExtractFeatures:
    def test_constant_motion(self):
        profile = UserProfile(
            "000", 5.0, 0.0, 0.0, trips=1, points_per_trip=7, sampling_period=10.0
        )
        feats = features_of(generate_trip(profile, seed=1))
        assert feats["duration_s"] == pytest.approx(60.0)
        assert feats["max_speed"] == pytest.approx(5.0, rel=1e-6)
        assert feats["min_speed"] == pytest.approx(5.0, rel=1e-6)
        assert feats["mean_speed"] == pytest.approx(5.0, rel=1e-6)
        assert feats["std_speed"] == pytest.approx(0.0, abs=1e-6)
        for name in ("max_pos_accel", "min_neg_accel", "mean_abs_accel", "std_accel", "std_abs_accel"):
            assert feats[name] == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_accelerations(self):
        feats = features_of(equator_trip([0.0, 10.0, 4.0], dt=1))
        assert feats["max_pos_accel"] == pytest.approx(10.0, rel=1e-9)
        assert feats["min_neg_accel"] == pytest.approx(-6.0, rel=1e-9)
        assert feats["mean_abs_accel"] == pytest.approx(8.0, rel=1e-9)
        assert feats["std_abs_accel"] == pytest.approx(2.0, rel=1e-9)
        assert feats["max_speed"] == pytest.approx(10.0, rel=1e-9)
        assert feats["min_speed"] == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            extract_features([equator_trip([5.0, 5.0]), equator_trip([5.0])])
        # Trip does not check its length; extract_features refuses 1 and 0 fixes too.
        for n in (1, 0):
            with pytest.raises(TooFewPoints):
                extract_features([Trip("000", "walk", equator_trip([5.0] * 3).points[:n])])

    def test_duplicate_timestamp_propagates(self):
        pts = equator_trip([5.0, 5.0, 5.0]).points
        repeated = Track(*(np.concatenate([c[:2], c[1:]]) for c in (pts.t, pts.lat, pts.lon)))
        backward = Track(pts.t[::-1], pts.lat, pts.lon)
        for broken in (repeated, backward):
            with pytest.raises(DuplicateTimestamp):
                extract_features([Trip("000", "walk", broken)])

    def test_matches_naive_oracle(self):
        for trip in random_trips(200, seed=5):
            got = features_of(trip)
            want = naive_trip_features(trip)
            for name in FEATURE_NAMES:
                assert got[name] == pytest.approx(want[name], rel=1e-9, abs=1e-12), name

    def test_speed_monotonicity(self):
        for trip in random_trips(200, seed=6):
            feats = features_of(trip)
            assert feats["max_speed"] >= feats["mean_speed"] >= feats["min_speed"] >= 0.0

    def test_scale_property(self):
        trip = equator_trip([3.0, 7.0, 5.0, 9.0, 2.0], dt=4)
        doubled = equator_trip([6.0, 14.0, 10.0, 18.0, 4.0], dt=4)
        base = features_of(trip)
        scaled = features_of(doubled)
        assert scaled["duration_s"] == base["duration_s"]
        for name in FEATURE_NAMES:
            if name == "duration_s":
                continue
            assert scaled[name] == pytest.approx(2 * base[name], rel=1e-9)


def per_trip_features(trip: Trip) -> list[float]:
    """The 10 statistics of one trip from its own 1-D sequences, FEATURE_NAMES order."""
    pts = trip.points
    v = speed_sequence(pts.t, pts.lat, pts.lon)
    a = acceleration_sequence(pts.t[1:], v)
    abs_a = np.abs(a)
    v_min, v_max = float(np.min(v)), float(np.max(v))
    v_mean = min(max(float(np.mean(v)), v_min), v_max)
    return [
        float(pts.t[-1] - pts.t[0]), v_max, v_min, float(np.max(a)), float(np.min(a)), v_mean,
        float(np.mean(abs_a)), float(np.std(v)), float(np.std(a)), float(np.std(abs_a)),
    ]


@st.composite
def mixed_length_trips(draw):
    """1-25 trips of 3-40 fixes in any order, their lengths drawn from a pool of at most 4."""
    pool = draw(st.lists(st.integers(3, 40), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trips = []
    for n in lengths:
        t = int(rng.integers(-(10**9), 10**9)) + np.cumsum(rng.integers(1, 30, size=n))
        # About one hop in five stands still, so zero speeds and repeated
        # speeds (zero accelerations) occur.
        hops = rng.normal(scale=1e-3, size=(2, n)) * (rng.random(n) < 0.8)
        lat = np.clip(rng.uniform(-60, 60) + np.cumsum(hops[0]), -90, 90)
        lon = np.clip(rng.uniform(-170, 170) + np.cumsum(hops[1]), -180, 180)
        trips.append(Trip("000", "walk", Track(t, lat, lon)))
    return trips


class TestBatchExtraction:
    @settings(max_examples=150, deadline=None)
    @given(mixed_length_trips())
    def test_bit_identical_to_per_trip_oracle_at_every_block_size(self, trips):
        want = np.array([per_trip_features(trip) for trip in trips])
        for block in (1, 7, 100, features._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(features, "_BLOCK", block)
                got = extract_features(trips)
            assert got.shape == (len(trips), len(FEATURE_NAMES)) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), block

    def test_bit_identical_past_the_pairwise_summation_blocks(self):
        # numpy sums more than 8 and more than 128 values in unrolled and
        # split blocks; rows of these lengths must keep the 1-D bits too.
        rng = np.random.default_rng(5)
        trips = []
        for n in (129, 600, 600, 1000, 5000, 129):
            walk = rng.uniform(-50, 50, size=(2, 1)) + np.cumsum(rng.normal(scale=1e-4, size=(2, n)), axis=1)
            trips.append(Trip("000", "walk", Track(np.cumsum(rng.integers(1, 5, size=n)), *walk)))
        want = np.array([per_trip_features(trip) for trip in trips])
        assert extract_features(trips).tobytes() == want.tobytes()

    def test_no_trips_gives_no_rows(self):
        assert extract_features([]).shape == (0, len(FEATURE_NAMES))

    @staticmethod
    def _peak_bytes(trips):
        tracemalloc.start()
        try:
            extract_features(trips)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_set_by_the_block_not_by_the_user(self):
        rng = np.random.default_rng(41)
        walk = 30.0 + np.cumsum(rng.normal(scale=1e-5, size=(40, 2, 5000)), axis=2)
        trips = [Trip("000", "walk", Track(np.arange(5000) * 2, lat, lon)) for lat, lon in walk]
        # All 40 trips stacked at once would hold ten times the 4 trips' arrays.
        few, many = self._peak_bytes(trips[:4]), self._peak_bytes(trips)
        assert many < 2 * few, (few, many)


class TestQuantile:
    def test_odd_median(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_interpolated(self):
        assert quantile([1, 2, 3, 4], 0.25) == 1.75

    def test_single_element(self):
        assert quantile([7], 0.9) == 7.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            quantile([], 0.5)

    def test_matches_oracle_on_random_arrays(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 51))
            values = rng.uniform(-100, 100, size=n)
            q = float(rng.uniform(0, 1))
            assert quantile(values, q) == pytest.approx(
                quantile_interpolated(values, q), rel=1e-12, abs=1e-12
            )


class TestIqrBounds:
    def test_one_to_hundred(self):
        rows = [make_row(duration_s=float(v)) for v in range(1, 101)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("duration_s")
        assert bounds.lower[j] == pytest.approx(-48.5)
        assert bounds.upper[j] == pytest.approx(149.5)
        # Fences at a second multiplier pin the quartiles, 25.75 and 75.25.
        bounds = compute_iqr_bounds(rows, 1.0)
        assert bounds.lower[j] == pytest.approx(-23.75)
        assert bounds.upper[j] == pytest.approx(124.75)

    def test_degenerate_iqr(self):
        rows = [make_row(min_speed=0.0) for _ in range(10)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("min_speed")
        assert bounds.lower[j] == bounds.upper[j] == 0.0
        assert filter_outlier_trips(np.array(rows), bounds).tolist() == [True] * 10

    def test_two_values(self):
        rows = [make_row(max_speed=0.0), make_row(max_speed=10.0)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("max_speed")
        assert bounds.lower[j] == pytest.approx(-5.0)
        assert bounds.upper[j] == pytest.approx(15.0)
        # Fences at a second multiplier pin the quartiles, 2.5 and 7.5.
        bounds = compute_iqr_bounds(rows, 1.0)
        assert bounds.lower[j] == pytest.approx(-2.5)
        assert bounds.upper[j] == pytest.approx(12.5)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            compute_iqr_bounds([])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("multiplier", [math.inf, math.nan, -1.0, 0.0])
    def test_multiplier_must_be_finite_and_positive(self, multiplier):
        # Each of these gave NaN, inverted or quartile fences, or a RuntimeWarning.
        rows = [make_row(duration_s=float(v)) for v in range(5)]
        with pytest.raises(ValueError, match="IQR multiplier must be finite and positive"):
            compute_iqr_bounds(rows, multiplier)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_fences_are_infinite_and_keep_every_row(self):
        # 1e308 times an IQR above 1.8 overflows, with no RuntimeWarning.
        rows = np.random.default_rng(5).normal(0.0, 10.0, size=(40, len(FEATURE_NAMES)))
        bounds = compute_iqr_bounds(rows, 1e308)
        assert np.isneginf(bounds.lower).all() and np.isposinf(bounds.upper).all()
        assert filter_outlier_trips(rows, bounds).all()


class TestFilterOutlierTrips:
    def test_row_exactly_at_bound_is_retained(self):
        # Upper fence of [5, 10, 15, 20, 35] is 20 + 1.5*(20-10) = 35 = max.
        rows = [make_row(duration_s=v) for v in (5.0, 10.0, 15.0, 20.0, 35.0)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("duration_s")
        assert bounds.upper[j] == pytest.approx(35.0)
        assert filter_outlier_trips(np.array(rows), bounds).tolist() == [True] * 5

    def test_one_feature_above_upper_drops_row(self):
        rows = [make_row(max_speed=float(v)) for v in range(1, 21)] + [
            make_row(max_speed=1e6)
        ]
        bounds = compute_iqr_bounds(rows)
        assert filter_outlier_trips(np.array(rows), bounds).tolist() == [True] * 20 + [False]
        assert _outside_features(rows[-1], bounds) == ["max_speed"]

    def test_planted_extremes_are_exactly_the_drops(self):
        base = [make_row(mean_speed=10.0 + i / 19.0) for i in range(20)]
        base_users = [f"{i:03d}" for i in range(20)]
        # Each planted row matches the base distribution except on its
        # single extreme feature.
        planted = [
            make_row(mean_speed=1e5),
            make_row(mean_speed=10.5, std_speed=-1e5),
            make_row(mean_speed=10.5, mean_abs_accel=1e5),
        ]
        rows = base + planted
        users = np.array(base_users + ["bad0", "bad1", "bad2"], dtype=object)
        bounds = compute_iqr_bounds(rows)
        keep = filter_outlier_trips(np.array(rows), bounds)
        assert users[keep].tolist() == base_users
        assert [_outside_features(row, bounds) for row in planted] == [
            ["mean_speed"], ["std_speed"], ["mean_abs_accel"]
        ]

    def test_degenerate_iqr_keeps_only_exact_q1(self):
        rows = [make_row(std_accel=1.0)] * 4 + [make_row(std_accel=1.0 + 1e-9)]
        bounds = compute_iqr_bounds(rows)
        kept = np.array(rows)[filter_outlier_trips(np.array(rows), bounds)]
        assert len(kept) == 4
        assert (kept[:, FEATURE_NAMES.index("std_accel")] == 1.0).all()

    def test_subset_and_order_preserved(self):
        rows = [make_row(max_speed=float(i % 7)) for i in range(30)]
        ids = [f"{i:03d}" for i in range(30)]
        bounds = compute_iqr_bounds(rows)
        keep = filter_outlier_trips(np.array(rows), bounds)
        assert keep.shape == (30,) and keep.dtype == bool
        kept_ids = np.array(ids, dtype=object)[keep].tolist()
        assert kept_ids == [i for i in ids if i in set(kept_ids)]


class TestFilterUsers:
    def test_threshold_edge(self):
        users = np.array(["a"] * 29 + ["b"] * 30, dtype=object)
        keep = filter_users(users, min_trips=30)
        assert keep.tolist() == [False] * 29 + [True] * 30
        assert set(users[keep]) == {"b"}
        # Identical trips sit inside the fences, so only the user filter drops.
        trip = equator_trip([5.0, 6.0, 5.5])
        dataset = build_feature_dataset(
            [[replace(trip, user_id="a")] * 29, [replace(trip, user_id="b")] * 30], min_trips=30
        )
        assert set(dataset.user_counts()) == {"b"}
        assert dataset.provenance.below_min_trips_rows == 29
        assert dataset.provenance.users_dropped == 1

    def test_two_users_kept(self):
        keep = filter_users(np.array(["a"] * 30 + ["b"] * 31, dtype=object), min_trips=30)
        assert keep.tolist() == [True] * 61

    def test_idempotent(self):
        users = np.array(["a"] * 35 + ["b"] * 12, dtype=object)
        once = filter_users(users, min_trips=30)
        twice = filter_users(users[once], min_trips=30)
        assert twice.all()
        assert users[once].tolist() == ["a"] * 35


@st.composite
def user_streams(draw):
    """0-4 users' trip lists of 0-9 trips each; some trips have only 2 points, some extreme speeds."""
    speeds = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 400.0])
    streams = []
    for u in range(draw(st.integers(0, 4))):
        trips = draw(st.lists(st.tuples(st.lists(speeds, min_size=1, max_size=5), st.sampled_from(["walk", "bus"])),
                              max_size=9))
        streams.append([equator_trip(v, user_id=f"{u:03d}", modality=mode) for v, mode in trips])
    return streams


class TestPipeline:
    def test_counts_short_trips(self):
        trips = [equator_trip([5.0, 6.0, 5.5], user_id="a")] * 31
        trips.append(equator_trip([5.0], user_id="a"))  # two points only
        dataset = build_feature_dataset([trips], min_trips=30)
        assert dataset.provenance.too_few_points == 1
        assert len(dataset.rows) == 31

    def test_stage_order_iqr_before_user_filter(self):
        # 31 near-identical trips plus one extreme one: the extreme trip is
        # removed by the fences first, and the user keeps >= 30 rows.
        trips = [equator_trip([5.0, 6.0, 5.0 + i * 1e-3], user_id="a") for i in range(31)]
        trips.append(equator_trip([5.0, 500.0, 5.0], user_id="a"))
        dataset = build_feature_dataset([trips], min_trips=30)
        assert dataset.provenance.iqr_dropped == 1
        assert len(dataset.rows) == 31


    @staticmethod
    def _user_streams(n_users, trips=100, fixes=400):
        """Each user's trips, made only when the stream reaches that user."""
        for u in range(n_users):
            walk = 30.0 + np.cumsum(np.random.default_rng(u).normal(scale=1e-5, size=(2, trips * fixes)), axis=1)
            track = Track(np.arange(trips * fixes) * 2, *walk)
            yield [Trip(f"{u:03d}", "walk", track[i * fixes : (i + 1) * fixes]) for i in range(trips)]

    @classmethod
    def _peak_bytes(cls, n_users):
        tracemalloc.start()
        try:
            build_feature_dataset(cls._user_streams(n_users), min_trips=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @settings(max_examples=200, deadline=None)
    @given(user_streams(), st.integers(1, 6), st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
    def test_matches_the_plain_loop_reduction(self, user_trips, min_trips, iqr_multiplier):
        dataset = build_feature_dataset(iter(user_trips), min_trips=min_trips, iqr_multiplier=iqr_multiplier)
        rows, users, modalities, counts = reduce_trips_loop(user_trips, min_trips, iqr_multiplier)
        assert dataset.rows.tobytes() == np.array(rows, dtype=float).reshape(-1, len(FEATURE_NAMES)).tobytes()
        assert dataset.users.tolist() == users
        assert dataset.modalities.tolist() == modalities
        prov = dataset.provenance
        assert (prov.too_few_points, prov.iqr_dropped, prov.below_min_trips_rows, prov.users_dropped) == counts

    def test_holds_at_most_two_users_of_a_stream(self):
        self._peak_bytes(1)  # first-use imports
        two, five = self._peak_bytes(2), self._peak_bytes(5)
        # build_feature_dataset releases each user's list before it asks for
        # the next, but _user_streams itself still binds the previous user's
        # track while it builds the next, so two users are live at once.
        # Were a third as well, five users would peak at about 1.24 times two.
        assert five < 1.1 * two, (two, five)


class TestFeatureDataset:
    def test_rows_are_one_read_only_matrix(self):
        dataset = make_dataset([make_row(), make_row(max_speed=2.0)], ["a", "b"])
        assert dataset.matrix() is dataset.rows
        assert dataset.rows.shape == (2, len(FEATURE_NAMES)) and dataset.rows.dtype == np.float64
        for array in (dataset.rows, dataset.users, dataset.modalities):
            assert not array.flags.writeable
        assert dataset.users.tolist() == ["a", "b"] and dataset.modalities.tolist() == ["walk", "walk"]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(std_speed=math.nan), "features must be finite, got"),
            (dict(max_speed=-math.inf), "features must be finite, got"),
            (dict(duration_s=0.0), "duration must be positive, got 0.0"),
            (dict(duration_s=-5.0), "duration must be positive, got -5.0"),
        ],
    )
    def test_rejects_bad_values(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_dataset([make_row(), make_row(**overrides)])

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="2 feature rows but 1 users"):
            FeatureDataset([make_row(), make_row()], ["a"], ["walk", "walk"])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "0", "10", "é"]), max_size=60))
    def test_user_rows_are_each_users_ascending_rows(self, users):
        dataset = make_dataset([make_row()] * len(users), users)
        index = dataset.user_rows()
        assert list(index) == list(dict.fromkeys(users))
        assert dataset.user_counts() == {user: users.count(user) for user in index}
        for user, rows in index.items():
            assert rows.dtype == np.intp
            assert np.array_equal(rows, np.flatnonzero(dataset.users == user))
        assert dataset.user_rows() is index

    def test_user_rows_cannot_be_written_through(self):
        dataset = make_dataset([make_row()] * 3, ["a", "b", "a"])
        index = dataset.user_rows()
        with pytest.raises(ValueError, match="read-only"):
            index["a"][0] = 1
        with pytest.raises(TypeError):
            index["a"] = np.array([1])
        with pytest.raises(TypeError):
            del index["b"]
        assert dataset.user_rows()["a"].tolist() == [0, 2] and dataset.user_rows()["b"].tolist() == [1]


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        trips = [replace(trip, user_id=f"{i % 3:03d}") for i, trip in enumerate(random_trips(40, seed=9))]
        extracted = build_feature_dataset([trips[u::3] for u in range(3)], min_trips=1, iqr_multiplier=1e9)
        # Non-integral and huge integral durations, values that need all 17
        # significant digits, signed zero and the extremes of float64.
        edge = [
            [599.5, 0.1 + 0.2, 1 / 3, 2.0 / 3e-300, -0.0, 5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308, 2.2250738585072014e-308, 123456.78901234567],
            [1e22, 0.0, math.pi, math.e, -2.5e-17, 9007199254740993.0, 4.35, 0.7, 1e16, 1e-5],
            [math.nextafter(1.0, 2.0), *np.random.default_rng(9).uniform(-1e3, 1e3, size=9)],
        ]
        durations = []
        for dataset in (extracted, make_dataset(edge, ["000", "001", "000"])):
            path = tmp_path / "features.csv"
            write_features_csv(dataset, path)
            loaded = read_features_csv(path)
            assert loaded.rows.tobytes() == dataset.rows.tobytes()
            assert loaded.users.tolist() == dataset.users.tolist()
            assert loaded.modalities.tolist() == dataset.modalities.tolist()
            durations.append([line.split(",")[2] for line in path.read_text().splitlines()[1:]])
        # Whole-second durations keep their integer text.
        assert len(durations[0]) == 40 and all(d.isdigit() for d in durations[0])
        assert durations[1] == ["599.5", "10000000000000000000000", "1.0000000000000002"]

    def test_repr_edge_texts_round_trip(self, tmp_path):
        # Signs, exponents and subnormals stay readable under the ASCII-only,
        # no-"_" rule for feature cells.
        text = (
            ",".join(CSV_COLUMNS) + "\r\n"
            "000,walk,599,1e+22,-0.0,5e-324,-1e-05,2.5,0.1,1.0,1.7976931348623157e+308,0.30000000000000004\r\n"
        )
        path = tmp_path / "features.csv"
        path.write_text(text, newline="")
        loaded = read_features_csv(path)
        expected = [599.0, 1e22, -0.0, 5e-324, -1e-05, 2.5, 0.1, 1.0, 1.7976931348623157e308, 0.1 + 0.2]
        assert loaded.rows.tobytes() == np.array([expected]).tobytes()
        write_features_csv(loaded, path)
        assert path.read_bytes() == text.encode()

    def test_header_is_stable(self, tmp_path):
        dataset = make_dataset([make_row()])
        path = tmp_path / "features.csv"
        write_features_csv(dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "user_id,modality,duration_s,max_speed,min_speed,max_pos_accel,"
            "min_neg_accel,mean_speed,mean_abs_accel,std_speed,std_accel,std_abs_accel"
        )

    def test_failed_write_leaves_no_tmp_and_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("old\n")

        def rows():
            yield ("000", "vélo")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            features.write_csv(path, CSV_COLUMNS[:2], rows())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]
        assert path.read_text() == "old\n"
        features.write_csv(path, CSV_COLUMNS[:2], [("000", "vélo")])
        assert path.read_bytes() == "user_id,modality\r\n000,vélo\r\n".encode()
