import math

import numpy as np
import pytest

from tripkin.features import (
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
from tripkin.geokinematics import DuplicateTimestamp, TooFewPoints, Track
from tripkin.synth import UserProfile, generate_trip

from helpers import equator_trip, feature_dataset, features_of, random_trips
from oracles import naive_trip_features, quantile_interpolated


def make_row(**overrides) -> list[float]:
    values = {name: 1.0 for name in FEATURE_NAMES}
    values.update(overrides)
    return list(values.values())


def make_dataset(rows, users=None) -> FeatureDataset:
    return feature_dataset(rows, users if users is not None else ["000"] * len(rows))


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
            extract_features(equator_trip([5.0]))

    def test_duplicate_timestamp_propagates(self):
        trip = equator_trip([5.0, 5.0, 5.0])
        broken = type(trip)(trip.user_id, trip.modality, trip.points)
        pts = trip.points
        repeated = Track(*(np.concatenate([c[:2], c[1:]]) for c in (pts.t, pts.lat, pts.lon)))
        object.__setattr__(broken, "points", repeated)
        with pytest.raises(DuplicateTimestamp):
            extract_features(broken)

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
        assert bounds.q1[j] == pytest.approx(25.75)
        assert bounds.q3[j] == pytest.approx(75.25)
        assert bounds.lower[j] == pytest.approx(-48.5)
        assert bounds.upper[j] == pytest.approx(149.5)

    def test_degenerate_iqr(self):
        rows = [make_row(min_speed=0.0) for _ in range(10)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("min_speed")
        assert bounds.lower[j] == bounds.upper[j] == 0.0
        kept, _ = filter_outlier_trips(make_dataset(rows), bounds)
        assert len(kept.rows) == 10

    def test_two_values(self):
        rows = [make_row(max_speed=0.0), make_row(max_speed=10.0)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("max_speed")
        assert bounds.q1[j] == pytest.approx(2.5)
        assert bounds.q3[j] == pytest.approx(7.5)
        assert bounds.lower[j] == pytest.approx(-5.0)
        assert bounds.upper[j] == pytest.approx(15.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            compute_iqr_bounds([])


class TestFilterOutlierTrips:
    def test_row_exactly_at_bound_is_retained(self):
        # Upper fence of [5, 10, 15, 20, 35] is 20 + 1.5*(20-10) = 35 = max.
        rows = [make_row(duration_s=v) for v in (5.0, 10.0, 15.0, 20.0, 35.0)]
        bounds = compute_iqr_bounds(rows)
        j = FEATURE_NAMES.index("duration_s")
        assert bounds.upper[j] == pytest.approx(35.0)
        kept, drops = filter_outlier_trips(make_dataset(rows), bounds)
        assert len(kept.rows) == 5
        assert sum(drops.values()) == 0

    def test_one_feature_above_upper_drops_row(self):
        rows = [make_row(max_speed=float(v)) for v in range(1, 21)] + [
            make_row(max_speed=1e6)
        ]
        bounds = compute_iqr_bounds(rows)
        kept, drops = filter_outlier_trips(make_dataset(rows), bounds)
        assert len(kept.rows) == 20
        assert drops["max_speed"] == 1

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
        bounds = compute_iqr_bounds(rows)
        kept, drops = filter_outlier_trips(make_dataset(rows, base_users + ["bad0", "bad1", "bad2"]), bounds)
        assert kept.users.tolist() == base_users
        assert drops["mean_speed"] == 1
        assert drops["std_speed"] == 1
        assert drops["mean_abs_accel"] == 1
        assert sum(drops.values()) == 3

    def test_degenerate_iqr_keeps_only_exact_q1(self):
        rows = [make_row(std_accel=1.0)] * 4 + [make_row(std_accel=1.0 + 1e-9)]
        bounds = compute_iqr_bounds(rows)
        kept, _ = filter_outlier_trips(make_dataset(rows), bounds)
        assert len(kept.rows) == 4
        assert (kept.rows[:, FEATURE_NAMES.index("std_accel")] == 1.0).all()

    def test_subset_and_order_preserved(self):
        rows = [make_row(max_speed=float(i % 7)) for i in range(30)]
        ids = [f"{i:03d}" for i in range(30)]
        bounds = compute_iqr_bounds(rows)
        kept, _ = filter_outlier_trips(make_dataset(rows, ids), bounds)
        kept_ids = kept.users.tolist()
        assert kept_ids == [i for i in ids if i in set(kept_ids)]


class TestFilterUsers:
    def test_threshold_edge(self):
        dataset = filter_users(make_dataset([make_row()] * 59, ["a"] * 29 + ["b"] * 30), min_trips=30)
        assert set(dataset.user_counts()) == {"b"}
        assert dataset.provenance.below_min_trips_rows == 29
        assert dataset.provenance.users_dropped == 1

    def test_two_users_kept(self):
        dataset = filter_users(make_dataset([make_row()] * 61, ["a"] * 30 + ["b"] * 31), min_trips=30)
        assert len(dataset.rows) == 61
        assert dataset.user_counts() == {"a": 30, "b": 31}

    def test_idempotent(self):
        rows = [make_row(duration_s=float(i)) for i in range(1, 48)]
        once = filter_users(make_dataset(rows, ["a"] * 35 + ["b"] * 12), min_trips=30)
        twice = filter_users(once, min_trips=30)
        assert np.array_equal(twice.rows, once.rows)
        assert twice.users.tolist() == once.users.tolist() == ["a"] * 35


class TestPipeline:
    def test_counts_short_trips(self):
        trips = [equator_trip([5.0, 6.0, 5.5], user_id="a")] * 31
        trips.append(equator_trip([5.0], user_id="a"))  # two points only
        dataset = build_feature_dataset(trips, min_trips=30)
        assert dataset.provenance.too_few_points == 1
        assert len(dataset.rows) == 31

    def test_stage_order_iqr_before_user_filter(self):
        # 31 near-identical trips plus one extreme one: the extreme trip is
        # removed by the fences first, and the user keeps >= 30 rows.
        trips = [equator_trip([5.0, 6.0, 5.0 + i * 1e-3], user_id="a") for i in range(31)]
        trips.append(equator_trip([5.0, 500.0, 5.0], user_id="a"))
        dataset = build_feature_dataset(trips, min_trips=30)
        assert dataset.provenance.iqr_dropped == 1
        assert len(dataset.rows) == 31


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


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        trips = random_trips(40, seed=9)
        for i, trip in enumerate(trips):
            object.__setattr__(trip, "user_id", f"{i % 3:03d}")
        extracted = build_feature_dataset(trips, min_trips=1, iqr_multiplier=1e9)
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

    def test_header_is_stable(self, tmp_path):
        dataset = make_dataset([make_row()])
        path = tmp_path / "features.csv"
        write_features_csv(dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "user_id,modality,duration_s,max_speed,min_speed,max_pos_accel,"
            "min_neg_accel,mean_speed,mean_abs_accel,std_speed,std_accel,std_abs_accel"
        )
