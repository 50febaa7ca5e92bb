import numpy as np
import pytest

from tripkin.features import extract_features
from tripkin.geokinematics import speed_sequence
from tripkin.ingest import Trip, assemble_trips, iter_user_archives
from tripkin.synth import (
    _BASE_EPOCH,
    SyntheticCorpus,
    UserProfile,
    generate_corpus,
    load_profiles,
    write_corpus,
)

from helpers import features_of, generate_trip
from oracles import generate_trip_pointwise


def profile(**overrides) -> UserProfile:
    values = dict(
        user_id="000",
        mean_cruise_speed=8.0,
        speed_jitter=0.5,
        accel_scale=0.1,
        trips=4,
        points_per_trip=30,
        sampling_period=10.0,
        gps_noise_std=0.0,
    )
    values.update(overrides)
    return UserProfile(**values)


class TestGenerateTrip:
    def test_constant_motion_round_trip(self):
        p = profile(speed_jitter=0.0, accel_scale=0.0, mean_cruise_speed=5.0)
        feats = features_of(generate_trip(p, seed=3))
        assert feats["mean_speed"] == pytest.approx(5.0, rel=1e-6)
        assert feats["std_speed"] == pytest.approx(0.0, abs=1e-6)

    def test_trips_satisfy_invariants(self):
        rng = np.random.default_rng(1)
        for i in range(50):
            p = profile(
                mean_cruise_speed=float(rng.uniform(0.5, 40)),
                speed_jitter=float(rng.uniform(0, 3)),
                accel_scale=float(rng.uniform(0, 1)),
                points_per_trip=int(rng.integers(3, 80)),
                gps_noise_std=float(rng.uniform(0, 30)),
            )
            trip = generate_trip(p, seed=[2, i])
            assert isinstance(trip, Trip)  # construction enforces ordering
            assert len(trip.points) == p.points_per_trip
            extract_features([trip])  # must not raise

    def test_speeds_are_clipped_at_zero(self):
        p = profile(mean_cruise_speed=0.5, accel_scale=2.0, points_per_trip=60)
        trip = generate_trip(p, seed=9)
        pts = trip.points
        assert np.all(speed_sequence(pts.t, pts.lat, pts.lon) >= 0.0)

    def test_deterministic(self):
        assert generate_trip(profile(), seed=5) == generate_trip(profile(), seed=5)

    def test_coarser_sampling_shrinks_max_speed(self):
        # Subsampling the same motion averages short bursts away.
        p = profile(points_per_trip=601, sampling_period=1.0, speed_jitter=1.0, accel_scale=0.5)
        fine = generate_trip(p, seed=11)
        coarse = Trip(fine.user_id, fine.modality, fine.points[::60])
        assert features_of(coarse)["max_speed"] < features_of(fine)["max_speed"]

    def test_separable_profiles_split_cleanly(self):
        from tripkin.learn import Leaf, predict_batch, train_tree

        slow = profile(user_id="slow", mean_cruise_speed=5.0, speed_jitter=0.5, trips=20)
        fast = profile(user_id="fast", mean_cruise_speed=25.0, speed_jitter=0.5, trips=20)
        corpus = generate_corpus([slow, fast], seed=21)
        X = extract_features(corpus.trips)
        y = [t.user_id for t in corpus.trips]
        tree = train_tree(X, y)
        # One split, into two pure leaves.
        assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
        preds, _ = predict_batch(tree, X)
        assert preds == y

    def test_mean_speed_concentrates_on_cruise(self):
        p = profile(speed_jitter=0.3, accel_scale=0.05, trips=120)
        corpus = generate_corpus([p], seed=22)
        means = [features_of(t)["mean_speed"] for t in corpus.trips]
        se = np.std(means) / np.sqrt(len(means))
        assert abs(np.mean(means) - p.mean_cruise_speed) < 3 * se + 1e-6


def oracle_cases(n: int = 240):
    """(profile, seed factory, start_time) cases in four kinds, in turn.

    Ordinary trips, half of them noise-free; 3-point trips; airplane
    speeds over thousands of kilometres, which pass near the poles and
    over the antimeridian; and noise of hundreds to thousands of
    kilometres, which pushes latitudes past the poles (the clip) and next
    to them (the cos_lat floor). Seeds are ints, seed lists or generators;
    every third trip draws its own start day.
    """
    rng = np.random.default_rng(2024)
    for i in range(n):
        kind = i % 4
        p = profile(
            mean_cruise_speed=float(rng.uniform(200.0, 1000.0) if kind == 2 else rng.uniform(0.5, 40.0)),
            speed_jitter=float(rng.uniform(0.0, 3.0)),
            accel_scale=float(rng.uniform(0.0, 2.0)),
            points_per_trip=3 if kind == 1 else int(rng.integers(3, 150)),
            sampling_period=float(rng.integers(60, 600) if kind == 2 else rng.integers(1, 30)),
            gps_noise_std=float(
                rng.uniform(1e5, 5e6) if kind == 3 else 0.0 if kind == 2 or i % 8 == 0 else rng.uniform(0.0, 30.0)
            ),
        )
        seed = (lambda i=i: i, lambda i=i: [9, i], lambda i=i: np.random.default_rng(i))[i % 3]
        start_time = None if i % 3 == 1 else _BASE_EPOCH + float(rng.uniform(0.0, 1e8))
        yield p, seed, start_time


class TestMatchesPointwiseOracle:
    def test_random_trips_bit_identical(self):
        seen = dict(pole=0, antimeridian=0, clip=0, floor=0, noise_free=0, three_points=0, no_start=0, generator=0)
        for p, seed, start_time in oracle_cases():
            trip = generate_trip(p, seed(), start_time)
            expected = generate_trip_pointwise(p, seed(), start_time)
            assert (trip.user_id, trip.modality) == (expected.user_id, expected.modality)
            for col in ("t", "lat", "lon"):
                got, want = getattr(trip.points, col), getattr(expected.points, col)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), col
            lat, lon = expected.points.lat, expected.points.lon
            seen["pole"] += p.gps_noise_std == 0 and np.abs(lat).max() > 80.0
            seen["antimeridian"] += np.abs(np.diff(lon)).max() > 180.0
            seen["clip"] += np.abs(lat).max() == 90.0
            seen["floor"] += p.gps_noise_std > 0 and np.abs(lat).max() > 89.5
            seen["noise_free"] += p.gps_noise_std == 0
            seen["three_points"] += len(lat) == 3
            seen["no_start"] += start_time is None
            seen["generator"] += isinstance(seed(), np.random.Generator)
        assert min(seen.values()) >= 3, seen

    def test_corpus_trips_match_oracle_trip_by_trip(self):
        profiles = [
            profile(user_id="000", trips=3, points_per_trip=3, gps_noise_std=0.0),
            profile(user_id="001", trips=5, points_per_trip=40, gps_noise_std=4.0, sampling_period=86400.0),
            profile(user_id="002", trips=2, points_per_trip=7, mean_cruise_speed=300.0, gps_noise_std=2e6),
        ]
        corpus = generate_corpus(profiles, seed=17)
        trips = iter(corpus.trips)
        for p_idx, p in enumerate(profiles):
            window = max(86400.0, p.points_per_trip * p.sampling_period + 3600.0)
            user_trips = [next(trips) for _ in range(p.trips)]
            for t_idx, trip in enumerate(user_trips):
                expected = generate_trip_pointwise(p, [17, p_idx, t_idx], _BASE_EPOCH + t_idx * window)
                assert trip == expected
                assert trip.points.lat.tobytes() == expected.points.lat.tobytes()
                assert trip.points.lon.tobytes() == expected.points.lon.tobytes()
            # One Track per user: every trip is a slice of the same columns.
            assert len({id(trip.points.t.base) for trip in user_trips}) == 1
        assert next(trips, None) is None


class TestGenerateCorpus:
    def test_counts(self):
        profiles = [profile(user_id=f"{i:03d}", trips=40, points_per_trip=5) for i in range(26)]
        corpus = generate_corpus(profiles, seed=30)
        assert len(corpus.trips) == 26 * 40
        assert len(corpus.profiles) == 26

    def test_same_seed_same_corpus(self):
        profiles = [profile(user_id="000"), profile(user_id="001", mean_cruise_speed=20.0)]
        assert generate_corpus(profiles, seed=31) == generate_corpus(profiles, seed=31)

    def test_duplicate_user_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus([profile(), profile()], seed=0)


class TestSerialization:
    def test_round_trip_through_ingest(self, tmp_path):
        profiles = [
            profile(user_id="000", trips=3),
            profile(user_id="001", trips=2, mean_cruise_speed=20.0),
        ]
        corpus = generate_corpus(profiles, seed=40)
        write_corpus(corpus, tmp_path)
        archives = list(iter_user_archives(tmp_path))
        assert [a.user_id for a in archives] == ["000", "001"]
        reassembled = []
        for archive in archives:
            trips, skipped, duplicates = assemble_trips(archive)
            assert skipped == 0 and duplicates == 0
            reassembled.extend(trips)
        # Stamps are whole seconds in memory too, and coordinates are
        # written with repr, so the round trip is exact.
        assert reassembled == sorted(corpus.trips, key=lambda t: (t.user_id, t.points.t[0]))

    def test_same_seed_identical_bytes(self, tmp_path):
        profiles = [profile(user_id="000", trips=2)]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_corpus(generate_corpus(profiles, seed=41), out_a)
        write_corpus(generate_corpus(profiles, seed=41), out_b)
        for path_a in sorted(out_a.rglob("*")):
            if path_a.is_file():
                path_b = out_b / path_a.relative_to(out_a)
                assert path_a.read_bytes() == path_b.read_bytes()

    def test_label_counts(self, tmp_path):
        profiles = [
            profile(user_id="000", trips=30, points_per_trip=4),
            profile(user_id="001", trips=30, points_per_trip=4),
        ]
        write_corpus(generate_corpus(profiles, seed=42), tmp_path)
        total_labels = 0
        for uid in ("000", "001"):
            lines = (tmp_path / "Data" / uid / "labels.txt").read_text().splitlines()
            total_labels += len(lines) - 1
        assert total_labels == 60


def test_load_profiles(tmp_path):
    import json

    entries = [
        dict(
            user_id="007",
            mean_cruise_speed=5.0,
            speed_jitter=0.1,
            accel_scale=0.01,
            trips=2,
            points_per_trip=5,
            sampling_period=10.0,
            gps_noise_std=0.0,
        )
    ]
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(entries))
    profiles = load_profiles(path)
    assert profiles[0].user_id == "007"
    with pytest.raises(ValueError):
        path.write_text("[]")
        load_profiles(path)
