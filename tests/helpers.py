"""Fixture builders shared across test modules."""

from __future__ import annotations

import math

import numpy as np

from tripkin.features import FEATURE_NAMES, FeatureDataset, extract_features
from tripkin.geokinematics import EARTH_RADIUS_M, Track
from tripkin.ingest import Trip
from tripkin.synth import UserProfile, generate_trip

METERS_PER_LON_DEGREE_AT_EQUATOR = EARTH_RADIUS_M * math.pi / 180.0


def equator_trip(
    interval_speeds, dt: int = 1, user_id: str = "000", modality: str = "walk"
) -> Trip:
    """A trip along the equator whose speed sequence equals interval_speeds.

    Pure-longitude displacement at the equator makes the haversine
    distance exactly R * delta_lon, so the target speeds are recovered to
    float precision.
    """
    lons = [0.0]
    for v in interval_speeds:
        lons.append(lons[-1] + v * dt / METERS_PER_LON_DEGREE_AT_EQUATOR)
    times = [i * dt for i in range(len(lons))]
    return Trip(user_id, modality, Track(times, [0.0] * len(lons), lons))


def random_profile(rng: np.random.Generator, user_id: str = "000") -> UserProfile:
    return UserProfile(
        user_id=user_id,
        mean_cruise_speed=float(rng.uniform(0.5, 30.0)),
        speed_jitter=float(rng.uniform(0.0, 2.0)),
        accel_scale=float(rng.uniform(0.0, 0.5)),
        trips=1,
        points_per_trip=int(rng.integers(10, 60)),
        sampling_period=float(rng.uniform(1.0, 30.0)),
        gps_noise_std=float(rng.uniform(0.0, 20.0)),
    )


def random_trips(n: int, seed: int = 0) -> list[Trip]:
    rng = np.random.default_rng(seed)
    trips = []
    for i in range(n):
        profile = random_profile(rng, user_id=f"{i:03d}")
        trips.append(generate_trip(profile, seed=[seed, i]))
    return trips


def features_of(trip: Trip) -> dict[str, float]:
    """extract_features(trip) keyed by feature name."""
    return dict(zip(FEATURE_NAMES, extract_features(trip)))


def feature_dataset(rows, users) -> FeatureDataset:
    """A dataset of the given feature rows and their users, every trip a walk."""
    return FeatureDataset(rows, users, ["walk"] * len(users))
