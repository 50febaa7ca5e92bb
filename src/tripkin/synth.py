"""Synthetic trajectory corpora with controllable per-user motion profiles.

Trips simulate 1-D motion along a great-circle bearing: the speed starts
near a per-trip cruise value and follows a seeded random walk clipped at
zero, positions integrate that speed along the bearing, and optional
isotropic coordinate noise models GPS error. Ground truth stays analytic,
which is what the oracle and property tests need; realistic road networks
are out of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geokinematics import EARTH_RADIUS_M, Track
from .ingest import Trip, TripLabel, format_labels, format_plt

# Synthetic corpora start on 2010-01-01T00:00:00Z.
_BASE_EPOCH = 1262304000

# Cruise-speed upper bounds (m/s) for picking a plausible modality token.
_MODALITY_SPEED_BANDS = (
    (2.0, "walk"),
    (4.0, "run"),
    (8.0, "bike"),
    (15.0, "bus"),
    (30.0, "car"),
    (60.0, "train"),
    (math.inf, "airplane"),
)


@dataclass(frozen=True)
class UserProfile:
    """Knobs for one synthetic user's motion and sampling behavior."""

    user_id: str
    mean_cruise_speed: float  # m/s
    speed_jitter: float  # m/s, std of the per-trip cruise speed
    accel_scale: float  # m/s^2, std of speed-walk steps per second
    trips: int
    points_per_trip: int
    sampling_period: float  # s
    gps_noise_std: float = 0.0  # m

    def __post_init__(self) -> None:
        if self.mean_cruise_speed <= 0:
            raise ValueError("mean_cruise_speed must be positive")
        if self.speed_jitter < 0 or self.accel_scale < 0 or self.gps_noise_std < 0:
            raise ValueError("spread parameters must be nonnegative")
        if self.trips < 1:
            raise ValueError("trips must be at least 1")
        if self.points_per_trip < 3:
            raise ValueError("points_per_trip must be at least 3")
        if self.sampling_period < 1:
            raise ValueError("sampling_period must be at least 1 s (timestamps are whole seconds)")


@dataclass(frozen=True)
class SyntheticCorpus:
    """Generated trips plus the ground-truth profile of every user."""

    trips: list[Trip]
    profiles: dict[str, UserProfile]


def _destination(lat_deg: float, lon_deg: float, bearing: float, distance_m: float):
    """Point at the given arc distance along a great circle (spherical)."""
    delta = distance_m / EARTH_RADIUS_M
    phi = math.radians(lat_deg)
    lam = math.radians(lon_deg)
    sin_phi2 = math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * sin_phi2,
    )
    lon2 = math.degrees(lam2)
    lon2 = (lon2 + 180.0) % 360.0 - 180.0
    return math.degrees(phi2), lon2


def modality_for_speed(cruise_speed: float) -> str:
    for bound, token in _MODALITY_SPEED_BANDS:
        if cruise_speed < bound:
            return token
    return "other"


def generate_trip(
    profile: UserProfile,
    seed: int | list[int] | np.random.Generator,
    start_time: float | None = None,
) -> Trip:
    """Simulate one trip for the profile.

    The per-trip cruise speed is drawn from N(mean_cruise_speed,
    speed_jitter); the per-interval speed walks from there with step std
    accel_scale * sampling_period, clipped at zero. Positions move along
    a single random bearing from a random mid-latitude origin, then get
    isotropic coordinate noise of gps_noise_std meters. Fix i is stamped
    int(start_time + i * sampling_period), whole seconds as in a PLT file.
    """
    rng = np.random.default_rng(seed)
    if start_time is None:
        start_time = _BASE_EPOCH + float(rng.integers(0, 365)) * 86400.0
    lat0 = float(rng.uniform(-60.0, 60.0))
    lon0 = float(rng.uniform(-180.0, 180.0))
    bearing = float(rng.uniform(0.0, 2.0 * math.pi))

    n = profile.points_per_trip
    dt = profile.sampling_period
    cruise = max(0.0, float(rng.normal(profile.mean_cruise_speed, profile.speed_jitter)))
    steps = rng.normal(0.0, profile.accel_scale * dt, size=n - 1)
    speeds = np.empty(n - 1)
    v = cruise
    for i, step in enumerate(steps):
        speeds[i] = v
        v = max(0.0, v + step)
    arc = np.concatenate([[0.0], np.cumsum(speeds * dt)])

    if profile.gps_noise_std > 0:
        noise = rng.normal(0.0, profile.gps_noise_std, size=(n, 2))
    else:
        noise = np.zeros((n, 2))

    lats, lons = [], []
    for i in range(n):
        lat, lon = _destination(lat0, lon0, bearing, float(arc[i]))
        lat += math.degrees(noise[i, 0] / EARTH_RADIUS_M)
        cos_lat = max(0.01, math.cos(math.radians(lat)))
        lon += math.degrees(noise[i, 1] / (EARTH_RADIUS_M * cos_lat))
        lat = min(90.0, max(-90.0, lat))
        lon = (lon + 180.0) % 360.0 - 180.0
        lats.append(lat)
        lons.append(lon)
    times = (start_time + np.arange(n) * dt).astype(np.int64)
    track = Track(times, lats, lons)
    return Trip(profile.user_id, modality_for_speed(profile.mean_cruise_speed), track)


def generate_corpus(profiles: list[UserProfile], seed: int = 0) -> SyntheticCorpus:
    """Independent trips per profile, deterministic under the seed.

    Each user's trips occupy disjoint time windows so that label-interval
    assembly can never mix points across trips.
    """
    trips: list[Trip] = []
    by_user: dict[str, UserProfile] = {}
    for p_idx, profile in enumerate(profiles):
        if profile.user_id in by_user:
            raise ValueError(f"duplicate user_id {profile.user_id!r}")
        by_user[profile.user_id] = profile
        window = max(86400.0, profile.points_per_trip * profile.sampling_period + 3600.0)
        for t_idx in range(profile.trips):
            trips.append(
                generate_trip(
                    profile,
                    seed=[seed, p_idx, t_idx],
                    start_time=_BASE_EPOCH + t_idx * window,
                )
            )
    return SyntheticCorpus(trips=trips, profiles=by_user)


def write_corpus(corpus: SyntheticCorpus, root: str | Path) -> None:
    """Serialize a corpus in the Geolife directory layout.

    One PLT file per trip plus a labels.txt per user whose intervals span
    each trip exactly.
    """
    root = Path(root)
    labels: dict[str, list[TripLabel]] = {uid: [] for uid in corpus.profiles}
    for trip in corpus.trips:
        user_dir = root / "Data" / trip.user_id / "Trajectory"
        user_dir.mkdir(parents=True, exist_ok=True)
        start = int(trip.points.t[0])
        end = int(trip.points.t[-1])
        (user_dir / f"{start}.plt").write_text(format_plt(trip.points))
        labels[trip.user_id].append(TripLabel(start, end, trip.modality))
    for uid, labs in labels.items():
        labs.sort(key=lambda lab: lab.start_time)
        (root / "Data" / uid / "labels.txt").write_text(format_labels(labs))


def load_profiles(path: str | Path) -> list[UserProfile]:
    """Read a JSON list of profile objects (field names as in UserProfile)."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError("profile file must hold a nonempty JSON list")
    return [UserProfile(**entry) for entry in raw]
