"""Synthetic trajectory corpora with controllable per-user motion profiles.

Trips simulate 1-D motion along a great-circle bearing: the speed starts
near a per-trip cruise value and follows a seeded random walk clipped at
zero, positions integrate that speed along the bearing, and optional
isotropic coordinate noise models GPS error. Ground truth stays analytic,
which is what the oracle and property tests need; realistic road networks
are out of scope.

A user's trips are generated together, as (trips, points) arrays: each
trip draws from its own seeded generator, the speed walk steps
through the points for all trips at once, and the great-circle
positions and noise are computed in one pass over the arrays. The result
is one validated Track per user, and each Trip holds a slice of it.
``generate_trip`` is a one-trip call of the same generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
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
        # The id names the user's directory under Data/, so it must stay one
        # plain path component.
        uid = self.user_id
        if not isinstance(uid, str) or uid in ("", ".", "..") or any(c in uid for c in "/\\\0"):
            raise ValueError(f"user_id must be a plain directory name, got {uid!r}")
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
    int(start_time + i * sampling_period), whole seconds as in a PLT file;
    without a start_time the trip starts on a random day of 2010.
    """
    return _user_trips(profile, [seed], [start_time])[0]


def _user_trips(profile: UserProfile, seeds: list, start_times: list) -> list[Trip]:
    """One trip per (seed, start time) pair, computed as (trips, points) arrays.

    Each trip draws from its own generator in a fixed order: the start
    day (only without a start time), origin latitude and longitude,
    bearing, cruise speed, the speed-walk steps, then the GPS noise. The
    trips come back as slices of one validated Track.
    """
    m, n, dt = len(seeds), profile.points_per_trip, profile.sampling_period
    start = np.empty((m, 1))
    lat0, lon0, bearing = np.empty((3, m, 1))
    cruise = np.empty(m)
    steps = np.empty((m, n - 1))
    noise = np.zeros((m, n, 2))
    for j, (seed, start_time) in enumerate(zip(seeds, start_times)):
        rng = np.random.default_rng(seed)
        if start_time is None:
            start_time = _BASE_EPOCH + float(rng.integers(0, 365)) * 86400.0
        start[j] = start_time
        lat0[j] = rng.uniform(-60.0, 60.0)
        lon0[j] = rng.uniform(-180.0, 180.0)
        bearing[j] = rng.uniform(0.0, 2.0 * math.pi)
        cruise[j] = max(0.0, float(rng.normal(profile.mean_cruise_speed, profile.speed_jitter)))
        steps[j] = rng.normal(0.0, profile.accel_scale * dt, size=n - 1)
        if profile.gps_noise_std > 0:
            noise[j] = rng.normal(0.0, profile.gps_noise_std, size=(n, 2))

    lat, lon = _destinations(lat0, lon0, bearing, _arc_lengths(cruise, steps, dt))
    lat += np.degrees(noise[..., 0] / EARTH_RADIUS_M)
    cos_lat = np.maximum(0.01, np.cos(np.radians(lat)))
    lon += np.degrees(noise[..., 1] / (EARTH_RADIUS_M * cos_lat))
    lat = np.clip(lat, -90.0, 90.0)
    lon = (lon + 180.0) % 360.0 - 180.0
    t = (start + np.arange(n) * dt).astype(np.int64)
    track = Track(t.ravel(), lat.ravel(), lon.ravel())
    modality = modality_for_speed(profile.mean_cruise_speed)
    return [Trip(profile.user_id, modality, track[j * n : (j + 1) * n]) for j in range(m)]


def _arc_lengths(cruise: np.ndarray, steps: np.ndarray, dt: float) -> np.ndarray:
    """Distance along the path at every fix, one row per trip.

    Each row's speed starts at its cruise speed and takes one step per
    interval, clipped at zero. The walk adds one step at a time, as a
    scalar loop would; a closed (cumulative-min) form would regroup the
    sums.
    """
    m, intervals = steps.shape
    speeds = np.empty((m, intervals))
    speeds[:, 0] = cruise
    for i in range(1, intervals):
        speeds[:, i] = np.maximum(0.0, speeds[:, i - 1] + steps[:, i - 1])
    arc = np.zeros((m, intervals + 1))
    np.cumsum(speeds * dt, axis=1, out=arc[:, 1:])
    return arc


def _destinations(lat0, lon0, bearing, arc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latitude and longitude (degrees) at arc metres along each row's great circle.

    numpy's sin, cos, radians, degrees and float % agree with ``math``;
    arcsin and arctan2 do not always, so those two map ``math`` over one
    trip's floats at a time.
    """
    delta = arc / EARTH_RADIUS_M
    phi = np.radians(lat0)
    sin_phi2 = np.sin(phi) * np.cos(delta) + np.cos(phi) * np.sin(delta) * np.cos(bearing)
    east = np.sin(bearing) * np.sin(delta) * np.cos(phi)
    north = np.cos(delta) - np.sin(phi) * sin_phi2
    np.clip(sin_phi2, -1.0, 1.0, out=sin_phi2)
    phi2 = np.empty(arc.shape)
    dlam = np.empty(arc.shape)
    for j in range(len(arc)):
        phi2[j] = list(map(math.asin, sin_phi2[j].tolist()))
        dlam[j] = list(map(math.atan2, east[j].tolist(), north[j].tolist()))
    lon = (np.degrees(np.radians(lon0) + dlam) + 180.0) % 360.0 - 180.0
    return np.degrees(phi2), lon


def generate_corpus(profiles: list[UserProfile], seed: int = 0) -> SyntheticCorpus:
    """Independent trips per profile, deterministic under the seed.

    Trip t of profile p draws from the seed sequence [seed, p, t]. Each
    user's trips occupy disjoint time windows so that label-interval
    assembly can never mix points across trips.
    """
    trips: list[Trip] = []
    by_user: dict[str, UserProfile] = {}
    for p_idx, profile in enumerate(profiles):
        if profile.user_id in by_user:
            raise ValueError(f"duplicate user_id {profile.user_id!r}")
        by_user[profile.user_id] = profile
        window = max(86400.0, profile.points_per_trip * profile.sampling_period + 3600.0)
        t_idx = range(profile.trips)
        trips.extend(
            _user_trips(profile, [[seed, p_idx, i] for i in t_idx], [_BASE_EPOCH + i * window for i in t_idx])
        )
    return SyntheticCorpus(trips=trips, profiles=by_user)


def write_corpus(corpus: SyntheticCorpus, root: str | Path) -> None:
    """Serialize a corpus in the Geolife directory layout.

    One PLT file per trip plus a labels.txt per user whose intervals span
    each trip exactly.
    """
    data = Path(root) / "Data"
    labels: dict[str, list[TripLabel]] = {uid: [] for uid in corpus.profiles}
    for uid in labels:
        (data / uid / "Trajectory").mkdir(parents=True, exist_ok=True)
    for trip in corpus.trips:
        start = int(trip.points.t[0])
        end = int(trip.points.t[-1])
        (data / trip.user_id / "Trajectory" / f"{start}.plt").write_text(format_plt(trip.points), encoding="utf-8")
        labels[trip.user_id].append(TripLabel(start, end, trip.modality))
    for uid, labs in labels.items():
        labs.sort(key=lambda lab: lab.start_time)
        (data / uid / "labels.txt").write_text(format_labels(labs), encoding="utf-8")


def load_profiles(path: str | Path) -> list[UserProfile]:
    """Read a JSON list of profile objects (field names as in UserProfile).

    Each object has UserProfile's keys (gps_noise_std may be left out):
    user_id a string, trips and points_per_trip integers, the rest finite
    numbers; a bool is never a number.

    Raises:
        ValueError: the file is not a nonempty list, or an entry breaks
            these rules or UserProfile's checks; the message names the
            entry's index and key.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError("profile file must hold a nonempty JSON list")
    return [_profile(i, entry) for i, entry in enumerate(raw)]


# The JSON values each UserProfile field annotation ("str", "int", "float")
# accepts, and their name.
_KINDS = {"str": (str, "a string"), "int": (int, "an integer"), "float": ((int, float), "a finite number")}


def _profile(index: int, entry) -> UserProfile:
    if not isinstance(entry, dict):
        raise ValueError(f"profile {index} must be a JSON object, got {type(entry).__name__}")
    known = {f.name: f for f in fields(UserProfile)}
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise ValueError(f"profile {index}: unknown keys {unknown}")
    missing = [name for name, f in known.items() if name not in entry and f.default is MISSING]
    if missing:
        raise ValueError(f"profile {index}: missing keys {missing}")
    for key, value in entry.items():
        types, kind = _KINDS[known[key].type]
        bad_float = isinstance(value, float) and not math.isfinite(value)
        if isinstance(value, bool) or not isinstance(value, types) or bad_float:
            raise ValueError(f"profile {index}: key {key!r} must be {kind}, got {value!r}")
    try:
        return UserProfile(**entry)
    except ValueError as exc:
        raise ValueError(f"profile {index}: {exc}") from None
