"""Geodesic and kinematic math over timestamped GPS fixes, held as columns.

Distances are great-circle distances on a sphere of radius 6 371 000 m
(haversine form, which stays numerically stable at the short ranges of
urban trips). Speeds are per-interval distance over elapsed time, and
accelerations are finite differences of consecutive speeds. All functions
here are pure; nonpositive time deltas are surfaced as errors so callers
can drop the offending trip.

Every array expression below evaluates the same IEEE operations, in the
same order, as the scalar ``math`` form it replaces, so features stay
bit-identical: ``np.sin``/``np.cos``/``np.sqrt``/``np.radians`` agree with
``math``, ``np.float_power(x, 2.0)`` is the libm ``pow`` behind Python's
``x ** 2`` (``x * x`` differs in the last ulp now and then), and the
arcsine is taken with ``math.asin`` because ``np.arcsin`` does not always
agree with it.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z in epoch seconds: the
# range the four-digit years of the PLT and labels.txt formats can write.
T_MIN, T_MAX = -62_135_596_800, 253_402_300_799
T_RANGE = "[0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z]"


class TooFewPoints(ValueError):
    """Input sequence is too short for the requested computation."""


class DuplicateTimestamp(ValueError):
    """Consecutive samples have a nonpositive time delta."""


def _column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype)
    if col.ndim != 1:
        raise ValueError(f"track columns must be 1-D, got shape {col.shape}")
    col.flags.writeable = False
    return col


class Track:
    """GPS fixes as columns: ``t`` epoch seconds (UTC, int64), ``lat``/``lon`` degrees.

    The columns are read-only, equally long 1-D arrays; ``len`` is the
    number of fixes and slicing returns a Track of views. Timestamps must
    be whole seconds in years 1-9999 and coordinates inside
    [-90, 90] x [-180, 180]; the order of the fixes is not checked here
    (``speed_sequence`` rejects a repeated or backward stamp).
    """

    __slots__ = ("t", "lat", "lon")

    def __init__(self, t, lat, lon) -> None:
        raw = np.asarray(t)
        with np.errstate(invalid="ignore"):
            t = _column(raw, np.int64)
        if not np.array_equal(t, raw):
            raise ValueError("timestamps must be finite whole seconds")
        if not np.all((t >= T_MIN) & (t <= T_MAX)):
            raise ValueError(f"timestamps out of range {T_RANGE}")
        lat = _column(lat, np.float64)
        lon = _column(lon, np.float64)
        if not len(t) == len(lat) == len(lon):
            raise ValueError(f"column lengths differ: {len(t)}, {len(lat)}, {len(lon)}")
        if not np.all((lat >= -90.0) & (lat <= 90.0)):
            raise ValueError("latitude out of range [-90, 90]")
        if not np.all((lon >= -180.0) & (lon <= 180.0)):
            raise ValueError("longitude out of range [-180, 180]")
        self.t, self.lat, self.lon = t, lat, lon

    @classmethod
    def _of(cls, t: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> Track:
        # Columns already checked (slices or reorderings of a Track's).
        track = object.__new__(cls)
        for col in (t, lat, lon):
            col.flags.writeable = False
        track.t, track.lat, track.lon = t, lat, lon
        return track

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key: slice) -> Track:
        if not isinstance(key, slice):
            raise TypeError("a Track is sliced, not indexed; read .t, .lat or .lon")
        return Track._of(self.t[key], self.lat[key], self.lon[key])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Track):
            return NotImplemented
        return all(map(np.array_equal, (self.t, self.lat, self.lon), (other.t, other.lat, other.lon)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Track({len(self)} fixes)"


def haversine_distance(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Great-circle distances between paired fixes, in meters, elementwise.

    Symmetric by construction (every term is even in the coordinate
    differences) and zero exactly when the coordinates are identical.
    """
    phi_a = np.radians(lat_a)
    phi_b = np.radians(lat_b)
    dphi = np.radians(lat_b - lat_a)
    dlam = np.radians(lon_b - lon_a)
    h = (
        np.float_power(np.sin(dphi / 2.0), 2.0)
        + np.cos(phi_a) * np.cos(phi_b) * np.float_power(np.sin(dlam / 2.0), 2.0)
    )
    # Guard against h creeping past 1.0 through rounding near antipodes.
    root = np.minimum(1.0, np.sqrt(h))
    arc = np.array(list(map(math.asin, np.ravel(root).tolist()))).reshape(np.shape(root))
    return 2.0 * EARTH_RADIUS_M * arc


def _time_deltas(t: np.ndarray) -> np.ndarray:
    dt = t[..., 1:] - t[..., :-1]
    ok = dt > 0
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)
        bad, end = dt[at].item(), t[..., 1:][at].item()
        raise DuplicateTimestamp(f"nonpositive time delta {bad!r} ending at t={end!r}")
    return dt


def speed_sequence(t: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Per-interval speeds (m/s) between consecutive fixes along the last axis.

    Returns ``L - 1`` speeds per row of ``L`` fixes, each row's bits those of
    the 1-D call; speed ``i`` covers fixes ``i`` to ``i+1``, stamped ``t[i+1]``.

    Raises:
        TooFewPoints: fewer than 2 fixes.
        DuplicateTimestamp: some consecutive pair has a nonpositive time
            delta; the caller decides whether to drop the trip.
    """
    if t.shape[-1] < 2:
        raise TooFewPoints(f"need at least 2 points, got {t.shape[-1]}")
    return haversine_distance(lat[..., :-1], lon[..., :-1], lat[..., 1:], lon[..., 1:]) / _time_deltas(t)


def acceleration_sequence(t_end: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Finite-difference accelerations (m/s^2) between consecutive speeds.

    ``t_end[..., i]`` ends the interval of ``speeds[..., i]``; each speed
    delta is divided by the elapsed time between those end times.

    Raises:
        TooFewPoints: fewer than 2 speeds.
        DuplicateTimestamp: nonpositive time delta between speeds.
    """
    if speeds.shape[-1] < 2:
        raise TooFewPoints(f"need at least 2 speed samples, got {speeds.shape[-1]}")
    return (speeds[..., 1:] - speeds[..., :-1]) / _time_deltas(t_end)
