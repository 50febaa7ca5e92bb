"""Per-trip kinematic feature extraction and dataset reduction.

Each trip yields a 10-dimensional vector of speed/acceleration statistics.
The trip set is then reduced in two passes: trips that are an outlier on
any feature (outside the 1.5*IQR fences computed over all users pooled)
are removed, and users left with too few trips are dropped entirely.
Standard deviations throughout are population (divide-by-N) values.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geokinematics import TooFewPoints, acceleration_sequence, speed_sequence
from .ingest import Trip

FEATURE_NAMES = (
    "duration_s",
    "max_speed",
    "min_speed",
    "max_pos_accel",
    "min_neg_accel",
    "mean_speed",
    "mean_abs_accel",
    "std_speed",
    "std_accel",
    "std_abs_accel",
)

CSV_COLUMNS = ("user_id", "modality") + FEATURE_NAMES

_feature_values = operator.attrgetter(*FEATURE_NAMES)


class EmptyInput(ValueError):
    """An operation received an empty collection."""


@dataclass(frozen=True, slots=True)
class KinematicFeatures:
    """The 10 per-trip kinematic statistics, in fixed column order."""

    duration_s: float
    max_speed: float
    min_speed: float
    max_pos_accel: float
    min_neg_accel: float
    mean_speed: float
    mean_abs_accel: float
    std_speed: float
    std_accel: float
    std_abs_accel: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, _feature_values(self))):
            raise ValueError(f"features must be finite, got {self.as_vector()}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s!r}")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


@dataclass(frozen=True)
class FeatureRow:
    """One trip's features plus its user and modality bookkeeping."""

    user_id: str
    modality: str
    features: KinematicFeatures


@dataclass(frozen=True)
class IqrBounds:
    """Per-feature quartiles and Tukey fences, aligned with FEATURE_NAMES."""

    q1: np.ndarray
    q3: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class Provenance:
    """Counts of what each pipeline stage dropped: trips, except
    duplicate_timestamps, which counts points that repeat a timestamp."""

    labels_skipped: int = 0
    duplicate_timestamps: int = 0
    too_few_points: int = 0
    iqr_dropped: int = 0
    iqr_dropped_per_feature: dict[str, int] = field(default_factory=dict)
    below_min_trips_rows: int = 0
    users_dropped: int = 0
    per_user_before: dict[str, int] = field(default_factory=dict)
    per_user_after: dict[str, int] = field(default_factory=dict)


def _stack(rows) -> np.ndarray:
    """(len(rows), 10) feature matrix in FEATURE_NAMES column order."""
    values = [_feature_values(row.features) for row in rows]
    return np.array(values, dtype=float).reshape(len(values), len(FEATURE_NAMES))


class FeatureDataset:
    """Final filtered feature rows plus the drop counts that produced them.

    The feature matrix and the user-id array are built once, here; rows
    is stored as a tuple so neither can go stale.
    """

    def __init__(self, rows, provenance: Provenance | None = None) -> None:
        self.rows: tuple[FeatureRow, ...] = tuple(rows)
        self.provenance = provenance if provenance is not None else Provenance()
        self._matrix = _stack(self.rows)
        self._matrix.flags.writeable = False
        self.users = np.array([row.user_id for row in self.rows], dtype=object)
        self.users.flags.writeable = False

    def matrix(self) -> np.ndarray:
        """Read-only (n_rows, 10) feature matrix in FEATURE_NAMES column order."""
        return self._matrix

    def labels(self) -> list[str]:
        return list(self.users)

    def user_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for uid in self.users:
            counts[uid] = counts.get(uid, 0) + 1
        return counts


def extract_features(trip: Trip) -> KinematicFeatures:
    """Compute the 10 kinematic statistics for one trip.

    Needs at least 3 strictly increasing timestamps so the acceleration
    sequence is nonempty. Absolute-acceleration statistics are taken over
    |a|; min_neg_accel is the plain minimum acceleration sample, so it is
    only negative when the trip actually decelerates somewhere. The
    duration is a Python int, as the timestamps are whole seconds.

    Raises:
        TooFewPoints, DuplicateTimestamp: propagated; callers drop the trip.
    """
    track = trip.points
    if len(track) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(track)}")
    v = speed_sequence(track.t, track.lat, track.lon)
    a = acceleration_sequence(track.t[1:], v)
    abs_a = np.abs(a)
    v_min = float(v.min())
    v_max = float(v.max())
    # Pairwise summation can overshoot the extremes by an ulp; keep the
    # mean inside [min, max] so the ordering invariant is exact.
    v_mean = min(max(float(v.mean()), v_min), v_max)
    return KinematicFeatures(
        duration_s=int(track.t[-1] - track.t[0]),
        max_speed=v_max,
        min_speed=v_min,
        max_pos_accel=float(a.max()),
        min_neg_accel=float(a.min()),
        mean_speed=v_mean,
        mean_abs_accel=float(abs_a.mean()),
        std_speed=float(v.std()),
        std_accel=float(a.std()),
        std_abs_accel=float(abs_a.std()),
    )


def quantile(values, q: float) -> float:
    """Quantile by linear interpolation between order statistics.

    For sorted values v of length n and h = (n-1)*q, returns
    v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]).

    Raises:
        EmptyInput: no values.
        ValueError: q outside [0, 1] or non-finite values.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("quantile of empty input")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError("quantile requires finite values")
    v = np.sort(values)
    h = (v.size - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, v.size - 1)
    return float(v[lo] + (h - lo) * (v[hi] - v[lo]))


def compute_iqr_bounds(rows: list[FeatureRow], multiplier: float = 1.5) -> IqrBounds:
    """Tukey fences per feature over all rows of all users pooled together.

    Raises:
        EmptyInput: no rows.
    """
    if not rows:
        raise EmptyInput("cannot compute bounds over zero rows")
    mat = _stack(rows)
    q1 = np.array([quantile(mat[:, j], 0.25) for j in range(mat.shape[1])])
    q3 = np.array([quantile(mat[:, j], 0.75) for j in range(mat.shape[1])])
    iqr = q3 - q1
    return IqrBounds(q1=q1, q3=q3, lower=q1 - multiplier * iqr, upper=q3 + multiplier * iqr)


def filter_outlier_trips(
    rows: list[FeatureRow], bounds: IqrBounds
) -> tuple[list[FeatureRow], dict[str, int]]:
    """Keep rows whose features all lie inside the closed per-feature fences.

    Returns the retained rows (order preserved) and per-feature drop
    counts; a row outside several fences increments each of them.
    """
    mat = _stack(rows)
    outside = (mat < bounds.lower) | (mat > bounds.upper)
    drops = dict(zip(FEATURE_NAMES, (int(n) for n in outside.sum(axis=0))))
    kept = [row for row, out in zip(rows, outside.any(axis=1)) if not out]
    return kept, drops


def filter_users(rows: list[FeatureRow], min_trips: int = 30) -> FeatureDataset:
    """Keep only rows belonging to users with at least min_trips rows."""
    before: dict[str, int] = {}
    for row in rows:
        before[row.user_id] = before.get(row.user_id, 0) + 1
    keep_users = {uid for uid, n in before.items() if n >= min_trips}
    kept = [row for row in rows if row.user_id in keep_users]
    prov = Provenance(
        below_min_trips_rows=len(rows) - len(kept),
        users_dropped=len(before) - len(keep_users),
        per_user_before=dict(sorted(before.items())),
        per_user_after={uid: before[uid] for uid in sorted(keep_users)},
    )
    return FeatureDataset(rows=kept, provenance=prov)


def build_feature_dataset(
    trips: list[Trip],
    min_trips: int = 30,
    iqr_multiplier: float = 1.5,
    labels_skipped: int = 0,
    duplicate_timestamps: int = 0,
) -> FeatureDataset:
    """Full reduction: extract features, drop IQR outliers, enforce min trips.

    Trips that are too short are dropped and counted, mirroring the removal
    of corrupted recordings. labels_skipped and duplicate_timestamps are
    the assembly counts, recorded in the provenance as given.
    """
    rows: list[FeatureRow] = []
    n_short = 0
    for trip in trips:
        try:
            feats = extract_features(trip)
        except TooFewPoints:
            n_short += 1
            continue
        rows.append(FeatureRow(trip.user_id, trip.modality, feats))

    if rows:
        bounds = compute_iqr_bounds(rows, multiplier=iqr_multiplier)
        kept, per_feature = filter_outlier_trips(rows, bounds)
    else:
        kept, per_feature = [], {name: 0 for name in FEATURE_NAMES}

    dataset = filter_users(kept, min_trips=min_trips)
    prov = dataset.provenance
    prov.labels_skipped = labels_skipped
    prov.duplicate_timestamps = duplicate_timestamps
    prov.too_few_points = n_short
    prov.iqr_dropped = len(rows) - len(kept)
    prov.iqr_dropped_per_feature = per_feature
    return dataset


def write_features_csv(dataset: FeatureDataset, path: str | Path) -> None:
    """Write rows as CSV with full double precision (repr round-trip)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in dataset.rows:
            writer.writerow(
                [row.user_id, row.modality]
                + [repr(getattr(row.features, name)) for name in FEATURE_NAMES]
            )
    tmp.replace(path)


def read_features_csv(source: str | Path | io.TextIOBase) -> FeatureDataset:
    """Read a feature CSV back into a dataset (provenance starts empty)."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return _read_features(fh)
    return _read_features(source)


def _read_features(fh) -> FeatureDataset:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise EmptyInput("feature CSV has no header")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected feature CSV header: {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(f"feature CSV row has {len(rec)} columns: {rec!r}")
        feats = KinematicFeatures(**{
            name: float(value) for name, value in zip(FEATURE_NAMES, rec[2:])
        })
        rows.append(FeatureRow(rec[0], rec[1], feats))
    return FeatureDataset(rows=rows)
