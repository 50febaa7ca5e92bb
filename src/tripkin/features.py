"""Per-trip kinematic feature extraction and dataset reduction.

Each trip yields a 10-dimensional vector of speed/acceleration statistics.
The trip set is then reduced in two passes: trips that are an outlier on
any feature (outside the 1.5*IQR fences computed over all users pooled)
are removed, and users left with too few trips are dropped entirely.
Standard deviations throughout are population (divide-by-N) values.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
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


class EmptyInput(ValueError):
    """An operation received an empty collection."""


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class FeatureDataset:
    """Feature rows of trips plus the drop counts that produced them.

    rows is a read-only float64 (n, 10) matrix in FEATURE_NAMES column
    order; users and modalities are read-only object arrays of the row
    owners' ids and transport modes. Every value must be finite and every
    duration positive, whether the rows were extracted or read from CSV.

    Raises:
        ValueError: a non-finite value, a non-positive duration, or
            columns of unequal length.
    """

    def __init__(self, rows, users, modalities, provenance: Provenance | None = None) -> None:
        self.rows = _read_only(np.array(rows, dtype=float, order="C").reshape(len(rows), len(FEATURE_NAMES)))
        self.users = _read_only(np.array(users, dtype=object))
        self.modalities = _read_only(np.array(modalities, dtype=object))
        self.provenance = provenance if provenance is not None else Provenance()
        if not len(self.rows) == len(self.users) == len(self.modalities):
            raise ValueError(
                f"{len(self.rows)} feature rows but {len(self.users)} users "
                f"and {len(self.modalities)} modalities"
            )
        finite = np.isfinite(self.rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"features must be finite, got {self.rows[~finite][0]}")
        duration = self.rows[:, FEATURE_NAMES.index("duration_s")]
        if (duration <= 0).any():
            raise ValueError(f"duration must be positive, got {duration[duration <= 0][0].item()!r}")

    def matrix(self) -> np.ndarray:
        """The read-only (n_rows, 10) feature matrix, rows itself."""
        return self.rows

    def select(self, keep: np.ndarray) -> FeatureDataset:
        """The rows where the boolean mask keep is true, in order; empty provenance."""
        return FeatureDataset(self.rows[keep], self.users[keep], self.modalities[keep])

    def user_counts(self) -> dict[str, int]:
        """Rows per user, in order of first appearance."""
        return dict(Counter(self.users.tolist()))


def extract_features(trip: Trip) -> tuple[float, ...]:
    """Compute the 10 kinematic statistics for one trip, in FEATURE_NAMES order.

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
    return (
        int(track.t[-1] - track.t[0]),
        v_max,
        v_min,
        float(a.max()),
        float(a.min()),
        v_mean,
        float(abs_a.mean()),
        float(v.std()),
        float(a.std()),
        float(abs_a.std()),
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


def compute_iqr_bounds(matrix, multiplier: float = 1.5) -> IqrBounds:
    """Tukey fences per feature column over all rows of all users pooled together.

    Raises:
        EmptyInput: no rows.
    """
    mat = np.asarray(matrix, dtype=float)
    if len(mat) == 0:
        raise EmptyInput("cannot compute bounds over zero rows")
    q1 = np.array([quantile(mat[:, j], 0.25) for j in range(mat.shape[1])])
    q3 = np.array([quantile(mat[:, j], 0.75) for j in range(mat.shape[1])])
    iqr = q3 - q1
    return IqrBounds(q1=q1, q3=q3, lower=q1 - multiplier * iqr, upper=q3 + multiplier * iqr)


def filter_outlier_trips(
    dataset: FeatureDataset, bounds: IqrBounds
) -> tuple[FeatureDataset, dict[str, int]]:
    """Keep rows whose features all lie inside the closed per-feature fences.

    Returns the retained rows (order preserved) and per-feature drop
    counts; a row outside several fences increments each of them.
    """
    outside = (dataset.rows < bounds.lower) | (dataset.rows > bounds.upper)
    drops = dict(zip(FEATURE_NAMES, outside.sum(axis=0).tolist()))
    return dataset.select(~outside.any(axis=1)), drops


def filter_users(dataset: FeatureDataset, min_trips: int = 30) -> FeatureDataset:
    """Keep only rows belonging to users with at least min_trips rows."""
    before = dataset.user_counts()
    keep_users = sorted(uid for uid, n in before.items() if n >= min_trips)
    kept = dataset.select(np.isin(dataset.users, keep_users))
    kept.provenance = Provenance(
        below_min_trips_rows=len(dataset.rows) - len(kept.rows),
        users_dropped=len(before) - len(keep_users),
        per_user_before=dict(sorted(before.items())),
        per_user_after={uid: before[uid] for uid in keep_users},
    )
    return kept


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
    rows, users, modalities = [], [], []
    n_short = 0
    for trip in trips:
        try:
            rows.append(extract_features(trip))
        except TooFewPoints:
            n_short += 1
            continue
        users.append(trip.user_id)
        modalities.append(trip.modality)
    featurized = FeatureDataset(rows, users, modalities)

    if rows:
        bounds = compute_iqr_bounds(featurized.rows, multiplier=iqr_multiplier)
        kept, per_feature = filter_outlier_trips(featurized, bounds)
    else:
        kept, per_feature = featurized, {name: 0 for name in FEATURE_NAMES}

    dataset = filter_users(kept, min_trips=min_trips)
    prov = dataset.provenance
    prov.labels_skipped = labels_skipped
    prov.duplicate_timestamps = duplicate_timestamps
    prov.too_few_points = n_short
    prov.iqr_dropped = len(featurized.rows) - len(kept.rows)
    prov.iqr_dropped_per_feature = per_feature
    return dataset


def _format_duration(value: float) -> str:
    # Extracted durations are whole seconds and are written as integers.
    return repr(int(value)) if value.is_integer() else repr(value)


def write_features_csv(dataset: FeatureDataset, path: str | Path) -> None:
    """Write rows as CSV with full double precision (repr round-trip)."""
    path = Path(path)
    columns = [dataset.users.tolist(), dataset.modalities.tolist()]
    for name, values in zip(FEATURE_NAMES, dataset.rows.T.tolist()):
        columns.append(map(_format_duration if name == "duration_s" else repr, values))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))
    tmp.replace(path)


def read_features_csv(path: str | Path) -> FeatureDataset:
    """Read a feature CSV back into a dataset (provenance starts empty)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput("feature CSV has no header")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected feature CSV header: {header!r}")
        # One flat list of floats, parsed as each row is read, so the cell
        # strings of the whole file are never held at once.
        users, modalities, values = [], [], []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(CSV_COLUMNS):
                raise ValueError(f"feature CSV row has {len(rec)} columns: {rec!r}")
            users.append(rec[0])
            modalities.append(rec[1])
            values.extend(map(float, rec[2:]))
    return FeatureDataset(np.reshape(values, (len(users), len(FEATURE_NAMES))), users, modalities)
