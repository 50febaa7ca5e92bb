"""Per-trip kinematic feature extraction and dataset reduction.

Each trip yields a 10-dimensional vector of speed/acceleration statistics
(equal-length trips are stacked and reduced as 2-D arrays). Trips that are
an outlier on any feature (outside the 1.5*IQR fences computed over all
users pooled) are then removed, and users left with too few trips dropped.
Standard deviations throughout are population (divide-by-N) values.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .geokinematics import acceleration_sequence, speed_sequence
from .ingest import Trip, parse_numbers

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

# Most points extract_features stacks at once: its memory is set by this, not by the trip count.
_BLOCK = 1 << 12


class EmptyInput(ValueError):
    """An operation received an empty collection."""


@dataclass(frozen=True)
class IqrBounds:
    """Per-feature quartiles and Tukey fences, aligned with FEATURE_NAMES."""

    q1: np.ndarray
    q3: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class Provenance:
    """Counts of the trips each feature-stage reduction dropped."""

    too_few_points: int = 0
    iqr_dropped: int = 0
    below_min_trips_rows: int = 0
    users_dropped: int = 0


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
        self._user_rows: Mapping[str, np.ndarray] | None = None
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

    def user_counts(self) -> dict[str, int]:
        """Rows per user, in order of first appearance."""
        return {user: len(rows) for user, rows in self.user_rows().items()}

    def user_rows(self) -> Mapping[str, np.ndarray]:
        """Each user's ascending row indices, in order of first appearance.

        Built on the first call and kept; the mapping and its arrays are read-only.
        """
        if self._user_rows is None:
            rows: dict[str, list[int]] = {}
            for i, user in enumerate(self.users.tolist()):
                rows.setdefault(user, []).append(i)
            self._user_rows = MappingProxyType(
                {user: _read_only(np.array(ix, dtype=np.intp)) for user, ix in rows.items()}
            )
        return self._user_rows


def extract_features(trips: Sequence[Trip]) -> np.ndarray:
    """The 10 kinematic statistics of each trip, one FEATURE_NAMES-ordered row per trip.

    Each trip needs at least 3 strictly increasing timestamps so the
    acceleration sequence is nonempty. Absolute-acceleration statistics are
    taken over |a|; min_neg_accel is the plain minimum acceleration sample,
    so it is only negative when the trip actually decelerates somewhere.
    Equal-length trips are reduced together, as (k, L) arrays of at most
    _BLOCK points, each row to the bits of the 1-D reductions of its trip.

    A Trip's timestamps are strictly ascending (Trip checks this, and
    assemble_trips keeps one fix per timestamp), so DuplicateTimestamp
    cannot arise from a trip built through Trip's constructor.

    Raises:
        TooFewPoints: a trip has fewer than 3 points (build_feature_dataset drops those).
    """
    by_length: dict[int, list[int]] = {}
    for i, trip in enumerate(trips):
        by_length.setdefault(len(trip.points), []).append(i)
    out = np.empty((len(trips), len(FEATURE_NAMES)))
    for length, rows in by_length.items():
        step = max(1, _BLOCK // length)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            t, lat, lon = (np.array([getattr(trips[i].points, c) for i in chunk]) for c in ("t", "lat", "lon"))
            v = speed_sequence(t, lat, lon)
            a = acceleration_sequence(t[:, 1:], v)
            abs_a = np.abs(a)
            v_min, v_max = v.min(axis=1), v.max(axis=1)
            v_mean, abs_a_mean = _mean(v), _mean(abs_a)
            # Pairwise summation can overshoot the extremes by an ulp; keep
            # the mean inside [min, max] so the ordering invariant is exact.
            v_mean_clamped = np.minimum(np.maximum(v_mean, v_min), v_max)
            out[chunk] = np.array((
                t[:, -1] - t[:, 0], v_max, v_min, a.max(axis=1), a.min(axis=1), v_mean_clamped, abs_a_mean,
                _std(v, v_mean), _std(a, _mean(a)), _std(abs_a, abs_a_mean),
            )).T
    return out


# np.mean/np.std along the last axis with the same sums and divisions, so the
# same bits, but without their per-call overhead, which dominates short trips.
def _mean(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _std(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    d = x - mean[..., None]
    d *= d
    return np.sqrt(_mean(d))


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


def filter_outlier_trips(rows: np.ndarray, bounds: IqrBounds) -> np.ndarray:
    """Boolean mask of the rows whose features all lie inside the closed per-feature fences."""
    return ((rows >= bounds.lower) & (rows <= bounds.upper)).all(axis=1)


def filter_users(users: np.ndarray, min_trips: int = 30) -> np.ndarray:
    """Boolean mask of the rows whose user owns at least min_trips of the rows."""
    ids = users.tolist()
    counts = Counter(ids)
    return np.array([counts[uid] >= min_trips for uid in ids], dtype=bool)


def build_feature_dataset(
    user_trips: Iterable[Sequence[Trip]], min_trips: int = 30, iqr_multiplier: float = 1.5
) -> FeatureDataset:
    """Full reduction: extract features, drop IQR outliers, enforce min trips.

    user_trips yields each user's trips, as assemble_trips returns them. It
    is iterated once, so a generator can supply them a user at a time: each
    user's trips are featurized in one call and only the feature rows are
    kept. Trips with fewer than 3 points are dropped and counted, mirroring
    the removal of corrupted recordings. The user filter counts only the
    rows inside the fences.
    """
    blocks, users, modalities = [], [], []
    n_short = 0
    for trips in user_trips:
        usable = [trip for trip in trips if len(trip.points) >= 3]
        n_short += len(trips) - len(usable)
        blocks.append(extract_features(usable))
        users += [trip.user_id for trip in usable]
        modalities += [trip.modality for trip in usable]
        del trips, usable  # release this user before the stream reads the next
    rows = np.concatenate(blocks) if blocks else np.empty((0, len(FEATURE_NAMES)))
    users = np.array(users, dtype=object)

    inside = np.ones(len(rows), dtype=bool)
    if len(rows):
        inside = filter_outlier_trips(rows, compute_iqr_bounds(rows, multiplier=iqr_multiplier))
    keep = inside.copy()
    keep[inside] = filter_users(users[inside], min_trips=min_trips)
    provenance = Provenance(
        too_few_points=n_short,
        iqr_dropped=len(rows) - int(inside.sum()),
        below_min_trips_rows=int(inside.sum() - keep.sum()),
        users_dropped=len(set(users[inside].tolist())) - len(set(users[keep].tolist())),
    )
    return FeatureDataset(rows[keep], users[keep], np.array(modalities, dtype=object)[keep], provenance)


def _format_duration(value: float) -> str:
    # Extracted durations are whole seconds and are written as integers.
    return repr(int(value)) if value.is_integer() else repr(value)


def write_features_csv(dataset: FeatureDataset, path: str | Path) -> None:
    """Write rows as CSV with full double precision (repr round-trip)."""
    columns = [dataset.users.tolist(), dataset.modalities.tolist()]
    for name, values in zip(FEATURE_NAMES, dataset.rows.T.tolist()):
        columns.append(map(_format_duration if name == "duration_s" else repr, values))
    write_csv(path, CSV_COLUMNS, zip(*columns))


def write_csv(path: str | Path, header, rows) -> None:
    """Stream a header and rows as CSV through open_atomic."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file at <path>.tmp, renamed over path after the block, or deleted if either fails."""
    tmp = Path(f"{path}.tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_features_csv(path: str | Path) -> FeatureDataset:
    """Read a UTF-8 feature CSV back into a dataset (provenance starts empty).

    Raises:
        ValueError: a wrong header or column count, or a feature cell that
            is not an ASCII number without "_" (named by line and column).
    """
    with open(path, encoding="utf-8", newline="") as fh:
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
            row, _ = parse_numbers(rec[2:])
            if len(row) < len(FEATURE_NAMES):
                name, cell = FEATURE_NAMES[len(row)], rec[2 + len(row)]
                raise ValueError(f"feature CSV line {reader.line_num}, column {name}: bad number {cell!r}")
            values += row
    return FeatureDataset(np.reshape(values, (len(users), len(FEATURE_NAMES))), users, modalities)
