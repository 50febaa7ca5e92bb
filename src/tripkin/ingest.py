"""Geolife-format ingestion: PLT trajectory files, label files, trip assembly.

The on-disk layout is ``root/Data/<user_id>/Trajectory/*.plt`` plus an
optional ``root/Data/<user_id>/labels.txt`` per user. Only users with a
label file (and at least one valid label) are loadable; the label
intervals replace any trip segmentation of the raw traces.

All times are parsed from the date/time text fields and treated as UTC,
which is the dataset's convention. The fractional-days field is ignored
on read (the text fields are exact to the second) but still emitted on
write so serialized files keep the 7-field shape.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .geokinematics import GpsPoint

log = logging.getLogger(__name__)

PLT_HEADER_LINES = 6
PLT_HEADER = (
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
)
LABELS_HEADER = "Start Time\tEnd Time\tTransportation Mode\n"

# Days from 1899-12-30 (the PLT fractional-day origin) to the Unix epoch.
_EPOCH_OFFSET_DAYS = 25569
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


class MalformedLine(ValueError):
    """A data line is structurally broken; the whole file is rejected."""

    def __init__(self, line_no: int, reason: str, source: str | None = None):
        self.line_no = line_no
        self.reason = reason
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}line {line_no}: {reason}")


class EmptyFile(ValueError):
    """The file has no data lines."""


class MissingRoot(FileNotFoundError):
    """The dataset root does not have the expected Data/ directory."""


@dataclass(frozen=True, slots=True)
class TripLabel:
    """One labeled trip interval: [start_time, end_time] plus a modality token."""

    start_time: float
    end_time: float
    modality: str

    def __post_init__(self) -> None:
        if not self.start_time < self.end_time:
            raise ValueError(
                f"label start {self.start_time!r} must precede end {self.end_time!r}"
            )


@dataclass(frozen=True)
class Trip:
    """A user-attributed, modality-labeled, strictly time-ordered point sequence."""

    user_id: str
    modality: str
    points: list[GpsPoint]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"trip needs at least 2 points, got {len(self.points)}")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.timestamp <= prev.timestamp:
                raise ValueError("trip points must be strictly ascending in time")


@dataclass(frozen=True)
class UserArchive:
    """Everything loaded for one user: raw trajectories plus sorted labels.

    quarantined holds one "path: line N: reason" entry per trajectory
    file that failed to parse and was left out of trajectories.
    """

    user_id: str
    trajectories: list[list[GpsPoint]]
    labels: list[TripLabel]
    quarantined: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for prev, cur in zip(self.labels, self.labels[1:]):
            if cur.start_time < prev.start_time:
                raise ValueError("labels must be sorted by start_time")


def _ascii_digits(s: str) -> bool:
    # int() alone would also take "_" separators, signs, spaces and
    # non-ASCII digits such as full-width ones.
    return s.isascii() and s.isdigit()


@lru_cache(maxsize=8192)
def _days_since_epoch(date_s: str, sep: str) -> int:
    # Trajectory files repeat a handful of dates millions of times.
    year, month, day = date_s[0:4], date_s[5:7], date_s[8:10]
    if (
        len(date_s) != 10
        or date_s[4] != sep
        or date_s[7] != sep
        or not _ascii_digits(year + month + day)
    ):
        raise ValueError(f"bad date {date_s!r}")
    return date(int(year), int(month), int(day)).toordinal() - _EPOCH_ORDINAL


def _epoch_seconds(date_s: str, time_s: str, sep: str) -> int:
    """Epoch seconds for a 'YYYY?MM?DD' + 'HH:MM:SS' pair, interpreted as UTC."""
    hh, mm, ss = time_s[0:2], time_s[3:5], time_s[6:8]
    if (
        len(time_s) != 8
        or time_s[2] != ":"
        or time_s[5] != ":"
        or not _ascii_digits(hh + mm + ss)
    ):
        raise ValueError(f"bad time {time_s!r}")
    hh, mm, ss = int(hh), int(mm), int(ss)
    if not (0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise ValueError(f"bad time {time_s!r}")
    return _days_since_epoch(date_s, sep) * 86400 + hh * 3600 + mm * 60 + ss


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(0, f"undecodable bytes: {exc}") from None


def parse_plt(data: bytes | str) -> list[GpsPoint]:
    """Parse one Geolife .plt trajectory file into points, preserving file order.

    The first 6 lines are header and are skipped. Each data line has 7
    comma-separated fields: latitude, longitude, 0, altitude in feet,
    fractional days since 1899-12-30, date "YYYY-MM-DD", time "HH:MM:SS".
    Fields 3-5 are ignored. Lines whose coordinates fall outside the valid
    latitude/longitude ranges are dropped (GPS junk observed in the wild);
    structural corruption rejects the whole file instead.

    Raises:
        MalformedLine: wrong field count or unparsable numbers/dates.
        EmptyFile: no data lines after the header.
    """
    lines = _decode(data).splitlines()
    points: list[GpsPoint] = []
    n_data = 0
    n_out_of_range = 0
    for line_no, line in enumerate(lines[PLT_HEADER_LINES:], start=PLT_HEADER_LINES + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise MalformedLine(line_no, f"expected 7 fields, got {len(fields)}")
        n_data += 1
        try:
            lat = float(fields[0])
            lon = float(fields[1])
            ts = _epoch_seconds(fields[5], fields[6], "-")
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            n_out_of_range += 1
            continue
        points.append(GpsPoint(ts, lat, lon))
    if n_data == 0:
        raise EmptyFile("no data lines after the 6-line header")
    if n_out_of_range:
        log.warning("dropped %d point(s) with out-of-range coordinates", n_out_of_range)
    return points


def format_plt(points: list[GpsPoint]) -> str:
    """Render points back into .plt text (timestamps truncated to whole seconds)."""
    rows = []
    for p in points:
        ts = int(p.timestamp)
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        frac_days = ts / 86400.0 + _EPOCH_OFFSET_DAYS
        rows.append(f"{p.latitude!r},{p.longitude!r},0,0,{frac_days!r},{dt:%Y-%m-%d},{dt:%H:%M:%S}\n")
    return PLT_HEADER + "".join(rows)


def parse_labels(data: bytes | str) -> tuple[list[TripLabel], int]:
    """Parse a labels.txt file into trip labels.

    The first line is a header; data lines are tab-separated
    "YYYY/MM/DD HH:MM:SS" start, same-format end, and a modality token.
    Unknown modality tokens are preserved verbatim. Rows whose start time
    is not before their end time are dropped and counted as the second
    element of the returned pair.

    Raises:
        MalformedLine: wrong field count or unparsable dates.
        EmptyFile: no data lines after the header.
    """
    lines = _decode(data).splitlines()
    labels: list[TripLabel] = []
    n_data = 0
    n_dropped = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        n_data += 1
        try:
            start = _parse_label_time(fields[0])
            end = _parse_label_time(fields[1])
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        modality = fields[2].strip()
        if not modality:
            raise MalformedLine(line_no, "empty modality token")
        if start >= end:
            n_dropped += 1
            continue
        labels.append(TripLabel(start, end, modality))
    if n_data == 0:
        raise EmptyFile("no data lines after the header")
    if n_dropped:
        log.warning("dropped %d label row(s) with start >= end", n_dropped)
    return labels, n_dropped


def _parse_label_time(stamp: str) -> int:
    parts = stamp.strip().split(" ")
    if len(parts) != 2:
        raise ValueError(f"bad timestamp {stamp!r}")
    return _epoch_seconds(parts[0], parts[1], "/")


def format_labels(labels: list[TripLabel]) -> str:
    """Render labels back into labels.txt text (whole-second times)."""
    rows = []
    for lab in labels:
        start = datetime.fromtimestamp(int(lab.start_time), tz=timezone.utc)
        end = datetime.fromtimestamp(int(lab.end_time), tz=timezone.utc)
        rows.append(f"{start:%Y/%m/%d %H:%M:%S}\t{end:%Y/%m/%d %H:%M:%S}\t{lab.modality}\n")
    return LABELS_HEADER + "".join(rows)


def assemble_trips(archive: UserArchive) -> tuple[list[Trip], int]:
    """Intersect a user's point streams with their label intervals.

    All trajectories are merged and stably sorted by timestamp (so the
    trajectory-list order decides between exact-duplicate timestamps, of
    which only the first is kept). Each label then collects the points
    with start <= t <= end; labels catching fewer than 2 points are
    skipped. Returns the trips in label order plus the skip count.
    """
    merged: list[GpsPoint] = []
    for traj in archive.trajectories:
        merged.extend(traj)
    merged.sort(key=lambda p: p.timestamp)
    deduped: list[GpsPoint] = []
    last_t: float | None = None
    for p in merged:
        if p.timestamp != last_t:
            deduped.append(p)
            last_t = p.timestamp
    times = [p.timestamp for p in deduped]

    trips: list[Trip] = []
    n_skipped = 0
    for lab in archive.labels:
        lo = bisect.bisect_left(times, lab.start_time)
        hi = bisect.bisect_right(times, lab.end_time)
        if hi - lo >= 2:
            trips.append(Trip(archive.user_id, lab.modality, deduped[lo:hi]))
        else:
            n_skipped += 1
    return trips, n_skipped


def iter_user_archives(root: str | Path) -> Iterator[UserArchive]:
    """Yield one UserArchive per labeled user under a Geolife-layout root.

    Users without a labels.txt, or whose label file holds no valid row,
    are skipped (and logged). A .plt file that is malformed or empty is
    quarantined: it is logged at WARNING as "path: line N: reason",
    recorded in the archive's ``quarantined`` and left out, while the
    user's other trajectories load as usual.

    Raises:
        MissingRoot: ``root/Data`` is not a directory.
        MalformedLine: a labels.txt is malformed; the error names its path.
    """
    data_dir = Path(root) / "Data"
    if not data_dir.is_dir():
        raise MissingRoot(f"no Data/ directory under {root}")
    user_dirs = sorted(p for p in data_dir.iterdir() if p.is_dir())
    if not user_dirs:
        log.warning("Data/ directory %s holds no user directories", data_dir)
        return
    n_unlabeled = 0
    for user_dir in user_dirs:
        labels_path = user_dir / "labels.txt"
        if not labels_path.is_file():
            n_unlabeled += 1
            continue
        try:
            labels, _ = parse_labels(labels_path.read_bytes())
        except EmptyFile:
            n_unlabeled += 1
            continue
        except MalformedLine as exc:
            raise MalformedLine(exc.line_no, exc.reason, source=str(labels_path)) from None
        if not labels:
            n_unlabeled += 1
            continue
        labels.sort(key=lambda lab: lab.start_time)

        trajectories: list[list[GpsPoint]] = []
        quarantined: list[str] = []
        traj_dir = user_dir / "Trajectory"
        if traj_dir.is_dir():
            for plt_path in sorted(traj_dir.glob("*.plt")):
                try:
                    trajectories.append(parse_plt(plt_path.read_bytes()))
                except (MalformedLine, EmptyFile) as exc:
                    quarantined.append(f"{plt_path}: {exc}")
                    log.warning("quarantined %s", quarantined[-1])
        yield UserArchive(user_dir.name, trajectories, labels, tuple(quarantined))
    if n_unlabeled:
        log.info("skipped %d user(s) without usable labels", n_unlabeled)


def load_dataset(root: str | Path) -> list[UserArchive]:
    """Load every labeled user under a Geolife-layout root (see iter_user_archives)."""
    return list(iter_user_archives(root))
