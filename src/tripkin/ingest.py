"""Geolife-format ingestion: PLT trajectory files, label files, trip assembly.

The on-disk layout is ``root/Data/<user_id>/Trajectory/*.plt`` plus an
optional ``root/Data/<user_id>/labels.txt`` per user. Only users with a
label file (and at least one valid label) are loadable; the label
intervals replace any trip segmentation of the raw traces.

All times are parsed from the date/time text fields and treated as UTC,
which is the dataset's convention. The fractional-days field is ignored
on read (the text fields are exact to the second) but still emitted on
write so serialized files keep the 7-field shape.

A trajectory file is parsed a column at a time: each check runs over all
of the file's fields at once and yields the index of its first failing
line, and the earliest of those lines is reported with the reason the
per-field checks give for it. A user's small files are parsed in batches
of about _BATCH_BYTES, one column pass per batch; a batch that fails is
parsed again file by file, so each bad file is still reported alone.
"""

from __future__ import annotations

import logging
import os
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .geokinematics import T_MAX, T_MIN, T_RANGE, Track

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

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class EmptyFile(ValueError):
    """The file has no data lines."""


class MissingRoot(FileNotFoundError):
    """The dataset root does not have the expected Data/ directory."""


@dataclass(frozen=True, slots=True)
class TripLabel:
    """One labeled trip interval: [start_time, end_time] plus a modality token.

    Both times must lie in years 1-9999, the range labels.txt can hold.
    """

    start_time: float
    end_time: float
    modality: str

    def __post_init__(self) -> None:
        if not self.start_time < self.end_time:
            raise ValueError(
                f"label start {self.start_time!r} must precede end {self.end_time!r}"
            )
        if not (T_MIN <= self.start_time and self.end_time <= T_MAX):
            raise ValueError(f"label times out of range {T_RANGE}")


@dataclass(frozen=True)
class Trip:
    """A user-attributed, modality-labeled track of at least 2 strictly time-ordered fixes."""

    user_id: str
    modality: str
    points: Track

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"trip needs at least 2 points, got {len(self.points)}")
        t = self.points.t
        if not (t[1:] > t[:-1]).all():
            raise ValueError("trip points must be strictly ascending in time")


@dataclass(frozen=True)
class UserArchive:
    """Everything loaded for one user: raw trajectories plus sorted labels.

    Each track in trajectories holds the points of one or more of the
    user's .plt files, parsed together; the tracks, in order, give every
    loaded file's points in file-name order.
    quarantined holds one "path: line N: reason" (or "path: OS error")
    entry per file that failed to parse or read: a trajectory file left out
    of trajectories, the Trajectory directory if it could not be listed,
    or the labels.txt, in which case labels and trajectories are both empty.
    """

    user_id: str
    trajectories: list[Track]
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
    # Label files repeat a handful of dates many times.
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


def _coordinate(s: str) -> float:
    # float() alone would also take "_" separators and non-ASCII digits.
    if not s.isascii() or "_" in s:
        raise ValueError(f"bad coordinate {s!r}")
    return float(s)


def _line_fault(line: str) -> str:
    """Why a PLT data line is malformed, checking its fields in file order."""
    fields = line.split(",")
    if len(fields) != 7:
        return f"expected 7 fields, got {len(fields)}"
    try:
        _coordinate(fields[0])
        _coordinate(fields[1])
        _epoch_seconds(fields[5], fields[6], "-")
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"no fault in flagged line {line!r}")


def _interleave(a: list[str], b: list[str]) -> list[str]:
    pairs = [""] * (2 * len(a))
    pairs[0::2], pairs[1::2] = a, b
    return pairs


def _coordinates(lats: list[str], lons: list[str]) -> tuple[list[float], int]:
    """Latitude, longitude values row by row, and the first row with a bad field.

    Equivalent to mapping _coordinate over the fields, but its character
    checks run once over all of them.
    """
    fields = _interleave(lats, lons)
    n = len(fields)
    text = "".join(fields)
    if not text.isascii() or "_" in text:
        ascii_ = np.fromiter(map(str.isascii, fields), bool, n)
        plain = ~np.fromiter(map(str.__contains__, fields, repeat("_")), bool, n)
        n = _first_false(ascii_ & plain)
    values: list[float] = []
    try:
        values.extend(map(float, fields[:n]))
    except ValueError:
        pass  # values holds everything before the bad field
    return values, len(values) // 2


# One "YYYY-MM-DD,HH:MM:SS," slot of date/time text, byte by byte: the
# lowest byte allowed at each position and how far above it a byte may go
# (a digit, or the separator itself; a month, day, hour, minute or second
# cannot start above 1, 3, 2, 5 or 5), then each digit's place value in
# the number YYYYMMDDHH and in the seconds past the hour.
_STAMP_LO = np.frombuffer(b"0000-00-00,00:00:00,", np.uint8)
_STAMP_SPAN = np.frombuffer(b"9999-19-39,29:59:59,", np.uint8) - _STAMP_LO
_STAMP_PLACES = np.zeros((20, 2), np.int64)
_STAMP_PLACES[[0, 1, 2, 3, 5, 6, 8, 9, 11, 12], 0] = [10**9, 10**8, 10**7, 10**6, 10**5, 10**4, 1000, 100, 10, 1]
_STAMP_PLACES[[14, 15, 17, 18], 1] = [600, 60, 10, 1]
_STAMP_ZERO = ord("0") * _STAMP_PLACES.sum(axis=0)
_NO_HOUR = np.iinfo(np.int64).min
_COORDINATE_LIMITS = np.array([90.0, 180.0])

# Trajectory files smaller than this are joined into parse batches of about
# this many bytes; see _load_user.
_BATCH_BYTES = 16 * 1024


@lru_cache(maxsize=4096)
def _hour_start(yyyymmddhh: int) -> int:
    """Epoch seconds at the start of the hour written as YYYYMMDDHH, or _NO_HOUR."""
    day, hour = divmod(yyyymmddhh, 100)
    try:
        days = date(day // 10000, day // 100 % 100, day % 100).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return _NO_HOUR
    return days * 86400 + hour * 3600 if hour < 24 else _NO_HOUR


def _timestamps(dates: list[str], times: list[str]) -> tuple[np.ndarray, int]:
    """Epoch seconds of paired 'YYYY-MM-DD' and 'HH:MM:SS' fields, and the
    index of the first bad pair.

    Each pair becomes one 20-byte "date,time," slot. No field holds a
    comma and every character becomes one byte, so a slot whose bytes are
    in bounds has its commas, and hence its fields' lengths, where they
    belong, and so does every slot before it. ``datetime.date`` decides
    calendar validity, once per distinct date and hour.
    """
    n = len(dates)
    buf = np.frombuffer((",".join(_interleave(dates, times)) + ",").encode("ascii", "replace"), np.uint8)
    slots = buf[: 20 * min(n, len(buf) // 20)].reshape(-1, 20)
    yyyymmddhh, seconds = (np.dot(slots, _STAMP_PLACES) - _STAMP_ZERO).T
    hour_start = np.array(list(map(_hour_start, yyyymmddhh.tolist())), np.int64)
    first = _first_false(hour_start != _NO_HOUR)
    out_of_bounds = np.flatnonzero((slots - _STAMP_LO) > _STAMP_SPAN)
    if out_of_bounds.size:
        first = min(first, int(out_of_bounds[0]) // 20)
    return hour_start + seconds, first


def _first_false(ok: np.ndarray) -> int:
    return len(ok) if ok.all() else int(np.argmin(ok))


def _decode(data: bytes | str) -> str:
    """UTF-8 text of a file; bad bytes raise MalformedLine for the line holding the first one.

    Lines are numbered from 1 as ``str.splitlines`` splits them, which is
    how the parsers number them.
    """
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedLine(line_no, f"undecodable bytes: {exc}") from None


def parse_plt(*files: bytes | str) -> Track:
    """Parse one or more Geolife .plt trajectory files into one track, in file order.

    Each file's first 6 lines are header and are skipped, as are blank
    lines. Each data line has 7 comma-separated fields: latitude,
    longitude, 0, altitude in feet, fractional days since 1899-12-30, date
    "YYYY-MM-DD", time "HH:MM:SS". Fields 3-5 are ignored; coordinates take
    ASCII characters only (no "_" separators). Lines whose coordinates fall
    outside the valid latitude/longitude ranges (NaN included) are dropped
    (GPS junk observed in the wild) and logged once per file with that
    file's count; structural corruption rejects the whole call instead.

    Several files are parsed in one column pass over their joined data
    lines, which saves the fixed cost of a call per small file. The result
    is the per-file tracks concatenated; if any file would fail alone, the
    call raises, and the caller parses the files one at a time to learn
    which failed.

    Raises:
        MalformedLine: wrong field count or unparsable numbers/dates, for
            the first such line, numbered within its file.
        EmptyFile: a file has no data lines after the header.
    """
    lines: list[str] = []
    starts: list[int] = []  # each file's first line in lines
    for data in files:
        body = _decode(data).splitlines()[PLT_HEADER_LINES:]
        if not any(map(str.strip, body)):
            raise EmptyFile("no data lines after the 6-line header")
        starts.append(len(lines))
        lines += body
    commas = list(map(str.count, lines, repeat(",")))
    rows: range | list[int] = range(len(lines))
    wrong: list[int] = []
    lines_of = lines
    if commas.count(6) < len(lines):  # set aside blank and malformed lines
        rows = [i for i, c in enumerate(commas) if c == 6]
        wrong = [i for i, c in enumerate(commas) if c != 6 and lines[i].strip()]
        lines_of = [lines[i] for i in rows]
    fields = ",".join(lines_of).split(",") if lines_of else []
    coordinates, coordinates_bad = _coordinates(fields[0::7], fields[1::7])
    t, stamp_bad = _timestamps(fields[5::7], fields[6::7])
    first_bad = min(coordinates_bad, stamp_bad)
    bad_lines = wrong[:1] + ([rows[first_bad]] if first_bad < len(rows) else [])
    if bad_lines:
        i = min(bad_lines)
        start = starts[bisect_right(starts, i) - 1]
        raise MalformedLine(PLT_HEADER_LINES + 1 + i - start, _line_fault(lines[i]))
    lat_lon = np.array(coordinates, np.float64).reshape(-1, 2)
    in_range = np.abs(lat_lon) <= _COORDINATE_LIMITS  # False for NaN
    keep = in_range[:, 0] & in_range[:, 1]
    if not keep.all():
        dropped_lines = np.asarray(rows)[~keep]
        file_of = np.searchsorted(starts, dropped_lines, "right") - 1
        for n_out_of_range in np.bincount(file_of, minlength=len(starts)).tolist():
            if n_out_of_range:
                log.warning("dropped %d point(s) with out-of-range coordinates", n_out_of_range)
        t, lat_lon = t[keep], lat_lon[keep]
    return Track._of(t, lat_lon[:, 0], lat_lon[:, 1])


def format_plt(track: Track) -> str:
    """Render a track back into .plt text (whole-second timestamps)."""
    t = track.t
    # "YYYY-MM-DDTHH:MM:SS" (years 1-9999 take four digits), then "," for "T".
    stamps = np.datetime_as_string(t.astype("datetime64[s]")).astype("U19")
    stamps.view(np.uint32).reshape(-1, 19)[:, 10] = ord(",")
    frac_days = t / 86400.0 + _EPOCH_OFFSET_DAYS
    columns = zip(track.lat.tolist(), track.lon.tolist(), frac_days.tolist(), stamps.tolist())
    return PLT_HEADER + "".join([f"{lat!r},{lon!r},0,0,{days!r},{stamp}\n" for lat, lon, days, stamp in columns])


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
        # %Y does not zero-pad years below 1000, which the parser requires.
        rows.append(
            f"{start.year:04d}/{start:%m/%d %H:%M:%S}\t{end.year:04d}/{end:%m/%d %H:%M:%S}\t{lab.modality}\n"
        )
    return LABELS_HEADER + "".join(rows)


def assemble_trips(archive: UserArchive) -> tuple[list[Trip], int, int]:
    """Intersect a user's point streams with their label intervals.

    All trajectories are merged and stably sorted by timestamp (so the
    trajectory-list order decides between exact-duplicate timestamps, of
    which only the first is kept). Each label then collects the points
    with start <= t <= end; labels catching fewer than 2 points are
    skipped. Returns the trips in label order, the skip count and the
    number of points dropped as duplicate timestamps.
    """
    tracks = archive.trajectories or [Track([], [], [])]
    t = np.concatenate([tr.t for tr in tracks])
    order = np.argsort(t, kind="stable")
    t = t[order]
    first = np.ones(len(t), bool)
    first[1:] = t[1:] != t[:-1]
    kept = order[first]
    merged = Track._of(
        t[first],
        np.concatenate([tr.lat for tr in tracks])[kept],
        np.concatenate([tr.lon for tr in tracks])[kept],
    )

    labels = archive.labels
    lo = np.searchsorted(merged.t, [lab.start_time for lab in labels], "left").tolist()
    hi = np.searchsorted(merged.t, [lab.end_time for lab in labels], "right").tolist()
    trips = [
        Trip(archive.user_id, lab.modality, merged[i:j])
        for lab, i, j in zip(labels, lo, hi)
        if j - i >= 2
    ]
    return trips, len(labels) - len(trips), len(t) - len(kept)


def iter_user_archives(root: str | Path) -> Iterator[UserArchive]:
    """Yield one UserArchive per labeled user under a Geolife-layout root.

    Users without a labels.txt, or whose label file holds no valid row,
    are skipped (and logged). A malformed, empty or unreadable .plt file,
    and a malformed or unreadable labels.txt, is quarantined: it is logged
    at WARNING as "path: line N: reason" (or "path: OS error") and
    recorded in the archive's ``quarantined``.
    The user's other trajectories load as usual; a user whose labels.txt
    is quarantined yields an archive with no labels and no trajectories.
    Small .plt files are parsed in batches (see _load_user) with the same
    quarantine entries, in the same order, as parsing each file alone.

    Raises:
        MissingRoot: ``root/Data`` is not a directory.
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
        except (MalformedLine, OSError) as exc:
            yield UserArchive(user_dir.name, [], [], (_quarantine(labels_path, exc),))
            continue
        if not labels:
            n_unlabeled += 1
            continue
        labels.sort(key=lambda lab: lab.start_time)
        # Built in a call, so this frame keeps no trajectories of a user
        # once it is yielded.
        yield _load_user(user_dir, labels)
    if n_unlabeled:
        log.info("skipped %d user(s) without usable labels", n_unlabeled)


def _load_user(user_dir: Path, labels: list[TripLabel]) -> UserArchive:
    """Read and parse a user's Trajectory/*.plt files in name order.

    Each file is read once. Files under _BATCH_BYTES are joined until their
    bytes reach it and parsed in one parse_plt call; a larger file is parsed
    alone. A batch that raises is parsed again file by file, so each
    quarantine entry, and its place in the order, is what parsing every
    file alone gives.
    """
    trajectories: list[Track] = []
    quarantined: list[str] = []
    traj_dir = user_dir / "Trajectory"
    names: list[str] = []
    if traj_dir.is_dir():
        try:
            # The names sorted(traj_dir.glob("*.plt")) gives, in its order.
            names = sorted(entry.name for entry in os.scandir(traj_dir) if entry.name.endswith(".plt"))
        except OSError as exc:
            quarantined.append(_quarantine(traj_dir, exc))
    batch: list[tuple[str, bytes]] = []
    size = 0
    for name in names:
        path = os.path.join(traj_dir, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            data = exc
        # An unreadable or large file ends the batch before it, so the
        # quarantine entries keep file order.
        if batch and (isinstance(data, OSError) or len(data) >= _BATCH_BYTES):
            _parse_batch(batch, trajectories, quarantined)
            batch, size = [], 0
        if isinstance(data, OSError):
            quarantined.append(_quarantine(path, data))
            continue
        batch.append((path, data))
        size += len(data)
        if size >= _BATCH_BYTES:
            _parse_batch(batch, trajectories, quarantined)
            batch, size = [], 0
    if batch:
        _parse_batch(batch, trajectories, quarantined)
    return UserArchive(user_dir.name, trajectories, labels, tuple(quarantined))


def _parse_batch(batch: list[tuple[str, bytes]], trajectories: list[Track], quarantined: list[str]) -> None:
    """Parse (path, bytes) pairs in one call, or else one at a time, quarantining each failure."""
    try:
        trajectories.append(parse_plt(*[data for _, data in batch]))
    except (MalformedLine, EmptyFile) as exc:
        if len(batch) == 1:
            quarantined.append(_quarantine(batch[0][0], exc))
        else:
            for one in batch:
                _parse_batch([one], trajectories, quarantined)


def _quarantine(path: str | Path, exc: Exception) -> str:
    entry = f"{path}: {exc}"
    log.warning("quarantined %s", entry)
    return entry
