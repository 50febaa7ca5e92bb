"""Geolife-format ingestion: PLT trajectory files, label files, trip assembly.

The on-disk layout is ``root/Data/<user_id>/Trajectory/*.plt`` plus an
optional ``root/Data/<user_id>/labels.txt`` per user. Only users with a
label file (and at least one valid label) are loadable; the label
intervals, held as Labels columns in start order from parse_labels to
assemble_trips, replace any trip segmentation of the raw traces.

All times are parsed from the date/time text fields and treated as UTC,
which is the dataset's convention. The fractional-days field is ignored
on read (the text fields are exact to the second) but still emitted on
write so serialized files keep the 7-field shape.

Trajectory and label files are parsed a column at a time, with one kernel
per field grammar: parse_numbers (shared with the feature CSV reader) and
_timestamps, whose date separator is "-" in .plt files and "/" in
labels.txt. Each kernel yields the index of its first failing line, and
the earliest such line is reported with the reason the same kernels give
on that line alone, field by field in line order, the time before the
date. A user's small files are parsed in batches of about _BATCH_BYTES,
one column pass per batch; a batch that fails is parsed again file by
file, so each bad file is still reported alone.
"""

from __future__ import annotations

import logging
import os
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .geokinematics import Track

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


class Labels(NamedTuple):
    """A labels.txt's rows with start < end as three equal-length lists (arrays would make
    UserArchive's == ambiguous), in start order with ties in file order: start and end
    epoch seconds and the modality token."""

    start: list[int]
    end: list[int]
    modality: list[str]


@dataclass(frozen=True)
class Trip:
    """A user-attributed, modality-labeled track of at least 2 strictly time-ordered fixes.

    Its builders, assemble_trips and synth, make it so; it is not checked
    again here (extract_features raises TooFewPoints or DuplicateTimestamp).
    """

    user_id: str
    modality: str
    points: Track


@dataclass(frozen=True)
class UserArchive:
    """Everything loaded for one user: raw trajectories plus labels in start order.

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
    labels: Labels
    quarantined: tuple[str, ...] = ()


def _line_fault(line: str) -> str:
    """Why parse_plt rejects a data line: its kernels run on the line's fields in file order."""
    fields = line.split(",")
    if len(fields) != 7:
        return f"expected 7 fields, got {len(fields)}"
    values, error = parse_numbers(fields[:2])
    if len(values) < 2:
        return str(error) if error else f"bad coordinate {fields[len(values)]!r}"
    reason = _stamp_fault(fields[5], fields[6], "-")
    if reason is None:
        raise AssertionError(f"no fault in flagged line {line!r}")
    return reason


def _stamp_fault(date_s: str, time_s: str, sep: str) -> str | None:
    """Why _timestamps rejects a date and time pair, the time checked first, or None."""
    if _timestamps([f"1970{sep}01{sep}01"], [time_s], sep)[1] == 0:
        return f"bad time {time_s!r}"
    numbers, first = _stamp_numbers([date_s], ["00:00:00"], sep)
    if first == 0:
        return f"bad date {date_s!r}"
    try:
        _days(int(numbers[0, 0]) // 100)
    except ValueError as exc:  # the calendar's own reason
        return str(exc)
    return None


def _interleave(a: list[str], b: list[str]) -> list[str]:
    pairs = [""] * (2 * len(a))
    pairs[0::2], pairs[1::2] = a, b
    return pairs


def parse_numbers(fields: list[str]) -> tuple[list[float], ValueError | None]:
    """The float of each field up to the first that is not an ASCII number without "_"
    (which float() alone would take), and float's error for that field if its characters passed."""
    n = len(fields)
    text = "".join(fields)
    if not text.isascii() or "_" in text:
        ascii_ = np.fromiter(map(str.isascii, fields), bool, n)
        plain = ~np.fromiter(map(str.__contains__, fields, repeat("_")), bool, n)
        n = _first_false(ascii_ & plain)
    values: list[float] = []
    try:
        values.extend(map(float, fields[:n]))
    except ValueError as exc:
        return values, exc  # values holds everything before the bad field
    return values, None


# One "YYYY?MM?DD\nHH:MM:SS\n" slot of date/time text, byte by byte: the
# lowest byte allowed at each position and how far above it a byte may go
# (a digit, or the separator itself; an hour, minute or second cannot start
# above 2, 5 or 5, and datetime.date alone judges the date's digits), then
# each digit's place value in the number YYYYMMDDHH and in the seconds past
# the hour. Fields come from split lines, so none holds the "\n" joiner.
_STAMP_LO = {sep: np.frombuffer(f"0000{sep}00{sep}00\n00:00:00\n".encode(), np.uint8) for sep in "-/"}
_STAMP_SPAN = np.frombuffer(b"9999-99-99\n29:59:59\n", np.uint8) - _STAMP_LO["-"]
_STAMP_PLACES = np.zeros((20, 2), np.int64)
_STAMP_PLACES[[0, 1, 2, 3, 5, 6, 8, 9, 11, 12], 0] = [10**9, 10**8, 10**7, 10**6, 10**5, 10**4, 1000, 100, 10, 1]
_STAMP_PLACES[[14, 15, 17, 18], 1] = [600, 60, 10, 1]
_STAMP_ZERO = ord("0") * _STAMP_PLACES.sum(axis=0)
_NO_HOUR = np.iinfo(np.int64).min
_COORDINATE_LIMITS = np.array([90.0, 180.0])

# Trajectory files smaller than this are joined into parse batches of about
# this many bytes; see _load_user.
_BATCH_BYTES = 16 * 1024


def _days(yyyymmdd: int) -> int:
    """Days from the Unix epoch to the date written as YYYYMMDD; ValueError if there is no such date."""
    return date(yyyymmdd // 10000, yyyymmdd // 100 % 100, yyyymmdd % 100).toordinal() - _EPOCH_ORDINAL


@lru_cache(maxsize=4096)
def _hour_start(yyyymmddhh: int) -> int:
    """Epoch seconds at the start of the hour written as YYYYMMDDHH, or _NO_HOUR."""
    day, hour = divmod(yyyymmddhh, 100)
    try:
        days = _days(day)
    except ValueError:
        return _NO_HOUR
    return days * 86400 + hour * 3600 if hour < 24 else _NO_HOUR


def _stamp_numbers(dates: list[str], times: list[str], sep: str) -> tuple[np.ndarray, int]:
    """YYYYMMDDHH and seconds past the hour of each date and time pair, one row per whole 20-byte
    slot (date, newline, time, newline), and the index of the first pair whose bytes are out of bounds.

    Every character becomes one byte, so a slot whose bytes are in bounds has its joiners, and
    hence its fields' lengths, where they belong, and so does every slot before it.
    """
    n = len(dates)
    buf = np.frombuffer(("\n".join(_interleave(dates, times)) + "\n").encode("ascii", "replace"), np.uint8)
    slots = buf[: 20 * min(n, len(buf) // 20)].reshape(-1, 20)
    out_of_bounds = ((slots - _STAMP_LO[sep]) > _STAMP_SPAN).any(axis=1)
    return np.dot(slots, _STAMP_PLACES) - _STAMP_ZERO, _first_false(~out_of_bounds)


def _timestamps(dates: list[str], times: list[str], sep: str) -> tuple[np.ndarray, int]:
    """Epoch seconds of paired 'YYYY?MM?DD' (? being sep) and 'HH:MM:SS' fields, and the index of
    the first bad pair; ``datetime.date`` decides calendar validity, once per distinct date and hour."""
    numbers, first = _stamp_numbers(dates, times, sep)
    yyyymmddhh, seconds = numbers.T
    hour_start = np.array(list(map(_hour_start, yyyymmddhh.tolist())), np.int64)
    return hour_start + seconds, min(first, _first_false(hour_start != _NO_HOUR))


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
    coordinates, _ = parse_numbers(_interleave(fields[0::7], fields[1::7]))
    t, stamp_bad = _timestamps(fields[5::7], fields[6::7], "-")
    first_bad = min(len(coordinates) // 2, stamp_bad)
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


def _format_stamps(t, sep: str, joiner: str) -> list[str]:
    """'YYYY?MM?DD' + joiner + 'HH:MM:SS' text (? being sep) of whole-second epoch times in years 1-9999."""
    # numpy writes "YYYY-MM-DDTHH:MM:SS", each year in four digits.
    stamps = np.datetime_as_string(np.asarray(t, np.int64).astype("datetime64[s]")).astype("U19")
    chars = stamps.view(np.uint32).reshape(-1, 19)
    chars[:, [4, 7]] = ord(sep)
    chars[:, 10] = ord(joiner)
    return stamps.tolist()


def format_plt(track: Track) -> str:
    """Render a track back into .plt text (whole-second timestamps)."""
    frac_days = track.t / 86400.0 + _EPOCH_OFFSET_DAYS
    columns = zip(track.lat.tolist(), track.lon.tolist(), frac_days.tolist(), _format_stamps(track.t, "-", ","))
    return PLT_HEADER + "".join([f"{lat!r},{lon!r},0,0,{days!r},{stamp}\n" for lat, lon, days, stamp in columns])


def parse_labels(data: bytes | str) -> tuple[Labels, int]:
    """Parse a labels.txt file into label columns in start order.

    The first line is a header; data lines are tab-separated
    "YYYY/MM/DD HH:MM:SS" start, same-format end, and a modality token.
    Blank lines are skipped and fields are stripped. Unknown modality
    tokens are preserved verbatim. Rows whose start time is not before
    their end time are dropped and counted as the second element of the
    returned pair; the rest are stably sorted by start. Like parse_plt,
    it checks a column at a time.

    Raises:
        MalformedLine: wrong field count, unparsable stamps or an empty
            modality, for the first such line.
        EmptyFile: no data lines after the header.
    """
    lines = _decode(data).splitlines()
    where = [i for i, line in enumerate(lines) if i and line.strip()]
    if not where:
        raise EmptyFile("no data lines after the header")
    rows = [lines[i] for i in where]
    n = _first_false(np.array(list(map(str.count, rows, repeat("\t")))) == 2)
    fields = "\t".join(rows[:n]).split("\t") if n else []
    stamps = list(map(str.strip, _interleave(fields[0::3], fields[1::3])))
    n_stamps = _first_false(np.array(list(map(str.count, stamps, repeat(" ")))) == 1)
    parts = " ".join(stamps[:n_stamps]).split(" ") if n_stamps else []
    t, stamp_bad = _timestamps(parts[0::2], parts[1::2], "/")
    modalities = list(map(str.strip, fields[2::3]))
    first_bad = min(n, n_stamps // 2, stamp_bad // 2, modalities.index("") if "" in modalities else n)
    if first_bad < len(rows):
        raise MalformedLine(where[first_bad] + 1, _label_fault(rows[first_bad]))
    start, end = t.reshape(-1, 2).T
    kept = np.flatnonzero(start < end)
    order = kept[np.argsort(start[kept], kind="stable")]
    labels = Labels(start[order].tolist(), end[order].tolist(), [modalities[i] for i in order.tolist()])
    n_dropped = len(rows) - len(order)
    if n_dropped:
        log.warning("dropped %d label row(s) with start >= end", n_dropped)
    return labels, n_dropped


def _label_fault(line: str) -> str:
    """Why parse_labels rejects a data line: its kernels run on the line's fields in line order."""
    fields = line.split("\t")
    if len(fields) != 3:
        return f"expected 3 tab-separated fields, got {len(fields)}"
    for stamp in fields[:2]:
        parts = stamp.strip().split(" ")
        reason = _stamp_fault(*parts, "/") if len(parts) == 2 else f"bad timestamp {stamp!r}"
        if reason is not None:
            return reason
    if not fields[2].strip():
        return "empty modality token"
    raise AssertionError(f"no fault in flagged line {line!r}")


def format_labels(labels: Labels) -> str:
    """Render label columns back into labels.txt text (whole-second times), row by row."""
    stamps = _format_stamps(np.column_stack((labels.start, labels.end)).ravel(), "/", " ")
    rows = zip(stamps[0::2], stamps[1::2], labels.modality)
    return LABELS_HEADER + "".join([f"{start}\t{end}\t{modality}\n" for start, end, modality in rows])


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
    lo = np.searchsorted(merged.t, labels.start, "left").tolist()
    hi = np.searchsorted(merged.t, labels.end, "right").tolist()
    trips = [Trip(archive.user_id, modality, merged[i:j]) for modality, i, j in zip(labels.modality, lo, hi) if j - i >= 2]
    return trips, len(labels.start) - len(trips), len(t) - len(kept)


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
            yield UserArchive(user_dir.name, [], Labels([], [], []), (_quarantine(labels_path, exc),))
            continue
        if not labels.start:
            n_unlabeled += 1
            continue
        # Built in a call, so this frame keeps no trajectories of a user
        # once it is yielded.
        yield _load_user(user_dir, labels)
    if n_unlabeled:
        log.info("skipped %d user(s) without usable labels", n_unlabeled)


def _load_user(user_dir: Path, labels: Labels) -> UserArchive:
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
