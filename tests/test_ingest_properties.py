"""Property tests for the columnar PLT and label readers and their writers.

parse_plt and parse_labels check a whole file's fields at once; the
line-at-a-time parsers in oracles.py are the references they must agree
with, result for result and error message for error message. Given
several files, parse_plt must return what parsing each alone returns,
concatenated, or raise if any file fails alone.
"""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkin.geokinematics import T_MAX, T_MIN, Track
from tripkin.ingest import (
    LABELS_HEADER,
    PLT_HEADER,
    EmptyFile,
    MalformedLine,
    TripLabel,
    format_labels,
    format_plt,
    parse_labels,
    parse_plt,
)

from oracles import format_plt_datetime, parse_labels_lines, parse_plt_lines

FULL_WIDTH = "０１２３９"
FIELD_CHARS = "0123456789-:._+ e" + FULL_WIDTH + "x\t"

coordinate_text = st.one_of(
    st.floats(-200.0, 200.0).map(repr),
    st.floats(-200.0, 200.0).map(lambda x: f"{x:.6f}"),
    st.integers(-200, 200).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e300", " 39.9 ", "+.5", "39.", "3_9.9", "３９.9", "", "x"]),
    st.text(FIELD_CHARS, max_size=8),
)
date_text = st.one_of(
    st.dates().map(lambda d: f"{d:%Y-%m-%d}"),
    st.sampled_from(["2008-02-30", "2008-13-01", "0000-01-01", "2008/10/23", "2_08-01-01", "2008-1-01"]),
    st.text(FIELD_CHARS, min_size=9, max_size=11),
)
time_text = st.one_of(
    st.times().map(lambda t: f"{t:%H:%M:%S}"),
    st.sampled_from(["24:00:00", "23:60:00", "23:59:60", "+2:53:04", "2:53:04", "02:53:4 ", "02:53:04\x00"]),
    st.text(FIELD_CHARS, min_size=7, max_size=9),
)
other_field = st.text("0123456789.-x ", max_size=6)


blank_line = st.sampled_from(["", " ", "\t", "  \t "])
wrong_field_count = st.lists(other_field, min_size=1, max_size=9).filter(lambda f: len(f) != 7).map(",".join)


@st.composite
def valid_line(draw, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0)):
    date, time = draw(st.dates()), draw(st.times())
    # %Y does not zero-pad years below 1000, which the parser requires.
    return f"{draw(lat)!r},{draw(lon)!r},0,{draw(other_field)},0,{date.year:04d}-{date:%m-%d},{time:%H:%M:%S}"


@st.composite
def suspect_line(draw):
    fields = [draw(coordinate_text), draw(coordinate_text), "0", "0", "0", draw(date_text), draw(time_text)]
    return ",".join(fields)


@st.composite
def plt_file(draw):
    # Mostly good lines (some out of range, some blank), then up to two
    # suspect ones at random places, so both results and failures occur.
    lines = draw(
        st.lists(
            st.one_of(valid_line(), valid_line(), valid_line(st.floats(-200.0, 200.0)), blank_line),
            max_size=12,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.one_of(wrong_field_count, suspect_line()))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = PLT_HEADER.replace("\n", newline)
    if draw(st.booleans()):
        header = "\ufeff" + header
    text = header + newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode() if draw(st.booleans()) else text


def outcome(parse, data):
    try:
        result = parse(data)
    except (MalformedLine, EmptyFile) as exc:
        return type(exc), str(exc)
    if isinstance(result, Track):
        assert result.t.dtype == np.int64 and result.lat.dtype == np.float64
        return result.t.tolist(), result.lat.tolist(), result.lon.tolist()
    return result


@settings(max_examples=400, deadline=None)
@given(plt_file())
def test_parse_plt_matches_line_parser(data):
    assert outcome(parse_plt, data) == outcome(parse_plt_lines, data)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=300), st.text(max_size=300)))
def test_arbitrary_input_fails_only_as_the_line_parser_does(data):
    assert outcome(parse_plt, data) == outcome(parse_plt_lines, data)


@settings(max_examples=200, deadline=None)
@given(plt_file(), st.data())
def test_undecodable_byte_fails_on_its_line_as_the_line_parser_does(data, draw):
    raw = data.encode() if isinstance(data, str) else data
    at = draw.draw(st.integers(0, len(raw)))
    bad = raw[:at] + draw.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"])) + raw[at:]
    assert outcome(parse_plt, bad) == outcome(parse_plt_lines, bad)


@settings(max_examples=400, deadline=None)
@given(st.lists(plt_file(), min_size=1, max_size=5))
def test_several_files_parse_as_their_concatenated_parses(files):
    try:
        tracks = [parse_plt(data) for data in files]
    except (MalformedLine, EmptyFile):
        with pytest.raises((MalformedLine, EmptyFile)):
            parse_plt(*files)
        return
    batched = parse_plt(*files)
    for column in ("t", "lat", "lon"):
        expected = np.concatenate([getattr(track, column) for track in tracks])
        assert getattr(batched, column).dtype == expected.dtype
        assert getattr(batched, column).tobytes() == expected.tobytes()


fixes = st.lists(
    st.tuples(
        # Years 1-9999, every year that fits the four-digit date field.
        st.integers(-62_135_596_800, 253_402_300_799),
        st.floats(-90.0, 90.0),
        st.floats(-180.0, 180.0),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(fixes)
def test_format_then_parse_is_identity(rows):
    track = Track(*zip(*rows))
    text = format_plt(track)
    assert text == format_plt_datetime(*zip(*rows))
    assert parse_plt(text) == track
    assert parse_plt(text.replace("\n", "\r\n").encode()) == track


# A token parse_labels reads back verbatim: it splits rows on line breaks
# and fields on tabs, and strips each field.
modality_token = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t"), min_size=1, max_size=12
).filter(lambda s: s == s.strip() and s.splitlines() == [s])
trip_label = st.builds(
    lambda times, modality: TripLabel(*sorted(times), modality),
    st.lists(st.integers(T_MIN, T_MAX), min_size=2, max_size=2, unique=True),
    modality_token,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(trip_label, min_size=1, max_size=8))
def test_format_labels_then_parse_is_identity(labels):
    # synth.write_corpus writes every labels.txt through format_labels.
    text = format_labels(labels)
    assert parse_labels(text) == (labels, 0)
    assert parse_labels(text.encode()) == (labels, 0)


# What one damaged character of a stamp becomes: a digit that may break the
# calendar or a range, a wrong separator, a space, a byte no stamp holds, a
# non-ASCII digit, nothing, or two characters.
STAMP_DAMAGE = ["0", "1", "3", "9", "/", "-", ":", " ", "x", ",", "\x00", "０", "٣", "é", "", "00"]
# Whitespace that str.strip removes and str.splitlines does not split on.
PADDING = ["", " ", "  ", "\xa0", "\u3000"]


@st.composite
def damaged(draw, text):
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from(STAMP_DAMAGE)) + text[at + 1 :]


@st.composite
def label_stamp(draw, clean, t):
    moment = datetime.fromtimestamp(t, tz=timezone.utc)
    date_s, time_s, space = f"{moment.year:04d}/{moment:%m/%d}", f"{moment:%H:%M:%S}", " "
    damage = "" if clean else draw(st.sampled_from(["", "", "date", "time", "both", "space", "calendar"]))
    if damage == "calendar":
        date_s = draw(st.sampled_from(["2008/02/30", "2007/02/29", "2008/13/01", "2008/00/10", "2008/04/31", "0000/01/01"]))
    if damage in ("date", "both"):
        date_s = draw(damaged(date_s))
    if damage in ("time", "both"):
        time_s = draw(damaged(time_s))
    if damage == "space":
        space = draw(st.sampled_from(["", "  ", " \xa0"]))
    return draw(st.sampled_from(PADDING)) + date_s + space + time_s + draw(st.sampled_from(PADDING))


modality_text = st.one_of(
    st.sampled_from(["walk", "bus", "vélo", "taxi cab"]),
    st.text("abé ,/:0\xa0", max_size=5).filter(str.strip),
)


@st.composite
def label_line(draw, clean):
    # Mostly start < end; some start == end and some start > end.
    start = draw(st.integers(T_MIN, T_MAX))
    end = min(T_MAX, max(T_MIN, start + draw(st.sampled_from([-1, 0, 1, 3600, 10**6]))))
    start, end = draw(label_stamp(clean, start)), draw(label_stamp(clean, end))
    modality = draw(modality_text)
    if not clean and draw(st.integers(0, 4)) == 0:
        modality = draw(st.sampled_from(PADDING))
    fields = [start, end, draw(st.sampled_from(PADDING)) + modality]
    if not clean and draw(st.integers(0, 4)) == 0:
        fields = draw(st.sampled_from([fields[:1], fields[:2], fields + [modality]]))
    return "\t".join(fields)


@st.composite
def labels_file(draw):
    # Half the files hold only well-formed lines, so results as well as
    # failures are compared.
    clean = draw(st.booleans())
    lines = draw(st.lists(st.one_of(label_line(clean), label_line(clean), blank_line), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = LABELS_HEADER.rstrip("\n")
    if draw(st.booleans()):
        header = "\ufeff" + header
    text = newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):
        return text
    raw = text.encode()
    if draw(st.sampled_from([False] * 7 + [True])):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + raw[at:]
    return raw


def label_outcome(parse, data):
    try:
        labels, dropped = parse(data)
    except (MalformedLine, EmptyFile) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return [(lab.start_time, lab.end_time, lab.modality) if isinstance(lab, TripLabel) else lab for lab in labels], dropped


@settings(max_examples=600, deadline=None)
@given(labels_file())
def test_parse_labels_matches_line_parser(data):
    assert label_outcome(parse_labels, data) == label_outcome(parse_labels_lines, data)
