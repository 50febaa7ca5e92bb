"""Property tests for the columnar PLT reader and writer.

parse_plt checks a whole file's fields at once; the line-at-a-time
parser in oracles.py is the reference it must agree with, result for
result and error message for error message.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkin.geokinematics import Track
from tripkin.ingest import PLT_HEADER, EmptyFile, MalformedLine, format_plt, parse_plt

from oracles import format_plt_datetime, parse_plt_lines

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
