from datetime import datetime, timezone

import numpy as np
import pytest

from tripkin.geokinematics import Track
from tripkin.ingest import (
    EmptyFile,
    MalformedLine,
    MissingRoot,
    Trip,
    TripLabel,
    UserArchive,
    assemble_trips,
    format_labels,
    format_plt,
    iter_user_archives,
    parse_labels,
    parse_plt,
)

PLT_HEADER = "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n"


def plt_file(*rows: str) -> str:
    return PLT_HEADER + "".join(r + "\n" for r in rows)


class TestParsePlt:
    def test_single_line(self):
        track = parse_plt(plt_file("39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04"))
        expected_ts = int(datetime(2008, 10, 23, 2, 53, 4, tzinfo=timezone.utc).timestamp())
        assert track == Track([expected_ts], [39.984702], [116.318417])
        assert track.t.dtype == np.int64

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyFile):
            parse_plt(PLT_HEADER)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine) as err:
            parse_plt(plt_file("39.9,116.3,0,492,39744.1"))
        assert err.value.line_no == 7

    def test_undecodable_byte_reports_its_line(self):
        good = "39.9,116.3,0,492,39744.1,2008-10-23,02:53:0"
        data = plt_file(*[f"{good}{i}" for i in range(4)]).encode()
        bad = data.replace(b"02:53:02", b"02:\xff53:02")
        with pytest.raises(MalformedLine) as err:
            parse_plt(bad)
        assert err.value.line_no == 9
        assert str(err.value).startswith("line 9: undecodable bytes: 'utf-8' codec can't decode byte 0xff")

    def test_unparsable_date_rejects_file(self):
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("39.9,116.3,0,492,39744.1,2008-13-23,02:53:04"))
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("39.9,116.3,0,492,39744.1,2008-10-23,02:613:04"))
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("thirty,116.3,0,492,39744.1,2008-10-23,02:53:04"))

    @pytest.mark.parametrize(
        "lat_s, lon_s, date_s, time_s",
        (
            # int() reads "2_08" as 208
            pytest.param("39.9", "116.3", "2_08-01-01", "02:53:04", id="2_08-01-01-02:53:04"),
            # full-width digit two
            pytest.param("39.9", "116.3", "\uff12008-01-01", "02:53:04", id="\uff12008-01-01-02:53:04"),
            pytest.param("39.9", "116.3", "2008-01-01", "02:5\uff13:04", id="2008-01-01-02:5\uff13:04"),
            pytest.param("39.9", "116.3", "2008-01-01", "+2:53:04", id="2008-01-01-+2:53:04"),
            # float() reads both of these as 39.984702
            pytest.param("3_9.984702", "116.3", "2008-01-01", "02:53:04", id="lat-3_9.984702"),
            pytest.param("\uff13\uff19.984702", "116.3", "2008-01-01", "02:53:04", id="lat-full-width"),
            pytest.param("39.9", "11_6.3", "2008-01-01", "02:53:04", id="lon-11_6.3"),
            pytest.param("39.9", "\uff11\uff11\uff16.3", "2008-01-01", "02:53:04", id="lon-full-width"),
        ),
    )
    def test_non_ascii_digit_fields_reject_file(self, lat_s, lon_s, date_s, time_s):
        with pytest.raises(MalformedLine) as err:
            parse_plt(plt_file(f"{lat_s},{lon_s},0,492,39744.1,{date_s},{time_s}"))
        assert err.value.line_no == 7

    def test_first_bad_line_wins_when_field_lengths_cancel(self):
        # A 9- and a 7-character time field together span two 8-character
        # slots; the first line must still be the one reported.
        with pytest.raises(MalformedLine) as err:
            parse_plt(
                plt_file(
                    "39.9,116.3,0,0,0,2008-10-23,02:53:045",
                    "39.9,116.3,0,0,0,2008-10-23,02:53:0",
                )
            )
        assert str(err.value) == "line 7: bad time '02:53:045'"

    def test_out_of_range_coordinates_dropped(self):
        pts = parse_plt(
            plt_file(
                "400.0,116.3,0,0,0,2008-10-23,02:53:04",
                "39.9,116.3,0,0,0,2008-10-23,02:53:05",
                "nan,116.3,0,0,0,2008-10-23,02:53:06",
                "39.9,-inf,0,0,0,2008-10-23,02:53:07",
            )
        )
        assert len(pts) == 1 and pts.lat.tolist() == [39.9]

    def test_accepts_bytes_and_crlf(self):
        text = plt_file("39.9,116.3,0,0,0,2008-10-23,02:53:04").replace("\n", "\r\n")
        assert len(parse_plt(text.encode())) == 1

    def test_preserves_file_order(self):
        pts = parse_plt(
            plt_file(
                "39.9,116.3,0,0,0,2008-10-23,02:53:10",
                "39.8,116.2,0,0,0,2008-10-23,02:53:04",
            )
        )
        assert pts.lat.tolist() == [39.9, 39.8]

    def test_round_trip(self):
        original = plt_file(
            "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04",
            "39.984683,116.31845,0,492,39744.1202199074,2008-10-23,02:53:10",
            "40.0,-116.0,0,10,39744.2,2008-10-24,23:59:59",
        )
        first = parse_plt(original)
        assert parse_plt(format_plt(first)) == first


class TestParseLabels:
    def test_single_row(self):
        labels, dropped = parse_labels(
            "Start Time\tEnd Time\tTransportation Mode\n"
            "2008/04/02 11:24:21\t2008/04/02 11:50:45\ttrain\n"
        )
        assert dropped == 0
        expected_start = datetime(2008, 4, 2, 11, 24, 21, tzinfo=timezone.utc).timestamp()
        assert labels[0].start_time == expected_start
        assert labels[0].end_time - labels[0].start_time == 1584
        assert labels[0].modality == "train"

    def test_header_only(self):
        with pytest.raises(EmptyFile):
            parse_labels("Start Time\tEnd Time\tTransportation Mode\n")

    def test_end_before_start_dropped(self):
        labels, dropped = parse_labels(
            "h\n2008/04/02 11:50:45\t2008/04/02 11:24:21\twalk\n"
            "2008/04/02 12:00:00\t2008/04/02 12:30:00\tbus\n"
        )
        assert dropped == 1
        assert [lab.modality for lab in labels] == ["bus"]

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_labels("h\n2008/04/02 11:24:21\ttrain\n")

    def test_undecodable_byte_reports_its_line(self):
        data = "h\r\n2008/04/02 11:24:21\t2008/04/02 11:50:45\ttrain\r\n2008/04/03 08:00:00\t2008/04/03 09:10:11\twalk\r\n"
        with pytest.raises(MalformedLine) as err:
            parse_labels(data.encode().replace(b"walk", b"w\xc3lk"))
        assert err.value.line_no == 3
        assert str(err.value).startswith("line 3: undecodable bytes:")

    def test_unknown_modality_preserved_verbatim(self):
        labels, _ = parse_labels("h\n2008/04/02 11:24:21\t2008/04/02 11:50:45\thovercraft\n")
        assert labels[0].modality == "hovercraft"

    def test_round_trip(self):
        text = (
            "Start Time\tEnd Time\tTransportation Mode\n"
            "2008/04/02 11:24:21\t2008/04/02 11:50:45\ttrain\n"
            "2008/04/03 08:00:00\t2008/04/03 09:10:11\twalk\n"
            "0999/12/31 23:00:00\t0999/12/31 23:59:59\tbike\n"
        )
        labels, _ = parse_labels(text)
        assert labels[2].start_time == datetime(999, 12, 31, 23, tzinfo=timezone.utc).timestamp()
        assert format_labels(labels) == text
        assert parse_labels(format_labels(labels)) == (labels, 0)


class TestTripLabel:
    # 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z in epoch seconds.
    FIRST, LAST = -62_135_596_800, 253_402_300_799

    def test_accepts_the_writable_range_edges(self):
        labels = [
            TripLabel(self.FIRST, self.FIRST + 60, "walk"),
            TripLabel(self.LAST - 60, self.LAST, "bus"),
        ]
        text = format_labels(labels)
        assert "0001/01/01 00:00:00\t0001/01/01 00:01:00\twalk" in text
        assert "9999/12/31 23:58:59\t9999/12/31 23:59:59\tbus" in text
        assert parse_labels(text) == (labels, 0)

    def test_rejects_one_second_beyond_either_edge(self):
        for start, end in ((self.FIRST - 1, self.FIRST + 60), (self.LAST - 60, self.LAST + 1)):
            with pytest.raises(ValueError, match=r"\[0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z\]"):
                TripLabel(start, end, "walk")


def track(*times: int) -> Track:
    return Track(times, [39.9] * len(times), [116.3 + t * 1e-6 for t in times])


class TestAssembleTrips:
    def test_interval_membership(self):
        archive = UserArchive(
            "010",
            [track(50, 150, 160, 250)],
            [TripLabel(100, 200, "walk")],
        )
        trips, skipped, _ = assemble_trips(archive)
        assert skipped == 0
        assert trips[0].points.t.tolist() == [150, 160]

    def test_closed_interval_boundaries(self):
        archive = UserArchive(
            "010", [track(100, 200)], [TripLabel(100, 200, "walk")]
        )
        trips, _, _ = assemble_trips(archive)
        assert trips[0].points.t.tolist() == [100, 200]

    def test_too_few_points_skipped(self):
        archive = UserArchive(
            "010", [track(50, 250)], [TripLabel(100, 200, "walk")]
        )
        trips, skipped, _ = assemble_trips(archive)
        assert trips == [] and skipped == 1

    def test_merges_multiple_files_sorted(self):
        file_a = track(120, 140)
        file_b = track(110, 130, 150)
        archive = UserArchive("010", [file_a, file_b], [TripLabel(100, 200, "bike")])
        trips, _, duplicates = assemble_trips(archive)
        assert duplicates == 0
        stamps = trips[0].points.t.tolist()
        assert stamps == sorted(stamps) == [110, 120, 130, 140, 150]

    def test_duplicate_timestamps_keep_first(self):
        dup_a = (120, 10.0, 10.0)
        dup_b = (120, 20.0, 20.0)
        file_a = Track(*zip((110, 39.9, 116.3), dup_a))
        file_b = Track(*zip(dup_b, (130, 39.9, 116.3)))
        archive = UserArchive("010", [file_a, file_b], [TripLabel(100, 200, "bus")])
        trips, _, duplicates = assemble_trips(archive)
        pts = trips[0].points
        at_120 = [(t, lat, lon) for t, lat, lon in zip(pts.t.tolist(), pts.lat.tolist(), pts.lon.tolist()) if t == 120]
        assert at_120 == [dup_a]
        assert duplicates == 1

    def test_never_emits_points_outside_label(self):
        pts = track(*range(0, 500, 7))
        labels = [TripLabel(30, 90, "walk"), TripLabel(200, 260, "bus")]
        archive = UserArchive("010", [pts], labels)
        trips, _, _ = assemble_trips(archive)
        for trip, lab in zip(trips, labels):
            assert all(lab.start_time <= t <= lab.end_time for t in trip.points.t.tolist())
        total_emitted = sum(len(t.points) for t in trips)
        assert total_emitted <= len(pts)


class TestLoadDataset:
    def write_user(self, root, user_id, with_labels=True):
        traj = root / "Data" / user_id / "Trajectory"
        traj.mkdir(parents=True)
        (traj / "20081023025304.plt").write_text(format_plt(track(*range(0, 100, 10))))
        if with_labels:
            (root / "Data" / user_id / "labels.txt").write_text(
                format_labels([TripLabel(0, 60, "walk")])
            )

    def test_only_labeled_users_load(self, tmp_path):
        self.write_user(tmp_path, "000")
        self.write_user(tmp_path, "001", with_labels=False)
        self.write_user(tmp_path, "002")
        archives = list(iter_user_archives(tmp_path))
        assert [a.user_id for a in archives] == ["000", "002"]

    def test_archive_contents(self, tmp_path):
        self.write_user(tmp_path, "000")
        archive = list(iter_user_archives(tmp_path))[0]
        assert len(archive.trajectories) == 1
        assert len(archive.trajectories[0]) == 10
        assert len(archive.labels) == 1

    def test_empty_data_dir_warns_not_raises(self, tmp_path):
        (tmp_path / "Data").mkdir()
        assert list(iter_user_archives(tmp_path)) == []

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingRoot):
            list(iter_user_archives(tmp_path / "nope"))

    def test_malformed_plt_carries_path(self, tmp_path, caplog):
        # The bad file is quarantined with its path and line; the user's
        # good trajectory still loads.
        self.write_user(tmp_path, "000")
        bad = tmp_path / "Data" / "000" / "Trajectory" / "bad.plt"
        bad.write_text(PLT_HEADER + "1,2,3\n")
        with caplog.at_level("WARNING", logger="tripkin.ingest"):
            (archive,) = list(iter_user_archives(tmp_path))
        entry = f"{bad}: line 7: expected 7 fields, got 3"
        assert archive.quarantined == (entry,)
        assert len(archive.trajectories) == 1 and len(archive.trajectories[0]) == 10
        assert [r.levelname for r in caplog.records if entry in r.getMessage()] == ["WARNING"]

    def test_empty_plt_is_quarantined(self, tmp_path):
        self.write_user(tmp_path, "000")
        self.write_user(tmp_path, "001")
        empty = tmp_path / "Data" / "001" / "Trajectory" / "empty.plt"
        empty.write_text(PLT_HEADER)
        first, second = list(iter_user_archives(tmp_path))
        assert first.quarantined == ()
        assert second.quarantined == (f"{empty}: no data lines after the 6-line header",)
        assert len(second.trajectories) == 1

    def test_malformed_labels_are_quarantined(self, tmp_path, caplog):
        # The user is skipped with its path and line on record; the other
        # users load as usual.
        self.write_user(tmp_path, "000")
        self.write_user(tmp_path, "001")
        labels = tmp_path / "Data" / "000" / "labels.txt"
        labels.write_text("header\nnot a label\n")
        with caplog.at_level("WARNING", logger="tripkin.ingest"):
            bad, good = iter_user_archives(tmp_path)
        entry = f"{labels}: line 2: expected 3 tab-separated fields, got 1"
        assert bad == UserArchive("000", [], [], (entry,))
        assert good.user_id == "001" and good.quarantined == () and len(good.trajectories) == 1
        assert [r.levelname for r in caplog.records if entry in r.getMessage()] == ["WARNING"]

    def test_deterministic(self, tmp_path):
        for uid in ("000", "001", "002"):
            self.write_user(tmp_path, uid)
        first = list(iter_user_archives(tmp_path))
        second = list(iter_user_archives(tmp_path))
        assert first == second


def test_trip_constructor_enforces_order():
    with pytest.raises(ValueError):
        Trip("000", "walk", track(2, 1))
    with pytest.raises(ValueError):
        Trip("000", "walk", track(1, 1))
    with pytest.raises(ValueError):
        Trip("000", "walk", track(1))
