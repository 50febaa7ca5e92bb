from datetime import datetime, timezone

import pytest

from tripkin.geokinematics import GpsPoint
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
    load_dataset,
    parse_labels,
    parse_plt,
)

PLT_HEADER = "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n"


def plt_file(*rows: str) -> str:
    return PLT_HEADER + "".join(r + "\n" for r in rows)


class TestParsePlt:
    def test_single_line(self):
        pts = parse_plt(plt_file("39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04"))
        expected_ts = datetime(2008, 10, 23, 2, 53, 4, tzinfo=timezone.utc).timestamp()
        assert pts == [GpsPoint(expected_ts, 39.984702, 116.318417)]

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyFile):
            parse_plt(PLT_HEADER)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine) as err:
            parse_plt(plt_file("39.9,116.3,0,492,39744.1"))
        assert err.value.line_no == 7

    def test_unparsable_date_rejects_file(self):
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("39.9,116.3,0,492,39744.1,2008-13-23,02:53:04"))
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("39.9,116.3,0,492,39744.1,2008-10-23,02:613:04"))
        with pytest.raises(MalformedLine):
            parse_plt(plt_file("thirty,116.3,0,492,39744.1,2008-10-23,02:53:04"))

    @pytest.mark.parametrize(
        "date_s, time_s",
        (
            ("2_08-01-01", "02:53:04"),  # int() reads "2_08" as 208
            ("\uff12008-01-01", "02:53:04"),  # full-width digit two
            ("2008-01-01", "02:5\uff13:04"),
            ("2008-01-01", "+2:53:04"),
        ),
    )
    def test_non_ascii_digit_fields_reject_file(self, date_s, time_s):
        with pytest.raises(MalformedLine):
            parse_plt(plt_file(f"39.9,116.3,0,492,39744.1,{date_s},{time_s}"))

    def test_out_of_range_coordinates_dropped(self):
        pts = parse_plt(
            plt_file(
                "400.0,116.3,0,0,0,2008-10-23,02:53:04",
                "39.9,116.3,0,0,0,2008-10-23,02:53:05",
            )
        )
        assert len(pts) == 1 and pts[0].latitude == 39.9

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
        assert [p.latitude for p in pts] == [39.9, 39.8]

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

    def test_unknown_modality_preserved_verbatim(self):
        labels, _ = parse_labels("h\n2008/04/02 11:24:21\t2008/04/02 11:50:45\thovercraft\n")
        assert labels[0].modality == "hovercraft"

    def test_round_trip(self):
        text = (
            "Start Time\tEnd Time\tTransportation Mode\n"
            "2008/04/02 11:24:21\t2008/04/02 11:50:45\ttrain\n"
            "2008/04/03 08:00:00\t2008/04/03 09:10:11\twalk\n"
        )
        labels, _ = parse_labels(text)
        assert format_labels(labels) == text


def point(t: float) -> GpsPoint:
    return GpsPoint(t, 39.9, 116.3 + t * 1e-6)


class TestAssembleTrips:
    def test_interval_membership(self):
        archive = UserArchive(
            "010",
            [[point(50), point(150), point(160), point(250)]],
            [TripLabel(100, 200, "walk")],
        )
        trips, skipped = assemble_trips(archive)
        assert skipped == 0
        assert [p.timestamp for p in trips[0].points] == [150, 160]

    def test_closed_interval_boundaries(self):
        archive = UserArchive(
            "010", [[point(100), point(200)]], [TripLabel(100, 200, "walk")]
        )
        trips, _ = assemble_trips(archive)
        assert [p.timestamp for p in trips[0].points] == [100, 200]

    def test_too_few_points_skipped(self):
        archive = UserArchive(
            "010", [[point(50), point(250)]], [TripLabel(100, 200, "walk")]
        )
        trips, skipped = assemble_trips(archive)
        assert trips == [] and skipped == 1

    def test_merges_multiple_files_sorted(self):
        file_a = [point(120), point(140)]
        file_b = [point(110), point(130), point(150)]
        archive = UserArchive("010", [file_a, file_b], [TripLabel(100, 200, "bike")])
        trips, _ = assemble_trips(archive)
        stamps = [p.timestamp for p in trips[0].points]
        assert stamps == sorted(stamps) == [110, 120, 130, 140, 150]

    def test_duplicate_timestamps_keep_first(self):
        dup_a = GpsPoint(120, 10.0, 10.0)
        dup_b = GpsPoint(120, 20.0, 20.0)
        archive = UserArchive(
            "010", [[point(110), dup_a], [dup_b, point(130)]], [TripLabel(100, 200, "bus")]
        )
        trips, _ = assemble_trips(archive)
        at_120 = [p for p in trips[0].points if p.timestamp == 120]
        assert at_120 == [dup_a]

    def test_never_emits_points_outside_label(self):
        pts = [point(float(t)) for t in range(0, 500, 7)]
        labels = [TripLabel(30, 90, "walk"), TripLabel(200, 260, "bus")]
        archive = UserArchive("010", [pts], labels)
        trips, _ = assemble_trips(archive)
        for trip, lab in zip(trips, labels):
            assert all(lab.start_time <= p.timestamp <= lab.end_time for p in trip.points)
        total_emitted = sum(len(t.points) for t in trips)
        assert total_emitted <= len(pts)


class TestLoadDataset:
    def write_user(self, root, user_id, with_labels=True):
        traj = root / "Data" / user_id / "Trajectory"
        traj.mkdir(parents=True)
        pts = [point(float(t)) for t in range(0, 100, 10)]
        (traj / "20081023025304.plt").write_text(format_plt(pts))
        if with_labels:
            (root / "Data" / user_id / "labels.txt").write_text(
                format_labels([TripLabel(0, 60, "walk")])
            )

    def test_only_labeled_users_load(self, tmp_path):
        self.write_user(tmp_path, "000")
        self.write_user(tmp_path, "001", with_labels=False)
        self.write_user(tmp_path, "002")
        archives = load_dataset(tmp_path)
        assert [a.user_id for a in archives] == ["000", "002"]

    def test_archive_contents(self, tmp_path):
        self.write_user(tmp_path, "000")
        archive = load_dataset(tmp_path)[0]
        assert len(archive.trajectories) == 1
        assert len(archive.trajectories[0]) == 10
        assert len(archive.labels) == 1

    def test_empty_data_dir_warns_not_raises(self, tmp_path):
        (tmp_path / "Data").mkdir()
        assert load_dataset(tmp_path) == []

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingRoot):
            load_dataset(tmp_path / "nope")

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
        first, second = load_dataset(tmp_path)
        assert first.quarantined == ()
        assert second.quarantined == (f"{empty}: no data lines after the 6-line header",)
        assert len(second.trajectories) == 1

    def test_malformed_labels_still_raise_with_path(self, tmp_path):
        self.write_user(tmp_path, "000")
        (tmp_path / "Data" / "000" / "labels.txt").write_text("header\nnot a label\n")
        with pytest.raises(MalformedLine) as err:
            list(iter_user_archives(tmp_path))
        assert "labels.txt: line 2" in str(err.value)

    def test_deterministic(self, tmp_path):
        for uid in ("000", "001", "002"):
            self.write_user(tmp_path, uid)
        first = load_dataset(tmp_path)
        second = load_dataset(tmp_path)
        assert first == second


def test_trip_constructor_enforces_order():
    with pytest.raises(ValueError):
        Trip("000", "walk", [point(2), point(1)])
    with pytest.raises(ValueError):
        Trip("000", "walk", [point(1)])
