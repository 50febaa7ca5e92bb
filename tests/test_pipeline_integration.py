"""End-to-end pipeline counting semantics on a handcrafted mini dataset.

The fixture packs the quirks a real archive exhibits: points split across
overlapping trajectory files, an exact-duplicate timestamp, a junk
out-of-range coordinate line, an invalid label row, a label catching no
points, trips too short to carry accelerations, and a user that falls
below the minimum trip count.
"""

import math
from datetime import datetime, timezone

import pytest

from tripkin.cli import main
from tripkin.features import FEATURE_NAMES, read_features_csv
from tripkin.geokinematics import EARTH_RADIUS_M

BASE = int(datetime(2008, 10, 23, tzinfo=timezone.utc).timestamp())
LON_DEG_PER_M = 1.0 / (EARTH_RADIUS_M * math.pi / 180.0)


def plt_row(t: int, lat: float, lon: float) -> str:
    stamp = datetime.fromtimestamp(t, tz=timezone.utc)
    return f"{lat!r},{lon!r},0,0,0,{stamp:%Y-%m-%d},{stamp:%H:%M:%S}"


def label_row(t0: int, t1: int, mode: str) -> str:
    a = datetime.fromtimestamp(t0, tz=timezone.utc)
    b = datetime.fromtimestamp(t1, tz=timezone.utc)
    return f"{a:%Y/%m/%d %H:%M:%S}\t{b:%Y/%m/%d %H:%M:%S}\t{mode}"


def trip_rows(start: int, meters_per_hop: float, n_points: int = 4) -> list[str]:
    return [
        plt_row(start + 10 * i, 0.0, i * meters_per_hop * LON_DEG_PER_M)
        for i in range(n_points)
    ]


PLT_HEADER = "h1\nh2\nh3\nh4\nh5\nh6\n"


@pytest.fixture()
def mini_root(tmp_path):
    root = tmp_path / "mini"

    # User 011: 35 identical-motion trips split over two overlapping
    # files, plus a junk coordinate row, a duplicate timestamp, a label
    # with no points, and one invalid label row.
    u1 = root / "Data" / "011"
    (u1 / "Trajectory").mkdir(parents=True)
    starts = [BASE + 1000 * j for j in range(35)]
    file_a: list[str] = []
    file_b: list[str] = []
    for j, start in enumerate(starts):
        (file_a if j < 18 else file_b).extend(trip_rows(start, 50.0))
    file_a.insert(3, plt_row(starts[0] + 15, 91.0, 0.0))  # junk latitude, dropped
    file_b.append(plt_row(starts[1] + 10, 5.0, 5.0))  # duplicate stamp, loses to file a
    (u1 / "Trajectory" / "a.plt").write_text(PLT_HEADER + "\n".join(file_a) + "\n")
    (u1 / "Trajectory" / "b.plt").write_text(PLT_HEADER + "\n".join(file_b) + "\n")
    labels = [label_row(s, s + 30, "walk") for s in starts]
    labels.append(label_row(BASE + 90_000, BASE + 90_001, "walk"))  # catches nothing
    labels.append(label_row(BASE + 95_000, BASE + 94_000, "walk"))  # end before start
    (u1 / "labels.txt").write_text("header\n" + "\n".join(labels) + "\n")

    # User 022: 31 labels, but two trips have only 2 points, leaving 29
    # full trips -> below the 30-trip floor, the whole user drops.
    u2 = root / "Data" / "022"
    (u2 / "Trajectory").mkdir(parents=True)
    rows: list[str] = []
    labels = []
    for j in range(31):
        start = BASE + 500_000 + 1000 * j
        n_points = 2 if j < 2 else 4
        rows.extend(trip_rows(start, 120.0, n_points=n_points))
        labels.append(label_row(start, start + 30, "bus"))
    (u2 / "Trajectory" / "c.plt").write_text(PLT_HEADER + "\n".join(rows) + "\n")
    (u2 / "labels.txt").write_text("header\n" + "\n".join(labels) + "\n")

    # User 033 has no labels.txt; user 044 has a header-only one.
    (root / "Data" / "033" / "Trajectory").mkdir(parents=True)
    (root / "Data" / "044").mkdir(parents=True)
    (root / "Data" / "044" / "labels.txt").write_text("header\n")
    return root


def test_extract_counts_every_drop_stage(mini_root, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extract", "--root", str(mini_root), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "labeled users loaded:        2" in stdout
    assert "labels with <2 points: 1" in stdout
    assert "dropped, too few points:     2" in stdout
    assert "dropped, IQR outlier:        0" in stdout
    assert "29 rows / 1 users" in stdout
    assert "final: 35 trips over 1 users" in stdout

    dataset = read_features_csv(out / "features.csv")
    assert dataset.user_counts() == {"011": 35}
    # Identical motion everywhere: the junk line and the duplicate stamp
    # must have been cut, or their trips would stand out.
    mat = dataset.matrix()
    assert (mat == mat[0]).all()
    feats = dict(zip(FEATURE_NAMES, dataset.rows[0].tolist()))
    assert feats["duration_s"] == 30.0
    assert feats["mean_speed"] == pytest.approx(5.0, rel=1e-9)


def test_rerun_into_same_directory_is_identical(mini_root, tmp_path):
    out = tmp_path / "out"
    assert main(["extract", "--root", str(mini_root), "--out", str(out)]) == 0
    first = (out / "features.csv").read_bytes()
    assert main(["extract", "--root", str(mini_root), "--out", str(out)]) == 0
    assert (out / "features.csv").read_bytes() == first
