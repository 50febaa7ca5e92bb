import codecs
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta

import pytest

from tripkin.anomaly import TrialResult, run_anomaly_experiment
from tripkin.cli import main
from tripkin.features import FEATURE_NAMES, read_features_csv
from tripkin.learn import run_classification


STAMP = "%Y/%m/%d %H:%M:%S"


def make_profiles(path, n_users=3, trips=36, points_per_trip=20):
    speeds = (3.0, 12.0, 25.0, 40.0, 55.0)
    entries = [
        dict(
            user_id=f"{i:03d}",
            mean_cruise_speed=speeds[i % len(speeds)],
            speed_jitter=0.3,
            accel_scale=0.02,
            trips=trips,
            points_per_trip=points_per_trip,
            sampling_period=10.0,
            gps_noise_std=0.0,
        )
        for i in range(n_users)
    ]
    path.write_text(json.dumps(entries))
    return path


def rows_by_user(path):
    lines = path.read_text().splitlines()[1:]
    return {u: [r for r in lines if r.startswith(u + ",")] for u in ("000", "001", "002")}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    profiles = make_profiles(base / "profiles.json")
    assert main(["synth", "--profiles", str(profiles), "--out", str(base / "raw"), "--seed", "1"]) == 0
    return base


@pytest.fixture(scope="module")
def features_csv(corpus_dir):
    out = corpus_dir / "extracted"
    rc = main(
        ["extract", "--root", str(corpus_dir / "raw"), "--out", str(out), "--seed", "1"]
    )
    assert rc == 0
    return out / "features.csv"


class TestSynthCommand:
    def test_layout_and_label_counts(self, tmp_path):
        profiles = make_profiles(tmp_path / "p.json", n_users=2, trips=30)
        assert main(["synth", "--profiles", str(profiles), "--out", str(tmp_path / "c")]) == 0
        user_dirs = sorted((tmp_path / "c" / "Data").iterdir())
        assert [d.name for d in user_dirs] == ["000", "001"]
        labels = 0
        for d in user_dirs:
            labels += len((d / "labels.txt").read_text().splitlines()) - 1
            assert len(list((d / "Trajectory").glob("*.plt"))) == 30
        assert labels == 60

    def test_missing_profiles_file(self, tmp_path):
        assert main(["synth", "--profiles", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ([1, 2], "profile 1 must be a JSON object, got list"),
            (dict(bogus=1), "profile 1: unknown keys ['bogus']"),
            (dict(speed_jitter=None), "profile 1: missing keys ['speed_jitter']"),
            (dict(mean_cruise_speed="4"), "profile 1: key 'mean_cruise_speed' must be a finite number, got '4'"),
            (dict(sampling_period=False), "profile 1: key 'sampling_period' must be a finite number, got False"),
            (dict(gps_noise_std=float("nan")), "profile 1: key 'gps_noise_std' must be a finite number, got nan"),
            (dict(trips=2.5), "profile 1: key 'trips' must be an integer, got 2.5"),
            (dict(trips=True), "profile 1: key 'trips' must be an integer, got True"),
            (dict(user_id=1), "profile 1: key 'user_id' must be a string, got 1"),
            (dict(points_per_trip=2), "profile 1: points_per_trip must be at least 3"),
        ]
        + [
            (dict(user_id=uid), f"profile 1: user_id must be a plain directory name, got {uid!r}")
            for uid in ("../../escaped", "..", ".", "", "a/b", "a\\b", "a\0b")
        ],
    )
    def test_bad_profile_exits_1_writing_nothing(self, tmp_path, capsys, change, message):
        entries = json.loads(make_profiles(tmp_path / "p.json", n_users=2, trips=3).read_text())
        if isinstance(change, dict):  # a None value deletes the key
            change = {k: v for k, v in {**entries[1], **change}.items() if v is not None}
        entries[1] = change
        (tmp_path / "p.json").write_text(json.dumps(entries))
        out = tmp_path / "a" / "b" / "out"
        assert main(["synth", "--profiles", str(tmp_path / "p.json"), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["p.json"]


class TestExtractCommand:
    def test_produces_feature_csv(self, features_csv):
        dataset = read_features_csv(features_csv)
        counts = dataset.user_counts()
        assert set(counts) == {"000", "001", "002"}
        # Fences may trim a few extreme trips but never below the user floor.
        assert all(30 <= n <= 36 for n in counts.values())

    def test_missing_root_exits_2(self, tmp_path, capsys):
        assert main(["extract", "--root", str(tmp_path / "absent"), "--out", str(tmp_path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_summary_adds_up_to_the_written_rows(self, tmp_path, capsys):
        # Four users, the last with 10 trips, and one label shrunk to catch
        # exactly 2 fixes: every drop stage of the summary is nonzero.
        profiles = make_profiles(tmp_path / "p.json", n_users=4)
        entries = json.loads(profiles.read_text())
        entries[3]["trips"] = 10
        profiles.write_text(json.dumps(entries))
        root = tmp_path / "raw"
        assert main(["synth", "--profiles", str(profiles), "--out", str(root), "--seed", "1"]) == 0
        labels = root / "Data" / "000" / "labels.txt"
        header, first, *rest = labels.read_text().splitlines(keepends=True)
        start, _, mode = first.split("\t")
        end = datetime.strptime(start, STAMP) + timedelta(seconds=10)  # two fixes, 10 s apart
        labels.write_text("".join([header, "\t".join([start, f"{end:{STAMP}}", mode]), *rest]))
        capsys.readouterr()
        assert main(["extract", "--root", str(root), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out

        def count(pattern):
            return int(re.search(pattern, out).group(1))

        assembled = count(r"trips assembled: +(\d+)")
        too_few = count(r"dropped, too few points: +(\d+)")
        iqr = count(r"dropped, IQR outlier: +(\d+)")
        below = count(r"dropped, user below minimum: (\d+) rows / 1 users")
        final = count(r"final: (\d+) trips over 3 users")
        assert too_few == 1 and iqr > 0 and below > 0
        assert assembled - too_few - iqr - below == final
        assert final == len((tmp_path / "out" / "features.csv").read_text().splitlines()) - 1

    def test_reextract_is_identical(self, corpus_dir, features_csv):
        out2 = corpus_dir / "extracted-again"
        assert main(["extract", "--root", str(corpus_dir / "raw"), "--out", str(out2), "--seed", "1"]) == 0
        assert (out2 / "features.csv").read_bytes() == features_csv.read_bytes()

    def test_one_bad_plt_is_quarantined_not_fatal(self, corpus_dir, features_csv, tmp_path, capsys):
        root = tmp_path / "raw"
        shutil.copytree(corpus_dir / "raw", root)
        bad = sorted((root / "Data" / "001" / "Trajectory").glob("*.plt"))[5]
        with open(bad, "a") as fh:
            fh.write("garbage,line\n")
        capsys.readouterr()
        assert main(["extract", "--root", str(root), "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
        assert "quarantined files:           1\n" in capsys.readouterr().out

        before = rows_by_user(features_csv)
        after = rows_by_user(tmp_path / "out" / "features.csv")
        assert after["000"] == before["000"] and after["002"] == before["002"]
        assert len(after["001"]) == len(before["001"]) - 1

    def test_unreadable_plt_is_quarantined_not_fatal(self, corpus_dir, features_csv, tmp_path, capsys, caplog):
        root = tmp_path / "raw"
        shutil.copytree(corpus_dir / "raw", root)
        unreadable = root / "Data" / "001" / "Trajectory" / "zz.plt"
        unreadable.mkdir()
        capsys.readouterr()
        with caplog.at_level("WARNING", logger="tripkin.ingest"):
            assert main(["extract", "--root", str(root), "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
        assert "quarantined files:           1\n" in capsys.readouterr().out
        (entry,) = [r.getMessage() for r in caplog.records]
        assert entry.startswith(f"quarantined {unreadable}: [Errno 21] Is a directory")
        assert (tmp_path / "out" / "features.csv").read_bytes() == features_csv.read_bytes()

    def test_bad_labels_file_quarantines_only_that_user(self, corpus_dir, tmp_path, capsys):
        # The user is skipped as if absent: the output equals that of the
        # corpus without user 001 (the pooled IQR fences move with it).
        root, without = tmp_path / "raw", tmp_path / "without-001"
        shutil.copytree(corpus_dir / "raw", root)
        shutil.copytree(corpus_dir / "raw", without)
        shutil.rmtree(without / "Data" / "001")
        with open(root / "Data" / "001" / "labels.txt", "a") as fh:
            fh.write("not a label\n")
        capsys.readouterr()
        assert main(["extract", "--root", str(root), "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "labeled users loaded:        2\n" in out
        assert "quarantined files:           1\n" in out
        assert main(["extract", "--root", str(without), "--out", str(tmp_path / "ref"), "--seed", "1"]) == 0

        after = rows_by_user(tmp_path / "out" / "features.csv")
        expected = rows_by_user(tmp_path / "ref" / "features.csv")
        assert after == expected and after["000"] and after["002"] and not after["001"]

    def test_memory_does_not_grow_with_the_number_of_users(self, tmp_path):
        # Trips are featurized a user at a time: eight times the users of
        # one size must leave the traced peak within a quarter of itself.
        peaks = []
        for n_users in (2, 16):
            profiles = make_profiles(tmp_path / f"{n_users}.json", n_users=n_users, trips=6, points_per_trip=400)
            root, out = tmp_path / f"raw-{n_users}", tmp_path / f"out-{n_users}"
            assert main(["synth", "--profiles", str(profiles), "--out", str(root), "--seed", "1"]) == 0
            tracemalloc.start()
            try:
                assert main(["extract", "--root", str(root), "--out", str(out), "--min-trips", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_holds_one_user_at_a_time(self, tmp_path):
        # A user's archive and trips are released before the next user is
        # read, so four users of one size peak where one user does. Were the
        # previous user still live, four users would peak near 1.3 times one.
        peaks = []
        for n_users in (1, 4):
            profiles = make_profiles(tmp_path / f"{n_users}.json", n_users=n_users, trips=48, points_per_trip=600)
            root, out = tmp_path / f"raw-{n_users}", tmp_path / f"out-{n_users}"
            assert main(["synth", "--profiles", str(profiles), "--out", str(root), "--seed", "1"]) == 0
            assert main(["extract", "--root", str(root), "--out", str(out), "--min-trips", "1"]) == 0  # first-use imports
            tracemalloc.start()
            try:
                assert main(["extract", "--root", str(root), "--out", str(out), "--min-trips", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestClassifyCommand:
    EXPECTED = (
        "classification_report.json",
        "confusion_matrix.csv",
        "per_class_metrics.csv",
        "scatter_max_speed_vs_std_abs_accel.csv",
        "scatter_max_speed_vs_mean_speed.csv",
    )

    def test_writes_all_reports(self, features_csv, tmp_path):
        out = tmp_path / "cls"
        assert main(["classify", "--features", str(features_csv), "--out", str(out), "--seed", "2"]) == 0
        for name in self.EXPECTED:
            assert (out / name).is_file(), name
        report = json.loads((out / "classification_report.json").read_text())
        assert report["models"]["decision_tree"]["accuracy_mean"] >= 0.9
        matrix_rows = (out / "confusion_matrix.csv").read_text().splitlines()
        assert matrix_rows[0] == "true_user,predicted_user,count"
        assert len(matrix_rows) == 1 + 3 * 3
        per_class = (out / "per_class_metrics.csv").read_text().splitlines()
        assert per_class[0] == "user_id,trips,precision,recall"
        for line in per_class[1:]:
            user, _, precision, recall = line.split(",")
            assert float(precision) == report["per_class_precision"][user]
            assert float(recall) == report["per_class_recall"][user]
        # Every number is a plain float literal (no numpy repr such as
        # "np.float64(...)"), and the scatter columns are the dataset's.
        dataset = read_features_csv(features_csv)
        for line in features_csv.read_text().splitlines()[1:]:
            assert len([float(cell) for cell in line.split(",")[2:]]) == len(FEATURE_NAMES)
        for x_name, y_name in (("max_speed", "std_abs_accel"), ("max_speed", "mean_speed")):
            lines = (out / f"scatter_{x_name}_vs_{y_name}.csv").read_text().splitlines()
            assert lines[0] == f"user_id,{x_name},{y_name}"
            users, xs, ys = zip(*(line.split(",") for line in lines[1:]))
            assert list(users) == dataset.users.tolist()
            assert [float(x) for x in xs] == dataset.rows[:, FEATURE_NAMES.index(x_name)].tolist()
            assert [float(y) for y in ys] == dataset.rows[:, FEATURE_NAMES.index(y_name)].tolist()

    def test_deterministic_outputs(self, features_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["classify", "--features", str(features_csv), "--out", str(out), "--seed", "7"]) == 0
        for name in self.EXPECTED:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_report_is_the_library_document(self, features_csv, tmp_path):
        out = tmp_path / "cls"
        assert main(["classify", "--features", str(features_csv), "--out", str(out), "--seed", "2"]) == 0
        report = run_classification(read_features_csv(features_csv), 5, 2)
        assert json.loads((out / "classification_report.json").read_text()) == report
        order = report["class_order"]
        with open(out / "confusion_matrix.csv", newline="") as fh:
            confusion = [(t, p, int(n)) for t, p, n in list(csv.reader(fh))[1:]]
        assert confusion == [
            (t, p, n) for t, row in zip(order, report["confusion_matrix"]) for p, n in zip(order, row)
        ]
        with open(out / "per_class_metrics.csv", newline="") as fh:
            per_class = [(u, int(n), float(p), float(r)) for u, n, p, r in list(csv.reader(fh))[1:]]
        assert per_class == [
            (c, report["class_trip_counts"][c], report["per_class_precision"][c], report["per_class_recall"][c])
            for c in order
        ]

    def test_bad_fold_count_exits_1(self, features_csv, tmp_path, capsys):
        rc = main(["classify", "--features", str(features_csv), "--out", str(tmp_path), "--k-folds", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("std_speed", "nan", "error: features must be finite, got ["),
            ("duration_s", "0", "error: duration must be positive, got 0.0\n"),
        ],
    )
    def test_invalid_feature_value_exits_1(self, features_csv, tmp_path, capsys, column, value, message):
        header, first, *rest = features_csv.read_text().splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        cells[header.rstrip("\n").split(",").index(column)] = value
        bad = tmp_path / "features.csv"
        bad.write_text("".join([header, ",".join(cells) + "\n", *rest]))
        capsys.readouterr()
        rc = main(["classify", "--features", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("cell", ["1_200", "\uff13.0"])
    def test_loose_number_exits_1_naming_line_and_column(self, features_csv, tmp_path, capsys, cell):
        # float() reads these as 1200.0 and 3.0; the file is rejected instead.
        header, first, *rest = features_csv.read_text().splitlines(keepends=True)
        cells = first.split(",")
        cells[header.split(",").index("max_speed")] = cell
        bad = tmp_path / "features.csv"
        bad.write_text("".join([header, ",".join(cells), *rest]), encoding="utf-8")
        capsys.readouterr()
        assert main(["classify", "--features", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: feature CSV line 2, column max_speed: bad number {cell!r}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_features_file_exits_2(self, tmp_path):
        rc = main(["classify", "--features", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
        assert rc == 2


class TestAnomalyCommand:
    def test_writes_trials_and_summary(self, features_csv, tmp_path):
        out = tmp_path / "anom"
        rc = main(
            ["anomaly", "--features", str(features_csv), "--out", str(out), "--seed", "3", "--trials", "4"]
        )
        assert rc == 0
        trials = (out / "anomaly_trials.csv").read_text().splitlines()
        assert trials[0] == "subject_user,trial,seed,n_normal,n_anomaly,pr_auc_lof,pr_auc_random"
        assert len(trials) == 1 + 3 * 4
        summary = json.loads((out / "anomaly_summary.json").read_text())
        assert summary["n_trials"] == 12
        assert set(summary["lof"]) == {"mean", "std", "min", "median", "max"}
        per_user = (out / "anomaly_per_user.csv").read_text().splitlines()
        assert len(per_user) == 1 + 3

    def test_outputs_are_the_library_results(self, features_csv, tmp_path):
        out = tmp_path / "anom"
        rc = main(
            ["anomaly", "--features", str(features_csv), "--out", str(out), "--seed", "3", "--trials", "4"]
        )
        assert rc == 0
        trials, summary, per_user = run_anomaly_experiment(
            read_features_csv(features_csv), trials_per_user=4, seed=3
        )
        assert json.loads((out / "anomaly_summary.json").read_text()) == summary
        with open(out / "anomaly_trials.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == TrialResult._fields
        assert [
            TrialResult(u, int(t), int(s), int(n), int(a), float(lof), float(rnd))
            for u, t, s, n, a, lof, rnd in rows
        ] == trials
        with open(out / "anomaly_per_user.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(u, float(lof), float(rnd)) for u, lof, rnd in rows] == per_user

    def test_overflowing_feature_exits_1_writing_nothing(self, features_csv, tmp_path, capsys):
        # Six finite values whose squared differences overflow float64.
        header, *rows = features_csv.read_text().splitlines(keepends=True)
        column = header.rstrip("\n").split(",").index("mean_speed")
        for i, value in enumerate(("0", "1e200", "-1e200", "2e200", "3e200", "5.0")):
            cells = rows[i].rstrip("\n").split(",")
            cells[column] = value
            rows[i] = ",".join(cells) + "\n"
        bad = tmp_path / "features.csv"
        bad.write_text("".join([header, *rows]))
        out = tmp_path / "anom"
        capsys.readouterr()
        assert main(["anomaly", "--features", str(bad), "--out", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: column ") and stderr.count("\n") == 1
        assert not out.exists()

    def test_invalid_rate_exits_1(self, features_csv, tmp_path):
        rc = main(["anomaly", "--features", str(features_csv), "--out", str(tmp_path), "--rate", "1.5"])
        assert rc == 1

    def test_lof_k_above_every_trial_size_exits_1_writing_nothing(self, features_csv, tmp_path, capsys):
        out = tmp_path / "anom"
        rc = main(["anomaly", "--features", str(features_csv), "--out", str(out), "--lof-k", "200"])
        assert rc == 1
        assert "k=200" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "anomaly", "synth"])
def test_negative_seed_exits_1_creating_nothing(features_csv, tmp_path, capsys, command):
    source = ["--profiles", str(make_profiles(tmp_path / "p.json"))] if command == "synth" else ["--features", str(features_csv)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *source, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize("command", ["extract", "classify", "anomaly", "synth"])
def test_out_on_a_file_exits_2_creating_nothing(corpus_dir, features_csv, tmp_path, capsys, command, under):
    source = {
        "extract": ["--root", str(corpus_dir / "raw")],
        "synth": ["--profiles", str(make_profiles(tmp_path / "p.json"))],
    }.get(command, ["--features", str(features_csv)])
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *source, "--out", str(blocker / "out" if under else blocker)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("input error: ") and str(blocker) in stderr and stderr.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_failed_command_creates_no_out(tmp_path, capsys, command):
    if command == "extract":
        source, code, message = ["--root", str(tmp_path / "missing")], 2, "input error: no Data/ directory under "
    else:
        header_only = tmp_path / "features.csv"
        header_only.write_text(",".join(("user_id", "modality") + FEATURE_NAMES) + "\n")
        source, code, message = ["--features", str(header_only)], 1, "error: no training rows\n"
    out = tmp_path / "new" / "out"
    capsys.readouterr()
    assert main([command, *source, "--out", str(out)]) == code
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith(message)
    assert not (tmp_path / "new").exists()


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, tripkin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["extract", "anomaly"])
def test_command_loads_no_numpy_ma(corpus_dir, features_csv, tmp_path, command):
    # numpy.ma is imported lazily (np.unique and np.median import it); neither command needs it.
    source = ["--root", str(corpus_dir / "raw")] if command == "extract" else ["--features", str(features_csv)]
    code = "import sys, tripkin.cli; rc = tripkin.cli.main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-c", code, command, *source, "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_files_are_utf8_whatever_the_locale(corpus_dir, tmp_path):
    # parse_labels keeps a non-ASCII modality verbatim, so features.csv holds it.
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir / "raw", corpus)
    labels = corpus / "Data" / "000" / "labels.txt"
    header, *rows = labels.read_text(encoding="utf-8").splitlines()
    labels.write_text("\n".join([header, *(row.rsplit("\t", 1)[0] + "\tvélo" for row in rows)]) + "\n", encoding="utf-8")
    base = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    ascii_env = {**base, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    probe = [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"]
    encoding = subprocess.run(probe, env=ascii_env, capture_output=True, text=True, check=True).stdout.strip()
    if codecs.lookup(encoding).name != "ascii":
        pytest.skip(f"the C locale's encoding here is {encoding}, not ASCII")

    def tripkin(env, *argv):
        done = subprocess.run([sys.executable, "-m", "tripkin.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    for name, env in (("ascii", ascii_env), ("utf8", {**base, "PYTHONUTF8": "1"})):
        tripkin(env, "extract", "--root", str(corpus), "--out", str(tmp_path / name))
    features = tmp_path / "ascii" / "features.csv"
    for command in ("classify", "anomaly"):
        tripkin(ascii_env, command, "--features", str(features), "--out", str(tmp_path / "ascii"))
    assert list((tmp_path / "ascii").glob("*.tmp")) == []
    assert ",vélo,".encode() in features.read_bytes()
    assert features.read_bytes() == (tmp_path / "utf8" / "features.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, features_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "k_folds": 5, "iqr_mult": 2, "rate": 0.05}))
        out_cfg = tmp_path / "from-config"
        assert main(
            ["classify", "--features", str(features_csv), "--out", str(out_cfg), "--config", str(config)]
        ) == 0
        report = json.loads((out_cfg / "classification_report.json").read_text())
        assert report["seed"] == 9

        out_flag = tmp_path / "from-flag"
        assert main(
            [
                "classify", "--features", str(features_csv), "--out", str(out_flag),
                "--config", str(config), "--seed", "4",
            ]
        ) == 0
        report = json.loads((out_flag / "classification_report.json").read_text())
        assert report["seed"] == 4

    def test_unknown_config_key_exits_1(self, features_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        for values, message in (
            ({"bogus": 1}, "unknown config keys: ['bogus']"),
            ([1, 2], "config must be a JSON object, got list"),
            ("5", "config must be a JSON object, got str"),
            ({"k_folds": "5"}, "config key 'k_folds' must be an integer, got '5'"),
            ({"k_folds": True}, "config key 'k_folds' must be an integer, got True"),
            ({"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
            ({"seed": -1}, "--seed must be non-negative, got -1"),
            ({"lof_k": None}, "config key 'lof_k' must be an integer, got None"),
            ({"rate": "0.03"}, "config key 'rate' must be a number, got '0.03'"),
            ({"iqr_mult": False}, "config key 'iqr_mult' must be a number, got False"),
            ({"iqr_mult": float("nan")}, "--iqr-mult must be positive"),
        ):
            config.write_text(json.dumps(values))
            capsys.readouterr()
            rc = main(["classify", "--features", str(features_csv), "--out", str(tmp_path), "--config", str(config)])
            assert rc == 1, values
            assert capsys.readouterr().err == f"error: {message}\n"
