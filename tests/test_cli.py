import json
import os
import shutil
import subprocess
import sys

import pytest

from tripkin.cli import main
from tripkin.features import read_features_csv


def make_profiles(path, n_users=3, trips=36):
    speeds = (3.0, 12.0, 25.0, 40.0, 55.0)
    entries = [
        dict(
            user_id=f"{i:03d}",
            mean_cruise_speed=speeds[i % len(speeds)],
            speed_jitter=0.3,
            accel_scale=0.02,
            trips=trips,
            points_per_trip=20,
            sampling_period=10.0,
            gps_noise_std=0.0,
        )
        for i in range(n_users)
    ]
    path.write_text(json.dumps(entries))
    return path


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

        def rows_by_user(path):
            lines = path.read_text().splitlines()[1:]
            return {u: [r for r in lines if r.startswith(u + ",")] for u in ("000", "001", "002")}

        before = rows_by_user(features_csv)
        after = rows_by_user(tmp_path / "out" / "features.csv")
        assert after["000"] == before["000"] and after["002"] == before["002"]
        assert len(after["001"]) == len(before["001"]) - 1


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

    def test_deterministic_outputs(self, features_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["classify", "--features", str(features_csv), "--out", str(out), "--seed", "7"]) == 0
        for name in self.EXPECTED:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_fold_count_exits_1(self, features_csv, tmp_path, capsys):
        rc = main(["classify", "--features", str(features_csv), "--out", str(tmp_path), "--k-folds", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

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

    def test_invalid_rate_exits_1(self, features_csv, tmp_path):
        rc = main(["anomaly", "--features", str(features_csv), "--out", str(tmp_path), "--rate", "1.5"])
        assert rc == 1

    def test_lof_k_above_every_trial_size_exits_1_writing_nothing(self, features_csv, tmp_path, capsys):
        out = tmp_path / "anom"
        rc = main(["anomaly", "--features", str(features_csv), "--out", str(out), "--lof-k", "200"])
        assert rc == 1
        assert "k=200" in capsys.readouterr().err
        assert not any(out.iterdir())


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, tripkin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, features_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "k_folds": 5}))
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

    def test_unknown_config_key_exits_1(self, features_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        rc = main(["classify", "--features", str(features_csv), "--out", str(tmp_path), "--config", str(config)])
        assert rc == 1
