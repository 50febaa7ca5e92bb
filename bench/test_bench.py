"""The benchmark's own test: its checks pass on real outputs and fail on planted faults.

Run with: python3 -m pytest -q bench/test_bench.py

A scaled-down corpus (4 users x 40 trips x 10 points) goes through the
same child-process runner the benchmark uses, so this takes seconds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil

import pytest

import checks
import run

PROFILES = [
    dict(user_id=f"{i:03d}", mean_cruise_speed=3.0 + 1.5 * i, speed_jitter=1.0, accel_scale=0.08,
         trips=40, points_per_trip=10, sampling_period=3.0, gps_noise_std=2.0)
    for i in range(4)
]
SEED = 7


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    runner = run.Runner(work)
    profiles, corpus, out = work / "profiles.json", work / "corpus", work / "out"
    profiles.write_text(json.dumps(PROFILES))
    runner.run(["synth", "--profiles", str(profiles), "--out", str(corpus), "--seed", str(SEED)])
    traced = {c: runner.run(run.command_argv(c, corpus, out, SEED), traced=True) for c in run.COMMANDS}
    return corpus, out, traced


def _copy(out, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return dst


def test_checks_pass_on_program_outputs(pipeline):
    corpus, out, _ = pipeline
    rows = checks.read_features_csv(out / "features.csv")
    assert checks.check_extract(corpus, out / "features.csv")["rows"] == len(rows) > 0
    checks.check_classify(out, rows)
    checks.check_anomaly(out, rows, SEED)


def test_perturbed_feature_fails(pipeline, tmp_path):
    corpus, out, _ = pipeline
    dst = _copy(out, tmp_path)
    lines = (dst / "features.csv").read_text().splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6))
    lines[5] = ",".join(fields) + "\n"
    (dst / "features.csv").write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="row 6"):
        checks.check_extract(corpus, dst / "features.csv")


def test_dropped_row_fails(pipeline, tmp_path):
    corpus, out, _ = pipeline
    dst = _copy(out, tmp_path)
    lines = (dst / "features.csv").read_text().splitlines(keepends=True)
    (dst / "features.csv").write_text("".join(lines[:3] + lines[4:]))
    with pytest.raises(checks.CheckError):
        checks.check_extract(corpus, dst / "features.csv")


def test_moved_confusion_cell_fails(pipeline, tmp_path):
    _, out, _ = pipeline
    dst = _copy(out, tmp_path)
    report = json.loads((dst / "classification_report.json").read_text())
    cm = report["confusion_matrix"]
    i = next(i for i in range(len(cm)) if cm[i][i] > 0)
    j = (i + 1) % len(cm)
    cm[i][i] -= 1
    cm[i][j] += 1
    (dst / "classification_report.json").write_text(json.dumps(report))
    order = report["class_order"]
    with open(dst / "confusion_matrix.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_user", "predicted_user", "count"])
        writer.writerows((t, p, cm[a][b]) for a, t in enumerate(order) for b, p in enumerate(order))
    rows = checks.read_features_csv(dst / "features.csv")
    with pytest.raises(checks.CheckError, match="precision|recall|diagonal"):
        checks.check_classify(dst, rows)


def test_altered_pr_auc_fails(pipeline, tmp_path):
    _, out, _ = pipeline
    dst = _copy(out, tmp_path)
    with open(dst / "anomaly_trials.csv", newline="") as fh:
        trials = list(csv.DictReader(fh))
    victim = checks.replayed(len(trials), SEED)[0]
    trials[victim]["pr_auc_lof"] = repr(float(trials[victim]["pr_auc_lof"]) * 0.99)
    with open(dst / "anomaly_trials.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(trials[0]))
        writer.writeheader()
        writer.writerows(trials)
    rows = checks.read_features_csv(dst / "features.csv")
    with pytest.raises(checks.CheckError, match="summary LOF mean"):
        checks.check_anomaly(dst, rows, SEED)
    # With the summary made to agree, the replay of the trial still catches it.
    summary = json.loads((dst / "anomaly_summary.json").read_text())
    summary["lof"]["mean"] = math.fsum(float(t["pr_auc_lof"]) for t in trials) / len(trials)
    (dst / "anomaly_summary.json").write_text(json.dumps(summary))
    with pytest.raises(checks.CheckError, match=f"trial {victim}: pr_auc_lof"):
        checks.check_anomaly(dst, rows, SEED)


def test_traced_commands_are_covered_by_their_spans(pipeline):
    _, _, traced = pipeline
    for command, result in traced.items():
        times = run.self_times(result["trace"], command)
        assert f"cli.{command}_self_s" in times
        assert all(t >= 0 for t in times.values())
    counts = traced["anomaly"]["trace"]["counts"]
    assert counts["anomaly.trials"] == 4 * checks.TRIALS
    assert counts["features.matrix_calls"] == counts["anomaly.trials"]


def test_span_outside_the_command_is_rejected():
    trace = {"spans": [["cli.extract_self_s", 0.0, 2.0, -1], ["ingest.parse_plt_s", 2.0, 3.0, -1]]}
    with pytest.raises(checks.CheckError, match="root spans"):
        run.self_times(trace, "extract")


def test_great_circle_matches_known_arcs():
    r = checks.EARTH_RADIUS_M
    assert checks.great_circle_m(0.0, 0.0, 0.0, 90.0) == pytest.approx(r * math.pi / 2, rel=1e-15)
    assert checks.great_circle_m(10.0, 20.0, 10.0, 20.0) == 0.0
    # About one arc-second of latitude: the short range where cancellation
    # would show. The arc is the latitude difference as stored.
    lat2 = 45.0 + 1 / 3600
    assert checks.great_circle_m(45.0, 7.0, lat2, 7.0) == pytest.approx(r * math.radians(lat2 - 45.0), rel=1e-13)
