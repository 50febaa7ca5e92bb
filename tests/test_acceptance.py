"""Acceptance suite.

Criteria 1-8 are self-contained properties that need no external data and
run in well under five minutes. Criteria 9-12 check the full pipeline's
known reference numbers on a local Geolife copy and are skipped unless
the GEOLIFE_ROOT environment variable points at one (the directory that
holds Data/). Each test prints one pass line; run with -rA or -s to see
them.
"""

import math
import os

import numpy as np
import pytest

from tripkin import anomaly as anomaly_mod
from tripkin import features as features_mod
from tripkin import cli, ingest, learn, synth
from tripkin.features import FEATURE_NAMES
from tripkin.geokinematics import EARTH_RADIUS_M, haversine_distance

from helpers import feature_dataset, features_of, random_trips
from oracles import (
    average_precision_sweep,
    lof_bruteforce,
    macro_f1_confusion,
    naive_trip_features,
    quantile_interpolated,
    roc_auc_ovr_macro_pairwise,
    slc_distance,
)

GEOLIFE_ROOT = os.environ.get("GEOLIFE_ROOT", "")
needs_geolife = pytest.mark.skipif(
    not GEOLIFE_ROOT, reason="set GEOLIFE_ROOT to a local Geolife copy"
)


def ok(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def test_c1_geodesy_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        lat_a, lat_b = np.degrees(np.arcsin(rng.uniform(-1, 1, size=2))).tolist()
        lon_a, lon_b = rng.uniform(-180, 180, size=2).tolist()
        d = haversine_distance(lat_a, lon_a, lat_b, lon_b)
        if d < 1000.0 or d > (math.pi - 0.05) * EARTH_RADIUS_M:
            continue  # the cosine oracle loses precision at the extremes
        assert d == pytest.approx(slc_distance(lat_a, lon_a, lat_b, lon_b), rel=1e-6)
        assert d == haversine_distance(lat_b, lon_b, lat_a, lon_a)
        checked += 1
    assert haversine_distance(0.0, 0.0, 0.0, 180.0) == pytest.approx(
        math.pi * EARTH_RADIUS_M, rel=1e-9
    )
    ok("C1 geodesy oracle (1000 pairs, symmetry, antipodal)")


def test_c2_feature_oracle():
    trips = random_trips(1000, seed=102)
    for trip in trips:
        got = features_of(trip)
        want = naive_trip_features(trip)
        for name in FEATURE_NAMES:
            assert got[name] == pytest.approx(
                want[name], rel=1e-9, abs=1e-12
            ), name
        assert got["max_speed"] >= got["mean_speed"] >= got["min_speed"] >= 0.0
    ok("C2 feature oracle (1000 trips) and speed monotonicity")


def test_c3_quantile_and_iqr_oracle():
    rng = np.random.default_rng(103)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        values = rng.uniform(-100, 100, size=n)
        q = float(rng.uniform(0, 1))
        assert features_mod.quantile(values, q) == pytest.approx(
            quantile_interpolated(values, q), rel=1e-12, abs=1e-12
        )
    # Degenerate fences: only rows exactly equal to q1 survive that feature.
    base = {name: 1.0 for name in FEATURE_NAMES}
    rows = [list(base.values()) for _ in range(6)]
    odd = dict(base, std_speed=1.0 + 1e-12)
    rows.append(list(odd.values()))
    dataset = feature_dataset(rows, ["u"] * 7)
    bounds = features_mod.compute_iqr_bounds(dataset.rows)
    kept = dataset.rows[features_mod.filter_outlier_trips(dataset.rows, bounds)]
    assert len(kept) == 6
    assert (kept[:, FEATURE_NAMES.index("std_speed")] == 1.0).all()
    ok("C3 quantile oracle (500 arrays) and degenerate IQR")


def test_c4_tree_sanity():
    rng = np.random.default_rng(104)
    for _ in range(25):
        n = int(rng.integers(20, 60))
        X = rng.normal(size=(n, 10))
        y = [f"u{rng.integers(4)}" for _ in range(n)]
        seen: dict[tuple, str] = {}
        conflict_free = all(seen.setdefault(tuple(row), lab) == lab for row, lab in zip(X.tolist(), y))
        assert conflict_free
        tree = learn.train_tree(X, y)
        preds, _ = learn.predict_batch(tree, X)
        assert learn.accuracy(y, preds) == 1.0

    transforms = [
        lambda v: 2.5 * v + 7.0,
        lambda v: v**3,
        lambda v: np.exp(v / 4.0),
        lambda v: v / 512.0,
    ]
    for _ in range(100):
        n = int(rng.integers(15, 40))
        X = rng.normal(size=(n, 10))
        y = [f"u{rng.integers(3)}" for _ in range(n)]
        picks = rng.integers(len(transforms), size=10)
        X_t = np.column_stack([transforms[picks[j]](X[:, j]) for j in range(10)])
        # Evaluate on the rows themselves: points strictly inside a
        # threshold gap have no transform-independent side.
        base, _ = learn.predict_batch(learn.train_tree(X, y), X)
        moved, _ = learn.predict_batch(learn.train_tree(X_t, y), X_t)
        assert base == moved
    ok("C4 tree sanity (training accuracy 1.0, monotone-transform invariance x100)")


def test_c5_metric_oracles():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        n_classes = int(rng.integers(2, 5))
        classes = tuple(f"u{i}" for i in range(n_classes))
        y_true = [classes[rng.integers(n_classes)] for _ in range(n)]
        y_pred = [classes[rng.integers(n_classes)] for _ in range(n)]
        assert learn.macro_f1(y_true, y_pred) == pytest.approx(
            macro_f1_confusion(y_true, y_pred), abs=1e-12
        )
        raw = rng.integers(0, 5, size=(n, n_classes)).astype(float) + 1.0
        probs = raw / raw.sum(axis=1, keepdims=True)
        if len(set(y_true)) >= 2:
            assert learn.roc_auc_ovr_macro(y_true, probs, classes) == pytest.approx(
                roc_auc_ovr_macro_pairwise(y_true, probs.tolist(), classes), abs=1e-12
            )
        truth = rng.integers(0, 2, size=n)
        if truth.sum() == 0:
            truth[0] = 1
        scores = rng.integers(0, 6, size=n) / 5.0
        assert anomaly_mod.pr_auc(truth, scores) == pytest.approx(
            average_precision_sweep(truth.tolist(), scores.tolist()), abs=1e-12
        )

    y_true = ["a", "b", "a", "b", "a"]
    constant = np.tile([0.3, 0.7], (5, 1))
    assert learn.roc_auc_ovr_macro(y_true, constant, ("a", "b")) == 0.5

    # Step-wise AP of a random ranking carries a +O(1/n) bias above the
    # prevalence, so the 3-SE statement needs a fixture large enough for
    # the bias to vanish under the Monte Carlo error.
    rng_ap = np.random.default_rng(1105)
    n, n_pos = 40_000, 32_000
    truth = np.zeros(n, dtype=bool)
    truth[:n_pos] = True
    aps = [anomaly_mod.pr_auc(truth, rng_ap.uniform(size=n)) for _ in range(1000)]
    se = np.std(aps) / np.sqrt(len(aps))
    assert abs(np.mean(aps) - n_pos / n) < 3 * se
    ok("C5 metric oracles (macro-F1, ROC-AUC, PR-AUC x200; constant=0.5; random AP)")


def test_c6_lof_oracle():
    rng = np.random.default_rng(106)
    for k in (5, 10, 20):
        X = rng.normal(size=(300, 6))
        got = anomaly_mod.lof_scores(X, k=k)
        want = lof_bruteforce(X.tolist(), k=k)
        assert np.allclose(got, want, rtol=1e-9)
    grid = np.array([[i, j] for i in range(10) for j in range(10)], dtype=float)
    planted = np.vstack([grid, [[50.0, 50.0]]])
    lof = anomaly_mod.lof_scores(planted, k=10)
    assert int(np.argmax(lof)) == 100
    ok("C6 LOF oracle (n=300, k=5/10/20) and planted-outlier maximum")


def _separable_corpus():
    profiles = [
        synth.UserProfile(
            user_id=f"{i:03d}",
            mean_cruise_speed=speed,
            speed_jitter=0.15,
            accel_scale=0.02,
            trips=40,
            points_per_trip=30,
            sampling_period=10.0,
            gps_noise_std=0.0,
        )
        for i, speed in enumerate((3.0, 10.0, 20.0, 32.0, 45.0))
    ]
    corpus = synth.generate_corpus(profiles, seed=107)
    return features_mod.FeatureDataset(
        features_mod.extract_features(corpus.trips),
        [t.user_id for t in corpus.trips],
        [t.modality for t in corpus.trips],
    )


def test_c7_synthetic_end_to_end(monkeypatch):
    dataset = _separable_corpus()
    # The report holds per-fold scores for the tree only; the baselines'
    # per-fold accuracies are read as each fold returns them.
    fold_accuracy = []  # per fold: (tree, weighted, uniform)
    evaluate_fold = learn._evaluate_fold

    def recording_fold(*args):
        confusion, scores = evaluate_fold(*args)
        fold_accuracy.append(tuple(s["accuracy"] for s in scores))
        return confusion, scores

    monkeypatch.setattr(learn, "_evaluate_fold", recording_fold)
    report = learn.run_classification(dataset, k=5, seed=108)
    tree = report["models"]["decision_tree"]
    assert tree["accuracy_mean"] >= 0.95
    assert [a[0] for a in fold_accuracy] == tree["per_fold"]["accuracy"]
    for fold in range(5):
        assert fold_accuracy[fold][0] > fold_accuracy[fold][1]
        assert fold_accuracy[fold][0] > fold_accuracy[fold][2]

    results, summary, _ = anomaly_mod.run_anomaly_experiment(
        dataset, trials_per_user=10, rate=0.03, k=20, seed=109
    )
    assert len(results) == 5 * 10
    for r in results:
        assert r.pr_auc_lof >= 0.9
        assert r.pr_auc_lof > r.pr_auc_random
    assert summary["lof"]["mean"] > summary["random"]["mean"]
    ok("C7 synthetic end-to-end (tree >= 0.95, LOF PR-AUC >= 0.9, beats baselines)")


def test_c8_determinism():
    dataset = _separable_corpus()
    report_a = learn.run_classification(dataset, k=5, seed=110)
    report_b = learn.run_classification(dataset, k=5, seed=110)
    assert report_a == report_b
    trials_a, summary_a, per_user_a = anomaly_mod.run_anomaly_experiment(dataset, trials_per_user=3, seed=111)
    trials_b, summary_b, per_user_b = anomaly_mod.run_anomaly_experiment(dataset, trials_per_user=3, seed=111)
    assert trials_a == trials_b and summary_a == summary_b and per_user_a == per_user_b
    ok("C8 determinism (bit-identical reports under a fixed seed)")


def _load_dataset(root):
    """The reduced dataset of a Geolife-layout root, one user's trips at a time."""
    user_trips = (ingest.assemble_trips(archive)[0] for archive in ingest.iter_user_archives(root))
    return features_mod.build_feature_dataset(user_trips, min_trips=30)


def test_geolife_loader_on_a_synthetic_corpus(tmp_path):
    # The Geolife fixture below is skipped offline; its loader must still
    # give what `tripkin extract` writes for the same root.
    profiles = [
        synth.UserProfile(f"{i:03d}", speed, 0.3, 0.02, trips=34, points_per_trip=12, sampling_period=10.0)
        for i, speed in enumerate((4.0, 15.0, 30.0))
    ]
    synth.write_corpus(synth.generate_corpus(profiles, seed=9), tmp_path / "raw")
    assert cli.main(["extract", "--root", str(tmp_path / "raw"), "--out", str(tmp_path / "out")]) == 0
    written = features_mod.read_features_csv(tmp_path / "out" / "features.csv")
    loaded = _load_dataset(tmp_path / "raw")
    assert loaded.rows.tobytes() == written.rows.tobytes() and len(loaded.rows) >= 90
    assert loaded.users.tolist() == written.users.tolist()
    assert loaded.modalities.tolist() == written.modalities.tolist()


@pytest.fixture(scope="module")
def geolife_dataset():
    return _load_dataset(GEOLIFE_ROOT)


@needs_geolife
def test_c9_geolife_pipeline_counts(geolife_dataset):
    counts = geolife_dataset.user_counts()
    n_trips = len(geolife_dataset.rows)
    assert abs(n_trips - 6145) <= 0.05 * 6145, n_trips
    assert abs(len(counts) - 26) <= 2, len(counts)
    assert min(counts.values()) >= 30
    assert 700 <= max(counts.values()) <= 800
    ok(f"C9 pipeline counts ({n_trips} trips, {len(counts)} users)")


@needs_geolife
def test_c10_geolife_feature_statistics(geolife_dataset):
    mat = geolife_dataset.matrix()
    duration = mat[:, FEATURE_NAMES.index("duration_s")]
    max_speed = mat[:, FEATURE_NAMES.index("max_speed")]
    min_speed = mat[:, FEATURE_NAMES.index("min_speed")]
    assert abs(duration.mean() - 20144.587) <= 0.10 * 20144.587
    assert abs(max_speed.mean() - 29.006) <= 0.10 * 29.006
    assert min_speed.mean() == 0.0
    assert min_speed.std() == 0.0
    ok("C10 feature statistics (duration, max speed, min speed)")


@needs_geolife
def test_c11_geolife_classification(geolife_dataset):
    models = learn.run_classification(geolife_dataset, k=5, seed=0)["models"]
    tree = models["decision_tree"]
    weighted = models["weighted_guess"]
    uniform = models["uniform_guess"]
    assert 0.25 <= tree["accuracy_mean"] <= 0.36, tree
    assert tree["roc_auc_mean"] >= 0.55, tree
    assert tree["macro_f1_mean"] >= 0.17, tree
    assert 0.06 <= weighted["accuracy_mean"] <= 0.10, weighted
    assert 0.025 <= uniform["accuracy_mean"] <= 0.045, uniform
    assert abs(weighted["roc_auc_mean"] - 0.5) <= 0.02
    assert abs(uniform["roc_auc_mean"] - 0.5) <= 0.02
    ok(
        "C11 classification vs baselines "
        f"(acc {tree['accuracy_mean']:.3f}, auc {tree['roc_auc_mean']:.3f}, f1 {tree['macro_f1_mean']:.3f})"
    )


@needs_geolife
def test_c12_geolife_anomaly_ordering(geolife_dataset):
    results, summary, per_user = anomaly_mod.run_anomaly_experiment(
        geolife_dataset, trials_per_user=10, rate=0.03, k=20, seed=0
    )
    best_user_lof = max(lof for _, lof, _ in per_user)
    assert len(results) == 10 * len(geolife_dataset.user_counts())
    assert summary["lof"]["mean"] > summary["random"]["mean"]
    assert best_user_lof >= 0.2
    ok(
        "C12 anomaly ordering "
        f"(LOF {summary['lof']['mean']:.3f} > random {summary['random']['mean']:.3f}, "
        f"best user {best_user_lof:.3f})"
    )
