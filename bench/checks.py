"""Checks of each command's outputs, computed apart from the program.

Nothing here imports tripkin. The corpus is read with this module's own
PLT and label parser, features come from stdlib arithmetic and a
great-circle formula other than the program's haversine (the Vincenty
form on a sphere), Tukey fences from this module's own quantiles, LOF from
its definition and average precision from a threshold sweep. numpy is used
only to replay a trial's recorded seed through the generator that defines
it.

Each check raises CheckError with the first mismatch it finds.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
FEATURES = (
    "duration_s", "max_speed", "min_speed", "max_pos_accel", "min_neg_accel",
    "mean_speed", "mean_abs_accel", "std_speed", "std_accel", "std_abs_accel",
)
# The experiment settings the commands run with (the CLI defaults).
MIN_TRIPS, IQR_MULT, K_FOLDS, TRIALS, RATE, LOF_K = 30, 1.5, 5, 10, 0.03, 20
# A feature or score matches when within this relative tolerance (or this
# absolute one near zero). Two double-precision computations of the same
# formula differ by far less.
REL_TOL, ABS_TOL = 1e-9, 1e-12
# A trip lies "clearly" inside or outside a fence when it is farther from it
# than this share of the quartiles' scale; nearer trips may fall either way.
FENCE_MARGIN = 1e-7
# Trials replayed from their recorded seed per check.
REPLAYED_TRIALS = 3


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def sha256_tree(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------- extract


def _days_from_civil(y: int, m: int, d: int) -> int:
    """Days since 1970-01-01 of a proleptic Gregorian date (H. Hinnant)."""
    y -= m <= 2
    era = y // 400
    yoe = y - era * 400
    doy = (153 * (m - 3 if m > 2 else m + 9) + 2) // 5 + d - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _digits(s: str) -> int:
    _require(s.isascii() and s.isdigit(), f"non-digit field {s!r}")
    return int(s)


def _stamp(date_s: str, time_s: str, cache: dict) -> int:
    day = cache.get(date_s)
    if day is None:
        day = cache[date_s] = _days_from_civil(
            _digits(date_s[0:4]), _digits(date_s[5:7]), _digits(date_s[8:10])
        )
    hh, mm, ss = (_digits(x) for x in time_s.split(":"))
    return day * 86400 + hh * 3600 + mm * 60 + ss


def read_plt(path: Path, cache: dict) -> list[tuple[int, float, float]]:
    points = []
    for line in path.read_text().splitlines()[6:]:
        if not line.strip():
            continue
        f = line.split(",")
        _require(len(f) == 7, f"{path}: {line!r}")
        lat, lon = float(f[0]), float(f[1])
        if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
            points.append((_stamp(f[5], f[6], cache), lat, lon))
    return points


def read_labels(path: Path, cache: dict) -> list[tuple[int, int, str]]:
    labels = []
    for line in path.read_text().splitlines()[1:]:
        if not line.strip():
            continue
        start, end, mode = line.split("\t")
        t0 = _stamp(*start.strip().split(" "), cache)
        t1 = _stamp(*end.strip().split(" "), cache)
        if t0 < t1:
            labels.append((t0, t1, mode.strip()))
    return sorted(labels, key=lambda lab: lab[0])


def great_circle_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Vincenty's formula on a sphere (atan2 form).

    The term cos(p1)sin(p2) - sin(p1)cos(p2)cos(dl) is rewritten as
    sin(dp) + 2 sin(p1)cos(p2)sin^2(dl/2), which avoids the cancellation
    that would cost it about six digits over a few metres.
    """
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = math.radians(lat2 - lat1), math.radians(lon2 - lon1)
    c1, s1, c2, s2 = math.cos(p1), math.sin(p1), math.cos(p2), math.sin(p2)
    half = math.sin(dl / 2.0) ** 2
    y = math.hypot(c2 * math.sin(dl), math.sin(dp) + 2.0 * s1 * c2 * half)
    x = math.cos(dp) - 2.0 * c1 * c2 * half
    return EARTH_RADIUS_M * math.atan2(y, x)


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def _pstd(xs: list[float]) -> float:
    m = _mean(xs)
    return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / len(xs))


def trip_features(points: list[tuple[int, float, float]]) -> list[float]:
    """The 10 features of one trip, in FEATURES order."""
    v, ends = [], []
    for (t0, la0, lo0), (t1, la1, lo1) in zip(points, points[1:]):
        v.append(great_circle_m(la0, lo0, la1, lo1) / (t1 - t0))
        ends.append(t1)
    a = [(v[i + 1] - v[i]) / (ends[i + 1] - ends[i]) for i in range(len(v) - 1)]
    abs_a = [abs(x) for x in a]
    return [
        float(points[-1][0] - points[0][0]), max(v), min(v), max(a), min(a),
        _mean(v), _mean(abs_a), _pstd(v), _pstd(a), _pstd(abs_a),
    ]


def expected_trips(root: Path) -> list[tuple[str, str, list[float]]]:
    """(user, modality, features) of every trip with 3+ points, in output order."""
    trips = []
    cache: dict = {}
    for user_dir in sorted(p for p in (root / "Data").iterdir() if p.is_dir()):
        labels_path = user_dir / "labels.txt"
        if not labels_path.is_file():
            continue
        labels = read_labels(labels_path, cache)
        points = []
        for plt in sorted((user_dir / "Trajectory").glob("*.plt")):
            points.extend(read_plt(plt, cache))
        points.sort(key=lambda p: p[0])
        unique = [p for i, p in enumerate(points) if i == 0 or p[0] != points[i - 1][0]]
        times = [p[0] for p in unique]
        for t0, t1, mode in labels:
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            if hi - lo >= 3:
                trips.append((user_dir.name, mode, trip_features(unique[lo:hi])))
    return trips


def quantile(sorted_values: list[float], q: float) -> float:
    h = (len(sorted_values) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def fence_status(trips) -> list[str]:
    """'in', 'out' or 'near' per trip against the pooled Tukey fences."""
    fences = []
    for j in range(len(FEATURES)):
        col = sorted(t[2][j] for t in trips)
        q1, q3 = quantile(col, 0.25), quantile(col, 0.75)
        lower, upper = q1 - IQR_MULT * (q3 - q1), q3 + IQR_MULT * (q3 - q1)
        # With a zero IQR both fences are one data value, met only exactly.
        margin = FENCE_MARGIN * max(abs(q1), abs(q3), q3 - q1) if q3 > q1 else 0.0
        fences.append((lower, upper, margin))
    status = []
    for _, _, feats in trips:
        s = "in"
        for x, (lower, upper, margin) in zip(feats, fences):
            if x < lower - margin or x > upper + margin:
                s = "out"
                break
            if x < lower + margin or x > upper - margin:
                s = "near"
        status.append(s)
    return status


def read_features_csv(path: Path) -> list[tuple[str, str, list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _require(tuple(header) == ("user_id", "modality") + FEATURES, f"header {header}")
        return [(r[0], r[1], [float(x) for x in r[2:]]) for r in reader if r]


def check_extract(corpus: Path, features_csv: Path) -> dict:
    """Every row matches a trip computed here; every trip clearly kept is a row."""
    trips = expected_trips(corpus)
    status = fence_status(trips)
    sure, maybe = Counter(), Counter()
    for (user, _, _), s in zip(trips, status):
        sure[user] += s == "in"
        maybe[user] += s != "out"
    rows = read_features_csv(features_csv)
    pos = 0
    for (user, mode, feats), s in zip(trips, status):
        if s == "out" or maybe[user] < MIN_TRIPS:
            continue
        row = rows[pos] if pos < len(rows) else None
        if row and row[0] == user and row[1] == mode and all(map(_close, row[2], feats)):
            pos += 1
            continue
        _require(
            s == "near" or sure[user] < MIN_TRIPS,
            f"features.csv row {pos + 2} is {row}, expected user {user} {mode} {feats}",
        )
    if pos < len(rows):
        raise CheckError(f"features.csv row {pos + 2} matches no trip: {rows[pos]}")
    kept = Counter(r[0] for r in rows)
    for user, n in kept.items():
        _require(n >= MIN_TRIPS, f"user {user} kept with {n} < {MIN_TRIPS} rows")
    for user, n in sure.items():
        _require(n < MIN_TRIPS or user in kept, f"user {user} has {n} trips inside the fences but no rows")
    return {"rows": len(rows), "users": len(kept), "trips_featurized": len(trips)}


# --------------------------------------------------------------- classify


def check_classify(out_dir: Path, rows) -> dict:
    counts = Counter(r[0] for r in rows)
    report = json.loads((out_dir / "classification_report.json").read_text())
    order = report["class_order"]
    _require(order == sorted(counts, key=lambda c: (-counts[c], c)), "class order")
    cm = report["confusion_matrix"]
    n = len(rows)
    _require(report["n_rows"] == n, f"n_rows {report['n_rows']} != {n}")
    _require(sum(map(sum, cm)) == n, f"confusion matrix sums to {sum(map(sum, cm))}, not {n}")
    for i, c in enumerate(order):
        _require(sum(cm[i]) == counts[c], f"confusion row {c} sums to {sum(cm[i])}, not {counts[c]}")
    with open(out_dir / "confusion_matrix.csv", newline="") as fh:
        cells = list(csv.reader(fh))[1:]
    _require(
        cells == [[t, p, str(cm[i][j])] for i, t in enumerate(order) for j, p in enumerate(order)],
        "confusion_matrix.csv differs from the report's matrix",
    )
    with open(out_dir / "per_class_metrics.csv", newline="") as fh:
        per_class = list(csv.reader(fh))[1:]
    _require([(r[0], int(r[1])) for r in per_class] == [(c, counts[c]) for c in order], "per_class_metrics.csv trips")
    for i, c in enumerate(order):
        col = sum(row[i] for row in cm)
        want_p = cm[i][i] / col if col else 0.0
        want_r = cm[i][i] / sum(cm[i])
        got_p, got_r = report["per_class_precision"][c], report["per_class_recall"][c]
        _require(_close(got_p, want_p), f"precision of {c}: {got_p} != {want_p}")
        _require(_close(got_r, want_r), f"recall of {c}: {got_r} != {want_r}")
    models = report["models"]
    for name in ("weighted_guess", "uniform_guess"):
        m = models[name]
        _require(m["roc_auc_mean"] == 0.5 and m["roc_auc_std"] == 0.0, f"{name} ROC-AUC {m['roc_auc_mean']}")
    tree = models["decision_tree"]
    _require(
        tree["accuracy_mean"] > models["weighted_guess"]["accuracy_mean"],
        "tree accuracy does not beat the weighted guess",
    )
    # Stratified folds deal each class round-robin, so fold f holds the
    # class's rows i with i % k == f; per-fold accuracy times fold size
    # must add up to the matrix's diagonal.
    fold_rows = [sum(c // K_FOLDS + (f < c % K_FOLDS) for c in counts.values()) for f in range(K_FOLDS)]
    correct = math.fsum(a * m for a, m in zip(tree["per_fold"]["accuracy"], fold_rows))
    diagonal = sum(cm[i][i] for i in range(len(order)))
    _require(abs(correct - diagonal) < 1e-6, f"per-fold accuracies give {correct} hits, diagonal {diagonal}")
    return {"tree_accuracy": tree["accuracy_mean"], "weighted_accuracy": models["weighted_guess"]["accuracy_mean"]}


# ---------------------------------------------------------------- anomaly


def standardize(rows: list[list[float]]) -> list[list[float]]:
    cols = list(zip(*rows))
    stats = [(_mean(list(c)), _pstd(list(c))) for c in cols]
    return [[(x - m) / s if s > 0 else 0.0 for x, (m, s) in zip(r, stats)] for r in rows]


def lof(rows: list[list[float]], k: int) -> list[float]:
    """Local Outlier Factor from its definition (ties join the neighbourhood)."""
    n = len(rows)
    dist = [[math.dist(rows[i], rows[j]) for j in range(n)] for i in range(n)]
    k_dist, hoods = [], []
    for i in range(n):
        kd = sorted(dist[i][j] for j in range(n) if j != i)[k - 1]
        k_dist.append(kd)
        hoods.append([j for j in range(n) if j != i and dist[i][j] <= kd])
    lrd = []
    for i in range(n):
        mean_reach = _mean([max(k_dist[j], dist[i][j]) for j in hoods[i]])
        lrd.append(math.inf if mean_reach == 0.0 else 1.0 / mean_reach)
    return [
        _mean([1.0 if math.isinf(lrd[j]) and math.isinf(lrd[i]) else lrd[j] / lrd[i] for j in hoods[i]])
        for i in range(n)
    ]


def average_precision(truth: list[bool], scores: list[float]) -> float:
    """Sum over distinct thresholds, high to low, of recall gain times precision."""
    n_pos = sum(truth)
    ap = prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        picked = [t for t, s in zip(truth, scores) if s >= threshold]
        recall = sum(picked) / n_pos
        ap += (recall - prev_recall) * (sum(picked) / len(picked))
        prev_recall = recall
    return ap


def replay_trial(rows, user: str, seed: int) -> tuple[float, float]:
    """(LOF PR-AUC, random PR-AUC) of one trial, recomputed from its seed."""
    normal = [r[2] for r in rows if r[0] == user]
    donors = [r[2] for r in rows if r[0] != user]
    n_anom = max(1, round(RATE * len(normal)))
    rng = np.random.default_rng(seed)
    picked = sorted(int(i) for i in rng.choice(len(donors), size=n_anom, replace=False))
    truth = [False] * len(normal) + [True] * n_anom
    data = normal + [donors[i] for i in picked]
    lof_ap = average_precision(truth, lof(standardize(data), LOF_K))
    random_ap = average_precision(truth, [float(x) for x in rng.uniform(size=len(truth))])
    return lof_ap, random_ap


def replayed(n_trials: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n_trials), min(REPLAYED_TRIALS, n_trials)))


def check_anomaly(out_dir: Path, rows, seed: int) -> dict:
    counts = Counter(r[0] for r in rows)
    with open(out_dir / "anomaly_trials.csv", newline="") as fh:
        trials = list(csv.DictReader(fh))
    users = sorted(counts)
    _require(len(trials) == len(users) * TRIALS, f"{len(trials)} trials for {len(users)} users")
    _require(
        [(t["subject_user"], int(t["trial"])) for t in trials]
        == [(u, i) for u in users for i in range(TRIALS)],
        "trials are not users x 0..9",
    )
    for t in trials:
        n = int(t["n_normal"])
        _require(n == counts[t["subject_user"]], f"n_normal {n} of {t['subject_user']}")
        _require(int(t["n_anomaly"]) == max(1, round(RATE * n)), f"n_anomaly {t['n_anomaly']} for {n} normals")
        for key in ("pr_auc_lof", "pr_auc_random"):
            _require(0.0 < float(t[key]) <= 1.0, f"{key} {t[key]} outside (0, 1]")
    summary = json.loads((out_dir / "anomaly_summary.json").read_text())
    _require(summary["n_trials"] == len(trials), "summary n_trials")
    lof_mean = _mean([float(t["pr_auc_lof"]) for t in trials])
    random_mean = _mean([float(t["pr_auc_random"]) for t in trials])
    _require(_close(summary["lof"]["mean"], lof_mean), f"summary LOF mean {summary['lof']['mean']} != {lof_mean}")
    _require(_close(summary["random"]["mean"], random_mean), "summary random mean")
    _require(lof_mean > random_mean, f"LOF mean {lof_mean} does not beat random {random_mean}")
    for i in replayed(len(trials), seed):
        t = trials[i]
        want_lof, want_random = replay_trial(rows, t["subject_user"], int(t["seed"]))
        _require(_close(float(t["pr_auc_lof"]), want_lof), f"trial {i}: pr_auc_lof {t['pr_auc_lof']} != {want_lof}")
        _require(_close(float(t["pr_auc_random"]), want_random), f"trial {i}: pr_auc_random {t['pr_auc_random']} != {want_random}")
    return {"lof_mean": lof_mean, "random_mean": random_mean}
