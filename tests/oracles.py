"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the underlying definitions
(plain Python loops, stdlib statistics, O(n^2) scans) and must not call
into the code paths it checks.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tripkin.geokinematics import EARTH_RADIUS_M, GpsPoint, haversine_distance
from tripkin.learn import DecisionTree, EmptyTrainingSet, Leaf, Split, class_order


def slc_distance(a: GpsPoint, b: GpsPoint) -> float:
    """Great-circle distance via the spherical law of cosines."""
    phi1 = math.radians(a.latitude)
    phi2 = math.radians(b.latitude)
    dlam = math.radians(b.longitude - a.longitude)
    x = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, x)))


def naive_trip_features(trip) -> dict[str, float]:
    """Recompute every per-trip statistic with stdlib arithmetic.

    Shares only the distance primitive (which has its own oracle) with
    the implementation under test.
    """
    pts = trip.points
    speeds = []
    times = []
    for i in range(len(pts) - 1):
        dt = pts[i + 1].timestamp - pts[i].timestamp
        speeds.append(haversine_distance(pts[i], pts[i + 1]) / dt)
        times.append(pts[i + 1].timestamp)
    accels = [
        (speeds[i + 1] - speeds[i]) / (times[i + 1] - times[i])
        for i in range(len(speeds) - 1)
    ]
    abs_accels = [abs(a) for a in accels]
    return {
        "duration_s": pts[-1].timestamp - pts[0].timestamp,
        "max_speed": max(speeds),
        "min_speed": min(speeds),
        "max_pos_accel": max(accels),
        "min_neg_accel": min(accels),
        "mean_speed": statistics.fmean(speeds),
        "mean_abs_accel": statistics.fmean(abs_accels),
        "std_speed": statistics.pstdev(speeds),
        "std_accel": statistics.pstdev(accels),
        "std_abs_accel": statistics.pstdev(abs_accels),
    }


def quantile_interpolated(values, q: float) -> float:
    """Order-statistic interpolation, written scalar-style."""
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    if lo >= len(v) - 1:
        return v[-1]
    frac = h - lo
    return v[lo] * (1.0 - frac) + v[lo + 1] * frac


def macro_f1_confusion(y_true, y_pred) -> float:
    """Macro F1 recomputed from an explicit confusion-count table."""
    cells: dict[tuple[str, str], int] = {}
    for t, p in zip(y_true, y_pred):
        cells[(t, p)] = cells.get((t, p), 0) + 1
    classes = sorted(set(y_true))
    f1s = []
    for c in classes:
        tp = cells.get((c, c), 0)
        pred_c = sum(n for (_, p), n in cells.items() if p == c)
        true_c = sum(n for (t, _), n in cells.items() if t == c)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(f1s) / len(f1s)


def binary_auc_pairwise(scores, positive) -> float:
    """ROC-AUC as the fraction of correctly ordered positive/negative pairs."""
    pos = [s for s, flag in zip(scores, positive) if flag]
    neg = [s for s, flag in zip(scores, positive) if not flag]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_auc_ovr_macro_pairwise(y_true, prob_matrix, classes) -> float:
    aucs = []
    for j, c in enumerate(classes):
        positive = [t == c for t in y_true]
        if all(positive) or not any(positive):
            continue
        aucs.append(binary_auc_pairwise([row[j] for row in prob_matrix], positive))
    return sum(aucs) / len(aucs)


def average_precision_sweep(ground_truth, scores) -> float:
    """AP by sweeping every distinct threshold and recounting from scratch."""
    n_pos = sum(bool(t) for t in ground_truth)
    ap = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        predicted = [s >= threshold for s in scores]
        tp = sum(p and bool(t) for p, t in zip(predicted, ground_truth))
        precision = tp / sum(predicted)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def lof_bruteforce(rows, k: int) -> list[float]:
    """Local Outlier Factor straight from the definition, scalar loops only."""
    X = [list(map(float, row)) for row in rows]
    n = len(X)
    dist = [[math.dist(X[i], X[j]) for j in range(n)] for i in range(n)]
    k_dist = []
    neighborhoods = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        k_dist.append(kd)
        neighborhoods.append([j for j in range(n) if j != i and dist[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = [max(k_dist[j], dist[i][j]) for j in neighborhoods[i]]
        mean_reach = sum(reach) / len(reach)
        lrd.append(math.inf if mean_reach == 0.0 else 1.0 / mean_reach)
    lof = []
    for i in range(n):
        ratios = []
        for j in neighborhoods[i]:
            if math.isinf(lrd[j]) and math.isinf(lrd[i]):
                ratios.append(1.0)
            else:
                ratios.append(lrd[j] / lrd[i])
        lof.append(sum(ratios) / len(ratios))
    return lof


def lof_scores_loop(rows, k: int) -> np.ndarray:
    """The former per-row loop form of anomaly.lof_scores, kept as its reference.

    Each distance adds the squared coordinate differences in column order
    and takes one square root, and each mean is ndarray.mean over one
    neighborhood, so the vectorized form must match it bit for bit.
    """
    X = np.asarray(rows, dtype=float)
    n = len(X)
    dist = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sq = 0.0
            for a, b in zip(X[i].tolist(), X[j].tolist()):
                sq += (a - b) * (a - b)
            dist[i, j] = math.sqrt(sq)
    np.fill_diagonal(dist, np.inf)
    k_dist = np.sort(dist, axis=1)[:, k - 1]

    neighborhoods = [np.flatnonzero(dist[i] <= k_dist[i]) for i in range(n)]
    lrd = np.empty(n)
    for i, nb in enumerate(neighborhoods):
        reach = np.maximum(k_dist[nb], dist[i, nb])
        mean_reach = reach.mean()
        lrd[i] = np.inf if mean_reach == 0.0 else 1.0 / mean_reach

    lof = np.empty(n)
    for i, nb in enumerate(neighborhoods):
        with np.errstate(invalid="ignore"):
            ratios = lrd[nb] / lrd[i]
        both_inf = np.isinf(lrd[nb]) & np.isinf(lrd[i])
        ratios[both_inf] = 1.0
        lof[i] = ratios.mean()
    return lof


def _leaf_per_feature(y, classes):
    counts: dict[str, int] = {}
    for code in y:
        name = classes[code]
        counts[name] = counts.get(name, 0) + 1
    return Leaf(class_counts=counts)


def _best_split_per_feature(X, y, n_classes):
    """Lowest-weighted-Gini (feature, threshold), or None if X has no spread.

    Scans features in index order and thresholds in ascending order,
    keeping only strict improvements, which realizes the tie-break rule.
    """
    n = len(y)
    onehot = np.zeros((n, n_classes))
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sc = col[order]
        cut = np.flatnonzero(sc[1:] > sc[:-1])  # left block = rows [0..cut]
        if cut.size == 0:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_n = (cut + 1).astype(float)
        right_n = n - left_n
        left_counts = cum[cut]
        right_counts = cum[-1] - left_counts
        gini_left = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        i = int(np.argmin(weighted))  # first minimum -> lowest threshold
        if best is None or weighted[i] < best[0]:
            lo, hi = sc[cut[i]], sc[cut[i] + 1]
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:  # midpoint rounded onto hi; fall back to lo
                thr = lo
            best = (float(weighted[i]), f, float(thr))
    return best


def cart_tree_per_feature(X, labels, max_depth=None, min_samples_split=2):
    """The former learn.train_tree, which scored one feature at a time.

    Kept verbatim as the reference for the blocked all-feature scorer:
    both use the same per-candidate float expressions over the full class
    axis, so trees must match node for node, thresholds bit for bit.
    """
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if len(labels) == 0:
        raise EmptyTrainingSet("no training rows")
    classes = class_order(labels)
    code_of = {c: i for i, c in enumerate(classes)}
    y = np.array([code_of[lab] for lab in labels])

    root = None
    stack = [(X, y, 0, None, "left")]
    while stack:
        Xn, yn, depth, parent, side = stack.pop()
        pure = bool((yn == yn[0]).all())
        at_depth = max_depth is not None and depth >= max_depth
        if pure or at_depth or len(yn) < min_samples_split:
            node = _leaf_per_feature(yn, classes)
        else:
            best = _best_split_per_feature(Xn, yn, len(classes))
            if best is None:
                node = _leaf_per_feature(yn, classes)
            else:
                _, f, thr = best
                node = Split(feature_index=f, threshold=thr)
                mask = Xn[:, f] <= thr
                stack.append((Xn[mask], yn[mask], depth + 1, node, "left"))
                stack.append((Xn[~mask], yn[~mask], depth + 1, node, "right"))
        if parent is None:
            root = node
        elif side == "left":
            parent.left = node
        else:
            parent.right = node
    assert root is not None
    return DecisionTree(root=root, classes=classes)


def accuracy_loop(y_true, y_pred) -> float:
    """The former generator-loop learn.accuracy."""
    y_true, y_pred = list(y_true), list(y_pred)
    return sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)


def macro_f1_loop(y_true, y_pred, classes=None) -> float:
    """The former learn.macro_f1: three O(n) scans per class, same arithmetic."""
    y_true, y_pred = list(y_true), list(y_pred)
    true_set = set(y_true)
    candidates = classes if classes is not None else sorted(true_set)
    present = [c for c in candidates if c in true_set]
    f1s = []
    for c in present:
        tp = sum(t == c and p == c for t, p in zip(y_true, y_pred))
        fp = sum(t != c and p == c for t, p in zip(y_true, y_pred))
        fn = sum(t == c and p != c for t, p in zip(y_true, y_pred))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(f1s))
