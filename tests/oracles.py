"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the underlying definitions
(plain Python loops, stdlib statistics, O(n^2) scans) and must not call
into the code paths it checks.
"""

from __future__ import annotations

import math
import statistics
from datetime import date, datetime, timezone

import numpy as np

from tripkin.geokinematics import EARTH_RADIUS_M, Track
from tripkin.ingest import PLT_HEADER, EmptyFile, MalformedLine, Trip
from tripkin.learn import DecisionTree, EmptyTrainingSet, Leaf, Split, class_order
from tripkin.synth import _BASE_EPOCH, modality_for_speed


def slc_distance(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance via the spherical law of cosines."""
    phi1 = math.radians(lat_a)
    phi2 = math.radians(lat_b)
    dlam = math.radians(lon_b - lon_a)
    x = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, x)))


def haversine_m(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance via the haversine formula, one pair, stdlib math."""
    phi_a = math.radians(lat_a)
    phi_b = math.radians(lat_b)
    dphi = math.radians(lat_b - lat_a)
    dlam = math.radians(lon_b - lon_a)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi_a) * math.cos(phi_b) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def naive_trip_features(trip) -> dict[str, float]:
    """Recompute every per-trip statistic with stdlib arithmetic.

    Shares no code with the implementation under test: distances come
    from this module's own scalar haversine.
    """
    t = trip.points.t.tolist()
    lat = trip.points.lat.tolist()
    lon = trip.points.lon.tolist()
    speeds = []
    for i in range(len(t) - 1):
        speeds.append(haversine_m(lat[i], lon[i], lat[i + 1], lon[i + 1]) / (t[i + 1] - t[i]))
    accels = [(speeds[i + 1] - speeds[i]) / (t[i + 2] - t[i + 1]) for i in range(len(speeds) - 1)]
    abs_accels = [abs(a) for a in accels]
    return {
        "duration_s": t[-1] - t[0],
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


def _plain_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _epoch_seconds(date_s: str, time_s: str, sep: str = "-") -> int:
    hh, mm, ss = time_s[0:2], time_s[3:5], time_s[6:8]
    if len(time_s) != 8 or time_s[2] != ":" or time_s[5] != ":" or not _plain_digits(hh + mm + ss):
        raise ValueError(f"bad time {time_s!r}")
    hh, mm, ss = int(hh), int(mm), int(ss)
    if not (0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise ValueError(f"bad time {time_s!r}")
    year, month, day = date_s[0:4], date_s[5:7], date_s[8:10]
    if len(date_s) != 10 or date_s[4] != sep or date_s[7] != sep or not _plain_digits(year + month + day):
        raise ValueError(f"bad date {date_s!r}")
    days = date(int(year), int(month), int(day)).toordinal() - date(1970, 1, 1).toordinal()
    return days * 86400 + hh * 3600 + mm * 60 + ss


def _plt_coordinate(s: str) -> float:
    if not s.isascii() or "_" in s:
        raise ValueError(f"bad coordinate {s!r}")
    return float(s)


def _text(data: bytes | str) -> str:
    """UTF-8 text of a file; bad bytes raise MalformedLine for the line holding the first one."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # surrogateescape turns each bad byte into a lone surrogate,
        # which valid UTF-8 never decodes to and which breaks no line.
        lines = data.decode("utf-8", "surrogateescape").splitlines()
        line_no = next(i for i, line in enumerate(lines, 1) if any("\udc80" <= c <= "\udcff" for c in line))
        raise MalformedLine(line_no, f"undecodable bytes: {exc}") from None


def parse_plt_lines(data: bytes | str) -> tuple[list[int], list[float], list[float]]:
    """The line-at-a-time PLT parser: (t, lat, lon) lists in file order.

    Same rules and messages as ``ingest.parse_plt``: 6 header lines, blank
    lines skipped, 7 fields per line, ASCII-only coordinates, ASCII-digit
    dates and times, out-of-range coordinates dropped; the first bad line
    raises MalformedLine, and so do bytes that are not UTF-8, for the line
    (as ``str.splitlines`` numbers them) that holds the first such byte.
    """
    t, lat, lon = [], [], []
    n_data = 0
    for line_no, line in enumerate(_text(data).splitlines()[6:], start=7):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise MalformedLine(line_no, f"expected 7 fields, got {len(fields)}")
        n_data += 1
        try:
            la = _plt_coordinate(fields[0])
            lo = _plt_coordinate(fields[1])
            ts = _epoch_seconds(fields[5], fields[6])
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if -90.0 <= la <= 90.0 and -180.0 <= lo <= 180.0:
            t.append(ts)
            lat.append(la)
            lon.append(lo)
    if n_data == 0:
        raise EmptyFile("no data lines after the 6-line header")
    return t, lat, lon


def _label_time(stamp: str) -> int:
    parts = stamp.strip().split(" ")
    if len(parts) != 2:
        raise ValueError(f"bad timestamp {stamp!r}")
    return _epoch_seconds(parts[0], parts[1], "/")


def parse_labels_lines(data: bytes | str) -> tuple[list[tuple[int, int, str]], int]:
    """The line-at-a-time labels.txt parser: ((start, end, modality) rows, rows dropped for start >= end).

    Same rules and messages as ``ingest.parse_labels``: a header line, blank
    lines skipped, 3 tab-separated fields per line, each stamp
    "YYYY/MM/DD HH:MM:SS" after stripping, start before end before the
    modality, which must not be empty once stripped; the first bad line
    raises MalformedLine.
    """
    labels = []
    n_data = 0
    n_dropped = 0
    for line_no, line in enumerate(_text(data).splitlines()[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        n_data += 1
        try:
            start = _label_time(fields[0])
            end = _label_time(fields[1])
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        modality = fields[2].strip()
        if not modality:
            raise MalformedLine(line_no, "empty modality token")
        if start >= end:
            n_dropped += 1
            continue
        labels.append((start, end, modality))
    if n_data == 0:
        raise EmptyFile("no data lines after the header")
    return labels, n_dropped


def format_plt_datetime(t, lat, lon) -> str:
    """PLT text with one ``datetime`` per fix, as ``ingest.format_plt`` wrote it before."""
    rows = []
    for ts, la, lo in zip(t, lat, lon):
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        frac_days = ts / 86400.0 + 25569
        rows.append(f"{la!r},{lo!r},0,0,{frac_days!r},{dt.year:04d}-{dt:%m-%d},{dt:%H:%M:%S}\n")
    return PLT_HEADER + "".join(rows)


def quantile_interpolated(values, q: float) -> float:
    """Order-statistic interpolation, written scalar-style."""
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    if lo >= len(v) - 1:
        return v[-1]
    frac = h - lo
    return v[lo] * (1.0 - frac) + v[lo + 1] * frac


def reduce_trips_loop(user_trips, min_trips: int, iqr_multiplier: float):
    """build_feature_dataset's reductions, one trip and one fence at a time.

    A trip of 3 or more points becomes its extract_features row; a row is
    kept if it lies inside every compute_iqr_bounds fence and its user keeps
    at least min_trips such rows. Those two functions are checked against
    their own oracles (C2, C3); this one replaces only the reduction.
    Returns (rows, users, modalities, (too_few_points, iqr_dropped,
    below_min_trips_rows, users_dropped)).
    """
    from tripkin.features import compute_iqr_bounds, extract_features

    records, short = [], 0
    for trips in user_trips:
        for trip in trips:
            if len(trip.points) < 3:
                short += 1
            else:
                records.append((trip.user_id, trip.modality, extract_features([trip])[0].tolist()))
    inside = records
    if records:
        bounds = compute_iqr_bounds([row for _, _, row in records], multiplier=iqr_multiplier)
        fences = list(zip(bounds.lower.tolist(), bounds.upper.tolist()))
        inside = [rec for rec in records if all(lo <= v <= hi for v, (lo, hi) in zip(rec[2], fences))]
    per_user: dict[str, int] = {}
    for user, _, _ in inside:
        per_user[user] = per_user.get(user, 0) + 1
    kept = [rec for rec in inside if per_user[rec[0]] >= min_trips]
    counts = (
        short,
        len(records) - len(inside),
        len(inside) - len(kept),
        sum(1 for n in per_user.values() if n < min_trips),
    )
    return [row for _, _, row in kept], [u for u, _, _ in kept], [m for _, m, _ in kept], counts


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


def average_precision_cumsum(ground_truth, scores) -> float:
    """The former body of anomaly.pr_auc, kept as its bit-for-bit reference.

    Ranks by descending score (stable), takes the last index of each tie
    group as one threshold step, and sums recall gain times precision
    with np.append, np.diff(prepend=) and np.sum.
    """
    y = np.asarray(ground_truth, dtype=bool)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = np.cumsum(y_sorted)
    pp = np.arange(1, len(y) + 1)
    step = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    precision = tp[step] / pp[step]
    recall = tp[step] / n_pos
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def standardize_mean_std(rows):
    """The former body of anomaly.standardize, kept as its bit-for-bit reference.

    Z-scores with ndarray.mean and ndarray.std (population) per column;
    columns with zero spread map to all zeros. Finite inputs only.
    """
    X = np.asarray(rows, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    Z = np.where(std > 0, (X - mean) / safe, 0.0)
    return Z, mean, std


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
    return Leaf(class_counts=np.array([counts.get(c, 0) for c in classes]))


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

    Kept verbatim as the reference for the level-synchronous grower: both
    use the same per-candidate float expressions over the full class axis,
    so trees must match node for node, thresholds bit for bit.
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


def predict_rowwise(tree, x):
    """Route one vector to its leaf; returns (label, probabilities).

    The former learn.predict: one row at a time on numpy floats, each
    probability a Python int division of a leaf count by the leaf total,
    the label the first class with the highest probability.
    """
    x = np.asarray(x, dtype=float)
    node = tree.root
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    counts = [int(c) for c in node.class_counts]
    total = sum(counts)
    probs = np.array([c / total for c in counts])
    return tree.classes[int(np.argmax(probs))], probs


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


def _destination(lat_deg: float, lon_deg: float, bearing: float, distance_m: float):
    """Point at the given arc distance along a great circle (spherical)."""
    delta = distance_m / EARTH_RADIUS_M
    phi = math.radians(lat_deg)
    lam = math.radians(lon_deg)
    sin_phi2 = math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * sin_phi2,
    )
    lon2 = math.degrees(lam2)
    lon2 = (lon2 + 180.0) % 360.0 - 180.0
    return math.degrees(phi2), lon2


def generate_trip_pointwise(profile, seed, start_time=None) -> Trip:
    """The former synth.generate_trip: one ``_destination`` call per fix.

    Kept verbatim as the reference for the per-user array generator,
    which must give the same timestamps and coordinates bit for bit.
    """
    rng = np.random.default_rng(seed)
    if start_time is None:
        start_time = _BASE_EPOCH + float(rng.integers(0, 365)) * 86400.0
    lat0 = float(rng.uniform(-60.0, 60.0))
    lon0 = float(rng.uniform(-180.0, 180.0))
    bearing = float(rng.uniform(0.0, 2.0 * math.pi))

    n = profile.points_per_trip
    dt = profile.sampling_period
    cruise = max(0.0, float(rng.normal(profile.mean_cruise_speed, profile.speed_jitter)))
    steps = rng.normal(0.0, profile.accel_scale * dt, size=n - 1)
    speeds = np.empty(n - 1)
    v = cruise
    for i, step in enumerate(steps):
        speeds[i] = v
        v = max(0.0, v + step)
    arc = np.concatenate([[0.0], np.cumsum(speeds * dt)])

    if profile.gps_noise_std > 0:
        noise = rng.normal(0.0, profile.gps_noise_std, size=(n, 2))
    else:
        noise = np.zeros((n, 2))

    lats, lons = [], []
    for i in range(n):
        lat, lon = _destination(lat0, lon0, bearing, float(arc[i]))
        lat += math.degrees(noise[i, 0] / EARTH_RADIUS_M)
        cos_lat = max(0.01, math.cos(math.radians(lat)))
        lon += math.degrees(noise[i, 1] / (EARTH_RADIUS_M * cos_lat))
        lat = min(90.0, max(-90.0, lat))
        lon = (lon + 180.0) % 360.0 - 180.0
        lats.append(lat)
        lons.append(lon)
    times = (start_time + np.arange(n) * dt).astype(np.int64)
    track = Track(times, lats, lons)
    return Trip(profile.user_id, modality_for_speed(profile.mean_cruise_speed), track)
