"""Anomaly-injection experiment: LOF scoring of planted foreign trips.

One user at a time plays the "normal" role; a small number of trips
sampled from the other users are mixed in as ground-truth anomalies.
Every trip then gets a Local Outlier Factor score (k-distance,
reachability distance, local reachability density, density ratio) over
z-scored features, and the ranking is judged by the area under the
precision-recall curve against a uniform-random scorer.

Features are standardized before LOF because the raw columns span
several orders of magnitude (trip duration in the tens of thousands of
seconds vs accelerations near 1 m/s^2), which would let duration alone
dominate the Euclidean distances.

LOF scans a trial's distances in blocks of rows and keeps only each
row's neighbor list, so n rows take O(_LOF_BUFFER + n * k) memory, not
n x n. A block's distances come from one broadcast subtraction into a
buffer of the block's squared column differences, which holds at most
_LOF_BUFFER doubles whatever n and the column count. Exact distance
ties grow the lists, to n * (n - 1) entries when all n rows are
identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Doubles in lof_scores' distance buffer (512 KiB), which sets its rows per block.
_LOF_BUFFER = 1 << 16


class UnknownUser(ValueError):
    """The subject user is not in the dataset."""


class InsufficientDonors(ValueError):
    """The other users cannot supply the requested anomaly count."""


class TooFewRows(ValueError):
    """LOF needs strictly more rows than neighbors."""


class NoPositives(ValueError):
    """PR-AUC is undefined without at least one positive."""


class TrialResult(NamedTuple):
    """PR-AUC of the LOF and random scorers for one injection trial.

    The fields are the columns of anomaly_trials.csv.
    """

    subject_user: str
    trial: int
    seed: int
    n_normal: int
    n_anomaly: int
    pr_auc_lof: float
    pr_auc_random: float


def anomaly_count(n_normal: int, rate: float = 0.03) -> int:
    """Anomalies to inject: max(1, round(rate * n_normal))."""
    return max(1, round(rate * n_normal))


def inject_anomalies(
    dataset, subject: str, rate: float = 0.03, seed: int | np.random.Generator = 0
) -> tuple[np.ndarray, int]:
    """Plant foreign trips into one user's trip set.

    All of the subject's rows become normals; the anomalies are sampled
    uniformly without replacement from the pooled rows of all other users.
    Returns the subject's rows followed by the planted rows, and the
    number of subject rows.

    Raises:
        UnknownUser: subject has no rows.
        InsufficientDonors: other users have fewer rows than needed.
    """
    X = dataset.matrix()
    own = dataset.user_rows().get(subject)
    if own is None:
        raise UnknownUser(f"user {subject!r} has no rows")
    n_normal = len(own)
    n_anom = anomaly_count(n_normal, rate)
    n_donors = len(X) - n_normal
    if n_donors < n_anom:
        raise InsufficientDonors(
            f"need {n_anom} donor rows, other users have {n_donors}"
        )
    rng = np.random.default_rng(seed)
    picked = rng.choice(n_donors, size=n_anom, replace=False)
    is_donor = np.ones(len(X), dtype=bool)
    is_donor[own] = False
    donors = np.flatnonzero(is_donor)[np.sort(picked)]
    return X[np.concatenate((own, donors))], n_normal


def standardize(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column with its pooled mean and population std.

    Columns with zero spread map to all zeros. Returns the standardized
    matrix plus the per-column means and stds. The sums and divisions are
    those of ndarray.mean and ndarray.std, so are their bits.

    Raises:
        ValueError: a column's mean or std is not finite, e.g. because
            its values are too large for their squares to fit a float64.
    """
    X = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(X, axis=0) / len(X)
        centered = X - mean
        std = np.sqrt(np.add.reduce(centered * centered, axis=0) / len(X))
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if len(bad):
        j = bad[0]
        raise ValueError(f"column {j} cannot be standardized: mean {mean[j]}, std {std[j]}")
    safe = np.where(std > 0, std, 1.0)
    Z = np.where(std > 0, centered / safe, 0.0)
    return Z, mean, std


def lof_scores(rows, k: int = 20) -> np.ndarray:
    """Local Outlier Factor per row (higher = more anomalous).

    Euclidean distances; the k-neighborhood of a point holds every other
    point at distance <= its k-th nearest-neighbor distance (ties
    included, self excluded). Reachability distance is
    max(k-distance(neighbor), distance); lrd is the inverse mean
    reachability distance, treated as +inf when that mean is zero
    (coincident points), with the ratio of two infinite lrds defined as 1.

    Distances are built a block of rows at a time against all n rows of
    m columns, in one buffer of at most _LOF_BUFFER doubles (the block's
    distances and its m layers of squared column differences, as many
    rows as fit), and each block keeps only its rows' neighbor indices
    and distances, so the working memory is O(_LOF_BUFFER + n * k)
    rather than n x n. Ties enlarge neighborhoods:
    in the worst case, n identical rows, every row has n - 1 neighbors
    and the flat neighbor lists hold n * (n - 1) entries.

    Raises:
        ValueError: rows is not 2-D, holds a NaN or infinity, k < 1, or
            a squared distance overflows float64.
        TooFewRows: needs strictly more rows than k.
    """
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"LOF needs a 2-D array of rows, got {X.ndim}-D")
    if k < 1:
        raise ValueError(f"LOF needs k >= 1, got {k}")
    if not np.isfinite(X).all():
        raise ValueError("LOF rows must be finite")
    n = len(X)
    if n <= k:
        raise TooFewRows(f"LOF with k={k} needs more than {k} rows, got {n}")
    # The flat lists are updated in place and dropped once used: with all
    # rows tied they are n * (n - 1) entries long.
    try:
        with np.errstate(over="raise"):
            k_dist, sizes, nbr, reach = _neighbor_lists(X, k)
    except FloatingPointError:
        raise ValueError("LOF squared distances overflow float64") from None
    np.maximum(k_dist[nbr], reach, out=reach)
    mean_reach = _grouped_means(reach, sizes)
    del reach
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach == 0.0, np.inf, 1.0 / mean_reach)

    ratios = lrd[nbr]
    del nbr
    lrd_own = np.repeat(lrd, sizes)
    both_inf = np.isinf(ratios) & np.isinf(lrd_own)
    with np.errstate(invalid="ignore"):
        ratios /= lrd_own
    ratios[both_inf] = 1.0
    return _grouped_means(ratios, sizes)


def _rows_per_block(n: int, depth: int) -> int:
    """Rows per distance block: a depth x rows x n buffer fits _LOF_BUFFER doubles."""
    return max(1, _LOF_BUFFER // (depth * n))


def _neighbor_lists(X: np.ndarray, k: int):
    """One blocked pass over the distances: each row's k-distance and neighbors.

    Returns k_dist, the neighborhood size of each row, and the neighbor
    indices with their distances laid end to end by row, each row's in
    column order.

    One buffer of depth layers of step x n doubles serves every block:
    the block's distances, then its m layers of squared column
    differences, the first of which (a layer of its own when m is 0) is
    then the partition's scratch.
    """
    n, m = X.shape
    depth = max(m, 1) + 1
    step = min(_rows_per_block(n, depth), n)
    XT = np.ascontiguousarray(X.T)
    buf = np.empty(depth * step * n)
    k_dist = np.empty(n)
    sizes = np.empty(n, dtype=np.intp)
    nbr_parts, dist_parts = [], []
    for start in range(0, n, step):
        b = min(step, n - start)
        dist = buf[: b * n].reshape(b, n)
        diff = buf[b * n : (m + 1) * b * n].reshape(m, b, n)
        # Reducing the outer axis adds the squares column by column, in
        # column order: the order in which the per-row loop form adds them,
        # so the distances are bit-equal to that form's.
        np.subtract(XT[:, start : start + b, None], XT[:, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=0, out=dist)
        np.sqrt(dist, out=dist)
        flat_dist = dist.reshape(-1)
        flat_dist[start :: n + 1] = np.inf  # exclude self from neighbor ranks
        scratch = buf[b * n : 2 * b * n].reshape(b, n)
        np.copyto(scratch, dist)
        scratch.partition(k - 1, axis=1)
        kd = scratch[:, k - 1]
        k_dist[start : start + b] = kd
        flat = np.flatnonzero(dist <= kd[:, None])
        row_ends = np.searchsorted(flat, np.arange(0, (b + 1) * n, n))
        sizes[start : start + b] = row_ends[1:] - row_ends[:-1]
        nbr_parts.append(flat % n)
        dist_parts.append(flat_dist[flat])
    return k_dist, sizes, np.concatenate(nbr_parts), np.concatenate(dist_parts)


def _grouped_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each row's run of values, the runs laid end to end by row.

    Rows with the same run size are gathered into one (rows, size) array
    and summed along axis 1, which adds each row exactly as ndarray.mean
    adds a 1-D slice (pairwise, in order). When every run has the same
    size, values itself is that array. np.add.reduceat groups the
    additions differently, so its sums can differ in the last bits.
    """
    size = int(sizes[0])
    if (sizes == size).all():
        return values.reshape(len(sizes), size).sum(axis=1) / size
    starts = np.cumsum(sizes) - sizes
    means = np.empty(len(sizes))
    for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(sizes == size)
        block = values[starts[idx, None] + np.arange(size)]
        means[idx] = block.sum(axis=1) / size
    return means


def pr_auc(ground_truth, scores) -> float:
    """Area under the precision-recall curve by step-wise average precision.

    Rows are ranked by descending score with ties grouped into a single
    threshold step; AP = sum over steps of (recall gain) * precision.

    Raises:
        ValueError: lengths differ, or a score is NaN (+-inf just ranks).
        NoPositives: ground truth has no positive.
    """
    y = np.asarray(ground_truth, dtype=bool)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise ValueError("length mismatch")
    if np.isnan(s).any():
        raise ValueError("scores contain NaN")
    n_pos = np.count_nonzero(y)
    if n_pos == 0:
        raise NoPositives("ground truth has no positive rows")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    tp = np.cumsum(y[order])
    # The last index of each tie group is one threshold step.
    last = np.empty(len(s), dtype=bool)
    np.not_equal(s_sorted[1:], s_sorted[:-1], out=last[:-1])
    last[-1] = True
    step = np.flatnonzero(last)
    tp_step = tp[step]
    precision = tp_step / (step + 1)
    recall = tp_step / n_pos
    gain = recall.copy()
    gain[1:] -= recall[:-1]
    return float(np.add.reduce(gain * precision))


def run_anomaly_experiment(
    dataset,
    trials_per_user: int = 10,
    rate: float = 0.03,
    k: int = 20,
    seed: int = 0,
) -> tuple[list[TrialResult], dict, list[tuple[str, float, float]]]:
    """Injection trials for every user, scored by LOF and a random ranker.

    Each (user, trial) pair gets its own recorded integer seed derived
    from the master seed, so single trials can be replayed. Returns what
    the anomaly command writes: the trial rows, in user then trial order;
    the anomaly_summary.json document (n_trials, then mean, std, min,
    median and max of each scorer's PR-AUCs over all trials); and per
    user, in id order, (user_id, mean LOF PR-AUC, mean random PR-AUC).

    Raises:
        UnknownUser: the dataset has no rows.
        TooFewRows: some user's trial would have no more than k rows.
        InsufficientDonors: the other users cannot supply some user's
            anomalies.
        Both are checked for every user before the first trial runs.
    """
    counts = dataset.user_counts()
    users = sorted(counts)
    if not users:
        raise UnknownUser("dataset has no rows")
    for user in users:
        n_anom = anomaly_count(counts[user], rate)
        n_rows = counts[user] + n_anom
        if n_rows <= k:
            raise TooFewRows(
                f"user {user!r}: LOF with k={k} needs more than {k} rows, "
                f"a trial has {n_rows}"
            )
        donors = len(dataset.users) - counts[user]
        if donors < n_anom:
            raise InsufficientDonors(
                f"user {user!r}: need {n_anom} donor rows, other users have {donors}"
            )
    trial_seeds = np.random.SeedSequence(seed).generate_state(
        len(users) * trials_per_user, dtype=np.uint64
    )
    results: list[TrialResult] = []
    per_user = []
    for u_idx, user in enumerate(users):
        for trial in range(trials_per_user):
            trial_seed = int(trial_seeds[u_idx * trials_per_user + trial])
            rng = np.random.default_rng(trial_seed)
            rows, n_normal = inject_anomalies(dataset, user, rate=rate, seed=rng)
            standardized, _, _ = standardize(rows)
            lof = lof_scores(standardized, k=k)
            truth = np.arange(len(rows)) >= n_normal
            random_scores = rng.uniform(size=len(truth))
            results.append(
                TrialResult(
                    subject_user=user,
                    trial=trial,
                    seed=trial_seed,
                    n_normal=n_normal,
                    n_anomaly=len(rows) - n_normal,
                    pr_auc_lof=pr_auc(truth, lof),
                    pr_auc_random=pr_auc(truth, random_scores),
                )
            )
        mine = results[u_idx * trials_per_user :]
        per_user.append(
            (
                user,
                float(np.mean([r.pr_auc_lof for r in mine])),
                float(np.mean([r.pr_auc_random for r in mine])),
            )
        )

    summary = {"n_trials": len(results)}
    for scorer, values in (
        ("lof", [r.pr_auc_lof for r in results]),
        ("random", [r.pr_auc_random for r in results]),
    ):
        arr = np.asarray(values, dtype=float)
        # np.median's arithmetic (mean of the middle one or two); np.median imports numpy.ma.
        middle = np.sort(arr)[(len(arr) - 1) // 2 : len(arr) // 2 + 1]
        summary[scorer] = {
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "min": float(arr.min()),
            "median": float(middle.mean()),
            "max": float(arr.max()),
        }
    return results, summary, per_user
