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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnknownUser(ValueError):
    """The subject user is not in the dataset."""


class InsufficientDonors(ValueError):
    """The other users cannot supply the requested anomaly count."""


class TooFewRows(ValueError):
    """LOF needs strictly more rows than neighbors."""


class NoPositives(ValueError):
    """PR-AUC is undefined without at least one positive."""


@dataclass(frozen=True)
class InjectedDataset:
    """The subject user's rows plus foreign rows flagged as anomalies."""

    subject: str
    normal_rows: np.ndarray
    anomaly_rows: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        return np.vstack([self.normal_rows, self.anomaly_rows])

    @property
    def ground_truth(self) -> np.ndarray:
        return np.concatenate(
            [
                np.zeros(len(self.normal_rows), dtype=bool),
                np.ones(len(self.anomaly_rows), dtype=bool),
            ]
        )


@dataclass(frozen=True)
class TrialResult:
    """PR-AUC of the LOF and random scorers for one injection trial."""

    user_id: str
    trial: int
    seed: int
    n_normal: int
    n_anomaly: int
    pr_auc_lof: float
    pr_auc_random: float


@dataclass(frozen=True)
class ScoreSummary:
    mean: float
    std: float
    min: float
    median: float
    max: float

    @classmethod
    def of(cls, values) -> "ScoreSummary":
        arr = np.asarray(values, dtype=float)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            median=float(np.median(arr)),
            max=float(arr.max()),
        )


@dataclass(frozen=True)
class ExperimentSummary:
    n_trials: int
    lof: ScoreSummary
    random: ScoreSummary
    per_user_mean_lof: dict[str, float]
    per_user_mean_random: dict[str, float]


def anomaly_count(n_normal: int, rate: float = 0.03) -> int:
    """Anomalies to inject: max(1, round(rate * n_normal))."""
    return max(1, round(rate * n_normal))


def inject_anomalies(
    dataset, subject: str, rate: float = 0.03, seed: int | np.random.Generator = 0
) -> InjectedDataset:
    """Plant foreign trips into one user's trip set.

    All of the subject's rows become normals; the anomalies are sampled
    uniformly without replacement from the pooled rows of all other users.

    Raises:
        UnknownUser: subject has no rows.
        InsufficientDonors: other users have fewer rows than needed.
    """
    X = dataset.matrix()
    subject_mask = dataset.users == subject
    n_normal = int(subject_mask.sum())
    if n_normal == 0:
        raise UnknownUser(f"user {subject!r} has no rows")
    n_anom = anomaly_count(n_normal, rate)
    donor_idx = np.flatnonzero(~subject_mask)
    if len(donor_idx) < n_anom:
        raise InsufficientDonors(
            f"need {n_anom} donor rows, other users have {len(donor_idx)}"
        )
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(donor_idx), size=n_anom, replace=False)
    return InjectedDataset(
        subject=subject,
        normal_rows=X[subject_mask],
        anomaly_rows=X[donor_idx[np.sort(picked)]],
    )


def standardize(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column with its pooled mean and population std.

    Columns with zero spread map to all zeros. Returns the standardized
    matrix plus the per-column means and stds.
    """
    X = np.asarray(rows, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    Z = np.where(std > 0, (X - mean) / safe, 0.0)
    return Z, mean, std


def lof_scores(rows, k: int = 20) -> np.ndarray:
    """Local Outlier Factor per row (higher = more anomalous).

    Euclidean distances; the k-neighborhood of a point holds every other
    point at distance <= its k-th nearest-neighbor distance (ties
    included, self excluded). Reachability distance is
    max(k-distance(neighbor), distance); lrd is the inverse mean
    reachability distance, treated as +inf when that mean is zero
    (coincident points), with the ratio of two infinite lrds defined as 1.

    Raises:
        TooFewRows: needs strictly more rows than k.
    """
    X = np.asarray(rows, dtype=float)
    n = len(X)
    if n <= k:
        raise TooFewRows(f"LOF with k={k} needs more than {k} rows, got {n}")
    # Squares summed column by column, in order, as scipy's cdist does, so
    # the distances are the same to the last bit.
    sq = np.zeros((n, n))
    for col in X.T:
        d = col[:, None] - col[None, :]
        sq += d * d
    dist = np.sqrt(sq)
    np.fill_diagonal(dist, np.inf)  # exclude self from neighbor ranks
    k_dist = np.partition(dist, k - 1, axis=1)[:, k - 1]

    neighbors = dist <= k_dist[:, None]
    reach = np.maximum(k_dist[None, :], dist)
    mean_reach = _neighbor_means(reach, neighbors)
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach == 0.0, np.inf, 1.0 / mean_reach)

    with np.errstate(invalid="ignore"):
        ratios = lrd[None, :] / lrd[:, None]
    inf_lrd = np.isinf(lrd)
    ratios[inf_lrd[:, None] & inf_lrd[None, :]] = 1.0
    return _neighbor_means(ratios, neighbors)


def _neighbor_means(values: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mean of values[i, neighbors[i]] for each row i.

    Rows with the same neighborhood size are summed together as one
    (rows, size) block along axis 1, which adds each row exactly as
    ndarray.mean adds a 1-D slice (pairwise, in column order).
    """
    sizes = neighbors.sum(axis=1)
    means = np.empty(len(values))
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        block = values[idx][neighbors[idx]].reshape(len(idx), size)
        means[idx] = block.sum(axis=1) / size
    return means


def pr_auc(ground_truth, scores) -> float:
    """Area under the precision-recall curve by step-wise average precision.

    Rows are ranked by descending score with ties grouped into a single
    threshold step; AP = sum over steps of (recall gain) * precision.

    Raises:
        NoPositives: ground truth has no positive.
    """
    y = np.asarray(ground_truth, dtype=bool)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise ValueError("length mismatch")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise NoPositives("ground truth has no positive rows")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = np.cumsum(y_sorted)
    pp = np.arange(1, len(y) + 1)
    # last index of each tie group = one threshold step
    step = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    precision = tp[step] / pp[step]
    recall = tp[step] / n_pos
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def run_anomaly_experiment(
    dataset,
    trials_per_user: int = 10,
    rate: float = 0.03,
    k: int = 20,
    seed: int = 0,
) -> tuple[list[TrialResult], ExperimentSummary]:
    """Injection trials for every user, scored by LOF and a random ranker.

    Each (user, trial) pair gets its own recorded integer seed derived
    from the master seed, so single trials can be replayed. The summary
    reports mean/std/min/median/max over all trials for both scorers,
    plus per-user mean PR-AUCs.

    Raises:
        UnknownUser: the dataset has no rows.
        TooFewRows: some user's trial would have no more than k rows;
            checked for every user before the first trial runs.
    """
    counts = dataset.user_counts()
    users = sorted(counts)
    if not users:
        raise UnknownUser("dataset has no rows")
    for user in users:
        n_rows = counts[user] + anomaly_count(counts[user], rate)
        if n_rows <= k:
            raise TooFewRows(
                f"user {user!r}: LOF with k={k} needs more than {k} rows, "
                f"a trial has {n_rows}"
            )
    trial_seeds = np.random.SeedSequence(seed).generate_state(
        len(users) * trials_per_user, dtype=np.uint64
    )
    results: list[TrialResult] = []
    for u_idx, user in enumerate(users):
        for trial in range(trials_per_user):
            trial_seed = int(trial_seeds[u_idx * trials_per_user + trial])
            rng = np.random.default_rng(trial_seed)
            injected = inject_anomalies(dataset, user, rate=rate, seed=rng)
            standardized, _, _ = standardize(injected.vectors)
            lof = lof_scores(standardized, k=k)
            truth = injected.ground_truth
            random_scores = rng.uniform(size=len(truth))
            results.append(
                TrialResult(
                    user_id=user,
                    trial=trial,
                    seed=trial_seed,
                    n_normal=len(injected.normal_rows),
                    n_anomaly=len(injected.anomaly_rows),
                    pr_auc_lof=pr_auc(truth, lof),
                    pr_auc_random=pr_auc(truth, random_scores),
                )
            )

    per_user_lof = {
        u: float(np.mean([r.pr_auc_lof for r in results if r.user_id == u]))
        for u in users
    }
    per_user_random = {
        u: float(np.mean([r.pr_auc_random for r in results if r.user_id == u]))
        for u in users
    }
    summary = ExperimentSummary(
        n_trials=len(results),
        lof=ScoreSummary.of([r.pr_auc_lof for r in results]),
        random=ScoreSummary.of([r.pr_auc_random for r in results]),
        per_user_mean_lof=per_user_lof,
        per_user_mean_random=per_user_random,
    )
    return results, summary
