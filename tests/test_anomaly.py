import tracemalloc

import numpy as np
import pytest

from tripkin import anomaly
from tripkin.anomaly import (
    InsufficientDonors,
    NoPositives,
    TooFewRows,
    UnknownUser,
    anomaly_count,
    inject_anomalies,
    lof_scores,
    pr_auc,
    run_anomaly_experiment,
    standardize,
)
from tripkin.features import FEATURE_NAMES

from helpers import feature_dataset
from oracles import average_precision_sweep, lof_bruteforce, lof_scores_loop


# Finite values whose squares, and squared differences, overflow float64.
OVERFLOW_COLUMN = [0.0, 1e200, -1e200, 2e200, 3e200, 5.0]


def blob_dataset(centers, n_per_user=40, spread=0.2, seed=0):
    rng = np.random.default_rng(seed)
    rows, users = [], []
    for u, center in enumerate(centers):
        for _ in range(n_per_user):
            values = rng.normal(center, spread, size=len(FEATURE_NAMES))
            values[0] = abs(values[0]) + 1.0  # duration_s
            rows.append(values)
            users.append(f"{u:03d}")
    return feature_dataset(rows, users)


class TestInjection:
    def test_anomaly_counts(self):
        assert anomaly_count(100) == 3
        assert anomaly_count(31) == 1
        assert anomaly_count(748) == 22

    def test_injection_shape(self):
        dataset = blob_dataset((2.0, 20.0), n_per_user=100)
        injected = inject_anomalies(dataset, "000", seed=1)
        assert len(injected.normal_rows) == 100
        assert len(injected.anomaly_rows) == 3
        assert injected.ground_truth.sum() == 3
        assert injected.ground_truth[:100].sum() == 0

    def test_no_anomaly_from_subject(self):
        dataset = blob_dataset((0.0, 1000.0), n_per_user=50)
        injected = inject_anomalies(dataset, "000", seed=2)
        # The subject blob sits near 0; donors near 1000 are unmistakable.
        assert np.all(np.abs(injected.anomaly_rows) > 500)

    def test_unknown_user(self):
        dataset = blob_dataset((2.0, 20.0), n_per_user=40)
        with pytest.raises(UnknownUser):
            inject_anomalies(dataset, "zzz", seed=0)

    def test_insufficient_donors(self):
        rng = np.random.default_rng(0)
        rows, users = [], []
        for uid, n in (("big", 100), ("tiny", 2)):
            for _ in range(n):
                rows.append(rng.uniform(1, 2, size=len(FEATURE_NAMES)))
                users.append(uid)
        dataset = feature_dataset(rows, users)
        with pytest.raises(InsufficientDonors):
            inject_anomalies(dataset, "big", rate=0.03, seed=0)  # needs 3 of 2

    def test_deterministic_under_seed(self):
        dataset = blob_dataset((2.0, 20.0, 50.0), n_per_user=64)
        a = inject_anomalies(dataset, "001", seed=7)
        b = inject_anomalies(dataset, "001", seed=7)
        assert np.array_equal(a.anomaly_rows, b.anomaly_rows)


class TestStandardize:
    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        Z, _, std = standardize(X)
        assert np.all(Z[:, 0] == 0.0)
        assert std[0] == 0.0

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 4))
        Z, _, _ = standardize(X)
        Z2, _, _ = standardize(Z)
        assert np.allclose(Z2, Z, atol=1e-12)

    def test_columns_become_zero_mean_unit_std(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-50, 90, size=(300, 6))
        Z, _, _ = standardize(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)


    def test_finite_values_bit_identical_to_the_z_score_formula(self):
        X = np.random.default_rng(5).uniform(-1e150, 1e150, size=(50, 4))
        Z, mean, std = standardize(X)
        assert np.array_equal(Z, (X - X.mean(axis=0)) / X.std(axis=0))
        assert np.array_equal(mean, X.mean(axis=0)) and np.array_equal(std, X.std(axis=0))

    def test_overflowing_column_rejected_by_name(self):
        X = np.column_stack([np.arange(6.0), OVERFLOW_COLUMN])
        with pytest.raises(ValueError, match="column 1 cannot be standardized"):
            standardize(X)


class TestLofScores:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for n, k in ((60, 5), (120, 10), (120, 20)):
            X = rng.normal(size=(n, 4))
            got = lof_scores(X, k=k)
            want = lof_bruteforce(X.tolist(), k=k)
            assert np.allclose(got, want, rtol=1e-9)

    def test_matches_bruteforce_oracle_with_distance_ties(self):
        # Integer grids produce exact distance ties, exercising the
        # ties-included neighborhood rule on both sides.
        grid = np.array([[i, j] for i in range(8) for j in range(8)], dtype=float)
        for k in (3, 5, 10):
            got = lof_scores(grid, k=k)
            want = lof_bruteforce(grid.tolist(), k=k)
            assert np.allclose(got, want, rtol=1e-9)

    def test_planted_outlier_in_grid(self):
        grid = np.array([[i, j] for i in range(10) for j in range(10)], dtype=float)
        X = np.vstack([grid, [[50.0, 50.0]]])
        lof = lof_scores(X, k=10)
        assert int(np.argmax(lof)) == 100
        assert lof[100] > 1.5
        assert np.all(np.abs(lof[:100] - 1.0) <= 0.2)

    def test_identical_points_all_defined_and_equal(self):
        lof = lof_scores(np.zeros((25, 3)), k=5)
        assert np.all(lof == lof[0])
        assert np.isfinite(lof).all()

    def test_two_clusters_below_planted_outlier(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 0.3, size=(50, 2))
        b = rng.normal(20.0, 0.3, size=(50, 2))
        clusters = np.vstack([a, b])
        grid = np.array([[i, j] for i in range(10) for j in range(10)], dtype=float)
        planted = np.vstack([grid, [[50.0, 50.0]]])
        assert lof_scores(clusters, k=10).max() < lof_scores(planted, k=10).max()

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 5))
        base = lof_scores(X, k=10)
        assert np.allclose(lof_scores(X + 123.0, k=10), base, rtol=1e-9)
        assert np.allclose(lof_scores(X * 37.5, k=10), base, rtol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            lof_scores(np.zeros((20, 2)), k=20)

    @pytest.mark.parametrize("k", (1, 5, 20))
    def test_bit_identical_to_loop_reference(self, k):
        rng = np.random.default_rng(100 + k)
        for trial in range(12):
            n = int(rng.integers(k + 2, 90))
            X = rng.normal(size=(n, 10)) * rng.uniform(0.1, 5.0, size=10)
            if trial % 3 == 1:  # rounding makes many exact distance ties
                X = np.round(X, 1)
            elif trial % 3 == 2:  # duplicated rows give zero distances
                X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]
            assert np.array_equal(lof_scores(X, k=k), lof_scores_loop(X, k=k))

    def test_one_dimensional_rows_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            lof_scores(np.arange(30.0), k=5)

    def test_nan_row_rejected(self):
        X = np.random.default_rng(20).normal(size=(30, 3))
        X[4, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lof_scores(X, k=5)

    def test_infinite_row_rejected(self):
        X = np.random.default_rng(21).normal(size=(30, 3))
        X[7, 0] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            lof_scores(X, k=5)

    def test_k_below_one_rejected(self):
        X = np.random.default_rng(22).normal(size=(30, 3))
        with pytest.raises(ValueError, match="k >= 1"):
            lof_scores(X, k=0)

    def test_overflowing_distance_rejected(self):
        X = np.column_stack([np.arange(6.0), OVERFLOW_COLUMN])
        with pytest.raises(ValueError, match="overflow"):
            lof_scores(X, k=2)


def _lof_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "k_plus_one":
        return rng.normal(size=(21, 10)), 20
    if name == "several_blocks":
        return rng.normal(size=(300, 10)) * rng.uniform(0.1, 5.0, size=10), 20
    if name == "rounded_ties":
        return np.round(rng.normal(size=(150, 10)), 1), 10
    if name == "duplicated_rows":
        X = rng.normal(size=(120, 10))
        X[rng.integers(0, 120, 40)] = X[rng.integers(0, 120, 40)]
        return X, 5
    if name == "identical_rows":
        return np.full((40, 10), 2.5), 5
    raise KeyError(name)


class TestLofBlocks:
    @pytest.mark.parametrize(
        "case",
        ("k_plus_one", "several_blocks", "rounded_ties", "duplicated_rows", "identical_rows"),
    )
    def test_bit_identical_to_loop_at_every_block_size(self, monkeypatch, case):
        X, k = _lof_case(case)
        n = len(X)
        want = lof_scores_loop(X, k=k)
        for rows_per_block in (1, 3, 7, n - 1, n, 2 * n):
            monkeypatch.setattr(anomaly, "_LOF_BLOCK", rows_per_block * n)
            got = lof_scores(X, k=k)
            assert np.array_equal(got, want), rows_per_block

    @staticmethod
    def _peak_bytes(n):
        X = np.random.default_rng(n).normal(size=(n, 10))
        tracemalloc.start()
        try:
            lof_scores(X, k=20)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_set_by_the_block_not_by_n_squared(self):
        half, full = self._peak_bytes(750), self._peak_bytes(1500)
        # One 1500 x 1500 float64 array alone is 17.2 MiB.
        assert full < 4 * 2**20, full
        # Doubling n quadruples every n x n array; block and lists only double.
        assert full < 2 * half, (half, full)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_stepped_fixture(self):
        assert pr_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(
            0.5 * 1.0 + 0.5 * (2 / 3)
        )

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            truth = rng.integers(0, 2, size=n)
            if truth.sum() == 0:
                truth[0] = 1
            scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
            assert pr_auc(truth, scores) == pytest.approx(
                average_precision_sweep(truth.tolist(), scores.tolist()), abs=1e-12
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(9)
        truth = rng.integers(0, 2, size=50)
        truth[0] = 1
        scores = rng.normal(size=50)
        base = pr_auc(truth, scores)
        assert pr_auc(truth, 10 * scores + 3) == pytest.approx(base, abs=1e-12)
        assert pr_auc(truth, np.exp(scores)) == pytest.approx(base, abs=1e-12)

    def test_random_scores_mean_near_prevalence(self):
        rng = np.random.default_rng(10)
        n, n_pos = 16_000, 12_800
        truth = np.zeros(n, dtype=bool)
        truth[:n_pos] = True
        aps = [pr_auc(truth, rng.uniform(size=n)) for _ in range(100)]
        se = np.std(aps) / np.sqrt(len(aps))
        assert abs(np.mean(aps) - n_pos / n) < 3 * se

    def test_random_scores_small_prevalence_bias_is_positive(self):
        # At anomaly-experiment prevalences the step-wise AP of a random
        # ranking sits visibly above the raw prevalence.
        rng = np.random.default_rng(10)
        truth = np.zeros(200, dtype=bool)
        truth[:6] = True
        aps = [pr_auc(truth, rng.uniform(size=200)) for _ in range(500)]
        assert 0.03 < np.mean(aps) < 0.08

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            pr_auc([0, 0, 0], [0.1, 0.2, 0.3])

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            pr_auc([0, 1, 1], [0.1, np.nan, 0.3])

    def test_infinite_scores_rank_first(self):
        # Degenerate LOF setups can emit +inf scores; they must just rank.
        assert pr_auc([1, 0, 0], [np.inf, 3.0, 1.0]) == 1.0
        assert pr_auc([1, 1, 0], [np.inf, np.inf, 5.0]) == 1.0


class TestExperiment:
    def test_trial_count_and_determinism(self):
        dataset = blob_dataset((2.0, 20.0, 45.0), n_per_user=40, seed=11)
        results_a, summary_a, per_user_a = run_anomaly_experiment(dataset, trials_per_user=4, seed=12)
        results_b, summary_b, per_user_b = run_anomaly_experiment(dataset, trials_per_user=4, seed=12)
        assert len(results_a) == 3 * 4
        assert results_a == results_b
        assert summary_a == summary_b
        assert per_user_a == per_user_b

    def test_separated_users_score_high(self):
        dataset = blob_dataset((2.0, 25.0, 60.0, 110.0), n_per_user=40, spread=0.1, seed=13)
        results, summary, _ = run_anomaly_experiment(dataset, trials_per_user=5, k=20, seed=14)
        for r in results:
            assert r.pr_auc_lof >= 0.9
            assert r.pr_auc_lof > r.pr_auc_random
        assert summary["lof"]["mean"] > summary["random"]["mean"]

    def test_summary_per_user_tables(self):
        dataset = blob_dataset((2.0, 20.0), n_per_user=35, seed=15)
        results, _, per_user = run_anomaly_experiment(dataset, trials_per_user=3, seed=16)
        per_user_mean_lof = {user: lof for user, lof, _ in per_user}
        assert set(per_user_mean_lof) == {"000", "001"}
        for user in ("000", "001"):
            mine = [r.pr_auc_lof for r in results if r.subject_user == user]
            assert per_user_mean_lof[user] == pytest.approx(np.mean(mine))

    def test_too_large_k_fails_before_any_trial(self, monkeypatch):
        # User "000" alone could run k=50 trials; "001" cannot (40 + 1 rows).
        rng = np.random.default_rng(19)
        rows, users = [], []
        for uid, n in (("000", 80), ("001", 40)):
            for _ in range(n):
                values = rng.normal(5.0, 1.0, size=len(FEATURE_NAMES))
                values[0] = abs(values[0]) + 1.0  # duration_s
                rows.append(values)
                users.append(uid)
        dataset = feature_dataset(rows, users)
        calls = []
        monkeypatch.setattr(
            "tripkin.anomaly.lof_scores", lambda *a, **kw: calls.append(1)
        )
        with pytest.raises(TooFewRows, match="'001'"):
            run_anomaly_experiment(dataset, trials_per_user=2, k=50, seed=0)
        assert calls == []

    def test_trial_seed_replays(self):
        dataset = blob_dataset((2.0, 20.0), n_per_user=40, seed=17)
        results, _, _ = run_anomaly_experiment(dataset, trials_per_user=2, seed=18)
        r = results[0]
        replay = inject_anomalies(dataset, r.subject_user, seed=np.random.default_rng(r.seed))
        standardized, _, _ = standardize(replay.vectors)
        assert pr_auc(replay.ground_truth, lof_scores(standardized, k=20)) == r.pr_auc_lof
