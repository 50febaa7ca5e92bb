import tracemalloc

import numpy as np
import pytest

from tripkin import learn
from tripkin.features import FEATURE_NAMES
from tripkin.learn import (
    _binary_auc,
    ClassTooSmall,
    DecisionTree,
    EmptyTrainingSet,
    Leaf,
    Split,
    UndefinedMetric,
    accuracy,
    class_order,
    confusion_matrix,
    macro_f1,
    predict_batch,
    roc_auc_ovr_macro,
    run_classification,
    stratified_kfold,
    train_tree,
    uniform_random_baseline,
    weighted_random_baseline,
)

from helpers import feature_dataset
from oracles import (
    accuracy_loop,
    binary_auc_pairwise,
    cart_tree_per_feature,
    macro_f1_confusion,
    macro_f1_loop,
    predict_rowwise,
    roc_auc_ovr_macro_pairwise,
)


def random_fixture(rng, n=40, n_classes=3, n_features=10):
    X = rng.normal(size=(n, n_features))
    y = [f"u{rng.integers(n_classes)}" for _ in range(n)]
    while len(set(y)) < n_classes:
        y = [f"u{rng.integers(n_classes)}" for _ in range(n)]
    return X, y


class TestStratifiedKfold:
    def test_thirty_rows_five_folds(self):
        fold_of_row = stratified_kfold(["a"] * 30, k=5, seed=0)
        assert sorted(np.bincount(fold_of_row).tolist()) == [6] * 5

    def test_thirty_one_rows(self):
        fold_of_row = stratified_kfold(["a"] * 31, k=5, seed=0)
        assert sorted(np.bincount(fold_of_row).tolist()) == [6, 6, 6, 6, 7]

    def test_same_seed_identical(self):
        labels = ["a"] * 12 + ["b"] * 17
        a = stratified_kfold(labels, k=5, seed=42)
        b = stratified_kfold(labels, k=5, seed=42)
        assert np.array_equal(a, b)

    def test_per_class_balance(self):
        rng = np.random.default_rng(1)
        labels = [f"u{rng.integers(4)}" for _ in range(123)]
        fold_of_row = stratified_kfold(labels, k=5, seed=3)
        arr = np.asarray(labels, dtype=object)
        for cls in set(labels):
            sizes = np.bincount(fold_of_row[arr == cls], minlength=5)
            assert sizes.max() - sizes.min() <= 1

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_kfold(["a"] * 4 + ["b"] * 30, k=5, seed=0)


class TestTrainTree:
    def test_single_threshold_separation(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [8.0, 5.0], [9.0, 5.0]])
        y = ["a", "a", "b", "b"]
        tree = train_tree(X, y)
        assert isinstance(tree.root, Split)
        assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
        preds, _ = predict_batch(tree, X)
        assert preds == y

    def test_identical_rows_mixed_labels(self):
        X = np.ones((4, 3))
        y = ["a", "b", "a", "a"]
        tree = train_tree(X, y)
        assert isinstance(tree.root, Leaf)
        (label,), (probs,) = predict_batch(tree, [[1.0, 1.0, 1.0]])
        assert label == "a"
        assert probs == pytest.approx([0.75, 0.25])

    def test_conflict_free_training_accuracy_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, y = random_fixture(rng)
            seen = {}
            for row, lab in zip(map(tuple, X), y):
                assert seen.setdefault(row, lab) == lab
            tree = train_tree(X, y)
            preds, _ = predict_batch(tree, X)
            assert accuracy(y, preds) == 1.0

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(6)
        X, y = random_fixture(rng)
        tree = train_tree(X, y, max_depth=1)
        assert isinstance(tree.root, Split)
        assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_tree(np.empty((0, 10)), [])

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            train_tree(np.zeros(4), ["a", "b", "a", "b"])
        with pytest.raises(ValueError, match="3 rows but there are 4 labels"):
            train_tree(np.zeros((3, 2)), ["a", "b", "a", "b"])
        for bad in (np.nan, np.inf, -np.inf):
            X = np.zeros((3, 2))
            X[1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                train_tree(X, ["a", "b", "a"])

    def test_one_depth_mixes_every_stop_condition(self, monkeypatch):
        # At depth 2: a pure node, an impure node below min_samples_split,
        # an impure node of identical rows, and a split whose children are
        # leaves because of max_depth.
        f0 = [0, 1, 2, 3, 10, 11, 60, 60, 60, 70, 71, 72, 73, 74, 75]
        X = np.column_stack([f0, np.zeros(len(f0))])
        y = list("aaaaba" "cdc" "efefef")
        for block in (learn._BLOCK, 1):
            monkeypatch.setattr(learn, "_BLOCK", block)
            tree = train_tree(X, y, max_depth=3, min_samples_split=3)
            want = cart_tree_per_feature(X, y, max_depth=3, min_samples_split=3)
            assert same_node(tree.root, want.root)
            assert tree.classes == ("a", "e", "f", "c", "b", "d")
            pure, small = tree.root.left.left, tree.root.left.right
            same_rows, capped = tree.root.right.left, tree.root.right.right
            assert pure.class_counts.tolist() == [4, 0, 0, 0, 0, 0]
            assert small.class_counts.tolist() == [1, 0, 0, 0, 1, 0]
            assert same_rows.class_counts.tolist() == [0, 0, 0, 2, 0, 1]
            assert (capped.feature_index, capped.threshold) == (0, 70.5)
            assert capped.right.class_counts.tolist() == [0, 2, 3, 0, 0, 0]

    def test_tied_splits_prefer_lowest_feature_then_threshold(self):
        # Columns 1 and 2 both separate the labels perfectly; column 1 wins.
        X = np.array(
            [
                [0.0, 1.0, 10.0],
                [0.0, 2.0, 20.0],
                [0.0, 3.0, 30.0],
                [0.0, 4.0, 40.0],
            ]
        )
        y = ["a", "a", "b", "b"]
        tree = train_tree(X, y)
        assert tree.root.feature_index == 1
        assert tree.root.threshold == pytest.approx(2.5)
        # Symmetric labels make the 1.5 and 2.5 thresholds equally impure
        # on a single feature; the lower threshold is chosen.
        X2 = np.array([[1.0], [2.0], [3.0]])
        y2 = ["a", "b", "a"]
        tree2 = train_tree(X2, y2, max_depth=1)
        assert tree2.root.threshold == pytest.approx(1.5)

    def test_monotone_transform_invariance(self):
        # Judged on the training rows: a point strictly inside a threshold
        # gap has no transform-independent side of the split.
        rng = np.random.default_rng(7)
        transforms = [
            lambda v: 3.0 * v + 1.0,
            lambda v: v**3,
            lambda v: np.exp(v / 4.0),
            lambda v: v / 1000.0,
        ]
        for _ in range(10):
            X, y = random_fixture(rng, n=30)
            picks = rng.integers(len(transforms), size=X.shape[1])
            X_t = np.column_stack([transforms[picks[j]](X[:, j]) for j in range(X.shape[1])])
            base, _ = predict_batch(train_tree(X, y), X)
            transformed, _ = predict_batch(train_tree(X_t, y), X_t)
            assert base == transformed


def same_node(a, b) -> bool:
    """Equal structure, feature indices, threshold bits and leaf counts."""
    if isinstance(a, Leaf):
        return isinstance(b, Leaf) and a.class_counts.tolist() == b.class_counts.tolist()
    return (
        isinstance(b, Split)
        and a.feature_index == b.feature_index
        and np.float64(a.threshold).tobytes() == np.float64(b.threshold).tobytes()
        and same_node(a.left, b.left)
        and same_node(a.right, b.right)
    )


def features_used(node) -> set[int]:
    if isinstance(node, Leaf):
        return set()
    return {node.feature_index} | features_used(node.left) | features_used(node.right)


def thresholds(node) -> list[float]:
    if isinstance(node, Leaf):
        return []
    return [node.threshold, *thresholds(node.left), *thresholds(node.right)]


def oracle_case(rng, case):
    """Seeded random training set; the case number picks its kind."""
    n = 2 if case % 25 == 0 else int(rng.integers(2, 201))
    n_classes = 1 if case % 20 == 0 else int(rng.integers(2, 31))
    n_features = int(rng.integers(1, 13))
    kind = case % 4
    if kind == 0:
        X = rng.normal(size=(n, n_features))
    elif kind == 1:  # rounded: many ties inside each column
        X = np.round(rng.normal(size=(n, n_features)), 1)
    elif kind == 2:  # integer-valued: few distinct cuts
        X = rng.integers(0, 4, size=(n, n_features)).astype(float)
    else:  # a constant column among normal ones
        X = rng.normal(size=(n, n_features))
        X[:, rng.integers(n_features)] = 3.0
    y = [f"u{rng.integers(n_classes)}" for _ in range(n)]
    max_depth = (None, 1, 2, 3)[case % 7 % 4]
    min_samples_split = 2 if case % 3 else int(rng.integers(3, 12))
    return X, y, max_depth, min_samples_split


def check_random_cases():
    """Trees and predictions of 320 seeded cases against the oracles."""
    rng = np.random.default_rng(2024)
    for case in range(320):
        X, y, max_depth, min_samples_split = oracle_case(rng, case)
        got = train_tree(X, y, max_depth=max_depth, min_samples_split=min_samples_split)
        want = cart_tree_per_feature(X, y, max_depth=max_depth, min_samples_split=min_samples_split)
        assert got.classes == want.classes, case
        assert same_node(got.root, want.root), case
        # Rows lying exactly on each split's threshold check the <= side.
        on_cuts = np.repeat(np.array(thresholds(got.root)).reshape(-1, 1), X.shape[1], axis=1)
        probe = np.vstack([X, rng.normal(size=(5, X.shape[1])), on_cuts])
        got_labels, got_probs = predict_batch(got, probe)
        want_labels, want_probs = predict_batch(want, probe)
        assert got_labels == want_labels, case
        assert np.array_equal(got_probs, want_probs), case
        rowwise = [predict_rowwise(got, x) for x in probe]
        assert got_labels == [label for label, _ in rowwise], case
        assert got_probs.tobytes() == np.array([p for _, p in rowwise]).tobytes(), case
        no_labels, no_probs = predict_batch(got, probe[:0])
        assert no_labels == [] and no_probs.shape == (0, len(got.classes)), case


class TestTreeMatchesPerFeatureOracle:
    def test_random_cases_identical(self):
        check_random_cases()

    @pytest.mark.parametrize("block", [1, 97])
    def test_random_cases_identical_in_small_blocks(self, monkeypatch, block):
        # Small blocks split each depth into many node x feature blocks.
        monkeypatch.setattr(learn, "_BLOCK", block)
        check_random_cases()

    def test_few_distinct_values_column(self, monkeypatch):
        # Whole seconds over a narrow range, as duration_s is: long runs of
        # equal values, so most cuts of that column are not candidates.
        rng = np.random.default_rng(33)
        X = rng.normal(size=(400, 4))
        X[:, 2] = rng.integers(60, 66, size=400)
        y = [f"u{c:02d}" for c in rng.integers(26, size=400)]
        want = cart_tree_per_feature(X, y)
        for block in (learn._BLOCK, 1, 97):
            monkeypatch.setattr(learn, "_BLOCK", block)
            assert same_node(train_tree(X, y).root, want.root), block
        assert 2 in features_used(want.root)

    def test_blocked_and_single_feature_nodes_identical(self):
        # 1,500 rows x 26 classes puts the root above the block size (one
        # feature at a time) while small nodes below score all at once.
        rng = np.random.default_rng(31)
        X = np.round(rng.normal(size=(1500, 10)), 2)
        y = [f"u{c:02d}" for c in rng.integers(26, size=1500)]
        assert same_node(train_tree(X, y).root, cart_tree_per_feature(X, y).root)

    def test_peak_memory_not_above_per_feature_oracle(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(1500, 10))
        y = [f"u{c:02d}" for c in rng.integers(26, size=1500)]
        peaks = {}
        for name, fit in (("blocked", train_tree), ("oracle", cart_tree_per_feature)):
            tracemalloc.start()
            try:
                fit(X, y)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["blocked"] <= peaks["oracle"], peaks


class TestPredict:
    def test_leaf_probabilities(self):
        tree = DecisionTree(root=Leaf(np.array([3, 1])), classes=("A", "B"))
        (label,), (probs,) = predict_batch(tree, np.zeros((1, 10)))
        assert label == "A"
        assert probs == pytest.approx([0.75, 0.25])

    def test_pure_leaf(self):
        tree = DecisionTree(root=Leaf(np.array([5, 0])), classes=("A", "B"))
        _, (probs,) = predict_batch(tree, np.zeros((1, 10)))
        assert probs == pytest.approx([1.0, 0.0])

    def test_tie_breaks_by_class_order(self):
        tree = DecisionTree(root=Leaf(np.array([2, 2])), classes=("A", "B"))
        (label,), _ = predict_batch(tree, np.zeros((1, 10)))
        assert label == "A"
        # Class order itself is descending count, then lexicographic.
        assert class_order(["B", "B", "A", "A", "C"]) == ("A", "B", "C")


class TestBaselines:
    def test_weighted_single_class(self):
        preds, probs, classes = weighted_random_baseline({"a": 12}, 5, seed=0)
        assert preds == ["a"] * 5
        assert accuracy(["a"] * 5, preds) == 1.0
        assert np.all(probs == 1.0)

    def test_weighted_accuracy_matches_squared_proportions(self):
        rng = np.random.default_rng(11)
        hist = {"a": 500, "b": 300, "c": 200}
        total = sum(hist.values())
        p = {c: n / total for c, n in hist.items()}
        expected = sum(v * v for v in p.values())
        n = 10_000
        truth = [rng.choice(list(hist), p=list(p.values())) for _ in range(n)]
        preds, _, _ = weighted_random_baseline(hist, n, seed=12)
        se = (expected * (1 - expected) / n) ** 0.5
        assert abs(accuracy(truth, preds) - expected) < 3 * se

    def test_uniform_two_classes(self):
        rng = np.random.default_rng(13)
        truth = [("a", "b")[rng.integers(2)] for _ in range(10_000)]
        preds, probs, _ = uniform_random_baseline(["a", "b"], 10_000, seed=14)
        se = (0.25 / 10_000) ** 0.5
        assert abs(accuracy(truth, preds) - 0.5) < 3 * se
        assert np.all(probs == 0.5)

    def test_constant_probabilities_score_half_auc(self):
        truth = ["a", "b", "a", "b", "b", "a"]
        _, probs, classes = weighted_random_baseline({"a": 3, "b": 7}, len(truth), seed=0)
        assert roc_auc_ovr_macro(truth, probs, classes) == 0.5
        _, u_probs, u_classes = uniform_random_baseline(["a", "b"], len(truth), seed=0)
        assert roc_auc_ovr_macro(truth, u_probs, u_classes) == 0.5

    def test_deterministic(self):
        a = weighted_random_baseline({"a": 5, "b": 5}, 20, seed=9)[0]
        b = weighted_random_baseline({"a": 5, "b": 5}, 20, seed=9)[0]
        assert a == b


class TestMetrics:
    def test_accuracy_trivials(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0
        assert accuracy(list("aaaaabbbbb"), list("aaabbbbbbb")) == pytest.approx(0.8)

    def test_macro_f1_fixture(self):
        value = macro_f1(["A", "A", "B", "B"], ["A", "B", "B", "B"])
        assert value == pytest.approx((2 / 3 + 0.8) / 2)
        assert value == pytest.approx(macro_f1_confusion(["A", "A", "B", "B"], ["A", "B", "B", "B"]))

    def test_macro_f1_never_predicted_class(self):
        # A: P=0.5, R=1 -> F1=2/3; B is never predicted -> F1=0.
        assert macro_f1(["A", "B"], ["A", "A"]) == pytest.approx(1 / 3)

    def test_perfect_macro_f1(self):
        assert macro_f1(["A", "B", "C"], ["A", "B", "C"]) == 1.0

    def test_metrics_equal_loop_forms_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            n_classes = int(rng.integers(1, 8))
            truth = [f"u{rng.integers(n_classes)}" for _ in range(n)]
            pred = [f"u{rng.integers(n_classes + 1)}" for _ in range(n)]
            classes = tuple(f"u{i}" for i in rng.permutation(n_classes + 2))
            assert accuracy(truth, pred) == accuracy_loop(truth, pred)
            assert macro_f1(truth, pred) == macro_f1_loop(truth, pred)
            assert macro_f1(truth, pred, classes) == macro_f1_loop(truth, pred, classes)
            assert macro_f1(truth, pred) == pytest.approx(
                macro_f1_confusion(truth, pred), rel=1e-12, abs=1e-15
            )

    def test_metrics_reject_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(["a", "b"], ["a"])
        with pytest.raises(ValueError):
            macro_f1(["a", "b"], ["a"])
        with pytest.raises(ValueError):
            confusion_matrix(["a"], ["a", "a"], ("a",))

    def test_confusion_matrix_rejects_unknown_label(self):
        with pytest.raises(KeyError):
            confusion_matrix(["a", "b"], ["a", "z"], ("a", "b"))

    def test_roc_auc_perfect_separation(self):
        truth = ["a", "a", "b", "b"]
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        assert roc_auc_ovr_macro(truth, probs, ("a", "b")) == 1.0

    def test_roc_auc_matches_pairwise_oracle_at_200_rows(self):
        rng = np.random.default_rng(16)
        classes = ("u0", "u1", "u2")
        truth = [classes[rng.integers(3)] for _ in range(200)]
        raw = rng.integers(0, 7, size=(200, 3)).astype(float) + 1.0
        probs = raw / raw.sum(axis=1, keepdims=True)
        got = roc_auc_ovr_macro(truth, probs, classes)
        want = roc_auc_ovr_macro_pairwise(truth, probs.tolist(), classes)
        assert got == pytest.approx(want, abs=1e-12)

    def test_roc_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(6, 30))
            n_classes = int(rng.integers(2, 5))
            classes = tuple(f"u{i}" for i in range(n_classes))
            truth = [classes[rng.integers(n_classes)] for _ in range(n)]
            if len(set(truth)) < 2:
                continue
            raw = rng.integers(0, 5, size=(n, n_classes)).astype(float) + 1.0
            probs = raw / raw.sum(axis=1, keepdims=True)
            got = roc_auc_ovr_macro(truth, probs, classes)
            want = roc_auc_ovr_macro_pairwise(truth, probs.tolist(), classes)
            assert got == pytest.approx(want, abs=1e-12)

    def test_binary_auc_with_heavy_ties_matches_pairwise_oracle(self):
        # Three distinct scores over hundreds of rows: almost every pair is
        # a tie, so the average-rank tie credit decides the value.
        rng = np.random.default_rng(18)
        for n in (2, 7, 50, 400):
            scores = rng.integers(0, 3, size=n) / 3.0
            positive = rng.uniform(size=n) < 0.3
            positive[:2] = (True, False)
            want = binary_auc_pairwise(scores.tolist(), positive.tolist())
            assert _binary_auc(scores, positive) == want

    def test_roc_auc_undefined(self):
        with pytest.raises(UndefinedMetric):
            roc_auc_ovr_macro(["a", "a"], np.array([[1.0], [1.0]]), ("a",))

    def test_confusion_matrix_sums(self):
        truth = list("aabbbc")
        pred = list("ababcc")
        mat = confusion_matrix(truth, pred, ("a", "b", "c"))
        assert mat.sum() == len(truth)
        assert np.trace(mat) == sum(t == p for t, p in zip(truth, pred))


def separable_dataset(n_per_user=40, seed=0):
    """Five users with disjoint feature blobs."""
    rng = np.random.default_rng(seed)
    rows, users = [], []
    for u, center in enumerate((2.0, 8.0, 16.0, 25.0, 35.0)):
        for _ in range(n_per_user):
            values = rng.normal(center, 0.2, size=len(FEATURE_NAMES))
            values[0] = abs(values[0]) + 1.0  # duration_s
            rows.append(values)
            users.append(f"{u:03d}")
    return feature_dataset(rows, users)


class TestRunClassification:
    def test_separable_users_high_accuracy(self):
        models = run_classification(separable_dataset(), k=5, seed=1)["models"]
        assert models["decision_tree"]["accuracy_mean"] >= 0.95
        assert models["decision_tree"]["accuracy_mean"] > models["weighted_guess"]["accuracy_mean"]

    def test_confusion_matrix_consistency(self):
        dataset = separable_dataset(n_per_user=31, seed=2)
        report = run_classification(dataset, k=5, seed=3)
        confusion = np.array(report["confusion_matrix"])
        assert confusion.sum() == report["n_rows"]
        for i, c in enumerate(report["class_order"]):
            # every row is tested exactly once across the folds
            assert confusion[i].sum() == report["class_trip_counts"][c]
        fold_of_row = stratified_kfold(dataset.users, k=5, seed=3)
        pooled = 0.0
        for fold in range(5):
            n_fold = int((fold_of_row == fold).sum())
            pooled += report["models"]["decision_tree"]["per_fold"]["accuracy"][fold] * n_fold
        assert np.trace(confusion) / confusion.sum() == pytest.approx(
            pooled / report["n_rows"]
        )

    def test_class_order_by_descending_count(self):
        base = separable_dataset(n_per_user=31, seed=4)
        extra = [base.rows[0]] * 9  # more trips of user "000"
        dataset = feature_dataset([*base.rows, *extra], [*base.users, *["000"] * 9])
        report = run_classification(dataset, k=5, seed=5)
        counts = [report["class_trip_counts"][c] for c in report["class_order"]]
        assert counts == sorted(counts, reverse=True)
        assert report["class_order"][0] == "000"

    def test_reports_are_reproducible(self):
        dataset = separable_dataset(n_per_user=31, seed=6)
        a = run_classification(dataset, k=5, seed=7)
        b = run_classification(dataset, k=5, seed=7)
        assert a == b

    def test_per_class_metrics_from_confusion(self):
        report = run_classification(separable_dataset(seed=8), k=5, seed=9)
        confusion = np.array(report["confusion_matrix"])
        for i, c in enumerate(report["class_order"]):
            row = confusion[i].sum()
            col = confusion[:, i].sum()
            if row:
                assert report["per_class_recall"][c] == pytest.approx(confusion[i, i] / row)
            if col:
                assert report["per_class_precision"][c] == pytest.approx(confusion[i, i] / col)

    def test_previous_fold_released_before_next_fit(self, monkeypatch):
        # Overlapping users grow trees of ~0.4 MB here. Each fold's tree
        # and predictions must be gone when the next fold's tree starts, so
        # the traced heap at every train_tree entry stays within MARGIN of
        # the first fold's: room for the slightly different fold sizes and
        # the interpreter's and numpy's small caches, not for a tree.
        MARGIN = 64 * 1024
        rng = np.random.default_rng(0)
        rows = np.abs(rng.normal(1.0, 1.0, size=(1200, len(FEATURE_NAMES)))) + 0.01
        dataset = feature_dataset(rows, [f"{i % 24:03d}" for i in range(1200)])
        at_entry = []
        fit = learn.train_tree

        def traced_fit(*args, **kwargs):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return fit(*args, **kwargs)

        monkeypatch.setattr(learn, "train_tree", traced_fit)
        tracemalloc.start()
        try:
            run_classification(dataset, k=5, seed=1)
        finally:
            tracemalloc.stop()
        assert len(at_entry) == 5
        assert max(at_entry[1:]) <= at_entry[0] + MARGIN
