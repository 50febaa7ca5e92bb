"""User-wise trip classification: CART tree, stratified folds, metrics.

The tree is plain CART with Gini impurity: at each node the split
minimizing the size-weighted child impurity is chosen among midpoints
between consecutive distinct sorted values of each feature, with ties
broken by lowest feature index, then lowest threshold. Rows with
x[feature] <= threshold route left. Class probabilities come from leaf
class counts, and the canonical class order everywhere is descending
training count, then lexicographic id; argmax ties resolve to the
earlier class in that order.

Each node scores all of its features in one vectorized pass: one stable
argsort of the node's rows per column, an int32 (features, rows, classes)
array of running class counts, and the weighted Gini of every candidate
cut, with cuts between equal values set to inf before one feature-major
argmin. Features go through in blocks of at most _BLOCK count elements,
so a large node is scored one feature at a time and its memory stays
bounded, while the many small nodes are scored all at once. Every node
keeps the full class axis, absent classes included, and Gini is computed
as 1 - sum((count / n) ** 2) over it: the sum adds one term per training
class in the same order at every node, so splits, thresholds and reports
stay bit for bit those of the former one-feature-at-a-time scorer.
Dropping absent classes or rewriting Gini as sum(count ** 2) / n ** 2
regroups that float sum and can move a near-tie between two cuts.

Accuracy and macro-F1 take their counts from one integer confusion table
built with np.bincount over class codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ClassTooSmall(ValueError):
    """A class has fewer rows than the requested fold count."""


class EmptyTrainingSet(ValueError):
    """No rows to train on."""


class UndefinedMetric(ValueError):
    """The metric has no defined value on this input."""


# Elements of the (features, rows, classes) count array one _best_split
# block may hold. It bounds the scorer's memory: a node with more than
# _BLOCK rows x classes (e.g. 1,470 x 26) is scored one feature at a time,
# while the many small nodes below it score every feature in one pass.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class Leaf:
    class_counts: dict[str, int]


@dataclass
class Split:
    feature_index: int
    threshold: float
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


TreeNode = Leaf | Split


@dataclass(frozen=True)
class DecisionTree:
    """A trained CART tree plus its canonical class order."""

    root: TreeNode
    classes: tuple[str, ...]


@dataclass(frozen=True)
class FoldAssignment:
    """Fold index per row; per class, fold sizes differ by at most one."""

    fold_of_row: np.ndarray
    k: int


def class_order(labels) -> tuple[str, ...]:
    """Classes sorted by descending count, then lexicographic id."""
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return tuple(sorted(counts, key=lambda c: (-counts[c], c)))


def stratified_kfold(labels, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Deal each class's shuffled rows round-robin into k folds.

    Raises:
        ClassTooSmall: some class has fewer than k rows.
    """
    labels = np.asarray(labels, dtype=object)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=int)
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise ClassTooSmall(f"class {cls!r} has {len(idx)} rows, needs >= {k}")
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    return FoldAssignment(fold_of_row=fold, k=k)


def _leaf(y: np.ndarray, classes: tuple[str, ...]) -> Leaf:
    counts: dict[str, int] = {}
    for code in y:
        name = classes[code]
        counts[name] = counts.get(name, 0) + 1
    return Leaf(class_counts=counts)


def _gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """1 - sum over the class axis of (count / size) ** 2, per candidate cut."""
    share = counts / size[:, None]
    share **= 2
    return 1.0 - share.sum(axis=-1)


def _best_split(X: np.ndarray, y: np.ndarray, n_classes: int):
    """Lowest-weighted-Gini (feature, threshold), or None if X has no spread.

    Candidate cuts of a block of features are scored together and flattened
    feature-major, so the first minimum is at the lowest feature, then the
    lowest threshold; a later block replaces the best only by a strict
    improvement, which keeps that tie-break across blocks.
    """
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    sx = np.take_along_axis(X, order, axis=0)
    valid = (sx[1:] > sx[:-1]).T  # (features, n - 1): cut after sorted row i
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    block = max(1, _BLOCK // (n * n_classes))
    best = None
    for f0 in range(0, n_features, block):
        f1 = min(f0 + block, n_features)
        if not valid[f0:f1].any():
            continue
        # One-hot class of each sorted row, then running counts down the rows.
        counts = np.zeros((f1 - f0, n, n_classes), dtype=np.int32)
        hot = np.arange((f1 - f0) * n).reshape(f1 - f0, n) * n_classes + y[order[:, f0:f1]].T
        counts.reshape(-1)[hot.ravel()] = 1
        np.cumsum(counts, axis=1, out=counts)
        left_counts = counts[:, :-1]
        gini_left = _gini(left_counts, left_n)
        gini_right = _gini(counts[:, -1:] - left_counts, right_n)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        weighted[~valid[f0:f1]] = np.inf
        i = int(np.argmin(weighted))
        f, c = divmod(i, n - 1)
        if best is None or weighted[f, c] < best[0]:
            lo, hi = sx[c, f0 + f], sx[c + 1, f0 + f]
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:  # midpoint rounded onto hi; fall back to lo
                thr = lo
            best = (float(weighted[f, c]), f0 + f, float(thr))
    return best


def train_tree(
    X,
    labels,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> DecisionTree:
    """Grow an unpruned CART tree.

    Growth stops at pure nodes, nodes below min_samples_split, nodes at
    max_depth (None = unlimited), and nodes whose rows are identical on
    every feature (which become mixed-count leaves).

    Raises:
        EmptyTrainingSet: no rows.
    """
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if len(labels) == 0:
        raise EmptyTrainingSet("no training rows")
    classes = class_order(labels)
    code_of = {c: i for i, c in enumerate(classes)}
    y = np.array([code_of[lab] for lab in labels])

    root: TreeNode | None = None
    stack: list[tuple[np.ndarray, np.ndarray, int, Split | None, str]] = [
        (X, y, 0, None, "left")
    ]
    while stack:
        Xn, yn, depth, parent, side = stack.pop()
        node: TreeNode
        pure = bool((yn == yn[0]).all())
        at_depth = max_depth is not None and depth >= max_depth
        if pure or at_depth or len(yn) < min_samples_split:
            node = _leaf(yn, classes)
        else:
            best = _best_split(Xn, yn, len(classes))
            if best is None:
                node = _leaf(yn, classes)
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


def predict(tree: DecisionTree, x) -> tuple[str, np.ndarray]:
    """Route one vector to its leaf; returns (label, probabilities).

    The probability vector is the leaf's class counts normalized, indexed
    by tree.classes; the label is the argmax with ties resolved to the
    class earliest in that canonical order.
    """
    x = np.asarray(x, dtype=float)
    node = tree.root
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    total = sum(node.class_counts.values())
    probs = np.array(
        [node.class_counts.get(c, 0) / total for c in tree.classes]
    )
    return tree.classes[int(np.argmax(probs))], probs


def predict_batch(tree: DecisionTree, X) -> tuple[list[str], np.ndarray]:
    """predict() over the rows of X; probabilities stack to (n, n_classes)."""
    X = np.asarray(X, dtype=float)
    labels: list[str] = []
    probs = np.empty((len(X), len(tree.classes)))
    for i, x in enumerate(X):
        lab, p = predict(tree, x)
        labels.append(lab)
        probs[i] = p
    return labels, probs


def weighted_random_baseline(
    train_label_histogram: dict[str, int], test_size: int, seed: int = 0
) -> tuple[list[str], np.ndarray, tuple[str, ...]]:
    """Sample predictions from the training label distribution.

    Every row's probability vector is the training distribution itself.
    Returns (predicted labels, probability matrix, class order).
    """
    classes = tuple(
        sorted(train_label_histogram, key=lambda c: (-train_label_histogram[c], c))
    )
    total = sum(train_label_histogram.values())
    p = np.array([train_label_histogram[c] / total for c in classes])
    rng = np.random.default_rng(seed)
    preds = [classes[i] for i in rng.choice(len(classes), size=test_size, p=p)]
    return preds, np.tile(p, (test_size, 1)), classes


def uniform_random_baseline(
    classes, test_size: int, seed: int = 0
) -> tuple[list[str], np.ndarray, tuple[str, ...]]:
    """Sample predictions uniformly over the classes; uniform probabilities."""
    classes = tuple(classes)
    rng = np.random.default_rng(seed)
    preds = [classes[i] for i in rng.integers(len(classes), size=test_size)]
    probs = np.full((test_size, len(classes)), 1.0 / len(classes))
    return preds, probs, classes


def _confusion_counts(y_true, y_pred, index: dict) -> np.ndarray:
    """Integer true x predicted counts, one np.bincount over class codes.

    Labels missing from index are appended to it in order of first
    appearance, so index maps every label to its row and column.
    """
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    t = np.array([index.setdefault(lab, len(index)) for lab in y_true], dtype=np.intp)
    p = np.array([index.setdefault(lab, len(index)) for lab in y_pred], dtype=np.intp)
    k = len(index)
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = list(y_true), list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if not y_true:
        raise UndefinedMetric("accuracy of zero rows")
    return int(np.trace(_confusion_counts(y_true, y_pred, {}))) / len(y_true)


def macro_f1(y_true, y_pred, classes=None) -> float:
    """Unweighted mean F1 over the classes present in the true labels.

    Per class, F1 = 2PR/(P+R); any zero denominator along the way scores 0.
    """
    y_true, y_pred = list(y_true), list(y_pred)
    index: dict = {}
    counts = _confusion_counts(y_true, y_pred, index)
    true_n = counts.sum(axis=1)
    pred_n = counts.sum(axis=0)
    true_set = set(y_true)
    candidates = classes if classes is not None else sorted(true_set)
    present = [c for c in candidates if c in true_set]
    if not present:
        raise UndefinedMetric("no classes present in true labels")
    f1s = []
    for c in present:
        i = index[c]
        tp, pred_c, true_c = int(counts[i, i]), int(pred_n[i]), int(true_n[i])
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(f1s))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group given the mean of the ranks it spans."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """ROC-AUC as the Mann-Whitney U statistic, ties counted one half."""
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    ranks = _average_ranks(scores)  # average ranks give the 0.5 tie credit
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def roc_auc_ovr_macro(y_true, prob_matrix, classes) -> float:
    """One-vs-rest ROC-AUC, macro-averaged.

    Per class, the score is that class's predicted probability and the
    positives are the rows truly of that class; classes lacking either
    positives or negatives are skipped.

    Raises:
        UndefinedMetric: no class has both positives and negatives.
    """
    truth = np.array(list(y_true), dtype=object)
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    aucs = []
    for j, c in enumerate(classes):
        positive = truth == c
        if positive.all() or not positive.any():
            continue
        aucs.append(_binary_auc(prob_matrix[:, j], positive))
    if not aucs:
        raise UndefinedMetric("no class has both positives and negatives")
    return float(np.mean(aucs))


def confusion_matrix(y_true, y_pred, classes) -> np.ndarray:
    """Dense true x predicted counts in the given class order.

    Raises:
        KeyError: a label is not one of classes.
    """
    index = {c: i for i, c in enumerate(classes)}
    counts = _confusion_counts(y_true, y_pred, index)
    if len(index) > len(classes):
        raise KeyError(f"labels outside classes: {list(index)[len(classes):]!r}")
    return counts


@dataclass
class ModelScores:
    """Per-fold metric values plus their mean and population std."""

    per_fold_accuracy: list[float] = field(default_factory=list)
    per_fold_roc_auc: list[float] = field(default_factory=list)
    per_fold_macro_f1: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        out = {}
        for name, vals in (
            ("accuracy", self.per_fold_accuracy),
            ("roc_auc", self.per_fold_roc_auc),
            ("macro_f1", self.per_fold_macro_f1),
        ):
            arr = np.asarray(vals)
            out[f"{name}_mean"] = float(arr.mean())
            out[f"{name}_std"] = float(arr.std())
        return out


@dataclass
class ClassificationReport:
    """Cross-validated results for the tree and both random baselines."""

    k_folds: int
    seed: int
    n_rows: int
    class_order: tuple[str, ...]  # descending trip count, then id
    class_trip_counts: dict[str, int]
    tree: ModelScores
    weighted_baseline: ModelScores
    uniform_baseline: ModelScores
    confusion: np.ndarray  # tree predictions, summed over folds
    per_class_precision: dict[str, float]
    per_class_recall: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "k_folds": self.k_folds,
            "seed": self.seed,
            "n_rows": self.n_rows,
            "class_order": list(self.class_order),
            "class_trip_counts": self.class_trip_counts,
            "models": {
                "decision_tree": {
                    **self.tree.summary(),
                    "per_fold": {
                        "accuracy": self.tree.per_fold_accuracy,
                        "roc_auc": self.tree.per_fold_roc_auc,
                        "macro_f1": self.tree.per_fold_macro_f1,
                    },
                },
                "weighted_guess": self.weighted_baseline.summary(),
                "uniform_guess": self.uniform_baseline.summary(),
            },
            "confusion_matrix": self.confusion.tolist(),
            "per_class_precision": self.per_class_precision,
            "per_class_recall": self.per_class_recall,
        }


def run_classification(
    dataset, k: int = 5, seed: int = 0, max_depth: int | None = None
) -> ClassificationReport:
    """Stratified k-fold evaluation of the tree against both baselines.

    Baselines are evaluated on the same fold splits so comparisons are
    paired. The confusion matrix is summed over folds with classes
    ordered by descending trip count.
    """
    X = dataset.matrix()
    y = dataset.users
    order = class_order(y)
    counts = dataset.user_counts()
    assignment = stratified_kfold(y, k=k, seed=seed)

    tree_scores = ModelScores()
    weighted_scores = ModelScores()
    uniform_scores = ModelScores()
    confusion = np.zeros((len(order), len(order)), dtype=int)

    for fold in range(k):
        test = assignment.fold_of_row == fold
        train = ~test
        X_train, y_train = X[train], list(y[train])
        X_test, y_test = X[test], list(y[test])

        tree = train_tree(X_train, y_train, max_depth=max_depth)
        pred, probs = predict_batch(tree, X_test)
        tree_scores.per_fold_accuracy.append(accuracy(y_test, pred))
        tree_scores.per_fold_macro_f1.append(macro_f1(y_test, pred, tree.classes))
        tree_scores.per_fold_roc_auc.append(roc_auc_ovr_macro(y_test, probs, tree.classes))
        confusion += confusion_matrix(y_test, pred, order)

        hist: dict[str, int] = {}
        for lab in y_train:
            hist[lab] = hist.get(lab, 0) + 1
        w_pred, w_probs, w_classes = weighted_random_baseline(
            hist, len(y_test), seed=_derive_seed(seed, fold, 1)
        )
        weighted_scores.per_fold_accuracy.append(accuracy(y_test, w_pred))
        weighted_scores.per_fold_macro_f1.append(macro_f1(y_test, w_pred, w_classes))
        weighted_scores.per_fold_roc_auc.append(
            roc_auc_ovr_macro(y_test, w_probs, w_classes)
        )

        u_pred, u_probs, u_classes = uniform_random_baseline(
            sorted(set(y_train)), len(y_test), seed=_derive_seed(seed, fold, 2)
        )
        uniform_scores.per_fold_accuracy.append(accuracy(y_test, u_pred))
        uniform_scores.per_fold_macro_f1.append(macro_f1(y_test, u_pred, u_classes))
        uniform_scores.per_fold_roc_auc.append(
            roc_auc_ovr_macro(y_test, u_probs, u_classes)
        )

    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    precision = {
        c: (float(confusion[i, i] / col_sums[i]) if col_sums[i] else 0.0)
        for i, c in enumerate(order)
    }
    recall = {
        c: (float(confusion[i, i] / row_sums[i]) if row_sums[i] else 0.0)
        for i, c in enumerate(order)
    }
    return ClassificationReport(
        k_folds=k,
        seed=seed,
        n_rows=len(y),
        class_order=order,
        class_trip_counts={c: counts[c] for c in order},
        tree=tree_scores,
        weighted_baseline=weighted_scores,
        uniform_baseline=uniform_scores,
        confusion=confusion,
        per_class_precision=precision,
        per_class_recall=recall,
    )


def _derive_seed(seed: int, fold: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, fold, stream]).generate_state(1)[0])
