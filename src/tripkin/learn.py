"""User-wise trip classification: CART tree, stratified folds, metrics.

The tree is plain CART with Gini impurity: at each node the split
minimizing the size-weighted child impurity is chosen among midpoints
between consecutive distinct sorted values of each feature, with ties
broken by lowest feature index, then lowest threshold. A tree is Split
nodes (feature index, threshold, left and right child) over Leaf nodes,
and each leaf holds an int vector of its training rows per class, in the
tree's canonical class order: descending training count, then
lexicographic id. predict_batch walks each row, as Python floats, from
the root (x[feature] <= threshold routes left) to a leaf; its
probabilities are the leaf's counts over their sum, and argmax ties
resolve to the earlier class in that order.

The tree grows one depth at a time over presorted columns (after SLIQ,
Mehta, Agrawal & Rissanen 1996, and SPRINT, Shafer, Agrawal & Mehta
1996). One stable argsort per fit orders every column's rows by value,
then original row. Each depth keeps, per feature, its nodes' rows as
consecutive segments in that order; a stable partition by child node
carries the order to the next depth, so no node sorts again.

All cuts of all nodes of a depth are scored together, in two passes.
A screen scores every cut between distinct values from exact integer
sums, 1 - (sum L_c^2 / left_n + sum R_c^2 / right_n) / size: one stable
sort of a feature's positions by class ranks each row among its node's
earlier rows of its class, and running sums of 2 * rank + 1 and of the
row's class total give sum L_c^2 and sum T_c * L_c, hence sum R_c^2, at
O(positions) per feature rather than O(positions x classes). Then only
the valid cuts whose screen lies within (classes + 16) * 2**-48 of their
node's lowest are re-scored with the former scorers' float expression,
1 - sum((count / n) ** 2) over the full class axis per side, weighted by
the side's rows and divided by the node size, and each node takes the
first minimum of those values in (value, feature, cut) order. The
margin is more than twice the two scores' summed error bounds (see
_MARGIN), so no cut the float expression could rank first is left out,
and splits, thresholds and reports stay bit for bit those of scoring
every cut in float. That float sum adds one term per training class in
the same order at every node; dropping absent classes or rewriting it
as sum(count ** 2) / n ** 2 regroups it and can move a near-tie, so the
screen selects cuts and never decides between them. Both passes hold at
most _BLOCK integers at a time: (features, positions) sums in the
screen, one feature if its positions exceed it, and (cuts, classes)
left counts in the re-scoring.

Accuracy and macro-F1 take their counts from one integer confusion table
built with np.bincount over class codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class ClassTooSmall(ValueError):
    """A class has fewer rows than the requested fold count."""


class EmptyTrainingSet(ValueError):
    """No rows to train on."""


class UndefinedMetric(ValueError):
    """The metric has no defined value on this input."""


# Elements one block of train_tree may hold: a screening block's
# (features, positions) integer sums, or a re-scoring chunk's (cuts,
# classes) left counts. A depth whose positions exceed it is screened one
# feature at a time.
_BLOCK = 1 << 13

# A node re-scores in float every valid cut whose screening score is
# within (C + 16) * _MARGIN of the node's lowest, for C classes. With
# u = 2**-53, the float expression's error is at most (C + 6) * 1.05 * u:
# (C + 2)u in the sum of C squared shares (the share, its square, C - 1
# additions), one u each for 1 - sum, the weight, the addition and the
# division, and 5% for second-order terms. The screen's is at most 8u: its
# integer sums are exact (below 2**53 for fewer than 9e7 rows), and five
# roundings (a reciprocal and a product per side, their sum) leave 3u on a
# value at most 1 before 1 - it adds one more. A cut the float expression
# ranks first therefore screens at most 2 * ((C + 6) * 1.05 + 8) * u above
# the node's lowest screen, and (C + 16) * 2**-48 = 32 * (C + 16) * u
# exceeds that for every C.
_MARGIN = 2.0**-48


@dataclass(frozen=True)
class Leaf:
    class_counts: np.ndarray  # training rows per class, in DecisionTree.classes order


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


def _ranked(histogram) -> tuple[str, ...]:
    return tuple(sorted(histogram, key=lambda c: (-histogram[c], c)))


def class_order(labels) -> tuple[str, ...]:
    """Classes sorted by descending count, then lexicographic id."""
    return _ranked(Counter(labels))


def stratified_kfold(labels, k: int = 5, seed: int = 0) -> np.ndarray:
    """Deal each class's shuffled rows round-robin into k folds.

    Returns the fold index of each row; per class, fold sizes differ by
    at most one.

    Raises:
        ValueError: k is below 2.
        ClassTooSmall: some class has fewer than k rows.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    labels = np.asarray(labels, dtype=object)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=int)
    for cls in sorted(set(labels)):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise ClassTooSmall(f"class {cls!r} has {len(idx)} rows, needs >= {k}")
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    return fold


def _gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """1 - sum over the class axis of (count / size) ** 2, per candidate cut."""
    share = counts / size[:, None]
    share **= 2
    return 1.0 - share.sum(axis=-1)


def _screen(sum_l2, sum_r2, left_n, right_n, out):
    """Weighted Gini 1 - (sum L_c^2 / left_n + sum R_c^2 / right_n) / size, into out.

    sum_l2 and sum_r2 are exact integer sums of squared left and right
    class counts; left_n and right_n are the cuts' row counts.
    """
    size = left_n + right_n
    np.multiply(sum_l2, 1.0 / (left_n * size), out=out)
    out += sum_r2 * (1.0 / (right_n * size))
    return np.subtract(1.0, out, out=out)


def train_tree(
    X,
    labels,
    max_depth: int | None = None,
    min_samples_split: int = 2,
) -> DecisionTree:
    """Grow an unpruned CART tree, one depth at a time.

    Growth stops at pure nodes, nodes below min_samples_split, nodes at
    max_depth (None = unlimited), and nodes whose rows are identical on
    every feature (which become mixed-count leaves).

    Raises:
        ValueError: X is not 2-D, has a non-finite value, or its row
            count differs from the number of labels.
        EmptyTrainingSet: no rows.
    """
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(labels):
        raise ValueError(f"X has {len(X)} rows but there are {len(labels)} labels")
    if len(labels) == 0:
        raise EmptyTrainingSet("no training rows")
    if not np.isfinite(X).all():
        raise ValueError("X holds a non-finite value")
    classes = class_order(labels)
    n_classes = len(classes)
    code_of = {c: i for i, c in enumerate(classes)}
    y = np.array([code_of[lab] for lab in labels], dtype=np.min_scalar_type(n_classes - 1))
    n, n_features = X.shape

    def grows(counts: np.ndarray, depth: int) -> np.ndarray:
        """Which nodes, given their (nodes, classes) counts, are split further."""
        if max_depth is not None and depth >= max_depth:
            return np.zeros(len(counts), dtype=bool)
        return (np.count_nonzero(counts, axis=1) > 1) & (counts.sum(axis=1) >= min_samples_split)

    node_counts = np.bincount(y, minlength=n_classes)[None]
    if not (n_features and grows(node_counts, 0)[0]):
        return DecisionTree(root=Leaf(node_counts[0]), classes=classes)

    # The level's nodes hold consecutive segments of perm's columns; row f
    # lists each node's rows by feature f's value, then original row.
    XT = X.T
    perm = np.argsort(XT, axis=1, kind="stable").astype(np.int32)  # int32 to save memory
    feat = np.arange(n_features)[:, None]  # row index of per-feature gathers
    top = Split(-1, 0.0)  # stand-in parent: the root becomes its left child
    slots: list[tuple[Split, str]] = [(top, "left")]  # (parent, side) of each node
    depth = 0
    while slots:
        size = node_counts.sum(axis=1)
        start = np.cumsum(size) - size
        seg = np.repeat(np.arange(len(size)), size)  # node of each position
        n_pos = len(seg)
        cut = np.flatnonzero(seg[1:] == seg[:-1])  # positions a left block can end at
        sv = XT[feat, perm]
        valid = sv[:, cut] < sv[:, cut + 1]
        del sv  # the sorted values are not needed while the cuts are scored

        kc = seg[cut]  # node of each cut
        left_n = (cut - start[kc] + 1).astype(float)
        right_n = size[kc] - left_n
        first_cut = start - np.arange(len(size))

        # Screen every cut with exact integer sums, a block of features at a
        # time. Each row adds 2 * rank + 1 (rank = its node's earlier rows of
        # its class) to sum L_c^2, and T_y to sum T_c * L_c, of every cut
        # from its position on. A stable sort by class puts a feature's
        # positions in (class, node, position) order, whose groups are the
        # same for every feature, so both addends follow from the place in
        # that order alone.
        group = node_counts.T.ravel()  # rows per (class, node)
        rank = np.arange(n_pos) - np.repeat(np.cumsum(group) - group, group)
        by_place = np.stack([2 * rank + 1, np.repeat(group, group)])
        t2 = (node_counts**2).sum(axis=1)  # sum T_c^2: both sums over a whole node
        screen = np.full(valid.shape, np.inf)
        block = max(1, _BLOCK // n_pos)
        for f0 in range(0, n_features, block):
            f1 = min(f0 + block, n_features)
            if not valid[f0:f1].any():
                continue
            order = np.argsort(y[perm[f0:f1]], axis=1, kind="stable")
            order += n_pos * np.arange(f1 - f0)[:, None]  # flat index: faster than 2-D
            sums = np.empty((2, (f1 - f0) * n_pos), dtype=np.int64)
            for flat, addend in zip(sums, by_place):
                flat[order] = addend
            del order
            sums = sums.reshape(2, f1 - f0, n_pos)
            # Taking the previous node's total off at each node's start
            # restarts the running sums there.
            sums[:, :, start[1:]] -= t2[:-1]
            np.cumsum(sums, axis=2, out=sums)
            l2, r2 = np.take(sums, cut, axis=2)  # sum L_c^2 and sum T_c * L_c
            del sums
            r2 *= -2
            r2 += l2
            r2 += t2[kc]  # sum R_c^2 = sum T_c^2 - 2 sum T_c * L_c + sum L_c^2
            _screen(l2, r2, left_n, right_n, out=screen[f0:f1])
            del l2, r2
        screen[~valid] = np.inf

        # Re-score, with the float expression, each valid cut whose screen
        # lies within the margin of its node's lowest: every cut the float
        # expression can rank first among them (see _MARGIN).
        screen_low = np.minimum.reduceat(screen, first_cut, axis=1).min(axis=0)
        cand = np.flatnonzero(valid & (screen <= (screen_low + (n_classes + 16) * _MARGIN)[kc]))
        weighted = screen  # the screen's memory, no longer needed
        weighted.fill(np.inf)
        chunk = max(1, _BLOCK // n_classes)  # left counts held at a time
        for c0 in range(0, len(cand), chunk):
            cf, cc = np.divmod(cand[c0 : c0 + chunk], len(cut))
            k = kc[cc]
            # Each candidate counts only the positions past the previous
            # candidate of its feature and node; running sums over those
            # runs give its left counts.
            end = cut[cc] + 1
            begin = start[k]
            run = (cf[1:] == cf[:-1]) & (k[1:] == k[:-1])
            begin[1:][run] = end[:-1][run]
            length = end - begin
            owner = np.repeat(np.arange(len(cf)), length)
            pos = np.arange(len(owner)) + np.repeat(begin - (np.cumsum(length) - length), length)
            left = np.bincount(
                owner * n_classes + y[perm[cf[owner], pos]], minlength=len(cf) * n_classes
            ).reshape(-1, n_classes)
            del owner, pos
            firsts = np.flatnonzero(np.r_[True, ~run])
            left[firsts[1:]] -= np.add.reduceat(left, firsts, axis=0)[:-1]
            np.cumsum(left, axis=0, out=left)
            ln, rn = left_n[cc], right_n[cc]
            w = ln * _gini(left, ln)
            w += rn * _gini(np.subtract(node_counts[k], left, out=left), rn)
            w /= size[k]
            weighted.reshape(-1)[cand[c0 : c0 + chunk]] = w

        # Per node, the first minimum in (value, feature, cut) order.
        low_f = np.minimum.reduceat(weighted, first_cut, axis=1)
        low = low_f.min(axis=0)
        best_f = (low_f == low).argmax(axis=0)
        hit = np.flatnonzero(weighted[best_f[kc], np.arange(len(cut))] == low[kc])
        best_p = cut[hit[np.searchsorted(hit, first_cut)]]
        split = low < np.inf
        lo, hi = XT[best_f, perm[best_f, best_p]], XT[best_f, perm[best_f, best_p + 1]]
        thr = (lo + hi) / 2.0
        thr = np.where((lo <= thr) & (thr < hi), thr, lo)  # midpoint rounded onto hi: lo
        # Each split node's rows in its split feature's order: the left child
        # takes positions up to best_p, which are exactly x[feature] <= thr.
        n_split = int(split.sum())
        pos = np.arange(n_pos)
        rows = perm[best_f[seg], pos]
        child = np.where(split[seg], 2 * (np.cumsum(split) - 1)[seg] + (pos > best_p[seg]), 2 * n_split)
        child_counts = np.bincount(
            child * n_classes + y[rows], minlength=(2 * n_split + 1) * n_classes
        ).reshape(-1, n_classes)[:-1]
        child_grows = grows(child_counts, depth + 1)

        next_slots: list[tuple[Split, str]] = []
        # Children come left, then right; leaves copy their counts rather
        # than keep the level's whole count array alive.
        sides = iter(zip(child_counts, child_grows.tolist()))
        for (parent, side), counts_k, f, t, splits in zip(
            slots, node_counts, best_f.tolist(), thr.tolist(), split.tolist()
        ):
            node: TreeNode
            if splits:
                children = (next(sides), next(sides))
                node = Split(f, t, *(None if g else Leaf(c.copy()) for c, g in children))
                next_slots += [(node, s) for s, (_, g) in zip(("left", "right"), children) if g]
            else:
                node = Leaf(counts_k.copy())
            setattr(parent, side, node)

        # Stable partition of every feature's row list by next-level node;
        # rows of leaves sort last and are cut off.
        n_next = len(next_slots)
        ids = np.full(2 * n_split + 1, n_next, dtype=np.min_scalar_type(n_next))  # radix-sortable
        ids[:-1][child_grows] = np.arange(n_next)
        next_of_row = np.empty(n, dtype=ids.dtype)
        next_of_row[rows] = ids[child]
        node_counts = child_counts[child_grows]
        keep = np.argsort(next_of_row[perm], axis=1, kind="stable")[:, : node_counts.sum()]
        perm = perm[feat, keep]
        slots = next_slots
        depth += 1
    assert top.left is not None
    return DecisionTree(root=top.left, classes=classes)


def predict_batch(tree: DecisionTree, X) -> tuple[list[str], np.ndarray]:
    """Route each row of X to its leaf; returns (labels, probabilities).

    Row i of the (n, n_classes) probability matrix is its leaf's class
    counts normalized, indexed by tree.classes; label i is the argmax,
    with ties resolved to the class earliest in that canonical order.

    Raises:
        ValueError: X is not 2-D or has a non-finite value.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X holds a non-finite value")
    rows = X.tolist()
    counts = np.empty((len(rows), len(tree.classes)), dtype=np.int64)
    for i, x in enumerate(rows):
        node = tree.root
        while isinstance(node, Split):
            node = node.left if x[node.feature_index] <= node.threshold else node.right
        counts[i] = node.class_counts
    probs = counts / counts.sum(axis=1, keepdims=True)
    return [tree.classes[i] for i in probs.argmax(axis=1).tolist()], probs


def weighted_random_baseline(
    train_label_histogram: dict[str, int], test_size: int, seed: int = 0
) -> tuple[list[str], np.ndarray, tuple[str, ...]]:
    """Sample predictions from the training label distribution.

    Every row's probability vector is the training distribution itself.
    Returns (predicted labels, probability matrix, class order).
    """
    classes = _ranked(train_label_histogram)
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


def _evaluate_fold(X, y, test, order, seed, fold):
    """Fit a tree on the rows outside ``test`` and score it and both baselines on ``test``.

    Returns the fold's confusion matrix (tree predictions, ``order`` axes)
    and, for the tree, the weighted and the uniform baseline, a dict of
    accuracy, ROC-AUC and macro F1. The tree and its predictions are
    released on return, so they are not held while the next fold's tree
    is grown.
    """
    y_train, y_test = list(y[~test]), list(y[test])
    tree = train_tree(X[~test], y_train)
    pred, probs = predict_batch(tree, X[test])
    hist = Counter(y_train)
    models = (
        (pred, probs, tree.classes),
        weighted_random_baseline(hist, len(y_test), seed=_derive_seed(seed, fold, 1)),
        uniform_random_baseline(sorted(hist), len(y_test), seed=_derive_seed(seed, fold, 2)),
    )
    scores = [
        {
            "accuracy": accuracy(y_test, p),
            "roc_auc": roc_auc_ovr_macro(y_test, pr, c),
            "macro_f1": macro_f1(y_test, p, c),
        }
        for p, pr, c in models
    ]
    return confusion_matrix(y_test, pred, order), scores


def run_classification(dataset, k: int = 5, seed: int = 0) -> dict:
    """Stratified k-fold evaluation of the tree against both baselines.

    Returns the classification_report.json document: k_folds, seed,
    n_rows, class_order (descending trip count, then id),
    class_trip_counts, models (per model each metric's mean and
    population std over the folds, plus the tree's per_fold lists),
    confusion_matrix (tree predictions summed over folds, class_order
    axes), per_class_precision and per_class_recall. Baselines are
    evaluated on the same fold splits, so comparisons are paired.

    Raises:
        ValueError: k is below 2.
        ClassTooSmall: some class has fewer than k rows.
    """
    X = dataset.matrix()
    y = dataset.users
    order = class_order(y)
    counts = dataset.user_counts()
    fold_of_row = stratified_kfold(y, k=k, seed=seed)

    per_fold = {
        model: {"accuracy": [], "roc_auc": [], "macro_f1": []}
        for model in ("decision_tree", "weighted_guess", "uniform_guess")
    }
    confusion = np.zeros((len(order), len(order)), dtype=int)
    for fold in range(k):
        fold_confusion, fold_scores = _evaluate_fold(X, y, fold_of_row == fold, order, seed, fold)
        confusion += fold_confusion
        for lists, scores in zip(per_fold.values(), fold_scores):
            for metric, value in scores.items():
                lists[metric].append(value)

    models = {
        model: {
            f"{metric}_{stat}": float(reduce(values))
            for metric, values in lists.items()
            for stat, reduce in (("mean", np.mean), ("std", np.std))
        }
        for model, lists in per_fold.items()
    }
    models["decision_tree"]["per_fold"] = per_fold["decision_tree"]
    hits = np.diag(confusion)
    predicted, actual = confusion.sum(axis=0), confusion.sum(axis=1)
    return {
        "k_folds": k,
        "seed": seed,
        "n_rows": len(y),
        "class_order": list(order),
        "class_trip_counts": {c: counts[c] for c in order},
        "models": models,
        "confusion_matrix": confusion.tolist(),
        "per_class_precision": {
            c: float(hits[i] / predicted[i]) if predicted[i] else 0.0 for i, c in enumerate(order)
        },
        "per_class_recall": {
            c: float(hits[i] / actual[i]) if actual[i] else 0.0 for i, c in enumerate(order)
        },
    }


def _derive_seed(seed: int, fold: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, fold, stream]).generate_state(1)[0])
