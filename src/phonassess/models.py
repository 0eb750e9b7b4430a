"""Decision trees (CART) and bagged random forests, built from scratch.

The contracts the report pipeline relies on are all here: split thresholds
are midpoints between neighboring values, rows equal to a threshold go left,
ties between equally good splits resolve to the lowest feature index then
the lowest threshold, and every tree draws its randomness from a stream
spawned off the master seed so serial and parallel training produce the same
model. The target's dtype picks the task (``is_regression_target``): numbers
are regressed, anything else (class labels such as "PD"/"HC") is classified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhonassessError

MIN_LEAF_DEFAULT = 3
N_TREES_DEFAULT = 500
GAIN_TOL = 1e-12


def is_regression_target(y) -> bool:
    """True for a numeric target (regression), False for class labels."""
    return bool(np.issubdtype(np.asarray(y).dtype, np.number))


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    prediction: float | str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_split(col: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int):
    """(gain, midpoint threshold) of the best split of one column, or None.

    ``n_classes == 0`` scores variance reduction of a numeric ``y``; otherwise
    ``y`` holds class codes and the gain is the Gini decrease.
    """
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = y[order]
    n = len(ys)
    k = np.arange(min_leaf, n - min_leaf + 1)  # left sizes
    if len(k) == 0:
        return None
    valid = xs[k - 1] < xs[np.minimum(k, n - 1)]  # distinct neighboring values
    if not valid.any():
        return None
    if n_classes:
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[k - 1]
        right = cum[-1] - left
        ln = k.astype(float)
        rn = (n - k).astype(float)
        gini_left = 1.0 - np.sum((left / ln[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / rn[:, None]) ** 2, axis=1)
        gain = _gini(cum[-1]) - (ln / n) * gini_left - (rn / n) * gini_right
    else:
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        left_sse = csq[k - 1] - csum[k - 1] ** 2 / k
        right_sum = csum[-1] - csum[k - 1]
        right_sse = (csq[-1] - csq[k - 1]) - right_sum**2 / (n - k)
        gain = (csq[-1] - csum[-1] ** 2 / n) - (left_sse + right_sse)
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))  # first max -> lowest threshold
    thr = 0.5 * (xs[k[best] - 1] + xs[k[best]])
    return float(gain[best]), thr


def _leaf(y, classes: list[str]) -> TreeNode:
    if not classes:
        return TreeNode(prediction=float(np.mean(y)))
    codes, counts = np.unique(y, return_counts=True)
    best = codes[np.argmax(counts)]  # ties -> lowest code = first class label
    return TreeNode(prediction=classes[int(best)])


def _grow(X, y, classes, min_leaf, rng, feature_subsample):
    """Grow a subtree; ``classes`` is empty for regression."""
    n, p = X.shape
    if n < 2 * min_leaf:
        return _leaf(y, classes)
    if np.all(y == y[0]):
        return TreeNode(prediction=classes[int(y[0])] if classes else float(y[0]))

    if feature_subsample is not None and feature_subsample < p:
        candidates = np.sort(rng.choice(p, size=feature_subsample, replace=False))
    else:
        candidates = np.arange(p)

    # impure nodes split on the best candidate even at zero gain (standard
    # CART behavior; greedy XOR-style structure resolves on the next level)
    best_gain = -np.inf
    best_feature = None
    best_thr = None
    for j in candidates:  # ascending index: ties keep the lowest feature
        res = _best_split(X[:, j], y, len(classes), min_leaf)
        if res is None:
            continue
        gain, thr = res
        if gain > best_gain + GAIN_TOL:
            best_gain, best_feature, best_thr = gain, j, thr
    if best_feature is None or best_gain < -1e-9:
        return _leaf(y, classes)

    go_left = X[:, best_feature] <= best_thr  # ties at the threshold go left
    left = _grow(X[go_left], y[go_left], classes, min_leaf, rng, feature_subsample)
    right = _grow(X[~go_left], y[~go_left], classes, min_leaf, rng, feature_subsample)
    return TreeNode(feature=int(best_feature), threshold=float(best_thr),
                    left=left, right=right)


def train_cart(
    X,
    y,
    min_leaf: int = MIN_LEAF_DEFAULT,
    rng: np.random.Generator | None = None,
    feature_subsample: int | None = None,
) -> DecisionTree:
    """Greedy binary CART: variance reduction and mean leaves for a numeric
    ``y``, Gini decrease and majority leaves for class labels."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise PhonassessError("X must be 2-D")
    n, p = X.shape
    if n < 1:
        raise PhonassessError("empty training set")
    if np.isnan(X).any():
        raise PhonassessError("training matrix contains missing values; drop rows first")
    rng = rng or np.random.default_rng(0)
    if is_regression_target(y):
        classes: list[str] = []
        codes = np.asarray(y, dtype=np.float64)
    else:
        labels = np.asarray([str(v) for v in y])
        classes = sorted(set(labels))
        lut = {c: i for i, c in enumerate(classes)}
        codes = np.array([lut[v] for v in labels])
    return DecisionTree(root=_grow(X, codes, classes, min_leaf, rng, feature_subsample),
                        n_features=p)


def predict_tree(tree: DecisionTree, row) -> float | str:
    row = np.asarray(row, dtype=np.float64)
    if np.isnan(row[: tree.n_features]).any():
        needed = _features_used(tree.root)
        if any(np.isnan(row[j]) for j in needed):
            raise PhonassessError("row is missing a feature the model references")
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def _features_used(node: TreeNode) -> set[int]:
    if node.is_leaf:
        return set()
    return {node.feature} | _features_used(node.left) | _features_used(node.right)


@dataclass
class ForestModel:
    trees: list[DecisionTree]


def train_forest(X, y, n_trees: int = N_TREES_DEFAULT, seed: int = 0) -> ForestModel:
    """Bagged classification CARTs, sqrt(p) candidate features per node.

    The trees get ``y`` as string labels, so they classify whatever its dtype.

    Every tree gets its own generator spawned from the master seed, so the
    model is identical whether trees are trained serially or in parallel.
    Trees grow to purity (``min_leaf=1``) on a bootstrap sample.
    """
    X = np.asarray(X, dtype=np.float64)
    y_arr = np.asarray([str(v) for v in y])
    if len(set(y_arr)) < 2:
        raise PhonassessError("need at least two classes to train a forest")
    n, p = X.shape
    k = max(1, int(np.sqrt(p)))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, n, size=n)
        trees.append(train_cart(X[idx], y_arr[idx], min_leaf=1, rng=rng,
                                feature_subsample=k))
    return ForestModel(trees=trees)


def predict_forest(model: ForestModel, row) -> str:
    votes = [predict_tree(t, row) for t in model.trees]
    labels, counts = np.unique(votes, return_counts=True)
    return str(labels[np.argmax(counts)])  # tie -> lexicographically smallest


def predict(model, row):
    """Dispatch on model type; missing referenced features raise."""
    if isinstance(model, ForestModel):
        return predict_forest(model, row)
    return predict_tree(model, row)
