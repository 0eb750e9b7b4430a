"""Decision trees (CART) and bagged random forests, built from scratch.

The contracts the report pipeline relies on are all here: split thresholds
are midpoints between neighboring values, rows equal to a threshold go left,
ties between equally good splits resolve to the lowest feature index then
the lowest threshold, and every tree draws its randomness from a stream
spawned off the master seed so serial and parallel training produce the same
model. The target's dtype picks the task (``is_regression_target``): numbers
are regressed, anything else (class labels such as "PD"/"HC") is classified.

Every tree comes from one grower, ``grow_trees``. A *lane* is one tree on
its own row sample: the tree of ``train_cart``, one of ``train_forest``'s
bootstrapped trees, or, in ``evaluation.loo_validate``, one such tree per
leave-one-out fold. Each lane expands its nodes in its own depth-first
preorder (a node, then its left subtree, then its right one), and at step t
every lane still growing expands its t-th node. The split scans of all
those nodes over all their candidate columns are one numpy pass over
columns that each lane sorted once (stable, so tied values keep row order).
A forest node draws its sqrt(p) candidate columns from its own tree's
generator at the step its lane reaches it, after the tree's bootstrap draw,
so every tree consumes its stream in preorder and lanes never share one.
Lanes are grown in batches whose working arrays stay under
``LANE_BUDGET_BYTES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import PhonassessError

MIN_LEAF_DEFAULT = 3
N_TREES_DEFAULT = 500
GAIN_TOL = 1e-12
LANE_BUDGET_BYTES = 16 << 20
CELL_BYTES = 128  # peak working bytes per (lane, training row, column), rounded up


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


@dataclass
class ForestModel:
    trees: list[DecisionTree]


def _scan(xs: np.ndarray, ys: np.ndarray, n: np.ndarray, min_leaf: int, n_classes: int):
    """(gain, midpoint threshold) of the best split of each sorted node column.

    ``xs`` holds a node's values in one column, sorted stably, and ``ys`` the
    matching targets (class codes below ``n_classes`` when it is nonzero);
    both are padded along the last axis, and only the first ``n`` entries
    (``n`` has the shape of ``xs[..., :1]``) belong to the node. The gain is
    the variance reduction of a numeric target, else the Gini decrease. It is
    -inf where no threshold leaves ``min_leaf`` rows on both sides between
    two distinct values; the first best threshold wins a tie.
    """
    k = np.arange(1, xs.shape[-1])  # left sizes
    last = n - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        if n_classes:  # class counts on a leading class axis
            codes = np.arange(n_classes).reshape((-1,) + (1,) * ys.ndim)
            cum = np.cumsum(ys == codes, axis=-1, dtype=np.float64)
            total = np.take_along_axis(cum, np.broadcast_to(last, cum.shape[:-1] + (1,)), -1)
            left = cum[..., :-1]
            ln = k.astype(float)
            rn = (n - k).astype(float)
            gini_left = 1.0 - _class_sum((left / ln) ** 2)
            gini_right = 1.0 - _class_sum(((total - left) / rn) ** 2)
            p = total / _class_sum(total)
            parent = 1.0 - _class_sum(p * p)
            gain = parent - (ln / n) * gini_left - (rn / n) * gini_right
        else:
            csum = np.cumsum(ys, axis=-1)
            csq = np.cumsum(ys**2, axis=-1)
            s = np.take_along_axis(csum, last, axis=-1)
            q = np.take_along_axis(csq, last, axis=-1)
            left_sse = csq[..., :-1] - csum[..., :-1] ** 2 / k
            right_sum = s - csum[..., :-1]
            right_sse = (q - csq[..., :-1]) - right_sum**2 / (n - k)
            # float_power squares a total as the scalar ** of a 1-D scan does;
            # an array ** 2 rounds differently in the last bit now and then
            gain = (q - np.float_power(s, 2) / n) - (left_sse + right_sse)
    valid = (k >= min_leaf) & (k <= n - min_leaf) & (xs[..., :-1] < xs[..., 1:])
    gain = np.where(valid, gain, -np.inf)
    best = np.argmax(gain, axis=-1)[..., None]
    thr = 0.5 * (np.take_along_axis(xs, best, -1) + np.take_along_axis(xs, best + 1, -1))
    return np.take_along_axis(gain, best, -1)[..., 0], thr[..., 0]


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading class axis, bitwise as np.sum over a trailing one."""
    if len(a) == 2:  # a two-term sum rounds once, whatever the order
        return a[0] + a[1]
    return np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1)


def grow_trees(X, y, lanes, min_leaf: int, n_candidates: int | None = None):
    """Yield one tree per lane, in lane order.

    ``lanes`` yields ``(rows, rng)`` pairs: the tree's training rows as
    indices into ``X`` (in order, repeats allowed) and the generator each
    node draws ``n_candidates`` candidate columns from. With
    ``n_candidates`` None (or at least the column count) every column is a
    candidate and ``rng`` is never used.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if is_regression_target(y):
        classes: list[str] = []
        target = np.asarray(y, dtype=np.float64)
    else:
        names, target = np.unique(np.asarray([str(v) for v in y]), return_inverse=True)
        classes = names.tolist()
    if n_candidates is not None and n_candidates >= p:
        n_candidates = None
    per_batch = max(1, LANE_BUDGET_BYTES // (CELL_BYTES * max(n, 1) * max(p, 1)))
    lanes = iter(lanes)
    while batch := list(islice(lanes, per_batch)):
        yield from _grow_batch(X, target, classes, batch, min_leaf, n_candidates)


def _grow_batch(X, target, classes, lanes, min_leaf, n_candidates):
    """Grow a batch of lanes in lockstep preorder; yields their trees."""
    m, p = len(lanes), X.shape[1]
    size = np.array([len(rows) for rows, _ in lanes])
    width = int(size.max())
    in_lane = np.arange(width) < size[:, None]
    rows = np.zeros(in_lane.shape, dtype=np.intp)
    rows[in_lane] = np.concatenate([r for r, _ in lanes])
    values = X[rows].transpose(0, 2, 1).copy()  # (lane, column, position)
    order = np.argsort(values, axis=-1, kind="stable")
    raw = target[rows]
    ys, n_classes = raw, None
    if classes:  # scans see each lane's own class codes: ranks in its sorted label set
        present = np.zeros((m, len(classes)), dtype=bool)
        present[np.nonzero(in_lane)[0], raw[in_lane]] = True
        ys = (np.cumsum(present, axis=1) - 1)[np.arange(m)[:, None], raw]
        n_classes = present.sum(axis=1)

    # Each row sits in the stack slot of the pending node that holds it (-1:
    # in a leaf or outside the lane); a lane's top slot is its next node.
    slot = np.where(in_lane, 0, -1)
    depth = np.ones(m, dtype=np.intp)
    features, thresholds, leaves = [], [], []
    while (live := np.flatnonzero(depth)).size:
        top = depth[live] - 1
        member = slot[live] == top[:, None]
        count = member.sum(axis=1)
        node_ys = ys[live]
        first = member.argmax(axis=1)
        pure = ~(member & (node_ys != node_ys[np.arange(live.size), first][:, None])).any(axis=1)
        small = count < 2 * min_leaf
        feature = np.full(live.size, -1)
        threshold = np.zeros(live.size)
        if (scanned := np.flatnonzero(~small & ~pure)).size:
            lane = live[scanned]
            if n_candidates is None:
                cand = np.broadcast_to(np.arange(p), (lane.size, p))
            else:  # each lane's own stream, at its own node
                cand = np.sort([lanes[i][1].choice(p, size=n_candidates, replace=False)
                                for i in lane], axis=1)
            feature[scanned], threshold[scanned] = _best_splits(
                values, order, ys, member[scanned], count[scanned], lane, cand,
                None if n_classes is None else n_classes[lane], min_leaf)

        split = feature >= 0
        if classes:  # majority; a tie goes to the first label
            votes = member[:, None, :] & (raw[live][:, None, :] == np.arange(len(classes))[:, None])
            leaf = np.argmax(votes.sum(axis=2), axis=1)
        else:  # a pure node's first value, else the mean in row order
            leaf = node_ys[np.arange(live.size), first]
            averaged = np.flatnonzero(~split & (small | ~pure))
            for c in np.unique(count[averaged]):  # one row per leaf, as np.mean(1-D) sums it
                g = averaged[count[averaged] == c]
                leaf[g] = np.mean(node_ys[g][member[g]].reshape(g.size, c), axis=1)
        for record, value in ((features, feature), (thresholds, threshold), (leaves, leaf)):
            record.append(np.full(m, -2, dtype=value.dtype))  # -2: no t-th node
            record[-1][live] = value

        child = np.full(member.shape, -1)
        if split.any():  # ties go left; the left child goes on top
            go_left = values[live[split], feature[split], :] <= threshold[split, None]
            child[split] = top[split, None] + go_left
        slot[live] = np.where(member, child, slot[live])
        depth[live] = np.where(split, top + 2, top)

    features, thresholds, leaves = np.array(features), np.array(thresholds), np.array(leaves)
    for i in range(m):
        yield _from_preorder(features[:, i].tolist(), thresholds[:, i].tolist(),
                             leaves[:, i].tolist(), classes, p)


def _best_splits(values, order, ys, member, count, lane, cand, n_classes, min_leaf):
    """(feature, threshold) of the best split of each scanned node; -1 for none.

    Node i belongs to lane ``lane[i]``, holds the rows ``member[i]`` marks
    (``count[i]`` of them) and may split on the columns ``cand[i]``, in
    ascending order. ``n_classes`` holds each lane's class count, or is None
    for a numeric target.
    """
    width = order.shape[-1]
    column = lane[:, None] * order.shape[1] + cand  # (node, candidate) -> lane column
    pos = order.reshape(-1, width)[column]  # positions by value
    inside = member.ravel()[np.arange(lane.size)[:, None, None] * width + pos]
    pos = _members_first(pos, inside, count)  # the node's rows, by value
    xs = values.ravel()[column[:, :, None] * width + pos]
    sorted_ys = ys.ravel()[lane[:, None, None] * width + pos]
    n = count[:, None, None]
    if n_classes is None:
        gain, thr = _scan(xs, sorted_ys, n, min_leaf, 0)
    else:  # one scan per class count, so each sums over its own classes
        gain, thr = np.empty(cand.shape), np.empty(cand.shape)
        for c in np.unique(n_classes):
            g = n_classes == c
            gain[g], thr[g] = _scan(xs[g], sorted_ys[g], n[g], min_leaf, int(c))

    best = np.full(lane.size, -np.inf)
    pick = np.full(lane.size, -1)
    for c in range(cand.shape[1]):  # ascending column: ties keep the lowest
        better = gain[:, c] > best + GAIN_TOL
        best = np.where(better, gain[:, c], best)
        pick = np.where(better, c, pick)
    # impure nodes split on the best candidate even at zero gain (standard
    # CART behavior; greedy XOR-style structure resolves on the next level)
    ok = np.flatnonzero((pick >= 0) & ~(best < -1e-9))
    feature = np.full(lane.size, -1)
    threshold = np.zeros(lane.size)
    feature[ok] = cand[ok, pick[ok]]
    threshold[ok] = thr[ok, pick[ok]]
    return feature, threshold


def _members_first(pos: np.ndarray, inside: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each row of ``pos`` (node, candidate, position) cut to the entries
    ``inside`` marks, in order, and padded with zeros to the largest count.

    This is ``take_along_axis(pos, argsort(~inside, kind="stable"))`` cut to
    that width, without sorting: ``count[i]`` rows are inside for node i.
    """
    n_nodes, n_cand, width = pos.shape
    per_row = np.repeat(count, n_cand)
    flat = np.flatnonzero(inside)  # row-major: row by row, in order
    rank = np.arange(flat.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    out = np.zeros((n_nodes * n_cand, count.max()), dtype=pos.dtype)
    out[flat // width, rank] = pos.ravel()[flat]
    return out.reshape(n_nodes, n_cand, count.max())


def _from_preorder(features, thresholds, leaves, classes, n_features) -> DecisionTree:
    """The tree whose preorder node list this is (feature -1: leaf, -2: end)."""
    root = None
    open_nodes: list[TreeNode] = []  # internal nodes still missing a child
    for f, thr, leaf in zip(features, thresholds, leaves):
        if f == -2:
            break
        if f < 0:
            node = TreeNode(prediction=classes[leaf] if classes else leaf)
        else:
            node = TreeNode(feature=f, threshold=thr)
        if root is None:
            root = node
        elif open_nodes[-1].left is None:
            open_nodes[-1].left = node
        else:
            open_nodes.pop().right = node
        if f >= 0:
            open_nodes.append(node)
    return DecisionTree(root=root, n_features=n_features)


def _bootstrap_lanes(rows: np.ndarray, n_trees: int, seed: int):
    """One lane per tree: a bootstrap of ``rows`` drawn from the tree's own stream."""
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        yield rows[rng.integers(0, len(rows), size=len(rows))], rng


@dataclass
class LearnerSpec:
    """What to train inside the wrapper and the final evaluation.

    The target's dtype picks what a CART does; a forest always classifies,
    its trees growing to purity (``min_leaf`` 1) on bootstrap samples with
    sqrt(p) candidate columns per node. ``min_leaf`` applies to a single
    CART only; ``seed`` is the leave-one-out seed.
    """

    kind: str = "cart"             # "cart" | "forest"
    n_trees: int = 50
    min_leaf: int = 3
    seed: int = 0

    def lanes(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray, seed: int):
        """The lanes of one model trained on ``X[rows]``, ``y[rows]``.

        Raises ``PhonassessError`` when those rows cannot train the model.
        """
        sub = X[rows]
        if sub.ndim != 2:
            raise PhonassessError("X must be 2-D")
        if len(rows) < 1:
            raise PhonassessError("empty training set")
        if np.isnan(sub).any():
            raise PhonassessError("training matrix contains missing values; drop rows first")
        if self.kind != "forest":
            return [(rows, None)]
        if len({str(v) for v in y[rows]}) < 2:
            raise PhonassessError("need at least two classes to train a forest")
        return _bootstrap_lanes(rows, self.n_trees, seed)

    def grow(self, X: np.ndarray, y: np.ndarray, lanes):
        """Trees for ``lanes`` (of this learner), in order."""
        if self.kind == "forest":  # string labels: a forest classifies any y
            return grow_trees(X, [str(v) for v in y], lanes, 1,
                              max(1, int(np.sqrt(X.shape[1]))))
        return grow_trees(X, y, lanes, self.min_leaf)

    def model(self, trees):
        """The model made of the next trees ``grow`` yields for one training set."""
        if self.kind == "forest":
            return ForestModel(trees=list(islice(trees, self.n_trees)))
        return next(trees)

    def train(self, X, y, seed: int = 0):
        """One model on all of ``X``, ``y``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        lanes = self.lanes(X, y, np.arange(len(X)), seed)
        return self.model(self.grow(X, y, lanes))


def train_cart(X, y, min_leaf: int = MIN_LEAF_DEFAULT) -> DecisionTree:
    """Greedy binary CART: variance reduction and mean leaves for a numeric
    ``y``, Gini decrease and majority leaves for class labels."""
    return LearnerSpec(kind="cart", min_leaf=min_leaf).train(X, y)


def train_forest(X, y, n_trees: int = N_TREES_DEFAULT, seed: int = 0) -> ForestModel:
    """Bagged classification CARTs, sqrt(p) candidate features per node.

    The trees get ``y`` as string labels, so they classify whatever its dtype.
    Every tree gets its own generator spawned from the master seed, so the
    model is identical whether trees are trained serially or in parallel.
    Trees grow to purity (``min_leaf=1``) on a bootstrap sample.
    """
    return LearnerSpec(kind="forest", n_trees=n_trees).train(X, y, seed)


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


def predict_forest(model: ForestModel, row) -> str:
    votes = [predict_tree(t, row) for t in model.trees]
    labels, counts = np.unique(votes, return_counts=True)
    return str(labels[np.argmax(counts)])  # tie -> lexicographically smallest


def predict(model, row):
    """Dispatch on model type; missing referenced features raise."""
    if isinstance(model, ForestModel):
        return predict_forest(model, row)
    return predict_tree(model, row)
