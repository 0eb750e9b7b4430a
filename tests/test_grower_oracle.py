"""The lockstep grower against the recursive grower it replaced.

``ref_grow`` and its helpers are the former ``models._grow``,
``_best_split``, ``_leaf`` and ``_gini``, kept verbatim with the
``TreeNode`` they build; ``ref_train_cart`` and ``ref_train_forest`` are the
former trainers built on them, and ``ref_predict`` the former
``predict_tree``. The grower builds no tree, so it is checked by routing:
every row of the matrix, and rows placed at each reference split's
threshold and one ulp above it, must reach the leaf the reference tree
gives them, value bits or label alike.
"""
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

import phonassess.models as models
from phonassess.errors import PhonassessError
from phonassess.evaluation import loo_validate
from phonassess.models import (GAIN_TOL, LearnerSpec, code_target, predict, train_cart,
                               train_forest)


# ---- reference: the recursive grower, verbatim --------------------------

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


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _best_split(col: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int):
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


def ref_grow(X, y, classes, min_leaf, rng, feature_subsample):
    n, p = X.shape
    if n < 2 * min_leaf:
        return _leaf(y, classes)
    if np.all(y == y[0]):
        return TreeNode(prediction=classes[int(y[0])] if classes else float(y[0]))

    if feature_subsample is not None and feature_subsample < p:
        candidates = np.sort(rng.choice(p, size=feature_subsample, replace=False))
    else:
        candidates = np.arange(p)

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
    left = ref_grow(X[go_left], y[go_left], classes, min_leaf, rng, feature_subsample)
    right = ref_grow(X[~go_left], y[~go_left], classes, min_leaf, rng, feature_subsample)
    return TreeNode(feature=int(best_feature), threshold=float(best_thr),
                    left=left, right=right)


def ref_train_cart(X, y, min_leaf, rng=None, feature_subsample=None) -> TreeNode:
    X = np.asarray(X, dtype=np.float64)
    rng = rng or np.random.default_rng(0)
    if np.issubdtype(np.asarray(y).dtype, np.number):
        classes: list[str] = []
        codes = np.asarray(y, dtype=np.float64)
    else:
        labels = np.asarray([str(v) for v in y])
        classes = sorted(set(labels))
        lut = {c: i for i, c in enumerate(classes)}
        codes = np.array([lut[v] for v in labels])
    return ref_grow(X, codes, classes, min_leaf, rng, feature_subsample)


def ref_train_forest(X, y, n_trees, seed) -> list[TreeNode]:
    X = np.asarray(X, dtype=np.float64)
    y_arr = np.asarray([str(v) for v in y])
    n, p = X.shape
    k = max(1, int(np.sqrt(p)))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, n, size=n)
        trees.append(ref_train_cart(X[idx], y_arr[idx], min_leaf=1, rng=rng,
                                    feature_subsample=k))
    return trees


def ref_predict(node: TreeNode, row) -> float | str:
    """The leaf ``row`` reaches; a missing value the tree splits on raises."""
    row = np.asarray(row, dtype=np.float64)
    if np.isnan(row).any():
        needed = features_used(node)
        if any(np.isnan(row[j]) for j in needed):
            raise PhonassessError("row is missing a feature the model references")
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def features_used(node: TreeNode) -> set[int]:
    if node.is_leaf:
        return set()
    return {node.feature} | features_used(node.left) | features_used(node.right)


def ref_majority(labels: list[str]) -> str:
    """The label most of ``labels`` are; a tie goes to the lexicographically smallest."""
    return max(sorted(set(labels)), key=labels.count)


def ref_trees(spec: LearnerSpec, X, y, seed: int) -> list[TreeNode]:
    """The reference trees of ``spec`` trained on all of ``X``, ``y``."""
    if spec.kind == "forest":
        return ref_train_forest(X, y, spec.n_trees, seed)
    return [ref_train_cart(X, y, spec.min_leaf)]


def ref_vote(spec: LearnerSpec, trees: list[TreeNode], row):
    """What the reference model made of ``trees`` predicts for ``row``."""
    leaves = [ref_predict(t, row) for t in trees]
    return ref_majority(leaves) if spec.kind == "forest" else leaves[0]


# ---- routing probes ---------------------------------------------------------

def threshold_rows(node: TreeNode, X) -> list[np.ndarray]:
    """For every split, a row of ``X`` that reaches it with the split's
    column set to the threshold, and again to the next float above it.

    The threshold lies strictly between two values of rows that reach the
    split, so a row that reaches it still does with either value in that
    column: one tests that a tie goes left, the other that the threshold is
    not an ulp high.
    """
    out = []

    def walk(node, rows):
        if node.is_leaf:
            return
        for value in (node.threshold, np.nextafter(node.threshold, np.inf)):
            out.append(rows[0].copy())
            out[-1][node.feature] = value
        left = rows[:, node.feature] <= node.threshold
        walk(node.left, rows[left])
        walk(node.right, rows[~left])

    walk(node, np.asarray(X, dtype=np.float64))
    return out


def bits(value):
    """A leaf value's exact bits and type, or its label."""
    if isinstance(value, str):
        return value
    return np.float64(value).tobytes(), type(value).__name__


def assert_routes_like_reference(spec: LearnerSpec, X, y, sets) -> None:
    """Route, in one call, every probe of every set through each of the
    set's lanes, and compare each leaf with the one its reference tree gives.

    ``sets`` holds (lanes, reference trees, training rows) triples, one tree
    per lane; a set's probes are every row of ``X`` and the threshold rows of
    its reference trees on its training rows.
    """
    n, p = X.shape
    extra, lanes, held, want = [], [], [], []
    for set_lanes, trees, rows in sets:
        placed = [r for tree in trees for r in threshold_rows(tree, X[rows])]
        index = [*range(n), *range(n + len(extra), n + len(extra) + len(placed))]
        extra += placed
        for i, row in zip(index, [*X, *placed]):
            for lane, tree in zip(set_lanes, trees, strict=True):
                lanes.append(lane)
                held.append(i)
                want.append(bits(ref_predict(tree, row)))
    probes = np.vstack([X, np.array(extra, dtype=np.float64).reshape(len(extra), p)])
    classes, target = code_target(y)
    targets = np.concatenate([target, np.repeat(target[:1], len(extra))])  # probes' go unread
    assert [bits(v) for v in route(spec, probes, classes, targets, lanes, held)] == want


def route(spec: LearnerSpec, X, classes, target, lanes, held) -> list:
    """``spec.route``'s leaves, each class code written as its label."""
    return [classes[v] if classes else v for v in spec.route(X, classes, target, lanes, held)]


# ---- inputs: tie-heavy columns, awkward targets -------------------------

# sums of these are rarely exact, so a mean in another order, or a mean in
# place of a pure node's first value, changes the last bits
Y_POOL = [0.1, 0.2, 0.7, 1.0 / 3.0, 2.5, -1.3, 1e3 / 7.0, 0.1 + 1e-12]


@st.composite
def matrices(draw, min_rows=2, max_rows=30, max_cols=5):
    n = draw(st.integers(min_rows, max_rows))
    p = draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pool", "grid", "normal"]))
    if kind == "pool":  # few distinct values: ties everywhere
        pool = rng.normal(0, 10, draw(st.integers(1, 5)))
        X = rng.choice(pool, size=(n, p))
    elif kind == "grid":
        X = np.round(rng.normal(0, 1, (n, p)) / 0.5) * 0.5
    else:
        X = rng.normal(0, 1, (n, p)) * 10.0 ** rng.integers(-3, 4, p)
    return X, rng


def regression_target(draw, rng, n):
    kind = draw(st.sampled_from(["pool", "normal", "few"]))
    if kind == "pool":
        return rng.choice(Y_POOL, size=n)
    if kind == "few":
        return rng.choice(Y_POOL[:2], size=n)
    return rng.normal(0, 50, n)


def class_target(draw, rng, n, n_classes):
    names = np.array(["HC", "PD"][:n_classes])  # trees classify two labels
    weights = rng.dirichlet(np.ones(n_classes) * draw(st.sampled_from([0.3, 1.0, 5.0])))
    return names[rng.choice(n_classes, size=n, p=weights)]




# ---- routing equality ---------------------------------------------------------

def assert_model_like_reference(model, trees, X, y) -> None:
    """``model``'s lanes route like ``trees``, and ``predict`` gives what
    the reference model gives on the rows of ``X``."""
    assert_routes_like_reference(model.spec, X, y, [(model.trees, trees, np.arange(len(X)))])
    for row in X[:4]:
        assert bits(predict(model, row)) == bits(ref_vote(model.spec, trees, row))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(1, 4), st.data())
def test_cart_regression_matches_recursive_grower(case, min_leaf, data):
    X, rng = case
    y = regression_target(data.draw, rng, len(X))
    assert_model_like_reference(train_cart(X, y, min_leaf), [ref_train_cart(X, y, min_leaf)], X, y)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(1, 4), st.integers(1, 2), st.data())
def test_cart_classification_matches_recursive_grower(case, min_leaf, n_classes, data):
    X, rng = case
    y = class_target(data.draw, rng, len(X), n_classes)
    assert_model_like_reference(train_cart(X, y, min_leaf), [ref_train_cart(X, y, min_leaf)], X, y)


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=3, max_rows=25, max_cols=9), st.integers(1, 8),
       st.integers(0, 2**32 - 1), st.data())
def test_forest_matches_recursive_grower(case, n_trees, seed, data):
    # bootstraps repeat rows, and with a rare class many lanes hold one class only
    X, rng = case
    y = class_target(data.draw, rng, len(X), 2)
    y[0], y[-1] = "HC", "PD"
    assert_model_like_reference(train_forest(X, y, n_trees, seed),
                                ref_train_forest(X, y, n_trees, seed), X, y)


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=3, max_rows=25, max_cols=9), st.integers(1, 5), st.data())
def test_forest_lanes_of_mixed_row_counts_grow_as_one_call_each(case, n_trees, data):
    """Training sets of different sizes, routed in one call, give each set's own trees."""
    X, rng = case
    n = len(X)
    y = class_target(data.draw, rng, n, 2)
    y[0], y[1] = "HC", "PD"
    spec = LearnerSpec(kind="forest", n_trees=n_trees)
    sets = data.draw(st.lists(st.tuples(st.lists(st.integers(2, n - 1), max_size=n),
                                        st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
    sets = [(np.array([0, 1] + extra, dtype=np.intp), seed) for extra, seed in sets]
    assert_routes_like_reference(spec, X, y, [
        (spec.lanes(code_target(y)[1], rows, seed),
         ref_train_forest(X[rows], y[rows], n_trees, seed), rows)
        for rows, seed in sets])


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=3, max_rows=20), st.integers(1, 4),
       st.sampled_from(["forest", "cart_class", "cart_reg"]), st.integers(0, 1000), st.data())
def test_loo_lanes_match_recursive_grower(case, min_leaf, kind, seed, data):
    """Every fold's lanes, routed together in one call, route like the per-fold trees."""
    X, rng = case
    n = len(X)
    if kind == "cart_reg":
        y = regression_target(data.draw, rng, n)
    else:
        y = class_target(data.draw, rng, n, 2)
        y[:4] = ["HC", "PD", "HC", "PD"][:n]
    spec = (LearnerSpec(kind="forest", n_trees=3, seed=seed) if kind == "forest"
            else LearnerSpec(kind="cart", min_leaf=min_leaf, seed=seed))
    folds = [(i, np.delete(np.arange(n), i)) for i in range(n)]
    if kind == "forest":  # a fold left with one class cannot train a forest
        folds = [(i, rows) for i, rows in folds if len(set(y[rows])) == 2]
    assert_routes_like_reference(spec, X, y, [
        (spec.lanes(code_target(y)[1], rows, seed + i),
         ref_trees(spec, X[rows], y[rows], seed + i), rows)
        for i, rows in folds])


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=3, max_rows=20), st.booleans(), st.data())
def test_loo_predictions_match_per_fold_training(case, forest, data):
    X, rng = case
    n = len(X)
    if forest:
        y = class_target(data.draw, rng, n, 2)
        spec = LearnerSpec(kind="forest", n_trees=4, seed=5)
    else:
        y = regression_target(data.draw, rng, n)
        spec = LearnerSpec(kind="cart", min_leaf=2, seed=5)
    result = loo_validate(X, y, spec)
    for i in range(n):
        rows = np.delete(np.arange(n), i)
        if forest and len(set(y[rows])) < 2:
            assert i in result.failed_folds
            continue
        want = ref_vote(spec, ref_trees(spec, X[rows], y[rows], 5 + i), X[i])
        assert np.asarray(result.predictions[i]).tobytes() == np.asarray(want).tobytes()


def test_batches_split_lanes_without_changing_trees(monkeypatch):
    """A byte budget of one lane per batch routes every row to the same leaves."""
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(0, 1, (24, 4)), 1)
    y = np.where(X[:, 0] + rng.normal(0, 0.5, 24) > 0, "PD", "HC")
    spec = LearnerSpec(kind="forest", n_trees=6)
    classes, target = code_target(y)
    lanes = spec.lanes(target, np.arange(24), 9) * 24
    held = np.repeat(np.arange(24), 6)
    whole = route(spec, X, classes, target, lanes, held)
    assert whole == [ref_predict(tree, X[i]) for i in range(24)
                     for tree in ref_train_forest(X, y, 6, 9)]
    monkeypatch.setattr(models, "LANE_BUDGET_BYTES", 1)
    assert route(spec, X, classes, target, lanes, held) == whole
