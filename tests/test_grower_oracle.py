"""The lockstep grower against the recursive grower it replaced.

``ref_grow`` and its helpers are the former ``models._grow``,
``_best_split``, ``_leaf`` and ``_gini``, kept verbatim; ``ref_train_cart``
and ``ref_train_forest`` are the former trainers built on them. Trees must
be equal node for node: feature, threshold bits, and leaf value bits or
label.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from phonassess.evaluation import loo_validate
from phonassess.models import GAIN_TOL, LearnerSpec, TreeNode, predict, train_cart


# ---- reference: the recursive grower, verbatim --------------------------

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


def shape(node: TreeNode):
    """Preorder structure with exact bits of every threshold and leaf value."""
    if node.is_leaf:
        value = node.prediction
        if isinstance(value, str):  # the former labels were numpy strings
            return ("leaf", str(value))
        return ("leaf", np.float64(value).tobytes(), type(value).__name__)
    return (node.feature, np.float64(node.threshold).tobytes(),
            shape(node.left), shape(node.right))


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
    names = np.array(["HC", "PD", "X", "a", "b", "c", "d", "e", "f", "g"][:n_classes])
    weights = rng.dirichlet(np.ones(n_classes) * draw(st.sampled_from([0.3, 1.0, 5.0])))
    return names[rng.choice(n_classes, size=n, p=weights)]


# ---- node-for-node equality ----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(1, 4), st.data())
def test_cart_regression_matches_recursive_grower(case, min_leaf, data):
    X, rng = case
    y = regression_target(data.draw, rng, len(X))
    tree = train_cart(X, y, min_leaf)
    assert shape(tree.root) == shape(ref_train_cart(X, y, min_leaf))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.integers(1, 4), st.integers(1, 10), st.data())
def test_cart_classification_matches_recursive_grower(case, min_leaf, n_classes, data):
    X, rng = case
    y = class_target(data.draw, rng, len(X), n_classes)
    tree = train_cart(X, y, min_leaf)
    assert shape(tree.root) == shape(ref_train_cart(X, y, min_leaf))


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=3, max_rows=25, max_cols=9), st.integers(1, 8), st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.data())
def test_forest_matches_recursive_grower(case, n_trees, n_classes, seed, data):
    # bootstraps repeat rows, and with a rare class many lanes hold one class only
    X, rng = case
    y = class_target(data.draw, rng, len(X), max(n_classes, 2))
    y[0], y[-1] = "HC", "PD"
    forest = LearnerSpec(kind="forest", n_trees=n_trees).train(X, y, seed)
    assert ([shape(t.root) for t in forest.trees]
            == [shape(t) for t in ref_train_forest(X, y, n_trees, seed)])


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=3, max_rows=25, max_cols=9), st.integers(1, 5), st.data())
def test_forest_lanes_of_mixed_row_counts_grow_as_one_call_each(case, n_trees, data):
    """Training sets of different sizes, grown in one call, give each set's own trees."""
    X, rng = case
    n = len(X)
    y = class_target(data.draw, rng, n, 2)
    y[0], y[1] = "HC", "PD"
    spec = LearnerSpec(kind="forest", n_trees=n_trees)
    sets = data.draw(st.lists(st.tuples(st.lists(st.integers(2, n - 1), max_size=n),
                                        st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
    sets = [(np.array([0, 1] + extra, dtype=np.intp), seed) for extra, seed in sets]
    lanes = [lane for rows, seed in sets for lane in spec.lanes(X, y, rows, seed)]
    trees = spec.grow(X, y, lanes)
    for rows, seed in sets:
        alone = spec.model(spec.grow(X, y, spec.lanes(X, y, rows, seed)))
        assert ([shape(t.root) for t in spec.model(trees).trees]
                == [shape(t.root) for t in alone.trees])


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=3, max_rows=20), st.integers(1, 4), st.booleans(),
       st.integers(0, 1000), st.data())
def test_loo_lanes_match_recursive_grower(case, min_leaf, forest, seed, data):
    """Every fold's trees, grown together in one batch, equal the per-fold trees."""
    X, rng = case
    n = len(X)
    if forest:
        y = class_target(data.draw, rng, n, 2)
        y[:4] = ["HC", "PD", "HC", "PD"][:n]
        spec = LearnerSpec(kind="forest", n_trees=3, seed=seed)
    else:
        y = regression_target(data.draw, rng, n)
        spec = LearnerSpec(kind="cart", min_leaf=min_leaf, seed=seed)
    folds = [(i, np.delete(np.arange(n), i)) for i in range(n)]
    if forest:  # a fold left with one class cannot train a forest
        folds = [(i, rows) for i, rows in folds if len(set(y[rows])) == 2]
    lanes = [lane for i, rows in folds for lane in spec.lanes(X, y, rows, seed + i)]
    trees = spec.grow(X, y, lanes)
    for i, rows in folds:
        model = spec.model(trees)
        if forest:
            got = [shape(t.root) for t in model.trees]
            want = [shape(t) for t in ref_train_forest(X[rows], y[rows], 3, seed + i)]
        else:
            got = shape(model.root)
            want = shape(ref_train_cart(X[rows], y[rows], min_leaf))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=3, max_rows=20), st.booleans(), st.data())
def test_loo_predictions_match_per_fold_training(case, forest, data):
    X, rng = case
    n = len(X)
    if forest:
        y = class_target(data.draw, rng, n, 2)
        spec = LearnerSpec(kind="forest", n_trees=4)
    else:
        y = regression_target(data.draw, rng, n)
        spec = LearnerSpec(kind="cart", min_leaf=2)
    result = loo_validate(X, y, spec, seed=5)
    for i in range(n):
        rows = np.delete(np.arange(n), i)
        if forest and len(set(y[rows])) < 2:
            assert i in result.failed_folds
            continue
        model = spec.train(X[rows], y[rows], 5 + i)
        assert np.asarray(predict(model, X[i])).tobytes() == \
            np.asarray(result.predictions[i]).tobytes()


def test_batches_split_lanes_without_changing_trees(monkeypatch):
    """A byte budget of one lane per batch grows the same trees."""
    import phonassess.models as models

    rng = np.random.default_rng(3)
    X = np.round(rng.normal(0, 1, (24, 4)), 1)
    y = np.where(X[:, 0] + rng.normal(0, 0.5, 24) > 0, "PD", "HC")
    spec = LearnerSpec(kind="forest", n_trees=6)
    whole = spec.train(X, y, 9)
    monkeypatch.setattr(models, "LANE_BUDGET_BYTES", 1)
    assert spec.train(X, y, 9) == whole
