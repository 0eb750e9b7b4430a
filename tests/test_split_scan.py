"""The batched split scan against the two per-mode scans it replaced."""
import numpy as np
from hypothesis import given, settings, strategies as st

from phonassess.models import _scan


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


# Reference: the former per-mode scans, kept verbatim.
def _best_split_regression(col: np.ndarray, y: np.ndarray, min_leaf: int):
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = y[order]
    n = len(ys)
    csum = np.cumsum(ys)
    csq = np.cumsum(ys**2)
    total_sse = csq[-1] - csum[-1] ** 2 / n
    k = np.arange(min_leaf, n - min_leaf + 1)  # left sizes
    if len(k) == 0:
        return None
    left_sse = csq[k - 1] - csum[k - 1] ** 2 / k
    right_n = n - k
    right_sum = csum[-1] - csum[k - 1]
    right_sse = (csq[-1] - csq[k - 1]) - right_sum**2 / right_n
    gain = total_sse - (left_sse + right_sse)
    valid = xs[k - 1] < xs[np.minimum(k, n - 1)]  # distinct neighboring values
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))  # first max -> lowest threshold
    thr = 0.5 * (xs[k[best] - 1] + xs[k[best]])
    return float(gain[best]), thr


def _best_split_classification(col: np.ndarray, y_codes: np.ndarray, n_classes: int, min_leaf: int):
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = y_codes[order]
    n = len(ys)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]
    k = np.arange(min_leaf, n - min_leaf + 1)
    if len(k) == 0:
        return None
    left = cum[k - 1]
    right = total - left
    ln = k.astype(float)
    rn = (n - k).astype(float)
    gini_left = 1.0 - np.sum((left / ln[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right / rn[:, None]) ** 2, axis=1)
    parent = _gini(total)
    gain = parent - (ln / n) * gini_left - (rn / n) * gini_right
    valid = xs[k - 1] < xs[np.minimum(k, n - 1)]
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    thr = 0.5 * (xs[k[best] - 1] + xs[k[best]])
    return float(gain[best]), thr


def batched_scan(col, y, n_classes, min_leaf, pad):
    """``_scan`` on one sorted column followed by ``pad`` rows of other values."""
    order = np.argsort(col, kind="stable")
    xs = np.concatenate([col[order], pad])
    ys = np.concatenate([y[order], np.resize(y, len(pad))])
    gain, thr = _scan(xs[None], ys[None], np.array([[len(col)]]), min_leaf, n_classes)
    return None if gain[0] == -np.inf else (float(gain[0]), thr[0])


def _bits(result):
    if result is None:
        return None
    gain, thr = result
    return np.float64(gain).tobytes(), np.float64(thr).tobytes()


@st.composite
def column_with_ties(draw):
    """A column whose values come from a small pool, so neighbours often tie."""
    n = draw(st.integers(2, 30))
    pool = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=6))
    col = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    pad = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=4)))
    return col, draw(st.integers(1, 4)), pad


@settings(max_examples=300, deadline=None)
@given(column_with_ties(), st.data())
def test_regression_scan_matches_reference(case, data):
    col, min_leaf, pad = case
    y = np.array(data.draw(st.lists(st.floats(-200, 200, allow_nan=False),
                                    min_size=len(col), max_size=len(col))))
    assert _bits(batched_scan(col, y, 0, min_leaf, pad)) == \
        _bits(_best_split_regression(col, y, min_leaf))


@settings(max_examples=300, deadline=None)
@given(column_with_ties(), st.integers(1, 3), st.data())
def test_classification_scan_matches_reference(case, n_classes, data):
    col, min_leaf, pad = case
    y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                    min_size=len(col), max_size=len(col))))
    assert _bits(batched_scan(col, y, n_classes, min_leaf, pad)) == \
        _bits(_best_split_classification(col, y, n_classes, min_leaf))


def test_node_total_is_squared_as_the_scalar_scan_squares_it():
    # sum 145.152: its square as an array ** 2 (x * x) and as the scalar ** of
    # the 1-D scan (pow) differ in the last bit, and so does the gain
    col = np.arange(4.0)
    y = np.array([119.485, -76.632, -91.475, 193.774])
    assert _bits(batched_scan(col, y, 0, 1, np.array([]))) == \
        _bits(_best_split_regression(col, y, 1))
