"""Decision trees (CART) and bagged random forests, grown from scratch only
as far as leave-one-out needs them.

The contracts the report pipeline relies on are all here: split thresholds
are midpoints between neighboring values, rows equal to a threshold go left,
ties between equally good splits resolve to the lowest feature index then
the lowest threshold, and every tree draws its randomness from a stream
spawned off the master seed, whatever the order its lanes grow in. The
target's dtype picks the task (``is_regression_target``): numbers are
regressed, anything else is classified. ``code_target`` is the one coder
(sorted labels, each row's code among them) and ``check_complete`` the one
check (two labels at most: the paper's PD and HC); the grower and
leave-one-out work on the codes. A forest refuses a numeric target in
``LearnerSpec.refuse`` alone, before it trains anything.

One grower does it all, and it builds no tree. A *lane* is one tree on its
own row sample (a CART, or one of a forest's bootstrapped trees) with one
held-out row; in ``evaluation.loo_validate`` there is one CART or forest per
leave-one-out fold. Each lane expands its nodes in its own depth-first
preorder (a node, then its left subtree, then its right one), and at step t
every lane still growing expands its t-th node. Each lane sorts every column
once (stable, so tied values keep row order) and keeps its rows in one array
where every pending node's rows form a run, in row order; a split partitions
the run. A node's rows by value are its run's ranks in a column, sorted. The
split scans of all the step's nodes over all their candidate columns are one
numpy pass, taken by buckets of nodes of similar size (2^(b-1)+1 to 2^b
rows), each padded only to its own widest node. Lanes are grown in batches
whose working arrays stay under ``LANE_BUDGET_BYTES``.

``_grow`` (called by ``LearnerSpec.route``) carries each lane's held-out row
down its splits as they are made (with the same ``<=``) and gives the value
of the leaf it reaches, a class code for class labels. Held-out rows are
complete (``check_complete``). A
CART lane grows only its row's path. A forest lane grows its tree in
preorder up to its row's leaf, because its node draws follow the preorder;
the nodes after that leaf could change only the lane's own later draws, so
it stops there. A lane expands no leaf: a child that cannot split (too
small, or one target value) gives its value at once if the row goes there,
and is dropped if not. A caller may end the routing between two batches
(``proceed``), so a leave-one-out that can no longer win grows no more.

Random draws. A forest lane is its training rows and its stream (s, t):
tree t of a forest seeded s draws from the PCG64 stream of
``SeedSequence(s).spawn(n)[t]``, read as numpy's 32-bit draws read it: each
64-bit output's low half, then its high half. It takes its bootstrap as
``rng.integers(0, n, size=n)`` would, then, at each node it scans (in
preorder), its sqrt(p) candidate columns as ``rng.choice(p, k,
replace=False)`` would: Floyd's algorithm, then a shuffle of the k picks
whose order the sorted candidates do not keep. Every one of those draws is a
Lemire bounded draw on the next word, so ``_LaneWords.draw`` makes a batch's
bootstraps (one pass per row count) and each step's candidate draws for all
its lanes in one numpy pass, and only a lane whose draw Lemire's rule
rejects (odds below 2^-25 per draw) is redone word by word. The words of
each (seed, tree) stream are read once per process into a memo of at most
``STREAM_MEMO_BYTES``; a stream that does not fit is read again when
needed. Leave-one-out fold i always seeds ``seed + i``, so every objective of
a feature search reuses the same streams.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import PhonassessError

MIN_LEAF_DEFAULT = 3
N_TREES_DEFAULT = 500
GAIN_TOL = 1e-12
LANE_BUDGET_BYTES = 64 << 20
CELL_BYTES = 96  # peak working bytes per (lane, training row, column), rounded up
STREAM_MEMO_BYTES = 48 << 20
STREAM_ENTRY_BYTES = 288  # bookkeeping per memoized stream, counted against the memo's bytes
SPARE_WORDS = 16  # words read past what a stream is known to need
PASS_CELLS = 2048  # padded cells that cost as much as one more padded pass


def is_regression_target(y) -> bool:
    """True for a numeric target (regression), False for class labels."""
    return bool(np.issubdtype(np.asarray(y).dtype, np.number))


# ---- random draws from raw stream words -----------------------------------

def _bounded(words: np.ndarray, bounds: np.ndarray):
    """numpy's bounded draws in [0, b), one per bound b > 1, each from the
    next word w on the last axis of ``words``: ``(w * b) >> 32`` (Lemire).

    numpy keeps a draw unless the product's low 32 bits fall below
    ``2**32 % b``. Returns the draws and, per row, whether numpy kept every
    one of them; a row where it did not must be drawn again word by word.
    """
    product = words * bounds
    ok = ~((product & 0xFFFFFFFF) < np.uint64(2**32) % bounds).any(axis=-1)
    return (product >> 32).astype(np.intp), ok


def _floyd(draws: np.ndarray, p: int) -> np.ndarray:
    """The k columns of p that numpy's Floyd sampling picks from its draws.

    Draw t (of k, on the last axis) lies in [0, j] for j = p - k + t; the
    t-th pick is that draw, or j when an earlier pick took it already.
    """
    picks = draws.copy()
    k = draws.shape[-1]
    for t in range(1, k):
        taken = (picks[..., :t] == picks[..., t:t + 1]).any(axis=-1)
        picks[..., t] = np.where(taken, p - k + t, picks[..., t])
    return picks


def _choice_bounds(p: int, k: int) -> np.ndarray:
    """Bounds of the draws of ``rng.choice(p, k, replace=False)``.

    Floyd's k draws, then the k - 1 of the shuffle of its picks, for
    1 <= k < p. numpy takes this path unless p > 10000 and k > p // 50,
    which k = sqrt(p) never is.
    """
    return np.concatenate([np.arange(p - k + 1, p + 1), np.arange(k, 1, -1)]).astype(np.uint64)


class _StreamMemo:
    """The leading 32-bit words of each forest tree's stream, read once per process.

    Holds plain word arrays, at most ``limit`` bytes of them counting
    ``STREAM_ENTRY_BYTES`` per stream; a stream read when the memo is full
    is not kept. A stream's words depend on (seed, tree) alone, so one
    process-wide memo changes no caller's result, only how often streams
    are set up.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._words: dict[tuple[int, int], np.ndarray] = {}

    def words(self, seed: int, tree: int, count: int) -> np.ndarray:
        """At least ``count`` leading words of tree ``tree``'s stream under ``seed``."""
        held = self._words.get((seed, tree))
        if held is not None and len(held) >= count:
            return held
        # the child SeedSequence(seed).spawn(n) gives tree ``tree``, whatever n
        stream = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tree,)))
        raw = stream.random_raw(-(-count // 2))
        words = np.empty(2 * raw.size, dtype=np.uint32)
        words[0::2] = raw & 0xFFFFFFFF
        words[1::2] = raw >> 32
        added = words.nbytes + (STREAM_ENTRY_BYTES if held is None else -held.nbytes)
        if self.nbytes + added <= self.limit:
            self._words[(seed, tree)] = words
            self.nbytes += added
        return words


_STREAMS = _StreamMemo(STREAM_MEMO_BYTES)


class _LaneWords:
    """The stream words of a batch's forest lanes as one (lane, word) block,
    with each lane's next unread word.

    Lane i draws from ``streams[i]``, a (seed, tree) pair, whose first
    ``counts[i]`` words are read up front.
    """

    def __init__(self, streams: list[tuple[int, int]], counts: np.ndarray):
        self.streams = streams
        words = [_STREAMS.words(seed, tree, int(c)) for (seed, tree), c in zip(streams, counts)]
        self.at = np.zeros(len(streams), dtype=np.intp)
        self.have = np.array([len(w) for w in words])
        self.block = np.zeros((len(streams), self.have.max()), dtype=np.uint32)
        self.block[np.arange(self.have.max()) < self.have[:, None]] = np.concatenate(words)

    def draw(self, lanes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Each lane's next draws, one in [0, b) per bound b > 1 (``bounds``,
        uint64), as numpy's bounded draws make them on its stream: (lane, draw)."""
        reads = len(bounds)
        for i in lanes[self.at[lanes] + reads > self.have[lanes]]:
            self._read(i, self.at[i] + reads + SPARE_WORDS)
        at = self.at[lanes]
        draws, ok = _bounded(self.block[lanes[:, None], at[:, None] + np.arange(reads)], bounds)
        self.at[lanes] = at + reads
        for r in np.flatnonzero(~ok):  # numpy drew again: this lane's draws word by word
            i = lanes[r]
            self.at[i] = at[r]
            for d, b in enumerate(bounds.tolist()):
                while True:
                    if self.at[i] == self.have[i]:
                        self._read(i, 2 * self.have[i])
                    product = int(self.block[i, self.at[i]]) * b
                    self.at[i] += 1
                    if product & 0xFFFFFFFF >= 2**32 % b:
                        break
                draws[r, d] = product >> 32
        return draws

    def candidates(self, lanes: np.ndarray, p: int, k: int) -> np.ndarray:
        """Each lane's next k candidate columns, ascending: what
        ``np.sort(rng.choice(p, k, replace=False))`` gives on its stream."""
        return np.sort(_floyd(self.draw(lanes, _choice_bounds(p, k))[:, :k], p), axis=1)

    def _read(self, i: int, count: int) -> None:
        """Make lane i's first ``count`` words available."""
        words = _STREAMS.words(*self.streams[i], count)
        if len(words) > self.block.shape[1]:
            self.block = np.pad(self.block, ((0, 0), (0, len(words) - self.block.shape[1])))
        self.block[i, :len(words)] = words
        self.have[i] = len(words)


# ---- the lockstep grower ---------------------------------------------------

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
            total = _at(cum, last)
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
            s = _at(csum, last)
            q = _at(csq, last)
            left_sse = csq[..., :-1] - csum[..., :-1] ** 2 / k
            right_sum = s - csum[..., :-1]
            right_sse = (q - csq[..., :-1]) - right_sum**2 / (n - k)
            # float_power squares a total as the scalar ** of a 1-D scan does;
            # an array ** 2 rounds differently in the last bit now and then
            gain = (q - np.float_power(s, 2) / n) - (left_sse + right_sse)
    valid = (k >= min_leaf) & (k <= n - min_leaf) & (xs[..., :-1] < xs[..., 1:])
    gain = np.where(valid, gain, -np.inf)
    best = np.argmax(gain, axis=-1)
    at = np.arange(best.size) * xs.shape[-1] + best.ravel()  # each row's best in xs
    thr = 0.5 * (xs.ravel()[at] + xs.ravel()[at + 1])
    return _at(gain, best[..., None])[..., 0], thr.reshape(best.shape)


def _at(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, i, -1)`` for one index per row of ``a`` (``i``
    broadcasts to the shape of ``a[..., :1]``), without its per-call set-up."""
    i = np.broadcast_to(i, a.shape[:-1] + (1,))
    rows = a.reshape(-1, a.shape[-1])
    return rows[np.arange(len(rows)), i.ravel()].reshape(i.shape)


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of two classes: one rounding, in either order."""
    return a[0] + a[1]


def code_target(y) -> tuple[list[str], np.ndarray]:
    """A class target's sorted labels and each row's code among them, or no
    labels and a numeric target as floats."""
    if is_regression_target(y):
        return [], np.asarray(y, dtype=np.float64)
    names, codes = np.unique(np.asarray([str(v) for v in y]), return_inverse=True)
    return names.tolist(), codes


def _grow(X, target, n_classes, min_leaf, n_candidates, lanes, held_out, proceed=None):
    """Yield, in lane order, the value of the leaf lane i's tree sends its
    held-out row ``X[held_out[i]]`` to (its class code for class targets).

    ``X`` and ``target`` come from ``check_complete``, the one check, whose
    ``code_target`` is the one coder: class codes below ``n_classes``, or
    floats when it is 0 (a forest refused those in ``LearnerSpec.refuse``);
    nothing is coded or converted here. ``lanes`` yields ``(rows, stream)``
    pairs: the training rows as indices into ``X`` (in order, repeats allowed)
    and, for a forest tree, its (seed, tree) stream, which bootstraps ``rows``
    and draws each node's ``n_candidates`` candidate columns; a CART lane's
    stream is None. With ``n_candidates`` None (or at least the column count)
    every column is a candidate. The lanes grow in batches under
    ``LANE_BUDGET_BYTES``. ``proceed``, when given, is asked before each batch
    after the first; the leaves end where it answers False.
    """
    n, p = X.shape
    if n_candidates is not None and n_candidates >= p:
        n_candidates = None
    per_batch = max(1, LANE_BUDGET_BYTES // (CELL_BYTES * max(n, 1) * max(p, 1)))
    lanes = iter(lanes)
    done = 0
    while batch := list(islice(lanes, per_batch)):
        if done and proceed is not None and not proceed():
            return
        held = held_out[done:done + len(batch)]
        done += len(batch)
        yield from _grow_batch(X, target, n_classes, batch, min_leaf, n_candidates, held)


def _grow_batch(X, target, n_classes, lanes, min_leaf, n_candidates, held):
    """Grow a batch of lanes in lockstep preorder; the values of the leaves
    their held-out rows ``held`` (one per lane) reach."""
    m, p = len(lanes), X.shape[1]
    size = np.array([len(rows) for rows, _ in lanes])
    width = int(size.max())
    in_lane = np.arange(width) < size[:, None]
    rows = np.zeros(in_lane.shape, dtype=np.intp)
    rows[in_lane] = np.concatenate([r for r, _ in lanes])
    if lanes[0][1] is not None:  # forest lanes: a bootstrap of each lane's rows
        # each stream is first read for its bootstrap and n/4 nodes of draws,
        # about what a tree grown to purity on noise scans
        node_words = 2 * (n_candidates or 1) - 1
        words = _LaneWords([stream for _, stream in lanes], size + node_words * (size // 4))
        for n in np.unique(size):  # as rng.integers(0, n, size=n) draws it
            g = np.flatnonzero(size == n)
            rows[g, :n] = np.take_along_axis(
                rows[g, :n], words.draw(g, np.full(n, n, dtype=np.uint64)), axis=1)
    values = X[rows].transpose(0, 2, 1).copy()  # (lane, column, position)
    order = np.argsort(values, axis=-1, kind="stable")  # tied values keep row order
    ys = target[rows]
    # by rank: each column's values and targets in its sorted order, and each
    # position's rank there
    by_rank = np.take_along_axis(values, order, -1), ys[np.arange(m)[:, None, None], order]
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(width), -1)
    # a pending node's rows are one run of ``runs``, which holds each lane's
    # positions with every node's rows together, in row order
    runs = np.broadcast_to(np.arange(width), (m, width)).copy()
    held_slot = np.zeros(m, dtype=np.intp)  # the held-out row's stack slot; -1 once in its leaf
    reached = np.zeros(m, dtype=np.intp if n_classes else np.float64)
    # a lane grows only its row's path, unless node draws (which follow the
    # preorder) need every node before its row's leaf
    whole = n_candidates is not None

    # Each lane's stack of pending nodes, its top slot the next node: where
    # the node's run starts, its row count, and whether its targets all agree.
    start = np.zeros((m, width + 1), dtype=np.intp)
    counts = np.zeros((m, width + 1), dtype=np.intp)
    pures = np.zeros((m, width + 1), dtype=bool)
    counts[:, 0] = size
    pures[:, 0] = ~(in_lane & (ys != ys[:, :1])).any(axis=1)
    depth = np.ones(m, dtype=np.intp)
    while (live := np.flatnonzero(depth)).size:
        top = depth[live] - 1
        lo, count, pure = start[live, top], counts[live, top], pures[live, top]
        small = count < 2 * min_leaf
        feature = np.full(live.size, -1)
        threshold = np.zeros(live.size)
        if (scanned := np.flatnonzero(~small & ~pure)).size:
            lane = live[scanned]
            if n_candidates is None:
                cand = np.broadcast_to(np.arange(p), (lane.size, p))
            else:  # each lane's own stream, at its own node
                cand = words.candidates(lane, p, n_candidates)
            feature[scanned], threshold[scanned] = _best_splits(
                by_rank, rank, runs, lane, lo[scanned], count[scanned], cand,
                n_classes, min_leaf)

        split = feature >= 0
        here = held_slot[live] == top  # the held-out row is at this node
        if (ends := np.flatnonzero(here & ~split)).size:  # and this node is its leaf
            reached[live[ends]] = _leaf_values(runs, ys, live[ends], lo[ends], count[ends],
                                               pure[ends], small[ends], n_classes)
            held_slot[live[ends]] = -1

        if (cut := np.flatnonzero(split)).size:  # ties go left; the left child goes on top
            lane, t, lo, count = live[cut], top[cut], lo[cut], count[cut]
            n_left, pure_left, pure_right = _partition(
                values, runs, ys, lane, lo, count, feature[cut], threshold[cut])
            sides = ((lo, n_left, pure_left), (lo + n_left, count - n_left, pure_right))
            # A lane keeps no child that is a leaf: it takes the leaf's value
            # at once if its row goes there. A path lane keeps only the side
            # its row goes to.
            left = X[held[lane], feature[cut]] <= threshold[cut]
            goes = (left, ~left)
            kept = []
            for (first, n, pure_side), go in zip(sides, goes):
                leafy = (n < 2 * min_leaf) | pure_side
                kept.append(~leafy & (whole | go))
                if (at := np.flatnonzero(here[cut] & go & leafy)).size:
                    reached[lane[at]] = _leaf_values(runs, ys, lane[at], first[at], n[at],
                                                     pure_side[at], n[at] < 2 * min_leaf,
                                                     n_classes)
                    held_slot[lane[at]] = -1
            moves = here[cut] & ((goes[0] & kept[0]) | (goes[1] & kept[1]))
            held_slot[lane[moves]] = t[moves] + (goes[0] & kept[1])[moves]
            # the right child (when kept) below the left one
            slot = t.copy()
            for (first, n, pure_side), keep in zip(sides[::-1], kept[::-1]):
                start[lane[keep], slot[keep]] = first[keep]
                counts[lane[keep], slot[keep]] = n[keep]
                pures[lane[keep], slot[keep]] = pure_side[keep]
                slot += keep
            depth[live[cut]] = slot
        depth[live[~split]] = top[~split]
        depth[held_slot < 0] = 0  # a lane whose row is in its leaf is done
    return reached.tolist()


def _best_splits(by_rank, rank, runs, lane, lo, count, cand, n_classes, min_leaf):
    """(feature, threshold) of the best split of each scanned node; -1 for none.

    Node i belongs to lane ``lane[i]``, holds the ``count[i]`` rows of the
    run of ``runs`` starting at ``lo[i]`` and may split on the columns
    ``cand[i]``, in ascending order. ``by_rank`` holds each column's values
    and targets in sorted order, ``rank`` each row's place there.
    ``n_classes`` is the class count, 0 for a numeric target. Nodes go to
    ``_scan`` in groups of similar size (``_groups``), each padded only to
    its own widest node.
    """
    by = np.argsort(count, kind="stable")
    lane, lo, count, cand = lane[by], lo[by], count[by], cand[by]
    width = runs.shape[-1]
    n_cand = cand.shape[1]
    column = (lane[:, None] * rank.shape[1] + cand)[:, :, None] * width  # (node, candidate)
    gain, thr = np.empty(cand.shape), np.empty(cand.shape)
    for a, z in _groups(count, n_cand):
        r = np.arange(count[z - 1])
        rows = runs.take((lane[a:z] * width + lo[a:z])[:, None] + r, mode="clip")
        # the node's rows by value: their ranks, sorted, padding last
        at = np.where(r < count[a:z, None, None], rank.take(column[a:z] + rows[:, None, :]),
                      width - 1)
        at = column[a:z] + np.sort(at, axis=-1)
        xs, sorted_ys = by_rank[0].take(at), by_rank[1].take(at)
        gain[a:z], thr[a:z] = _scan(xs, sorted_ys, count[a:z, None, None], min_leaf, n_classes)

    best = np.full(lane.size, -np.inf)
    pick = np.full(lane.size, -1)
    for c in range(n_cand):  # ascending column: ties keep the lowest
        better = gain[:, c] > best + GAIN_TOL
        best = np.where(better, gain[:, c], best)
        pick = np.where(better, c, pick)
    # impure nodes split on the best candidate even at zero gain (standard
    # CART behavior; greedy XOR-style structure resolves on the next level)
    ok = np.flatnonzero((pick >= 0) & ~(best < -1e-9))
    feature = np.full(lane.size, -1)
    threshold = np.zeros(lane.size)
    feature[by[ok]] = cand[ok, pick[ok]]
    threshold[by[ok]] = thr[ok, pick[ok]]
    return feature, threshold


def _partition(values, runs, ys, lane, lo, count, feature, threshold):
    """Split each node's run of ``runs`` into its left rows and then its
    right rows, each side in row order.

    A row goes left when its value in ``feature`` is at most ``threshold``.
    Returns the left row counts and whether each side's targets all agree.
    """
    p, width = values.shape[1:]
    flat = runs.reshape(-1)
    by = np.argsort(count, kind="stable")
    n_left = np.empty(lane.size, dtype=np.intp)
    pure_left = np.empty(lane.size, dtype=bool)
    pure_right = np.empty(lane.size, dtype=bool)
    for a, z in _groups(count[by], 1):
        g = by[a:z]
        r = np.arange(count[g[-1]])
        inside = r < count[g, None]
        at = (lane[g] * width + lo[g])[:, None]  # where each run starts
        pos = flat.take(at + r, mode="clip")
        left = inside & (values.take(((lane[g] * p + feature[g]) * width)[:, None] + pos)
                         <= threshold[g, None])
        right = inside & ~left
        before = np.cumsum(left, axis=1)  # left rows up to each place
        n_left[g] = before[:, -1]
        flat[(at + np.where(left, before - 1, n_left[g, None] + r - before))[inside]] = pos[inside]
        node_ys = ys.take(lane[g, None] * width + pos)
        for side, pure in ((left, pure_left), (right, pure_right)):
            pure[g] = (np.where(side, node_ys, np.inf).min(axis=1)
                       == np.where(side, node_ys, -np.inf).max(axis=1))
    return n_left, pure_left, pure_right


def _leaf_values(runs, ys, lane, lo, count, pure, small, n_labels):
    """Each node's leaf: with ``n_labels``, the label code most of its rows
    have (a tie goes to the first label), else its first row's target when
    it is pure and not small, else the mean of its targets in row order."""
    width = runs.shape[-1]
    r = np.arange(count.max())
    at = lane[:, None] * width  # each node's lane in the (lane, position) arrays
    pos = runs.take(at + np.minimum(lo[:, None] + r, width - 1))
    node_ys = ys.take(at + pos)
    if n_labels:
        votes = (r < count[:, None])[:, None, :] & (node_ys[:, None, :]
                                                    == np.arange(n_labels)[:, None])
        return np.argmax(votes.sum(axis=2), axis=1)
    leaf = node_ys[:, 0].copy()
    averaged = np.flatnonzero(small | ~pure)
    for c in np.unique(count[averaged]):  # one row per leaf, as np.mean(1-D) sums it
        g = averaged[count[averaged] == c]
        leaf[g] = np.mean(np.ascontiguousarray(node_ys[g, :c]), axis=1)
    return leaf


def _groups(count: np.ndarray, cells: int) -> list[tuple[int, int]]:
    """The ranges of nodes (``count`` ascending) that go through one padded
    pass together, a node taking ``cells`` cells per row.

    Nodes of 2^(b-1)+1 to 2^b rows form bucket b. Going down from the
    widest, the nodes below a bucket start a pass of their own only when
    that spares more than ``PASS_CELLS`` padded cells.
    """
    starts = np.flatnonzero(np.diff(np.frexp(count - 1)[1])) + 1
    groups, z = [], len(count)
    for a in starts[::-1]:
        if a * cells * (count[z - 1] - count[a - 1]) > PASS_CELLS:
            groups.append((a, z))
            z = a
    groups.append((0, z))
    return groups


def check_complete(X, y) -> tuple[np.ndarray, list[str], np.ndarray]:
    """``(X, classes, target)``: ``X`` as a float matrix and ``y`` coded
    (``code_target``), once they are known to train a model: ``X`` is 2-D
    and misses no cell, a numeric ``y`` holds no missing or infinite value,
    and class labels number at most two. Else raises ``PhonassessError``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise PhonassessError("X must be 2-D")
    if np.isnan(X).any():
        raise PhonassessError("matrix contains missing values; drop rows first")
    classes, target = code_target(y)
    if not classes and not np.isfinite(target).all():
        raise PhonassessError("target contains missing or infinite values; drop rows first")
    if len(classes) > 2:
        raise PhonassessError(f"trees classify two labels, got {len(classes)}")
    return X, classes, target


@dataclass
class LearnerSpec:
    """What to train inside the wrapper and the final evaluation.

    Its methods take the target as ``check_complete`` codes it
    (``code_target``, the one coder). A CART regresses a numeric target and
    classifies class codes; a forest classifies only and refuses a numeric
    target (``refuse``). A forest's trees grow to purity (``min_leaf`` 1) on
    bootstrap samples with sqrt(p) candidate columns per node. ``min_leaf``
    applies to a single CART only; ``seed`` is the leave-one-out seed.
    """

    kind: str = "cart"             # "cart" | "forest"
    n_trees: int = N_TREES_DEFAULT
    min_leaf: int = MIN_LEAF_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cart", "forest"):
            raise PhonassessError(f"kind must be 'cart' or 'forest', got {self.kind!r}")
        if self.n_trees < 1:
            raise PhonassessError(f"n_trees must be at least 1, got {self.n_trees}")

    def lanes(self, target: np.ndarray, rows: np.ndarray, seed: int) -> list:
        """The lanes of one model trained on the rows ``rows`` of a complete
        matrix and its coded target ``target`` (``check_complete``).

        Raises ``PhonassessError`` when those rows cannot train the model:
        there are none, or a forest's rows hold one class only.
        """
        if len(rows) < 1:
            raise PhonassessError("empty training set")
        if self.kind == "cart":
            return [(rows, None)]
        if (target[rows] == target[rows[0]]).all():
            raise PhonassessError("need at least two classes to train a forest")
        return [(rows, (seed, tree)) for tree in range(self.n_trees)]

    def refuse(self, classes: list[str]) -> None:
        """Raises ``PhonassessError`` for a forest given a numeric target (no
        ``classes``): the one place a forest refuses it, called once a target
        is coded, before anything is trained (``_train``, ``loo_validate``)."""
        if self.kind == "forest" and not classes:
            raise PhonassessError("a forest classifies class labels, got a numeric target")

    def route(self, X, classes: list[str], target, lanes, held_out, proceed=None):
        """The leaf each of ``lanes`` sends its row ``X[held_out[i]]`` to, in
        order: its value, a class code for class labels. ``X``, ``classes``
        and ``target`` are what ``check_complete`` returns, for a learner that
        takes them (``refuse``); the held-out rows must miss no value. The
        lanes grow lazily, a batch at a time; ``proceed`` (see ``_grow``) may
        end them between two batches."""
        grower = ((self.min_leaf, None) if self.kind == "cart"
                  else (1, max(1, int(np.sqrt(X.shape[1])))))
        return _grow(X, target, len(classes), *grower, lanes,
                     np.asarray(held_out, dtype=np.intp), proceed)

    def vote(self, leaves):
        """One row's prediction from the next leaves ``route`` yields for it:
        a CART's leaf, or the class code most of a forest's trees reach
        (``_majority``)."""
        reached = list(islice(leaves, self.n_trees if self.kind == "forest" else 1))
        return _majority(reached) if self.kind == "forest" else reached[0]


def _majority(codes: list[int]) -> int:
    """The code most of ``codes`` are; a tie goes to the smallest (its label sorts first)."""
    return max(sorted(set(codes)), key=codes.count)  # max keeps the first best


@dataclass(eq=False)
class Model:
    """A learner and the complete, coded rows it trains on; ``predict`` grows
    its trees again for every row it routes."""

    spec: LearnerSpec
    X: np.ndarray
    classes: list[str]
    target: np.ndarray
    trees: list  # the learner's lanes on every row, one per tree


def _train(spec: LearnerSpec, X, y, seed: int) -> Model:
    X, classes, target = check_complete(X, y)
    spec.refuse(classes)
    return Model(spec, X, classes, target, spec.lanes(target, np.arange(len(X)), seed))


def train_cart(X, y, min_leaf: int = MIN_LEAF_DEFAULT) -> Model:
    """Greedy binary CART: variance reduction and mean leaves for a numeric
    ``y``, Gini decrease and majority leaves for class labels (two at most)."""
    return _train(LearnerSpec(kind="cart", min_leaf=min_leaf), X, y, 0)


def train_forest(X, y, n_trees: int = N_TREES_DEFAULT, seed: int = 0) -> Model:
    """Bagged classification CARTs, sqrt(p) candidate features per node.

    ``y`` holds class labels, two at most; a numeric ``y`` raises here
    (``LearnerSpec.refuse``). Tree t draws from the stream
    ``SeedSequence(seed).spawn(n_trees)[t]``. Trees grow to purity
    (``min_leaf=1``) on a bootstrap sample.
    """
    return _train(LearnerSpec(kind="forest", n_trees=n_trees), X, y, seed)


def predict(model: Model, row):
    """What ``model`` predicts for ``row``: its CART's leaf, or the label most
    of its forest's trees reach (a tie goes to the lexicographically
    smallest). The row is routed as a leave-one-out fold routes its held-out
    row: it goes in as row n after the model's n training rows, with a
    target that is never read. A row with a missing value raises
    ``PhonassessError``."""
    row = np.asarray(row, dtype=np.float64)
    if np.isnan(row).any():
        raise PhonassessError("row has a missing value; a model routes complete rows only")
    X = np.vstack([model.X, row])
    target = np.append(model.target, model.target[:1])
    held = np.full(len(model.trees), len(model.X))
    leaf = model.spec.vote(model.spec.route(X, model.classes, target, model.trees, held))
    return model.classes[leaf] if model.classes else leaf
