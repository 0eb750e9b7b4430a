"""The forests' raw-word draws against numpy's own ``Generator`` draws.

A forest tree draws its bootstrap as ``rng.integers(0, n, size=n)`` and
each node's candidate columns as ``np.sort(rng.choice(p, k,
replace=False))`` on its spawned stream; ``models`` makes both from the
stream's raw 32-bit words instead. ``ref_*`` below transliterate numpy's C
(Lemire's bounded draw, Floyd's sampling and the shuffle after it) one word
at a time. They are checked against numpy on real streams, including states
that hold a buffered 32-bit half, and then serve as the oracle for words
that force Lemire's redraw, which real streams almost never do.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phonassess.models as models


# ---- reference: numpy's draws, one word at a time ----------------------

def ref_bounded(words, at, rng_excl):
    """numpy's ``buffered_bounded_lemire_uint32`` for [0, rng_excl); (value, next word)."""
    if rng_excl == 1:  # random_bounded_uint64 returns off without a draw
        return 0, at
    m = int(words[at]) * rng_excl
    at += 1
    leftover = m & 0xFFFFFFFF
    if leftover < rng_excl:
        threshold = (0xFFFFFFFF - (rng_excl - 1)) % rng_excl
        while leftover < threshold:
            m = int(words[at]) * rng_excl
            at += 1
            leftover = m & 0xFFFFFFFF
    return m >> 32, at


def ref_integers(words, at, n):
    """``rng.integers(0, n, size=n)``."""
    out = []
    for _ in range(n):
        value, at = ref_bounded(words, at, n)
        out.append(value)
    return out, at


def ref_choice(words, at, p, k):
    """``rng.choice(p, k, replace=False)``: Floyd's algorithm, then the shuffle."""
    picked, idx = set(), []
    for j in range(p - k, p):
        value, at = ref_bounded(words, at, j + 1)
        value = j if value in picked else value
        picked.add(value)
        idx.append(value)
    for i in range(k - 1, 0, -1):
        j, at = ref_bounded(words, at, i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx, at


def stream_words(bit_generator, count):
    """The next ``count`` or more words the generator's bounded draws read,
    without advancing it: a buffered half first, then each output's low
    and high halves."""
    copy = np.random.PCG64()
    copy.state = bit_generator.state
    state = copy.state
    head = [state["uinteger"]] if state["has_uint32"] else []
    raw = copy.random_raw(count // 2 + 1).tolist()
    return np.array(head + [half for r in raw for half in (r & 0xFFFFFFFF, r >> 32)],
                    dtype=np.uint64)


def spawned(seed, tree):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(tree + 1)[tree])


# ---- the reference is numpy ------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 600), st.integers(1, 133),
       st.integers(1, 20), st.data(), st.integers(0, 2**32 - 1) | st.none())
def test_reference_matches_numpy(seed, tree, n, p, data, buffered):
    rng = spawned(seed, tree)
    if buffered is not None:  # a state holding the high half of its last output
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        rng.bit_generator.state = state
    ks = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=8))
    words = stream_words(rng.bit_generator, n + 2 * sum(ks) + 8)
    boot, at = ref_integers(words, 0, n)
    assert boot == rng.integers(0, n, size=n).tolist()
    for k in ks:
        picks, at = ref_choice(words, at, p, k)
        assert picks == rng.choice(p, k, replace=False).tolist()


# ---- the raw-word draws are the reference -----------------------------------

class FixedWords:
    """A stand-in for the stream memo: given words per (seed, tree)."""

    def __init__(self, words):
        self._words = words

    def words(self, seed, tree, count):
        words = self._words[(seed, tree)]
        assert count <= 2 * len(words), "the test gave too few words"
        return words


def rejecting_words(draw, size):
    """Random words, many of them 0, which makes Lemire's draw reject for
    every bound but a power of two; every fourth word is 2**32 - 1, which
    every bound keeps, so that no draw reads more than four."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, 2**32, size, dtype=np.uint32)
    words[rng.random(size) < draw(st.sampled_from([0.02, 0.3, 0.7]))] = 0
    words[3::4] = 2**32 - 1
    return words


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60), st.integers(2, 20), st.integers(1, 6), st.integers(0, 50), st.data())
def test_draws_with_redraws_match_reference(n, p, n_trees, seed, data):
    k = max(1, int(np.sqrt(p)))
    nodes = data.draw(st.lists(st.lists(st.integers(0, n_trees - 1), unique=True, min_size=1),
                               max_size=6))
    size = 4 * (n + (2 * k - 1) * len(nodes)) + models.SPARE_WORDS
    words = {(seed, t): rejecting_words(data.draw, size) for t in range(n_trees)}
    memo = FixedWords(words)
    rows = np.arange(100, 100 + n)

    original = models._STREAMS
    models._STREAMS = memo
    try:
        lanes = models._bootstrap_lanes(rows, n_trees, seed, 2 * k - 1)
        drawn = models._LaneWords([stream for _, stream in lanes])
        got = [drawn.candidates(np.array(step), p, k) for step in nodes]
    finally:
        models._STREAMS = original

    at = {}
    for t, (boot, stream) in enumerate(lanes):
        want, at[t] = ref_integers(words[(seed, t)], 0, n)
        assert boot.tolist() == (rows[want]).tolist()
        assert stream.start == at[t]
    for step, cand in zip(nodes, got):
        for t, row in zip(step, cand):
            want, at[t] = ref_choice(words[(seed, t)], at[t], p, k)
            assert row.tolist() == sorted(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 133), st.integers(2, 20), st.integers(1, 12),
       st.data())
def test_lanes_match_numpy_streams(seed, n, p, n_trees, data):
    """Bootstraps and candidates from the stream memo equal numpy's draws on
    ``SeedSequence(seed).spawn(n_trees)``, node after node, for any lanes."""
    k = max(1, int(np.sqrt(p)))
    rows = np.arange(n) * 3
    lanes = models._bootstrap_lanes(rows, n_trees, seed, 2 * k - 1)
    drawn = models._LaneWords([stream for _, stream in lanes])
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    for (boot, _), rng in zip(lanes, rngs):
        assert boot.tolist() == rows[rng.integers(0, n, size=n)].tolist()
    # more nodes than the memo's first words cover, so lanes read on
    for _ in range(data.draw(st.integers(1, 120))):
        step = np.array(data.draw(st.lists(st.integers(0, n_trees - 1), unique=True, min_size=1)))
        got = drawn.candidates(step, p, k)
        want = [np.sort(rngs[t].choice(p, k, replace=False)) for t in step]
        assert got.tolist() == np.array(want).tolist()


def test_memo_holds_words_of_spawned_streams_within_its_bound():
    entry = 20 * 4 + models.STREAM_ENTRY_BYTES  # 20 words of one stream
    memo = models._StreamMemo(limit=3 * entry)
    for tree in range(5):
        words = memo.words(7, tree, 20)
        assert words.tolist() == stream_words(spawned(7, tree).bit_generator, 20)[:20].tolist()
        assert memo.nbytes <= memo.limit
    assert memo.nbytes == 3 * entry  # trees 3 and 4 did not fit
    kept = memo.words(7, 0, 10)
    assert kept is memo.words(7, 0, 20)  # read once
    longer = memo.words(7, 0, 30)  # read on, not kept: the memo is full
    assert longer[:20].tolist() == kept.tolist()
    assert memo.words(7, 0, 20) is kept and memo.nbytes == 3 * entry


@pytest.mark.parametrize("p", [2, 5, 20, 1850])
def test_choice_bounds_take_floyds_path(p):
    k = max(1, int(np.sqrt(p)))
    assert not (p > 10000 and k > p // 50)  # numpy's tail-shuffle branch
    bounds = models._choice_bounds(p, k)
    assert bounds.tolist() == list(range(p - k + 1, p + 1)) + list(range(k, 1, -1))
