"""Unit tests for the mutable B+-Tree against a sorted-list reference."""
import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bplus_tree import BPlusTree


def _ref_range(ref, lo, hi, min_pos=-1):
    return [(k, p) for k, p in ref if lo <= k <= hi and p >= min_pos]


def _items(t):
    """All elements of ``t`` in key order, as ``(key, pos)`` pairs."""
    ka, pa = t.items_arrays()
    return list(zip(ka.tolist(), pa.tolist()))


@pytest.mark.parametrize("fanout", [4, 8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_insert_and_items_sorted(fanout, seed):
    rng = np.random.default_rng(seed)
    t = BPlusTree(fanout)
    ref = []
    for i, k in enumerate(rng.integers(0, 500, 2000), 1):
        t.insert(int(k), i)
        ref.append((int(k), i))
    assert len(t) == 2000
    got = _items(t)
    assert [k for k, _ in got] == sorted(k for k, _ in ref)
    assert sorted(got) == sorted(ref)


@pytest.mark.parametrize("fanout", [4, 16])
@pytest.mark.parametrize("span", [(0, 0), (10, 20), (-5, 1000), (499, 499)])
def test_search_range_matches_reference(fanout, span):
    rng = np.random.default_rng(2)
    t = BPlusTree(fanout)
    ref = sorted(
        (int(k), i) for i, k in enumerate(rng.integers(0, 500, 3000), 1)
    )
    for k, p in ref:
        t.insert(k, p)
    lo, hi = span
    assert sorted(t.search_range(lo, hi)) == sorted(_ref_range(ref, lo, hi))


def test_search_range_min_pos_filters_expired():
    t = BPlusTree(8)
    for p in range(1, 101):
        t.insert(p % 10, p)
    got = t.search_range(0, 9, min_pos=60)
    assert all(p >= 60 for _, p in got)
    assert len(got) == 41


@pytest.mark.parametrize("fanout", [4, 8, 16])
def test_delete_exact_element(fanout):
    rng = np.random.default_rng(3)
    t = BPlusTree(fanout)
    ref = [(int(k), i) for i, k in enumerate(rng.integers(0, 200, 1500), 1)]
    for k, p in ref:
        t.insert(k, p)
    victims = ref[::3]
    for k, p in victims:
        assert t.delete(k, p)
    remaining = sorted(set(ref) - set(victims))
    assert sorted(_items(t)) == remaining
    assert len(t) == len(remaining)


def test_delete_absent_returns_false():
    t = BPlusTree(4)
    t.insert(5, 1)
    assert not t.delete(5, 2)  # right key, wrong pos
    assert not t.delete(6, 1)  # absent key
    assert not t.delete(4, 1)  # absent smaller key
    assert len(t) == 1


def test_delete_duplicate_keys_across_leaves():
    t = BPlusTree(4)
    for p in range(1, 40):
        t.insert(7, p)  # one key, many positions -> spans several leaves
    for p in range(1, 40, 2):
        assert t.delete(7, p)
    assert sorted(p for _, p in _items(t)) == list(range(2, 40, 2))


def test_fifo_window_churn_stays_consistent():
    """Sliding-window usage: insert pos p, delete pos p-w, forever."""
    rng = np.random.default_rng(4)
    w = 200
    t = BPlusTree(8)
    ring = {}
    for p in range(1, 3001):
        k = int(rng.integers(0, 1000))
        if p > w:
            assert t.delete(ring.pop(p - w), p - w)
        t.insert(k, p)
        ring[p] = k
        assert len(t) == min(p, w)
    assert sorted(_items(t)) == sorted((k, p) for p, k in ring.items())


def test_height_grows_logarithmically():
    t = BPlusTree(8)
    heights = []
    for p in range(1, 4097):
        t.insert(p, p)
        if p in (8, 64, 512, 4096):
            heights.append(t.height)
    assert heights == sorted(heights)
    assert t.height <= 6  # log_4(4096) bound for half-full splits


def test_seek_scan_equals_search_range():
    rng = np.random.default_rng(5)
    t = BPlusTree(8)
    for i, k in enumerate(rng.integers(0, 300, 1000), 1):
        t.insert(int(k), i)
    leaf, i = t.seek(50)
    assert t.scan(leaf, i, 99) == t.search_range(50, 99)


def test_seek_past_end():
    t = BPlusTree(4)
    for p in range(1, 20):
        t.insert(p, p)
    leaf, i = t.seek(1000)
    assert t.scan(leaf, i, 2000) == []


def test_empty_tree_operations():
    t = BPlusTree(4)
    assert len(t) == 0
    assert t.search_range(0, 100) == []
    assert not t.delete(1, 1)
    assert _items(t) == []
    assert t.height == 1


def test_memory_bytes_tracks_size():
    t = BPlusTree(16)
    m0 = t.memory_bytes()
    for p in range(1, 1001):
        t.insert(p, p)
    assert t.memory_bytes() > m0 + 1000 * 8 * 0.9


def test_items_arrays_matches_items():
    """The bulk extraction equals the full-range leaf walk of a probe."""
    rng = np.random.default_rng(6)
    t = BPlusTree(8)
    keys = rng.integers(0, 100, 500).tolist()
    for i, k in enumerate(keys, 1):
        t.insert(k, i)
    ka, pa = t.items_arrays()
    full = t.search_range(min(keys), max(keys))
    assert len(full) == len(t) == 500
    assert list(zip(ka.tolist(), pa.tolist())) == full
    assert list(ka) == sorted(ka)


def test_items_arrays_of_many_trees_concatenates():
    """``items_arrays(*more)`` walks every tree in one pass; the result is
    the concatenation of the per-tree arrays, with empty trees, trees
    several levels deep, and a duplicate-key run across leaf boundaries."""
    rng = np.random.default_rng(7)
    empty = BPlusTree(4)
    deep = BPlusTree(4)
    for i, k in enumerate(rng.integers(0, 10**6, 3000), 1):
        deep.insert(int(k), i)
    dups = BPlusTree(4)
    for i in range(1, 41):
        dups.insert(100 + (i % 3 == 0), i)  # a 27-element run of key 100
    single = BPlusTree(8)
    single.insert(5, 1)
    assert deep.height >= 4 and dups.height >= 2
    trees = [empty, deep, BPlusTree(16), dups, single]
    ka, pa = trees[0].items_arrays(*trees[1:])
    parts = [t.items_arrays() for t in trees]
    assert ka.dtype == pa.dtype == np.int64
    assert ka.tolist() == np.concatenate([k for k, _ in parts]).tolist()
    assert pa.tolist() == np.concatenate([p for _, p in parts]).tolist()
    assert len(ka) == sum(len(t) for t in trees)
    assert empty.items_arrays(empty)[0].size == 0


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300),
    lo=st.integers(-1100, 1100),
    width=st.integers(0, 500),
)
def test_property_range_search(keys, lo, width):
    t = BPlusTree(4)
    ref = []
    for i, k in enumerate(keys, 1):
        t.insert(k, i)
        ref.append((k, i))
    hi = lo + width
    assert sorted(t.search_range(lo, hi)) == sorted(_ref_range(ref, lo, hi))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=200))
def test_property_insert_delete_interleaved(ops):
    t = BPlusTree(4)
    live: list[tuple[int, int]] = []
    pos = 0
    for k, is_insert in ops:
        if is_insert or not live:
            pos += 1
            t.insert(k, pos)
            bisect.insort(live, (k, pos))
        else:
            victim = live.pop(len(live) // 2)
            assert t.delete(*victim)
    assert sorted(_items(t)) == live


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 40), max_size=300),
    fanout=st.sampled_from([4, 5, 16]),
    n_expired=st.integers(0, 150),
    probes=st.lists(
        st.tuples(st.integers(-5, 50), st.integers(-10, 60), st.integers(-1, 320)),
        min_size=1,
        max_size=20,
    ),
)
def test_property_search_range_pairs_and_bytes(keys, fanout, n_expired, probes):
    """``search_range`` and ``seek`` + ``scan`` equal a numpy-mask brute
    force (multi-leaf trees, duplicate-key runs across leaves, leaves
    emptied by FIFO deletes, ``min_pos``, ``hi < lo``, an empty tree, a
    seek past the end) and charge the T16 bandwidth model exactly: a
    seek loads ``(height - 1) * fanout * 4`` B, and the scan 8 B per
    element from the seek point with key <= hi (expired ones included)."""
    t = BPlusTree(fanout)
    for p, k in enumerate(keys, 1):
        t.insert(k, p)
    n_expired = min(n_expired, len(keys) // 2)
    for p, k in enumerate(keys[:n_expired], 1):
        assert t.delete(k, p)
    ka = np.asarray(keys[n_expired:], np.int64)
    pa = np.arange(n_expired + 1, len(keys) + 1)
    descent = (t.height - 1) * fanout * 4
    for lo, width, min_pos in probes:
        hi = lo + width
        in_range = (ka >= lo) & (ka <= hi)
        live = in_range & (pa >= min_pos)
        want = sorted(zip(ka[live].tolist(), pa[live].tolist()))
        scanned = 8 * int(in_range.sum())
        before = t.bytes_loaded
        got = t.search_range(lo, hi, min_pos)
        assert sorted(got) == want
        assert [k for k, _ in got] == [k for k, _ in want]
        assert t.bytes_loaded - before == descent + scanned
        before = t.bytes_loaded
        leaf, i = t.seek(lo)
        assert t.bytes_loaded - before == descent
        before = t.bytes_loaded
        assert t.scan(leaf, i, hi, min_pos) == got
        assert t.bytes_loaded - before == scanned
