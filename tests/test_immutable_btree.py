"""Unit tests for the immutable (CSS-style) B+-Tree."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.immutable_btree import _WALK, ImmutableBTree


def _make(n, fanout=8, seed=0, key_space=10**6):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, key_space, n))
    poss = rng.permutation(n) + 1
    return ImmutableBTree(keys, poss, fanout), keys, poss


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 5000])
@pytest.mark.parametrize("fanout", [4, 8, 32])
def test_build_and_len(n, fanout):
    t, keys, _ = _make(n, fanout)
    assert len(t) == n
    if n:
        assert t.height >= 1
        # level sizes shrink by ~fanout
        for a, b in zip(t.levels, t.levels[1:]):
            assert len(a) <= len(b)


def test_rejects_unsorted_keys():
    with pytest.raises(ValueError):
        ImmutableBTree(np.array([3, 1, 2]), np.array([1, 2, 3]))


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ImmutableBTree(np.array([1, 2]), np.array([1]))


@pytest.mark.parametrize("fanout", [4, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_start_equals_searchsorted(fanout, seed):
    t, keys, _ = _make(2000, fanout, seed)
    rng = np.random.default_rng(seed + 10)
    probes = np.concatenate(
        [rng.integers(-10, 10**6 + 10, 200), keys[rng.integers(0, 2000, 50)]]
    )
    for lo in probes:
        assert t.find_start(int(lo)) == int(np.searchsorted(keys, lo, "left"))


@pytest.mark.parametrize("n", [1, 100, 4096])
def test_search_range_matches_mask(n):
    t, keys, poss = _make(n, 8, seed=3)
    rng = np.random.default_rng(42)
    for _ in range(50):
        lo = int(rng.integers(-5, 10**6))
        hi = lo + int(rng.integers(0, 10**5))
        m = (keys >= lo) & (keys <= hi)
        assert t.search_range(lo, hi) == list(zip(keys[m].tolist(), poss[m].tolist()))


def test_search_range_min_pos_filter():
    keys = np.arange(100)
    poss = np.arange(1, 101)
    t = ImmutableBTree(keys, poss, 8)
    got = t.search_range(0, 99, min_pos=51)
    assert min(p for _, p in got) == 51 and len(got) == 50


def test_empty_tree():
    t = ImmutableBTree.empty()
    assert len(t) == 0
    assert t.height == 0
    assert t.search_range(0, 100) == []
    assert t.find_start(5) == 0
    assert len(t.partition_bounds(2)) == 0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_route_consistent_with_partition_bounds(depth):
    t, keys, _ = _make(5000, 8, seed=4)
    bounds = t.partition_bounds(depth)
    n_nodes = len(bounds)
    # One bound per depth-``depth`` node, each covering f^(height-depth)
    # elements.
    assert n_nodes == -(-5000 // 8 ** (t.height - depth))
    rng = np.random.default_rng(9)
    for key in rng.integers(-5, 10**6 + 5, 300):
        i = t.route(int(key), depth)
        j = int(np.searchsorted(bounds, key, "left"))
        assert i == min(j, n_nodes - 1)


def test_route_partitions_cover_all_elements():
    """Every element routed to node i at depth d lies within bounds[i]."""
    t, keys, _ = _make(3000, 8, seed=5)
    for depth in (1, 2):
        bounds = t.partition_bounds(depth)
        for k in keys[::37]:
            i = t.route(int(k), depth)
            assert k <= bounds[i] or i == len(bounds) - 1


def test_partition_bounds_grow_with_depth():
    t, _, _ = _make(10000, 8)
    counts = [len(t.partition_bounds(d)) for d in range(1, t.height)]
    assert counts[-1] == -(-10000 // 8)  # the leaf chunks
    assert all(a < b for a, b in zip(counts, counts[1:]))
    # Past the deepest inner level, the bounds stay the leaf chunks'.
    assert len(t.partition_bounds(t.height + 2)) == counts[-1]


def test_higher_fanout_gives_shallower_tree():
    t8, _, _ = _make(20000, 8)
    t32, _, _ = _make(20000, 32)
    assert t32.height < t8.height


def test_memory_bytes_accounts_elements_and_inner():
    t, _, _ = _make(4096, 8)
    assert t.memory_bytes() > 4096 * 8
    assert t.memory_bytes() < 4096 * 8 * 2


@pytest.mark.parametrize("length", [0, 1, _WALK - 1, _WALK, _WALK + 1, _WALK + 2, 3 * _WALK])
@pytest.mark.parametrize("first", [0, 7, 90])
def test_scan_band_lengths_around_walk_bound(length, first):
    """Bands just below, at and just above the walked length, from the
    start, the middle and near the end of the array, return exactly their
    live elements and charge 8 B per element in the band."""
    keys = np.arange(0, 200, 2)
    poss = np.arange(1, 101)
    t = ImmutableBTree(keys, poss, 4)
    lo = 2 * first
    hi = lo + 2 * length - 1
    in_band = [(k, p) for k, p in zip(keys.tolist(), poss.tolist()) if lo <= k <= hi]
    start = t.find_start(lo)
    before = t.bytes_loaded
    assert t.scan(start, hi, 50) == [(k, p) for k, p in in_band if p >= 50]
    assert t.bytes_loaded - before == 8 * len(in_band)


def test_duplicate_keys_all_returned():
    keys = np.array([5] * 50 + [7] * 30)
    poss = np.arange(1, 81)
    t = ImmutableBTree(np.sort(keys), poss, 4)
    assert len(t.search_range(5, 5)) == 50
    assert len(t.search_range(5, 7)) == 80


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(0, 1000), min_size=1, max_size=500),
    lo=st.integers(-10, 1100),
    width=st.integers(0, 400),
)
def test_property_search_range(data, lo, width):
    keys = np.sort(np.asarray(data, np.int64))
    poss = np.arange(1, len(keys) + 1)
    t = ImmutableBTree(keys, poss, 4)
    hi = lo + width
    got = t.search_range(lo, hi)
    assert [k for k, _ in got] == [x for x in keys.tolist() if lo <= x <= hi]


@settings(max_examples=60)
@given(
    data=st.lists(st.integers(0, 60), max_size=300),
    fanout=st.sampled_from([2, 4, 32]),
    probes=st.lists(
        st.tuples(st.integers(-5, 70), st.integers(-10, 80), st.integers(-1, 320)),
        min_size=1,
        max_size=20,
    ),
)
def test_property_search_range_pairs_and_bytes(data, fanout, probes):
    """The ``(key, pos)`` pairs equal a numpy-mask brute force (duplicate
    keys, empty trees, empty ``hi < lo`` ranges, ``min_pos`` filtering,
    bands both within and far beyond the walked length ``_WALK``, up to
    the whole array), and each call charges one descent,
    ``(height + 1) * fanout * 4`` B on a non-empty tree, plus 8 B per
    element in ``[lo, hi]`` (expired ones included): the T16 bandwidth
    model."""
    keys = np.sort(np.asarray(data, np.int64))
    poss = np.random.default_rng(len(data)).permutation(len(keys)) + 1
    t = ImmutableBTree(keys, poss, fanout)
    descent = (t.height + 1) * fanout * 4 if len(keys) else 0
    whole = [(-1, 62, min_pos) for _, _, min_pos in probes[:1]]
    for lo, width, min_pos in probes + whole:
        hi = lo + width
        in_range = (keys >= lo) & (keys <= hi)
        live = in_range & (poss >= min_pos)
        before = t.bytes_loaded
        got = t.search_range(lo, hi, min_pos)
        assert got == list(zip(keys[live].tolist(), poss[live].tolist()))
        assert t.bytes_loaded - before == descent + 8 * int(in_range.sum())
        before = t.bytes_loaded
        assert t.scan(t.find_start(lo), hi, min_pos) == got
        assert t.bytes_loaded - before == descent + 8 * int(in_range.sum())
