"""Unit tests for the immutable (CSS-style) B+-Tree."""
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import immutable_btree
from repro.core.immutable_btree import _FANOUT, _WALK, ImmutableBTree


def _make(n, seed=0, key_space=10**6):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, key_space, n))
    poss = rng.permutation(n) + 1
    return ImmutableBTree(keys, poss), keys, poss


def _inner_keys(keys, f):
    """The CSS inner key arrays, root level first, built bottom-up as in
    Algorithm 3: a node stores the max key of each of its f children,
    and the leaf chunks are f elements each."""
    if not keys:
        return []
    below = [max(keys[i : i + f]) for i in range(0, len(keys), f)]
    built = [below]
    while len(below) > f:
        below = [max(below[i : i + f]) for i in range(0, len(below), f)]
        built.append(below)
    return built[::-1]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 5000])
@pytest.mark.parametrize("fanout", [4, 8, 32])
def test_build_and_len(n, fanout, monkeypatch):
    """Height, byte model and the bounds at every depth equal those of
    the explicitly built inner key arrays. The layout arithmetic is
    generic in f, and small fan-outs reach deep trees at small n."""
    monkeypatch.setattr(immutable_btree, "_FANOUT", fanout)
    t, keys, _ = _make(n)
    inner = _inner_keys(keys.tolist(), fanout)
    assert len(t) == n
    assert t.height == len(inner) + (1 if n else 0)
    assert t.memory_bytes() == 8 * n + 4 * sum(map(len, inner))
    for depth in range(len(inner) + 3):
        d = min(depth, len(inner))
        assert t.partition_bounds(depth).tolist() == (inner[d - 1] if d else [])


def test_rejects_unsorted_keys():
    with pytest.raises(ValueError):
        ImmutableBTree(np.array([3, 1, 2]), np.array([1, 2, 3]))


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ImmutableBTree(np.array([1, 2]), np.array([1]))


@pytest.mark.parametrize("fanout", [4, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_start_equals_searchsorted(fanout, seed, monkeypatch):
    """The seek is the first key >= lo and charges the descent of the
    layout at that fan-out, ``(height + 1) * f * 4`` B."""
    monkeypatch.setattr(immutable_btree, "_FANOUT", fanout)
    t, keys, _ = _make(2000, seed)
    rng = np.random.default_rng(seed + 10)
    probes = np.concatenate(
        [rng.integers(-10, 10**6 + 10, 200), keys[rng.integers(0, 2000, 50)]]
    )
    for lo in probes:
        before = t.bytes_loaded
        assert t.find_start(int(lo)) == int(np.searchsorted(keys, lo, "left"))
        assert t.bytes_loaded - before == (t.height + 1) * fanout * 4


@pytest.mark.parametrize("n", [1, 100, 4096])
def test_search_range_matches_mask(n):
    t, keys, poss = _make(n, seed=3)
    rng = np.random.default_rng(42)
    for _ in range(50):
        lo = int(rng.integers(-5, 10**6))
        hi = lo + int(rng.integers(0, 10**5))
        m = (keys >= lo) & (keys <= hi)
        assert t.search_range(lo, hi) == list(zip(keys[m].tolist(), poss[m].tolist()))


def test_search_range_min_pos_filter():
    keys = np.arange(100)
    poss = np.arange(1, 101)
    t = ImmutableBTree(keys, poss)
    got = t.search_range(0, 99, min_pos=51)
    assert min(p for _, p in got) == 51 and len(got) == 50


def test_empty_tree():
    t = ImmutableBTree.empty()
    assert len(t) == 0
    assert t.height == 0
    assert t.search_range(0, 100) == []
    assert t.find_start(5) == 0
    assert len(t.partition_bounds(2)) == 0


@pytest.mark.parametrize(
    "n", [0, 1, 31, 32, 33, 1023, 1024, 1025, 32767, 32768, 32769]
)
def test_partition_bounds_are_chunk_maxima(n):
    """At f = 32 and n = f^k - 1, f^k, f^k + 1, the bounds at every depth,
    clamped ones included, are the max keys of consecutive chunks of
    ``f^(L - depth + 1)`` elements, L being the inner levels: the fewest
    (at least one) that leave at most f nodes at the root."""
    t, keys, _ = _make(n, key_space=n + 1)
    n_inner = 1 if n else 0
    while _FANOUT ** (n_inner + 1) < n:
        n_inner += 1
    assert t.height == n_inner + (1 if n else 0)
    for depth in range(n_inner + 3):
        d = min(depth, n_inner)
        size = _FANOUT ** (n_inner - d + 1)
        expect = [int(keys[i : i + size].max()) for i in range(0, n, size)]
        assert t.partition_bounds(depth).tolist() == (expect if d else [])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_route_consistent_with_partition_bounds(depth):
    """Routing a key by one bisect over the depth-``depth`` bounds,
    clamped to the last node (PIM-Tree's rule), picks the node whose
    elements hold the seek's result, duplicate keys included."""
    t, keys, _ = _make(40000, seed=4, key_space=10**5)
    bounds = t.partition_bounds(depth)
    size = _FANOUT ** (t.height - depth)
    rng = np.random.default_rng(9)
    for key in np.concatenate([rng.integers(-5, 10**5 + 5, 300), keys[::97]]):
        i = int(np.searchsorted(bounds, key, "left"))
        assert min(i, len(bounds) - 1) == min(
            t.find_start(int(key)) // size, len(bounds) - 1
        )


def test_route_partitions_cover_all_elements():
    """With distinct keys, routing every element by the bounds gives each
    depth-d node exactly its chunk of consecutive elements."""
    keys = np.arange(0, 6000, 2)
    t = ImmutableBTree(keys, np.arange(1, 3001))
    for depth in (1, 2):
        bounds = t.partition_bounds(depth)
        size = _FANOUT ** (t.height - depth)
        routed = np.minimum(np.searchsorted(bounds, keys, "left"), len(bounds) - 1)
        assert routed.tolist() == [j // size for j in range(len(keys))]


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1023, 1024, 1025, 40000])
@settings(max_examples=8, deadline=None)
@given(
    fanout=st.sampled_from([4, 8, 32]),
    run=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_seek_position_names_the_partition(n, fanout, run, seed):
    """At every depth, up to past the deepest level, the seek's position
    divided by ``partition_span`` and clamped to the last node equals one
    bisect of ``lo`` over the bounds but the last: PIM-Tree's probe and
    insert routes agree. Keys come in runs of about ``run`` equal keys,
    so runs cross chunk borders; probes hit every bound, its neighbours
    and keys beyond both ends."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, max(1, n // run), n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(immutable_btree, "_FANOUT", fanout)
        t = ImmutableBTree(keys, np.arange(1, n + 1))
        for depth in range(t.height + 3):
            bounds = t.partition_bounds(depth).tolist()
            routed = bounds[:-1]
            span = t.partition_span(depth)
            probes = set(keys[:: max(1, n // 500)].tolist()) | {-1, n + 1}
            probes.update(b + d for b in bounds for d in (-1, 0, 1))
            for lo in sorted(probes):
                # len(routed) is len(bounds) - 1, or 0 with no bounds
                assert min(t.find_start(lo) // span, len(routed)) == bisect_left(
                    routed, lo
                )


def test_partition_bounds_grow_with_depth():
    t, _, _ = _make(10000)
    counts = [len(t.partition_bounds(d)) for d in range(1, t.height)]
    assert counts[-1] == -(-10000 // _FANOUT)  # the leaf chunks
    assert all(a < b for a, b in zip(counts, counts[1:]))
    # Past the deepest inner level, the bounds stay the leaf chunks'.
    assert len(t.partition_bounds(t.height + 2)) == counts[-1]


def test_higher_fanout_gives_shallower_tree(monkeypatch):
    monkeypatch.setattr(immutable_btree, "_FANOUT", 8)
    t8, _, _ = _make(20000)
    monkeypatch.undo()
    t32, _, _ = _make(20000)
    assert t32.height < t8.height


def test_memory_bytes_accounts_elements_and_inner():
    t, _, _ = _make(4096)
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
    t = ImmutableBTree(keys, poss)
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
    t = ImmutableBTree(np.sort(keys), poss)
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
    t = ImmutableBTree(keys, poss)
    hi = lo + width
    got = t.search_range(lo, hi)
    assert [k for k, _ in got] == [x for x in keys.tolist() if lo <= x <= hi]


@settings(max_examples=60)
@given(
    data=st.lists(st.integers(0, 60), max_size=300),
    probes=st.lists(
        st.tuples(st.integers(-5, 70), st.integers(-10, 80), st.integers(-1, 320)),
        min_size=1,
        max_size=20,
    ),
)
def test_property_search_range_pairs_and_bytes(data, probes):
    """The ``(key, pos)`` pairs equal a numpy-mask brute force (duplicate
    keys, empty trees, empty ``hi < lo`` ranges, ``min_pos`` filtering,
    bands both within and far beyond the walked length ``_WALK``, up to
    the whole array), and each call charges one descent,
    ``(height + 1) * f * 4`` B on a non-empty tree, plus 8 B per
    element in ``[lo, hi]`` (expired ones included): the T16 bandwidth
    model."""
    keys = np.sort(np.asarray(data, np.int64))
    poss = np.random.default_rng(len(data)).permutation(len(keys)) + 1
    t = ImmutableBTree(keys, poss)
    descent = (t.height + 1) * _FANOUT * 4 if len(keys) else 0
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
