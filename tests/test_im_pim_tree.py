"""Unit tests for IM-Tree and PIM-Tree (merge, routing, expiry, locks).

The IM-Tree is a PIM-Tree at insertion depth 0 without locks."""
import threading
from bisect import bisect_left

import numpy as np
import pytest

from repro.core.bplus_tree import BPlusTree
from repro.core.immutable_btree import _FANOUT
from repro.core.pim_tree import PIMTree, merge_sorted


def im(window, merge_ratio):
    return PIMTree(window, merge_ratio, 0, use_locks=False)


def _churn(tree, n, w, seed=0, key_space=10**6):
    """Insert n tuples with periodic merges; return the live reference."""
    rng = np.random.default_rng(seed)
    items = []
    for p in range(1, n + 1):
        k = int(rng.integers(0, key_space))
        tree.insert(k, p)
        items.append((k, p))
        if tree.needs_merge():
            tree.merge(p - w + 1)
    min_pos = n - w + 1
    return sorted((k, p) for k, p in items if p >= min_pos), min_pos


def test_merge_sorted_reference():
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(0, 100, 50))
    b = np.sort(rng.integers(0, 100, 30))
    pa, pb = np.arange(50), np.arange(100, 130)
    k, p = merge_sorted(a, pa, b, pb)
    assert list(k) == sorted(np.concatenate([a, b]).tolist())
    assert sorted(p.tolist()) == sorted(np.concatenate([pa, pb]).tolist())


def test_merge_sorted_empty_sides():
    e = np.empty(0, np.int64)
    a = np.array([1, 2, 3])
    p = np.array([7, 8, 9])
    k, q = merge_sorted(a, p, e, e)
    assert list(k) == [1, 2, 3]
    k, q = merge_sorted(e, e, a, p)
    assert list(q) == [7, 8, 9]


@pytest.mark.parametrize("m", [0.0625, 0.125, 0.5, 1.0])
@pytest.mark.parametrize("tree_cls", [im, PIMTree])
def test_live_contents_after_churn(tree_cls, m):
    w = 1024
    tree = tree_cls(w, m)
    live, min_pos = _churn(tree, 5000, w, seed=1)
    got = sorted(tree.search_range(0, 10**6, min_pos))
    assert got == live


@pytest.mark.parametrize("tree_cls", [im, PIMTree])
def test_range_query_with_expiry(tree_cls):
    w = 512
    tree = tree_cls(w, 0.25)
    live, min_pos = _churn(tree, 3000, w, seed=2)
    for lo, hi in [(0, 10**6), (100, 5000), (500000, 600000)]:
        expect = [e for e in live if lo <= e[0] <= hi]
        assert sorted(tree.search_range(lo, hi, min_pos)) == expect


def test_merge_ratio_controls_merge_frequency():
    w = 1024
    freq = {}
    for m in (0.125, 0.5):
        t = PIMTree(w, m)
        _churn(t, 8192, w, seed=3)
        freq[m] = t.n_merges
    assert freq[0.125] > freq[0.5] * 2


def test_merge_threshold_is_m_times_w():
    t = im(1000, 0.25)
    assert t.merge_threshold == 250
    t = PIMTree(1000, 1.0)
    assert t.merge_threshold == 1000


@pytest.mark.parametrize("bad_m", [0.0, -1.0, 1.5])
def test_invalid_merge_ratio_rejected(bad_m):
    with pytest.raises(ValueError):
        im(100, bad_m)
    with pytest.raises(ValueError):
        PIMTree(100, bad_m)


def test_pim_invalid_insertion_depth():
    with pytest.raises(ValueError):
        PIMTree(100, 0.5, -1)


def test_depth0_keeps_one_subindex():
    """D_I = 0 is the root: T_I stays one sub-index across merges (the
    IM-Tree), and its insert counter counts every insert since the last
    merge."""
    w = 1024
    t = im(w, 0.25)
    rng = np.random.default_rng(14)
    since_merge = 0
    for p in range(1, 4 * w + 1):
        assert t.n_subindexes == 1
        t.insert(int(rng.integers(0, 10**6)), p)
        since_merge += 1
        assert t.insert_counts == [since_merge] == [len(t) - len(t.t_s)]
        if t.needs_merge():
            t.merge(p - w + 1)
            since_merge = 0
    assert t.n_merges == 16
    assert t.n_subindexes == 1 and len(t.t_s) == w


def test_pim_subindex_count_matches_ts_nodes():
    w = 4096
    for d_i in (1, 2, 3):
        t = PIMTree(w, 0.5, d_i)
        _churn(t, 3 * w, w, seed=4)
        # One sub-index per depth-D_I node of T_S (D_I clamped to the
        # deepest inner level), each node covering f^(height-D_I) elements.
        d = min(d_i, t.t_s.height - 1)
        assert t.n_subindexes == -(-len(t.t_s) // _FANOUT ** (t.t_s.height - d))
        assert t.n_subindexes == max(1, len(t.t_s.partition_bounds(d_i)))


def test_pim_route_matches_ts_route():
    """Inserts and probes route like a T_S descent to D_I: one bisect over
    the depth-D_I node bounds of T_S, clamped to the last sub-index."""
    w = 4096
    for d_i in (1, 2, 3):
        t = PIMTree(w, 0.5, d_i)
        _churn(t, 3 * w, w, seed=5)
        rng = np.random.default_rng(6)
        for p, key in enumerate(rng.integers(-10, 10**6 + 10, 500), 3 * w + 1):
            t.insert(int(key), p)

        bounds = t.t_s.partition_bounds(d_i).tolist()

        def route(key):
            return min(bisect_left(bounds, key), t.n_subindexes - 1)

        assert t.n_subindexes > 1 and sum(t.insert_counts) == 500
        for i, b in enumerate(t.subindexes):
            assert all(route(k) == i for k in b.items_arrays()[0].tolist())
        for lo in rng.integers(-10, 10**6 + 10, 200).tolist():
            for hi in (lo, lo + 100, lo + 10**5):
                # a probe locks exactly the non-empty sub-indexes of
                # route(lo)..route(hi)
                span = range(route(lo), route(hi) + 1)
                l0 = t.lock_acquisitions
                got = t.search_subindexes(lo, hi, -1, [], t.t_s.find_start(lo))
                assert t.lock_acquisitions - l0 == sum(
                    1 for i in span if t.insert_counts[i]
                )
                assert sorted(got) == sorted(
                    e for i in span for e in t.subindexes[i].search_range(lo, hi)
                )


def test_pim_insert_counts_track_inserts():
    w = 2048
    t = PIMTree(w, 1.0, 2)
    _churn(t, w, w, seed=7)  # exactly one merge at the end
    before = t.n_subindexes
    for p in range(w + 1, w + 501):
        t.insert(int(np.random.default_rng(p).integers(0, 10**6)), p)
    assert sum(t.insert_counts) == 500
    assert t.n_subindexes == before


def test_pim_uniform_keys_spread_inserts_across_subindexes():
    """Fixed distribution -> inserts spread across sub-indexes (paper
    Fig. 13a, r=0 row)."""
    w = 8192
    t = PIMTree(w, 1.0, 2)
    _churn(t, w, w, seed=8)
    rng = np.random.default_rng(9)
    for p in range(w + 1, 2 * w):
        t.insert(int(rng.integers(0, 10**6)), p)
    counts = np.asarray(t.insert_counts, float)
    busy = counts[counts > 0]
    assert len(busy) == len(counts)  # every sub-index receives inserts
    assert counts.max() / counts.mean() < 3.0


def test_pim_merge_equals_lexsort_reference():
    """A depth-2 merge over 512+ sub-indexes yields exactly the live T_S
    elements plus every T_I element, ordered by (key, pos): T_I is
    extracted in one pass over all sub-indexes, then merged with T_S."""
    w = 1 << 15
    t = PIMTree(w, 0.125, 2)
    _churn(t, w + w // 2, w, seed=15, key_space=10**5)  # duplicate keys
    p0 = w + w // 2
    rng = np.random.default_rng(16)
    for p in range(p0 + 1, p0 + t.merge_threshold):
        t.insert(int(rng.integers(0, 10**5)), p)
    assert t.n_subindexes >= 512 and not t.needs_merge()
    min_pos = p0 + t.merge_threshold - w
    live = t.t_s.poss >= min_pos
    ti = np.array(
        [e for b in t.subindexes for e in b.search_range(0, 10**5)], np.int64
    )
    keys = np.concatenate([t.t_s.keys[live], ti[:, 0]])
    poss = np.concatenate([t.t_s.poss[live], ti[:, 1]])
    order = np.lexsort((poss, keys))
    assert t.merge(min_pos) == len(keys)
    assert t.t_s.keys.tolist() == keys[order].tolist()
    assert t.t_s.poss.tolist() == poss[order].tolist()


def test_pim_merged_copy_preserves_old():
    w = 1024
    t = PIMTree(w, 1.0, 2)
    rng = np.random.default_rng(10)
    for p in range(1, w + 1):
        t.insert(int(rng.integers(0, 10**6)), p)
    old_items = sorted(t.search_range(0, 10**6))
    new = PIMTree.merged_copy(t, min_pos=1)
    assert sorted(t.search_range(0, 10**6)) == old_items  # old untouched
    assert sorted(new.search_range(0, 10**6)) == old_items
    assert sum(new.insert_counts) == 0
    assert new.n_merges == t.n_merges + 1


def test_pim_byte_totals_survive_merges():
    """``bytes_moved`` carries the counters of the T_S and sub-indexes a
    merge retires, plus the new T_S's writes: neither total falls across
    ``merge`` or ``merged_copy``, and a merge adds exactly its T_S."""
    w = 1024
    t = PIMTree(w, 0.25, 2)
    rng = np.random.default_rng(17)
    last = (0, 0)
    for p in range(1, 3 * w + 1):
        t.insert(int(rng.integers(0, 10**6)), p)
        t.search_range(0, 10**5, p - w + 1)
        now = t.bytes_moved()
        assert now[0] >= last[0] and now[1] > last[1]
        last = now
        if t.needs_merge():
            copy = PIMTree.merged_copy(t, p - w + 1)
            assert t.bytes_moved() == last  # the old tree is untouched
            n = t.merge(p - w + 1)
            assert t.bytes_moved() == copy.bytes_moved()
            assert t.bytes_moved() == (last[0], last[1] + n * 8)
    assert t.n_merges == 12 and last[0] > 0


def test_pim_merged_copy_drops_expired():
    """Expiry filtering applies to T_S only — T_I holds the newest m*w <= w
    tuples, which by construction cannot have expired (paper §3.3.1).
    Before and after a merge, and in a merged copy, every sub-index is a
    B+-Tree at the paper's f_b = 16."""

    def fanouts(tree):
        subs = {(type(b), b.fanout) for b in tree.subindexes}
        return subs, tree.n_subindexes > 1

    w = 512
    t = PIMTree(w, 1.0, 2)
    for p in range(1, 601):
        t.insert(p * 13 % 1000, p)
    assert fanouts(t) == ({(BPlusTree, 16)}, False)
    t.merge(min_pos=1)  # everything now lives in T_S
    assert fanouts(t) == ({(BPlusTree, 16)}, True)
    new = PIMTree.merged_copy(t, min_pos=101)
    assert fanouts(new) == ({(BPlusTree, 16)}, True)
    got = sorted(p for _, p in new.search_range(0, 1000))
    assert got == list(range(101, 601))


def test_pim_use_locks_false_same_result():
    w = 1024
    a = PIMTree(w, 0.25, 2, use_locks=True)
    b = PIMTree(w, 0.25, 2, use_locks=False)
    la, mpa = _churn(a, 4000, w, seed=11)
    lb, mpb = _churn(b, 4000, w, seed=11)
    assert sorted(a.search_range(0, 10**6, mpa)) == sorted(
        b.search_range(0, 10**6, mpb)
    )
    assert a.lock_acquisitions > 0
    assert b.lock_acquisitions == 0


def test_pim_concurrent_inserts_are_serialised_per_partition():
    """Hammer one PIM-Tree from several threads; every insert must land
    (the per-sub-index locks make concurrent inserts safe)."""
    w = 1 << 14
    t = PIMTree(w, 1.0, 2)
    _churn(t, w, w, seed=12)  # populate + build partitions
    n_threads, per = 8, 2000
    errs = []

    def worker(tid):
        try:
            rng = np.random.default_rng(100 + tid)
            for i in range(per):
                t.insert(int(rng.integers(0, 10**6)), w + tid * per + i + 1)
        except BaseException as e:  # pragma: no cover
            errs.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errs
    assert len(t) - len(t.t_s) == n_threads * per
    assert sum(t.insert_counts) == n_threads * per


def test_memory_footprint_pim_roughly_double_bplus():
    """Paper Fig. 11a: PIM-Tree (T_S + T_I + merge buffer) needs ~2x the
    space of a plain B+-Tree over the same window."""
    from repro.core.bplus_tree import BPlusTree

    w = 1 << 13
    pim = PIMTree(w, 1.0, 2)
    bp = BPlusTree(16)
    rng = np.random.default_rng(13)
    for p in range(1, w + 1):
        k = int(rng.integers(0, 10**6))
        pim.insert(k, p)
        bp.insert(k, p)
    ratio = pim.memory_bytes() / bp.memory_bytes()
    assert 1.3 < ratio < 3.5
