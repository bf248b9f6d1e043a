"""Unit tests for the baseline indexes: NLWJ window, chained index and
the Bw-Tree-like delta index."""
import numpy as np
import pytest

from repro.baselines.bw_tree import BwTreeLike
from repro.baselines.chained_index import ChainedIndex
from repro.baselines.nlwj import NLWJWindow


# ---------------------------------------------------------------- NLWJ
def test_nlwj_probe_matches_bruteforce():
    w = 128
    win = NLWJWindow(w)
    rng = np.random.default_rng(0)
    items = []
    for p in range(1, 500):
        k = int(rng.integers(0, 1000))
        win.insert(k, p)
        items.append((k, p))
        live = [e for e in items if e[1] > p - w]
        got = win.probe(100, 300, min_pos=p - w + 1)
        assert sorted(got) == sorted(
            e for e in live if 100 <= e[0] <= 300
        )


def test_nlwj_unfilled_slots_never_match():
    win = NLWJWindow(64)
    win.insert(0, 1)  # key 0 == empty-slot sentinel value
    got = win.probe(-5, 5, min_pos=-100)
    assert got == [(0, 1)]


def test_nlwj_overwrite_is_coarse_delete():
    w = 4
    win = NLWJWindow(w)
    for p in range(1, 10):
        win.insert(p * 10, p)
    got = win.probe(0, 1000, min_pos=9 - w + 1)
    assert sorted(p for _, p in got) == [6, 7, 8, 9]


# -------------------------------------------------------- chained index
@pytest.mark.parametrize("L", [2, 3, 5, 8])
@pytest.mark.parametrize("immutable", [False, True])
def test_chained_index_window_contents(L, immutable):
    w = 240
    idx = ChainedIndex(w, L, immutable)
    rng = np.random.default_rng(1)
    items = []
    for p in range(1, 1000):
        k = int(rng.integers(0, 5000))
        idx.insert(k, p)
        items.append((k, p))
        idx.expire(p - w + 1)
        live = [e for e in items if e[1] > p - w]
        got = idx.probe(0, 5000, min_pos=p - w + 1)
        if p % 97 == 0:
            assert sorted(got) == sorted(live)
    assert idx.n_subindexes <= L + 1


def test_chained_index_drops_whole_subindexes():
    w = 100
    idx = ChainedIndex(w, 5, False)  # capacity 25
    for p in range(1, 301):
        idx.insert(p, p)
    n_before = idx.n_subindexes
    dropped = idx.expire(300 - w + 1)
    assert dropped >= 1
    assert idx.n_subindexes == n_before - dropped


def test_chained_index_rejects_short_chain():
    with pytest.raises(ValueError):
        ChainedIndex(100, 1)


def test_chained_index_capacity_partitioning():
    idx = ChainedIndex(100, 5)
    assert idx.capacity == 25


def test_ib_chain_archives_are_immutable():
    from repro.core.immutable_btree import ImmutableBTree

    idx = ChainedIndex(100, 3, immutable_archive=True)
    for p in range(1, 120):
        idx.insert(p, p)
    assert idx.archived
    assert all(isinstance(t, ImmutableBTree) for t, _, _ in idx.archived)
    # the active sub-index is mutable, at the paper's f_b = 16
    assert idx.active.fanout == 16


# ----------------------------------------------------------- Bw-Tree-like
def test_bw_tree_insert_search_reference():
    idx = BwTreeLike(page_capacity=32, consolidate_at=4)
    rng = np.random.default_rng(3)
    ref = []
    for p in range(1, 2001):
        k = int(rng.integers(0, 5000))
        idx.insert(k, p)
        ref.append((k, p))
    assert len(idx) == 2000
    for lo, hi in [(0, 5000), (100, 200), (4999, 5000), (-10, -1)]:
        got = sorted(idx.search_range(lo, hi))
        assert got == sorted(e for e in ref if lo <= e[0] <= hi)


def test_bw_tree_pages_split_under_load():
    idx = BwTreeLike(page_capacity=16, consolidate_at=4)
    for p in range(1, 501):
        idx.insert(p, p)
    assert len(idx.pages) > 10
    # every chain that outgrew consolidate_at was consolidated
    assert max(len(p.deltas) for p in idx.pages) <= idx.consolidate_at


def test_bw_tree_delete():
    idx = BwTreeLike(page_capacity=16, consolidate_at=4)
    for p in range(1, 101):
        idx.insert(p % 10, p)
    assert idx.delete(5, 5)
    assert not idx.delete(5, 5)  # already gone
    assert not idx.delete(99, 1)  # never existed
    got = idx.search_range(5, 5)
    assert (5, 5) not in got
    assert len(idx) == 99


def test_bw_tree_windowed_churn():
    w = 150
    idx = BwTreeLike(page_capacity=32, consolidate_at=6)
    ring = {}
    rng = np.random.default_rng(4)
    for p in range(1, 700):
        k = int(rng.integers(0, 800))
        if p > w:
            assert idx.delete(ring.pop(p - w), p - w)
        idx.insert(k, p)
        ring[p] = k
    got = idx.search_range(0, 800)
    assert sorted(got) == sorted((k, p) for p, k in ring.items())


def test_bw_tree_min_pos_filter():
    idx = BwTreeLike()
    for p in range(1, 50):
        idx.insert(7, p)
    got = idx.search_range(7, 7, min_pos=40)
    assert sorted(p for _, p in got) == list(range(40, 50))
