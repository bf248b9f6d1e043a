"""Correctness tests for the §4 multithreaded join: no duplicated or
missing results under real thread interleaving, ordered propagation,
edge-tuple and nonblocking-merge safety."""
import gc
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.parallel import _SCAN_WALK, ParallelIBWJ, _scan, _StreamState
from repro.join.streams import (
    arrival_columns,
    diff_for_match_rate,
    gen_stream,
    reference_pairs,
)

pytestmark = pytest.mark.filterwarnings("error")


def _check(seq, w_r, w_s, diff, *, self_join=False, **kw):
    j = ParallelIBWJ(seq, w_r, w_s, diff, self_join=self_join, **kw)
    res = j.run()
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    got = set(res.pairs)
    assert got == ref, (
        f"missing={list(ref - got)[:4]} extra={list(got - ref)[:4]}"
    )
    assert len(res.pairs) == len(ref), "duplicate results propagated"
    laters = [a for a, _ in res.pairs]
    assert laters == sorted(laters), "ordered propagation violated"
    return res


@pytest.mark.parametrize("n_threads", [1, 2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_two_way_parallel_matches_oracle(n_threads, seed):
    w = 128
    seq = gen_stream(2500, seed=seed)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=n_threads, task_size=4, merge_ratio=0.5)


@pytest.mark.parametrize("n_threads", [1, 2, 4, 8])
def test_self_join_parallel_matches_oracle(n_threads):
    w = 128
    seq = gen_stream(2200, seed=2, self_join=True)
    diff = diff_for_match_rate(2.0, w)
    _check(
        seq, w, w, diff,
        self_join=True, n_threads=n_threads, task_size=4, merge_ratio=0.5,
    )


@pytest.mark.parametrize("task_size", [1, 2, 8, 16])
def test_task_size_sweep(task_size):
    w = 96
    seq = gen_stream(1600, seed=3)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=task_size)


@pytest.mark.parametrize("merge_ratio", [0.25, 1.0])
def test_merge_variants(merge_ratio):
    w = 128
    seq = gen_stream(3000, seed=4)
    diff = diff_for_match_rate(2.0, w)
    res = _check(
        seq, w, w, diff, n_threads=4, task_size=4, merge_ratio=merge_ratio
    )
    assert res.n_merges > 0  # the merge path was actually exercised


def test_asymmetric_windows_parallel():
    seq = gen_stream(2000, seed=5)
    diff = diff_for_match_rate(2.0, 256)
    _check(seq, 64, 256, diff, n_threads=4, task_size=4)


def test_asymmetric_rates_parallel():
    w = 96
    seq = gen_stream(1800, seed=6, rate_r=3, rate_s=1)
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=4)


def test_skewed_distribution_parallel():
    w = 128
    seq = gen_stream(1800, seed=7, dist="gaussian")
    diff = diff_for_match_rate(2.0, w)
    _check(seq, w, w, diff, n_threads=4, task_size=4)


def test_insertion_depth_variants():
    w = 256
    seq = gen_stream(2200, seed=8)
    diff = diff_for_match_rate(2.0, w)
    for d_i in (1, 3):
        _check(
            seq, w, w, diff,
            n_threads=4, task_size=4, insertion_depth=d_i, merge_ratio=0.5,
        )


def test_single_thread_equals_sequential_semantics():
    """n_threads=1 must produce the oracle set in exact arrival order."""
    w = 64
    seq = gen_stream(900, seed=9)
    diff = diff_for_match_rate(2.0, w)
    res = _check(seq, w, w, diff, n_threads=1, task_size=8)
    assert res.n_processed == 900


def test_edge_never_passes_unindexed(monkeypatch):
    """After the run, every position below each stream's edge is indexed."""
    w = 64
    seq = gen_stream(1000, seed=10)
    diff = diff_for_match_rate(2.0, w)
    j = ParallelIBWJ(seq, w, w, diff, n_threads=4, task_size=4)
    j.run()
    for side in ("R", "S"):
        st = j.state[side]
        for p in range(1, st.edge):
            assert st.indexed[p]


def test_edge_stops_at_the_sentinel_past_the_last_position():
    """With every position of the longest stream (the self-join's n) indexed,
    the edge moves one past it and stops at the sentinel slot."""
    n = 40
    st = _StreamState(16, n, 1.0, 2)
    for p in range(1, n + 1):
        st.indexed[p] = True
    st.advance_edge()
    assert st.edge == n + 1


@pytest.mark.parametrize(
    "self_join, w_r, w_s, expected",
    [
        (False, 64, 128, 133_728),
        (True, 96, 96, 139_344),
        (False, 512, 512, 505_856),
    ],
    ids=["two_way", "self_join", "two_way_long_scans"],
)
def test_window_scan_alone_finds_every_match(
    monkeypatch, self_join, w_r, w_s, expected
):
    """With the edge pinned at the first position no index hit is kept,
    so the linear scan over each tuple's whole opposite window must find
    every match, once, and report every position it read."""
    monkeypatch.setattr(_StreamState, "advance_edge", lambda self: None)
    seq = gen_stream(1500, seed=3, self_join=self_join)
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    res = _check(
        seq, w_r, w_s, diff,
        self_join=self_join, n_threads=4, task_size=4, merge_ratio=0.25,
    )
    assert res.n_merges > 0
    win = {"R": w_r, "S": w_s}
    opp = {"R": "R", "S": "S"} if self_join else {"R": "S", "S": "R"}
    full_windows = sum(
        min(seen, win[opp[side]])
        for side, seen in zip(seq["side"], seq["opp_seen"])
    )
    assert res.scanned_positions == full_windows == expected


@pytest.mark.parametrize(
    "length", [0, 1, _SCAN_WALK - 1, _SCAN_WALK, _SCAN_WALK + 1, 1024]
)
@pytest.mark.parametrize("first", [1, 37])
def test_scan_matches_brute_force(length, first):
    """Both scan paths, the list walk below ``_SCAN_WALK`` positions and
    the numpy mask from it on, return exactly the in-band positions in
    ascending order, band ends and duplicate keys included."""
    rng = np.random.default_rng(length + first)
    keys = [0] + rng.integers(0, 20, 1100).tolist()  # slot 0 unused, as by_spos
    lo, hi = 5, 9
    last = first + length - 1
    ref = [(keys[p], p) for p in range(first, last + 1) if lo <= keys[p] <= hi]
    got = _scan(keys, np.array(keys, np.int64), lo, hi, first, last)
    assert got == ref
    if length >= _SCAN_WALK:  # the data reaches both band ends, duplicated
        hit_keys = [k for k, _ in ref]
        assert hit_keys.count(lo) > 1 and hit_keys.count(hi) > 1


def test_parked_batch_stays_non_indexed(monkeypatch):
    """While one stream merges, a task's tuples of that stream are all
    parked in arrival order, stay non-indexed and hold its edge, and the
    thread yields the interpreter once (``time.sleep(0)``) so the merger
    can finish; the task's tuples of the other stream are indexed as
    usual, with no yield."""
    sleeps = []
    monkeypatch.setattr("repro.join.parallel.time.sleep", sleeps.append)
    w, task_size = 64, 8
    seq = gen_stream(64, seed=15)
    j = ParallelIBWJ(seq, w, w, diff_for_match_rate(2.0, w), task_size=task_size)
    j.sides, j.sposs, j.xs, j.opps, j.gposs = arrival_columns(seq)
    j._index_update(0, task_size)
    assert sleeps == []
    r, s = j.state["R"], j.state["S"]
    assert (r.edge, s.edge) == (5, 5)
    s.merging = True
    j._index_update(task_size, 2 * task_size)
    assert sleeps == [0]  # the parked S batch; the indexed R batch never
    task = range(task_size, 2 * task_size)
    parked = [(j.xs[t], j.sposs[t]) for t in task if j.sides[t] == "S"]
    assert [p for _, p in parked] == [5, 6, 7, 8]
    assert s.pending == parked and r.pending == []
    assert j.deferred_inserts == len(parked)
    assert not any(s.indexed[p] for _, p in parked)
    assert s.edge == 5 and len(s.index) == 4
    assert all(r.indexed[p] for p in range(1, 9))
    assert r.edge == 9 and len(r.index) == 8


@pytest.mark.parametrize("n_threads", [1, 4])
def test_gc_is_deferred_in_the_run_and_restored_after_a_worker_fails(n_threads):
    """Cyclic GC is off while the workers run, and on again after a run
    whose worker thread raised."""
    w = 64
    seq = gen_stream(600, seed=17)
    j = ParallelIBWJ(seq, w, w, diff_for_match_rate(2.0, w), n_threads=n_threads)
    seen = []
    update = j._index_update

    def failing_update(a, b):
        seen.append(gc.isenabled())
        if a >= 300:
            raise RuntimeError("index update failed")
        update(a, b)

    j._index_update = failing_update
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="index update failed"):
        j.run()
    assert len(seen) >= 300 // j.task_size and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("self_join", [False, True], ids=["two_way", "self_join"])
def test_batch_crossing_merge_threshold_merges_once(self_join):
    """Each task inserts 24 tuples per stream against a merge threshold of
    16: every batch crosses it and fires exactly one merge of its stream,
    and the pairs stay exact."""
    w, n, per_stream = 64, 1200, 24
    streams = 1 if self_join else 2
    task_size = per_stream * streams
    seq = gen_stream(n, seed=16, self_join=self_join)
    res = _check(
        seq, w, w, diff_for_match_rate(2.0, w),
        self_join=self_join, n_threads=1, task_size=task_size,
        merge_ratio=0.25,
    )
    assert res.n_merges == streams * n // task_size


def test_run_is_single_shot():
    """A second run() would find the queue drained and report the first
    run's pairs at a bogus rate; it must refuse instead."""
    w = 64
    seq = gen_stream(600, seed=11)
    j = ParallelIBWJ(seq, w, w, diff_for_match_rate(2.0, w), n_threads=2)
    j.run()
    with pytest.raises(RuntimeError, match="once"):
        j.run()


def test_throughput_and_counts_reported():
    w = 64
    seq = gen_stream(600, seed=11)
    diff = diff_for_match_rate(2.0, w)
    j = ParallelIBWJ(seq, w, w, diff, n_threads=2, task_size=4)
    res = j.run()
    assert res.n_processed == 600
    assert res.throughput > 0
    assert res.n_matches == len(res.pairs)


# Strategies shared by the Tier-1 stress test and its soak variant, which
# differ only in stream length, thread count and number of examples.
_INTERLEAVING_CONFIGS = dict(
    seed=st.integers(0, 2**16),
    task_size=st.integers(1, 8),
    merge_ratio=st.sampled_from([1 / 16, 1 / 4, 1.0]),
    self_join=st.booleans(),
    d_i=st.integers(1, 3),
    w_r=st.sampled_from([64, 128, 256]),
    w_s=st.sampled_from([64, 128, 256]),
)


def _fine_interleavings_match_oracle(
    n, seed, n_threads, task_size, merge_ratio, self_join, d_i, w_r, w_s
):
    if self_join:
        w_s = w_r
    seq = gen_stream(n, seed=seed, self_join=self_join)
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = _check(
            seq, w_r, w_s, diff,
            self_join=self_join, n_threads=n_threads, task_size=task_size,
            merge_ratio=merge_ratio, insertion_depth=d_i,
        )
    finally:
        sys.setswitchinterval(interval)
    assert res.n_merges > 0
    if n_threads == 1:
        assert res.scanned_positions == res.deferred_inserts == 0


@settings(max_examples=24)
@given(
    n=st.integers(3000, 5000),
    n_threads=st.integers(1, 8),
    **_INTERLEAVING_CONFIGS,
)
def test_stress_fine_interleavings_match_oracle(
    n, seed, n_threads, task_size, merge_ratio, self_join, d_i, w_r, w_s
):
    """Thread switches every microsecond, at windows small enough that
    merges fire many times, across the whole configuration space."""
    _fine_interleavings_match_oracle(
        n, seed, n_threads, task_size, merge_ratio, self_join, d_i, w_r, w_s
    )


@pytest.mark.soak
@settings(max_examples=200)
@given(
    n=st.integers(16_000, 20_000),
    n_threads=st.integers(1, 16),
    **_INTERLEAVING_CONFIGS,
)
def test_soak_fine_interleavings_match_oracle(
    n, seed, n_threads, task_size, merge_ratio, self_join, d_i, w_r, w_s
):
    """The stress test at longer streams, more threads and more examples;
    outside Tier-1, run with ``pytest -m soak tests/test_parallel.py``."""
    _fine_interleavings_match_oracle(
        n, seed, n_threads, task_size, merge_ratio, self_join, d_i, w_r, w_s
    )


@pytest.mark.parametrize("self_join", [False, True], ids=["two_way", "self_join"])
@pytest.mark.parametrize("n_threads", [1, 4])
def test_each_task_is_indexed_before_its_lookups(n_threads, self_join):
    """Within each thread, every index update of a claimed task finishes
    before the task's first lookup starts, and each task runs on one
    thread: a claimer switched out mid-task holds no tuple back from the
    edge."""
    w, task_size, n = 64, 8, 1200
    seq = gen_stream(n, seed=14, self_join=self_join)
    j = ParallelIBWJ(
        seq, w, w, diff_for_match_rate(2.0, w),
        self_join=self_join, n_threads=n_threads, task_size=task_size,
        merge_ratio=0.25,
    )
    log = []
    index_update, lookup = j._index_update, j._lookup

    def logged_index_update(a, b):
        index_update(a, b)
        log.extend((threading.get_ident(), "index", t) for t in range(a, b))

    def logged_lookup(t):
        log.append((threading.get_ident(), "lookup", t))
        return lookup(t)

    j._index_update = logged_index_update
    j._lookup = logged_lookup
    assert j.run().n_merges > 0
    for kind in ("index", "lookup"):
        assert sorted(t for _, k, t in log if k == kind) == list(range(n))
    events = defaultdict(list)  # (thread, task) -> kinds in call order
    for thread, kind, t in log:
        events[thread, t // task_size].append(kind)
    tasks = [task for _, task in events]
    assert len(tasks) == len(set(tasks)), "a task ran on two threads"
    for (_, task), kinds in events.items():
        size = min(task_size, n - task * task_size)
        assert kinds == ["index"] * size + ["lookup"] * size, task


@pytest.mark.parametrize("n_threads", [1, 4])
@pytest.mark.parametrize(
    "self_join, same_task_pairs",
    [(False, 1356), (True, 2393)],
    ids=["two_way", "self_join"],
)
def test_pairs_within_one_task_match_oracle(
    n_threads, self_join, same_task_pairs
):
    """At sigma_s = 32 thousands of result pairs join two tuples of one
    task, all indexed before either looks up: the later tuple must find
    the earlier one exactly once, and the earlier must not see the
    later."""
    w, task_size = 128, 8
    seq = gen_stream(3000, seed=5, self_join=self_join)
    diff = diff_for_match_rate(32.0, w)
    ref = reference_pairs(seq, w, w, diff, self_join=self_join)
    assert sum(
        (a - 1) // task_size == (b - 1) // task_size for a, b in ref
    ) == same_task_pairs
    res = _check(
        seq, w, w, diff,
        self_join=self_join, n_threads=n_threads, task_size=task_size,
        merge_ratio=0.25,
    )
    assert res.n_merges > 0


def test_run_time_is_linear_in_stream_length():
    """8x the tuples at the same window costs about 8x the time; a cost
    per result pair that grows with the stream makes it about 64x."""
    w = 64
    diff = diff_for_match_rate(2.0, w)

    def best_elapsed(n):
        seq = gen_stream(n, seed=12)
        return min(
            ParallelIBWJ(seq, w, w, diff, n_threads=1).run().elapsed
            for _ in range(3)
        )

    ratio = best_elapsed(4096) / best_elapsed(512)
    assert ratio < 24, f"4096 tuples took {ratio:.1f}x as long as 512"


def test_counters_zero_without_concurrency(monkeypatch):
    """One thread never leaves the edge behind a window head, never
    inserts during a merge, and so never yields the interpreter to one:
    its merges run in the claiming thread."""
    sleeps = []
    monkeypatch.setattr("repro.join.parallel.time.sleep", sleeps.append)
    w = 64
    seq = gen_stream(1500, seed=13)
    diff = diff_for_match_rate(2.0, w)
    res = ParallelIBWJ(seq, w, w, diff, n_threads=1, merge_ratio=0.25).run()
    assert res.n_merges > 0
    assert res.scanned_positions == 0
    assert res.deferred_inserts == 0
    assert sleeps == []
