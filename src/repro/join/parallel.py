"""Parallel stream join over shared indexes (paper §4), with real threads.

Faithful implementation of the four-step algorithm — task acquisition
from a shared work queue, result generation against a shared PIM-Tree per
stream, index update with edge-tuple advancement, and ordered result
propagation — plus the §4.2 nonblocking merge.

CPython's GIL means this layer cannot demonstrate CPU *speedup* (that is
the concurrency simulator's and the Spark harness's job, DESIGN.md §3);
what it demonstrates, under genuine thread interleaving, is the
*correctness* of the concurrency design: no duplicated or missing join
results regardless of out-of-order indexing, and results propagated in
arrival order.

Only the nonblocking merge is implemented here; the blocking merge that
Fig. 13c compares it with is modelled by the concurrency simulator
(``SimConfig(nonblocking_merge=False)``).

Key mechanisms mirrored from the paper:

- the work queue hands out tasks of ``task_size`` consecutive tuples by
  index arithmetic alone. Of the paper's AVAILABLE/ACTIVE/COMPLETED entry
  states only completion is tracked, because result propagation is the
  only reader of an entry's state;
- each tuple's opposite window is fixed by its arrival: it ends at
  t_l = opposite tuples seen and starts at t_e = t_l - w + 1;
- per stream, an *edge* position marks the earliest non-indexed tuple;
  lookups combine an index probe (results filtered to pos < edge
  snapshot) with a linear window scan over [edge snapshot, t_l], which
  reads keys from the stream's window (``streams.by_spos``). A scan
  shorter than ``_SCAN_WALK`` positions walks the key list; a longer one
  filters the stream's int64 key array with one numpy mask and reads the
  hit keys back from the list, because numpy's fixed cost per call pays
  off only on long scans;
- the edge advances under a try-lock; result propagation drains the
  queue head under another try-lock, preserving arrival order.

Within a task the order is index update for every tuple, then result
generation for every tuple, then propagation. The reason is the GIL: it
switches a thread out every few milliseconds, and a thread switched out
while still holding claimed but non-indexed tuples stalls the edge, so
every other thread's lookups scan linearly from it. The order is exact:
a lookup keeps an index hit only below min(edge, t_l + 1) and scans only
up to t_l, so a later tuple of the same task is invisible to an earlier
one (and in a two-way join a tuple never probes its own stream); a merge
the task's own inserts trigger evicts below the window of ``head``,
which is at or before the task's first tuple, so it keeps the task's
windows.

The index update takes a task one stream at a time, under one hold of
that stream's ``index_swap``: it inserts every tuple of that stream,
each under its own sub-index lock, or, while a merge builds the new
tree, parks them all in ``pending``. One pass then sets their indexed
flags, the edge advances once and the merge threshold is checked once.
Lookups read the index reference without that lock (a reference read is
atomic under the GIL): they snapshot the edge first, so the tree they
read holds every position below the snapshot.

A thread that parks a batch behind a merge then yields the interpreter
once (``time.sleep(0)``). Merge phase 1 (``PIMTree.merged_copy``)
releases the GIL inside its numpy calls; a worker takes it, and the
merging thread would otherwise wait a whole switch interval (5 ms) to
resume while every insert of its stream parks and lookups scan the
parked region linearly. On a 4-core box (w = 2^10, m = 1/4, 2 or 4
threads) phase 1 needed a median 0.2-0.4 ms of thread CPU but took
10.5-17 ms wall at the 90th percentile; with the yield, 1.1-2.3 ms. The
yield hands the interpreter back, usually to the merger, so phase 1 ends
before more tuples pile up behind it. No thread waits for the merge, and
parked tuples stay non-indexed until phase 2 (§4.2). With free-running
cores it costs one syscall per parked batch.

Cyclic GC is deferred while the workers run (``streams.gc_deferred``):
a gen-1 or gen-2 pass stalled every worker for up to 33 ms, and a merge
it landed in kept its stream's inserts parked meanwhile. The one pass
owed fires as GC is restored, inside the timed region.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.pim_tree import PIMTree
from repro.join.streams import arrival_columns, by_spos, gc_deferred

# A window scan of at least this many positions filters the key array
# with one numpy mask instead of walking the key list: numpy's fixed cost
# per call outweighs the walk's cost per position on short scans. At 16
# positions the walk takes 1.5 us and the mask 4.5 us, at 96 both about
# 7.4 us, at 512 the walk 37 us and the mask 10 us (lower quartile of 60
# alternated runs of 256 scans, 2 matches per 1,024 keys; CPython 3.11,
# numpy 1.26, 4-core Xeon VM).
_SCAN_WALK = 96


def _scan(
    keys: list[int], key_arr: np.ndarray, lo: int, hi: int, first: int, last: int
) -> list[tuple[int, int]]:
    """``(key, pos)`` for every pos in ``[first, last]`` whose key lies in
    ``[lo, hi]``, in ascending pos; ``keys`` and ``key_arr`` hold the same
    keys by position, as a list and as an int64 array."""
    if last + 1 - first < _SCAN_WALK:
        return [
            (k, p) for p, k in enumerate(keys[first : last + 1], first)
            if lo <= k <= hi
        ]
    seg = key_arr[first : last + 1]
    hit = seg >= lo
    hit &= seg <= hi
    return [(keys[p], p) for p in (hit.nonzero()[0] + first).tolist()]


class _StreamState:
    """Shared per-stream state: index, indexed flags, edge tuple."""

    def __init__(self, window: int, n_max: int, merge_ratio: float, d_i: int) -> None:
        self.window = window
        # spos -> indexed? Slot n_max + 1 is never set: it stops the edge.
        self.indexed = [False] * (n_max + 2)
        self.index = PIMTree(window, merge_ratio, d_i)
        self.edge = 1  # earliest non-indexed spos
        self.edge_mutex = threading.Lock()
        # Writers swap ``index`` and read or set ``merging`` under this
        # lock; readers take the ``index`` reference without it.
        self.index_swap = threading.Lock()
        self.merging = False  # nonblocking merge phase 1 in progress
        self.pending: list[tuple[int, int]] = []  # inserts deferred by merge

    def advance_edge(self) -> None:
        """Move the edge past every indexed position (paper: try-lock; the
        caller skips if the mutex is held)."""
        if not self.edge_mutex.acquire(blocking=False):
            return
        try:
            e = self.edge
            while self.indexed[e]:
                e += 1
            self.edge = e
        finally:
            self.edge_mutex.release()


@dataclass
class ParallelResult:
    pairs: list[tuple[int, int]]
    n_matches: int
    n_processed: int
    elapsed: float
    n_merges: int
    # Total length of the non-indexed window scans [edge, t_l] in
    # lookups: how far the edge lagged behind the window heads.
    scanned_positions: int = 0
    # Inserts parked in ``pending`` while a nonblocking merge ran.
    deferred_inserts: int = 0

    @property
    def throughput(self) -> float:
        return self.n_processed / self.elapsed if self.elapsed else 0.0


class ParallelIBWJ:
    """Multithreaded band join over two shared PIM-Trees."""

    def __init__(
        self,
        seq: pd.DataFrame,
        w_r: int,
        w_s: int,
        diff: int,
        *,
        n_threads: int = 4,
        task_size: int = 8,
        merge_ratio: float = 1.0,
        insertion_depth: int = 2,
        self_join: bool = False,
    ) -> None:
        self.seq = seq
        self.diff = diff
        self.n_threads = n_threads
        self.task_size = task_size
        n = len(seq)
        # Stream whose window a tuple of each side joins with; for the
        # self-join that is its own stream.
        self.opp_of = (
            {"R": "R", "S": "S"} if self_join else {"R": "S", "S": "R"}
        )
        r_state = _StreamState(w_r, n, merge_ratio, insertion_depth)
        self.state = {
            "R": r_state,
            "S": r_state
            if self_join
            else _StreamState(w_s, n, merge_ratio, insertion_depth),
        }
        # Per-side prefix arrival counts: cnt_before[side][j] = number of
        # ``side``-stream tuples at queue positions < j. Merges may only
        # evict below the window of the earliest incomplete tuple (§4.1:
        # windows store everything active tuples still need); that bound
        # is cnt_before[side][head] - w + 1.
        is_r = seq["side"].to_numpy() == "R"
        self.cnt_before = {
            "R": np.concatenate([[0], np.cumsum(is_r)]).astype(np.int64),
            "S": np.concatenate([[0], np.cumsum(~is_r)]).astype(np.int64),
        }
        if self_join:
            self.cnt_before["S"] = self.cnt_before["R"]
        # Key and gpos by (side, spos): the window scan reads keys, and
        # propagation names the earlier tuple of a result pair by gpos.
        key_of = by_spos(seq, "x")
        self.gpos_of = by_spos(seq, "gpos")
        # What a lookup by a tuple of each side reads: the opposite
        # stream's state, window, and keys both as a list and as an int64
        # array. The keys are stored twice because a short scan walks the
        # list faster than numpy filters the array, and a long one the
        # other way round (``_SCAN_WALK``).
        self.probe_of = {
            side: (
                self.state[o],
                self.state[o].window,
                key_of[o],
                np.array(key_of[o], np.int64),
            )
            for side, o in self.opp_of.items()
        }
        # Per-tuple inputs, filled by run(): side, spos, key, opposite
        # tuples seen (t_l) and gpos, indexed by queue position.
        self.sides: list[str] = []
        self.sposs: list[int] = []
        self.xs: list[int] = []
        self.opps: list[int] = []
        self.gposs: list[int] = []
        self.ran = False
        # Work queue: tuples [0, next_task) are claimed; guarded by
        # queue_mutex. done[t] is set once tuple t's results are stored.
        self.done = [False] * n
        self.next_task = 0
        self.queue_mutex = threading.Lock()
        self.head = 0  # earliest unpropagated tuple
        self.prop_mutex = threading.Lock()
        self.results: list[list[tuple[int, int]] | None] = [None] * n
        self.out: list[tuple[int, int]] = []
        self.merge_mutex = threading.Lock()
        self.n_merges = 0
        self.scan_len = [0] * n  # per tuple, one writer each
        # Guarded by the merging stream's index_swap: merge_mutex lets one
        # stream merge at a time.
        self.deferred_inserts = 0

    # -- task acquisition -------------------------------------------------
    def _acquire(self) -> tuple[int, int] | None:
        with self.queue_mutex:
            a = self.next_task
            if a >= len(self.done):
                return None
            b = min(a + self.task_size, len(self.done))
            self.next_task = b
        return a, b

    # -- result generation ------------------------------------------------
    def _lookup(self, t: int) -> list[tuple[int, int]]:
        ost, w, keys, key_arr = self.probe_of[self.sides[t]]
        # The opposite window is [t_e, t_l]. For the self-join the
        # "opposite" stream is the same stream: everything admitted
        # before this tuple.
        t_l = self.opps[t]
        t_e = t_l - w + 1
        x = self.xs[t]
        lo, hi = x - self.diff, x + self.diff
        # Edge before index: every position below the snapshot is in the
        # tree read after it (a merge copies the old tree's elements and
        # inserts the parked ones before their flags are set).
        edge_snapshot = min(ost.edge, t_l + 1)  # stale value is safe
        matches = [
            (k, p)
            for k, p in ost.index.search_range(lo, hi, max(t_e, 1))
            if p < edge_snapshot
        ]
        # Linear scan of the non-indexed window region [edge, t_l]; every
        # position up to t_l arrived before this tuple.
        scan_from = max(edge_snapshot, t_e, 1)
        if scan_from <= t_l:
            self.scan_len[t] = t_l + 1 - scan_from
            matches += _scan(keys, key_arr, lo, hi, scan_from, t_l)
        return matches

    # -- index update -----------------------------------------------------
    def _index_update(self, a: int, b: int) -> None:
        """Index the tuples [a, b) of one task, one stream at a time."""
        sides, sposs, xs = self.sides, self.sposs, self.xs
        for side in ("R", "S"):
            batch = [(xs[t], sposs[t]) for t in range(a, b) if sides[t] == side]
            if not batch:
                continue
            st = self.state[side]
            with st.index_swap:
                parked = st.merging
                if parked:
                    # §4.2 phase 1: no index updates while the new tree
                    # is built; the tuples stay non-indexed (the edge
                    # cannot pass them, so lookups find them via the
                    # linear window scan).
                    st.pending += batch
                    self.deferred_inserts += len(batch)
                else:
                    insert = st.index.insert
                    for x, p in batch:
                        insert(x, p)
            if parked:
                # Hand the interpreter to a waiting thread, usually the
                # merger: phase 1's numpy calls (``merge_sorted``) release
                # the GIL, and without this yield the merger waits a whole
                # 5 ms switch interval to get it back while this stream's
                # inserts park and lookups scan them linearly (module
                # docstring). Nothing blocks on the merge: the tuples
                # stay parked until phase 2, as §4.2 says.
                time.sleep(0)
                continue
            indexed = st.indexed
            for _, p in batch:
                indexed[p] = True
            st.advance_edge()
            if st.index.needs_merge():
                self._maybe_merge(st, side)

    def _safe_evict_bound(self, st: _StreamState, side: str) -> int:
        """Largest pos safe to evict + 1: every tuple at queue position >=
        head has its ``side``-window start at or above this (reading a
        stale, smaller ``head`` only makes the bound more conservative)."""
        head = min(self.head, len(self.done))
        return int(self.cnt_before[side][head]) - st.window + 1

    def _maybe_merge(self, st: _StreamState, side: str) -> None:
        """The §4.2 nonblocking merge; one merging thread per system
        (merge_mutex try-lock)."""
        if not self.merge_mutex.acquire(blocking=False):
            return
        try:
            min_pos = self._safe_evict_bound(st, side)
            # Phase 1 builds from the (now frozen) old index while other
            # threads keep joining without index updates.
            with st.index_swap:
                if not st.index.needs_merge() or st.merging:
                    return
                st.merging = True
                old = st.index
            new_index = PIMTree.merged_copy(old, min_pos)
            # Phase 2: swap, re-enable updates, then apply pending inserts
            # (safe against concurrent ops via per-sub-index locks).
            with st.index_swap:
                st.index = new_index
                pending, st.pending = st.pending, []
                st.merging = False
            for x, p in pending:
                new_index.insert(x, p)
                st.indexed[p] = True
            st.advance_edge()
            self.n_merges += 1
        finally:
            self.merge_mutex.release()

    # -- result propagation ----------------------------------------------
    def _propagate(self) -> None:
        if not self.prop_mutex.acquire(blocking=False):
            return
        try:
            n = len(self.done)
            while self.head < n and self.done[self.head]:
                t = self.head
                g = self.gposs[t]
                gpos_of = self.gpos_of[self.opp_of[self.sides[t]]]
                self.out.extend((g, gpos_of[p]) for _, p in self.results[t])
                self.results[t] = None
                self.head += 1
        finally:
            self.prop_mutex.release()

    # -- driver -----------------------------------------------------------
    def run(self) -> ParallelResult:
        """Join the whole stream once. The queue, windows and indexes are
        consumed, so a second call raises ``RuntimeError``."""
        if self.ran:
            raise RuntimeError(
                "ParallelIBWJ.run() joins a stream once; build a new "
                "ParallelIBWJ to join it again"
            )
        self.ran = True
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                while True:
                    task = self._acquire()
                    if task is None:
                        return
                    a, b = task
                    # Index update for the whole task, then result
                    # generation: a thread the GIL switches out mid-task
                    # then holds no claimed tuple back from the edge.
                    # Exact, because a lookup keeps index hits below
                    # min(edge, t_l + 1) and scans only up to t_l, so a
                    # later tuple of the task stays invisible to an
                    # earlier one; and a merge these inserts trigger
                    # evicts below the window of ``head`` (still <= a),
                    # keeping the task's windows.
                    self._index_update(a, b)
                    for t in range(a, b):
                        self.results[t] = self._lookup(t)
                        self.done[t] = True
                    self._propagate()
            except BaseException as e:  # surface worker failures to the test
                errors.append(e)

        t0 = time.perf_counter()
        # Built here, inside the timed region, because the conversion is
        # part of the join's cost.
        self.sides, self.sposs, self.xs, self.opps, self.gposs = (
            arrival_columns(self.seq)
        )
        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.n_threads)
        ]
        # GC deferred while the workers run (module docstring); the pass
        # owed fires on leaving the block, inside the timed region.
        with gc_deferred():
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        self._propagate()  # drain any tail left by try-lock skips
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]
        n_matches = len(self.out)
        return ParallelResult(
            self.out,
            n_matches,
            len(self.done),
            elapsed,
            self.n_merges,
            scanned_positions=sum(self.scan_len),
            deferred_inserts=self.deferred_inserts,
        )
