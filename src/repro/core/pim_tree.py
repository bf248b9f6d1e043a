"""Partitioned In-memory Merge-Tree (PIM-Tree, paper §3.3, Alg. 1-2).

Two-stage sliding-window index: the mutable stage T_I receives all
inserts; when ``|T_I| >= m * w`` the two stages merge — expired elements
of the immutable T_S are discarded and the survivors plus T_I's elements
are rebuilt bottom-up into a new T_S. Expired elements are never deleted
individually: lookups filter them by arrival position (``min_pos``), and
the merge drops them wholesale — the paper's coarse-grained
tuple-disposal scheme.

T_I is split into sub-indexes B_0..B_{n-1}, one per inner node of T_S at
the *insertion depth* D_I; each B_i covers that node's key range, so the
partitioning adapts to the data distribution at every merge. Each B_i
carries its own lock: concurrent threads route through the (lock-free,
never-mutated) T_S and contend only on the sub-index covering their key
— the paper's partition-level concurrency control. An insert finds its
B_i by one bisect over the depth-D_I bounds (Algorithm 1's descent to
D_I). A probe makes one T_S seek (Algorithm 2's descent), and the seek's
position names lo's B_i, so the probe does not search the bounds for lo.

At D_I = 0 (the root) T_I is one unpartitioned sub-index: that is the
paper's IM-Tree (§3.2), used without locks.

The per-sub-index insert counters back the drifting-distribution
experiment (paper Fig. 13a).
"""
from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from repro.core.bplus_tree import BPlusTree
from repro.core.immutable_btree import ImmutableBTree


def merge_sorted(
    sk: np.ndarray, sp: np.ndarray, ik: np.ndarray, ip: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two key-sorted (keys, poss) runs in linear time — the
    streaming merge step of Eq. 7 (both runs are already sorted: T_S by
    construction, T_I by leaf-chain extraction)."""
    if len(ik) == 0:
        return sk, sp
    if len(sk) == 0:
        return ik, ip
    at = np.searchsorted(sk, ik, side="right")
    return np.insert(sk, at, ik), np.insert(sp, at, ip)


class PIMTree:
    """Two-stage partitioned sliding-window index.

    Parameters mirror the paper: ``window`` is w, ``merge_ratio`` is m
    (0 < m <= 1), ``insertion_depth`` is D_I (root = depth 0). The
    sub-indexes are ``BPlusTree``s at their default fan-out (f_b = 16)
    and T_S an ``ImmutableBTree`` (f_ib = 32), the paper's values. While
    T_S is empty (before the first merge) there is a single sub-index.
    """

    def __init__(
        self,
        window: int,
        merge_ratio: float = 0.125,
        insertion_depth: int = 2,
        use_locks: bool = True,
    ) -> None:
        if not (0 < merge_ratio <= 1):
            raise ValueError("merge_ratio must be in (0, 1]")
        if insertion_depth < 0:
            raise ValueError("insertion_depth must be >= 0")
        # use_locks=False is the paper's "without concurrency control"
        # single-threaded variant (Fig. 12a); never share such a tree
        # across threads.
        self.use_locks = use_locks
        self.window = window
        self.merge_ratio = merge_ratio
        self.insertion_depth = insertion_depth
        self.t_s = ImmutableBTree.empty()
        self._reset_subindexes()
        self.merge_threshold = max(1, int(merge_ratio * window))
        self.n_merges = 0
        self.lock_acquisitions = 0
        # (loaded, stored) bytes of the T_S and sub-indexes that merges
        # retired, plus each merge's T_S writes (``bytes_moved``).
        self._bytes_carried = (0, 0)

    # -- structure maintenance -------------------------------------------
    def _reset_subindexes(self) -> None:
        # Upper bounds of the depth-D_I nodes but the last: routing an
        # insert is one binary search over these, the comparison sequence
        # of a CSS descent from the root to D_I (D_I*log2(f_ib)
        # comparisons). Dropping the last bound routes keys above every
        # node to the rightmost sub-index, so there is one sub-index per
        # bound kept, plus that one. A probe routes by its T_S seek
        # instead: node i holds T_S elements [i*span, (i+1)*span).
        d_i = self.insertion_depth
        self._bounds: list[int] = self.t_s.partition_bounds(d_i).tolist()[:-1]
        self._span = self.t_s.partition_span(d_i)
        n = len(self._bounds) + 1
        self.subindexes: list[BPlusTree] = [BPlusTree() for _ in range(n)]
        # Trees without concurrency control never lock, so they build no
        # locks at each merge.
        self.locks = (
            [threading.Lock() for _ in range(n)] if self.use_locks else []
        )
        self._n_i = 0
        # Inserts per sub-index since the merge; sub-indexes never delete,
        # so this is also each one's size. A plain list: a numpy scalar
        # += in the insert hot path costs more than the sub-index insert
        # itself, and the probe's emptiness check reads a list slot
        # instead of calling BPlusTree.__len__.
        self.insert_counts: list[int] = [0] * n

    def _rebuild(self, src: "PIMTree", min_pos: int) -> int:
        """Make T_S the live T_S elements of ``src`` merged with all of
        its sub-index elements, re-initialise the sub-indexes against the
        new partitioning, and continue ``src``'s merge and byte counters.

        Sub-indexes cover disjoint ascending key ranges, so walking the
        leaf chains of the non-empty ones in partition order, in one
        ``items_arrays`` call, yields one sorted T_I run; the T_S run is
        then merged in linear time. Returns the merged element count
        (linear merge cost, Fig. 14).
        """
        parts = [b for b, c in zip(src.subindexes, src.insert_counts) if c]
        if parts:
            ik, ip = parts[0].items_arrays(*parts[1:])
        else:
            ik = ip = np.empty(0, np.int64)
        live = src.t_s.poss >= min_pos
        keys, poss = merge_sorted(src.t_s.keys[live], src.t_s.poss[live], ik, ip)
        loaded, stored = src.bytes_moved()
        self.t_s = ImmutableBTree(keys, poss)
        self._reset_subindexes()
        self.n_merges = src.n_merges + 1
        self._bytes_carried = (loaded, stored + len(keys) * 8)
        return len(keys)

    def bytes_moved(self) -> tuple[int, int]:
        """(bytes loaded, bytes stored) since the tree was built, merges
        included: the carried totals plus the live T_S and sub-index
        counters, which each merge replaces."""
        loaded, stored = self._bytes_carried
        for b in self.subindexes:
            loaded += b.bytes_loaded
            stored += b.bytes_stored
        return loaded + self.t_s.bytes_loaded, stored

    @property
    def n_subindexes(self) -> int:
        return len(self.subindexes)

    def __len__(self) -> int:
        return self._n_i + len(self.t_s)

    def needs_merge(self) -> bool:
        return self._n_i >= self.merge_threshold

    # -- operations (Algorithm 1) -----------------------------------------
    def insert(self, key: int, pos: int) -> int:
        b = self._bounds
        i = bisect_left(b, key) if b else 0
        if not self.use_locks:
            self.subindexes[i].insert(key, pos)
            self.insert_counts[i] += 1
            self._n_i += 1
            return i
        lock = self.locks[i]
        lock.acquire()
        try:
            self.lock_acquisitions += 1
            self.subindexes[i].insert(key, pos)
            self.insert_counts[i] += 1
            self._n_i += 1
        finally:
            lock.release()
        return i

    def merge(self, min_pos: int) -> int:
        """Rebuild T_S from live T_S elements + all sub-index elements and
        re-initialise the sub-indexes against the new partitioning.

        Returns the merged element count (linear merge cost, Fig. 14).
        """
        return self._rebuild(self, min_pos)

    @classmethod
    def merged_copy(cls, old: "PIMTree", min_pos: int) -> "PIMTree":
        """Nonblocking-merge phase 1 (paper §4.2): build a fresh PIM-Tree
        holding ``old``'s live elements *without mutating* ``old``, so
        readers may keep using the old tree until the swap."""
        new = cls(
            old.window,
            old.merge_ratio,
            old.insertion_depth,
            use_locks=old.use_locks,
        )
        new._rebuild(old, min_pos)
        return new

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """Matches from T_S (expiry-filtered, lock-free), then from the
        covering sub-indexes (``search_subindexes``), which the T_S seek
        locates: Algorithm 2's one descent."""
        t_s = self.t_s
        start = t_s.find_start(lo)
        return self.search_subindexes(
            lo, hi, min_pos, t_s.scan(start, hi, min_pos), start
        )

    def search_subindexes(
        self,
        lo: int,
        hi: int,
        min_pos: int,
        out: list[tuple[int, int]],
        start: int,
    ) -> list[tuple[int, int]]:
        """Extend ``out`` with the matches of the sub-indexes whose key
        ranges meet ``[lo, hi]`` and return it: the T_I part of a probe.
        ``start`` is T_S's ``find_start(lo)``.

        The seek position names lo's sub-index: bound i is the last key
        of node i's span of T_S elements, so the first key >= lo lies in
        node ``start // span`` (clamped to the last node, which takes the
        keys above every bound), and bisecting the bounds for lo would
        give the same index. Walks those sub-indexes under their locks —
        the lock hand-off of Algorithm 2's linked-leaf scan, expressed
        per partition.
        """
        # Bands are narrow relative to partition widths: when hi falls
        # inside lo's partition the search for hi is skipped (the common
        # case; mirrors Algorithm 2's range check).
        b = self._bounds
        n = len(b)
        i = start // self._span
        if i >= n:
            i = last = n
        else:
            last = i if hi <= b[i] else bisect_left(b, hi, i + 1)
        # Empty sub-indexes (no inserts since the last merge) are skipped
        # without locking — Algorithm 2's range check against chains of
        # empty sub-indexes; benign under concurrency because
        # non-indexed tuples are covered by the parallel driver's linear
        # window scan.
        counts = self.insert_counts
        if not self.use_locks:
            while i <= last:
                if counts[i]:
                    out.extend(self.subindexes[i].search_range(lo, hi, min_pos))
                i += 1
            return out
        while i <= last:
            if counts[i]:
                with self.locks[i]:
                    self.lock_acquisitions += 1
                    out.extend(self.subindexes[i].search_range(lo, hi, min_pos))
            i += 1
        return out

    def probe_locks(self, hi: int, start: int) -> tuple[int, ...]:
        """The sub-indexes ``search_subindexes(lo, hi, ..., start)`` locks:
        the non-empty ones of its span. Measure mode records them."""
        b, counts = self._bounds, self.insert_counts
        i = min(start // self._span, len(b))
        if i == len(b) or hi <= b[i]:  # one sub-index, the common case
            return (i,) if counts[i] else ()
        last = bisect_left(b, hi, i + 1)
        return tuple(k for k in range(i, last + 1) if counts[k])

    def memory_bytes(self) -> int:
        return (
            self.t_s.memory_bytes()
            + sum(b.memory_bytes() for b in self.subindexes)
            + len(self) * 8  # nonblocking-merge buffer
        )
