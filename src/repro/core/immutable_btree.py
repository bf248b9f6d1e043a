"""Immutable B+-Tree (CSS-Tree style) — the paper's T_S component.

Nodes are arranged level-by-level in breadth-first order inside flat
arrays; child positions are derived from a node's position (Appendix
A.3), so no child references are stored and inner fan-out is higher than
the mutable tree's for the same node size. The tree is built bottom-up
from a sorted array (Algorithm 3, vectorised) and never mutated; PIM-/
IM-Tree rebuild it wholesale at each merge.

Level layout: ``levels[d]`` holds one key per node of depth d+1 (the max
key of that node's subtree); node ``p`` at depth d>=1 owns the slice
``levels[d][p*f : (p+1)*f]``. ``levels[-1]`` holds the max key of each
leaf chunk; leaf chunk ``p`` is ``keys[p*f : (p+1)*f]``, so a leaf chunk
holds ``fanout`` elements, like an inner node.

Storage is numpy (canonical, used by merge/build vectorisation) plus
plain-list mirrors of the elements for the hot path: a range search
bisects the element-key list for the first key >= lo, then walks the
mirrors forward while key <= hi, filtering expired positions as it goes.
A band longer than ``_WALK`` elements instead bisects for its end too and
filters list slices, which is cheaper per element than the walk. (``route``,
the test-only reference descent, bisects the numpy inner levels
directly.) Scalar ``np.searchsorted`` carries ~1 us of call overhead,
which would invert the paper's single-op cost ordering (an
immutable-tree probe must be *cheaper* than a classic B+-Tree descent);
``bisect`` on a list is an order of magnitude cheaper. A range search
returns Python ``(key, pos)`` pairs read from the mirrors, so callers
extend their result lists without converting.
"""
from __future__ import annotations

import bisect

import numpy as np

_ELEM_BYTES = 8
# Longest band the scan walks element by element. Past it, one more
# bisect plus a slice-and-filter costs less than the walk: the two break
# even near 32 elements (CPython 3.11 on a 4-core Xeon VM).
_WALK = 32


class ImmutableBTree:
    """Read-only B+-Tree over a key-sorted ``(keys, poss)`` element array."""

    def __init__(
        self, keys: np.ndarray, poss: np.ndarray, fanout: int = 32
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.fanout = fanout
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        self.poss = np.ascontiguousarray(poss, dtype=np.int64)
        if len(self.keys) != len(self.poss):
            raise ValueError("keys and poss must have equal length")
        if len(self.keys) > 1 and np.any(np.diff(self.keys) < 0):
            raise ValueError("keys must be sorted ascending")
        self.levels: list[np.ndarray] = self._build_levels()
        # list mirrors for the bisect-based hot path
        self._keys_list: list[int] = self.keys.tolist()
        self._poss_list: list[int] = self.poss.tolist()
        self._n = len(self._keys_list)
        # modelled bytes of one root-to-leaf descent, charged per probe
        self._descent_bytes = (self.height + 1) * self.fanout * 4
        self.bytes_loaded = 0

    @classmethod
    def empty(cls) -> "ImmutableBTree":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    def _build_levels(self) -> list[np.ndarray]:
        n = len(self.keys)
        if n == 0:
            return []
        # Leaf-max level: the largest key of each leaf chunk (Alg. 3's
        # per-leaf separator assignment, vectorised); each inner level
        # takes the largest key of every ``fanout`` entries below it.
        f = self.fanout
        arr = self.keys
        levels = []
        while not levels or len(arr) > f:
            m = len(arr)
            arr = arr[np.minimum(np.arange(f - 1, m + f - 1, f), m - 1)]
            levels.append(arr)
        levels.reverse()  # levels[0] = root key array
        return levels

    # -- properties -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def height(self) -> int:
        """Number of inner levels (root at depth 0) plus the leaf level."""
        return len(self.levels) + (1 if len(self.keys) else 0)

    def memory_bytes(self) -> int:
        """Element storage plus pointer-free inner key arrays (4 B/key)."""
        inner = sum(len(a) for a in self.levels) * (_ELEM_BYTES // 2)
        return len(self.keys) * _ELEM_BYTES + inner

    # -- search (Algorithm 2, lines 1-12) ---------------------------------
    def route(self, key: int, depth: int) -> int:
        """Index of the depth-``depth`` node whose range covers ``key``.

        This is the T_S traversal that picks PIM-Tree's sub-index B_i
        (Algorithm 1, lines 1-7); PIM-Tree runs it as one binary search
        over the depth-``depth`` bounds, and tests check that search
        against this reference descent. ``depth`` is clamped to the
        available inner levels. Per-node search: first child whose
        subtree max is >= key, clamped to the last child.
        """
        depth = min(depth, len(self.levels))
        p = 0
        f = self.fanout
        for d in range(depth):
            lvl = self.levels[d]
            lo_i = 0 if d == 0 else p * f
            hi_i = len(lvl) if d == 0 else min(lo_i + f, len(lvl))
            k = bisect.bisect_left(lvl, key, lo_i, hi_i)
            p = k if k < hi_i else hi_i - 1
        self.bytes_loaded += depth * f * 4
        return p

    def find_start(self, lo: int) -> int:
        """Global element index of the first key >= lo (the seek).

        Implemented as one bounded binary search over the contiguous leaf
        array — the comparison sequence a maximal-fan-out CSS descent
        converges to, and the reason immutable-tree search must be
        *cheaper* than a pointer-chasing B+-Tree descent (the paper's
        lambda_ib^s < lambda_b^s). ``route`` keeps the explicit per-level
        descent as the reference for partition routing.
        """
        n = self._n
        if not n:
            return 0
        self.bytes_loaded += self._descent_bytes
        return bisect.bisect_left(self._keys_list, lo, 0, n)

    def scan(self, start: int, hi: int, min_pos: int = -1) -> list[tuple[int, int]]:
        """``(key, pos)`` pairs from element ``start`` (a ``find_start``
        result) while key <= hi, dropping pairs with pos < min_pos.

        A band of at most ``_WALK`` elements, the common case at the
        paper's match rates, is walked with the expiry filter inline, so
        its cost is proportional to its length. A longer band, told by
        the one key ``_WALK`` slots ahead, bisects for its end and filters
        list slices. Either way 8 B are charged per element with key <= hi.
        """
        keys = self._keys_list
        n = self._n
        stop = start + _WALK
        if stop < n and keys[stop] <= hi:
            end = bisect.bisect_right(keys, hi, stop + 1, n)
            self.bytes_loaded += (end - start) * _ELEM_BYTES
            pairs = zip(keys[start:end], self._poss_list[start:end])
            if min_pos <= 0:
                return list(pairs)
            return [kp for kp in pairs if kp[1] >= min_pos]
        if stop > n:
            stop = n
        poss = self._poss_list
        out = []
        j = start
        while j < stop:
            k = keys[j]
            if k > hi:
                break
            p = poss[j]
            if p >= min_pos:
                out.append((k, p))
            j += 1
        self.bytes_loaded += (j - start) * _ELEM_BYTES
        return out

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """``(key, pos)`` pairs with lo <= key <= hi and pos >= min_pos
        (expiry filter), sorted by key: the seek, then the scan."""
        return self.scan(self.find_start(lo), hi, min_pos)

    def partition_bounds(self, depth: int) -> np.ndarray:
        """Upper key bounds of the depth-``depth`` nodes: sub-index ``i``
        covers keys in ``(bounds[i-1], bounds[i]]`` (last bound is +inf in
        spirit — routing clamps to the rightmost node). ``depth`` is
        clamped like ``route``'s, so past the deepest inner level these
        are the leaf chunks' bounds."""
        depth = min(depth, len(self.levels))
        if depth == 0 or not self.levels:
            return np.empty(0, np.int64)
        return self.levels[depth - 1]
