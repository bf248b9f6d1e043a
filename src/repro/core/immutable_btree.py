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
leaf chunk; leaf chunk ``p`` is ``keys[p*leaf_size : (p+1)*leaf_size]``.

Storage is numpy (canonical, used by merge/build vectorisation) plus
plain-list mirrors for the per-node descent: scalar ``np.searchsorted``
carries ~1 us of call overhead per node, which would invert the paper's
single-op cost ordering (an immutable-tree probe must be *cheaper* than
a classic B+-Tree descent); ``bisect`` on a list with explicit bounds is
an order of magnitude cheaper and preserves the per-node semantics.
"""
from __future__ import annotations

import bisect

import numpy as np

_ELEM_BYTES = 8


class ImmutableBTree:
    """Read-only B+-Tree over a key-sorted ``(keys, poss)`` element array."""

    def __init__(
        self,
        keys: np.ndarray,
        poss: np.ndarray,
        fanout: int = 32,
        leaf_size: int | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.fanout = fanout
        self.leaf_size = leaf_size or fanout
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
        self._level_lists: list[list[int]] = [a.tolist() for a in self.levels]
        self._level_lens: list[int] = [len(a) for a in self._level_lists]
        self.bytes_loaded = 0

    @classmethod
    def empty(cls, fanout: int = 32, leaf_size: int | None = None) -> "ImmutableBTree":
        return cls(
            np.empty(0, np.int64), np.empty(0, np.int64), fanout, leaf_size
        )

    def _build_levels(self) -> list[np.ndarray]:
        n = len(self.keys)
        if n == 0:
            return []
        # Leaf-max level: the largest key of each leaf chunk (Alg. 3's
        # per-leaf separator assignment, vectorised).
        idx = np.minimum(
            np.arange(self.leaf_size - 1, n + self.leaf_size - 1, self.leaf_size),
            n - 1,
        )
        arr = self.keys[idx]
        levels = [arr]
        while len(arr) > self.fanout:
            m = len(arr)
            tail = np.minimum(
                np.arange(self.fanout - 1, m + self.fanout - 1, self.fanout),
                m - 1,
            )
            arr = arr[tail]
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

    def n_nodes_at_depth(self, depth: int) -> int:
        """Number of inner nodes at ``depth`` (root = depth 0). Past the
        deepest inner level, returns the number of leaf chunks."""
        if not self.levels:
            return 1
        if depth <= 0:
            return 1
        if depth <= len(self.levels):
            return len(self.levels[depth - 1])
        return self.n_leaf_chunks

    @property
    def n_leaf_chunks(self) -> int:
        return max(1, -(-len(self.keys) // self.leaf_size))

    def memory_bytes(self) -> int:
        """Element storage plus pointer-free inner key arrays (4 B/key)."""
        inner = sum(len(a) for a in self.levels) * (_ELEM_BYTES // 2)
        return len(self.keys) * _ELEM_BYTES + inner

    # -- search (Algorithm 2, lines 1-12) ---------------------------------
    def route(self, key: int, depth: int) -> int:
        """Index of the depth-``depth`` node whose range covers ``key``.

        This is the T_S traversal PIM-Tree uses to pick the sub-index B_i
        (Algorithm 1, lines 1-7). ``depth`` is clamped to the available
        inner levels. Per-node search: first child whose subtree max is
        >= key, clamped to the last child.
        """
        depth = min(depth, len(self._level_lists))
        p = 0
        f = self.fanout
        for d in range(depth):
            lst = self._level_lists[d]
            lo_i = 0 if d == 0 else p * f
            hi_i = self._level_lens[d] if d == 0 else min(lo_i + f, self._level_lens[d])
            k = bisect.bisect_left(lst, key, lo_i, hi_i)
            p = k if k < hi_i else hi_i - 1
        self.bytes_loaded += depth * f * 4
        return p

    def find_start(self, lo: int) -> int:
        """Global element index of the first key >= lo.

        Implemented as one bounded binary search over the contiguous leaf
        array — the comparison sequence a maximal-fan-out CSS descent
        converges to, and the reason immutable-tree search must be
        *cheaper* than a pointer-chasing B+-Tree descent (the paper's
        lambda_ib^s < lambda_b^s). ``route`` keeps the explicit per-level
        descent for partition routing and cross-checks.
        """
        n = len(self.keys)
        if n == 0:
            return 0
        self.bytes_loaded += (self.height + 1) * self.fanout * 4
        return bisect.bisect_left(self._keys_list, lo, 0, n)

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> tuple[list[int], list[int]]:
        """Elements with lo <= key <= hi and pos >= min_pos (expiry filter).

        Descent via the inner levels, then a linear leaf scan; returns
        (keys, poss) lists sorted by key.
        """
        return self.scan(self.find_start(lo), hi, min_pos)

    def scan(
        self, start: int, hi: int, min_pos: int = -1
    ) -> tuple[list[int], list[int]]:
        """Leaf scan from element ``start`` (a ``find_start`` result)
        while key <= hi, dropping elements with pos < min_pos."""
        n = len(self.keys)
        if start >= n:
            return [], []
        end = bisect.bisect_right(self._keys_list, hi, start, n)
        if end <= start:
            return [], []
        self.bytes_loaded += (end - start) * _ELEM_BYTES
        k = self._keys_list[start:end]
        p = self._poss_list[start:end]
        if min_pos > 0:
            live = [j for j, pp in enumerate(p) if pp >= min_pos]
            if len(live) != len(p):
                k = [k[j] for j in live]
                p = [p[j] for j in live]
        return k, p

    def partition_bounds(self, depth: int) -> np.ndarray:
        """Upper key bounds of the depth-``depth`` nodes: sub-index ``i``
        covers keys in ``(bounds[i-1], bounds[i]]`` (last bound is +inf in
        spirit — routing clamps to the rightmost node)."""
        depth = min(depth, len(self.levels))
        if depth == 0 or not self.levels:
            return np.empty(0, np.int64)
        return self.levels[depth - 1]
