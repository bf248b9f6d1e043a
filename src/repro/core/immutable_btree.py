"""Immutable B+-Tree (CSS-Tree, Rao & Ross 1999) — the paper's T_S.

T_S is a key-sorted ``(keys, poss)`` element array, built at each merge
from the merged run (Algorithm 3) and never mutated. The CSS layout over
it is implicit: leaf chunk ``p`` is ``keys[p*f : (p+1)*f]``, and each
inner node holds the max key of each of its ``f`` children, so a node of
depth d covers ``f^(L - d + 1)`` consecutive elements, L being the number
of inner levels. No inner key array is stored; PIM-Tree needs only two
things from T_S, and both are arithmetic on ``keys``:

- the key bounds of the depth-D_I nodes, which cut T_I into sub-indexes
  (Algorithm 1): ``partition_bounds`` reads every
  ``partition_span(d) = f^(L - d + 1)``-th key;
- one seek per probe (Algorithm 2): ``find_start`` bisects the element
  keys, the comparison sequence a CSS descent converges to. The byte
  model still charges the descent the layout implies, ``(height + 1) *
  f * 4`` B per seek. Like the descent, the seek passes the depth-D_I
  node on its way: its result divided by ``partition_span(D_I)`` is
  that node's index, so a probe needs no second search to find its
  sub-index.

Storage is numpy (used by the vectorised merge and the bounds) plus
plain-list mirrors of the elements for the probe: a range search bisects
the element-key list for the first key >= lo, then walks the mirrors
forward while key <= hi, filtering expired positions as it goes. A band
longer than ``_WALK`` elements instead bisects for its end too and
filters list slices, which is cheaper per element than the walk. Scalar
``np.searchsorted`` carries ~1 us of call overhead, which would invert
the paper's single-op cost ordering (an immutable-tree probe must be
*cheaper* than a classic B+-Tree descent); ``bisect`` on a list is an
order of magnitude cheaper. Neither copy can go: without the lists the
probe loses ``bisect``, and without the numpy arrays each merge converts
the lists back, 7.26 ms against 4.03 ms per merge of 36,864 T_S and
4,096 T_I elements (minimum of 30; CPython 3.11 on a 4-core Xeon VM). A
range search returns Python ``(key, pos)`` pairs read from the mirrors,
so callers extend their results without converting.
"""
from __future__ import annotations

import bisect

import numpy as np

_ELEM_BYTES = 8
# The paper's node fan-out f_ib: elements per leaf chunk and children per
# inner node.
_FANOUT = 32
# Longest band the scan walks element by element. Past it, one more
# bisect plus a slice-and-filter costs less than the walk: the two break
# even near 32 elements (CPython 3.11 on a 4-core Xeon VM).
_WALK = 32


class ImmutableBTree:
    """Read-only B+-Tree over a key-sorted ``(keys, poss)`` element array."""

    def __init__(self, keys: np.ndarray, poss: np.ndarray) -> None:
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        self.poss = np.ascontiguousarray(poss, dtype=np.int64)
        if len(self.keys) != len(self.poss):
            raise ValueError("keys and poss must have equal length")
        if len(self.keys) > 1 and np.any(np.diff(self.keys) < 0):
            raise ValueError("keys must be sorted ascending")
        # list mirrors for the bisect-based hot path
        self._keys_list: list[int] = self.keys.tolist()
        self._poss_list: list[int] = self.poss.tolist()
        self._n = len(self._keys_list)
        # Node counts of the inner levels, deepest first: one key per
        # leaf chunk, then one per f nodes below, up to a root of <= f.
        self._inner_sizes: list[int] = []
        m = self._n
        while m and (not self._inner_sizes or m > _FANOUT):
            m = -(-m // _FANOUT)
            self._inner_sizes.append(m)
        # modelled bytes of one root-to-leaf descent, charged per probe
        self._descent_bytes = (self.height + 1) * _FANOUT * 4
        self.bytes_loaded = 0

    @classmethod
    def empty(cls) -> "ImmutableBTree":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    # -- properties -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def height(self) -> int:
        """Number of inner levels (root at depth 0) plus the leaf level."""
        return len(self._inner_sizes) + (1 if self._n else 0)

    def memory_bytes(self) -> int:
        """Element storage plus the CSS layout's inner keys (4 B/key)."""
        inner = sum(self._inner_sizes) * (_ELEM_BYTES // 2)
        return len(self.keys) * _ELEM_BYTES + inner

    # -- search (Algorithm 2) ---------------------------------------------
    def find_start(self, lo: int) -> int:
        """Global element index of the first key >= lo (the seek).

        Implemented as one bounded binary search over the contiguous leaf
        array — the comparison sequence a maximal-fan-out CSS descent
        converges to, and the reason immutable-tree search must be
        *cheaper* than a pointer-chasing B+-Tree descent (the paper's
        lambda_ib^s < lambda_b^s).
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

    def partition_span(self, depth: int) -> int:
        """Elements per depth-``depth`` node, ``s = f^(L - d + 1)``, L
        being the number of inner levels. ``depth`` is clamped to L, so
        past the deepest level this is the leaf chunk size f; at depth 0,
        or on an empty tree, it is the root's f^(L + 1).

        Node ``i`` at that depth holds elements ``[i*s, (i+1)*s)``, so a
        seek's result names the node below it: ``find_start(lo) // s``,
        clamped to the last node, is the node a descent to that depth
        reaches, and PIM-Tree's probe reads its sub-index from it."""
        n_inner = len(self._inner_sizes)
        return _FANOUT ** (n_inner - min(depth, n_inner) + 1)

    def partition_bounds(self, depth: int) -> np.ndarray:
        """Upper key bounds of the depth-``depth`` nodes: sub-index ``i``
        covers keys in ``(bounds[i-1], bounds[i]]`` (last bound is +inf in
        spirit — routing clamps to the rightmost node). Bound ``i`` is
        the last key of node ``i``'s ``partition_span(depth)`` elements,
        so past the deepest inner level these are the leaf chunks'
        bounds. Depth 0, the root, has none."""
        if depth == 0:
            return np.empty(0, np.int64)
        n = self._n
        s = self.partition_span(depth)
        return self.keys[np.minimum(np.arange(s - 1, n + s - 1, s), n - 1)]
