"""Classic mutable B+-Tree (the paper's STX-B+-Tree stand-in).

Node-based, child references stored explicitly, configurable fan-out.
Elements are ``(key, pos)`` pairs where ``pos`` is the per-stream arrival
position; duplicate keys are allowed and are disambiguated by ``pos``.

Used as: the IBWJ baseline index, the mutable component (T_I) of IM-Tree,
the sub-indexes (B_i) of PIM-Tree, and the active sub-index of the
chained index.

Deletion removes the element from its leaf without underflow rebalancing
(empty leaves are unlinked lazily). Sliding-window workloads delete in
FIFO arrival order over uniformly distributed keys, so leaves drain
roughly evenly and the tree stays balanced by splits alone; this matches
the access pattern the paper's baseline exercises.
"""
from __future__ import annotations

import bisect

import numpy as np

_ELEM_BYTES = 8  # 4 B key + 4 B window reference, as in the paper (Fig 11a)
_PTR_BYTES = 8


class _Leaf:
    __slots__ = ("keys", "poss", "nxt")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.poss: list[int] = []
        self.nxt: _Leaf | None = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[int] = []  # keys[i] = max key of children[i]
        self.children: list = []


class BPlusTree:
    """In-memory B+-Tree keyed by int with (key, pos) elements.

    ``fanout`` is the maximum number of children of an inner node and the
    maximum number of elements in a leaf; nodes split at fanout+1.
    """

    def __init__(self, fanout: int = 16) -> None:
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        self.fanout = fanout
        self._root: _Leaf | _Inner = _Leaf()
        self._height = 1  # number of levels including leaf level
        self._n = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0

    # -- basic properties -------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def height(self) -> int:
        return self._height

    def memory_bytes(self) -> int:
        """Modeled footprint: 8 B/element in leaves + child pointers/keys
        in inner nodes, mirroring the paper's 4 B key + 4 B reference
        accounting."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                total += len(node.keys) * _ELEM_BYTES + 2 * _PTR_BYTES
            else:
                total += len(node.keys) * (_ELEM_BYTES // 2 + _PTR_BYTES)
                stack.extend(node.children)
        return total

    # -- mutation ---------------------------------------------------------
    def insert(self, key: int, pos: int) -> None:
        """Insert one element, splitting nodes bottom-up as needed."""
        path: list[tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            i = bisect.bisect_left(node.keys, key)
            if i == len(node.keys):
                i -= 1
                node.keys[i] = key  # extend max key of rightmost subtree
            path.append((node, i))
            node = node.children[i]
        i = bisect.bisect_right(node.keys, key)
        node.keys.insert(i, key)
        node.poss.insert(i, pos)
        self._n += 1
        self.bytes_stored += _ELEM_BYTES
        self.bytes_loaded += (self._height - 1) * self.fanout * 4
        if len(node.keys) > self.fanout:
            self._split_leaf(node, path)

    def _split_leaf(self, leaf: _Leaf, path: list[tuple[_Inner, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys, leaf.keys = leaf.keys[mid:], leaf.keys[:mid]
        right.poss, leaf.poss = leaf.poss[mid:], leaf.poss[:mid]
        right.nxt = leaf.nxt
        leaf.nxt = right
        self._insert_in_parent(leaf, leaf.keys[-1], right, right.keys[-1], path)

    def _insert_in_parent(
        self,
        left,
        left_max: int,
        right,
        right_max: int,
        path: list[tuple[_Inner, int]],
    ) -> None:
        if not path:
            root = _Inner()
            root.keys = [left_max, right_max]
            root.children = [left, right]
            self._root = root
            self._height += 1
            return
        parent, idx = path.pop()
        parent.keys[idx] = left_max
        parent.keys.insert(idx + 1, right_max)
        parent.children.insert(idx + 1, right)
        if len(parent.children) > self.fanout:
            mid = len(parent.children) // 2
            rnode = _Inner()
            rnode.keys, parent.keys = parent.keys[mid:], parent.keys[:mid]
            rnode.children, parent.children = (
                parent.children[mid:],
                parent.children[:mid],
            )
            self._insert_in_parent(
                parent, parent.keys[-1], rnode, rnode.keys[-1], path
            )

    def delete(self, key: int, pos: int) -> bool:
        """Remove the element ``(key, pos)``; returns False if absent.

        Walks right through duplicate-key runs that cross leaf boundaries.
        """
        path: list[tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            i = bisect.bisect_left(node.keys, key)
            if i == len(node.keys):
                return False
            path.append((node, i))
            node = node.children[i]
        leaf: _Leaf | None = node
        while leaf is not None:
            i = bisect.bisect_left(leaf.keys, key)
            while i < len(leaf.keys) and leaf.keys[i] == key:
                if leaf.poss[i] == pos:
                    leaf.keys.pop(i)
                    leaf.poss.pop(i)
                    self._n -= 1
                    self.bytes_stored += _ELEM_BYTES
                    # Empty leaves stay linked: inserts still route to them
                    # via the (stale but upper-bounding) parent keys, so
                    # unlinking would hide later insertions from scans.
                    return True
                i += 1
            if i < len(leaf.keys):  # saw a key > target: not present
                return False
            leaf = leaf.nxt
        return False

    # -- search -----------------------------------------------------------
    def seek(self, lo: int) -> tuple[_Leaf | None, int]:
        """Descend to the first element with key >= lo (search step only).
        Charges one ``fanout * 4`` B node load per inner level, counted
        locally and written once."""
        node = self._root
        levels = 0
        while isinstance(node, _Inner):
            keys = node.keys
            # first child whose max key >= lo, clamped to the last child
            node = node.children[bisect.bisect_left(keys, lo, 0, len(keys) - 1)]
            levels += 1
        if levels:
            self.bytes_loaded += levels * self.fanout * 4
        i = bisect.bisect_left(node.keys, lo)
        while node is not None and i >= len(node.keys):
            node = node.nxt
            i = 0
        return node, i

    def scan(
        self, leaf: _Leaf | None, i: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """Linear leaf scan from (leaf, i) while key <= hi; drops elements
        with pos < min_pos (expired-tuple filtering). Charges 8 B per
        element read with key <= hi, summed locally and written once."""
        out: list[tuple[int, int]] = []
        n_read = 0
        while leaf is not None:
            keys, poss = leaf.keys, leaf.poss
            n = len(keys)
            j = i
            while j < n:
                k = keys[j]
                if k > hi:
                    self.bytes_loaded += (n_read + j - i) * _ELEM_BYTES
                    return out
                p = poss[j]
                if p >= min_pos:
                    out.append((k, p))
                j += 1
            n_read += n - i
            leaf = leaf.nxt
            i = 0
        self.bytes_loaded += n_read * _ELEM_BYTES
        return out

    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """All elements with lo <= key <= hi and pos >= min_pos, key-sorted."""
        leaf, i = self.seek(lo)
        return self.scan(leaf, i, hi, min_pos)

    def items_arrays(self, *more: "BPlusTree") -> tuple[np.ndarray, np.ndarray]:
        """All elements of this tree, then of each tree in ``more``, as
        numpy arrays (keys, poss); each tree's part is in key order.

        Collected leaf-by-leaf with list extends into one pair of lists,
        converted once — this is the bulk extraction path merges use (a
        PIM-Tree passes all its sub-indexes in one call); per-element
        Python iteration, or one array pair per tree, would dominate the
        (linear) merge cost otherwise.
        """
        keys: list[int] = []
        poss: list[int] = []
        for tree in (self, *more):
            node = tree._root
            while isinstance(node, _Inner):
                node = node.children[0]
            leaf: _Leaf | None = node
            while leaf is not None:
                keys += leaf.keys
                poss += leaf.poss
                leaf = leaf.nxt
        return np.asarray(keys, np.int64), np.asarray(poss, np.int64)
