"""Chained index (paper §2.2.2, evaluated in Fig. 8b) [Lin et al., Ya-xin
et al.].

The window is covered by a chain of L sub-indexes over contiguous arrival
intervals. New tuples go to the *active* sub-index; when it holds
``w/(L-1)`` tuples it is archived and a fresh active sub-index starts.
A whole archived sub-index is discarded once every tuple in it expired —
coarse-grained disposal without individual deletes.

Two variants, as proposed and measured by the paper:

- **B-chain**: archived sub-indexes stay mutable B+-Trees.
- **IB-chain**: a sub-index is converted to an immutable B+-Tree (higher
  fan-out, faster lookups) upon archiving.

Both use the trees' default fan-outs, the paper's f_b = 16 for the
mutable and f_ib = 32 for the immutable sub-indexes.
"""
from __future__ import annotations

from repro.core.bplus_tree import BPlusTree
from repro.core.immutable_btree import ImmutableBTree


class ChainedIndex:
    """Sliding-window index as a chain of interval sub-indexes."""

    def __init__(
        self,
        window: int,
        chain_length: int = 2,
        immutable_archive: bool = False,
    ) -> None:
        if chain_length < 2:
            raise ValueError("chain_length must be >= 2")
        self.immutable_archive = immutable_archive
        self.capacity = max(1, -(-window // (chain_length - 1)))
        self.active = BPlusTree()
        # archived: list of (index, min_arrival_pos, max_arrival_pos)
        self.archived: list[tuple[object, int, int]] = []
        self._active_lo = 1  # arrival pos of the active sub-index's first tuple

    def __len__(self) -> int:
        return len(self.active) + sum(
            len(t) for t, _, _ in self.archived  # type: ignore[arg-type]
        )

    @property
    def n_subindexes(self) -> int:
        return len(self.archived) + 1

    def insert(self, key: int, pos: int) -> None:
        self.active.insert(key, pos)
        if len(self.active) >= self.capacity:
            self._archive(pos)

    def _archive(self, last_pos: int) -> None:
        if self.immutable_archive:
            keys, poss = self.active.items_arrays()
            idx: object = ImmutableBTree(keys, poss)
        else:
            idx = self.active
        self.archived.append((idx, self._active_lo, last_pos))
        self.active = BPlusTree()
        self._active_lo = last_pos + 1

    def expire(self, min_pos: int) -> int:
        """Drop archived sub-indexes whose newest tuple expired; returns
        the number of sub-indexes discarded (the paper treats this step's
        cost as negligible — it is O(dropped))."""
        dropped = 0
        while self.archived and self.archived[0][2] < min_pos:
            self.archived.pop(0)
            dropped += 1
        return dropped

    def probe(self, lo: int, hi: int, min_pos: int = -1) -> list[tuple[int, int]]:
        """Search every sub-index in the chain, filtering expired tuples."""
        out = self.active.search_range(lo, hi, min_pos)
        for idx, _, _ in self.archived:
            out.extend(idx.search_range(lo, hi, min_pos))  # type: ignore[union-attr]
        return out

    def memory_bytes(self) -> int:
        total = self.active.memory_bytes()
        for idx, _, _ in self.archived:
            total += idx.memory_bytes()  # type: ignore[union-attr]
        return total
