"""Bw-Tree-like latch-free index substitute (paper's comparator [17]).

The real comparator is Microsoft's C++ Bw-Tree. We implement the parts
whose *behaviour* the paper measures (DESIGN.md §3.2): a mapping table of
pages, each an immutable sorted base array plus a prepend-only delta
chain of inserts/deletes; readers traverse the delta chain before the
base (the Bw-Tree cost signature), and a page is consolidated once its
chain exceeds ``consolidate_at``. Pages split when the consolidated size
exceeds ``page_capacity``, keyed through a sorted boundary array standing
in for the mapping-table parent links.

Single-threaded costs are measured from this structure; multi-threaded
CAS-conflict behaviour (retry probability ∝ ops colliding on one of
its pages) is reproduced in ``repro.concurrency.simulator``.
"""
from __future__ import annotations

import bisect

import numpy as np


class _Page:
    __slots__ = ("base_keys", "base_poss", "deltas", "bound")

    def __init__(
        self, keys: np.ndarray, poss: np.ndarray, bound: int | None = None
    ) -> None:
        self.base_keys = keys
        self.base_poss = poss
        # delta record: (op, key, pos); op +1 insert, -1 delete
        self.deltas: list[tuple[int, int, int]] = []
        # Explicit routing upper bound (None = +inf, the rightmost page).
        # Derived bounds (page base max) would strand delta records whose
        # key exceeds the base max when an unrelated split rebuilds the
        # boundary array.
        self.bound = bound


class BwTreeLike:
    """Delta-chain page index with consolidation and page splits."""

    def __init__(
        self, page_capacity: int = 64, consolidate_at: int = 8
    ) -> None:
        if page_capacity < 8:
            raise ValueError("page_capacity must be >= 8")
        self.page_capacity = page_capacity
        self.consolidate_at = consolidate_at
        e = np.empty(0, np.int64)
        self.pages: list[_Page] = [_Page(e, e)]
        self.bounds: list[int] = []  # bounds[i] = max key routed to pages[i]
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def seek(self, key: int) -> int:
        """Index of the page ``key`` routes to: the descent a reader
        makes without a latch."""
        return bisect.bisect_left(self.bounds, key) if self.bounds else 0

    # -- mutation ---------------------------------------------------------
    def insert(self, key: int, pos: int) -> None:
        i = self.seek(key)
        page = self.pages[i]
        page.deltas.append((1, key, pos))
        self._n += 1
        if len(page.deltas) > self.consolidate_at:
            self._consolidate(i)

    def delete(self, key: int, pos: int) -> bool:
        # Duplicate keys may straddle a page boundary (the boundary key
        # equals ``key``); walk right while that holds, like a B+-Tree
        # leaf-chain walk over a duplicate run.
        i = self.seek(key)
        while i < len(self.pages):
            page = self.pages[i]
            if self._contains(page, key, pos):
                page.deltas.append((-1, key, pos))
                self._n -= 1
                if len(page.deltas) > self.consolidate_at:
                    self._consolidate(i)
                return True
            if i < len(self.bounds) and self.bounds[i] == key:
                i += 1
                continue
            return False
        return False

    def _contains(self, page: _Page, key: int, pos: int) -> bool:
        alive = 0
        for op, k, p in reversed(page.deltas):
            if k == key and p == pos:
                alive += op
        if alive > 0:
            return True
        if alive < 0:
            return False
        j = int(np.searchsorted(page.base_keys, key, side="left"))
        while j < len(page.base_keys) and page.base_keys[j] == key:
            if page.base_poss[j] == pos:
                return True
            j += 1
        return False

    def _materialise(self, page: _Page) -> tuple[np.ndarray, np.ndarray]:
        """Apply the delta chain to the base (newest-wins per element)."""
        if not page.deltas:
            return page.base_keys, page.base_poss
        dead: set[tuple[int, int]] = set()
        add_k: list[int] = []
        add_p: list[int] = []
        for op, k, p in page.deltas:
            if op > 0:
                add_k.append(k)
                add_p.append(p)
            else:
                dead.add((k, p))
        keys = np.concatenate([page.base_keys, np.asarray(add_k, np.int64)])
        poss = np.concatenate([page.base_poss, np.asarray(add_p, np.int64)])
        order = np.argsort(keys, kind="stable")
        keys, poss = keys[order], poss[order]
        if dead:
            keep = np.ones(len(keys), bool)
            for j in range(len(keys)):
                e = (int(keys[j]), int(poss[j]))
                if e in dead:
                    keep[j] = False
                    dead.discard(e)
            keys, poss = keys[keep], poss[keep]
        return keys, poss

    def _consolidate(self, i: int) -> None:
        page = self.pages[i]
        keys, poss = self._materialise(page)
        if len(keys) <= self.page_capacity:
            self.pages[i] = _Page(keys, poss, page.bound)
            return
        # Split into half-capacity pages; the split inherits the old
        # page's upper bound and introduces interior bounds at the new
        # pages' base maxima.
        step = self.page_capacity // 2
        new_pages = [
            _Page(keys[j : j + step], poss[j : j + step])
            for j in range(0, len(keys), step)
        ]
        for np_ in new_pages[:-1]:
            np_.bound = int(np_.base_keys[-1])
        new_pages[-1].bound = page.bound
        self.pages[i : i + 1] = new_pages
        self._rebuild_bounds()

    def _rebuild_bounds(self) -> None:
        self.bounds = [p.bound for p in self.pages[:-1]]

    # -- search -----------------------------------------------------------
    def search_range(
        self, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """Pairs with lo <= key <= hi and pos >= min_pos: seek, then scan."""
        return self.scan(self.seek(lo), lo, hi, min_pos)

    def scan(
        self, i: int, lo: int, hi: int, min_pos: int = -1
    ) -> list[tuple[int, int]]:
        """The page read: pages from ``i`` (a ``seek(lo)`` result) on,
        each delta chain applied to its base, until one passes ``hi``."""
        out: list[tuple[int, int]] = []
        while i < len(self.pages):
            page = self.pages[i]
            keys, poss = self._materialise(page)
            if len(keys):
                a = int(np.searchsorted(keys, lo, side="left"))
                b = int(np.searchsorted(keys, hi, side="right"))
                for j in range(a, b):
                    if poss[j] >= min_pos:
                        out.append((int(keys[j]), int(poss[j])))
                if keys[-1] > hi:
                    break
            if self.bounds and i < len(self.bounds) and self.bounds[i] > hi:
                break
            i += 1
        return out

    def memory_bytes(self) -> int:
        total = 0
        for p in self.pages:
            total += len(p.base_keys) * 8 + len(p.deltas) * 24
        return total
