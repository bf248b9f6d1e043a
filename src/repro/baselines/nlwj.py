"""Nested-Loop Window Join window store (paper §5.1 baseline).

The sliding window is a ring buffer of (key, pos); a probe is a full
linear scan. Scans are vectorised with numpy — consistent with the rest
of the repo, where every *leaf/window scan* is vectorised and every *tree
step* is interpreted Python, so relative shapes (NLWJ linear in w, index
roughly logarithmic) are preserved even though the crossover sits at a
smaller w than on the paper's C++ testbed (see DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np


class NLWJWindow:
    """Ring-buffer count-based sliding window with linear band probes."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.keys = np.zeros(window, np.int64)
        self.poss = np.full(window, -1, np.int64)
        self.bytes_loaded = 0

    def insert(self, key: int, pos: int) -> None:
        """Overwrites the expired slot — insert and coarse delete in one:
        slot (pos - 1) mod w is reused only by pos + w, once pos is out of
        the window."""
        i = (pos - 1) % self.window
        self.keys[i] = key
        self.poss[i] = pos

    def probe(self, lo: int, hi: int, min_pos: int = -1) -> list[tuple[int, int]]:
        """All live elements with lo <= key <= hi and pos >= min_pos: one
        scan of the whole ring."""
        k, p = self.keys, self.poss
        self.bytes_loaded += len(k) * 8
        # Unfilled ring slots carry pos = -1; clamp the expiry bound so
        # they can never match even when min_pos is still negative.
        m = (k >= lo) & (k <= hi) & (p >= max(min_pos, 0))
        return list(zip(k[m].tolist(), p[m].tolist()))
