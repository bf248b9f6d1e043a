"""Correctness gate of the join benchmark.

Two oracles check the joins:

- ``repro.join.streams.reference_pairs`` (DuckDB) gives the exact pair
  set. Its band predicate ends up in a nested-loop join, so it is used
  only on streams of a few thousand tuples.
- ``band_count`` counts the same pairs with a numpy sort and a window
  filter, fast enough for the 200k-tuple Spark stream. Every run
  compares it with DuckDB on a prefix of the workload's own stream
  (``count_agrees_with_duckdb``), so each large count the joins are
  checked against is itself oracle-verified.

A ``Gate`` counts the checks made and the checks failed; the benchmark
reports both.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.join.streams import diff_for_match_rate, reference_pairs

_CHUNK = 1 << 16  # probes expanded at once, bounds the candidate arrays


class Gate:
    """Tally of correctness checks; each failure keeps its label."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    def tally(self, label: str, attempted: int, failed: int) -> None:
        """Add ``attempted`` checks made elsewhere, ``failed`` of them failed."""
        self.attempted += attempted
        self.failures += [label] * failed

    @property
    def failed(self) -> int:
        return len(self.failures)


def band_count(
    seq: pd.DataFrame, w_r: int, w_s: int, diff: int, *, warmup: int = 0
) -> int:
    """Band-join pairs found by the probes of tuples at arrival index
    ``>= warmup`` (0-based) of a two-stream sequence.

    A tuple ``l`` pairs with every earlier opposite-stream tuple ``e``
    still in ``l``'s count window (``e.spos > l.opp_seen - w``) whose
    key is within ``diff`` of ``l``'s — ``streams.band_join_sql``'s
    predicate. Candidates come from a key-sorted copy of each stream and
    are then filtered by arrival position.
    """
    side = seq["side"].to_numpy()
    x = seq["x"].to_numpy()
    spos = seq["spos"].to_numpy()
    opp_seen = seq["opp_seen"].to_numpy()
    timed = np.arange(len(seq)) >= warmup
    total = 0
    for o, w in (("R", w_r), ("S", w_s)):
        own = side == o
        order = np.argsort(x[own], kind="stable")
        keys = x[own][order]
        key_spos = spos[own][order]
        probe = ~own & timed
        px = x[probe]
        hi_pos = opp_seen[probe]
        lo_pos = np.maximum(1, hi_pos - w + 1)
        a = np.searchsorted(keys, px - diff, "left")
        cnt = np.searchsorted(keys, px + diff, "right") - a
        for c0 in range(0, len(px), _CHUNK):
            ca, cc = a[c0 : c0 + _CHUNK], cnt[c0 : c0 + _CHUNK]
            rep = np.repeat(np.arange(len(ca)), cc)
            first = np.cumsum(cc) - cc
            cand = key_spos[ca[rep] + np.arange(len(rep)) - first[rep]]
            lo = lo_pos[c0 : c0 + _CHUNK][rep]
            hi = hi_pos[c0 : c0 + _CHUNK][rep]
            total += int(np.count_nonzero((cand >= lo) & (cand <= hi)))
    return total


def count_agrees_with_duckdb(
    seq: pd.DataFrame, match_rate: float, *, n: int = 3000, window: int = 1000
) -> bool:
    """``band_count`` equals the DuckDB pair count on the first ``n``
    tuples of ``seq``, both over the whole prefix and over its second
    half only (which exercises the ``warmup`` cut)."""
    head = seq.iloc[:n]
    diff = diff_for_match_rate(match_rate, window)
    ref = reference_pairs(head, window, window, diff)
    cut = n // 2
    late = sum(1 for later, _ in ref if later > cut)
    return band_count(head, window, window, diff) == len(ref) and (
        band_count(head, window, window, diff, warmup=cut) == late
    )


def pairs_agree(pairs: list[tuple[int, int]], ref: set[tuple[int, int]]) -> bool:
    """Exactly the oracle's pairs, none twice."""
    return len(pairs) == len(ref) and set(pairs) == ref


def in_arrival_order(pairs: list[tuple[int, int]]) -> bool:
    """Results are propagated in the arrival order of the later tuple."""
    return all(a[0] <= b[0] for a, b in zip(pairs, pairs[1:]))
