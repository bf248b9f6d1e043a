"""Calibrate simulator service times from the real structures.

The concurrency simulator (DESIGN.md §3.1) takes per-tuple service times
that must come from measurements, not guesses. This module runs the
single-threaded IBWJ driver with per-step timing enabled and converts
the ``StepCosts`` into ``ServiceTimes`` for each approach.

Service-time split: the paper's PIM-Tree holds a sub-index lock only for
the B_i seek/scan/insert; the T_S descent and T_S leaf scan are
lock-free. Our ``probe_split`` measures (search, scan) where 'search'
covers both T_S and sub-index descents; ``service_times_pim`` counts a
fixed share of it (``LOCK_FREE_SEARCH_SHARE``) as the lock-free T_S
part. The model only needs that share to first order (lock-held
fractions shift the congestion knee, not its existence).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.bench.tables_single import steady_state
from repro.concurrency.simulator import ServiceTimes
from repro.join import ibwj

# Share of the measured 'search' that runs without a lock: the T_S
# descent of a PIM-Tree, the descent to the page of a Bw-Tree. A guess,
# not a measurement; ROADMAP item 4 plans to time both parts.
LOCK_FREE_SEARCH_SHARE = 0.5
# Extra lookup cost while a nonblocking merge runs (the longer
# edge-to-head linear scan), as a multiple of the result scan.
MERGE_SCAN_SURCHARGE = 2.0


@dataclass
class Calibration:
    per_tuple: dict[str, float]  # per-step seconds/tuple
    merge_duration: float  # seconds per merge (0 if none)
    merge_interval: int  # tuples between merges (0 if none)
    throughput_st: float  # measured single-threaded tuples/s
    n_matches: int
    n_subindexes: int  # PIM-Tree sub-indexes at the end of the run; else 0


def measure(
    approach: str,
    w: int,
    *,
    n_process: int = 20_000,
    match_rate: float = 2.0,
    **adapter_kwargs,
) -> Calibration:
    """Measure per-step costs for ``approach`` at window size ``w``.

    The window is pre-filled with 2w tuples (both streams) of the seed-0
    stream, then ``n_process`` tuples are timed.
    """
    adapters = []

    def factory(win):
        adapters.append(ibwj.ADAPTERS[approach](win, **adapter_kwargs))
        return adapters[-1]

    res = steady_state(
        factory, w, n_process=n_process, match_rate=match_rate, seed=0,
        measure=True,
    )
    c = res.costs
    n = max(1, c.n_tuples)
    per = {k: v / n for k, v in zip(
        ("search", "scan", "insert", "delete", "merge"),
        (c.search, c.scan, c.insert, c.delete, c.merge),
    )}
    merge_duration = c.merge / c.n_merges if c.n_merges else 0.0
    merge_interval = n // c.n_merges if c.n_merges else 0
    return Calibration(
        per_tuple=per,
        merge_duration=merge_duration,
        merge_interval=merge_interval,
        throughput_st=res.throughput,
        n_matches=res.n_matches,
        n_subindexes=(
            adapters[0].idx.n_subindexes
            if isinstance(adapters[0], ibwj.PIMAdapter)
            else 0
        ),
    )


def measure_merge_cost(
    w: int, merge_ratio: float = 1.0, insertion_depth: int = 2
) -> float:
    """Directly time one PIM-Tree merge of ~(1+m)*w elements — used when
    the calibration window is too short to observe a merge (large m*w)."""
    import time

    import numpy as np

    from repro.core.pim_tree import PIMTree

    rng = np.random.default_rng(0)
    n = int((1 + merge_ratio) * w)
    t = PIMTree(w, 1.0, insertion_depth)
    for p in range(1, n + 1):
        t.insert(int(rng.integers(0, 1 << 24)), p)
    t0 = time.perf_counter()
    t.merge(n - w + 1)
    return time.perf_counter() - t0


def _driver_overhead(cal: Calibration) -> float:
    """Per-tuple harness cost outside the index steps (loop bookkeeping,
    window/ring updates). The single-threaded throughput denominator
    includes it, so the simulator's service times must too — otherwise
    every simulated-vs-measured speedup would be overstated by exactly
    this share."""
    measured = sum(cal.per_tuple.values())
    return max(0.0, 1.0 / cal.throughput_st - measured)


def service_times_pim(cal: Calibration) -> ServiceTimes:
    """ServiceTimes for PIM-Tree: the sub-index share of search plus the
    insert runs under the partition lock; the T_S share, result scan and
    driver bookkeeping are lock-free."""
    p = cal.per_tuple
    share = LOCK_FREE_SEARCH_SHARE
    return ServiceTimes(
        lock_free=p["search"] * share + p["scan"] + _driver_overhead(cal),
        locked=p["search"] * (1 - share) + p["insert"],
        merge_duration=cal.merge_duration,
        merge_interval=cal.merge_interval,
        scan_surcharge=MERGE_SCAN_SURCHARGE * p["scan"],
    )


def service_times_bw(cal: Calibration) -> ServiceTimes:
    """ServiceTimes for the Bw-Tree-like index: descent is latch-free
    (lock_free); page delta-prepend + delta-chain reads are the CAS-
    protected portion."""
    p = cal.per_tuple
    share = LOCK_FREE_SEARCH_SHARE
    return ServiceTimes(
        lock_free=p["search"] * share + p["scan"] + _driver_overhead(cal),
        locked=p["search"] * (1 - share) + p["insert"],
        delete=p["delete"],
    )
