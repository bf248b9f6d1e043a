"""Calibrate simulator service times from the real structures.

The concurrency simulator (DESIGN.md §3.1) takes per-tuple service times
that must come from measurements, not guesses. ``measure`` runs the
single-threaded IBWJ driver with per-step timing enabled, and
``service_times`` maps its ``JoinResult`` to ``ServiceTimes`` by one rule
for every index:

- lock-free: the probe's search and scan, and the driver's own per-tuple
  work;
- subindex, the probe's sub-index (T_I) part, and update, the insert
  and the delete: held under the locks of the run's own lock sequence
  (``locks``, for PIM), which the simulator replays;
- merge duration: the mean of the run's own merges; merge interval: the
  run's tuples per merge.

Measure mode times the production probe's own parts (``ibwj`` adapters'
``timed_probe``), so the split is the paper's: a PIM-Tree descends and
scans T_S without a lock and holds a partition lock only for the B_i
seek/scan (``PIMTree.search_subindexes``) and insert; a Bw-Tree's page
descent and page read are latch-free, and only its page updates (insert,
delete) are CAS-protected. Only the indexes that delete each expired
tuple (B+, Bw) have a delete; PIM and IM dispose of expired tuples
inside the merge. A run that merges must cover whole merge cycles
(``tables_parallel._pim_calibration`` times k >= 2 of them per stream):
then its merges are the ones the join makes, its interval is the merge
threshold, and its T_I costs average over T_I's growth from empty to
full. Every measured second of the run lands in one of the service
times, so a one-thread simulation over the run's own tuples takes the
run's own time, plus the task acquisition the simulator adds.
"""
from __future__ import annotations

from repro.bench.tables_single import steady_state
from repro.concurrency.simulator import ServiceTimes
from repro.join import ibwj

# Extra lookup cost while a nonblocking merge runs (the longer
# edge-to-head linear scan), as a multiple of the measured scan step (for
# a PIM-Tree, T_S's result scan).
MERGE_SCAN_SURCHARGE = 2.0


def measure(
    factory, w: int, *, n_process: int, match_rate: float = 2.0,
    self_join: bool = False,
) -> ibwj.JoinResult:
    """Time ``n_process`` tuples of the IBWJ driver over ``factory``'s
    indexes at window size ``w``, with per-step costs. The window is
    pre-filled with 2w tuples of the seed-0 (two-way or self-join) stream."""
    return steady_state(
        factory, w, n_process=n_process, match_rate=match_rate, seed=0,
        self_join=self_join, measure=True,
    )


def service_times(res: ibwj.JoinResult) -> ServiceTimes:
    """ServiceTimes of a ``measure`` run, by the module's one rule."""
    c = res.costs
    p = c.per_tuple()
    # The driver's own per-tuple work (loop bookkeeping, window updates)
    # is in the measured throughput, so it must be in the service times
    # too, or every simulated speedup is overstated by its share.
    driver = max(0.0, 1.0 / res.throughput - sum(p.values()))
    return ServiceTimes(
        lock_free=p["search"] + p["scan"] + driver,
        subindex=p["subindex"],
        update=p["insert"] + p["delete"],
        merge_duration=c.merge / c.n_merges if c.n_merges else 0.0,
        merge_interval=max(1, c.n_tuples) // c.n_merges if c.n_merges else 0,
        scan_surcharge=MERGE_SCAN_SURCHARGE * p["scan"],
        locks=res.locks,
    )
