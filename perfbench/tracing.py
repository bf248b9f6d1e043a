"""Per-layer tracing for the join benchmark's traced runs.

Tracing lives in the benchmark, around the calls each layer makes into
the next one; the program itself is not instrumented. Three tracers:

- ``IndexTracer`` wraps the methods of the index objects that the
  single-threaded driver (``join.ibwj``) builds through its index
  factory, so each call from the driver into ``core`` is timed. For
  PIM-Tree merges it also swaps ``pim_tree.merge_sorted``,
  ``pim_tree.ImmutableBTree`` and ``BPlusTree.items_arrays`` for timing
  wrappers, which splits each merge into its sub-phases.
- ``ParallelTracer`` swaps ``PIMTree`` methods for the threaded join
  (``join.parallel``), which builds and replaces its trees itself. It
  takes thread CPU time, because under the interpreter lock a thread's
  wall time also counts the time it waits for the lock.
- ``SparkTracer`` swaps ``spark_join.key_bounds`` to see the bucket
  bounds the production call computes.

Every swap is undone when its ``with`` block ends.
"""
from __future__ import annotations

import statistics
from contextlib import ExitStack, contextmanager
from time import perf_counter, thread_time

import numpy as np

from repro.core import pim_tree
from repro.core.bplus_tree import BPlusTree
from repro.core.pim_tree import PIMTree
from repro.join import spark_join

MERGE_PHASES = ("extract", "combine", "ts_build", "reset")


@contextmanager
def swapped(owner, name: str, value):
    """Set ``owner.name`` to ``value`` for the block, then restore it."""
    old = owner.__dict__[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def p50(values: list[float]) -> float:
    """Median, 0 when nothing was measured."""
    return statistics.median(values) if values else 0.0


class IndexTracer:
    """Times the driver's calls into one kind of index during one
    ``run_ibwj`` call with ``probe_during_warmup=False``.

    Each arriving tuple is inserted exactly once, so the number of
    inserts made so far tells whether a call belongs to the window
    pre-fill (the first ``warmup`` tuples) or to the timed region.
    """

    def __init__(self, warmup: int, *, merge_phases: bool = False) -> None:
        self.warmup = warmup
        self.merge_phases = merge_phases
        self.adapters: list = []
        self.n_inserted = 0
        self.probe_s = self.insert_s = self.retire_s = self.merge_s = 0.0
        self.probes = self.matches = 0
        self.merge_ms: list[float] = []
        self.phase_ms: dict[str, list[float]] = {p: [] for p in MERGE_PHASES}
        self.subindexes: list[int] = []
        self.insert_share_max: list[float] = []
        self._phase: dict[str, float] | None = None  # open PIM merge
        self._locks0: dict[int, tuple[object, int]] = {}

    # -- installation -----------------------------------------------------
    def factory(self, make):
        """Index factory for ``run_ibwj`` that traces each index built."""

        def traced(window: int):
            adapter = make(window)
            self.adapters.append(adapter)
            self._wrap(adapter.tree if hasattr(adapter, "tree") else adapter.idx)
            return adapter

        return traced

    @contextmanager
    def installed(self):
        """Module swaps for the merge sub-phases, when requested."""
        if not self.merge_phases:
            yield
            return
        merge_sorted = pim_tree.merge_sorted
        build = pim_tree.ImmutableBTree
        items_arrays = BPlusTree.items_arrays

        def timed(phase: str, fn):
            def call(*args):
                t0 = perf_counter()
                out = fn(*args)
                if self._phase is not None:
                    self._phase[phase] += perf_counter() - t0
                return out

            return call

        timed_build = timed("ts_build", build)
        timed_build.empty = build.empty
        with ExitStack() as stack:
            stack.enter_context(
                swapped(pim_tree, "merge_sorted", timed("combine", merge_sorted))
            )
            stack.enter_context(swapped(pim_tree, "ImmutableBTree", timed_build))
            stack.enter_context(
                swapped(BPlusTree, "items_arrays", timed("extract", items_arrays))
            )
            yield

    def _timed_call(self, index) -> bool:
        """Whether a probe/insert/retire now is in the timed region; the
        first timed call on ``index`` snapshots its lock counter."""
        if self.n_inserted < self.warmup:
            return False
        if id(index) not in self._locks0:
            self._locks0[id(index)] = (index, getattr(index, "lock_acquisitions", 0))
        return True

    def _wrap(self, index) -> None:
        search_range, insert = index.search_range, index.insert

        def traced_search(lo, hi, min_pos=-1):
            timed = self._timed_call(index)
            t0 = perf_counter()
            out = search_range(lo, hi, min_pos)
            if timed:
                self.probe_s += perf_counter() - t0
                self.probes += 1
                self.matches += len(out)
            return out

        def traced_insert(key, pos):
            timed = self._timed_call(index)
            t0 = perf_counter()
            insert(key, pos)
            if timed:
                self.insert_s += perf_counter() - t0
            self.n_inserted += 1

        index.search_range = traced_search
        index.insert = traced_insert
        if hasattr(index, "delete"):
            delete = index.delete

            def traced_delete(key, pos):
                timed = self._timed_call(index)
                t0 = perf_counter()
                out = delete(key, pos)
                if timed:
                    self.retire_s += perf_counter() - t0
                return out

            index.delete = traced_delete
        if hasattr(index, "merge"):
            merge = index.merge

            def traced_merge(min_pos):
                # maintain() runs after the tuple's insert has been counted
                timed = self.n_inserted > self.warmup
                if timed and isinstance(index, PIMTree):
                    self.subindexes.append(index.n_subindexes)
                    total = sum(index.insert_counts)
                    if total:
                        self.insert_share_max.append(max(index.insert_counts) / total)
                phase = None
                if timed and self.merge_phases:
                    phase = dict.fromkeys(MERGE_PHASES, 0.0)
                self._phase = phase
                t0 = perf_counter()
                try:
                    out = merge(min_pos)
                finally:
                    dt = perf_counter() - t0
                    self._phase = None
                if timed:
                    self.merge_s += dt
                    self.merge_ms.append(dt * 1e3)
                if phase is not None:
                    phase["reset"] = dt - sum(phase.values())
                    for p, s in phase.items():
                        self.phase_ms[p].append(s * 1e3)
                return out

            index.merge = traced_merge

    # -- results ----------------------------------------------------------
    def summary(self, n_tuples: int, elapsed: float) -> dict[str, float]:
        """Per-tuple layer costs of the timed region (``run_ibwj``'s
        ``n_processed`` and ``elapsed``)."""
        n = max(1, n_tuples)
        index_s = self.probe_s + self.insert_s + self.retire_s + self.merge_s
        locks = sum(
            getattr(ix, "lock_acquisitions", 0) - l0 for ix, l0 in self._locks0.values()
        )
        return {
            "probe_us": self.probe_s / n * 1e6,
            "insert_us": self.insert_s / n * 1e6,
            "retire_us": self.retire_s / n * 1e6,
            "merge_us": self.merge_s / n * 1e6,
            "merges": len(self.merge_ms),
            "driver_us": (elapsed - index_s) / n * 1e6,
            "matches_per_probe": self.matches / max(1, self.probes),
            "index_mb": sum(a.memory_bytes() for a in self.adapters) / 1e6,
            "locks_per_tuple": locks / n,
            "subindexes": p50(self.subindexes),
            "insert_share_max": p50(self.insert_share_max),
        }


class ParallelTracer:
    """Thread CPU time inside ``PIMTree.search_range``/``insert``/
    ``merged_copy`` during one ``ParallelIBWJ.run()``."""

    def __init__(self) -> None:
        # list.append is atomic under the interpreter lock; a shared
        # float += from several threads could lose updates.
        self.probe_s: list[float] = []
        self.insert_s: list[float] = []
        self.merge_s: list[float] = []
        self.trees: dict[int, PIMTree] = {}

    @contextmanager
    def installed(self):
        search_range = PIMTree.search_range
        insert = PIMTree.insert
        merged_copy = PIMTree.__dict__["merged_copy"].__func__
        trees = self.trees

        def traced_search(tree, lo, hi, min_pos=-1):
            trees[id(tree)] = tree
            t0 = thread_time()
            out = search_range(tree, lo, hi, min_pos)
            self.probe_s.append(thread_time() - t0)
            return out

        def traced_insert(tree, key, pos):
            trees[id(tree)] = tree
            t0 = thread_time()
            insert(tree, key, pos)
            self.insert_s.append(thread_time() - t0)

        def traced_merged_copy(cls, old, min_pos):
            t0 = thread_time()
            new = merged_copy(cls, old, min_pos)
            self.merge_s.append(thread_time() - t0)
            trees[id(old)] = old
            trees[id(new)] = new
            return new

        with ExitStack() as stack:
            stack.enter_context(swapped(PIMTree, "search_range", traced_search))
            stack.enter_context(swapped(PIMTree, "insert", traced_insert))
            stack.enter_context(
                swapped(PIMTree, "merged_copy", classmethod(traced_merged_copy))
            )
            yield

    def summary(self, n_tuples: int, run_cpu_s: float) -> dict[str, float]:
        """``run_cpu_s`` is the process CPU time of the whole ``run()``."""
        n = max(1, n_tuples)
        index_s = sum(self.probe_s) + sum(self.insert_s) + sum(self.merge_s)
        locks = sum(t.lock_acquisitions for t in self.trees.values())
        return {
            "probe_us": sum(self.probe_s) / n * 1e6,
            "insert_us": sum(self.insert_s) / n * 1e6,
            "locks_per_tuple": locks / n,
            "self_us": (run_cpu_s - index_s) / n * 1e6,
        }


class SparkTracer:
    """Captures the bucket bounds ``parallel_band_join`` computes."""

    def __init__(self) -> None:
        self.bounds: list[list[int]] = []

    @contextmanager
    def installed(self):
        key_bounds = spark_join.key_bounds

        def traced_key_bounds(*args, **kwargs):
            out = key_bounds(*args, **kwargs)
            self.bounds.append(list(out))
            return out

        with swapped(spark_join, "key_bounds", traced_key_bounds):
            yield


def bucket_rows_max_share(bounds: list[int], x: np.ndarray, diff: int) -> float:
    """Largest bucket's share of the rows ``parallel_band_join`` ships:
    each tuple goes to every bucket its band ``[x - diff, x + diff]``
    overlaps (``spark_join._assign_partitions``)."""
    b = np.asarray(bounds, np.int64)
    first = np.searchsorted(b, x - diff, "left")
    last = np.searchsorted(b, x + diff, "left")
    delta = np.zeros(len(b) + 2, np.int64)
    np.add.at(delta, first, 1)
    np.add.at(delta, last + 1, -1)
    rows = np.cumsum(delta)[: len(b) + 1]
    return float(rows.max() / rows.sum())
