"""Single-threaded Index-Based Window Join driver (paper §2).

Processes an interleaved arrival sequence tuple-by-tuple: (1) probe the
opposite stream's index for band matches, (2) delete the expired tuple
from this stream's index, if that index deletes per tuple, (3) insert
the new tuple (Eq. 1). The index behaviour is pluggable through small
adapters so one driver exercises every approach the paper compares:
B+-Tree, chained index (both variants), Bw-Tree-like, NLWJ, IM-Tree and
PIM-Tree.

With ``measure=True`` the driver accumulates per-step wall time —
search, scan, subindex, insert, delete, merge — which backs the Fig. 9b
cost breakdown and calibrates the concurrency simulator. A timed probe
runs the production probe's own parts with a clock read between them;
no step is timed on a copy of the code it stands for. Over PIM-Trees,
measure mode also records the sub-index locks each timed tuple takes
(``LockTrace``), which the simulator replays.
"""
from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.bw_tree import BwTreeLike
from repro.baselines.chained_index import ChainedIndex
from repro.baselines.nlwj import NLWJWindow
from repro.core.bplus_tree import BPlusTree
from repro.core.pim_tree import PIMTree
from repro.join.streams import arrival_columns, by_spos, gc_deferred


@dataclass
class StepCosts:
    """Accumulated wall time (s) and op counts per IBWJ step. A probe is
    search (the seek or descent), scan (reading the result from there)
    and, for PIM/IM, subindex (T_I's part, under the partition locks)."""

    search: float = 0.0
    scan: float = 0.0
    subindex: float = 0.0
    insert: float = 0.0
    delete: float = 0.0
    merge: float = 0.0
    n_tuples: int = 0
    n_merges: int = 0

    def per_tuple(self) -> dict[str, float]:
        """Seconds per processed tuple of each step."""
        n = max(1, self.n_tuples)
        return {
            k: getattr(self, k) / n
            for k in ("search", "scan", "subindex", "insert", "delete", "merge")
        }


class _Adapter:
    """One sliding window's index + expiry policy. ``pos`` is the
    per-stream arrival position (spos).

    An index that deletes each expired tuple (B+, Bw) defines
    ``retire(expired_key, expired_pos)``; the others drop expired tuples
    by position, in ``maintain`` or in the probe's ``min_pos`` filter,
    and define no ``retire``.

    ``timed_probe(lo, hi, min_pos, costs)`` is ``probe`` for measure
    mode: it calls the parts ``probe`` is made of and adds each part's
    wall time to one step of ``costs``.

    Adapters call their index as ``self.idx.<method>`` (or
    ``self.tree.<method>``) at call time and never keep bound methods:
    the benchmark's index tracer replaces those methods on the index
    object after the factory returns."""

    def insert(self, key: int, pos: int) -> None:
        raise NotImplementedError

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        """Periodic maintenance (merges); called after every insert."""

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        raise NotImplementedError


class BPlusAdapter(_Adapter):
    def __init__(self, window: int) -> None:
        self.tree = BPlusTree()

    def insert(self, key: int, pos: int) -> None:
        self.tree.insert(key, pos)

    def retire(self, expired_key: int, expired_pos: int) -> None:
        self.tree.delete(expired_key, expired_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.tree.search_range(lo, hi, min_pos)

    def timed_probe(self, lo, hi, min_pos, costs):
        t0 = time.perf_counter()
        leaf, i = self.tree.seek(lo)
        t1 = time.perf_counter()
        out = self.tree.scan(leaf, i, hi, min_pos)
        costs.search += t1 - t0
        costs.scan += time.perf_counter() - t1
        return out

    def memory_bytes(self) -> int:
        return self.tree.memory_bytes()


class ChainAdapter(_Adapter):
    def __init__(
        self, window: int, chain_length: int = 2, immutable_archive: bool = False
    ) -> None:
        self.idx = ChainedIndex(window, chain_length, immutable_archive)

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        self.idx.expire(min_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.probe(lo, hi, min_pos)

    def timed_probe(self, lo, hi, min_pos, costs):
        # one search per sub-index of the chain, timed whole
        t0 = time.perf_counter()
        out = self.idx.probe(lo, hi, min_pos)
        costs.search += time.perf_counter() - t0
        return out

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class BwAdapter(_Adapter):
    def __init__(self, window: int) -> None:
        self.idx = BwTreeLike()

    def insert(self, key: int, pos: int) -> None:
        self.idx.insert(key, pos)

    def retire(self, expired_key: int, expired_pos: int) -> None:
        self.idx.delete(expired_key, expired_pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.search_range(lo, hi, min_pos)

    def timed_probe(self, lo, hi, min_pos, costs):
        t0 = time.perf_counter()
        i = self.idx.seek(lo)
        t1 = time.perf_counter()
        out = self.idx.scan(i, lo, hi, min_pos)
        costs.search += t1 - t0
        costs.scan += time.perf_counter() - t1
        return out

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class NLWJAdapter(_Adapter):
    def __init__(self, window: int) -> None:
        self.win = NLWJWindow(window)

    def insert(self, key: int, pos: int) -> None:
        self.win.insert(key, pos)

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.win.probe(lo, hi, min_pos)

    def timed_probe(self, lo, hi, min_pos, costs):
        t0 = time.perf_counter()
        out = self.win.probe(lo, hi, min_pos)
        costs.scan += time.perf_counter() - t0  # pure scan
        return out

    def memory_bytes(self) -> int:
        return self.win.window * 8


class PIMAdapter(_Adapter):
    def __init__(
        self,
        window: int,
        merge_ratio: float = 0.125,
        insertion_depth: int = 2,
        use_locks: bool = True,
    ) -> None:
        self.idx = PIMTree(
            window, merge_ratio, insertion_depth, use_locks=use_locks
        )

    def insert(self, key: int, pos: int) -> int:
        return self.idx.insert(key, pos)  # the sub-index, for LockTrace

    def maintain(self, min_pos: int, costs: StepCosts, measure: bool) -> None:
        if self.idx.needs_merge():
            t0 = time.perf_counter() if measure else 0.0
            self.idx.merge(min_pos)
            if measure:
                costs.merge += time.perf_counter() - t0
            costs.n_merges += 1

    def probe(self, lo: int, hi: int, min_pos: int) -> list[tuple[int, int]]:
        return self.idx.search_range(lo, hi, min_pos)

    def timed_probe(self, lo, hi, min_pos, costs):
        # PIMTree.search_range's parts: T_S's seek and scan, then T_I's
        t_s = self.idx.t_s
        t0 = time.perf_counter()
        start = t_s.find_start(lo)
        t1 = time.perf_counter()
        out = t_s.scan(start, hi, min_pos)
        t2 = time.perf_counter()
        self.idx.search_subindexes(lo, hi, min_pos, out, start)
        t3 = time.perf_counter()
        costs.search += t1 - t0
        costs.scan += t2 - t1
        costs.subindex += t3 - t2
        self.probe_locks = self.idx.probe_locks(hi, start)  # for LockTrace
        return out

    def memory_bytes(self) -> int:
        return self.idx.memory_bytes()


class IMAdapter(PIMAdapter):
    """IM-Tree (paper §3.2): a PIM-Tree whose T_I is one sub-index
    (insertion depth 0, the root), used without locks."""

    def __init__(self, window: int, merge_ratio: float = 0.125) -> None:
        super().__init__(window, merge_ratio, insertion_depth=0, use_locks=False)


@dataclass
class LockTrace:
    """Sub-index locks of a measure-mode PIM run's timed tuples. Lock
    ``2 * i + tree`` is sub-index i (as partitioned then) of tree 0, R's
    index, or 1, S's (a self-join has tree 0 only). Tuple j's probe took
    ``probe_keys[probe_end[j - 1]:probe_end[j]]`` (none if its band met
    only empty sub-indexes), then its insert ``insert_keys[j]``."""

    probe_end: array = field(default_factory=lambda: array("q"))
    probe_keys: array = field(default_factory=lambda: array("q"))
    insert_keys: array = field(default_factory=lambda: array("q"))


@dataclass
class JoinResult:
    pairs: list[tuple[int, int]] | None
    n_matches: int
    n_processed: int
    elapsed: float
    costs: StepCosts = field(default_factory=StepCosts)
    locks: LockTrace | None = field(default=None, repr=False)  # measure, PIM

    @property
    def throughput(self) -> float:
        """Measured tuples processed per second."""
        return self.n_processed / self.elapsed if self.elapsed > 0 else 0.0


def run_ibwj(
    seq: pd.DataFrame,
    w_r: int,
    w_s: int,
    diff: int,
    index_factory,
    *,
    self_join: bool = False,
    collect_pairs: bool = True,
    measure: bool = False,
    warmup: int = 0,
    probe_during_warmup: bool = True,
    owner: np.ndarray | None = None,
) -> JoinResult:
    """Run the three-step IBWJ loop over an arrival sequence.

    ``index_factory(window) -> _Adapter`` builds one index per stream
    (one shared index for self-join). ``warmup`` tuples are processed but
    excluded from the timed region and the result pairs.
    ``probe_during_warmup=False`` skips Step 1 while filling the window —
    the index state after warmup is identical (probes are read-only), so
    steady-state measurements are unaffected; it only avoids paying for
    throwaway probes on large windows. ``measure=True`` times each step
    into ``costs``, the probe through the adapter's ``timed_probe``, and
    over PIM-Trees records each timed tuple's locks into ``locks``.

    ``owner`` is a boolean array aligned with ``seq``'s rows; ``None``
    means every row inserts. A row with ``owner[t]`` False runs Step 1
    only: a Spark bucket's band-replica rows probe but never insert.
    The pairs are then exactly those whose earlier tuple is owned, for
    adapters that expire by position (PIM, IM, chained, NLWJ): every
    probe filters by ``min_pos``, and merges, chain expiry and ring
    overwrites drop by position. A mask that excludes a row raises
    ``ValueError`` for an adapter that defines ``retire`` (B+, Bw): it
    retires by delete on owner rows only, so it would keep stale entries
    and grow with the stream.
    """
    sides, sposs, xs, opps, gposs = arrival_columns(seq)
    owners = None if owner is None else np.asarray(owner, bool).tolist()
    n = len(seq)

    if self_join:
        idx_r = idx_s = index_factory(w_r)
    else:
        idx_r = index_factory(w_r)
        idx_s = index_factory(w_s)
    retires = hasattr(idx_r, "retire")
    if retires and owners is not None and not all(owners):
        raise ValueError(f"{type(idx_r).__name__} cannot run with an owner mask")
    # Per arriving side, built once: (index it probes, index it inserts
    # into, opposite window, own window, opposite side, and the LockTrace
    # trees of both indexes). A self-join's opposite side is its own.
    win = {"R": w_r, "S": w_s}
    idx = {"R": idx_r, "S": idx_s}
    tree = {"R": 0, "S": 1}
    route = {}
    for side, other in (("R", "S"), ("S", "R")):
        o = side if self_join else other
        route[side] = (idx[o], idx[side], win[o], win[side], o, tree[o], tree[side])
    traced = measure and isinstance(idx_r, PIMAdapter)
    locks = None  # LockTrace of the timed tuples
    # Key by (side, spos) to retire expired tuples, built only for an
    # index that deletes them; gpos by (side, spos) names the earlier
    # tuple of a pair, so runs without pairs (steady-state tables,
    # benchmarks) skip it.
    key_of = by_spos(seq, "x") if retires else None
    gpos_of = by_spos(seq, "gpos") if collect_pairs else None

    pairs: list[tuple[int, int]] | None = [] if collect_pairs else None
    costs = StepCosts()
    n_matches = 0
    # Cyclic GC is deferred for the run (``gc_deferred``), so the
    # comparison measures index work, not allocator luck.
    with gc_deferred():
        t_start = time.perf_counter()

        for t in range(n):
            if t == warmup:
                costs = StepCosts()  # warmup ops are excluded from the breakdown
                locks = LockTrace() if traced else None
                t_start = time.perf_counter()
            side = sides[t]
            spos = sposs[t]
            x = xs[t]
            probed, own, w_opp, w_own, opp_side, p_tree, o_tree = route[side]
            # Step 1 — probe the opposite window for band matches.
            min_pos = opps[t] - w_opp + 1
            lo, hi = x - diff, x + diff
            if t < warmup and not probe_during_warmup:
                matches = ()
            elif measure:
                matches = probed.timed_probe(lo, hi, min_pos, costs)
            else:
                matches = probed.probe(lo, hi, min_pos)
            n_matches += len(matches)
            if pairs is not None and t >= warmup:
                g = gposs[t]
                olist = gpos_of[opp_side]
                for _, mpos in matches:
                    pairs.append((g, olist[mpos]))
            if owners is not None and not owners[t]:
                continue
            # Step 2 — retire the tuple that falls out of this window.
            if key_of is not None and spos > w_own:
                epos = spos - w_own
                ekey = key_of[side][epos]
                if measure:
                    t0 = time.perf_counter()
                    own.retire(ekey, epos)
                    costs.delete += time.perf_counter() - t0
                else:
                    own.retire(ekey, epos)
            # Step 3 — insert the new tuple, then maintenance (merges).
            if measure:
                t0 = time.perf_counter()
                sub = own.insert(x, spos)
                costs.insert += time.perf_counter() - t0
                if locks is not None:
                    for i in probed.probe_locks:
                        locks.probe_keys.append(2 * i + p_tree)
                    locks.probe_end.append(len(locks.probe_keys))
                    locks.insert_keys.append(2 * sub + o_tree)
            else:
                own.insert(x, spos)
            own.maintain(spos - w_own + 1, costs, measure)

        elapsed = time.perf_counter() - t_start
    costs.n_tuples = n - warmup
    return JoinResult(pairs, n_matches, n - warmup, elapsed, costs, locks)


def pairs_df(pairs: list[tuple[int, int]]) -> pd.DataFrame:
    """Result pairs as a DataFrame matching ``streams.band_join_sql``."""
    return pd.DataFrame(pairs, columns=["later_gpos", "earlier_gpos"]).astype(
        "int64"
    )
