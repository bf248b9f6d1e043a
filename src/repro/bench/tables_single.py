"""Single-threaded measured tables (paper Figs. 8b/8c, 9b/9c/9d, 10a/10b,
11a/11c, 13a, 14).

Every function returns a pandas DataFrame whose rows mirror one figure
panel of the paper's evaluation; ``scale='smoke'`` shrinks sweeps for
pytest-benchmark, ``scale='full'`` is what EXPERIMENTS.md records.
Window sizes are scaled down from the paper's (DESIGN.md §3.3) but keep
the paper's fan-outs, so depth- and merge-driven effects appear inside
the sweep.
"""
from __future__ import annotations

import functools
import time

import numpy as np
import pandas as pd

from repro.core.pim_tree import PIMTree
from repro.join import ibwj
from repro.join.streams import (
    diff_for_match_rate,
    diff_for_match_rate_empirical,
    gen_stream,
    shifting_gaussian_stream,
)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _n_process(w: int, merge_ratio: float = 0.125, floor: int = 16000) -> int:
    """Enough measured tuples to cover >= 2 merge cycles per stream."""
    return max(floor, int(4.4 * merge_ratio * w) + 8000)


def steady_state(
    factory,
    w_r: int,
    w_s: int | None = None,
    *,
    n_process: int | None = None,
    merge_ratio: float = 0.125,
    match_rate: float = 2.0,
    seed: int = 1,
    self_join: bool = False,
    measure: bool = False,
) -> ibwj.JoinResult:
    """Steady-state single-threaded IBWJ run: prefill 2*max(w_r, w_s)
    tuples without probes, then time ``n_process`` tuples (default: two
    merge cycles at ``merge_ratio``)."""
    w_s = w_s or w_r
    w = max(w_r, w_s)
    warm = 2 * w
    n = n_process or _n_process(w, merge_ratio)
    seq = gen_stream(warm + n, seed=seed, self_join=self_join)
    diff = diff_for_match_rate(match_rate, w)
    return ibwj.run_ibwj(
        seq, w_r, w_s, diff, factory,
        self_join=self_join, collect_pairs=False, measure=measure,
        warmup=warm, probe_during_warmup=False,
    )


def table_chained_index(scale: str = "full") -> pd.DataFrame:
    """Fig. 8b: B-chain vs IB-chain throughput over chain length L, plus
    the single B+-Tree reference (paper: w = 2^20; ours: 2^16)."""
    w = 1 << (16 if scale == "full" else 13)
    lengths = [2, 3, 4, 6, 8, 12] if scale == "full" else [2, 4]
    n = _n_process(w) if scale == "full" else 6000
    rows = []
    bp = steady_state(
        lambda win: ibwj.BPlusAdapter(win), w, n_process=n
    ).throughput
    for L in lengths:
        rows.append(
            {
                "L": L,
                "b_chain": steady_state(
                    lambda win: ibwj.ChainAdapter(win, L, False), w, n_process=n
                ).throughput,
                "ib_chain": steady_state(
                    lambda win: ibwj.ChainAdapter(win, L, True), w, n_process=n
                ).throughput,
                "bplus_ref": bp,
            }
        )
    return pd.DataFrame(rows)


def table_insertion_depth_single(scale: str = "full") -> pd.DataFrame:
    """Fig. 8c: single-threaded PIM throughput vs D_I (1..4) and w."""
    ws = [1 << 14, 1 << 16, 1 << 17] if scale == "full" else [1 << 13]
    depths = [1, 2, 3, 4] if scale == "full" else [1, 2]
    rows = []
    for w in ws:
        row = {"w": w}
        for d in depths:
            row[f"d{d}"] = steady_state(
                lambda win: ibwj.PIMAdapter(win, 0.125, d), w
            ).throughput
        rows.append(row)
    return pd.DataFrame(rows)


def table_merge_ratio_single(
    tree: str, scale: str = "full"
) -> pd.DataFrame:
    """Figs. 9c/9d: single-threaded IM-/PIM-Tree throughput vs merge
    ratio 2^-6..1."""
    ws = [1 << 14, 1 << 16] if scale == "full" else [1 << 12]
    ms = (
        [2**-6, 2**-5, 2**-4, 2**-3, 2**-2, 2**-1, 1.0]
        if scale == "full"
        else [2**-4, 1.0]
    )
    mk = {
        "im": lambda win, m: ibwj.IMAdapter(win, m),
        "pim": lambda win, m: ibwj.PIMAdapter(win, m, 2),
    }[tree]
    rows = []
    for w in ws:
        row = {"w": w}
        for m in ms:
            row[f"m=2^{int(np.log2(m))}" if m < 1 else "m=1"] = steady_state(
                lambda win: mk(win, m), w, merge_ratio=m
            ).throughput
        rows.append(row)
    return pd.DataFrame(rows)


def table_cost_breakdown(scale: str = "full") -> pd.DataFrame:
    """Fig. 9b: per-tuple cost split (search/scan/subindex/insert/delete/
    merge, us) for B+, IM and PIM at a small and a large window (paper
    2^17/2^23; ours 2^13/2^17)."""
    ws = [1 << 13, 1 << 17] if scale == "full" else [1 << 12]
    factories = {
        "bplus": lambda win: ibwj.BPlusAdapter(win),
        "im": lambda win: ibwj.IMAdapter(win, 0.125),
        "pim": lambda win: ibwj.PIMAdapter(win, 0.125, 2),
    }
    rows = []
    for w in ws:
        n = _n_process(w) if scale == "full" else 6000
        for name, f in factories.items():
            res = steady_state(f, w, n_process=n, measure=True)
            us = {k: v * 1e6 for k, v in res.costs.per_tuple().items()}
            rows.append({"w": w, "index": name, **us})
    return pd.DataFrame(rows)


def table_single_threaded_compare(scale: str = "full") -> pd.DataFrame:
    """Fig. 10a: single-threaded B+ vs IM vs PIM over window sizes.

    The PIM line is reported with and without concurrency control — the
    paper's single-threaded implementation carries no CC (its Fig. 12a
    baseline), so `pim_nocc` is the Fig. 10a analogue and `pim_cc` shows
    the locking tax.
    """
    ws = (
        [1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18]
        if scale == "full"
        else [1 << 13]
    )
    factories = {
        "bplus": lambda win: ibwj.BPlusAdapter(win),
        "im": lambda win: ibwj.IMAdapter(win, 0.125),
        "pim_nocc": lambda win: ibwj.PIMAdapter(win, 0.125, 2, use_locks=False),
        "pim_cc": lambda win: ibwj.PIMAdapter(win, 0.125, 2),
    }
    rows = []
    for w in ws:
        rows.append(
            {"w": w}
            | {name: steady_state(f, w).throughput for name, f in factories.items()}
        )
    return pd.DataFrame(rows)


def table_match_rate(scale: str = "full") -> pd.DataFrame:
    """Fig. 10b: throughput vs match rate (paper w = 2^20; ours 2^16).

    The multithreaded PIM line comes from the simulator in
    ``tables_parallel.table_match_rate_parallel``; here are the three
    measured single-threaded lines.
    """
    w = 1 << (16 if scale == "full" else 12)
    rates = (
        [2**-4, 2**-2, 1.0, 2**2, 2**4, 2**6, 2**8, 2**10]
        if scale == "full"
        else [1.0, 2**6]
    )
    rows = []
    for r in rates:
        row = {"match_rate": r}
        for name, f in {
            "bplus": lambda win: ibwj.BPlusAdapter(win),
            "im": lambda win: ibwj.IMAdapter(win, 0.125),
            "pim": lambda win: ibwj.PIMAdapter(win, 0.125, 2),
        }.items():
            row[name] = steady_state(f, w, match_rate=r).throughput
        rows.append(row)
    return pd.DataFrame(rows)


def table_memory_footprint(scale: str = "full") -> pd.DataFrame:
    """Fig. 11a: bytes for B+-Tree vs PIM-Tree components (T_S, T_I,
    merge buffer) at varying element counts; merge ratio 1 (largest T_I),
    as in the paper."""
    from repro.core.bplus_tree import BPlusTree

    sizes = (
        [1 << 14, 1 << 16, 1 << 18] if scale == "full" else [1 << 12]
    )
    rows = []
    for n in sizes:
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 24, n)
        bp = BPlusTree(16)
        pim = PIMTree(n, 1.0, 2)
        half = n // 2
        for p in range(1, n + 1):
            k = int(keys[p - 1])
            bp.insert(k, p)
            pim.insert(k, p)
            if p == half:
                pim.merge(1)  # half in T_S, half accumulates in T_I
        t_s = pim.t_s.memory_bytes()
        t_i = sum(b.memory_bytes() for b in pim.subindexes)
        buf = len(pim) * 8
        rows.append(
            {
                "elements": n,
                "bplus_mb": bp.memory_bytes() / 2**20,
                "pim_ts_mb": t_s / 2**20,
                "pim_ti_mb": t_i / 2**20,
                "pim_buffer_mb": buf / 2**20,
                "pim_total_mb": (t_s + t_i + buf) / 2**20,
            }
        )
    return pd.DataFrame(rows)


def table_asymmetric_windows_single(scale: str = "full") -> pd.DataFrame:
    """Fig. 11c companion (single-threaded): throughput across (w_r, w_s)
    combinations."""
    ws = [1 << 13, 1 << 15, 1 << 16] if scale == "full" else [1 << 12, 1 << 13]
    rows = []
    for w_r in ws:
        row = {"w_r": w_r}
        for w_s in ws:
            row[f"w_s={w_s}"] = steady_state(
                lambda win: ibwj.PIMAdapter(win, 0.125, 2), w_r, w_s,
                n_process=16000,
            ).throughput
        rows.append(row)
    return pd.DataFrame(rows)


@functools.cache
def drift_runs(scale: str = "full") -> dict[float, ibwj.JoinResult]:
    """Per drift speed r, the measure-mode PIM self-join (m = 1, D_I = 3)
    T21 and T22 share. Phase 1 fills the window without probes; phase 2
    is timed. With m = 1 the ranges re-adapt every w inserts, so phase 2
    spans ~1.5 of them and r = 1 pushes most of the shift past the
    indexed range (the Fig. 13a single-sub-index capture)."""
    w = 1 << (14 if scale == "full" else 12)
    rs = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] if scale == "full" else [0.0, 1.0]
    n1 = 2 * w  # ends with a merge, so phase 2 starts on empty sub-indexes
    n2 = int(1.5 * w) if scale == "full" else 2 * w
    runs = {}
    for r in rs:
        seq = shifting_gaussian_stream(n1, n2, 0, r=r, seed=2)
        diff = diff_for_match_rate_empirical(seq["x"].to_numpy(), w, 2.0)
        runs[r] = ibwj.run_ibwj(
            seq, w, w, diff, lambda win: ibwj.PIMAdapter(win, 1.0, 3),
            self_join=True, collect_pairs=False, measure=True,
            warmup=n1, probe_during_warmup=False,
        )
    return runs


def table_drift_insert_distribution(scale: str = "full") -> pd.DataFrame:
    """Fig. 13a: distribution of inserts across sub-indexes while the key
    distribution drifts at speed r (``drift_runs``): the max sub-index
    share and the fraction of idle sub-indexes during phase 2 (paper
    r=1: 77 % of inserts on one sub-index, ~70 % idle). The counts are
    per sub-index position, summed across merges (which re-partition),
    as the paper's normalised Fig. 13a histogram does."""
    rows = []
    for r, res in drift_runs(scale).items():
        # a self-join's one tree: lock 2 * i is sub-index i
        counts = np.bincount(np.frombuffer(res.locks.insert_keys, np.int64) // 2)
        rows.append(
            {
                "r": r,
                "n_subindexes": len(counts),
                "max_share": counts.max() / counts.sum(),
                "idle_frac": float((counts == 0).mean()),
            }
        )
    return pd.DataFrame(rows)


def table_merge_cost(scale: str = "full") -> pd.DataFrame:
    """Fig. 14 (appendix): merge cost vs number of merged elements —
    must be linear (Eq. 7)."""
    sizes = (
        [1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18]
        if scale == "full"
        else [1 << 12, 1 << 13]
    )
    rows = []
    for n in sizes:
        rng = np.random.default_rng(3)
        tree = PIMTree(n, 1.0, 2)
        for p in range(1, n + 1):
            tree.insert(int(rng.integers(0, 1 << 24)), p)
        # merged_copy leaves the source intact, so the same merge can be
        # timed repeatedly; min-of-3 suppresses allocator/GC noise.
        dt = min(
            _timed(lambda: PIMTree.merged_copy(tree, 1)) for _ in range(3)
        )
        merged = len(tree)
        rows.append(
            {
                "elements": merged,
                "merge_ms": dt * 1e3,
                "ns_per_element": dt / merged * 1e9,
            }
        )
    return pd.DataFrame(rows)
