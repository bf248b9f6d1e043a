"""Multithreaded tables: calibrated simulator + Spark wall-clock (paper
Figs. 8a, 8d, 9a, 10c/d, 11b/11d, 12a/12b/12c, 13b/13c).

Single-threaded service times are *measured* from the real structures
(``repro.bench.calibrate``) and fed to the discrete-event simulator
(DESIGN.md §3.1); the Spark harness provides genuine multicore wall-clock
for the PIM-style range-partitioned join, used both as its own table and
as a cross-check of the simulator's scaling shape.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pandas as pd

from repro.bench import calibrate
from repro.bench.tables_single import _timed, drift_runs, steady_state
from repro.bench.tables_single import table_drift_insert_distribution
from repro.concurrency.simulator import (
    SimConfig,
    SimResult,
    simulate,
    simulate_round_robin,
)
from repro.core.pim_tree import PIMTree
from repro.join import ibwj
from repro.join.streams import diff_for_match_rate, gen_stream

N_SIM_TUPLES = 40_000
# The paper's machine: an octa-core Xeon E5-2665 with hyper-threading.
HW_THREADS = 16
PHYSICAL_CORES = 8
HT_SPEEDUP = 1.24  # 16 threads over 8 on that machine (Fig. 12a prose)


def _on_paper_machine(run, n_threads: int):
    """Model ``n_threads`` threads on the paper's machine. ``run(p)``
    simulates p threads as p full cores and returns a ``SimResult`` or a
    throughput. Above ``PHYSICAL_CORES`` the extra threads are
    hyper-threads, so throughput is min(``run(n_threads)``,
    ``HT_SPEEDUP`` x ``run(PHYSICAL_CORES)``); every other field, such
    as latency, comes from the ``n_threads`` run."""
    if n_threads <= PHYSICAL_CORES:
        return run(n_threads)
    cores = run(PHYSICAL_CORES)
    full = run(n_threads)
    if isinstance(full, SimResult):
        cap = HT_SPEEDUP * cores.throughput
        return dataclasses.replace(full, throughput=min(full.throughput, cap))
    return min(full, HT_SPEEDUP * cores)


def _simulate(
    st, n_threads: int, *, task_size: int = 8, nonblocking: bool = True,
    n_pages: int = 16,
) -> SimResult:
    """Simulate the join with ``n_threads`` threads on the paper's
    machine (``_on_paper_machine``). The simulated stream covers >= 3
    merge cycles — otherwise large-m configurations would never pay a
    merge and multithreaded throughput would be overstated."""
    n = N_SIM_TUPLES
    if st.merge_interval:
        n = min(400_000, max(n, int(3.2 * st.merge_interval)))
    cfg = functools.partial(
        SimConfig, n_tuples=n, task_size=task_size, n_pages=n_pages,
        nonblocking_merge=nonblocking,
    )
    return _on_paper_machine(lambda p: simulate(cfg(p), st), n_threads)


def _simulate_bw(res: ibwj.JoinResult, w: int, n_threads: int) -> SimResult:
    """``_simulate`` over the Bw calibration run ``res``: CAS conflicts
    are counted per page, and a window of w fills w / 64 pages of
    ``BwAdapter``'s default capacity."""
    st = calibrate.service_times(res)
    return _simulate(st, n_threads, n_pages=max(4, w // 64))


@functools.cache
def _calibration(adapter, w: int, n_process: int) -> ibwj.JoinResult:
    """``calibrate.measure(adapter, w, n_process=n_process)``, run once
    per process, so T1 and T23 share their B+ and Bw runs."""
    return calibrate.measure(adapter, w, n_process=n_process)


def _whole_cycles(w: int, merge_ratio: float) -> int:
    """Timed tuples in k whole merge cycles per stream: 2·k·threshold of
    the alternating streams, with k >= 2 and at least 20,000 tuples. The
    2w prefill ends on a merge for every power-of-two m, so a run of this
    length ends on one too and pays each stream's merges in full."""
    threshold = PIMTree(w, merge_ratio).merge_threshold
    return 2 * threshold * max(2, -(-20_000 // (2 * threshold)))


@functools.cache
def _pim_calibration(
    w: int, d_i: int, merge_ratio: float, match_rate: float, *, self_join: bool
):
    """(calibration run, service_times, (bytes loaded, bytes stored)) for
    one config, calibrated once per process, so every table that
    simulates a config shares one run. ``self_join`` has no default, so
    each config has one cache key.

    The run times k whole merge cycles per stream (``_whole_cycles``):
    its 2k merges are the join's own, its merge interval is the
    threshold, and its T_I costs cover T_I's growth from empty to full.
    The byte counts are the trees' ``PIMTree.bytes_moved``, prefill
    included.
    """
    built = []

    def factory(win):
        built.append(ibwj.PIMAdapter(win, merge_ratio, d_i))
        return built[-1]

    res = calibrate.measure(
        factory, w, n_process=_whole_cycles(w, merge_ratio),
        match_rate=match_rate, self_join=self_join,
    )
    moved = tuple(map(sum, zip(*(a.idx.bytes_moved() for a in built))))
    return res, calibrate.service_times(res), moved


def table_existing_approaches(scale: str = "full") -> pd.DataFrame:
    """Fig. 8a: NLWJ (single/multi) and IBWJ via B+ (single), round-robin
    (multi) and Bw-Tree (multi) over window sizes."""
    ws = (
        [1 << 12, 1 << 14, 1 << 16, 1 << 17]
        if scale == "full"
        else [1 << 12]
    )
    n = 16000 if scale == "full" else 4000
    rows = []
    for w in ws:
        nl = calibrate.measure(ibwj.NLWJAdapter, w, n_process=min(n, 6000))
        bp = _calibration(ibwj.BPlusAdapter, w, n)
        bw = _calibration(ibwj.BwAdapter, w, min(n, 8000))
        nl_p = nl.costs.per_tuple()

        def nlwj_rr(p):
            # NLWJ-RR: the O(w) scan parallelises perfectly across cores.
            return simulate_round_robin(
                p, 0.0, nl_p["search"] + nl_p["scan"],
                nl_p["insert"], nl_p["delete"],
            )

        def ibwj_rr(p):
            # IBWJ-RR: every core searches its local index, a window of
            # w/P, for every tuple.
            local = calibrate.measure(
                ibwj.BPlusAdapter, max(256, w // p), n_process=n
            )
            lp = local.costs.per_tuple()
            return simulate_round_robin(
                p, lp["search"], bp.costs.per_tuple()["scan"],
                lp["insert"], lp["delete"],
            )

        rows.append(
            {
                "w": w,
                "nlwj_st": nl.throughput,
                "nlwj_rr_mt": _on_paper_machine(nlwj_rr, HW_THREADS),
                "ibwj_bplus_st": bp.throughput,
                "ibwj_rr_mt": _on_paper_machine(ibwj_rr, HW_THREADS),
                "ibwj_bw_mt": _simulate_bw(bw, w, HW_THREADS).throughput,
            }
        )
    return pd.DataFrame(rows)


def table_insertion_depth_parallel(scale: str = "full") -> pd.DataFrame:
    """Fig. 8d: parallel PIM throughput vs D_I — few sub-indexes at
    D_I = 1 congest the partition locks."""
    ws = [1 << 14, 1 << 16] if scale == "full" else [1 << 13]
    depths = [1, 2, 3, 4] if scale == "full" else [1, 2]
    rows = []
    for w in ws:
        row = {"w": w}
        for d in depths:
            _, st, _ = _pim_calibration(w, d, 1.0, 2.0, self_join=False)
            row[f"d{d}"] = _simulate(st, HW_THREADS).throughput
            row[f"d{d}_nsub"] = max(st.locks.insert_keys) // 2 + 1
        rows.append(row)
    return pd.DataFrame(rows)


def table_merge_ratio_parallel(scale: str = "full") -> pd.DataFrame:
    """Fig. 9a: parallel PIM throughput vs merge ratio — in the
    multithreaded setting merges are costlier (they stall the pipeline),
    so m = 1 wins (the paper's conclusion)."""
    ws = [1 << 14, 1 << 16] if scale == "full" else [1 << 13]
    ms = [2**-6, 2**-4, 2**-2, 2**-1, 1.0] if scale == "full" else [2**-4, 1.0]
    rows = []
    for w in ws:
        row = {"w": w}
        for m in ms:
            _, st, _ = _pim_calibration(w, 2, m, 2.0, self_join=False)
            sim = _simulate(st, HW_THREADS)
            label = f"m=2^{int(np.log2(m))}" if m < 1 else "m=1"
            row[label] = sim.throughput
        rows.append(row)
    return pd.DataFrame(rows)


def table_task_size(scale: str = "full") -> pd.DataFrame:
    """Figs. 10c/10d: throughput and latency vs task size 1..10."""
    w = 1 << (16 if scale == "full" else 13)
    sizes = list(range(1, 11)) if scale == "full" else [1, 8]
    _, st, _ = _pim_calibration(w, 2, 1.0, 2.0, self_join=False)
    rows = []
    for ts in sizes:
        sim = _simulate(st, HW_THREADS, task_size=ts)
        rows.append(
            {
                "task_size": ts,
                "throughput": sim.throughput,
                "mean_latency_us": sim.mean_latency * 1e6,
                "p99_latency_us": sim.p99_latency * 1e6,
            }
        )
    return pd.DataFrame(rows)


def table_scalability(scale: str = "full") -> pd.DataFrame:
    """Fig. 12a: two-way and self-join throughput vs thread count,
    against the single-threaded no-CC implementation; reports the CC
    overhead the paper measures (~40 % / ~26 %). Each join's simulated
    rows replay its own calibration's locks.

    The single-threaded runs time as many whole merge cycles as the
    calibration behind the simulated rows (``_whole_cycles``), so both
    pay the same merges per tuple; they keep ``steady_state``'s seed 1,
    a stream the calibration (seed 0) never saw."""
    w = 1 << (16 if scale == "full" else 13)
    threads = [1, 2, 4, 8, 16] if scale == "full" else [1, 4]
    n_cc = _whole_cycles(w, 1.0)
    rows = []
    for self_join in (False, True):
        tag = "self" if self_join else "two_way"
        _, st, _ = _pim_calibration(w, 2, 1.0, 2.0, self_join=self_join)
        no_cc = steady_state(
            lambda win: ibwj.PIMAdapter(win, 1.0, 2, use_locks=False),
            w, self_join=self_join, n_process=n_cc,
        ).throughput
        with_cc = steady_state(
            lambda win: ibwj.PIMAdapter(win, 1.0, 2),
            w, self_join=self_join, n_process=n_cc,
        ).throughput
        for p in threads:
            eff = _simulate(st, p).throughput
            rows.append(
                {
                    "join": tag,
                    "threads": p,
                    "throughput": eff,
                    "st_no_cc": no_cc,
                    "st_with_cc": with_cc,
                    "speedup_vs_cc": eff / with_cc,
                    "cc_overhead": 1 - with_cc / no_cc,
                }
            )
    return pd.DataFrame(rows)


def table_multithreading_efficiency(scale: str = "full") -> pd.DataFrame:
    """Fig. 13c: st-B+, st-PIM, mt-Bw, mt-PIM, mt-PIM(blocking merge)
    over window sizes (two-way join)."""
    ws = (
        [1 << 12, 1 << 14, 1 << 16, 1 << 17]
        if scale == "full"
        else [1 << 12]
    )
    rows = []
    for w in ws:
        bp = _calibration(ibwj.BPlusAdapter, w, 16000)
        pim, st, _ = _pim_calibration(w, 2, 1.0, 2.0, self_join=False)
        bw = _calibration(ibwj.BwAdapter, w, 8000)
        rows.append(
            {
                "w": w,
                "bplus_st": bp.throughput,
                "pim_st": pim.throughput,
                "bw_mt": _simulate_bw(bw, w, HW_THREADS).throughput,
                "pim_mt": _simulate(st, HW_THREADS).throughput,
                "pim_mt_blocking": _simulate(
                    st, HW_THREADS, nonblocking=False
                ).throughput,
            }
        )
    return pd.DataFrame(rows)


def table_selfjoin(scale: str = "full") -> pd.DataFrame:
    """Fig. 12c: single-threaded vs multithreaded index-based self-join."""
    ws = [1 << 13, 1 << 15, 1 << 17] if scale == "full" else [1 << 12]
    rows = []
    for w in ws:
        bp = steady_state(
            lambda win: ibwj.BPlusAdapter(win), w, self_join=True
        ).throughput
        pim = steady_state(
            lambda win: ibwj.PIMAdapter(win, 1.0, 2), w,
            merge_ratio=1.0, self_join=True,
        ).throughput
        _, st, _ = _pim_calibration(w, 2, 1.0, 2.0, self_join=True)
        sim = _simulate(st, HW_THREADS)
        rows.append(
            {
                "w": w,
                "bplus_st": bp,
                "pim_st": pim,
                "pim_mt": sim.throughput,
                "mt_vs_bplus": sim.throughput / bp,
                "mt_vs_pim_st": sim.throughput / pim,
            }
        )
    return pd.DataFrame(rows)


def table_match_rate_parallel(scale: str = "full") -> pd.DataFrame:
    """Fig. 10b's multithreaded line: parallel PIM vs match rate — at
    high match rates the scan dominates and multithreading's edge over
    single-threaded shrinks (memory-bound regime)."""
    w = 1 << (16 if scale == "full" else 12)
    rates = [2**-2, 2**2, 2**6, 2**10] if scale == "full" else [1.0]
    rows = []
    for r in rates:
        res, st, _ = _pim_calibration(w, 2, 1.0, r, self_join=False)
        sim = _simulate(st, HW_THREADS)
        rows.append(
            {
                "match_rate": r,
                "pim_mt": sim.throughput,
                "pim_st": res.throughput,
                "mt_advantage": sim.throughput / res.throughput,
            }
        )
    return pd.DataFrame(rows)


def table_drift_throughput(scale: str = "full") -> pd.DataFrame:
    """Fig. 13b: parallel self-join throughput during a distribution
    drift of speed r, simulated over T21's run for that r
    (``tables_single.drift_runs``): its service times and lock sequence.
    That run times 1.5w tuples, so it sees one merge and its merge
    interval reads 1.5w. ``speedup_vs_st`` divides by the same run's
    measured rate, which cancels the runs' timing noise."""
    shares = table_drift_insert_distribution(scale)["max_share"]
    rows = []
    for (r, res), share in zip(drift_runs(scale).items(), shares):
        sim = _simulate(calibrate.service_times(res), HW_THREADS)
        if r == 0.0:
            base = sim.throughput
        rows.append(
            {
                "r": r,
                "measured_max_insert_share": share,
                "throughput": sim.throughput,
                "relative_to_stationary": sim.throughput / base,
                "speedup_vs_st": sim.throughput / res.throughput,
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Spark
def spark_throughput(
    spark,
    w: int,
    n_partitions: int,
    *,
    n_tuples: int = 200_000,
    rate_r: int = 1,
    rate_s: int = 1,
    dist: str = "uniform",
    w_s: int | None = None,
) -> float:
    """Wall-clock tuples/s of the Spark range-partitioned PIM join."""
    from repro.join.spark_join import parallel_band_join
    from repro.join.streams import diff_for_match_rate_empirical

    w_s = w_s or w
    seq = gen_stream(n_tuples, seed=1, rate_r=rate_r, rate_s=rate_s, dist=dist)
    if dist == "uniform":
        diff = diff_for_match_rate(2.0, max(w, w_s))
    else:
        diff = diff_for_match_rate_empirical(
            seq["x"].to_numpy(), max(w, w_s), 2.0
        )
    out = parallel_band_join(
        spark, seq, w, w_s, diff, n_partitions=n_partitions
    )
    out.count()  # warm-up: JVM JIT and Python-worker spin-up
    # best-of-2 timed runs of the full pipeline — cold-start variance
    # would otherwise dominate the partition-count comparison.
    return n_tuples / min(_timed(out.count) for _ in range(2))


def table_spark_scalability(spark, scale: str = "full") -> pd.DataFrame:
    """Real-multicore cross-check of the simulator scaling (Fig. 12a
    shape): Spark tasks = partitions = 'threads'."""
    w = 1 << (15 if scale == "full" else 12)
    parts = [1, 2, 4, 8, 16] if scale == "full" else [1, 4]
    n = 400_000 if scale == "full" else 20_000
    rows = []
    for p in parts:
        tput = spark_throughput(spark, w, p, n_tuples=n)
        rows.append({"partitions": p, "throughput": tput})
    base = rows[0]["throughput"]
    for r in rows:
        r["speedup"] = r["throughput"] / base
    return pd.DataFrame(rows)


def table_asymmetric_rates(spark, scale: str = "full") -> pd.DataFrame:
    """Fig. 11b: parallel PIM join under asymmetric input rates R:S."""
    w = 1 << (15 if scale == "full" else 12)
    ratios = [(1, 1), (2, 1), (4, 1), (8, 1)] if scale == "full" else [(1, 1), (4, 1)]
    n = 150_000 if scale == "full" else 20_000
    rows = []
    for rr, rs in ratios:
        tput = spark_throughput(spark, w, 8, n_tuples=n, rate_r=rr, rate_s=rs)
        rows.append({"rate_r:rate_s": f"{rr}:{rs}", "throughput": tput})
    return pd.DataFrame(rows)


def table_asymmetric_windows(spark, scale: str = "full") -> pd.DataFrame:
    """Fig. 11c: parallel PIM join across (w_r, w_s) combinations."""
    ws = [1 << 13, 1 << 15, 1 << 16] if scale == "full" else [1 << 12, 1 << 13]
    n = 150_000 if scale == "full" else 20_000
    rows = []
    for w_r in ws:
        row = {"w_r": w_r}
        for w_s in ws:
            row[f"w_s={w_s}"] = spark_throughput(
                spark, w_r, 8, n_tuples=n, w_s=w_s
            )
        rows.append(row)
    return pd.DataFrame(rows)


def table_distributions(spark, scale: str = "full") -> pd.DataFrame:
    """Fig. 12b: parallel PIM throughput across key distributions, with
    the band width re-calibrated per distribution to hold sigma_s ~= 2."""
    w = 1 << (15 if scale == "full" else 12)
    dists = (
        ["uniform", "gaussian", "gamma_k3", "gamma_k1"]
        if scale == "full"
        else ["uniform", "gaussian"]
    )
    n = 150_000 if scale == "full" else 20_000
    rows = []
    for d in dists:
        tput = spark_throughput(spark, w, 8, n_tuples=n, dist=d)
        rows.append({"distribution": d, "throughput": tput})
    base = next(r["throughput"] for r in rows if r["distribution"] == "uniform")
    for r in rows:
        r["vs_uniform"] = r["throughput"] / base
    return pd.DataFrame(rows)


def table_memory_bandwidth(scale: str = "full") -> pd.DataFrame:
    """Fig. 11d: effective 'memory bandwidth' proxy from the byte
    counters (8 B/element loads/stores, DESIGN.md §3.4) scaled by the
    simulated multithreaded throughput. Both bandwidths are the
    calibration run's bytes per tuple times the same throughput, so
    ``store_share`` is that run's measured share at every thread count:
    the paper's falling share comes from the longer linear scans of
    more in-flight tasks, which the byte counters of a one-thread run do
    not see."""
    w = 1 << (16 if scale == "full" else 12)
    threads = [1, 2, 4, 8, 16] if scale == "full" else [1, 4]
    # Bytes per tuple from the calibration run's own trees: only the
    # timed tuples probe, and every tuple, prefill included, inserts.
    res, st, (loads, stores) = _pim_calibration(w, 2, 1.0, 2.0, self_join=False)
    per_tuple_load = loads / res.n_processed
    per_tuple_store = stores / (2 * w + res.n_processed)
    rows = []
    for p in threads:
        sim = _simulate(st, p)
        load_bw = per_tuple_load * sim.throughput
        store_bw = per_tuple_store * sim.throughput
        rows.append(
            {
                "threads": p,
                "load_gbps": load_bw / 2**30,
                "store_gbps": store_bw / 2**30,
                "store_share": store_bw / (load_bw + store_bw),
            }
        )
    return pd.DataFrame(rows)
