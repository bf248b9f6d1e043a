"""Tests for the discrete-event multicore simulator (DESIGN.md §3.1)."""
import pytest

from repro.concurrency.simulator import (
    ServiceTimes,
    SimConfig,
    SimResult,
    drift_partition_probs,
    simulate,
    simulate_round_robin,
)

ST = ServiceTimes(lock_free=4e-6, locked=4e-6, task_acquire=1e-6)


def test_single_thread_makespan_is_serial_sum():
    n = 1000
    cfg = SimConfig(n_threads=1, n_tuples=n, task_size=8, mode="pim")
    r = simulate(cfg, ST)
    per_task = ST.task_acquire
    expect = n * (ST.lock_free + ST.locked) + (n / 8) * per_task
    assert r.makespan == pytest.approx(expect, rel=1e-6)


def test_throughput_monotone_in_threads_uncontended():
    tput = []
    for p in (1, 2, 4, 8):
        cfg = SimConfig(
            n_threads=p, n_tuples=4000, task_size=8,
            mode="pim", n_partitions=256,
        )
        tput.append(simulate(cfg, ST).throughput)
    assert all(b > a * 1.3 for a, b in zip(tput, tput[1:]))
    assert tput[-1] > tput[0] * 4  # near-linear up to 8 threads


def test_lock_congestion_with_few_partitions():
    """One partition serialises everything — the Fig. 8d D_I=1 effect."""
    kw = dict(n_threads=8, n_tuples=4000, task_size=8, mode="pim")
    many = simulate(SimConfig(n_partitions=256, **kw), ST)
    one = simulate(SimConfig(n_partitions=1, **kw), ST)
    assert many.throughput > one.throughput * 1.8
    assert one.lock_wait_total > many.lock_wait_total


def test_skewed_partition_probs_congest():
    """Drifted insert distribution (Fig. 13a/b) causes lock congestion."""
    kw = dict(n_threads=8, n_tuples=4000, task_size=8, mode="pim", n_partitions=64)
    uni = simulate(SimConfig(partition_probs=None, **kw), ST)
    hot = simulate(SimConfig(partition_probs=drift_partition_probs(64, 1.0), **kw), ST)
    assert hot.throughput < uni.throughput * 0.75


def test_bw_mode_conflicts_hurt_small_trees():
    """CAS retries grow as pages shrink (Fig. 8a small-window effect)."""
    kw = dict(n_threads=8, n_tuples=3000, task_size=8, mode="bw")
    small = simulate(SimConfig(n_partitions=8, **kw), ST)
    large = simulate(SimConfig(n_partitions=2048, **kw), ST)
    assert large.throughput > small.throughput * 1.2


def test_task_size_tradeoff():
    """Bigger tasks amortise queue overhead but raise latency (Fig 10c/d)."""
    st = ServiceTimes(lock_free=2e-6, locked=2e-6, task_acquire=8e-6)
    res = {
        ts: simulate(
            SimConfig(n_threads=8, n_tuples=4000, task_size=ts,
                      mode="pim", n_partitions=256),
            st,
        )
        for ts in (1, 4, 16)
    }
    assert res[16].throughput > res[1].throughput * 1.5
    assert res[16].mean_latency > res[1].mean_latency


def test_blocking_merge_slower_when_single_merge_thread_available():
    st = ServiceTimes(
        lock_free=2e-6, locked=2e-6, task_acquire=1e-6,
        merge_duration=2e-3, merge_interval=500,
    )
    kw = dict(n_threads=8, n_tuples=5000, task_size=8, mode="pim", n_partitions=256)
    nb = simulate(SimConfig(nonblocking_merge=True, **kw), st)
    bl = simulate(SimConfig(nonblocking_merge=False, **kw), st)
    assert nb.n_merges == bl.n_merges == 10
    assert nb.throughput > bl.throughput * 0.9  # close; blocking stalls all


def test_merge_interval_zero_means_no_merges():
    r = simulate(
        SimConfig(n_threads=4, n_tuples=1000, mode="pim", n_partitions=64), ST
    )
    assert r.n_merges == 0


def test_latency_includes_ordered_propagation():
    r = simulate(
        SimConfig(n_threads=4, n_tuples=2000, task_size=8, mode="pim",
                  n_partitions=128),
        ST,
    )
    assert r.p99_latency >= r.mean_latency > 0


def test_trace_lock_exclusion_invariant():
    """No two tuples of the same partition may overlap in service time."""
    cfg = SimConfig(
        n_threads=8, n_tuples=800, task_size=4, mode="pim", n_partitions=8
    )
    r = simulate(cfg, ST, keep_trace=True)
    by_part: dict[int, list[tuple[float, float]]] = {}
    for j, w, part, t_assign, t_done in r.trace:
        by_part.setdefault(part, []).append((t_done - ST.locked, t_done))
    for part, spans in by_part.items():
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1 - 1e-12, f"overlap in partition {part}"


def test_deterministic_given_seed():
    cfg = SimConfig(n_threads=4, n_tuples=1000, mode="pim", n_partitions=32)
    a = simulate(cfg, ST)
    b = simulate(cfg, ST)
    assert a.makespan == b.makespan


def test_round_robin_closed_form():
    t1 = simulate_round_robin(1, 4e-6, 1e-6, 2e-6, 2e-6)
    t8 = simulate_round_robin(8, 3e-6, 1e-6, 2e-6, 2e-6)
    assert t8 > t1  # parallelism helps ...
    assert t8 < 8 * t1  # ... sub-linearly (redundant local searches)


def test_round_robin_search_dominates_at_scale():
    """As P grows with fixed work, the redundant search bounds speedup."""
    base = simulate_round_robin(1, 4e-6, 8e-6, 2e-6, 2e-6)
    tp = [simulate_round_robin(p, 4e-6, 8e-6, 2e-6, 2e-6) for p in (2, 4, 8, 16)]
    speedups = [t / base for t in tp]
    assert speedups[-1] < 4  # far below linear
    gains = [b / a for a, b in zip([base] + tp, tp)]
    assert gains == sorted(gains, reverse=True)  # diminishing returns


def test_drift_probs_normalised():
    for skew in (0.0, 0.5, 1.0):
        p = drift_partition_probs(64, skew)
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()
    p = drift_partition_probs(64, 1.0)
    assert p.max() > 0.7  # ~77 % of inserts on one sub-index


def test_sim_result_fields():
    r = simulate(SimConfig(n_threads=2, n_tuples=100, mode="pim"), ST)
    assert isinstance(r, SimResult)
    assert r.throughput == pytest.approx(100 / r.makespan)
