"""Tests for the discrete-event multicore simulator (DESIGN.md §3.1).

A PIM join's simulation replays a lock sequence (``ibwj.LockTrace``);
these tests build synthetic ones, seeded, with every probe locking one
sub-index. Without one, the Bw-Tree's CAS model applies."""
import dataclasses

import numpy as np
import pytest

from repro.concurrency.simulator import (
    ServiceTimes,
    SimConfig,
    SimResult,
    simulate,
    simulate_round_robin,
)
from repro.join.ibwj import LockTrace


def record(tr, probe_tree, probe_subs, tree, sub):
    """Append one tuple to ``tr`` as ``run_ibwj`` does."""
    tr.probe_keys.extend(2 * i + probe_tree for i in probe_subs)
    tr.probe_end.append(len(tr.probe_keys))
    tr.insert_keys.append(2 * sub + tree)


def lock_trace(n_subs, n=4000, *, self_join=True, hot_share=0.0, seed=0):
    """n tuples whose probe and insert each lock one sub-index, uniform
    over ``n_subs`` per tree except that a ``hot_share`` of them lock
    sub-index ``n_subs // 2``. A two-way join alternates R and S tuples,
    each probing the other's tree; a self-join has one tree."""
    rng = np.random.default_rng(seed)
    subs = rng.integers(0, n_subs, size=(n, 2))
    subs[rng.random((n, 2)) < hot_share] = n_subs // 2
    tr = LockTrace()
    for j, (probe_sub, insert_sub) in enumerate(subs.tolist()):
        own = 0 if self_join else j % 2
        record(tr, own if self_join else 1 - own, [probe_sub], own, insert_sub)
    return tr


def st_with(n_subs, **kw):
    return dataclasses.replace(ST, locks=lock_trace(n_subs, **kw))


ST = ServiceTimes(lock_free=4e-6, subindex=2e-6, update=2e-6, task_acquire=1e-6)
ST256 = dataclasses.replace(ST, locks=lock_trace(256))


def test_single_thread_makespan_is_serial_sum():
    n = 1000
    cfg = SimConfig(n_threads=1, n_tuples=n, task_size=8)
    r = simulate(cfg, ST256)
    per_task = ST.task_acquire
    expect = n * (ST.lock_free + ST.subindex + ST.update) + (n / 8) * per_task
    assert r.makespan == pytest.approx(expect, rel=1e-6)


def test_throughput_monotone_in_threads_uncontended():
    tput = []
    for p in (1, 2, 4, 8):
        cfg = SimConfig(n_threads=p, n_tuples=4000, task_size=8)
        tput.append(simulate(cfg, ST256).throughput)
    assert all(b > a * 1.3 for a, b in zip(tput, tput[1:]))
    assert tput[-1] > tput[0] * 4  # near-linear up to 8 threads


def test_lock_congestion_with_few_partitions():
    """One partition serialises everything — the Fig. 8d D_I=1 effect."""
    cfg = SimConfig(n_threads=8, n_tuples=4000, task_size=8)
    many = simulate(cfg, ST256)
    one = simulate(cfg, st_with(1))
    assert many.throughput > one.throughput * 1.8
    assert one.lock_wait_total > many.lock_wait_total


def test_skewed_partition_probs_congest():
    """Drifted insert distribution (Fig. 13a/b) causes lock congestion:
    three quarters of the locks on one of 64 sub-indexes."""
    cfg = SimConfig(n_threads=8, n_tuples=4000, task_size=8)
    uni = simulate(cfg, st_with(64))
    hot = simulate(cfg, st_with(64, hot_share=0.75))
    assert hot.throughput < uni.throughput * 0.75


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_two_way_join_has_two_lock_sets(p):
    """A two-way probe locks the opposite tree and its insert its own, so
    two trees of 8 sub-indexes are 16 locks; a self-join's probe and
    insert share 8. Without a second thread no lock waits, so the two
    take the same time; with more, the two-way join is faster."""
    cfg = SimConfig(n_threads=p, n_tuples=4000, task_size=8)
    st = dataclasses.replace(ST, subindex=3e-6, update=3e-6)
    two_way = simulate(cfg, dataclasses.replace(st, locks=lock_trace(8, self_join=False)))
    self_join = simulate(cfg, dataclasses.replace(st, locks=lock_trace(8)))
    if p == 1:
        assert two_way.makespan == self_join.makespan
        assert two_way.lock_wait_total == self_join.lock_wait_total == 0
    else:
        assert two_way.throughput > self_join.throughput
        assert two_way.lock_wait_total < self_join.lock_wait_total


def test_probe_time_splits_over_its_locks_and_runs_lock_free_without():
    """A probe part is held over the locks the probe took, one after
    another; a probe that locked nothing runs it without a lock."""
    tr = LockTrace()
    record(tr, 0, [3, 4], 0, 7)
    record(tr, 0, [], 0, 7)
    st = dataclasses.replace(ST, locks=tr)
    r = simulate(SimConfig(n_threads=1, n_tuples=2, task_size=2), st, keep_trace=True)
    t0 = ST.task_acquire + ST.lock_free
    half = ST.subindex / 2
    end0 = t0 + ST.subindex + ST.update
    t1 = end0 + ST.lock_free + ST.subindex
    assert [(j, key) for j, key, _, _ in r.trace] == [(0, 6), (0, 8), (0, 14), (1, 14)]
    spans = [(s, e) for _, _, s, e in r.trace]
    assert spans == pytest.approx(
        [(t0, t0 + half), (t0 + half, t0 + ST.subindex), (t0 + ST.subindex, end0),
         (t1, t1 + ST.update)]
    )


def test_bw_mode_conflicts_hurt_small_trees():
    """CAS retries grow as pages shrink (Fig. 8a small-window effect)."""
    kw = dict(n_threads=8, n_tuples=3000, task_size=8)
    small = simulate(SimConfig(n_pages=8, **kw), ST)
    large = simulate(SimConfig(n_pages=2048, **kw), ST)
    assert large.throughput > small.throughput * 1.2


def test_task_size_tradeoff():
    """Bigger tasks amortise queue overhead but raise latency (Fig 10c/d)."""
    st = ServiceTimes(
        lock_free=2e-6, subindex=1e-6, update=1e-6, task_acquire=8e-6,
        locks=ST256.locks,
    )
    res = {
        ts: simulate(
            SimConfig(n_threads=8, n_tuples=4000, task_size=ts), st
        )
        for ts in (1, 4, 16)
    }
    assert res[16].throughput > res[1].throughput * 1.5
    assert res[16].mean_latency > res[1].mean_latency


def test_blocking_merge_slower_when_single_merge_thread_available():
    st = ServiceTimes(
        lock_free=2e-6, subindex=1e-6, update=1e-6, task_acquire=1e-6,
        merge_duration=2e-3, merge_interval=500, locks=ST256.locks,
    )
    kw = dict(n_threads=8, n_tuples=5000, task_size=8)
    nb = simulate(SimConfig(nonblocking_merge=True, **kw), st)
    bl = simulate(SimConfig(nonblocking_merge=False, **kw), st)
    assert nb.n_merges == bl.n_merges == 10
    assert nb.throughput > bl.throughput * 0.9  # close; blocking stalls all


def test_merge_interval_zero_means_no_merges():
    r = simulate(SimConfig(n_threads=4, n_tuples=1000), st_with(64))
    assert r.n_merges == 0


def test_latency_includes_ordered_propagation():
    r = simulate(
        SimConfig(n_threads=4, n_tuples=2000, task_size=8),
        st_with(128),
    )
    assert r.p99_latency >= r.mean_latency > 0


def test_trace_lock_exclusion_invariant():
    """No two holds of the same lock may overlap in time, in one tree or
    two; and each tuple holds the locks it recorded, probe first."""
    cfg = SimConfig(n_threads=8, n_tuples=800, task_size=4)
    for self_join, n_locks in ((True, 8), (False, 16)):
        st = st_with(8, n=800, self_join=self_join)
        r = simulate(cfg, st, keep_trace=True)
        by_lock: dict[int, list[tuple[float, float]]] = {}
        by_tuple: dict[int, list[int]] = {}
        for j, key, start, end in r.trace:
            by_lock.setdefault(key, []).append((start, end))
            by_tuple.setdefault(j, []).append(key)
        locks = st.locks
        assert by_tuple == {
            j: [locks.probe_keys[j], locks.insert_keys[j]] for j in range(800)
        }
        assert len(by_lock) == n_locks
        for key, spans in by_lock.items():
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert b0 >= a1 - 1e-12, f"overlap on lock {key}"


def test_deterministic_given_seed():
    cfg = SimConfig(n_threads=4, n_tuples=1000)
    st = st_with(32)
    a = simulate(cfg, st)
    b = simulate(cfg, st)
    assert a.makespan == b.makespan


def test_replay_cycles_the_lock_sequence():
    """A simulation longer than the trace replays it from the start: two
    copies of a trace end to end take the time of the trace cycled
    twice."""
    tr = lock_trace(4, n=300, self_join=False)
    twice = LockTrace()
    for arr in ("probe_keys", "insert_keys"):
        getattr(twice, arr).extend(getattr(tr, arr) * 2)
    twice.probe_end.extend(tr.probe_end)
    twice.probe_end.extend(e + len(tr.probe_keys) for e in tr.probe_end)
    cfg = SimConfig(n_threads=4, n_tuples=600, task_size=4)
    cycled = simulate(cfg, dataclasses.replace(ST, locks=tr))
    copied = simulate(cfg, dataclasses.replace(ST, locks=twice))
    assert cycled.makespan == copied.makespan


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


def test_sim_result_fields():
    r = simulate(SimConfig(n_threads=2, n_tuples=100), ST256)
    assert isinstance(r, SimResult)
    assert r.throughput == pytest.approx(100 / r.makespan)
