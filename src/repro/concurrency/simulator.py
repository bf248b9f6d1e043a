"""Discrete-event simulator of the paper's multicore execution.

The paper's multithreaded numbers come from an octa-core CPU running
C++-speed threads; CPython cannot reproduce that directly (DESIGN.md
§3.1), so multithreaded *performance* is reproduced here: a deterministic
event simulation of P worker threads executing the §4 join algorithm,
whose per-operation service times are calibrated from wall-clock
measurements of the real single-threaded structures in this repo
(`repro.bench.calibrate`).

Modelled mechanisms (each one is a measured phenomenon in the paper):

- shared work-queue mutex + per-task acquisition cost (task-size sweep,
  Fig. 10c/d);
- PIM partition locks, replayed from the calibration run's own locks
  (``ibwj.LockTrace``): two trees' lock sets in a two-way join, one in a
  self-join, with D_I's (Fig. 8d) and a drift's (Fig. 13a/b) congestion;
- Bw-Tree CAS conflicts: expected retry work grows with the probability
  that another in-flight op hits the same page (Fig. 8a/13c);
- round-robin probe fan-out: every thread searches its local index for
  every tuple (Eq. 4, Fig. 8a);
- blocking vs nonblocking merges: a blocking merge stalls task
  assignment for the whole rebuild; a nonblocking merge occupies the
  merging thread and surcharges concurrent lookups with the longer
  edge-to-head linear scan (Fig. 13c, latency in Fig. 10d);
- ordered result propagation: a tuple's result leaves the system when
  every earlier tuple is complete (latency metric).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.join.ibwj import LockTrace

CAS_RETRY_FACTOR = 1.0  # fraction of locked work redone per CAS retry
RR_SYNC_OVERHEAD = 1e-6  # round-robin per-tuple synchronisation (s)


@dataclass
class ServiceTimes:
    """Per-tuple service times in seconds (calibrated, not guessed)."""

    lock_free: float  # T_S descent + T_S leaf scan + bookkeeping
    subindex: float  # the probe's sub-index part, under the probed tree's locks
    update: float  # insert + delete, under the own tree's lock (Bw: CAS)
    task_acquire: float = 2e-6  # queue mutex hold per task
    merge_duration: float = 0.0  # one merge rebuild
    merge_interval: int = 0  # tuples between merges (0 = never)
    scan_surcharge: float = 0.0  # extra lookup cost during nonblocking merge
    locks: LockTrace | None = field(default=None, repr=False)  # PIM only


@dataclass
class SimConfig:
    n_threads: int
    n_tuples: int
    task_size: int = 8
    n_pages: int = 16  # Bw (no lock trace): pages a CAS can conflict on
    nonblocking_merge: bool = True


@dataclass
class SimResult:
    makespan: float
    throughput: float  # tuples / second
    mean_latency: float  # assignment -> ordered propagation
    p99_latency: float
    lock_wait_total: float
    n_merges: int
    trace: list | None = field(default=None, repr=False)


def simulate(cfg: SimConfig, st: ServiceTimes, keep_trace: bool = False) -> SimResult:
    """Run the event simulation and return throughput/latency stats.

    Threads repeatedly: wait for the queue mutex, take ``task_size``
    tuples, then process them sequentially — lock-free work, then the
    lock (or CAS) protected work. With a lock trace (PIM), tuple j
    replays tuple ``j % n`` of the n in ``st.locks``: ``subindex`` is
    split over the locks its probe took, held one after another
    (lock-free if none), then its insert's lock is held for ``update``.
    Without one (Bw), ``update`` pays CAS retries. Completion times feed
    the ordered-propagation latency. ``keep_trace`` records every lock
    hold as ``(tuple, lock, start, end)``.
    """
    n, p = cfg.n_tuples, cfg.n_threads
    locks = st.locks
    if locks is not None:
        probe_end = locks.probe_end.tolist()
        probe_start = [0] + probe_end[:-1]
        probe_keys = locks.probe_keys.tolist()
        insert_keys = locks.insert_keys.tolist()
        held_until = [0.0] * (max(probe_keys + insert_keys) + 1)

    queue_free = 0.0
    assign_time = np.zeros(n)
    complete_time = np.zeros(n)
    lock_wait = 0.0
    merges = 0
    since_merge = 0
    merge_until = 0.0  # nonblocking merge window (lookup surcharge active)
    trace: list = [] if keep_trace else None

    # Expected CAS retry overhead per op: another thread's op lands on the
    # same page with prob ~ (p-1)/n_pages; retried work is geometric.
    if locks is None:
        q = min(0.9, max(0.0, (p - 1) / max(1, cfg.n_pages)))
        cas_mult = 1.0 + CAS_RETRY_FACTOR * q / (1.0 - q)

    # Event loop over (time, thread): each step advances one thread by
    # ONE tuple, so simulated clocks stay synchronised and a lock wait
    # can only be caused by an overlapping hold — processing whole tasks
    # at once would let clocks diverge and manufacture phantom conflicts.
    heap = [(0.0, w) for w in range(p)]
    heapq.heapify(heap)
    pending: list[list[int]] = [[] for _ in range(p)]
    extra_busy = [0.0] * p  # lazily-applied nonblocking-merge rebuild work
    i = 0
    while heap:
        t, w = heapq.heappop(heap)
        if extra_busy[w] and not pending[w]:
            # A thread picks up a pending merge rebuild only between
            # tasks (§4.2: the merging thread first finishes its current
            # task) — otherwise its in-flight tuples would complete after
            # the rebuild and stall ordered propagation behind a merge.
            t += extra_busy[w]
            extra_busy[w] = 0.0
            heapq.heappush(heap, (t, w))
            continue
        if not pending[w]:
            if i >= n:
                continue  # no more work: thread retires
            # Task acquisition under the queue mutex.
            start = max(t, queue_free)
            queue_free = start + st.task_acquire
            t = start + st.task_acquire
            task_end = min(i + cfg.task_size, n)
            pending[w] = list(range(i, task_end))
            for j in pending[w]:
                assign_time[j] = t
            i = task_end
        j = pending[w].pop(0)
        work_free = st.lock_free
        if st.merge_interval and t < merge_until:
            work_free += st.scan_surcharge
        t += work_free
        if locks is not None:
            k = j % len(insert_keys)
            probe = probe_keys[probe_start[k]:probe_end[k]]
            if not probe:
                t += st.subindex  # the probe met only empty sub-indexes
            share = st.subindex / max(1, len(probe))
            holds = [(key, share) for key in probe]
            holds.append((insert_keys[k], st.update))
            for key, dur in holds:
                s = max(t, held_until[key])
                lock_wait += s - t
                t = held_until[key] = s + dur
                if keep_trace:
                    trace.append((j, key, s, t))
        else:  # bw: the page read is latch-free, the updates CAS
            t += st.subindex + st.update * cas_mult
        since_merge += 1
        if st.merge_interval and since_merge >= st.merge_interval:
            since_merge = 0
            merges += 1
            if cfg.nonblocking_merge:
                # The merging thread is busy for the rebuild; lookups
                # started meanwhile pay the longer linear scan.
                merge_until = t + st.merge_duration
                if p == 1:
                    t += st.merge_duration
                else:
                    extra_busy[(w + 1) % p] += st.merge_duration
            else:
                # Blocking merge: task assignment gated for the rebuild.
                queue_free = max(queue_free, t) + st.merge_duration
                t += st.merge_duration
        complete_time[j] = t
        heapq.heappush(heap, (t, w))

    makespan = float(complete_time.max())
    # Ordered propagation: tuple j leaves when all k <= j are complete.
    propagate = np.maximum.accumulate(complete_time)
    latency = propagate - assign_time
    return SimResult(
        makespan=makespan,
        throughput=n / makespan if makespan > 0 else 0.0,
        mean_latency=float(latency.mean()),
        p99_latency=float(np.quantile(latency, 0.99)),
        lock_wait_total=float(lock_wait),
        n_merges=merges,
        trace=trace,
    )


def simulate_round_robin(
    n_threads: int,
    search_local: float,
    scan_total: float,
    insert: float,
    delete: float,
) -> float:
    """Throughput of round-robin (handshake-join-style) parallel IBWJ.

    Context-insensitive partitioning has no shared state: every thread
    searches its own local index for *every* tuple (the redundant probe
    of Eq. 4, with local height H_p < H_b), while scan/insert/delete work
    is spread across threads. Throughput is the reciprocal of the
    per-tuple critical-path work on one thread.
    """
    per_thread = (
        search_local
        + scan_total / n_threads
        + (insert + delete) / n_threads
        + RR_SYNC_OVERHEAD
    )
    return 1.0 / per_thread
