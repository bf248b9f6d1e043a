"""The modelling decisions of the simulated tables, each made in one
place: how a thread count above the paper's 8 physical cores is modelled
(``_on_paper_machine``); how long a configuration's calibration run is,
which join it runs and which locks it records (``_pim_calibration``);
and the whole-cycle run length T17's measured rows share with it."""
import dataclasses

import numpy as np
import pytest

from repro.bench import tables_parallel as tp
from repro.bench.tables_single import steady_state
from repro.concurrency.simulator import (
    ServiceTimes,
    SimConfig,
    simulate,
    simulate_round_robin,
)
from repro.core.immutable_btree import ImmutableBTree
from repro.core.pim_tree import PIMTree
from repro.join import ibwj
from tests.test_simulator import lock_trace

ST = ServiceTimes(lock_free=4e-6, subindex=2e-6, update=2e-6, task_acquire=1e-6)
ST256 = dataclasses.replace(ST, locks=lock_trace(256))  # uncontended
ST1 = dataclasses.replace(ST, locks=lock_trace(1))  # one lock


def _plain(st, n_threads):
    """The simulation of ``n_threads`` full cores, without the rule."""
    cfg = SimConfig(n_threads=n_threads, n_tuples=tp.N_SIM_TUPLES)
    return simulate(cfg, st)


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_paper_machine_is_the_plain_simulation_up_to_8_threads(p):
    assert tp._simulate(ST256, p) == _plain(ST256, p)


def test_paper_machine_caps_uncontended_16_threads_at_the_ht_gain():
    eight, full = _plain(ST256, 8), _plain(ST256, 16)
    got = tp._simulate(ST256, 16)
    assert full.throughput > tp.HT_SPEEDUP * eight.throughput
    assert got.throughput == tp.HT_SPEEDUP * eight.throughput
    assert got.mean_latency == full.mean_latency  # from the 16-thread run
    assert got.p99_latency == full.p99_latency


def test_paper_machine_keeps_contended_16_threads_unchanged():
    """One partition serialises the locked work: 16 full cores are no
    faster than 1.24 x 8, so the 16-thread run stands as it is."""
    eight, full = _plain(ST1, 8), _plain(ST1, 16)
    assert full.throughput < tp.HT_SPEEDUP * eight.throughput
    assert tp._simulate(ST1, 16) == full


def test_paper_machine_caps_a_plain_throughput():
    """The round-robin model returns a number, not a ``SimResult``."""

    def rr(p):
        return simulate_round_robin(p, 1e-7, 8e-6, 2e-6, 2e-6)

    assert tp._on_paper_machine(rr, 4) == rr(4)
    assert rr(16) > tp.HT_SPEEDUP * rr(8)
    assert tp._on_paper_machine(rr, 16) == tp.HT_SPEEDUP * rr(8)


@pytest.mark.parametrize("d_i", [1, 2, 3])
def test_pim_calibration_subindexes_are_the_w_element_ts_nodes(d_i):
    """The calibration run's inserts lock every sub-index of its trees,
    whose T_S holds the w-element window after each merge."""
    w = 1 << 12
    st = tp._pim_calibration(w, d_i, 1.0, 2.0, self_join=False)[1]
    ts = ImmutableBTree(np.arange(w), np.arange(w))
    assert max(st.locks.insert_keys) // 2 + 1 == len(ts.partition_bounds(d_i)) > 1


@pytest.mark.parametrize("self_join", [False, True], ids=["two_way", "self"])
def test_pim_calibration_runs_on_its_join_stream(self_join):
    """A self-join calibration runs on a self-join stream: every tuple
    probes and inserts into the one tree. A two-way one alternates R and
    S, and each tuple probes the tree it does not insert into."""
    res, st, _ = tp._pim_calibration(1 << 12, 2, 1.0, 2.0, self_join=self_join)
    locks = st.locks
    assert locks is res.locks and len(locks.insert_keys) == res.n_processed
    own = np.frombuffer(locks.insert_keys, np.int64) % 2
    n_probe_locks = np.diff(np.frombuffer(locks.probe_end, np.int64), prepend=0)
    probed = np.frombuffer(locks.probe_keys, np.int64) % 2
    assert (probed == np.repeat(own, n_probe_locks)).all() == self_join
    if self_join:
        assert not own.any()
    else:
        assert (own == np.arange(len(own)) % 2).all()
        assert (probed == 1 - np.repeat(own, n_probe_locks)).all()


@pytest.mark.parametrize("w, m", [(1 << 14, 1.0), (1 << 10, 2**-4)])
def test_pim_calibration_times_whole_merge_cycles(w, m):
    """The run covers k >= 2 whole merge cycles per stream and at least
    20,000 tuples, so every simulated merge is one of its own: the merge
    interval is the threshold and the duration their mean. At w = 2^14,
    m = 1 a 20,000-tuple run would see no merge."""
    res, st, _ = tp._pim_calibration(w, 2, m, 2.0, self_join=False)
    threshold = PIMTree(w, m).merge_threshold
    c = res.costs
    # the streams alternate, so each tree merges n_merges / 2 times
    assert res.n_processed % (2 * threshold) == 0
    assert c.n_merges == res.n_processed // threshold >= 4
    assert res.n_processed >= 20_000
    assert st.merge_interval == threshold
    assert st.merge_duration == c.merge / c.n_merges


@pytest.mark.parametrize("self_join", [False, True], ids=["two_way", "self"])
def test_whole_cycle_runs_end_on_a_merge(self_join):
    """T17's single-threaded rows time ``_whole_cycles`` tuples after the
    2w prefill, as the calibration does: every merge they pay is whole,
    and the run ends on one."""
    w = 1 << 10
    built = []

    def factory(win):
        built.append(ibwj.PIMAdapter(win, 1.0, 2))
        return built[-1]

    n = tp._whole_cycles(w, 1.0)
    res = steady_state(factory, w, n_process=n, self_join=self_join, measure=True)
    assert n >= 20_000 and n % (2 * w) == 0
    assert res.costs.n_merges == n // w
    assert all(len(a.idx) == len(a.idx.t_s) == w for a in built)  # T_I empty
