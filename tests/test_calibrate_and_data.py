"""Tests for the steady-state run every measured table shares and for
the calibration bridge (measurements -> simulator service times)."""
import numpy as np
import pytest

from repro.bench.calibrate import measure, service_times
from repro.concurrency.simulator import SimConfig, simulate
from repro.bench.tables_single import steady_state
from repro.join import ibwj
from repro.join.streams import diff_for_match_rate, gen_stream, reference_pairs


@pytest.mark.parametrize(
    "w_r, w_s, self_join", [(96, 160, False), (128, None, True)]
)
def test_steady_state_matches_oracle(w_r, w_s, self_join):
    """The run prefills 2*max(w_r, w_s) tuples without probes, then joins
    ``n_process`` more: its matches are the DuckDB pairs whose later
    tuple arrives after the prefill. Merges fire every 0.25 * w inserts."""
    n = 1500
    res = steady_state(
        lambda win: ibwj.PIMAdapter(win, 0.25, 2), w_r, w_s,
        n_process=n, seed=5, self_join=self_join,
    )
    w_s = w_s or w_r
    warm = 2 * max(w_r, w_s)
    seq = gen_stream(warm + n, seed=5, self_join=self_join)
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    assert res.n_processed == n
    assert res.n_matches == sum(later > warm for later, _ in ref) > 0


@pytest.fixture(scope="module")
def pim_run():
    # n_process must cover >= 1 merge cycle per stream inside the timed
    # region (threshold = m*w own-stream inserts).
    return measure(
        lambda win: ibwj.PIMAdapter(win, 0.25), 1 << 12, n_process=6000
    )


def test_measure_returns_positive_costs(pim_run):
    per = pim_run.costs.per_tuple()
    assert set(per) == {"search", "scan", "subindex", "insert", "delete", "merge"}
    assert per["search"] > 0 and per["subindex"] > 0 and per["insert"] > 0
    assert pim_run.throughput > 0
    assert pim_run.n_matches > 0


def test_measure_merge_stats(pim_run):
    st = service_times(pim_run)
    assert st.merge_duration > 0
    assert st.merge_interval > 0


def test_pim_service_times(pim_run):
    st = service_times(pim_run)
    per = pim_run.costs.per_tuple()
    assert st.lock_free > 0 and st.subindex > 0 and st.update > 0
    assert per["delete"] == 0.0  # disposal happens inside the merge
    c = pim_run.costs
    assert st.merge_duration == c.merge / c.n_merges
    # lock_free + locked covers the measured index steps plus the
    # harness driver overhead (so a 1-thread simulation reproduces the
    # measured single-threaded throughput).
    total_measured = sum(per[k] for k in ("search", "scan", "subindex", "insert"))
    total = st.lock_free + st.subindex + st.update
    assert total >= total_measured * (1 - 1e-6)
    # the measured T_I part of each probe is held under the probed tree's
    # locks, the insert under its own tree's
    assert st.subindex == per["subindex"]
    assert st.update == pytest.approx(per["insert"])
    assert total <= 1.0 / pim_run.throughput * 1.01
    assert st.locks is pim_run.locks
    assert len(st.locks.insert_keys) == pim_run.n_processed


@pytest.mark.parametrize("match_rate", [2.0, 256.0])
@pytest.mark.parametrize("self_join", [False, True], ids=["two_way", "self"])
def test_lock_trace_is_the_trees_own_traffic(self_join, match_rate):
    """The recorded lock sequence is what the trees did: each tree's
    inserts since its last merge, counted per sub-index, are its
    ``insert_counts``, and the recorded locks plus the prefill's inserts
    are every lock the trees took. At a match rate of 2 most bands stay
    in one sub-index; at 256 most span several."""
    built = []

    def factory(win):
        built.append(ibwj.PIMAdapter(win, 0.25, 3))
        return built[-1]

    w = 1 << 12
    res = measure(
        factory, w, n_process=5000, match_rate=match_rate, self_join=self_join
    )
    locks = res.locks
    assert len(locks.insert_keys) == res.n_processed
    spans = np.diff(np.frombuffer(locks.probe_end, np.int64), prepend=0)
    assert (np.median(spans) >= 2) == (match_rate > 2)
    inserts = np.frombuffer(locks.insert_keys, np.int64)
    for tree, a in enumerate(built):
        counts = a.idx.insert_counts
        assert sum(counts) > 0  # the run does not end on a merge
        subs = inserts[inserts % 2 == tree] // 2
        since_merge = subs[len(subs) - sum(counts):]
        assert np.bincount(since_merge, minlength=len(counts)).tolist() == counts
    taken = sum(a.idx.lock_acquisitions for a in built)
    assert taken == 2 * w + len(locks.probe_keys) + len(locks.insert_keys)


def test_one_thread_simulation_takes_the_calibration_run_time():
    """Every measured second of a calibration run lands in one service
    time, merges included: one simulated thread over the run's own
    tuples takes the run's per-tuple time plus the task acquisition the
    simulator adds, for a PIM two-way join, a PIM self-join (both
    replaying their own lock sequences) and Bw. One Bw thread makes no
    CAS retries."""
    runs = [
        measure(
            lambda win: ibwj.PIMAdapter(win, 0.25), 1 << 10, n_process=6000,
            self_join=self_join,
        )
        for self_join in (False, True)
    ]
    assert all(res.costs.n_merges > 1 for res in runs)
    runs.append(measure(ibwj.BwAdapter, 1 << 10, n_process=3000))
    for res in runs:
        st = service_times(res)
        cfg = SimConfig(n_threads=1, n_tuples=res.n_processed)
        sim = simulate(cfg, st)
        assert sim.n_merges == res.costs.n_merges
        expected = res.elapsed / res.n_processed + st.task_acquire / cfg.task_size
        assert sim.makespan / res.n_processed == pytest.approx(expected, rel=0.005)


def test_bw_service_times():
    """A Bw-Tree's page descent and page read are latch-free; only its
    page updates, insert and delete, are CAS-protected."""
    res = measure(ibwj.BwAdapter, 1 << 10, n_process=1500)
    per = res.costs.per_tuple()
    st = service_times(res)
    assert per["delete"] > 0  # Bw-Tree retires expired tuples individually
    assert per["scan"] > 0 and per["subindex"] == 0.0 == st.subindex
    assert st.update == pytest.approx(per["insert"] + per["delete"])
    assert res.locks is None  # Bw has no sub-index locks to replay
    assert st.merge_interval == 0 and st.merge_duration == 0.0


def test_measure_bplus_has_delete_cost():
    per = measure(ibwj.BPlusAdapter, 1 << 10, n_process=1500).costs.per_tuple()
    assert per["delete"] > 0
    assert per["merge"] == 0.0
