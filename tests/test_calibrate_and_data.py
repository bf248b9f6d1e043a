"""Tests for the steady-state run every measured table shares and for
the calibration bridge (measurements -> simulator service times)."""
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
    assert st.lock_free > 0 and st.locked > 0
    assert per["delete"] == 0.0  # disposal happens inside the merge
    c = pim_run.costs
    assert st.merge_duration == c.merge / c.n_merges
    # lock_free + locked covers the measured index steps plus the
    # harness driver overhead (so a 1-thread simulation reproduces the
    # measured single-threaded throughput).
    total_measured = sum(per[k] for k in ("search", "scan", "subindex", "insert"))
    assert st.lock_free + st.locked >= total_measured * (1 - 1e-6)
    # the measured T_I part of each probe is held under the partition lock
    assert st.locked == pytest.approx(per["subindex"] + per["insert"])
    assert st.lock_free + st.locked <= 1.0 / pim_run.throughput * 1.01


def test_one_thread_simulation_takes_the_calibration_run_time():
    """Every measured second of a calibration run lands in one service
    time, merges included: one simulated thread over the run's own
    tuples takes the run's per-tuple time plus the task acquisition the
    simulator adds. One Bw thread makes no CAS retries."""
    pim = measure(lambda win: ibwj.PIMAdapter(win, 0.25), 1 << 10, n_process=6000)
    assert pim.costs.n_merges > 1
    bw = measure(ibwj.BwAdapter, 1 << 10, n_process=3000)
    for mode, res in (("pim", pim), ("bw", bw)):
        st = service_times(res)
        cfg = SimConfig(n_threads=1, n_tuples=res.n_processed, mode=mode)
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
    assert per["scan"] > 0 and per["subindex"] == 0.0
    assert st.locked == pytest.approx(per["insert"] + per["delete"])
    assert st.merge_interval == 0 and st.merge_duration == 0.0


def test_measure_bplus_has_delete_cost():
    per = measure(ibwj.BPlusAdapter, 1 << 10, n_process=1500).costs.per_tuple()
    assert per["delete"] > 0
    assert per["merge"] == 0.0
