"""Tests for the steady-state run every measured table shares and for
the calibration bridge (measurements -> simulator service times)."""
import pytest

from repro.bench.calibrate import (
    measure,
    service_times_bw,
    service_times_pim,
)
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
def pim_cal():
    # n_process must cover >= 1 merge cycle per stream inside the timed
    # region (threshold = m*w own-stream inserts).
    return measure("pim", 1 << 12, n_process=6000, merge_ratio=0.25)


def test_measure_returns_positive_costs(pim_cal):
    per = pim_cal.per_tuple
    assert set(per) == {"search", "scan", "insert", "delete", "merge"}
    assert per["search"] > 0 and per["insert"] > 0
    assert pim_cal.throughput_st > 0
    assert pim_cal.n_matches > 0


def test_measure_merge_stats(pim_cal):
    assert pim_cal.merge_duration > 0
    assert pim_cal.merge_interval > 0


def test_service_times_pim_mapping(pim_cal):
    st = service_times_pim(pim_cal)
    assert st.lock_free > 0 and st.locked > 0
    assert st.delete == 0.0
    assert st.merge_duration == pim_cal.merge_duration
    # lock_free + locked covers the measured index steps plus the
    # harness driver overhead (so a 1-thread simulation reproduces the
    # measured single-threaded throughput).
    total_measured = sum(
        pim_cal.per_tuple[k] for k in ("search", "scan", "insert")
    )
    assert st.lock_free + st.locked >= total_measured * (1 - 1e-6)
    assert st.lock_free + st.locked <= 1.0 / pim_cal.throughput_st * 1.01


def test_service_times_bw_mapping():
    cal = measure("bw", 1 << 10, n_process=1500)
    st = service_times_bw(cal)
    assert st.delete > 0  # Bw-Tree retires expired tuples individually


def test_measure_bplus_has_delete_cost():
    cal = measure("bplus", 1 << 10, n_process=1500)
    assert cal.per_tuple["delete"] > 0
    assert cal.per_tuple["merge"] == 0.0
