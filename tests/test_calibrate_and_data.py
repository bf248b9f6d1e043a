"""Tests for the calibration bridge (measurements -> simulator service
times) and for the provided synthetic-data + DuckDB-oracle plumbing."""
import pytest

from repro.bench.calibrate import (
    measure,
    service_times_bw,
    service_times_pim,
)
from repro.oracle import assert_equivalent
from repro.synth_data import uniform_keys, zipf_keys


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


# -------- provided substrate: synth_data generators + DuckDB oracle ----
def test_uniform_keys_roundtrip(spark):
    df = uniform_keys(spark, n=2000, n_keys=100)
    agg = df.groupBy("k").count().withColumnRenamed("count", "c")
    assert_equivalent(
        agg,
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k",
        t=df,
    )


def test_zipf_keys_are_skewed(spark):
    df = zipf_keys(spark, n=5000, n_keys=1000, alpha=1.5)
    top = (
        df.groupBy("k").count().orderBy("count", ascending=False).limit(1)
    ).collect()[0]["count"]
    assert top > 5000 * 0.1  # head key dominates under zipf(1.5)
