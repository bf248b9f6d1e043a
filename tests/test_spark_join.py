"""Spark-layer tests: the range-partitioned parallel join, validated
through ``oracle.assert_equivalent`` (the DuckDB band-join-over-count-window
SQL runs over the same stream table the Spark job consumed)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.join import ibwj
from repro.join.spark_join import (
    key_bounds,
    parallel_band_join,
    stream_to_df,
)
from repro.join.streams import band_join_sql, diff_for_match_rate, gen_stream
from repro.oracle import assert_equivalent


def _assert_join(spark, seq, result_df, w_r, w_s, diff, self_join=False):
    sql = band_join_sql(w_r, w_s, diff, self_join=self_join)
    assert_equivalent(result_df, sql, stream=seq)


@pytest.mark.parametrize("n_partitions", [1, 4, 8])
def test_parallel_join_matches_oracle(spark, n_partitions):
    w = 256
    seq = gen_stream(4000, seed=30)
    diff = diff_for_match_rate(2.0, w)
    out = parallel_band_join(
        spark, seq, w, w, diff, n_partitions=n_partitions
    )
    _assert_join(spark, seq, out, w, w, diff)


def test_parallel_join_self_join(spark):
    w = 200
    seq = gen_stream(3000, seed=31, self_join=True)
    diff = diff_for_match_rate(2.0, w)
    out = parallel_band_join(
        spark, seq, w, w, diff, n_partitions=8, self_join=True
    )
    _assert_join(spark, seq, out, w, w, diff, self_join=True)


def test_parallel_join_asymmetric_windows(spark):
    seq = gen_stream(3000, seed=32)
    diff = diff_for_match_rate(2.0, 512)
    out = parallel_band_join(spark, seq, 64, 512, diff, n_partitions=4)
    _assert_join(spark, seq, out, 64, 512, diff)


def test_parallel_join_asymmetric_rates(spark):
    w = 192
    seq = gen_stream(3000, seed=33, rate_r=3, rate_s=1)
    diff = diff_for_match_rate(2.0, w)
    out = parallel_band_join(spark, seq, w, w, diff, n_partitions=4)
    _assert_join(spark, seq, out, w, w, diff)


@pytest.mark.parametrize("dist", ["gaussian", "gamma_k1"])
def test_parallel_join_skewed_keys(spark, dist):
    """Quantile bounds adapt to skew, so skewed keys still pass."""
    w = 192
    seq = gen_stream(3000, seed=34, dist=dist)
    diff = diff_for_match_rate(2.0, w)
    out = parallel_band_join(spark, seq, w, w, diff, n_partitions=8)
    _assert_join(spark, seq, out, w, w, diff)


def test_parallel_join_wide_band_crosses_partitions(spark):
    """A band wider than a partition must replicate probes to several
    buckets and still produce each pair exactly once."""
    w = 128
    seq = gen_stream(1500, seed=35, key_space=1000)
    diff = 300  # covers several of the 8 buckets
    out = parallel_band_join(spark, seq, w, w, diff, n_partitions=8)
    _assert_join(spark, seq, out, w, w, diff)


def test_spark_matches_single_threaded_driver(spark):
    """Cross-implementation agreement: Spark partition-parallel result ==
    single-threaded PIM IBWJ result."""
    w = 192
    seq = gen_stream(2500, seed=39)
    diff = diff_for_match_rate(2.0, w)
    st = ibwj.run_ibwj(
        seq, w, w, diff, lambda win: ibwj.PIMAdapter(win, 0.5, 2)
    )
    got = parallel_band_join(spark, seq, w, w, diff, n_partitions=8).toPandas()
    assert set(zip(got.later_gpos, got.earlier_gpos)) == set(st.pairs)


def test_parallel_join_duplicate_keys(spark):
    """A tiny key space gives equal bounds and empty buckets, for which
    Spark forms no group; the join must still be exact."""
    w = 128
    seq = gen_stream(1500, seed=36, key_space=5)
    out = parallel_band_join(spark, seq, w, w, 0, n_partitions=8)
    _assert_join(spark, seq, out, w, w, 0)


def test_key_bounds_adapt_to_distribution():
    """Range boundaries follow the data distribution (the PIM-Tree
    partition-adaptation analogue): skewed keys get denser boundaries
    near the mode."""
    seq = gen_stream(20000, seed=40, dist="gamma_k1")
    bounds = key_bounds(seq["x"].to_numpy(), 8)
    assert len(bounds) == 7
    assert bounds == sorted(bounds)
    # gamma(k=1) mass sits low: the median boundary is far below mid-domain
    from repro.join.streams import KEY_SPACE

    assert bounds[3] < KEY_SPACE // 2


def test_key_bounds_single_partition():
    seq = gen_stream(100, seed=41)
    assert key_bounds(seq["x"].to_numpy(), 1) == []


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2000),
    st.integers(1, 9),
    st.sampled_from([1, 2, 5, 100, None]),
    st.integers(0, 2**32 - 1),
)
def test_key_bounds_are_exact_quantile_keys(n, p, key_space, seed):
    """P-1 sorted bounds, each an actual key; with distinct keys every
    bucket ``searchsorted(bounds, x)`` owns ⌊n/P⌋ or ⌈n/P⌉ rows.
    ``key_space=None`` draws n distinct keys."""
    rng = np.random.default_rng(seed)
    if key_space is None:
        keys = rng.permutation(n) * 7
    else:
        keys = rng.integers(0, key_space, n)
    bounds = key_bounds(keys, p)
    assert isinstance(bounds, list) and len(bounds) == p - 1
    assert all(type(b) is int for b in bounds)
    assert bounds == sorted(bounds)
    assert set(bounds) <= set(keys.tolist())
    if len(np.unique(keys)) == n:
        owned = np.bincount(np.searchsorted(bounds, keys), minlength=p)
        assert set(owned.tolist()) <= {n // p, -(-n // p)}


def test_partition_ownership_is_unique(spark):
    """Every tuple has exactly one owner row after replication."""
    from repro.join.spark_join import _assign_partitions

    seq = gen_stream(2000, seed=42)
    df = stream_to_df(spark, seq)
    bounds = key_bounds(seq["x"].to_numpy(), 8)
    rows = _assign_partitions(df, bounds, diff=5000)
    owners = (
        rows.filter(F.col("is_owner"))
        .groupBy("gpos")
        .count()
        .agg(F.max("count"), F.min("count"), F.count("*"))
        .collect()[0]
    )
    assert owners[0] == 1 and owners[1] == 1 and owners[2] == 2000
