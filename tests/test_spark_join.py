"""Spark-layer tests: the range-partitioned parallel join, validated
through ``oracle.assert_equivalent`` (the DuckDB band-join-over-count-window
SQL runs over the same stream table the Spark job consumed)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join import ibwj
from repro.join.spark_join import (
    _PAIR_SCHEMA,
    bucket_rows,
    key_bounds,
    parallel_band_join,
)
from repro.join.streams import (
    KEY_SPACE,
    band_join_sql,
    diff_for_match_rate,
    gen_stream,
)
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
    """A tiny key space gives equal bounds and empty buckets, which
    ``bucket_rows`` skips on the driver, so they get no task; the join
    must still be exact."""
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(1, 9),
    st.sampled_from([3, 50, 1000, KEY_SPACE]),
    st.integers(0, 300),
    st.integers(0, 999),
)
def test_partition_ownership_is_unique(n, p, key_space, diff, seed):
    """``bucket_rows`` on a shuffled stream: every tuple has exactly one
    owner row; a tuple appears in exactly the buckets its band
    ``[x - diff, x + diff]`` overlaps; rows come back in arrival order;
    buckets that own no tuple are skipped."""
    seq = gen_stream(n, seed=seed, key_space=key_space)
    bounds = key_bounds(seq["x"].to_numpy(), p)
    buckets = bucket_rows(seq.sample(frac=1, random_state=seed), bounds, diff)
    pids = [pid for pid, _, _ in buckets]
    assert pids == sorted(set(pids))
    owners = np.concatenate([rows["gpos"].to_numpy()[own] for _, rows, own in buckets])
    assert sorted(owners.tolist()) == seq["gpos"].tolist()
    # Bucket q owns the keys in (bounds[q-1], bounds[q]].
    edges = [-np.inf, *bounds, np.inf]
    for pid, rows, own in buckets:
        x = rows["x"].to_numpy()
        assert (own == ((edges[pid] < x) & (x <= edges[pid + 1]))).all()
    x = seq["x"].to_numpy()
    for q in range(p):
        lo, hi = edges[q], edges[q + 1]
        if not ((lo < x) & (x <= hi)).any():
            assert q not in pids
            continue
        expect = seq["gpos"][(x + diff > lo) & (x - diff <= hi)].tolist()
        assert buckets[pids.index(q)][1]["gpos"].tolist() == expect


def test_empty_stream_gives_empty_join(spark):
    """No keys give no bounds, no buckets and an empty pair frame."""
    seq = gen_stream(100).iloc[:0]
    assert key_bounds(seq["x"].to_numpy(), 4) == []
    assert bucket_rows(seq, [], 10) == []
    out = parallel_band_join(spark, seq, 64, 64, 10, n_partitions=4)
    assert out.schema == _PAIR_SCHEMA
    assert out.count() == 0


def test_one_task_per_bucket(spark):
    """Every non-empty bucket runs as exactly one Spark task: four on a
    uniform stream with four partitions, fewer than eight when a key
    space of five leaves buckets empty."""
    seq = gen_stream(2000, seed=43)
    out = parallel_band_join(spark, seq, 128, 128, 1000, n_partitions=4)
    assert out.rdd.getNumPartitions() == 4
    seq = gen_stream(1500, seed=36, key_space=5)
    x = seq["x"].to_numpy()
    n_buckets = len(bucket_rows(seq, key_bounds(x, 8), 0))
    out = parallel_band_join(spark, seq, 128, 128, 0, n_partitions=8)
    assert out.rdd.getNumPartitions() == n_buckets < 8
