"""Spark realisation of the parallel index-based window join.

PIM-Tree's parallelism is range partitioning of the key domain with one
lock per range; that design maps one-to-one onto range-partitioned Spark
tasks — each bucket runs the per-partition merge-tree join (a PIM-Tree
per stream) in its own ``mapInPandas`` task, giving genuine multicore
(process) parallelism that the GIL denies the threaded layer
(DESIGN.md §3.1c). Here the per-range lock is the bucket's ownership by
a single task: a task runs in one Python worker on one thread, so each
bucket's PIM-Trees are built without locks (``use_locks=False``), the
variant the paper's single-threaded runs use.

Partitioning protocol (buckets cut on the driver, one Spark task per
bucket, no shuffle; the stateful operator is the ``mapInPandas``
physical transformation, per the layering note in DESIGN.md §5):

1. boundaries = exact key quantiles computed on the driver from the
   keys it already holds (``key_bounds``), with no Spark job — the
   analogue of PIM-Tree's distribution-adaptive partition ranges, which
   it takes from T_S at merge time;
2. every tuple is *owned* by the bucket of its key and *probes* every
   bucket overlapping ``[x - diff, x + diff]``; ``bucket_rows`` cuts
   the rows, in arrival order, and owner mask of each bucket that owns
   a tuple with numpy on the driver;
3. the buckets travel to the workers in one broadcast, and
   ``spark.range`` with one partition per bucket runs each bucket as
   exactly one ``mapInPandas`` task, which calls ``ibwj.run_ibwj`` over
   the bucket's rows: every row probes that bucket's windows, and owner
   rows (``owner=``) also insert and trigger merges;
4. each qualifying pair is found exactly once — in the owner bucket of
   the *earlier* tuple.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.join.ibwj import PIMAdapter, pairs_df, run_ibwj

_PAIR_SCHEMA = StructType(
    [
        StructField("later_gpos", LongType()),
        StructField("earlier_gpos", LongType()),
    ]
)


def key_bounds(keys: np.ndarray, n_partitions: int) -> list[int]:
    """Distribution-adaptive range boundaries: the P-1 interior quantiles
    ``i/P`` of ``keys``, each an actual key (inverted CDF), so every
    bucket owns ⌊n/P⌋ or ⌈n/P⌉ of n distinct keys — the PIM-Tree
    partition adaptation. No keys give no bounds."""
    if n_partitions <= 1 or len(keys) == 0:
        return []
    qs = np.arange(1, n_partitions) / n_partitions
    return [int(b) for b in np.quantile(keys, qs, method="inverted_cdf")]


def bucket_rows(
    seq: pd.DataFrame, bounds: list[int], diff: int
) -> list[tuple[int, pd.DataFrame, np.ndarray]]:
    """``(pid, rows, owner mask)`` of every bucket that owns a tuple, rows
    in arrival (``gpos``) order.

    A tuple is owned by bucket ``searchsorted(bounds, x)`` (#bounds < x)
    and probes every bucket from ``searchsorted(bounds, x - diff)``
    through ``searchsorted(bounds, x + diff)`` (monotone, so it covers
    every bucket a match could live in). A bucket that owns no tuple
    inserts nothing, so its probes find nothing and it is skipped.
    """
    if not seq["gpos"].is_monotonic_increasing:
        seq = seq.sort_values("gpos")
    x = seq["x"].to_numpy()
    own = np.searchsorted(bounds, x)
    first = np.searchsorted(bounds, x - diff)
    last = np.searchsorted(bounds, x + diff)
    out = []
    for pid in range(len(bounds) + 1):
        owner = own == pid
        if owner.any():
            rows = (first <= pid) & (pid <= last)
            out.append((pid, seq[rows], owner[rows]))
    return out


def parallel_band_join(
    spark: SparkSession,
    seq: pd.DataFrame,
    w_r: int,
    w_s: int,
    diff: int,
    *,
    n_partitions: int = 8,
    merge_ratio: float = 1.0,
    insertion_depth: int = 2,
    self_join: bool = False,
) -> DataFrame:
    """One-shot partition-parallel band join over a full arrival sequence.

    Returns a DataFrame of (later_gpos, earlier_gpos) pairs — compare it
    with ``streams.band_join_sql`` via ``oracle.assert_equivalent``.
    """
    bounds = key_bounds(seq["x"].to_numpy(), n_partitions)
    buckets = bucket_rows(seq, bounds, diff)
    if not buckets:
        return spark.createDataFrame([], _PAIR_SCHEMA)
    # Not destroyed here: the returned DataFrame is lazy and may run many
    # times; Spark's context cleaner frees the broadcast with the plan.
    shipped = spark.sparkContext.broadcast(buckets)
    # Each bucket holds ~w/P live tuples, so its merge threshold is scaled
    # to that share; merges still expire by the full window.
    share = max(1, (w_r + w_s) // (2 * max(1, n_partitions)))

    def join_bucket(batches):
        for batch in batches:
            for i in batch["id"].tolist():
                _, rows, owner = shipped.value[i]
                res = run_ibwj(
                    rows, w_r, w_s, diff,
                    lambda _w: PIMAdapter(
                        share, merge_ratio, insertion_depth, use_locks=False
                    ),
                    self_join=self_join, owner=owner,
                )
                yield pairs_df(res.pairs)

    n = len(buckets)
    return spark.range(0, n, 1, n).mapInPandas(join_bucket, _PAIR_SCHEMA)
