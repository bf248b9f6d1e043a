"""Spark realisation of the parallel index-based window join.

PIM-Tree's parallelism is range partitioning of the key domain with one
lock per range; that design maps one-to-one onto range-partitioned Spark
tasks — each partition runs the per-partition merge-tree join (a
PIM-Tree per stream) inside ``applyInPandas``, giving genuine multicore
(process) parallelism that the GIL denies the threaded layer
(DESIGN.md §3.1c). Here the per-range lock is the bucket's ownership by
a single task: ``applyInPandas`` runs a group in one Python worker on one
thread, so each bucket's PIM-Trees are built without locks
(``use_locks=False``), the variant the paper's single-threaded runs use.

Partitioning protocol (bounds on the driver, the rest DataFrame API; the
stateful operator is the ``applyInPandas`` physical transformation, per
the layering note in DESIGN.md §5):

1. boundaries = exact key quantiles computed on the driver from the
   keys it already holds (``key_bounds``), with no Spark job — the
   analogue of PIM-Tree's distribution-adaptive partition ranges, which
   it takes from T_S at merge time;
2. every tuple is *owned* by the bucket of its key and *probes* every
   bucket overlapping ``[x - diff, x + diff]`` (band replication rows);
3. ``groupBy(pid).applyInPandas`` runs ``ibwj.run_ibwj`` over each
   bucket's rows in global arrival order: every row probes that bucket's
   windows, and owner rows (``owner=is_owner``) also insert and trigger
   merges;
4. each qualifying pair is found exactly once — in the owner bucket of
   the *earlier* tuple.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.join.ibwj import PIMAdapter, pairs_df, run_ibwj

_PAIR_SCHEMA = StructType(
    [
        StructField("later_gpos", LongType()),
        StructField("earlier_gpos", LongType()),
    ]
)


def stream_to_df(spark: SparkSession, seq: pd.DataFrame) -> DataFrame:
    """Arrival sequence (see ``streams.gen_stream``) as a Spark DataFrame."""
    return spark.createDataFrame(seq)


def key_bounds(keys: np.ndarray, n_partitions: int) -> list[int]:
    """Distribution-adaptive range boundaries: the P-1 interior quantiles
    ``i/P`` of ``keys``, each an actual key (inverted CDF), so every
    bucket owns ⌊n/P⌋ or ⌈n/P⌉ of n distinct keys — the PIM-Tree
    partition adaptation."""
    if n_partitions <= 1:
        return []
    qs = np.arange(1, n_partitions) / n_partitions
    return [int(b) for b in np.quantile(keys, qs, method="inverted_cdf")]


def _assign_partitions(
    df: DataFrame, bounds: list[int], diff: int
) -> DataFrame:
    """Owner + band-probe replication rows, one per (tuple, bucket).

    ``bucket(x)`` = #bounds < x computed with a bounds array column; the
    probe range is ``bucket(x - diff) .. bucket(x + diff)`` (monotone, so
    it covers every bucket a match could live in).
    """
    if not bounds:
        return df.withColumn("pid", F.lit(0)).withColumn(
            "is_owner", F.lit(True)
        )
    barr = F.array(*[F.lit(b) for b in bounds])
    bucket = lambda col: F.aggregate(  # noqa: E731
        barr, F.lit(0), lambda acc, b: acc + F.when(b < col, 1).otherwise(0)
    )
    return (
        df.withColumn("own_pid", bucket(F.col("x")))
        .withColumn(
            "pid",
            F.explode(
                F.sequence(
                    bucket(F.col("x") - F.lit(diff)),
                    bucket(F.col("x") + F.lit(diff)),
                )
            ),
        )
        .withColumn("is_owner", F.col("pid") == F.col("own_pid"))
        .drop("own_pid")
    )


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
    df = stream_to_df(spark, seq)
    bounds = key_bounds(seq["x"].to_numpy(), n_partitions)
    # Each bucket holds ~w/P live tuples, so its merge threshold is scaled
    # to that share; merges still expire by the full window.
    share = max(1, (w_r + w_s) // (2 * max(1, n_partitions)))

    def join_bucket(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("gpos")
        res = run_ibwj(
            pdf, w_r, w_s, diff,
            lambda _w: PIMAdapter(
                share, merge_ratio, insertion_depth, use_locks=False
            ),
            self_join=self_join, owner=pdf["is_owner"].to_numpy(),
        )
        return pairs_df(res.pairs)

    rows = _assign_partitions(df, bounds, diff)
    return rows.groupBy("pid").applyInPandas(join_bucket, _PAIR_SCHEMA)
