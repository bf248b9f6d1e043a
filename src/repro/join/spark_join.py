"""Spark realisation of the parallel index-based window join.

PIM-Tree's parallelism is range partitioning of the key domain with one
lock per range; that design maps one-to-one onto range-partitioned Spark
tasks — each partition runs the per-partition merge-tree join (a
PIM-Tree per stream) inside ``applyInPandas``, giving genuine multicore
(process) parallelism that the GIL denies the threaded layer
(DESIGN.md §3.1c).

Partitioning protocol (all DataFrame API; the stateful operator is the
``applyInPandas`` physical transformation, per the layering note in
DESIGN.md §5):

1. boundaries = ``approxQuantile`` over the key column — the Spark
   analogue of PIM-Tree's distribution-adaptive partition ranges;
2. every tuple is *owned* by the bucket of its key and *probes* every
   bucket overlapping ``[x - diff, x + diff]`` (band replication rows);
3. ``groupBy(pid).applyInPandas`` processes each bucket's rows in global
   arrival order: probe rows search that bucket's windows, owner rows
   additionally insert (and trigger merges);
4. each qualifying pair is found exactly once — in the owner bucket of
   the *earlier* tuple.

``microbatch_band_join`` is the Structured-Streaming-style driver: the
arrival sequence is consumed in micro-batches; every batch ships each
bucket its still-live window prefix as state rows plus the batch rows,
so per-batch tasks are stateless and the whole pipeline is a
deterministic trigger loop (count-based windows bound state at w per
stream, making the state recomputable — DESIGN.md §5).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.pim_tree import PIMTree

_PAIR_SCHEMA = StructType(
    [
        StructField("later_gpos", LongType()),
        StructField("earlier_gpos", LongType()),
    ]
)

_ROW_SCHEMA_COLS = [
    "pid",
    "gpos",
    "side",
    "spos",
    "x",
    "opp_seen",
    "is_owner",
    "is_state",
]


def stream_to_df(spark: SparkSession, seq: pd.DataFrame) -> DataFrame:
    """Arrival sequence (see ``streams.gen_stream``) as a Spark DataFrame."""
    return spark.createDataFrame(seq)


def key_bounds(df: DataFrame, n_partitions: int, error: float = 0.01) -> list[int]:
    """Distribution-adaptive range boundaries (P-1 interior bounds) via
    approxQuantile — the PIM-Tree partition adaptation, Spark-style."""
    if n_partitions <= 1:
        return []
    qs = [i / n_partitions for i in range(1, n_partitions)]
    return [int(b) for b in df.approxQuantile("x", qs, error)]


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


def _partition_join(
    pdf: pd.DataFrame,
    w_r: int,
    w_s: int,
    diff: int,
    *,
    merge_ratio: float,
    insertion_depth: int,
    n_partitions: int,
    self_join: bool,
) -> pd.DataFrame:
    """Per-bucket stateful merge-tree join; runs inside applyInPandas.

    Rows must carry ``is_state`` (window prefill: insert without probe)
    and ``is_owner``; processing follows global arrival order. The
    PIM-Tree merge threshold is scaled to the bucket's share of the
    window (each bucket holds ~w/P live tuples).
    """
    pdf = pdf.sort_values(["gpos", "is_state"], ascending=[True, False])
    share = max(1, (w_r + w_s) // (2 * max(1, n_partitions)))

    def mk() -> PIMTree:
        return PIMTree(share, merge_ratio, insertion_depth)

    win = {"R": w_r, "S": w_s}
    idx = {"R": mk(), "S": mk() if not self_join else None}
    if self_join:
        idx["S"] = idx["R"]
    gpos_of = {"R": {}, "S": {}}
    if self_join:
        gpos_of["S"] = gpos_of["R"]
    last_spos = {"R": 0, "S": 0}
    later: list[int] = []
    earlier: list[int] = []

    for gpos, side, spos, x, opp_seen, is_owner, is_state in zip(
        pdf["gpos"].to_numpy(),
        pdf["side"].to_numpy(),
        pdf["spos"].to_numpy(),
        pdf["x"].to_numpy(),
        pdf["opp_seen"].to_numpy(),
        pdf["is_owner"].to_numpy(),
        pdf["is_state"].to_numpy(),
    ):
        side = str(side)
        opp = side if self_join else ("S" if side == "R" else "R")
        if not is_state:
            min_pos = int(opp_seen) - win[opp] + 1
            for _, mpos in idx[opp].search_range(
                int(x) - diff, int(x) + diff, max(min_pos, 1)
            ):
                later.append(int(gpos))
                earlier.append(gpos_of[opp][mpos])
        if is_owner:
            idx[side].insert(int(x), int(spos))
            gpos_of[side][int(spos)] = int(gpos)
            last_spos[side] = max(last_spos[side], int(spos))
            if idx[side].needs_merge():
                idx[side].merge(last_spos[side] - win[side] + 1)

    return pd.DataFrame(
        {
            "later_gpos": pd.Series(later, dtype="int64"),
            "earlier_gpos": pd.Series(earlier, dtype="int64"),
        }
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
    bounds = key_bounds(df, n_partitions)
    rows = _assign_partitions(df, bounds, diff).withColumn(
        "is_state", F.lit(False)
    )
    return rows.groupBy("pid").applyInPandas(
        lambda pdf: _partition_join(
            pdf,
            w_r,
            w_s,
            diff,
            merge_ratio=merge_ratio,
            insertion_depth=insertion_depth,
            n_partitions=n_partitions,
            self_join=self_join,
        ),
        _PAIR_SCHEMA,
    )


def live_state_rows(
    side_rows: dict[str, np.ndarray], win: dict[str, int], start: int
) -> np.ndarray:
    """Row positions of the window state live when row ``start`` arrives.

    ``side_rows`` maps each side, in order of its first arrival, to the
    ascending row positions of its tuples. Per side, the state is that
    side's last ``win[side]`` rows before ``start``, in arrival order;
    the cost depends on the window, not on ``start``.
    """
    live = []
    for s, rows in side_rows.items():
        k = int(np.searchsorted(rows, start))
        live.append(rows[max(0, k - win[s]) : k])
    return np.concatenate(live)


def microbatch_band_join(
    spark: SparkSession,
    seq: pd.DataFrame,
    w_r: int,
    w_s: int,
    diff: int,
    *,
    n_partitions: int = 8,
    batch_size: int = 4096,
    merge_ratio: float = 1.0,
    insertion_depth: int = 2,
    self_join: bool = False,
) -> pd.DataFrame:
    """Micro-batch trigger loop: per batch, ship each bucket its live
    window prefix (state rows, insert-only) plus the batch rows.

    Returns the concatenated pair results as pandas (the driver owns the
    trigger loop, as foreachBatch would in a live streaming query).
    """
    df = stream_to_df(spark, seq)
    bounds = key_bounds(df, n_partitions)
    out: list[pd.DataFrame] = []
    n = len(seq)
    win = {"R": w_r, "S": w_s}
    sides = seq["side"].to_numpy()
    side_rows = {s: np.flatnonzero(sides == s) for s in pd.unique(sides)}
    for start in range(0, n, batch_size):
        batch = seq.iloc[start : start + batch_size]
        state = seq.iloc[live_state_rows(side_rows, win, start)]
        sdf = spark.createDataFrame(
            pd.concat(
                [state.assign(is_state=True), batch.assign(is_state=False)]
            )
        )
        rows = _assign_partitions(sdf, bounds, diff)
        # State rows only need their owner bucket; probe replicas of
        # state rows would re-probe history and duplicate results.
        rows = rows.filter(~F.col("is_state") | F.col("is_owner"))
        part = rows.groupBy("pid").applyInPandas(
            lambda pdf: _partition_join(
                pdf,
                w_r,
                w_s,
                diff,
                merge_ratio=merge_ratio,
                insertion_depth=insertion_depth,
                n_partitions=n_partitions,
                self_join=self_join,
            ),
            _PAIR_SCHEMA,
        )
        out.append(part.toPandas())
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["later_gpos", "earlier_gpos"]
    )
    return res.astype("int64")
