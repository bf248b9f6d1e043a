"""Synthetic key columns as Spark DataFrames.

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )
