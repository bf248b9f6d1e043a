"""Smoke-scale run of every evaluation table in the registry.

One benchmark per ``repro.bench.report.TABLES`` entry, with the entry's
name as the test id; the full-scale numbers EXPERIMENTS.md records come
from ``python jobs/run_all.py``.
"""
import pytest

from repro.bench.report import TABLES


@pytest.mark.parametrize("name", list(TABLES))
def test_table(benchmark, spark, name):
    _, table_fn = TABLES[name]
    df = benchmark.pedantic(
        lambda: table_fn(spark, "smoke"), rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(df) > 0
