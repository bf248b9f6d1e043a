"""Registry and runner for the evaluation tables.

``TABLES`` maps each table's name — also the stem of the
``results/<name>.md`` file EXPERIMENTS.md quotes — to its title and its
generator. Every generator is called as ``fn(spark, scale)`` and returns
a pandas DataFrame whose rows mirror one figure panel. ``run_table``
prints one table as markdown and, at full scale, writes it to
``results/``. ``jobs/run_all.py`` runs the registry from the command line
(also under ``spark-submit``); ``benchmarks/bench_tables.py`` runs every
entry at smoke scale.
"""
from __future__ import annotations

import os
import re
import subprocess
import time
from pathlib import Path
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession

from repro.bench import tables_parallel as tp
from repro.bench import tables_single as ts

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

# Registry order is the order of results/ALL.md and of every full run.
TABLES: dict[str, tuple[str, Callable[[SparkSession, str], pd.DataFrame]]] = {
    "table01_existing_approaches": (
        "Fig 8a: window join via NLWJ / B+-Tree / round-robin / Bw-Tree",
        lambda spark, scale: tp.table_existing_approaches(scale),
    ),
    "table02_chained": (
        "Fig 8b: chained index (B-chain vs IB-chain) vs chain length",
        lambda spark, scale: ts.table_chained_index(scale),
    ),
    "table03_insertion_depth": (
        "Fig 8c: single-threaded PIM vs insertion depth D_I",
        lambda spark, scale: ts.table_insertion_depth_single(scale),
    ),
    "table04_insertion_depth_par": (
        "Fig 8d: parallel PIM vs insertion depth D_I",
        lambda spark, scale: tp.table_insertion_depth_parallel(scale),
    ),
    "table05_merge_ratio_par": (
        "Fig 9a: parallel PIM vs merge ratio",
        lambda spark, scale: tp.table_merge_ratio_parallel(scale),
    ),
    "table06_breakdown": (
        "Fig 9b: per-tuple step cost breakdown (us)",
        lambda spark, scale: ts.table_cost_breakdown(scale),
    ),
    "table07_merge_ratio_im": (
        "Fig 9c: single-threaded IM-Tree vs merge ratio",
        lambda spark, scale: ts.table_merge_ratio_single("im", scale),
    ),
    "table08_merge_ratio_pim": (
        "Fig 9d: single-threaded PIM-Tree vs merge ratio",
        lambda spark, scale: ts.table_merge_ratio_single("pim", scale),
    ),
    "table09_single_threaded": (
        "Fig 10a: single-threaded B+ vs IM vs PIM",
        lambda spark, scale: ts.table_single_threaded_compare(scale),
    ),
    "table10_match_rate": (
        "Fig 10b: throughput vs match rate (single-threaded)",
        lambda spark, scale: ts.table_match_rate(scale),
    ),
    "table11_match_rate_par": (
        "Fig 10b: parallel PIM vs match rate",
        lambda spark, scale: tp.table_match_rate_parallel(scale),
    ),
    "table12_task_size": (
        "Fig 10c/d: throughput and latency vs task size",
        lambda spark, scale: tp.table_task_size(scale),
    ),
    "table13_memory": (
        "Fig 11a: memory footprint PIM vs B+",
        lambda spark, scale: ts.table_memory_footprint(scale),
    ),
    "table14_asym_rates": (
        "Fig 11b: asymmetric input rates (Spark wall-clock)",
        lambda spark, scale: tp.table_asymmetric_rates(spark, scale),
    ),
    "table15_asym_windows": (
        "Fig 11c: asymmetric window sizes (Spark wall-clock)",
        lambda spark, scale: tp.table_asymmetric_windows(spark, scale),
    ),
    "table16_bandwidth": (
        "Fig 11d: effective memory bandwidth proxy",
        lambda spark, scale: tp.table_memory_bandwidth(scale),
    ),
    "table17_scalability": (
        "Fig 12a: scalability and CC overhead",
        lambda spark, scale: tp.table_scalability(scale),
    ),
    "table18_spark_scalability": (
        "Fig 12a cross-check: real multicore speedup via Spark",
        lambda spark, scale: tp.table_spark_scalability(spark, scale),
    ),
    "table19_distributions": (
        "Fig 12b: skewed key distributions (Spark wall-clock)",
        lambda spark, scale: tp.table_distributions(spark, scale),
    ),
    "table20_selfjoin": (
        "Fig 12c: self-join single vs multithreaded",
        lambda spark, scale: tp.table_selfjoin(scale),
    ),
    "table21_drift_inserts": (
        "Fig 13a: insert distribution under drifting Gaussian",
        lambda spark, scale: ts.table_drift_insert_distribution(scale),
    ),
    "table22_drift_throughput": (
        "Fig 13b: throughput under distribution drift",
        lambda spark, scale: tp.table_drift_throughput(scale),
    ),
    "table23_multithreading": (
        "Fig 13c: multithreading efficiency",
        lambda spark, scale: tp.table_multithreading_efficiency(scale),
    ),
    "table24_asym_windows_st": (
        "Fig 11c companion: single-threaded asymmetric windows",
        lambda spark, scale: ts.table_asymmetric_windows_single(scale),
    ),
    "table25_merge_cost": (
        "Fig 14: merge cost vs element count (linearity)",
        lambda spark, scale: ts.table_merge_cost(scale),
    ),
}


def get_spark(app: str) -> SparkSession:
    """Session for standalone job runs — mirrors the conftest fixture
    settings (broadcast joins off, Arrow on)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def to_markdown(pdf: pd.DataFrame) -> str:
    """Minimal GitHub-markdown table renderer (``tabulate`` is not in the
    offline environment); floats are rounded to readable precision."""

    def fmt(v) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000:
                return f"{v:,.0f}"
            return f"{v:.4g}"
        return str(v)

    cols = list(pdf.columns)
    lines = [
        "| " + " | ".join(cols) + " |",
        "| " + " | ".join("---" for _ in cols) + " |",
    ]
    for _, row in pdf.iterrows():
        lines.append("| " + " | ".join(fmt(row[c]) for c in cols) + " |")
    return "\n".join(lines)


def _git(*args: str) -> subprocess.CompletedProcess:
    """Run git in the checkout that holds ``RESULTS_DIR``."""
    return subprocess.run(
        ["git", *args], cwd=RESULTS_DIR.parent, capture_output=True, text=True
    )


def _git_sha() -> str:
    """Short sha of the checkout's HEAD, with ``+dirty`` appended when
    ``src/`` has uncommitted changes (HEAD alone would not be the code
    that made the table), or ``unknown`` outside git."""
    try:
        head = _git("rev-parse", "--short", "HEAD")
        if head.returncode != 0:
            return "unknown"
        status = _git("status", "--porcelain", "--", "src")
    except OSError:
        return "unknown"
    sha = head.stdout.strip()
    return f"{sha}+dirty" if status.stdout.strip() else sha


_FOOTER_SHA = re.compile(r" at ([0-9a-f]{4,})(\+dirty)?_$")


def stale_tables(names) -> list[tuple[str, str]]:
    """``(name, reason)`` for each of ``names`` whose ``results/`` file
    may not describe the code at HEAD: there is no file, its footer
    names no sha or a ``+dirty`` one, git does not know the sha, or a
    commit after it touches ``src/repro/``. Runs git only, no table."""
    stale = []
    for name in names:
        path = RESULTS_DIR / f"{name}.md"
        if not path.exists():
            stale.append((name, "no results file"))
            continue
        footer = path.read_text().rstrip("\n").splitlines()[-1]
        m = _FOOTER_SHA.search(footer)
        if not m:
            stale.append((name, "footer names no sha"))
            continue
        sha = m[1]
        if m[2]:
            stale.append((name, f"made from uncommitted src/ at {sha}"))
            continue
        log = _git("log", "--format=%h", f"{sha}..HEAD", "--", "src/repro")
        if log.returncode != 0:
            stale.append((name, f"{sha} is not in this checkout's history"))
        elif later := log.stdout.split():
            stale.append((name, f"{sha} predates {len(later)} src/repro commit(s)"))
    return stale


def run_table(spark: SparkSession, name: str, scale: str = "full") -> pd.DataFrame:
    """Run the registry entry ``name`` and print it as markdown, with a
    footer naming the run time, the usable cores and the git sha. Only a
    full-scale run writes ``results/<name>.md``, so smoke numbers never
    replace the committed ones."""
    title, table_fn = TABLES[name]
    t0 = time.perf_counter()
    pdf = table_fn(spark, scale)
    dt = time.perf_counter() - t0
    footer = (
        f"_generated in {dt:.1f}s on {len(os.sched_getaffinity(0))} cores"
        f" at {_git_sha()}_"
    )
    md = f"## {name} — {title}\n\n{to_markdown(pdf)}\n\n{footer}\n"
    print(md)
    if scale == "full":
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.md").write_text(md)
    return pdf
