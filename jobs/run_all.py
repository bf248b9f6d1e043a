"""Run evaluation tables from the registry and collect results/ into one file.

Usage: ``python jobs/run_all.py [--smoke | --stale] [NAME ...]``, or the
same under ``spark-submit``. NAME is a key of
``repro.bench.report.TABLES``; with no names every table runs, in
registry order. A full-scale run writes ``results/<name>.md`` per table
and rebuilds ``results/ALL.md``; EXPERIMENTS.md quotes these numbers next
to the paper's. ``--smoke`` shrinks the sweeps and only prints, leaving
``results/`` untouched. ``--stale`` runs nothing: it prints each table
whose ``results/`` footer names no committed sha, or whose sha a later
commit to ``src/repro/`` follows, with the reason.
"""
import argparse
import sys
import time

from repro.bench.report import (
    RESULTS_DIR,
    TABLES,
    get_spark,
    run_table,
    stale_tables,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="tables to run (default: all, in registry order)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true",
        help="shrunken sweeps; print only, do not write results/",
    )
    mode.add_argument(
        "--stale", action="store_true",
        help="run nothing; list the tables whose results predate src/repro",
    )
    args = parser.parse_args()
    unknown = [n for n in args.names if n not in TABLES]
    if unknown:
        parser.error(
            f"unknown table(s): {', '.join(unknown)}\n"
            "valid names:\n  " + "\n  ".join(TABLES)
        )
    if args.stale:
        for name, reason in stale_tables(args.names or TABLES):
            print(f"{name}: {reason}")
        return
    scale = "smoke" if args.smoke else "full"

    spark = get_spark("run_all")
    t_all = time.perf_counter()
    for name in args.names or TABLES:
        t0 = time.perf_counter()
        run_table(spark, name, scale)
        print(
            f"[run_all] {name} done in {time.perf_counter() - t0:.1f}s",
            file=sys.stderr, flush=True,
        )
    if scale == "full":
        parts = [
            p.read_text()
            for name in TABLES
            if (p := RESULTS_DIR / f"{name}.md").exists()
        ]
        (RESULTS_DIR / "ALL.md").write_text("\n".join(parts))
    print(
        f"[run_all] all tables in {time.perf_counter() - t_all:.1f}s",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
