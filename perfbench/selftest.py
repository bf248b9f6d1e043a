"""Fast self-test of the join benchmark.

Run from the repository root (about a minute, most of it Spark start-up):

    python3 perfbench/selftest.py

It is a plain script, outside the repository's pytest collection. It
checks that

- every workload, run at tiny size, passes its correctness gate and
  emits every metric of ``BENCHMARK.json`` with its unit, untraced and
  traced;
- the gate fails when a join's output is corrupted;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from unittest import mock

import run


def check_metrics(spec: dict) -> None:
    import workloads

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, report = run.run(name, 3, 0.5, trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, f"{name} {kind}: {sorted(set(want) ^ set(got))}"
            assert result["correct"] and result["failed"] == 0, report["failures"]
            assert result["attempted"] >= 1
            if not trace:
                zero = [k for k, m in result["metrics"].items() if m["value"] <= 0]
                assert not zero, f"{name}: end-to-end metrics at 0: {zero}"
            print(f"ok  {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} checks")


def _off_by_one(fn, field: str):
    def call(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, **{field: getattr(res, field) + 1})

    return call


class _CountPlusOne:
    def __init__(self, df) -> None:
        self.df = df

    def count(self) -> int:
        return self.df.count() + 1


def check_gate_fails() -> None:
    from repro.join import ibwj, spark_join
    from repro.join.parallel import ParallelIBWJ

    run_parallel = ParallelIBWJ.run

    def drop_last_pair(self):
        res = run_parallel(self)
        return dataclasses.replace(res, pairs=res.pairs[:-1])

    band_join = spark_join.parallel_band_join
    corruptions = {
        "st_merge_w15": mock.patch.object(
            ibwj, "run_ibwj", _off_by_one(ibwj.run_ibwj, "n_matches")
        ),
        "par_threads": mock.patch.object(ParallelIBWJ, "run", drop_last_pair),
        "spark_oneshot": mock.patch.object(
            spark_join, "parallel_band_join",
            lambda *args, **kwargs: _CountPlusOne(band_join(*args, **kwargs)),
        ),
    }
    for name, patch in corruptions.items():
        with patch:
            result, _ = run.run(name, 3, 0.5, False, tiny=True)
        assert not result["correct"] and result["failed"] >= 1, name
        print(f"ok  {name}: corrupted output fails "
              f"{result['failed']}/{result['attempted']} checks")


def check_bare_directory() -> None:
    bare = run.TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "st_merge_w15",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out
    print(f"ok  bare directory: exit {out.returncode}, no result")


def main() -> int:
    run.bootstrap()
    try:
        check_metrics(run.load_spec())
        check_gate_fails()
        check_bare_directory()
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
