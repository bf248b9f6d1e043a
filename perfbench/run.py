"""Join benchmark: tuples/s of the single-threaded, threaded §4 and Spark
join paths, with a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload st_merge_w15 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it give the run's provenance and, for each metric,
its samples' median, quartiles and count. Workloads and their metrics
are described in ``perfbench/NOTES.md``.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and keep every
    scratch file inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return out.stdout.strip() or None


def _src_sha256() -> str:
    """Content hash of the program's sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(workload, name: str, seed: int, nproc: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "nproc": nproc,
        "python": sys.version.split()[0],
        **{p: metadata.version(p) for p in ("numpy", "pandas", "pyspark", "duckdb")},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "config": workload.config(),
    }


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """One benchmark run. Returns (result, report): the result line's
    object and the human-readable details."""
    import workloads

    spec = load_spec()
    wl = workloads.make(name, seed, root=ROOT, tmp=TMP, tiny=tiny)
    from gate import Gate

    gate = Gate()
    try:
        wl.setup(gate)
        start = last = time.perf_counter()
        r = 0
        # Rounds run while the next one is expected to end in time. In a
        # traced run every other round is untraced, so the run measures
        # its own tracing overhead.
        while True:
            wl.round(r, trace and r % 2 == 0, gate)
            r += 1
            now = time.perf_counter()
            if now + (now - last) - start > seconds and (not trace or r >= 2):
                break
            last = now
        wl.finish(gate)
    finally:
        wl.close()
    e2e = {k: _stats(v) for k, v in wl.e2e.items()}
    e2e["peak_rss_mb"] = _stats(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6]
    )
    layers = wl.layer_metrics()
    layers["failed_frac"] = gate.failed / max(1, gate.attempted)
    if trace:
        untraced = statistics.median(wl.e2e["join_tps"])
        layers["trace.overhead_frac"] = untraced / statistics.median(wl.traced_tps) - 1
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        key = m["name"]
        if trace:
            if key in layers:
                value = layers[key]
            elif key.split(".")[0] not in wl.layers:
                value = 0.0  # a layer this workload's traced path does not run
            else:
                raise RuntimeError(f"{name}: per-layer metric {key} was not measured")
        else:
            value = e2e[key]["median"]
        metrics[key] = {"value": float(value), "unit": m["unit"]}
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    report = {
        "provenance": provenance(wl, name, seed, workloads.NPROC),
        "rounds": r,
        "failed_frac": layers["failed_frac"],
        "failures": gate.failures[:20],
        "end_to_end": e2e,
        "end_to_end_raw": {k: _stats(v) for k, v in wl.raw.items()},
        "slowdown": _stats(wl.slowdown.factors) if wl.slowdown and wl.slowdown.factors else None,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    bootstrap()
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(report, default=str))
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"failed_frac = {report['failed_frac']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
