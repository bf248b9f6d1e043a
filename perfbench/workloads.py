"""The join benchmark's workloads.

Each workload builds its inputs from the seed, sets up, then runs
rounds until the measured time is used up. A round calls the production
join entry points the way the table jobs call them:

- ``run_ibwj(..., collect_pairs=False, warmup=2w,
  probe_during_warmup=False)`` for the single-threaded driver;
- ``ParallelIBWJ(...).run()`` for the threaded §4 join;
- ``parallel_band_join(...).count()`` for the Spark join.

End-to-end samples come from untraced rounds only; traced rounds feed
the per-layer metrics. Every join's output goes through the gate.

The measuring host (a 4-core VM) shares its cores with other tenants,
whose load slows a core by up to 1.9x from one second to the next. A
fixed pure-Python kernel runs after every timed join (``Slowdown``), and
the end-to-end rates and times are scaled to the kernel's reference
speed. The raw figures go to the report.
"""
from __future__ import annotations

import bisect
import gc
import os
import shlex
import statistics
import subprocess
import time
from contextlib import nullcontext
from pathlib import Path

from repro.join import ibwj
from repro.join.parallel import ParallelIBWJ
from repro.join.streams import diff_for_match_rate, gen_stream, reference_pairs

import gate as g
import tracing
from tracing import p50

NPROC = len(os.sched_getaffinity(0))
INDEXES = ("pim", "pim_nocc", "im", "bplus")
BASELINES = ("pim_nocc", "im", "bplus")
MATCH_RATE = 2.0  # sigma_s of every workload
INSERTION_DEPTH = 2  # D_I of every PIM-Tree


def index_factories(merge_ratio: float) -> dict:
    return {
        "pim": lambda win: ibwj.PIMAdapter(win, merge_ratio, INSERTION_DEPTH),
        "pim_nocc": lambda win: ibwj.PIMAdapter(
            win, merge_ratio, INSERTION_DEPTH, use_locks=False
        ),
        "im": lambda win: ibwj.IMAdapter(win, merge_ratio),
        "bplus": lambda win: ibwj.BPlusAdapter(win),
    }


def rotated(names, r: int) -> list[str]:
    """Round ``r``'s run order, so no index always runs first."""
    k = r % len(names)
    return list(names[k:]) + list(names[:k])


REFERENCE_KERNEL_S = 0.040  # the kernel's time on an idle core of the 4-core VM


def _kernel() -> int:
    """Fixed pure-Python work in the index code's mix: bisect, list
    insert and delete, dict stores, integer arithmetic."""
    keys: list[int] = []
    seen: dict[int, int] = {}
    x = 12345
    for i in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        keys.insert(bisect.bisect_left(keys, x), x)
        if len(keys) > 2048:
            del keys[:1024]
        seen[x & 4095] = i
    return len(seen)


def machine_slowdown() -> float:
    """How many times slower than its reference the kernel runs now."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) / REFERENCE_KERNEL_S


class Slowdown:
    """Machine slowdown over the interval between two ``mark`` calls,
    the mean of the kernel's slowdown at both ends."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._last = machine_slowdown()

    def mark(self) -> float:
        now = machine_slowdown()
        k = (self._last + now) / 2
        self._last = now
        self.factors.append(k)
        return k


class Workload:
    """Samples of one benchmark run.

    ``e2e`` maps each end-to-end metric to its samples (reported as the
    median) and ``raw`` keeps them before scaling by the slowdown;
    ``layer_samples`` maps per-layer metrics to theirs. ``traced_tps``
    holds ``join_tps`` from traced rounds, for the tracing overhead.
    ``layers`` names the metric groups this workload traces.
    """

    layers: frozenset[str] = frozenset()

    def __init__(self, seed: int, window: int, merge_ratio: float) -> None:
        self.seed = seed
        self.w = window
        self.merge_ratio = merge_ratio
        self.diff = diff_for_match_rate(MATCH_RATE, window)
        self.factories = index_factories(merge_ratio)
        self.slowdown: Slowdown | None = None
        self.e2e: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.layer_samples: dict[str, list[float]] = {}
        self.traced_tps: list[float] = []

    def sample(self, name: str, value: float, slowdown: float) -> None:
        """Record a rate (``*_tps``) or a time (``*_s``) measured while
        the machine ran ``slowdown`` times slower than the reference."""
        self.raw.setdefault(name, []).append(value)
        scaled = value * slowdown if name.endswith("_tps") else value / slowdown
        self.e2e.setdefault(name, []).append(scaled)

    def layer(self, name: str, value: float) -> None:
        self.layer_samples.setdefault(name, []).append(value)

    def setup(self, gate: g.Gate) -> None:
        raise NotImplementedError

    def round(self, r: int, traced: bool, gate: g.Gate) -> None:
        raise NotImplementedError

    def finish(self, gate: g.Gate) -> None:
        """Checks that need every round's results."""

    def layer_metrics(self) -> dict[str, float]:
        return {k: p50(v) for k, v in self.layer_samples.items()}

    def close(self) -> None:
        """Release what ``setup`` started."""

    def config(self) -> dict:
        return {
            "window": self.w,
            "match_rate": MATCH_RATE,
            "diff": self.diff,
            "merge_ratio": self.merge_ratio,
            "insertion_depth": INSERTION_DEPTH,
        }

    def run_baselines(
        self, seq, expected: int, repeats: int, r: int, traced: bool, gate: g.Gate
    ) -> None:
        """The single-threaded driver with each of ``BASELINES`` over all
        of ``seq`` (whole sequence timed), ``repeats`` times each; they
        take milliseconds each, so one slowdown covers them all."""
        tps: dict[str, list[float]] = {}
        for name in rotated(BASELINES, r):
            for _ in range(repeats):
                res = ibwj.run_ibwj(
                    seq, self.w, self.w, self.diff, self.factories[name],
                    collect_pairs=False,
                )
                gate.check(f"{name} n_matches", res.n_matches == expected)
                tps.setdefault(name, []).append(res.throughput)
        k = self.slowdown.mark()
        if not traced:
            for name, values in tps.items():
                for v in values:
                    self.sample(f"{name}_tps", v, k)
        gc.collect()


class SingleThreaded(Workload):
    """``join.ibwj`` over one generated stream: PIM-Tree, PIM-Tree
    without locks, IM-Tree and B+-Tree each run once per round, and
    each run pre-fills the window with 2w tuples."""

    layers = frozenset(INDEXES)

    def __init__(self, seed: int, *, window: int, n_timed: int) -> None:
        super().__init__(seed, window, merge_ratio=1 / 8)
        self.n_timed = n_timed
        self.n_matches: list[int] = []
        self.merge_ms: dict[str, list[float]] = {}
        self.phase_ms: dict[str, list[float]] = {}

    def config(self) -> dict:
        return {
            "path": "join.ibwj",
            **super().config(),
            "prefill_tuples": 2 * self.w,
            "timed_tuples": self.n_timed,
            "indexes": list(INDEXES),
        }

    def _stream(self):
        return gen_stream(2 * self.w + self.n_timed, seed=self.seed)

    def setup(self, gate: g.Gate) -> None:
        seq = self._stream()
        gate.check(
            "count oracle agrees with DuckDB",
            g.count_agrees_with_duckdb(seq, MATCH_RATE),
        )
        self.expected = g.band_count(seq, self.w, self.w, self.diff, warmup=2 * self.w)
        self.slowdown = Slowdown()

    def round(self, r: int, traced: bool, gate: g.Gate) -> None:
        t0 = time.perf_counter()
        seq = self._stream()
        setup_s = time.perf_counter() - t0
        slowdowns = []
        for name in rotated(INDEXES, r):
            factory = self.factories[name]
            tracer = None
            if traced:
                tracer = tracing.IndexTracer(2 * self.w, merge_phases=name == "pim")
                factory = tracer.factory(factory)
            t0 = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                res = ibwj.run_ibwj(
                    seq, self.w, self.w, self.diff, factory,
                    collect_pairs=False, warmup=2 * self.w,
                    probe_during_warmup=False,
                )
            setup_s += time.perf_counter() - t0 - res.elapsed
            k = self.slowdown.mark()
            slowdowns.append(k)
            gate.check(f"{name} n_matches", res.n_matches == self.expected)
            self.n_matches.append(res.n_matches)
            if tracer:
                self._record_trace(name, tracer, res)
                if name == "pim":
                    self.traced_tps.append(res.throughput * k)
            else:
                name = "join" if name == "pim" else name
                self.sample(f"{name}_tps", res.throughput, k)
            del res, tracer, factory
            gc.collect()  # B+-Tree leaves form cycles; free them between runs
        if not traced:
            self.sample("setup_s", setup_s, statistics.fmean(slowdowns))

    def _record_trace(self, name: str, tracer: tracing.IndexTracer, res) -> None:
        s = tracer.summary(res.n_processed, res.elapsed)
        for k in ("probe_us", "insert_us", "driver_us", "matches_per_probe", "index_mb"):
            self.layer(f"{name}.{k}", s[k])
        if name == "bplus":
            self.layer("bplus.retire_us", s["retire_us"])
            return
        self.layer(f"{name}.merge_us", s["merge_us"])
        self.layer(f"{name}.merges", s["merges"])
        self.merge_ms.setdefault(name, []).extend(tracer.merge_ms)
        if name == "pim":
            for k in ("locks_per_tuple", "subindexes", "insert_share_max"):
                self.layer(f"pim.{k}", s[k])
            for p, ms in tracer.phase_ms.items():
                self.phase_ms.setdefault(p, []).extend(ms)

    def finish(self, gate: g.Gate) -> None:
        gate.check(
            "n_matches equal across indexes and rounds", len(set(self.n_matches)) == 1
        )

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        for name in ("pim", "pim_nocc", "im"):
            ms = self.merge_ms.get(name, [])
            out[f"{name}.merge_ms.p50"] = p50(ms)
            out[f"{name}.merge_ms.max"] = max(ms, default=0.0)
        for p in tracing.MERGE_PHASES:
            out[f"pim.merge.{p}_ms"] = p50(self.phase_ms.get(p, []))
        return out


class Parallel(Workload):
    """``join.parallel`` with one thread per core, checked pair by pair
    against DuckDB. The baselines run on the same stream, whole stream
    timed like the threaded join, which starts from empty windows."""

    layers = frozenset({"par"})
    TASK_SIZE = 8

    def __init__(self, seed: int, *, n_tuples: int, window: int, repeats: int) -> None:
        super().__init__(seed, window, merge_ratio=1 / 4)
        self.n = n_tuples
        self.repeats = repeats
        self.merge_ms: list[float] = []

    def config(self) -> dict:
        return {
            "path": "join.parallel",
            **super().config(),
            "n_tuples": self.n,
            "task_size": self.TASK_SIZE,
            "threads": NPROC,
            "merge": "nonblocking",
            "baselines": list(BASELINES),
        }

    def setup(self, gate: g.Gate) -> None:
        self.ref = reference_pairs(
            gen_stream(self.n, seed=self.seed), self.w, self.w, self.diff
        )
        self.slowdown = Slowdown()

    def round(self, r: int, traced: bool, gate: g.Gate) -> None:
        t0 = time.perf_counter()
        seq = gen_stream(self.n, seed=self.seed)
        join = ParallelIBWJ(
            seq, self.w, self.w, self.diff,
            n_threads=NPROC, task_size=self.TASK_SIZE, merge_ratio=self.merge_ratio,
            insertion_depth=INSERTION_DEPTH,
        )
        setup_s = time.perf_counter() - t0
        if not traced:
            res = join.run()
            k = self.slowdown.mark()
            self.sample("setup_s", setup_s, k)
            self.sample("join_tps", res.throughput, k)
        else:
            tracer = tracing.ParallelTracer()
            cpu0 = time.process_time()
            with tracer.installed():
                res = join.run()
            s = tracer.summary(res.n_processed, time.process_time() - cpu0)
            for key, v in s.items():
                self.layer(f"par.{key}", v)
            self.layer("par.merges", res.n_merges)
            self.merge_ms.extend(x * 1e3 for x in tracer.merge_s)
            self.traced_tps.append(res.throughput * self.slowdown.mark())
        gate.check("threaded pairs equal DuckDB's", g.pairs_agree(res.pairs, self.ref))
        gate.check("threaded pairs in arrival order", g.in_arrival_order(res.pairs))
        del res, join
        self.run_baselines(seq, len(self.ref), self.repeats, r, traced, gate)

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        out["par.merge_ms.p50"] = p50(self.merge_ms)
        out["par.merge_ms.max"] = max(self.merge_ms, default=0.0)
        return out


def start_spark(root: Path, tmp: Path):
    """Local Spark session built by the table jobs' ``get_spark``, with
    one core per task slot. Python workers find ``repro`` through
    PYTHONPATH, which the JVM passes on to them; scratch files go to
    ``tmp``."""
    src = str(root / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{NPROC}]",
            "--driver-memory 1g",
            "--driver-java-options",
            shlex.quote(java_opts),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )
    from repro.bench.report import get_spark

    return get_spark("perfbench")


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    SparkContext._gateway = None
    SparkContext._jvm = None
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class Spark(Workload):
    """``join.spark_join.parallel_band_join(...).count()`` with one
    bucket per core. The baselines run on the stream's first
    ``n_base`` tuples, whole prefix timed, at the Spark join's window,
    band and merge ratio."""

    layers = frozenset({"spark"})

    def __init__(
        self, seed: int, *, root: Path, tmp: Path, n_tuples: int, window: int,
        n_base: int,
    ) -> None:
        super().__init__(seed, window, merge_ratio=1.0)  # parallel_band_join's default
        self.root = root
        self.tmp = tmp
        self.n = n_tuples
        self.n_base = n_base
        self.spark = None
        self.groups: list[tuple[str, str]] = []  # (prep group, count group)
        self.bounds_share: list[float] = []

    def config(self) -> dict:
        return {
            "path": "join.spark_join",
            **super().config(),
            "n_tuples": self.n,
            "partitions": NPROC,
            "master": f"local[{NPROC}]",
            "baseline_tuples": self.n_base,
            "baselines": list(BASELINES),
            "peak_rss_mb": "driver Python process only",
        }

    def _join(self, r: int | str):
        """One production one-shot join; returns (count, prep s, action s)."""
        from repro.join.spark_join import parallel_band_join

        sc = self.spark.sparkContext
        prep, count = f"perfbench-prep-{r}", f"perfbench-count-{r}"
        sc.setJobGroup(prep, "parallel_band_join")
        t0 = time.perf_counter()
        df = parallel_band_join(
            self.spark, self.seq, self.w, self.w, self.diff, n_partitions=NPROC
        )
        t1 = time.perf_counter()
        sc.setJobGroup(count, "count")
        c = df.count()
        t2 = time.perf_counter()
        self.groups.append((prep, count))
        return c, t1 - t0, t2 - t1

    def setup(self, gate: g.Gate) -> None:
        seq = gen_stream(self.n, seed=self.seed)
        gate.check(
            "count oracle agrees with DuckDB",
            g.count_agrees_with_duckdb(seq, MATCH_RATE),
        )
        self.expected = g.band_count(seq, self.w, self.w, self.diff)
        self.expected_base = g.band_count(seq.iloc[: self.n_base], self.w, self.w, self.diff)
        t0 = time.perf_counter()
        self.spark = start_spark(self.root, self.tmp)
        self.seq = gen_stream(self.n, seed=self.seed)
        c, _, _ = self._join("warmup")
        # Not scaled: two kernel runs 20 s apart do not track the set-up
        # (scaling widened its spread over ten runs from 15 % to 38 %).
        self.sample("setup_s", time.perf_counter() - t0, 1.0)
        gate.check("warm-up count equals the oracle's", c == self.expected)
        self.slowdown = Slowdown()

    def round(self, r: int, traced: bool, gate: g.Gate) -> None:
        if traced:
            tracer = tracing.SparkTracer()
            with tracer.installed():
                c, prep_s, action_s = self._join(r)
            self.layer("spark.prep_s", prep_s)
            self.layer("spark.action_s", action_s)
            x = self.seq["x"].to_numpy()
            for b in tracer.bounds:
                self.bounds_share.append(tracing.bucket_rows_max_share(b, x, self.diff))
            self.traced_tps.append(self.n / (prep_s + action_s) * self.slowdown.mark())
        else:
            c, prep_s, action_s = self._join(r)
            self.sample("join_tps", self.n / (prep_s + action_s), self.slowdown.mark())
        gate.check("Spark count equals the oracle's", c == self.expected)
        self.run_baselines(self.seq.iloc[: self.n_base], self.expected_base, 3, r, traced, gate)

    def finish(self, gate: g.Gate) -> None:
        tracker = self.spark.sparkContext.statusTracker()
        tasks = failed = 0
        for prep, count in self.groups:
            stages = _group_stages(tracker, prep) + _group_stages(tracker, count)
            tasks += sum(s.numTasks for s in stages if s.numCompletedTasks)
            failed += sum(s.numFailedTasks for s in stages)
            # The count's executed stages run: the input exchange, the
            # per-bucket join (applyInPandas), the final one-task count.
            ran = [s for s in _group_stages(tracker, count) if s.numCompletedTasks]
            self.layer("spark.join_tasks", sum(s.numTasks for s in ran[1:-1]))
        gate.tally("Spark tasks", tasks, failed)
        self.layer("spark.failed_tasks", failed)

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        out["spark.bucket_rows_max_share"] = p50(self.bounds_share)
        return out

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


def _group_stages(tracker, group: str) -> list:
    """Stage infos of a finished job group, once each, by stage id."""
    deadline = time.monotonic() + 10
    jobs = sorted(tracker.getJobIdsForGroup(group))
    # The listener bus is asynchronous: wait for the jobs to read as ended.
    while time.monotonic() < deadline and any(
        (tracker.getJobInfo(j) is None or tracker.getJobInfo(j).status == "RUNNING")
        for j in jobs
    ):
        time.sleep(0.05)
    stages = {}
    for j in jobs:
        info = tracker.getJobInfo(j)
        for sid in info.stageIds if info else ():
            s = tracker.getStageInfo(sid)
            if s is not None:
                stages[sid] = s
    return [stages[k] for k in sorted(stages)]


def make(name: str, seed: int, *, root: Path, tmp: Path, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the self-test."""
    if name == "st_merge_w15":
        return SingleThreaded(
            seed, window=1 << (10 if tiny else 15), n_timed=1000 if tiny else 8192
        )
    if name == "par_threads":
        return Parallel(
            seed, n_tuples=600 if tiny else 2048, window=256 if tiny else 1024,
            repeats=1 if tiny else 3,
        )
    if name == "spark_oneshot":
        return Spark(
            seed, root=root, tmp=tmp, n_tuples=8000 if tiny else 200_000,
            window=1 << (10 if tiny else 15), n_base=1000 if tiny else 16_384,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("st_merge_w15", "par_threads", "spark_oneshot")
