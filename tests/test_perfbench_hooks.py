"""The join benchmark's tracers (``perfbench/tracing.py``) reach into
``core`` by name: they swap ``pim_tree.merge_sorted``,
``pim_tree.ImmutableBTree``, ``BPlusTree.items_arrays`` and ``PIMTree``
methods. A rename there would not fail the benchmark, only zero its
per-layer metrics, so these tiny traced runs check every hook still
records time."""
import importlib
from pathlib import Path

import pytest

from repro.join import ibwj
from repro.join.parallel import ParallelIBWJ
from repro.join.streams import diff_for_match_rate, gen_stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda win: ibwj.IMAdapter(win, 0.25), id="im"),
        pytest.param(lambda win: ibwj.PIMAdapter(win, 0.25, 2), id="pim"),
    ],
)
def test_index_tracer_times_every_merge_phase(tracing, make):
    w = 256
    seq = gen_stream(6 * w, seed=1)
    tracer = tracing.IndexTracer(2 * w, merge_phases=True)
    factory = tracer.factory(make)
    with tracer.installed():
        res = ibwj.run_ibwj(
            seq, w, w, diff_for_match_rate(2.0, w), factory,
            collect_pairs=False, warmup=2 * w, probe_during_warmup=False,
        )
    s = tracer.summary(res.n_processed, res.elapsed)
    assert s["merges"] > 0 and s["probe_us"] > 0 and s["insert_us"] > 0
    for phase in ("extract", "combine", "ts_build"):
        assert len(tracer.phase_ms[phase]) == s["merges"]
        assert sum(tracer.phase_ms[phase]) > 0, phase


def test_parallel_tracer_samples_probe_insert_and_merge(tracing):
    w = 64
    seq = gen_stream(1024, seed=2)
    join = ParallelIBWJ(
        seq, w, w, diff_for_match_rate(2.0, w),
        n_threads=2, task_size=8, merge_ratio=0.25, insertion_depth=2,
    )
    tracer = tracing.ParallelTracer()
    with tracer.installed():
        res = join.run()
    assert res.n_merges > 0
    assert tracer.probe_s and tracer.insert_s and tracer.merge_s
    assert len(tracer.merge_s) == res.n_merges
    assert tracer.summary(res.n_processed, 1.0)["locks_per_tuple"] > 0
