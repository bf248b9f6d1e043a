"""Oracle-equivalence tests for the single-threaded IBWJ driver across
every index adapter and workload shape the paper evaluates."""
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join import ibwj, spark_join, streams
from repro.join.streams import (
    KEY_SPACE,
    diff_for_match_rate,
    gen_stream,
    reference_pairs,
)

FACTORIES = {
    "bplus": lambda w: ibwj.BPlusAdapter(w),
    "chain2_b": lambda w: ibwj.ChainAdapter(w, 2, False),
    "chain2_ib": lambda w: ibwj.ChainAdapter(w, 2, True),
    "chain5_b": lambda w: ibwj.ChainAdapter(w, 5, False),
    "chain5_ib": lambda w: ibwj.ChainAdapter(w, 5, True),
    "bw": lambda w: ibwj.BwAdapter(w),
    "nlwj": lambda w: ibwj.NLWJAdapter(w),
    "im_m125": lambda w: ibwj.IMAdapter(w, 0.125),
    "im_m1": lambda w: ibwj.IMAdapter(w, 1.0),
    "pim_d1": lambda w: ibwj.PIMAdapter(w, 0.25, 1),
    "pim_d2": lambda w: ibwj.PIMAdapter(w, 0.25, 2),
    "pim_d3": lambda w: ibwj.PIMAdapter(w, 1.0, 3),
    "pim_nocc": lambda w: ibwj.PIMAdapter(w, 0.25, 2, use_locks=False),
}


def _run_and_check(seq, w_r, w_s, diff, factory, self_join=False):
    res = ibwj.run_ibwj(seq, w_r, w_s, diff, factory, self_join=self_join)
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    got = set(res.pairs)
    assert got == ref
    assert len(res.pairs) == len(ref)  # no duplicate results either
    # An all-True owner mask is the unmasked run.
    owned = ibwj.run_ibwj(
        seq, w_r, w_s, diff, factory, self_join=self_join,
        owner=np.ones(len(seq), bool),
    )
    assert owned.pairs == res.pairs and owned.n_matches == res.n_matches
    return res


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_two_way_join_matches_oracle(name):
    w = 192
    seq = gen_stream(2500, seed=11)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_self_join_matches_oracle(name):
    w = 160
    seq = gen_stream(2000, seed=12, self_join=True)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name], self_join=True)


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "im_m125", "bw"])
@pytest.mark.parametrize("w_r,w_s", [(64, 512), (512, 64)])
def test_asymmetric_windows(name, w_r, w_s):
    seq = gen_stream(2500, seed=13)
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    _run_and_check(seq, w_r, w_s, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "chain2_ib"])
@pytest.mark.parametrize("rate_r,rate_s", [(4, 1), (1, 4)])
def test_asymmetric_rates(name, rate_r, rate_s):
    w = 128
    seq = gen_stream(2200, seed=14, rate_r=rate_r, rate_s=rate_s)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["bplus", "pim_d2", "im_m125"])
@pytest.mark.parametrize("dist", ["gaussian", "gamma_k3", "gamma_k1"])
def test_skewed_distributions(name, dist):
    w = 128
    seq = gen_stream(2000, seed=15, dist=dist)
    diff = diff_for_match_rate(2.0, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


@pytest.mark.parametrize("name", ["pim_d2", "bplus"])
@pytest.mark.parametrize("rate", [0.25, 16.0])
def test_extreme_match_rates(name, rate):
    w = 256
    seq = gen_stream(2000, seed=16)
    diff = diff_for_match_rate(rate, w)
    _run_and_check(seq, w, w, diff, FACTORIES[name])


def test_zero_diff_equijoin():
    w = 128
    seq = gen_stream(1500, seed=17, key_space=50)  # force duplicates
    _run_and_check(seq, w, w, 0, FACTORIES["pim_d2"])


@pytest.mark.parametrize("name", ["bplus", "bw"])
@pytest.mark.parametrize(
    "w_r, w_s, self_join",
    [(128, 128, False), (160, 160, True), (64, 256, False)],
    ids=["two_way", "self_join", "asym_windows"],
)
def test_retire_removes_the_expired_tuple(name, w_r, w_s, self_join):
    """Probes drop expired entries by ``min_pos``, so the oracle tests
    pass even if retire deletes nothing; the index sizes do not: each
    delete-based index ends holding exactly its stream's window."""
    seq = gen_stream(1500, seed=19, self_join=self_join)
    built = []

    def factory(w):
        built.append(FACTORIES[name](w))
        return built[-1]

    ibwj.run_ibwj(
        seq, w_r, w_s, diff_for_match_rate(2.0, max(w_r, w_s)), factory,
        self_join=self_join, collect_pairs=False,
    )
    sides = ["R"] if self_join else ["R", "S"]
    windows = {"R": w_r, "S": w_s}
    assert [len(a.tree if name == "bplus" else a.idx) for a in built] == [
        min(windows[s], int((seq["side"] == s).sum())) for s in sides
    ]


def _buckets(seq, n_buckets, diff):
    """(pid, rows, owner mask) per bucket, cut by the Spark join's own
    ``spark_join.bucket_rows``."""
    bounds = spark_join.key_bounds(seq["x"].to_numpy(), n_buckets)
    return spark_join.bucket_rows(seq, bounds, diff)


@pytest.mark.parametrize(
    "w_r, w_s, self_join, rates, key_space, diff, n_buckets",
    [
        (256, 256, False, (1, 1), KEY_SPACE, None, 4),
        (200, 200, True, (1, 1), KEY_SPACE, None, 4),
        (64, 512, False, (1, 1), KEY_SPACE, None, 4),
        (192, 192, False, (3, 1), KEY_SPACE, None, 4),
        (128, 128, False, (1, 1), 1000, 300, 8),
        (128, 128, False, (1, 1), 3, 0, 8),
    ],
    ids=[
        "two_way", "self_join", "asym_windows", "asym_rates", "wide_band",
        "dup_keys",
    ],
)
def test_bucketed_owner_runs_union_to_oracle(
    w_r, w_s, self_join, rates, key_space, diff, n_buckets
):
    """The Spark worker's join without Spark: each bucket runs
    ``run_ibwj`` with only its owner rows inserting, at the bucket's share
    of the window as merge threshold, without locks; the buckets' pairs
    together are the oracle's, each found once."""
    seq = gen_stream(
        3000, seed=50, key_space=key_space, self_join=self_join,
        rate_r=rates[0], rate_s=rates[1],
    )
    if diff is None:
        diff = diff_for_match_rate(2.0, max(w_r, w_s))
    share = max(1, (w_r + w_s) // (2 * n_buckets))
    pairs = []
    for _, rows, owner in _buckets(seq, n_buckets, diff):
        res = ibwj.run_ibwj(
            rows, w_r, w_s, diff,
            lambda _w: ibwj.PIMAdapter(share, 1.0, 2, use_locks=False),
            self_join=self_join, owner=owner,
        )
        assert res.costs.n_merges > 0
        pairs += res.pairs
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == reference_pairs(seq, w_r, w_s, diff, self_join=self_join)


# Adapters that expire by position, so a run where only owner rows insert
# stays exact; the delete-based adapters reject such a run.
MASKABLE = [
    n for n in sorted(FACTORIES) if n.startswith(("chain", "im", "nlwj", "pim"))
]
UNMASKABLE = ["bplus", "bw"]


@pytest.mark.parametrize("name", MASKABLE)
@settings(max_examples=8, deadline=None)
@given(
    shape=st.sampled_from(["two_way", "self_join", "asym_windows"]),
    seed=st.integers(0, 2**16),
    share=st.floats(0.05, 0.95),
)
def test_masked_run_returns_the_owned_pairs(name, shape, seed, share):
    """Under a random owner mask, every row probes and only owner rows
    insert: the pairs are exactly the oracle's whose earlier tuple is
    owned, each once, on two-way, self-join and w_r != w_s streams."""
    self_join = shape == "self_join"
    w_r, w_s = (48, 160) if shape == "asym_windows" else (96, 96)
    seq = gen_stream(900, seed=seed, self_join=self_join)
    owner = np.random.default_rng(seed).random(len(seq)) < share
    diff = diff_for_match_rate(2.0, max(w_r, w_s))
    res = ibwj.run_ibwj(
        seq, w_r, w_s, diff, FACTORIES[name], self_join=self_join, owner=owner
    )
    owned = set(seq["gpos"][owner].tolist())
    ref = reference_pairs(seq, w_r, w_s, diff, self_join=self_join)
    assert len(res.pairs) == len(set(res.pairs))
    assert set(res.pairs) == {p for p in ref if p[1] in owned}


@pytest.mark.parametrize("name", UNMASKABLE)
def test_partial_mask_is_rejected(name):
    """A mask that leaves out one row raises for an adapter that retires
    by delete; an all-True mask runs (``_run_and_check``)."""
    seq = gen_stream(300, seed=22)
    owner = np.ones(len(seq), bool)
    owner[150] = False
    with pytest.raises(ValueError):
        ibwj.run_ibwj(seq, 64, 64, 1000, FACTORIES[name], owner=owner)


@pytest.mark.parametrize("collect_pairs", [True, False])
def test_gpos_map_is_built_only_for_pairs(collect_pairs, monkeypatch):
    """Expiry reads keys by position in every run; only pair collection
    reads gpos by position."""
    built = []

    def by_spos(seq, column):
        built.append(column)
        return streams.by_spos(seq, column)

    monkeypatch.setattr(ibwj, "by_spos", by_spos)
    seq = gen_stream(400, seed=23)
    res = ibwj.run_ibwj(
        seq, 64, 64, 1000, FACTORIES["bplus"], collect_pairs=collect_pairs
    )
    assert built == (["x", "gpos"] if collect_pairs else ["x"])
    assert (res.pairs is not None) == collect_pairs


def test_gc_is_deferred_in_the_run_and_restored_after_a_failure():
    """Cyclic GC is off while the driver loops, and on again after a run
    whose index raised mid-stream."""
    seen = []

    class FailingPIM(ibwj.PIMAdapter):
        def insert(self, x, pos):
            seen.append(gc.isenabled())
            if pos == 100:
                raise RuntimeError("insert failed")
            super().insert(x, pos)

    seq = gen_stream(400, seed=24)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="insert failed"):
        ibwj.run_ibwj(seq, 64, 64, 1000, lambda w: FailingPIM(w, 0.25, 2))
    assert len(seen) >= 100 and not any(seen)
    assert gc.isenabled()


def test_warmup_excludes_pairs_and_time():
    w = 64
    seq = gen_stream(1200, seed=18)
    diff = diff_for_match_rate(2.0, w)
    res = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["bplus"], warmup=600
    )
    ref = reference_pairs(seq, w, w, diff)
    expect = {p for p in ref if p[0] > 600}
    assert set(res.pairs) == expect
    assert res.n_processed == 600


def test_skipping_warmup_probes_leaves_results_unchanged():
    """probe_during_warmup=False must not change post-warmup results:
    probes are read-only, so the index state after warmup is identical."""
    w = 64
    seq = gen_stream(1200, seed=18)
    diff = diff_for_match_rate(2.0, w)
    a = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["pim_d2"], warmup=600
    )
    b = ibwj.run_ibwj(
        seq, w, w, diff, FACTORIES["pim_d2"], warmup=600,
        probe_during_warmup=False,
    )
    assert set(a.pairs) == set(b.pairs)


def test_measure_mode_collects_step_costs():
    w = 256
    seq = gen_stream(3000, seed=19)
    diff = diff_for_match_rate(2.0, w)
    res = ibwj.run_ibwj(
        seq, w, w, diff,
        lambda win: ibwj.PIMAdapter(win, 0.125, 2),
        collect_pairs=False, measure=True,
    )
    c = res.costs
    assert c.search > 0 and c.scan >= 0 and c.subindex > 0 and c.insert > 0
    assert c.merge > 0 and c.n_merges > 0
    steps = c.search + c.scan + c.subindex + c.insert + c.delete + c.merge
    assert steps <= res.elapsed * 1.2
    per = c.per_tuple()
    assert set(per) == {"search", "scan", "subindex", "insert", "delete", "merge"}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_measure_mode_times_delete_only_where_an_index_deletes(name):
    """B+ and Bw delete each expired tuple; the other indexes drop
    expired tuples by position, so the driver neither calls nor times a
    delete for them."""
    w = 256
    seq = gen_stream(3000, seed=19)
    res = ibwj.run_ibwj(
        seq, w, w, diff_for_match_rate(2.0, w), FACTORIES[name],
        collect_pairs=False, measure=True,
    )
    if name in ("bplus", "bw"):
        assert res.costs.delete > 0
    else:
        assert res.costs.delete == 0.0


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_measure_mode_same_results_as_fast_mode(name):
    """Measure mode times the production probe's parts, so it returns
    the same pairs; a locking PIM-Tree also takes the same locks and
    loads the same T_S bytes."""
    w = 96
    seq = gen_stream(1500, seed=20)
    diff = diff_for_match_rate(2.0, w)
    runs = {}
    for measure in (True, False):
        built = []

        def factory(win):
            built.append(FACTORIES[name](win))
            return built[-1]

        res = ibwj.run_ibwj(seq, w, w, diff, factory, measure=measure)
        runs[measure] = res.pairs, [
            (a.idx.lock_acquisitions, a.idx.t_s.bytes_loaded)
            for a in built
            if isinstance(a, ibwj.PIMAdapter) and a.idx.use_locks
        ]
    assert runs[True] == runs[False]
    pairs, pim = runs[True]
    assert len(pairs) > 0
    assert all(locks > 0 and ts_bytes > 0 for locks, ts_bytes in pim)
    assert (len(pim) > 0) == (name.startswith("pim") and name != "pim_nocc")


def test_pairs_df_schema():
    df = ibwj.pairs_df([(3, 1), (5, 2)])
    assert list(df.columns) == ["later_gpos", "earlier_gpos"]
    assert df.dtypes.astype(str).tolist() == ["int64", "int64"]


def test_throughput_positive():
    w = 64
    seq = gen_stream(800, seed=21)
    res = ibwj.run_ibwj(seq, w, w, 100, FACTORIES["bplus"], collect_pairs=False)
    assert res.throughput > 0
    assert res.n_processed == 800
