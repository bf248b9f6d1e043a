"""Stream workloads and the band-join correctness oracle (paper §5).

A *stream sequence* is a pandas DataFrame with one row per arriving tuple
in arrival order:

- ``gpos``  — 1-based global arrival position (both streams interleaved)
- ``side``  — 'R' or 'S' ('R' only, for self-join)
- ``spos``  — 1-based arrival position within its own stream
- ``x``     — integer join key
- ``opp_seen`` — number of opposite-stream tuples that arrived earlier
  (for self-join: number of same-stream tuples that arrived earlier,
  i.e. ``spos - 1``)

Key distributions follow the paper: uniform integers by default, plus
Gaussian, two Gamma parameterisations, and the three-phase shifting
Gaussian of Fig. 13. ``diff_for_match_rate`` inverts the paper's
protocol of fixing the match rate sigma_s ~= 2 across window sizes.
"""
from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
import pandas as pd

KEY_SPACE = 1 << 24  # keys are uniform ints in [0, KEY_SPACE)


def diff_for_match_rate(
    match_rate: float, window: int, key_space: int = KEY_SPACE
) -> int:
    """Band half-width so a probe of a w-window matches ~match_rate tuples.

    E[matches] = w * (2*diff + 1) / key_space for uniform keys.
    """
    return max(0, round((match_rate * key_space / window - 1) / 2))


def diff_for_match_rate_empirical(
    xs: np.ndarray, window: int, match_rate: float = 2.0
) -> int:
    """Band half-width achieving ~``match_rate`` expected matches per
    probe for an *arbitrary* key distribution (the paper adjusts the band
    predicate per distribution to keep sigma_s fixed — §5, Fig. 12b).

    Binary-searches diff so that, over 2000 sampled probe keys against
    16000 sampled window keys, the mean match count hits the target.
    """
    rng = np.random.default_rng(0)
    probes = np.sort(rng.choice(xs, size=min(2000, len(xs)), replace=False))
    sample = np.sort(rng.choice(xs, size=min(16000, len(xs)), replace=False))

    def matches(diff: int) -> float:
        lo = np.searchsorted(sample, probes - diff, "left")
        hi = np.searchsorted(sample, probes + diff, "right")
        return float((hi - lo).mean()) * window / len(sample)

    lo_d, hi_d = 0, int(xs.max() - xs.min()) + 1
    while lo_d < hi_d:
        mid = (lo_d + hi_d) // 2
        if matches(mid) < match_rate:
            lo_d = mid + 1
        else:
            hi_d = mid
    return lo_d


def _keys(n: int, dist: str, rng: np.random.Generator, key_space: int) -> np.ndarray:
    """Integer keys under the paper's distributions, scaled to the key
    domain. Continuous draws are clipped to [0, 1) then scaled."""
    if dist == "uniform":
        return rng.integers(0, key_space, n)
    if dist == "gaussian":  # N(0.5, 0.125) as in Fig. 12b
        v = rng.normal(0.5, 0.125, n)
    elif dist == "gamma_k3":  # Gamma(k=3, theta=3), normalised
        v = rng.gamma(3.0, 3.0, n) / 40.0
    elif dist == "gamma_k1":  # Gamma(k=1, theta=5), normalised
        v = rng.gamma(1.0, 5.0, n) / 40.0
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    return (np.clip(v, 0.0, 1.0 - 1e-9) * key_space).astype(np.int64)


def gen_stream(
    n: int,
    *,
    dist: str = "uniform",
    seed: int = 0,
    key_space: int = KEY_SPACE,
    rate_r: int = 1,
    rate_s: int = 1,
    self_join: bool = False,
) -> pd.DataFrame:
    """Interleaved two-stream (or single-stream) arrival sequence.

    ``rate_r``/``rate_s`` give the paper's asymmetric input rates: tuples
    are interleaved in repeating blocks of ``rate_r`` R-tuples followed by
    ``rate_s`` S-tuples.
    """
    rng = np.random.default_rng(seed)
    x = _keys(n, dist, rng, key_space)
    if self_join:
        side = np.full(n, "R")
        spos = np.arange(1, n + 1)
        opp_seen = spos - 1
    else:
        block = np.array([True] * rate_r + [False] * rate_s)
        is_r = np.tile(block, -(-n // len(block)))[:n]
        side = np.where(is_r, "R", "S")
        spos = np.where(is_r, np.cumsum(is_r), np.cumsum(~is_r))
        # Opposite-stream tuples seen strictly before this arrival:
        n_s_before = np.concatenate([[0], np.cumsum(~is_r)[:-1]])
        n_r_before = np.concatenate([[0], np.cumsum(is_r)[:-1]])
        opp_seen = np.where(is_r, n_s_before, n_r_before)
    return pd.DataFrame(
        {
            "gpos": np.arange(1, n + 1),
            "side": side,
            "spos": spos.astype(np.int64),
            "x": x.astype(np.int64),
            "opp_seen": opp_seen.astype(np.int64),
        }
    )


def arrival_columns(
    seq: pd.DataFrame,
) -> tuple[list[str], list[int], list[int], list[int], list[int]]:
    """``seq``'s ``side``, ``spos``, ``x``, ``opp_seen`` and ``gpos``
    columns as plain lists, for the join drivers' per-tuple loops: a
    numpy scalar read costs several times a list read, which would add
    ~1 us of driver overhead per tuple and compress the index-cost
    differences the drivers exist to measure."""
    return tuple(
        seq[c].to_numpy().tolist()
        for c in ("side", "spos", "x", "opp_seen", "gpos")
    )


@contextmanager
def gc_deferred() -> Iterator[None]:
    """Defer cyclic garbage collection for a join run, restoring the
    previous state even when the run raises. A generational pass scans
    every live tree node (up to 33 ms in a threaded join of 8,192
    tuples), so it would land on whichever index or thread happens to
    allocate, and a measurement would read allocator luck, not index
    work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def by_spos(seq: pd.DataFrame, column: str) -> dict[str, list[int]]:
    """One column of each stream's tuples, read by position:
    ``out[side][spos]`` is ``column`` of that ``side``-stream tuple, and 0
    where ``seq`` has no such spos (a Spark bucket's spos are sparse). An
    index element refers to its tuple by spos (the window reference of
    paper Fig. 11a): expiry and the §4 linear window scan read keys
    (``x``) this way, result pairs read ``gpos``."""
    sides = seq["side"].to_numpy()
    sposs = seq["spos"].to_numpy()
    col = seq[column].to_numpy()
    out: dict[str, list[int]] = {}
    for side in ("R", "S"):
        mask = sides == side
        at = sposs[mask]
        a = np.zeros(int(at.max(initial=0)) + 1, np.int64)
        a[at] = col[mask]
        out[side] = a.tolist()
    return out


def shifting_gaussian_stream(
    n_phase1: int,
    n_phase2: int,
    n_phase3: int,
    *,
    r: float,
    seed: int = 0,
    key_space: int = KEY_SPACE,
) -> pd.DataFrame:
    """Three-phase self-join sequence of Fig. 13: N(0.5, .125) fixed, then
    the mean shifts linearly to 0.5 + r, then fixed at 0.5 + r. Keys are
    scaled into the key domain with the shifted range compressed back to
    [0, 1+r] -> [0, key_space)."""
    rng = np.random.default_rng(seed)
    n = n_phase1 + n_phase2 + n_phase3
    mu = np.concatenate(
        [
            np.full(n_phase1, 0.5),
            0.5 + r * np.linspace(0.0, 1.0, n_phase2, endpoint=False),
            np.full(n_phase3, 0.5 + r),
        ]
    )
    v = rng.normal(mu, 0.125)
    v = np.clip(v / (1.0 + r), 0.0, 1.0 - 1e-9)
    x = (v * key_space).astype(np.int64)
    spos = np.arange(1, n + 1)
    return pd.DataFrame(
        {
            "gpos": spos,
            "side": np.full(n, "R"),
            "spos": spos,
            "x": x,
            "opp_seen": spos - 1,
        }
    )


def band_join_sql(
    w_r: int,
    w_s: int,
    diff: int,
    *,
    self_join: bool = False,
    table: str = "stream",
) -> str:
    """DuckDB SQL computing the exact count-window band-join pair set.

    Pairs are keyed (earlier e, later l); ``e`` must still be inside the
    later tuple's opposite-stream count window when ``l`` arrives. Output
    columns: later_gpos, earlier_gpos — compare against any join
    implementation via ``repro.oracle.assert_equivalent``.
    """
    if self_join:
        pred = f"e.spos >= l.spos - {w_r}"
        side = "e.gpos < l.gpos"
    else:
        side = "e.side <> l.side AND e.gpos < l.gpos"
        pred = (
            f"((e.side = 'R' AND e.spos > l.opp_seen - {w_r}) "
            f"OR (e.side = 'S' AND e.spos > l.opp_seen - {w_s}))"
        )
    return (
        "SELECT l.gpos AS later_gpos, e.gpos AS earlier_gpos "
        f"FROM {table} e JOIN {table} l ON {side} "
        f"AND ABS(e.x - l.x) <= {diff} AND {pred}"
    )


def reference_pairs(
    seq: pd.DataFrame, w_r: int, w_s: int, diff: int, *, self_join: bool = False
) -> set[tuple[int, int]]:
    """The oracle pair set as Python tuples (later_gpos, earlier_gpos)."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("stream", seq)
        sql = band_join_sql(w_r, w_s, diff, self_join=self_join)
        out = con.execute(sql).fetchall()
    finally:
        con.close()
    return {(int(a), int(b)) for a, b in out}
