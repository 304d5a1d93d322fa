"""The reductions over a LocalStatTable and the stat table itself work in
row blocks of at most multiscale._BLOCK_BYTES: the results equal the naive
full-table oracles for any block size, and no step holds a temporary the
size of the table."""

import tracemalloc

import numpy as np
import pytest

from panelscale import (
    LocalStatTable,
    Rejection,
    SmoothingKernel,
    aggregate,
    build_grid_application,
    compute_stat_table,
    dissimilarity_matrix,
    generate_panel,
    group_difference_intervals,
    hac_cluster,
    homogeneous_spec,
    prune_minimal,
    select_k,
    unit_pairs,
)
from panelscale import multiscale
from panelscale.estimate import batched_designs
from panelscale.multiscale import _collect_rejections

import oracles

KERN = SmoothingKernel("epanechnikov")


def tie_table(n_units=7, T=100, seed=21):
    """Random table with exact ties: returns (s_hat, lam, grid, q) where
    pairs 3, 8 and 11 have s - lambda == q at gridpoint 5, pair 8 has no
    larger cell, and every pair has s == q at gridpoint 7."""
    grid = build_grid_application(T)
    lam = grid.lam
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 3.0, size=(len(unit_pairs(n_units)), grid.n_points))
    s[8] = rng.uniform(0.0, 0.5, size=grid.n_points)  # s - lambda < 0 < q
    s[[3, 8, 11], 5] = lam[5] + 1.25
    q = float(s[3, 5] - lam[5])
    s[:, 7] = q
    return s, lam, grid, q


# 21 pairs: blocks of 4 leave a last block of 1, blocks of 1 split every row
@pytest.mark.parametrize("rows", [1, 4, 1000])
def test_reductions_equal_oracles_across_row_blocks(monkeypatch, rows):
    s, lam, grid, q = tie_table()
    monkeypatch.setattr(multiscale, "_BLOCK_BYTES", rows * 8 * grid.n_points)
    pairs = unit_pairs(7)
    table = LocalStatTable(grid=grid, pairs=pairs, s_hat=s, lam=lam)

    assert aggregate(table) == oracles.naive_psi(s, lam)

    got = [
        (r.i, r.j, r.u, r.h, r.stat, r.exceedance)
        for r in _collect_rejections(table, q)
    ]
    ref = oracles.naive_rejections(s, lam, pairs, grid.u, grid.h, q)
    assert got == ref
    # both comparisons are strict: the cells tied with q are not rejected
    tied = {(*pairs[p], grid.u[5], grid.h[5]) for p in (3, 8, 11)}
    assert got and not tied & {r[:4] for r in got}

    d = dissimilarity_matrix(table)
    ref_d = oracles.naive_dissimilarity(s, lam, pairs, 7)
    assert d.d.tobytes() == ref_d.tobytes()
    assert d.d[pairs[8]] == q

    res = select_k(hac_cluster(d, "complete"), d, q_alpha=0.0, k_override=3)
    assert len(set(res.membership)) == 3
    report = group_difference_intervals(res, table, q)
    ref_g = oracles.naive_group_differences(res.membership, pairs, s, grid.u, grid.h, q)
    assert report.intervals == ref_g
    assert list(report.intervals) == list(ref_g)
    hits = [t[:2] for ts in report.intervals.values() for t in ts]
    assert hits and (grid.u[7], grid.h[7]) not in hits


def synthetic_table():
    """A (780, 3900) table of 23 MiB whose every pair has one cell at 10."""
    grid = build_grid_application(1000)
    pairs = unit_pairs(40)
    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 1.0, size=(len(pairs), grid.n_points))
    s[np.arange(len(pairs)), rng.integers(0, grid.n_points, len(pairs))] = 10.0
    s.setflags(write=False)  # kept without a copy
    return grid, pairs, s


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_reductions_peak_within_two_blocks():
    grid, pairs, s = synthetic_table()
    assert s.nbytes >= 20 << 20
    bound = 2 * multiscale._BLOCK_BYTES + 64 * (len(pairs) + grid.n_points)
    table = LocalStatTable(grid=grid, pairs=pairs, s_hat=s, lam=grid.lam)
    d = dissimilarity_matrix(table)
    res = select_k(hac_cluster(d, "complete"), d, q_alpha=0.0, k_override=3)
    steps = {
        "table": lambda: LocalStatTable(grid=grid, pairs=pairs, s_hat=s, lam=grid.lam),
        "aggregate": lambda: aggregate(table),
        "dissimilarity_matrix": lambda: dissimilarity_matrix(table),
        # every pair has one rejection, so every row block is visited
        "_collect_rejections": lambda: _collect_rejections(table, 5.0),
        "group_difference_intervals": lambda: group_difference_intervals(res, table, 5.0),
    }
    peaks = {name: traced_peak(fn) for name, fn in steps.items()}
    assert all(peak < bound for peak in peaks.values()), (peaks, bound)


def test_stat_table_peak_within_table_sums_and_two_blocks():
    N, T, D = 100, 500, 3
    panel, _ = generate_panel(homogeneous_spec(N, T, D, seed=1))
    grid = build_grid_application(T)
    normalizers = np.broadcast_to(np.eye(D), (N * (N - 1) // 2, D, D))
    # the kernel weights are cached across calls; build them outside the trace
    _, a = batched_designs(panel, KERN, grid.u, grid.h)
    peak = traced_peak(lambda: compute_stat_table(panel, KERN, grid, normalizers))
    s_bytes = len(normalizers) * grid.n_points * 8
    assert peak < s_bytes + a.nbytes + 2 * multiscale._BLOCK_BYTES


def test_prune_peak_within_two_blocks():
    # one pair rejected at every gridpoint of the T=1000 grid
    grid = build_grid_application(1000)
    entries = tuple(
        Rejection(i=0, j=1, u=u, h=h, stat=1.0, exceedance=1.0) for u, h in grid.points
    )
    assert len(entries) == 3900
    assert 0 < len(prune_minimal(entries)) < len(entries)
    peak = traced_peak(lambda: prune_minimal(entries))
    # the pair's (3900, 3900) comparison alone would be 15 MB as booleans
    assert peak < 2 * multiscale._BLOCK_BYTES + 128 * len(entries), peak
