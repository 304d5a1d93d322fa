import time

import numpy as np
import pytest

from panelscale import (
    CriticalValue,
    Grid,
    HacConfig,
    LocalStatTable,
    Panel,
    Rejection,
    SmoothingKernel,
    aggregate,
    build_grid_application,
    build_grid_custom,
    compute_stat_table,
    generate_panel,
    homogeneous_spec,
    local_stat,
    prune_minimal,
    run_test,
    unit_pairs,
)
from panelscale import kernels, multiscale
from panelscale.estimate import batched_designs
from panelscale.kernels import lambda_correction

import oracles

KERN = SmoothingKernel("epanechnikov")


def micro_grid(T=16):
    points = ((0.5, 0.25), (0.25, 3 / 16), (0.75, 3 / 16), (0.5, 2 / 16))
    return Grid(points=points, T=T, h_min=2 / 16, h_max=0.25)


def random_panel(rng, N=3, T=16, D=2):
    x = np.column_stack([np.ones(T), rng.standard_normal(T)])[:, :D]
    return Panel(
        y=rng.standard_normal((N, T)),
        x=x,
        unit_labels=tuple(f"u{i}" for i in range(N)),
    )


def eye_normalizers(N, D):
    return np.array([np.eye(D)] * (N * (N - 1) // 2))


def test_identical_units_zero_statistic():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(16)
    panel = Panel(
        y=np.vstack([y, y]),
        x=np.column_stack([np.ones(16), rng.standard_normal(16)]),
        unit_labels=("a", "b"),
    )
    table = compute_stat_table(panel, KERN, micro_grid(), eye_normalizers(2, 2))
    assert np.abs(table.s_hat).max() < 1e-10


def test_scalar_reduction_matches_weighted_sum():
    rng = np.random.default_rng(1)
    T = 16
    panel = Panel(
        y=rng.standard_normal((2, T)),
        x=np.ones((T, 1)),
        unit_labels=("a", "b"),
    )
    u, h = 0.5, 0.25
    got = local_stat(panel, KERN, np.eye(1), u, h, 0, 1)
    w = np.array(oracles.naive_weights("epanechnikov", T, u, h))
    expected = abs((w * (panel.y[0] - panel.y[1])).sum()) / np.sqrt(T * h)
    assert got == pytest.approx(expected, abs=1e-12)


def test_local_stat_matches_composed_oracle():
    rng = np.random.default_rng(2)
    for _ in range(8):
        panel = random_panel(rng, N=3, T=16, D=2)
        q = rng.standard_normal((2, 2))
        nrm = oracles.sqrtm_inv(q @ q.T + np.eye(2))
        u, h = 0.5, 0.25
        got = local_stat(panel, KERN, nrm, u, h, 0, 2)
        ref = oracles.naive_local_stat(
            panel.x, panel.y, "epanechnikov", u, h, 0, 2, nrm
        )
        assert got == pytest.approx(ref, abs=1e-10)


def test_two_forms_agree_on_homogeneous_panels():
    rng = np.random.default_rng(3)
    for seed in range(5):
        panel = random_panel(np.random.default_rng(seed), N=3, T=24, D=2)
        u, h = 0.5, 0.25
        nrm = np.eye(2)
        est = oracles.naive_local_stat(panel.x, panel.y, "epanechnikov", u, h, 0, 1, nrm)
        direct = oracles.naive_kernel_sum_stat(
            panel.x, panel.y, "epanechnikov", u, h, 0, 1, nrm
        )
        assert est == pytest.approx(direct, abs=1e-8)
        # the library call cross-checks internally and must not raise
        local_stat(panel, KERN, nrm, u, h, 0, 1, cross_check=True)


def test_table_scale_invariance():
    # Y -> cY with Sigma -> c^2 Sigma leaves every statistic unchanged
    rng = np.random.default_rng(4)
    panel = random_panel(rng, N=3, T=16, D=2)
    grid = micro_grid()
    sig = [np.eye(2), 2 * np.eye(2), np.diag([1.0, 3.0])]
    pairs = unit_pairs(3)
    nrm = np.array([oracles.sqrtm_inv(0.5 * (sig[i] + sig[j])) for i, j in pairs])
    base = compute_stat_table(panel, KERN, grid, nrm).s_hat
    c = 7.3
    scaled_panel = Panel(y=c * panel.y, x=panel.x, unit_labels=panel.unit_labels)
    nrm_scaled = np.array(
        [oracles.sqrtm_inv(c * c * 0.5 * (sig[i] + sig[j])) for i, j in pairs]
    )
    scaled = compute_stat_table(scaled_panel, KERN, grid, nrm_scaled).s_hat
    np.testing.assert_allclose(scaled, base, atol=1e-8 * max(1, base.max()))


def test_statistic_symmetric_in_pair_order():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, N=2, T=16, D=2)
    nrm = np.eye(2)
    a = local_stat(panel, KERN, nrm, 0.5, 0.25, 0, 1)
    swapped = Panel(
        y=panel.y[::-1].copy(), x=panel.x, unit_labels=("b", "a")
    )
    b = local_stat(swapped, KERN, nrm, 0.5, 0.25, 0, 1)
    assert a == pytest.approx(b, abs=1e-12)


def test_aggregate_examples():
    grid = Grid(points=((0.5, 0.25),), T=16, h_min=0.25, h_max=0.25)
    lam = lambda_correction(0.25)
    table = LocalStatTable(
        grid=grid, pairs=((0, 1),), s_hat=np.array([[lam + 1.5]]), lam=np.array([lam])
    )
    assert aggregate(table) == pytest.approx(1.5, abs=1e-12)
    # all penalized entries equal -> that common value
    grid2 = micro_grid()
    lam2 = np.array([lambda_correction(h) for h in grid2.h])
    table2 = LocalStatTable(
        grid=grid2, pairs=((0, 1),), s_hat=(0.7 + lam2)[None, :], lam=lam2
    )
    assert aggregate(table2) == pytest.approx(0.7, abs=1e-12)


def test_aggregate_equals_full_scan():
    rng = np.random.default_rng(6)
    grid = micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    s = rng.uniform(0, 3, size=(3, grid.n_points))
    table = LocalStatTable(grid=grid, pairs=((0, 1), (0, 2), (1, 2)), s_hat=s, lam=lam)
    assert aggregate(table) == pytest.approx(oracles.naive_psi(s, lam), abs=1e-14)


def test_aggregate_monotone():
    rng = np.random.default_rng(7)
    grid = micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    s = rng.uniform(0, 3, size=(1, grid.n_points))
    table = LocalStatTable(grid=grid, pairs=((0, 1),), s_hat=s, lam=lam)
    base = aggregate(table)
    s2 = s.copy()
    s2[0, 2] += 0.5
    table2 = LocalStatTable(grid=grid, pairs=((0, 1),), s_hat=s2, lam=lam)
    assert aggregate(table2) >= base


def run_micro_test(panel, q, alpha=0.05, grid=None):
    grid = grid or micro_grid(panel.n_time)
    crit = CriticalValue(alpha=alpha, B=1000, seed=0, q=q)
    return run_test(panel, KERN, grid, HacConfig(bandwidth=2.0), alpha, crit)


def test_run_test_homogeneous_noiseless():
    # identical responses cancel exactly in the pairwise sums, so psi_hat is
    # the pure penalty floor and no positive threshold can be crossed
    T = 64
    x = np.column_stack([np.ones(T), np.sin(np.arange(1, T + 1) * 0.7)])
    beta = np.array([1.0, 2.0])
    y = (x @ beta)[None, :].repeat(3, axis=0)
    panel = Panel(y=y, x=x, unit_labels=("a", "b", "c"))
    grid = build_grid_custom(64, 8, [0.25])
    crit = CriticalValue(alpha=0.05, B=1000, seed=0, q=1e-9)
    res = run_test(panel, KERN, grid, HacConfig(bandwidth=2.0), 0.05, crit)
    assert res.psi_hat == pytest.approx(-lambda_correction(0.25), abs=1e-10)
    assert not res.reject_global and res.rejections == ()
    # and the statistic table itself is numerically zero
    table = compute_stat_table(panel, KERN, grid, eye_normalizers(3, 2))
    assert np.abs(table.s_hat).max() < 1e-8


def test_run_test_alpha_nesting():
    rng = np.random.default_rng(8)
    panel = random_panel(rng, N=3, T=64, D=2)
    grid = build_grid_custom(64, 8, [0.25])
    crit_lo = CriticalValue(alpha=0.10, B=1000, seed=0, q=1.0)
    crit_hi = CriticalValue(alpha=0.01, B=1000, seed=0, q=2.0)
    res_lo = run_test(panel, KERN, grid, HacConfig(bandwidth=2.0), 0.10, crit_lo)
    res_hi = run_test(panel, KERN, grid, HacConfig(bandwidth=2.0), 0.01, crit_hi)
    keys_hi = {(r.i, r.j, r.u, r.h) for r in res_hi.rejections}
    keys_lo = {(r.i, r.j, r.u, r.h) for r in res_lo.rejections}
    assert keys_hi <= keys_lo


def test_run_test_result_invariants():
    rng = np.random.default_rng(9)
    panel = random_panel(rng, N=3, T=64, D=2)
    grid = build_grid_custom(64, 8, [0.25])
    res = run_micro_test(panel, q=0.5, grid=grid)
    assert res.reject_global == (res.psi_hat > res.q_alpha)
    assert (len(res.rejections) > 0) == res.reject_global
    for r in res.rejections:
        assert r.exceedance > res.q_alpha
    ex = [r.exceedance for r in res.rejections]
    assert ex == sorted(ex, reverse=True)


def test_grid_for_another_T_rejected():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, N=2, T=200, D=1)
    grid = build_grid_custom(300, 30, [0.25])
    with pytest.raises(ValueError, match=r"T=300, not T=200"):
        compute_stat_table(panel, KERN, grid, eye_normalizers(2, 1))


def test_run_test_alpha_mismatch_rejected():
    rng = np.random.default_rng(10)
    panel = random_panel(rng, N=2, T=64, D=2)
    grid = build_grid_custom(64, 8, [0.25])
    crit = CriticalValue(alpha=0.10, B=1000, seed=0, q=1.0)
    with pytest.raises(ValueError, match="alpha"):
        run_test(panel, KERN, grid, HacConfig(bandwidth=2.0), 0.05, crit)


def rejection(i, j, u, h):
    return Rejection(i=i, j=j, u=u, h=h, stat=1.0, exceedance=1.0)


def test_prune_nested_intervals():
    outer = rejection(0, 1, 0.5, 0.3)
    inner = rejection(0, 1, 0.5, 0.1)
    kept = prune_minimal((outer, inner))
    assert kept == (inner,)


def test_prune_disjoint_intervals():
    a = rejection(0, 1, 0.2, 0.1)
    b = rejection(0, 1, 0.7, 0.1)
    assert set(prune_minimal((a, b))) == {a, b}


def test_prune_different_pairs_not_compared():
    outer = rejection(0, 1, 0.5, 0.3)
    inner = rejection(0, 2, 0.5, 0.1)
    assert set(prune_minimal((outer, inner))) == {outer, inner}


def test_prune_matches_containment_oracle():
    rng = np.random.default_rng(11)
    entries = []
    for _ in range(40):
        u = rng.uniform(0.3, 0.7)
        h = rng.uniform(0.05, 0.25)
        pair = (0, int(rng.integers(1, 3)))
        entries.append(rejection(pair[0], pair[1], u, h))
    kept = prune_minimal(tuple(entries))
    oracle_entries = [((e.i, e.j), e.u - e.h, e.u + e.h) for e in entries]
    oracle_kept = oracles.naive_minimal_intervals(oracle_entries)
    assert len(kept) == len(oracle_kept)
    kept_keys = {((e.i, e.j), round(e.u - e.h, 12), round(e.u + e.h, 12)) for e in kept}
    oracle_keys = {(p, round(lo, 12), round(hi, 12)) for p, lo, hi in oracle_kept}
    assert kept_keys == oracle_keys


def lattice_rejections(rng, n_pairs, per_pair, T=40):
    """Intervals [u-h, u+h] with u, h on the 1/T lattice, shuffled across
    pairs: at this density nested, touching and disjoint intervals all occur.
    Every pair also gets an equal copy (a distinct object) of one interval,
    one interval touching it and one nested in it."""
    all_pairs = unit_pairs(21)  # 210 pairs
    entries = []
    for k in rng.choice(len(all_pairs), size=n_pairs, replace=False):
        i, j = all_pairs[k]
        t = rng.integers(4, T - 4, size=per_pair)
        s = rng.integers(1, 4, size=per_pair)
        entries += [rejection(i, j, a / T, b / T) for a, b in zip(t.tolist(), s.tolist())]
        u, h = entries[-1].u, entries[-1].h
        entries += [
            rejection(i, j, u, h),
            rejection(i, j, u + 2 * h, h),
            rejection(i, j, u, h / 2),
        ]
    rng.shuffle(entries)
    return entries


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_prune_equals_all_pairs_scan(monkeypatch, block_rows):
    entries = lattice_rejections(np.random.default_rng(13), n_pairs=4, per_pair=30)
    if block_rows is not None:
        # each pair has 33 intervals: its comparisons split into row blocks
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_rows * 8 * 33)
    kept = prune_minimal(entries)
    ref = oracles.naive_prune_minimal(entries)
    assert len(ref) < len(entries)
    assert len(kept) == len(ref) and all(a is b for a, b in zip(kept, ref))
    gen = prune_minimal(r for r in entries)
    assert len(gen) == len(ref) and all(a is b for a, b in zip(gen, ref))


def test_prune_empty_input():
    assert prune_minimal(()) == () and prune_minimal([]) == ()
    assert prune_minimal(r for r in ()) == ()


def test_prune_scales_with_each_pairs_rejections():
    # 200 pairs x 60 intervals: an all-rejections scan compares 1.4e8 pairs
    rng = np.random.default_rng(14)
    entries = lattice_rejections(rng, n_pairs=200, per_pair=57, T=500)
    assert len(entries) == 12_000
    start = time.perf_counter()
    kept = prune_minimal(entries)
    assert time.perf_counter() - start < 5.0
    assert 200 <= len(kept) < len(entries)


def test_fallback_on_singular_gridpoint():
    # second covariate vanishes inside the first window: singular there only
    T = 32
    x2 = np.zeros(T)
    x2[T // 2 :] = np.linspace(1, 2, T - T // 2)
    x = np.column_stack([np.ones(T), x2])
    rng = np.random.default_rng(12)
    panel = Panel(y=rng.standard_normal((2, T)), x=x, unit_labels=("a", "b"))
    grid = Grid(points=((0.25, 0.25), (0.75, 0.25)), T=T, h_min=0.25, h_max=0.25)
    table = compute_stat_table(panel, KERN, grid, eye_normalizers(2, 2))
    assert table.fallback_points == (0,)
    # fallback value equals the direct kernel-sum oracle
    ref = oracles.naive_kernel_sum_stat(
        panel.x, panel.y, "epanechnikov", 0.25, 0.25, 0, 1, np.eye(2)
    )
    assert table.s_hat[0, 0] == pytest.approx(ref, abs=1e-12)


def table_case(N, D, seed):
    panel, _ = generate_panel(homogeneous_spec(N, 120, D, seed=seed))
    grid = build_grid_application(120)
    rng = np.random.default_rng(seed)
    normalizers = rng.standard_normal((N * (N - 1) // 2, D, D))
    return panel, grid, normalizers


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_stat_table_matches_einsum_contraction(D):
    panel, grid, normalizers = table_case(6, D, seed=D)
    got = compute_stat_table(panel, KERN, grid, normalizers).s_hat
    _, a = batched_designs(panel, KERN, grid.u, grid.h)
    ref = oracles.einsum_stat_table(a, normalizers, panel.n_units)
    if D <= 2:
        # two terms per row: the same sums in the same order
        np.testing.assert_array_equal(got, ref)
    else:
        # einsum adds three or more terms in another order
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("broadcast", [False, True], ids=["random", "broadcast"])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_pair_stats_bit_equal_to_scalar_oracle(D, broadcast):
    rng = np.random.default_rng(10 * D + broadcast)
    N = 5
    P = N * (N - 1) // 2
    if broadcast:
        normalizers = np.broadcast_to(rng.standard_normal((D, D)), (P, D, D))
    else:
        normalizers = rng.standard_normal((P, D, D))
    # one gridpoint, an odd count and magnitudes from 1e-3 to 1e3 per sum
    for G in (1, 2, 37):
        a = rng.standard_normal((N, D, G)) * 10.0 ** rng.integers(-3, 4, (N, D, 1))
        blocks = multiscale._pair_blocks(a, normalizers, *multiscale._pair_index(N))
        np.testing.assert_array_equal(
            np.concatenate([s for _, s in blocks]),
            oracles.naive_pair_stats(a, normalizers),
        )


@pytest.mark.parametrize("pairs_per_block", [1, 4])
def test_stat_table_blocks_bit_equal_to_one_block(monkeypatch, pairs_per_block):
    panel, grid, normalizers = table_case(6, 3, seed=9)  # 15 pairs
    one_block = compute_stat_table(panel, KERN, grid, normalizers).s_hat
    # _pair_blocks budgets 2 * D * G floats a pair
    pair_bytes = 16 * panel.n_covariates * grid.n_points
    assert len(normalizers) * pair_bytes <= kernels._BLOCK_BYTES
    # 4 pairs per block leaves a short last block of 3
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", pairs_per_block * pair_bytes)
    assert next(kernels._row_blocks(15, pair_bytes // 8)) == slice(0, pairs_per_block)
    blocked = compute_stat_table(panel, KERN, grid, normalizers).s_hat
    np.testing.assert_array_equal(blocked, one_block)


def test_stat_table_peak_below_two_tables():
    # the table keeps compute_stat_table's own read-only s_hat, uncopied
    import tracemalloc

    N, T, D = 100, 500, 3
    panel, _ = generate_panel(homogeneous_spec(N, T, D, seed=1))
    grid = build_grid_application(T)
    normalizers = np.broadcast_to(np.eye(D), (N * (N - 1) // 2, D, D))
    tracemalloc.start()
    try:
        table = compute_stat_table(panel, KERN, grid, normalizers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not table.s_hat.flags.writeable
    assert peak < 2 * table.s_hat.nbytes
    assert table.lam is grid.lam


def test_table_unchanged_by_later_writes_to_its_input():
    grid = micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    s = np.full((1, grid.n_points), 2.0)
    table = LocalStatTable(grid=grid, pairs=((0, 1),), s_hat=s, lam=lam)
    s[0, 0] = 9.0
    lam[0] = 9.0
    assert np.all(table.s_hat == 2.0)
    assert table.lam[0] == lambda_correction(grid.h[0])
    # a read-only view may share memory with a writable base: copied as well
    base = np.full((1, grid.n_points), 2.0)
    view = base[:]
    view.setflags(write=False)
    table = LocalStatTable(grid=grid, pairs=((0, 1),), s_hat=view, lam=lam)
    base[0, 0] = 9.0
    assert np.all(table.s_hat == 2.0)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "must be finite"),
        (np.inf, "must be finite"),
        (-0.5, "cannot be negative"),
    ],
)
def test_table_rejects_non_finite_or_negative_statistics(bad, message):
    grid = micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    s = np.full((1, grid.n_points), 2.0)
    s[0, 1] = bad
    with pytest.raises(ValueError, match=message):
        LocalStatTable(grid=grid, pairs=((0, 1),), s_hat=s, lam=lam)
