"""The Monte Carlo replications' stacked pass: each panel of a block gets the
pair maxima, and each experiment the outcome, that the one-panel path gives
it alone, under 1 and 2 BLAS threads; a run's replication phase stays within
its memory budget; and a disagreement with the one-panel path stops the run."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import panelscale
from panelscale import (
    GroundTruth,
    build_grid_custom,
    dissimilarity_matrix,
    generate_panel,
    hac_cluster,
    homogeneous_spec,
    planted_bump_spec,
    run_cluster_experiment,
    run_fwer_experiment,
    run_power_experiment,
    run_size_experiment,
    run_test,
    select_k,
    two_group_spec,
    unit_pairs,
)
from panelscale import kernels, simulate
from panelscale.multiscale import _stack_pair_max, build_normalizers, compute_stat_table

# Each configuration's panels go through _stack_pair_max as one stack and
# one at a time through the public path, with q the median of their psi:
# the pair maxima must agree bit for bit, and so must what each experiment
# reads off them (size: psi > q; power: the pairs with a rejection; fwer: a
# rejection under the true-null mask; cluster: the recovered partition).
# Prints a digest of every stack's maxima, for comparison across BLAS threads.
BLOCK_SCRIPT = """
import dataclasses
import hashlib
import numpy as np
from panelscale import (
    Grid, GroundTruth, HacConfig, Panel, SmoothingKernel, dissimilarity_matrix,
    hac_cluster, homogeneous_spec, planted_bump_spec, run_test, select_k, unit_pairs,
)
from panelscale.cluster import _dissimilarity
from panelscale.critvals import CriticalValue
from panelscale.grid import build_grid_application
from panelscale.multiscale import _stack_pair_max, build_normalizers, compute_stat_table
from panelscale.simulate import _panel_blocks, _unit_labels

def iid(spec):
    return dataclasses.replace(spec, covariate_model="iid_normal")

QS = HacConfig(cov_kernel="quadratic_spectral", bandwidth=10.0, pilot_bandwidth=0.5)
POOLED = HacConfig(pooled=True)
CONFIGS = [
    ("paper", homogeneous_spec(5, 300, 2, seed=1), None, HacConfig()),
    ("two-units", homogeneous_spec(2, 100, 1, seed=2), None, HacConfig()),
    ("pooled-small", homogeneous_spec(3, 100, 1, seed=3), None, POOLED),
    ("pooled-paper", homogeneous_spec(5, 300, 2, seed=4), None, POOLED),
    ("qs-chi10-pilot-half", homogeneous_spec(5, 300, 2, seed=5), None, QS),
    ("iid-covariates", iid(homogeneous_spec(4, 200, 3, seed=6)), None, HacConfig()),
    ("twenty-units", homogeneous_spec(20, 300, 2, seed=7), None, HacConfig()),
    ("fifty-units", homogeneous_spec(50, 500, 3, seed=8), None, HacConfig()),
    ("long-T", homogeneous_spec(5, 1000, 2, seed=9), None, HacConfig()),
    ("one-point-grid", homogeneous_spec(4, 200, 2, seed=10),
     Grid(points=((0.5, 0.25),), T=200, h_min=0.25, h_max=0.25), HacConfig()),
    ("planted-bump", planted_bump_spec(5, 300, 2, seed=11, center=0.5, width=0.2,
                                       height=0.6), None, HacConfig()),
]
kernel = SmoothingKernel()
for name, spec, grid, hac in CONFIGS:
    N, T = spec.n_units, spec.n_time
    grid = grid or build_grid_application(T)
    pairs = unit_pairs(N)
    pair_of = {pair: p for p, pair in enumerate(pairs)}
    point_of = {point: g for g, point in enumerate(grid.points)}
    mask = GroundTruth(curves=spec.curves).m0_mask(grid, pairs)
    seeds = [spec.seed * 100 + r for r in range(3)]
    ((n, stack),) = _panel_blocks(spec, seeds)
    x, y = stack(slice(0, n))
    panels = [Panel(y=y[b], x=x[b], unit_labels=_unit_labels(N)) for b in range(n)]
    tables = [compute_stat_table(p, kernel, grid, build_normalizers(p, kernel, hac))
              for p in panels]
    q = float(np.median([t.pair_max.max() for t in tables]))
    pair_max, hits = _stack_pair_max(x, y, kernel, grid, hac, mask, q)
    crit = CriticalValue(alpha=0.05, B=1, seed=0, q=q)
    for b, (panel, table) in enumerate(zip(panels, tables)):
        assert pair_max[b].tobytes() == table.pair_max.tobytes(), (name, b)
        assert hits[b] == ((table.s_hat - table.lam > q) & mask).any(), (name, b)
        result = run_test(panel, kernel, grid, hac, 0.05, crit)
        assert result.reject_global == (pair_max[b].max() > q), (name, b)
        named = {pair_of[r.i, r.j] for r in result.rejections}
        assert named == set(np.nonzero(pair_max[b] > q)[0].tolist()), (name, b)
        true_null = any(mask[pair_of[r.i, r.j], point_of[r.u, r.h]]
                        for r in result.rejections)
        assert true_null == hits[b], (name, b)
        d_one = dissimilarity_matrix(table)
        d_block = _dissimilarity(N, *np.triu_indices(N, 1), pair_max[b])
        assert (select_k(hac_cluster(d_one), d_one, q).membership
                == select_k(hac_cluster(d_block), d_block, q).membership), (name, b)
    print(name, hashlib.sha256(pair_max.tobytes()).hexdigest())
"""


def _env(threads: str) -> dict:
    package_root = str(Path(panelscale.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def test_stack_pair_max_bit_equal_to_one_panel_path_under_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", BLOCK_SCRIPT], env=_env(threads),
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 11
    assert outputs[0] == outputs[1]


def _one_panel_outcomes(experiment, spec, R, grid, kernel, hac, crit):
    """Each replication's outcome through run_test (or, for cluster, the
    table and the clustering) of its own panel, one panel at a time."""
    pairs = unit_pairs(spec.n_units)
    m0 = GroundTruth(curves=spec.curves).m0_mask(grid, pairs)
    hetero = {pairs[p] for p in np.nonzero(~m0.all(axis=1))[0]}
    true_nulls = {(*pairs[p], grid.points[g]) for p, g in zip(*np.nonzero(m0))}
    target = GroundTruth(spec.curves, spec.group_assignment).true_partition()
    outcomes = []
    for seed in simulate._replication_seeds(spec.seed, R):
        panel, _ = generate_panel(dataclasses.replace(spec, seed=seed))
        if experiment == "cluster":
            table = compute_stat_table(panel, kernel, grid,
                                       build_normalizers(panel, kernel, hac))
            d = dissimilarity_matrix(table)
            result = select_k(hac_cluster(d, "complete"), d, crit.q)
            outcomes.append(simulate._partition(result.membership) == target)
            continue
        result = run_test(panel, kernel, grid, hac, crit.alpha, crit)
        if experiment == "size":
            outcomes.append(result.reject_global)
        elif experiment == "power":
            named = any((r.i, r.j) in hetero for r in result.rejections)
            outcomes.append((result.reject_global, named))
        else:
            outcomes.append(any((r.i, r.j, (r.u, r.h)) in true_nulls
                                for r in result.rejections))
    return outcomes


EXPERIMENTS = {
    "size": lambda grid, **kw: run_size_experiment(
        homogeneous_spec(3, 100, 2, seed=41), alpha=0.1, grid=grid, **kw),
    "power": lambda grid, **kw: run_power_experiment(
        planted_bump_spec(3, 100, 2, seed=42, center=0.5, width=0.3, height=1.0),
        [0.3, 1.0], alpha=0.05, grid=grid, **kw),
    "fwer": lambda grid, **kw: run_fwer_experiment(
        simulate.mixed_heterogeneity_spec(T=100, D=2, seed=43, height=1.5),
        alpha=0.1, grid=grid, **kw),
    "cluster": lambda grid, **kw: run_cluster_experiment(
        two_group_spec(T=100, D=2, seed=44, height=1.5), alpha=0.1, grid=grid, **kw),
}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_experiment_outcomes_match_one_panel_path(monkeypatch, experiment, n_workers):
    # the generator's blocks, their sub-blocks and the worker threads must not
    # show in any outcome
    calls = []
    real = simulate._replicate

    def recording(spec, R, grid, kernel, hac, crit, *args, **kwargs):
        outcomes = real(spec, R, grid, kernel, hac, crit, *args, **kwargs)
        calls.append((spec, R, grid, kernel, hac, crit, outcomes))
        return outcomes

    def blocks(n_rows, n_cols):
        # generator blocks of 4 panels (9 = 4 + 4 + 1), sub-blocks of 3 or fewer
        step = 4 if n_rows == R else 3
        return (slice(start, start + step) for start in range(0, n_rows, step))

    R = 9
    monkeypatch.setattr(simulate, "_replicate", recording)
    monkeypatch.setattr(simulate, "_row_blocks", blocks)
    monkeypatch.setattr(simulate, "_replication_workers", lambda n_workers, *_: n_workers)
    report = EXPERIMENTS[experiment](build_grid_custom(100, 10, [0.22, 0.25]),
                                     B=120, R=R, n_workers=n_workers)
    assert len(calls) == (2 if experiment == "power" else 1)
    seen = set()
    for spec, R, grid, kernel, hac, crit, outcomes in calls:
        expected = _one_panel_outcomes(experiment, spec, R, grid, kernel, hac, crit)
        assert [tuple(map(bool, o)) if isinstance(o, tuple) else bool(o)
                for o in outcomes] == expected
        seen.update(map(str, expected))
    assert len(seen) > 1, (report, seen)  # the outcomes differ between panels


def test_size_replication_phase_within_its_block_budget(monkeypatch):
    # the phase holds the generator's block of normals (72 panels at
    # (5, 300, 2), within _BLOCK_BYTES) and one sub-block's stacked pass
    # (within _BLOCK_BYTES); one panel at a time it held 0.2 MiB
    peaks = []
    real = simulate._replicate

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            outcomes = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return outcomes

    spec = homogeneous_spec(5, 300, 2, seed=4)
    # the first run imports what the pass uses; the second is measured
    run_size_experiment(dataclasses.replace(spec, seed=3), alpha=0.05, B=100, R=2)
    monkeypatch.setattr(simulate, "_replicate", traced)
    run_size_experiment(spec, alpha=0.05, B=100, R=80)  # 72 + 8 panels
    assert peaks and peaks[0] < 2 * kernels._BLOCK_BYTES, peaks


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_cross_check_mismatch_raises(monkeypatch, experiment):
    # one ulp on the first panel's largest pair maximum, or its masked
    # exceedance flipped, is a disagreement with the one-panel path
    real = simulate._stack_pair_max
    first = []

    def corrupted(*args, **kwargs):
        pair_max, hits = real(*args, **kwargs)
        if not first:
            first.append(True)
            if hits is not None:
                hits[0] = not hits[0]
            else:
                p = np.argmax(pair_max[0])
                pair_max[0, p] = np.nextafter(pair_max[0, p], np.inf)
        return pair_max, hits

    monkeypatch.setattr(simulate, "_stack_pair_max", corrupted)
    with pytest.raises(ArithmeticError, match="one-panel path disagree"):
        EXPERIMENTS[experiment](build_grid_custom(100, 10, [0.22, 0.25]), B=120, R=3)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_cross_check_catches_one_ulp_in_pair_max(monkeypatch, experiment):
    # one ulp on the first panel's largest pair maximum, its hit kept, is a
    # disagreement with the one-panel path
    real = simulate._stack_pair_max
    first = []

    def corrupted(*args, **kwargs):
        pair_max, hits = real(*args, **kwargs)
        if not first:
            first.append(True)
            p = np.argmax(pair_max[0])
            pair_max[0, p] = np.nextafter(pair_max[0, p], np.inf)
        return pair_max, hits

    monkeypatch.setattr(simulate, "_stack_pair_max", corrupted)
    with pytest.raises(ArithmeticError, match="one-panel path disagree"):
        EXPERIMENTS[experiment](build_grid_custom(100, 10, [0.22, 0.25]), B=120, R=3)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_cross_check_catches_one_ulp_on_smallest_pair_max(monkeypatch, experiment):
    # one ulp down on the first panel's smallest pair maximum moves neither
    # psi_hat nor the rejected pairs, but every pair's maximum is checked
    real = simulate._stack_pair_max
    first = []

    def corrupted(*args, **kwargs):
        pair_max, hits = real(*args, **kwargs)
        if not first:
            first.append(True)
            p = np.argmin(pair_max[0])
            pair_max[0, p] = np.nextafter(pair_max[0, p], -np.inf)
        return pair_max, hits

    monkeypatch.setattr(simulate, "_stack_pair_max", corrupted)
    with pytest.raises(ArithmeticError, match="one-panel path disagree"):
        EXPERIMENTS[experiment](build_grid_custom(100, 10, [0.22, 0.25]), B=120, R=3)


def test_stack_pass_peak_below_half_a_panels_statistics():
    # each row block is reduced as it is made, so the pass never holds the
    # panel's (P, G) statistics (6.95 MiB at (50, 500, 3))
    N, T, D = 50, 500, 3
    hac, kernel = panelscale.HacConfig(), panelscale.SmoothingKernel()
    grid = panelscale.build_grid_application(T)
    # a run holds its grid and pilot kernel weights; build them outside the trace
    us, hs, _ = kernels._pilot_points(T, hac.pilot_bandwidth)
    held = (kernels._shared_weights(kernel, T, grid.u, grid.h),
            kernels._shared_weights(kernel, T, us, hs))
    ((_, stack),) = simulate._panel_blocks(homogeneous_spec(N, T, D, seed=1), [1])
    x, y = stack(slice(0, 1))
    mask = np.ones((N * (N - 1) // 2, grid.n_points), dtype=bool)
    _stack_pair_max(x, y, kernel, grid, hac, mask, 3.0)  # caches the pair index
    tracemalloc.start()
    try:
        _stack_pair_max(x, y, kernel, grid, hac, mask, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s_bytes = mask.size * 8
    assert s_bytes > 6 << 20
    assert peak < s_bytes / 2, (peak, s_bytes, len(held))


@pytest.mark.parametrize("one_point", [False, True], ids=["grid", "one-point"])
def test_row_blocks_straddling_panels_keep_pair_max_and_hits(monkeypatch, one_point):
    # blocks of 3 pairs over 4 panels of 10 pairs each: most blocks hold the
    # end of one panel and the start of the next
    N, T, D, R = 5, 100, 2, 4
    grid = (panelscale.Grid(points=((0.5, 0.25),), T=T, h_min=0.25, h_max=0.25)
            if one_point else build_grid_custom(T, 10, [0.22, 0.25]))
    hac, kernel = panelscale.HacConfig(), panelscale.SmoothingKernel()
    spec = homogeneous_spec(N, T, D, seed=12)
    ((n, stack),) = simulate._panel_blocks(spec, [12 * 100 + r for r in range(R)])
    x, y = stack(slice(0, n))
    panels = [panelscale.Panel(y=y[b], x=x[b], unit_labels=simulate._unit_labels(N))
              for b in range(R)]
    tables = [compute_stat_table(p, kernel, grid, build_normalizers(p, kernel, hac))
              for p in panels]
    # a mask on the last pair of each panel, and q the median of that pair's
    # maxima: some panels hit and some do not
    P = N * (N - 1) // 2
    mask = np.zeros((P, grid.n_points), dtype=bool)
    mask[P - 1] = True
    q = float(np.median([t.pair_max[P - 1] for t in tables]))
    width = max(2, grid.n_points)  # _pair_blocks pads one gridpoint to two
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 3 * 8 * 2 * D * width)
    assert next(kernels._row_blocks(R * P, 2 * D * width)) == slice(0, 3)
    pair_max, hits = _stack_pair_max(x, y, kernel, grid, hac, mask, q)
    for b, table in enumerate(tables):
        assert pair_max[b].tobytes() == table.pair_max.tobytes(), b
        assert hits[b] == ((table.s_hat - table.lam > q) & mask).any(), b
    assert 0 < hits.sum() < R, hits
    # without a mask no panel hits
    assert not _stack_pair_max(x, y, kernel, grid, hac)[1].any()
