"""Per-layer metrics from one traced invocation, and the independent spot
check of the traced run's statistics."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# span names whose summed self time makes each `_s` metric
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "panel.load_s": ("panel.panel_from_csv", "panel.demean_units"),
    "grid.build_s": ("grid.build_grid_application",),
    "critvals.simulate_s": ("critvals.simulate_phi",),
    "critvals.cache_load_s": ("critvals.load_draws",),
    "critvals.cache_save_s": ("critvals.save_draws",),
    "lrv.residuals_s": ("lrv.residual_series",),
    "lrv.hac_s": ("lrv.hac_estimate",),
    "lrv.normalizer_s": ("lrv.pair_normalizer",),
    "estimate.designs_s": ("estimate.batched_designs",),
    "estimate.solve_mask_s": ("estimate.solve_mask",),
    "multiscale.normalizers_s": ("multiscale.build_normalizers", "lrv.long_run_covariances"),
    "multiscale.stat_table_s": ("multiscale.compute_stat_table",),
    "multiscale.run_test_s": ("multiscale.run_test",),
    "multiscale.aggregate_s": ("multiscale.aggregate",),
    "multiscale.prune_s": ("multiscale.prune_minimal",),
    "cluster.dissimilarity_s": ("cluster.dissimilarity_matrix",),
    "cluster.linkage_s": ("cluster.hac_cluster",),
    "cluster.select_k_s": ("cluster.select_k", "cluster.partition_at"),
    "cluster.group_diff_s": ("cluster.group_difference_intervals",),
    "simulate.generate_s": ("simulate.generate_panel",),
}

# every per-layer metric with its unit, in print order
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "panel.load_s": "s",
    "grid.build_s": "s",
    "grid.points": "count",
    "critvals.simulate_s": "s",
    "critvals.draws": "count",
    "critvals.draw_ms": "ms",
    "critvals.ops_per_draw": "count",
    "critvals.gflop_s": "Gop/s",
    "critvals.cache_load_s": "s",
    "critvals.cache_save_s": "s",
    "critvals.cache_hit_ratio": "ratio",
    "lrv.residuals_s": "s",
    "lrv.residual_calls": "count",
    "lrv.hac_s": "s",
    "lrv.normalizer_s": "s",
    "lrv.pairs": "count",
    "lrv.pilot_useful_ratio": "ratio",
    "estimate.designs_s": "s",
    "estimate.designs_calls": "count",
    "estimate.design_points": "count",
    "estimate.solve_mask_s": "s",
    "multiscale.normalizers_s": "s",
    "multiscale.stat_table_s": "s",
    "multiscale.run_test_s": "s",
    "multiscale.aggregate_s": "s",
    "multiscale.prune_s": "s",
    "multiscale.stat_table_bytes": "bytes",
    "multiscale.rejections": "count",
    "multiscale.fallback_points": "count",
    "multiscale.spotcheck_max_rel_err": "ratio",
    "cluster.dissimilarity_s": "s",
    "cluster.linkage_s": "s",
    "cluster.select_k_s": "s",
    "cluster.group_diff_s": "s",
    "cluster.k_hat": "count",
    "simulate.generate_s": "s",
    "simulate.replications": "count",
    "simulate.replication_ms": "ms",
    "simulate.rejection_rate": "ratio",
    "parallel.busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# the library's tolerance for the two forms of the local statistic
IDENTITY_TOL = 1e-8
SPOTCHECK_CELLS = 16


def _simulate_phi(args, kwargs, result):
    T, N, D, grid = args[:4]
    B = args[5]
    P = N * (N - 1) // 2
    return {"draws": B, "ops": B * (2 * grid.n_points * T * N * D + grid.n_points * P * D)}


def _stat_table(args, kwargs, table):
    G, P, D = table.grid.n_points, len(table.pairs), args[0].n_covariates
    return {
        "stat_table_bytes": P * G * 8 + G * P * D * 8,
        "fallback_points": len(table.fallback_points),
    }


HOOKS = {
    "grid.build_grid_application": lambda a, k, grid: {"grid_points": grid.n_points},
    "critvals.simulate_phi": _simulate_phi,
    "critvals.load_draws": lambda a, k, draws: {
        "cache_lookups": 1, "cache_hits": int(draws is not None)
    },
    "lrv.residual_series": lambda a, k, r: {
        "pilot_columns_used": 1, "pilot_columns_computed": a[0].n_units
    },
    "estimate.batched_designs": lambda a, k, r: {"design_points": len(a[2])},
    "multiscale.compute_stat_table": _stat_table,
    "multiscale.run_test": lambda a, k, result: {"rejections": len(result.rejections)},
    "cluster.select_k": lambda a, k, result: {"k_hat": result.k_hat},
}
KEEP = (
    "multiscale.compute_stat_table",
    "multiscale.run_test",
    "cluster.dissimilarity_matrix",
    "critvals.gaussian_critical_value",
    "simulate.run_from_config",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  import_s: float, output_bytes: int, spot_err: float) -> dict:
    """Every PER_LAYER metric from one traced invocation."""
    self_t = tracer.self_times()
    c = tracer.counters
    n = {name: sum(1 for s in tracer.spans if s.name == name)
         for name in ("lrv.residual_series", "lrv.pair_normalizer",
                      "estimate.batched_designs", "simulate.replication")}
    out = {name: float(sum(self_t[s] for s in spans)) for name, spans in SELF_TIME.items()}
    simulate_s = out["critvals.simulate_s"]
    reports = tracer.kept.get("simulate.run_from_config", [])
    out.update({
        "cli.import_s": import_s,
        "cli.output_bytes": output_bytes,
        "grid.points": c["grid_points"],
        "critvals.draws": c["draws"],
        "critvals.draw_ms": 1e3 * _ratio(simulate_s, c["draws"]),
        "critvals.ops_per_draw": _ratio(c["ops"], c["draws"]),
        "critvals.gflop_s": 1e-9 * _ratio(c["ops"], simulate_s),
        "critvals.cache_hit_ratio": _ratio(c["cache_hits"], c["cache_lookups"]),
        "lrv.residual_calls": n["lrv.residual_series"],
        "lrv.pairs": n["lrv.pair_normalizer"],
        "lrv.pilot_useful_ratio": _ratio(c["pilot_columns_used"],
                                         c["pilot_columns_computed"]),
        "estimate.designs_calls": n["estimate.batched_designs"],
        "estimate.design_points": c["design_points"],
        "multiscale.stat_table_bytes": c["stat_table_bytes"],
        "multiscale.rejections": c["rejections"],
        "multiscale.fallback_points": c["fallback_points"],
        "multiscale.spotcheck_max_rel_err": spot_err,
        "cluster.k_hat": c["k_hat"],
        "simulate.replications": n["simulate.replication"],
        "simulate.replication_ms": 1e3 * _ratio(tracer.total("simulate.replication"),
                                                n["simulate.replication"]),
        "simulate.rejection_rate": reports[0][3].rejection_rate if reports else 0.0,
        "parallel.busy_frac": tracer.busy_fraction("parallel.ordered_map",
                                                   "simulate.replication"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# spot check


def _rel(a: float, b: float) -> float:
    # the scale the library applies to IDENTITY_TOL
    return abs(a - b) / max(1.0, abs(b))


def order_statistic(draws: np.ndarray, alpha: float) -> float:
    """The ceil((1 - alpha) B)-th smallest draw, with exact rational rank."""
    rank = math.ceil((1 - Fraction(repr(alpha))) * len(draws))
    return float(np.sort(draws)[max(1, rank) - 1])


def spot_check(tracer, seed: int, alpha: float, q_alpha: float,
               cache_draws: np.ndarray | None) -> list[float]:
    """Relative errors of the independent recomputations.

    - a seeded sample of stat-table cells through `local_stat(cross_check=True)`;
    - psi_hat (or the largest dissimilarity) as max(S - lambda);
    - q_alpha as an order statistic of the simulated draws.
    A disagreement of the two statistic forms raises ArithmeticError.
    """
    from panelscale.multiscale import local_stat

    (span, args, kwargs, table), = tracer.kept["multiscale.compute_stat_table"][:1]
    panel, kernel, grid, normalizers = args
    rng = np.random.default_rng(seed)
    P, G = table.s_hat.shape
    errors = []
    for p, g in zip(rng.integers(0, P, SPOTCHECK_CELLS), rng.integers(0, G, SPOTCHECK_CELLS)):
        i, j = table.pairs[p]
        s = local_stat(panel, kernel, normalizers[p], float(grid.u[g]), float(grid.h[g]),
                       i, j, cross_check=True)
        errors.append(_rel(s, float(table.s_hat[p, g])))

    psi = float((table.s_hat - table.lam[None, :]).max())
    parents = [r for r in tracer.kept.get("multiscale.run_test", ()) if r[0].id == span.parent]
    if parents:
        errors.append(_rel(psi, parents[0][3].psi_hat))
    else:  # cluster: the largest dissimilarity is the same maximum
        (_, _, _, d), = tracer.kept["cluster.dissimilarity_matrix"]
        errors.append(_rel(psi, float(d.d.max())))

    if cache_draws is None:
        (_, _, _, crit), = tracer.kept["critvals.gaussian_critical_value"]
        cache_draws = crit.phi_draws
    errors.append(_rel(order_statistic(cache_draws, alpha), q_alpha))
    return errors
