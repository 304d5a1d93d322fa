"""Command-line front end: test, cluster, simulate, preprocess.

Exit codes: 0 success (regardless of the test outcome), 2 input problems,
3 numerical degeneracy. The defaults of --alpha, --B, --seed, --grid,
--kernel, --hac-kernel, --hac-bandwidth, --pilot-h, --threads, --layout and
--out can be overridden, in every subcommand that has the flag, by an
environment variable named after it: PANELSCALE_ALPHA=0.01, PANELSCALE_OUT,
PANELSCALE_HAC_KERNEL and so on. Other flags read no environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import _deferred
from .cluster import (
    dissimilarity_matrix,
    group_difference_intervals,
    hac_cluster,
    select_k,
)
from .critvals import CriticalValue, gaussian_critical_value
from .errors import (
    DegenerateCovarianceError,
    PanelFormatError,
    PanelScaleError,
    SingularDesignError,
)
from .estimate import batched_beta, batched_designs, solve_mask
from .grid import Grid, build_grid_application, build_grid_custom
from .kernels import COV_KERNEL_KINDS, KERNEL_KINDS, HacConfig, SmoothingKernel
from .multiscale import TestResult, build_normalizers, compute_stat_table, run_test
from .panel import Panel, demean_units, deseasonalize, panel_from_csv, panel_to_csv

# names bound by _bind_deferred in the command that uses them, so that test
# and cluster load no Monte Carlo harness
__getattr__, _bind_deferred = _deferred(
    globals(), ("RESULT_SCHEMA_VERSION", "load_experiment_config", "run_from_config")
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_INPUT_ERRORS = (ValueError, OSError)
_NUMERIC_ERRORS = (SingularDesignError, DegenerateCovarianceError, ArithmeticError)


def _env_default(name: str, fallback):
    # argparse runs a string default through the flag's type: a bad value exits 2
    return os.environ.get(f"PANELSCALE_{name}", fallback)


def positive_int(value: str) -> int:
    """argparse type for counts that must be at least 1."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_choice(parser, flag: str, choices, env: str, fallback: str, **kwargs) -> None:
    """A choice flag whose default PANELSCALE_<env> may override.

    argparse checks `choices` only on command-line values, but it runs a
    string default through the flag's type; the type repeats the check, so
    a bad environment value exits 2 with argparse's message too.
    """

    def check(value: str) -> str:
        if value not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {listed})"
            )
        return value

    parser.add_argument(
        flag,
        type=check,
        choices=choices,
        default=_env_default(env, fallback),
        **kwargs,
    )


def _add_layout(parser: argparse.ArgumentParser) -> None:
    _add_choice(
        parser, "--layout", ("long", "wide"), "LAYOUT", "long",
        help="CSV layout (default: long)",
    )


def _add_common_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="panel CSV file")
    _add_layout(parser)
    parser.add_argument(
        "--out",
        default=_env_default("OUT", "."),
        help="output directory (created if missing)",
    )


def _add_test_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=_env_default("ALPHA", 0.05))
    parser.add_argument("--B", type=int, default=_env_default("B", 5000))
    parser.add_argument("--seed", type=int, default=_env_default("SEED", 0))
    _add_choice(
        parser, "--grid", ("app", "custom"), "GRID", "app",
        help="grid construction: the application rule or a custom u-step/h set",
    )
    parser.add_argument("--u-step", type=int, default=None, help="custom grid u step")
    parser.add_argument(
        "--h",
        default=None,
        help="comma-separated custom bandwidths, multiples of 1/T",
    )
    _add_choice(parser, "--kernel", KERNEL_KINDS, "KERNEL", "epanechnikov")
    _add_choice(
        parser, "--hac-kernel", COV_KERNEL_KINDS, "HAC_KERNEL", HacConfig.cov_kernel
    )
    parser.add_argument(
        "--hac-bandwidth",
        type=float,
        default=_env_default("HAC_BANDWIDTH", HacConfig.bandwidth),
        help="HAC bandwidth chi (default: floor(T^(1/3)))",
    )
    parser.add_argument(
        "--pilot-h",
        type=float,
        default=_env_default("PILOT_H", HacConfig.pilot_bandwidth),
    )
    parser.add_argument("--pooled-lrv", action="store_true")
    parser.add_argument(
        "--no-demean",
        action="store_true",
        help="skip per-unit demeaning (fixed effects are removed by default)",
    )
    parser.add_argument("--threads", type=positive_int, default=_env_default("THREADS", 1))
    parser.add_argument(
        "--crit-cache",
        default=None,
        help="binary cache file for the simulated Gaussian draws",
    )


def _build_grid(args, T: int) -> Grid:
    if args.grid == "app":
        return build_grid_application(T)
    if args.u_step is None or args.h is None:
        raise PanelFormatError("--grid custom requires --u-step and --h")
    try:
        h_values = [float(tok) for tok in args.h.split(",") if tok.strip()]
    except ValueError:
        h_values = []
    if not h_values:
        raise PanelFormatError(f"--h {args.h!r} must list numbers")
    return build_grid_custom(T, args.u_step, h_values)


def _prepare(
    args, k: int | None = None
) -> tuple[Panel, Grid, SmoothingKernel, HacConfig, CriticalValue]:
    """test's and cluster's start: load (and demean) the panel, check --k and
    build the grid, kernel and HAC settings, then get the critical value."""
    panel = panel_from_csv(args.input, args.layout)
    if not args.no_demean:
        panel = demean_units(panel)
    panel.require_pairs()
    if k is not None and not 1 <= k <= panel.n_units:
        raise PanelFormatError(f"--k must lie in [1, {panel.n_units}], got {k}")
    grid = _build_grid(args, panel.n_time)
    kernel = SmoothingKernel(args.kernel)
    hac = HacConfig(
        cov_kernel=args.hac_kernel,
        bandwidth=args.hac_bandwidth,
        pilot_bandwidth=args.pilot_h,
        pooled=args.pooled_lrv,
    )
    crit = gaussian_critical_value(
        panel.n_time,
        panel.n_units,
        panel.n_covariates,
        grid,
        kernel,
        args.B,
        args.seed,
        args.alpha,
        n_workers=args.threads,
        cache_path=args.crit_cache,
    )
    return panel, grid, kernel, hac, crit


def _result_payload(result: TestResult, panel: Panel, grid: Grid, args) -> dict:
    _bind_deferred("RESULT_SCHEMA_VERSION")

    def entry(r):
        return {
            "i": r.i,
            "j": r.j,
            "unit_i": panel.unit_labels[r.i],
            "unit_j": panel.unit_labels[r.j],
            "u": r.u,
            "h": r.h,
            "stat": r.stat,
            "exceedance": r.exceedance,
        }

    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "alpha": result.alpha,
        "B": args.B,
        "seed": args.seed,
        "q_alpha": result.q_alpha,
        "psi_hat": result.psi_hat,
        "reject_global": result.reject_global,
        "rejections": [entry(r) for r in result.rejections],
        "fallback_gridpoints": list(result.fallback_points),
        "config": {
            "n_units": panel.n_units,
            "n_time": panel.n_time,
            "n_covariates": panel.n_covariates,
            "kernel": args.kernel,
            "hac_kernel": args.hac_kernel,
            "hac_bandwidth": args.hac_bandwidth,
            "pilot_h": args.pilot_h,
            "pooled_lrv": bool(args.pooled_lrv),
            "demeaned": not args.no_demean,
            "grid": {
                "T": grid.T,
                "h_min": grid.h_min,
                "h_max": grid.h_max,
                "points": [[u, h] for u, h in grid.points],
            },
        },
    }
    if result.minimal_rejections is not None:
        payload["minimal_rejections"] = [entry(r) for r in result.minimal_rejections]
    return payload


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _curve_files(panel: Panel, grid: Grid, kernel: SmoothingKernel) -> list:
    """(file name, header, rows) of each unit's beta estimates over the grid,
    for external plotting; the rows are formatted only as a file is written."""
    M, a = batched_designs(panel, kernel, grid.u, grid.h)
    beta = batched_beta(M, a, solve_mask(M))
    header = ["u", "h"] + [f"beta_{d + 1}" for d in range(panel.n_covariates)]

    def rows(i: int):
        for g, (u, h) in enumerate(grid.points):
            yield [repr(u), repr(h)] + [repr(float(v)) for v in beta[g, i]]

    files = []
    for i, label in enumerate(panel.unit_labels):
        name = f"curves_{label}.csv"
        if Path(name).name != name or "\0" in name:
            raise PanelFormatError(f"unit label {label!r} cannot name a curves file")
        files.append((name, header, rows(i)))
    return files


def cmd_test(args) -> int:
    panel, grid, kernel, hac, crit = _prepare(args)
    result = run_test(panel, kernel, grid, hac, args.alpha, crit, keep_minimal=True)
    curves = _curve_files(panel, grid, kernel) if args.emit_plot_data else []
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "result.json", _result_payload(result, panel, grid, args))
    _write_csv(
        out / "rejections.csv",
        ["i", "j", "u", "h", "stat", "exceedance"],
        (
            [r.i, r.j, repr(r.u), repr(r.h), repr(r.stat), repr(r.exceedance)]
            for r in result.rejections
        ),
    )
    for name, header, rows in curves:
        _write_csv(out / name, header, rows)
    verdict = "rejected" if result.reject_global else "not rejected"
    print(
        f"global homogeneity {verdict}: psi_hat={result.psi_hat:.6g} vs "
        f"q({args.alpha})={result.q_alpha:.6g}; "
        f"{len(result.rejections)} local rejections"
    )
    return EXIT_OK


def cmd_cluster(args) -> int:
    panel, grid, kernel, hac, crit = _prepare(args, args.k)
    normalizers = build_normalizers(panel, kernel, hac)
    table = compute_stat_table(panel, kernel, grid, normalizers)
    d = dissimilarity_matrix(table)
    dendro = hac_cluster(d, args.linkage)
    result = select_k(dendro, d, crit.q, k_override=args.k)
    report = group_difference_intervals(result, table, crit.q)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "membership.csv",
        ["unit", "label"],
        zip(panel.unit_labels, result.membership),
    )
    _write_json(
        out / "dendrogram.json",
        {
            "k_hat": result.k_hat,
            "q_alpha": result.q_alpha,
            "merges": [
                {"left": list(m.left), "right": list(m.right), "height": m.height}
                for m in result.dendrogram
            ],
        },
    )
    _write_csv(
        out / "group_differences.csv",
        ["group_a", "group_b", "u", "h", "interval_lo", "interval_hi"],
        (
            [ka, kb, repr(u), repr(h), repr(lo), repr(hi)]
            for (ka, kb), intervals in report.intervals.items()
            for u, h, lo, hi in intervals
        ),
    )
    print(f"k_hat={result.k_hat}; membership written for {panel.n_units} units")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _bind_deferred("load_experiment_config", "run_from_config")
    cfg = load_experiment_config(args.config)
    report = run_from_config(cfg, n_workers=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report.to_dict())
    _write_csv(out / "report.csv", *report.csv_table())
    print(f"{report.experiment} experiment done in {report.runtime_seconds:.1f}s")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    if args.lead < 0:
        raise PanelFormatError(f"--lead {args.lead} must be nonnegative")
    panel = panel_from_csv(args.input, args.layout)
    y = panel.y
    x = panel.x
    if args.deseason_lag is not None:
        rows = [
            deseasonalize(y[i], args.deseason_lag, args.trend_degree)
            for i in range(panel.n_units)
        ]
        y = np.vstack(rows)
        x = x[args.deseason_lag :]
    if args.lead > 0:
        if args.lead >= y.shape[1]:
            raise PanelFormatError(
                f"--lead {args.lead} leaves no observations (T={y.shape[1]})"
            )
        y = y[:, args.lead :]
        x = x[: x.shape[0] - args.lead]
    panel = Panel(y=y, x=x, unit_labels=panel.unit_labels)
    if args.demean:
        panel = demean_units(panel)
    panel_to_csv(panel, args.out_file, args.layout)
    print(
        f"wrote {panel.n_units} units x {panel.n_time} periods to {args.out_file}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelscale",
        description=(
            "Multiscale heterogeneity test and clustering for time-varying "
            "panel regression coefficients"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the multiscale homogeneity test")
    _add_common_io(p_test)
    _add_test_options(p_test)
    p_test.add_argument(
        "--emit-plot-data",
        action="store_true",
        help="write per-unit coefficient curves over the grid as CSV",
    )
    p_test.set_defaults(func=cmd_test)

    p_cluster = sub.add_parser("cluster", help="cluster units into groups")
    _add_common_io(p_cluster)
    _add_test_options(p_cluster)
    p_cluster.add_argument("--k", type=int, default=None, help="override group count")
    p_cluster.add_argument(
        "--linkage", choices=("complete", "single", "average"), default="complete"
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True, help="key = value experiment file")
    p_sim.add_argument("--out", default=_env_default("OUT", "."), help="output directory")
    p_sim.add_argument("--threads", type=positive_int, default=_env_default("THREADS", 1))
    p_sim.set_defaults(func=cmd_simulate)

    p_prep = sub.add_parser("preprocess", help="deseasonalize/demean/lead-shift")
    p_prep.add_argument("--input", required=True)
    _add_layout(p_prep)
    p_prep.add_argument("--out-file", required=True, help="processed CSV path")
    p_prep.add_argument(
        "--deseason-lag",
        type=int,
        default=None,
        help="regress each series on this lag plus a polynomial trend",
    )
    p_prep.add_argument("--trend-degree", type=int, default=2)
    p_prep.add_argument("--demean", action="store_true")
    p_prep.add_argument(
        "--lead",
        type=int,
        default=0,
        help="shift responses forward: pair y_{t+lead} with x_t",
    )
    p_prep.set_defaults(func=cmd_preprocess)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"panelscale: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PanelScaleError as exc:
        print(f"panelscale: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"panelscale: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
