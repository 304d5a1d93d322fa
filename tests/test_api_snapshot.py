"""Snapshot of the public surface: the names in panelscale.__all__ and the
option strings of every subcommand. A change that keeps the API keeps both."""

import argparse

import panelscale
from panelscale.cli import build_parser

ALL_NAMES = [
    "Bump", "ClusterResult", "CoefficientCurve", "Constant", "CriticalValue",
    "DegenerateCovarianceError", "DgpSpec", "Dissimilarity", "ExperimentReport",
    "Grid", "GridError", "GroundTruth", "GroupDifferenceReport", "HacConfig",
    "Linear", "LocalDesign", "LocalStatTable", "LongRunCov", "Merge", "Panel",
    "PanelFormatError", "PanelScaleError", "QuantileError", "Rejection", "Sine",
    "SingularDesignError", "SmoothingKernel", "TestResult", "aggregate",
    "beta_hat", "build_grid_application", "build_grid_custom",
    "build_normalizers", "cluster", "coefficient_curve", "compute_stat_table",
    "critical_value", "critvals", "demean_units", "deseasonalize",
    "dissimilarity_matrix", "errors", "estimate", "gaussian_critical_value",
    "generate_panel", "grid", "group_difference_intervals", "hac_cluster",
    "hac_estimate", "homogeneous_spec", "kernel_eval", "kernel_weights",
    "kernels", "lambda_correction", "local_design", "local_stat",
    "long_run_covariances", "lrv", "mixed_heterogeneity_spec", "multiscale",
    "pair_normalizer", "panel", "panel_from_csv", "panel_to_csv",
    "partition_at", "planted_bump_spec", "prune_minimal", "residual_series",
    "run_cluster_experiment", "run_fwer_experiment", "run_power_experiment",
    "run_size_experiment", "run_test", "select_k", "separation_height",
    "simulate", "simulate_phi", "two_group_spec", "unit_pairs",
]

_TEST_OPTIONS = [
    "-h", "--help", "--input", "--layout", "--out", "--alpha", "--B", "--seed",
    "--grid", "--u-step", "--h", "--kernel", "--hac-kernel", "--hac-bandwidth",
    "--pilot-h", "--pooled-lrv", "--no-demean", "--threads", "--crit-cache",
]
OPTIONS = {
    "test": _TEST_OPTIONS + ["--emit-plot-data"],
    "cluster": _TEST_OPTIONS + ["--k", "--linkage"],
    "simulate": ["-h", "--help", "--config", "--out", "--threads"],
    "preprocess": [
        "-h", "--help", "--input", "--layout", "--out-file", "--deseason-lag",
        "--trend-degree", "--demean", "--lead",
    ],
}


def test_public_names_unchanged():
    assert sorted(panelscale.__all__) == ALL_NAMES


def test_cli_options_unchanged():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [s for action in p._actions for s in action.option_strings]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS
