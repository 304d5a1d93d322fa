"""Multiscale heterogeneity testing and clustering for time-varying panel
regression coefficients.

`import panelscale` loads no submodule (PEP 562): a public name imports the
submodule that defines it when it is first used, so a script that only
defines a DGP or reads a Monte Carlo config does not load the test pipeline.
"""

import importlib

__version__ = "0.1.0"

# each public submodule and the public names it defines
_NAMES = {
    "cluster": (
        "ClusterResult", "Dissimilarity", "GroupDifferenceReport", "Merge",
        "dissimilarity_matrix", "group_difference_intervals", "hac_cluster",
        "partition_at", "select_k",
    ),
    "critvals": (
        "CriticalValue", "critical_value", "gaussian_critical_value", "simulate_phi",
    ),
    "errors": (
        "DegenerateCovarianceError", "GridError", "PanelFormatError",
        "PanelScaleError", "QuantileError", "SingularDesignError",
    ),
    "estimate": ("LocalDesign", "beta_hat", "coefficient_curve", "local_design"),
    "grid": ("Grid", "build_grid_application", "build_grid_custom"),
    "kernels": (
        "HacConfig", "SmoothingKernel", "kernel_eval", "kernel_weights",
        "lambda_correction",
    ),
    "lrv": (
        "LongRunCov", "hac_estimate", "long_run_covariances", "pair_normalizer",
        "residual_series",
    ),
    "multiscale": (
        "LocalStatTable", "Rejection", "TestResult", "aggregate",
        "build_normalizers", "compute_stat_table", "local_stat", "prune_minimal",
        "run_test", "unit_pairs",
    ),
    "panel": (
        "CoefficientCurve", "Panel", "demean_units", "deseasonalize",
        "panel_from_csv", "panel_to_csv",
    ),
    "simulate": (
        "Bump", "Constant", "DgpSpec", "ExperimentReport", "GroundTruth", "Linear",
        "Sine", "generate_panel", "homogeneous_spec", "mixed_heterogeneity_spec",
        "planted_bump_spec", "run_cluster_experiment", "run_fwer_experiment",
        "run_power_experiment", "run_size_experiment", "separation_height",
        "two_group_spec",
    ),
}
_SOURCES = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_NAMES, *_SOURCES]


# the private names that modules bind on first use, and their submodules
_PRIVATE = {
    "ordered_map": "_parallel",
    "RESULT_SCHEMA_VERSION": "schemas",
    **dict.fromkeys(("load_experiment_config", "run_from_config"), "simulate"),
}


def _deferred(namespace: dict, names):
    """A module `__getattr__` (PEP 562) for names, and a bind(*names) that
    binds each of them (all of them when none is given) in namespace to the
    object of that name in its submodule, importing the submodule on first
    use.

    A name already bound is kept, so a replacement put there before the first
    use (a test's patch, a tracer's wrapper) is not undone. Threads that bind
    the same name at once all write the same object.
    """

    def bind(*which) -> None:
        for name in which or names:
            if name not in namespace:
                source = _SOURCES.get(name) or _PRIVATE[name]
                module = importlib.import_module(f".{source}", __name__)
                namespace[name] = getattr(module, name)

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        bind(name)
        return namespace[name]

    return __getattr__, bind


_getattr_name, _ = _deferred(globals(), _SOURCES)


def __getattr__(name: str):
    if name in _NAMES:
        return importlib.import_module(f".{name}", __name__)
    return _getattr_name(name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
