"""What a run loads: importing the CLI and a warm-cache cluster run need no
OpenSSL (hashlib) and no thread pool (concurrent.futures, which also loads
logging), importing the package loads no submodule, and neither the CLI, a
DGP nor an experiment loads more of the pipeline than it runs. Each probe
runs in a fresh interpreter and compares sys.modules against the same
interpreter's state before it imports panelscale, so modules that site .pth
files load on some hosts do not count."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import panelscale
from panelscale._parallel import ordered_map

FIXTURE = Path(__file__).parent / "data" / "planted_panel.csv"
UNWANTED = {"hashlib", "_hashlib", "concurrent.futures"}

PROBE = """\
import json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _env() -> dict:
    package_root = str(Path(panelscale.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PANELSCALE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def _modules_added(body: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=_env(), check=True, capture_output=True, text=True, timeout=300,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _package_modules(added: set[str]) -> set[str]:
    return {n for n in added if n == "panelscale" or n.startswith("panelscale.")}


def test_package_import_loads_no_submodule():
    assert _modules_added("import panelscale") == {"panelscale"}


def test_cli_import_loads_no_hashlib_or_thread_pool():
    added = _modules_added("import panelscale.cli")
    assert "panelscale.cli" in added
    assert not added & UNWANTED, sorted(added & UNWANTED)
    # the Monte Carlo harness and the result schema load in their commands
    assert not added & {"panelscale.simulate", "panelscale.schemas"}


def test_dgp_and_config_reader_load_no_test_pipeline():
    added = _modules_added(
        "from panelscale.simulate import load_experiment_config, homogeneous_spec"
    )
    pipeline = {f"panelscale.{m}" for m in ("critvals", "grid", "multiscale",
                                             "cluster", "_parallel", "estimate",
                                             "panel")}
    assert "panelscale.simulate" in added
    assert not added & pipeline, sorted(added & pipeline)


def test_config_reader_loads_only_kernels_and_simulate(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = size\nN = 3\nscales = 0.5,1\n")
    added = _modules_added(
        "from panelscale.simulate import load_experiment_config\n"
        f"load_experiment_config({str(cfg)!r})"
    )
    assert _package_modules(added) == {
        "panelscale", "panelscale.kernels", "panelscale.simulate"
    }


def test_generate_panel_loads_only_the_panel_module():
    added = _modules_added(
        "from panelscale.simulate import generate_panel, homogeneous_spec\n"
        "generate_panel(homogeneous_spec(5, 300, 2, 1))"
    )
    assert _package_modules(added) == {"panelscale"} | {
        f"panelscale.{m}" for m in ("errors", "kernels", "panel", "simulate")
    }


@pytest.mark.parametrize(
    "experiment, clusters",
    [("size", False), ("power", False), ("fwer", False), ("cluster", True)],
)
def test_experiment_loads_cluster_only_when_it_clusters(experiment, clusters):
    cfg = {"experiment": experiment, "T": 100, "D": 1, "R": 1, "B": 120}
    if experiment in ("size", "power"):
        cfg["N"] = 3
    added = _modules_added(
        "from panelscale.simulate import run_from_config\n"
        f"run_from_config({cfg!r})"
    )
    assert "panelscale.multiscale" in added
    assert ("panelscale.cluster" in added) == clusters


def test_every_public_name_resolves():
    namespace = {}
    exec("from panelscale import *", namespace)
    for name in panelscale.__all__:
        assert namespace[name] is getattr(panelscale, name), name
    assert set(panelscale.__all__) <= set(dir(panelscale))


def test_deferred_names_resolve_and_keep_a_replacement():
    # a tracer resolves these names by attribute access and rebinds them
    # before a run; the first run must not put the originals back
    body = """
import panelscale.cli as cli
import panelscale.simulate as simulate
from panelscale import critvals, estimate, lrv, multiscale, schemas
assert cli.RESULT_SCHEMA_VERSION == schemas.RESULT_SCHEMA_VERSION
assert cli.run_from_config is simulate.run_from_config
assert simulate.run_test is multiscale.run_test
assert lrv.batched_designs is estimate.batched_designs
replaced = lambda *args, **kwargs: None
simulate.ordered_map = replaced
simulate._bind_deferred()
assert simulate.ordered_map is replaced
assert simulate.gaussian_critical_value is critvals.gaussian_critical_value
"""
    _modules_added(body)


def test_warm_cache_cluster_loads_no_hashlib_or_thread_pool(tmp_path):
    cache = tmp_path / "crit.bin"
    flags = ["--input", str(FIXTURE), "--B", "200", "--seed", "3",
             "--threads", "1", "--crit-cache", str(cache)]
    # simulating imports numpy.random, which loads OpenSSL through secrets,
    # so the cache is written by an earlier process
    subprocess.run(
        [sys.executable, "-m", "panelscale.cli", "cluster", *flags,
         "--out", str(tmp_path / "cold")],
        env=_env(), check=True, capture_output=True, timeout=300,
    )
    argv = ["cluster", *flags, "--out", str(tmp_path / "warm")]
    added = _modules_added(
        "from panelscale.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert not added & UNWANTED, sorted(added & UNWANTED)
    assert "panelscale.simulate" not in added
    for name in ("membership.csv", "dendrogram.json", "group_differences.csv"):
        assert (tmp_path / "warm" / name).read_bytes() == (
            tmp_path / "cold" / name
        ).read_bytes()


def test_ordered_map_with_workers_keeps_input_order():
    # later items finish first, so the pool's completion order is reversed
    def slow_square(k: int) -> int:
        time.sleep(0.01 * (4 - k))
        return k * k

    assert ordered_map(slow_square, range(5), 2) == [0, 1, 4, 9, 16]
