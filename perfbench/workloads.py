"""Workload definitions, seeded input generation and output checks.

Every workload runs one real `panelscale` subcommand on inputs generated
here from the workload seed; the program only ever sees the files written
by `setup`. Shapes are (N units, T periods, D covariates).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALPHA = 0.05
# the critical-value seed is fixed, so that only the panel changes with the
# workload seed: with B=100 the simulated quantile, and with it the number of
# rejections to prune, moves a lot from one draw seed to the next
CRIT_SEED = 0
# pinned so that a stray PANELSCALE_* default can never reach the program
KERNEL = "epanechnikov"
HAC_KERNEL = "bartlett"
PILOT_H = 0.25
# threads the cache-warming simulation may use during set-up; the draws do not
# depend on it
SETUP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # test | cluster | simulate
    shape: tuple[int, int, int]
    B: int
    threads: int = 1
    warm_cache: bool = False  # warm --crit-cache in set-up
    cold_cache: bool = False  # delete --crit-cache before every invocation
    emit_plot_data: bool = False
    replications: int = 0  # simulate only
    group_sizes: tuple[int, int] = (0, 0)  # cluster only
    # distinct panels per run, used in turn; they share one draw cache, whose
    # key does not depend on the data
    panels: int = 1


# BENCHMARK.json declares cluster_warm and simulate_size only. test_cold and
# test_warm_long stay runnable by name and under --all: on a 2-core shared
# host, test_cold's one 19 s invocation per run and test_warm_long's two 10 s
# cache warm-ups leave too little timed work per run for a steady median
# within the time all declared runs may take (see WORKLOADS.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("test_cold", "test", (5, 300, 2), B=5000, cold_cache=True),
        Workload(
            "cluster_warm",
            "cluster",
            (50, 500, 3),
            B=100,
            warm_cache=True,
            group_sizes=(25, 25),
        ),
        Workload("simulate_size", "simulate", (5, 300, 2), B=1000, threads=2,
                 replications=300),
        Workload(
            "test_warm_long",
            "test",
            (5, 1000, 2),
            B=100,
            warm_cache=True,
            emit_plot_data=True,
            # pruning costs O(rejections^2) and the rejection count varies by
            # panel, so a run averages over several
            panels=4,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files written by set-up and the CLI argument vectors that use them,
    one per panel and without the output directory."""

    workload: Workload
    directory: Path
    argvs: tuple[tuple[str, ...], ...]
    cache: Path | None

    def argv_for(self, out: Path, invocation: int = 0) -> list[str]:
        return [*self.argvs[invocation % len(self.argvs)], "--out", str(out)]


def _smallest_h(T: int) -> float:
    from panelscale.grid import build_grid_application

    return float(build_grid_application(T).h.min())


def _write_panel(w: Workload, seed: int, path: Path) -> None:
    from panelscale.panel import panel_to_csv
    from panelscale.simulate import (
        generate_panel,
        planted_bump_spec,
        separation_height,
        two_group_spec,
    )

    N, T, D = w.shape
    h = _smallest_h(T)
    if w.command == "cluster":
        spec = two_group_spec(
            T, D, seed, separation_height(T, h), group_sizes=w.group_sizes
        )
    else:
        spec = planted_bump_spec(
            N, T, D, seed, center=0.5, width=2.0 * h, height=separation_height(T, h)
        )
    panel, _ = generate_panel(spec)
    panel_to_csv(panel, path, "long")


def _write_config(w: Workload, seed: int, path: Path) -> None:
    N, T, D = w.shape
    keys = dict(
        experiment="size", N=N, T=T, D=D, R=w.replications, B=w.B, alpha=ALPHA,
        seed=seed, crit_seed=CRIT_SEED, ar_coef=0.3, noise_sd=1.0,
        hac_kernel=HAC_KERNEL, pilot_h=PILOT_H, pooled_lrv=0,
    )
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def plan(w: Workload, directory: Path) -> Inputs:
    """The input files of `w` in `directory` and the CLI argument vectors."""
    if w.command == "simulate":
        config = directory / "size.cfg"
        argv = ("simulate", "--config", str(config), "--threads", str(w.threads))
        return Inputs(w, directory, (argv,), None)
    cache = directory / "crit.bin"
    flags = [
        "--layout", "long", "--alpha", repr(ALPHA), "--B", str(w.B),
        "--seed", str(CRIT_SEED), "--grid", "app", "--kernel", KERNEL,
        "--hac-kernel", HAC_KERNEL, "--pilot-h", repr(PILOT_H),
        "--threads", str(w.threads), "--crit-cache", str(cache),
    ]
    if w.command == "cluster":
        flags += ["--linkage", "complete"]
    if w.emit_plot_data:
        flags.append("--emit-plot-data")
    argvs = tuple(
        (w.command, "--input", str(directory / f"panel_{k}.csv"), *flags)
        for k in range(w.panels)
    )
    return Inputs(w, directory, argvs, cache)


def setup(w: Workload, seed: int, directory: Path, warm: bool = True) -> Inputs:
    """Write the workload's inputs for `seed` into `directory`.

    With `warm` (and a warm-cache workload) the critical-value cache is filled
    through the program's own `gaussian_critical_value(..., cache_path=...)`.
    """
    inputs = plan(w, directory)
    directory.mkdir(parents=True, exist_ok=True)
    if w.command == "simulate":
        from panelscale.simulate import load_experiment_config

        _write_config(w, seed, directory / "size.cfg")
        load_experiment_config(directory / "size.cfg")  # the program can read it
        return inputs
    for k in range(w.panels):
        _write_panel(w, seed * 16 + k, directory / f"panel_{k}.csv")
    if w.warm_cache and warm:
        _warm_cache(w, directory / "panel_0.csv", inputs.cache)
    return inputs


def _warm_cache(w: Workload, panel_csv: Path, cache: Path) -> None:
    from panelscale.critvals import gaussian_critical_value
    from panelscale.grid import build_grid_application
    from panelscale.kernels import SmoothingKernel
    from panelscale.panel import panel_from_csv

    panel = panel_from_csv(panel_csv, "long")
    gaussian_critical_value(
        panel.n_time, panel.n_units, panel.n_covariates,
        build_grid_application(panel.n_time), SmoothingKernel(KERNEL),
        w.B, CRIT_SEED, ALPHA, n_workers=SETUP_WORKERS, cache_path=str(cache),
    )


def timed_setup(w: Workload, seed: int, directory: Path, env: dict,
                timeout: float) -> tuple[Inputs, float]:
    """Set up in a fresh interpreter, as a user's preparation script would, so
    that the time includes importing panelscale and is more than a file write."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           json.dumps(dataclasses.asdict(w)), str(seed), str(directory)]
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=timeout)
    return plan(w, directory), time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def check_outputs(inputs: Inputs, out: Path) -> str | None:
    """None when the invocation's outputs are correct, else the reason."""
    w = inputs.workload
    try:
        if w.command == "test":
            return _check_test(inputs, out)
        if w.command == "cluster":
            return _check_cluster(inputs, out)
        return _check_simulate(inputs, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_test(inputs: Inputs, out: Path) -> str | None:
    import jsonschema

    from panelscale.schemas import RESULT_SCHEMA

    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    try:
        jsonschema.validate(result, RESULT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return f"result.json fails the schema: {exc.message}"
    if result["reject_global"] is not True:
        return "planted bump not detected: reject_global is false"
    if not any(r["i"] == 0 for r in result["rejections"]):
        return "no rejection names a planted pair (0, j)"
    if not (out / "rejections.csv").is_file():
        return "rejections.csv missing"
    if inputs.workload.emit_plot_data:
        N = inputs.workload.shape[0]
        missing = [i for i in range(1, N + 1) if not (out / f"curves_u{i}.csv").is_file()]
        if missing:
            return f"curves files missing for units {missing}"
    return None


def _check_cluster(inputs: Inputs, out: Path) -> str | None:
    n1, n2 = inputs.workload.group_sizes
    planted = {f"u{i + 1}": int(i >= n1) for i in range(n1 + n2)}
    with open(out / "membership.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["unit"] for r in rows) != sorted(planted):
        return "membership.csv does not list every unit once"
    groups: dict[str, set[int]] = {}
    for r in rows:
        groups.setdefault(r["label"], set()).add(planted[r["unit"]])
    mixed = sorted(label for label, origin in groups.items() if len(origin) > 1)
    if mixed:
        return f"output groups {mixed} mix units of both planted groups"
    dendro = json.loads((out / "dendrogram.json").read_text(encoding="utf-8"))
    if dendro["k_hat"] != len(groups) or len(dendro["merges"]) != n1 + n2 - 1:
        return "dendrogram.json disagrees with membership.csv"
    if not (out / "group_differences.csv").is_file():
        return "group_differences.csv missing"
    return None


def _check_simulate(inputs: Inputs, out: Path) -> str | None:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if report["experiment"] != "size":
        return f"report is for experiment {report['experiment']!r}"
    if report["replications"] != inputs.workload.replications:
        return f"replications {report['replications']} != R={inputs.workload.replications}"
    # the rate itself is not gated: the default HAC over-rejects (a known defect)
    rates = [report["rejection_rate"], report["rejection_se"]]
    if not all(isinstance(r, (int, float)) and 0.0 <= r <= 1.0 for r in rates):
        return f"rates outside [0, 1]: {rates}"
    if not (out / "report.csv").is_file():
        return "report.csv missing"
    return None


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    spec.update(shape=tuple(spec["shape"]), group_sizes=tuple(spec["group_sizes"]))
    setup(Workload(**spec), int(sys.argv[2]), Path(sys.argv[3]))
