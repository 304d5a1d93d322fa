"""panelscale benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload cluster_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

End to end (--trace 0): the run alternates SETUP_ROUNDS rounds of set-up and
invocations. Each round sets up the workload's inputs afresh (more than once
when set-up is cheap, see SETUP_MIN_S), then runs the real CLI on them in a
fresh process, one invocation after another (a closed loop with one client),
until its share of --seconds of invocation time has passed. At least one
invocation runs in each round (MIN_SAMPLES in all when one takes under half
of --seconds), and the last may end after the share. Spreading the
invocations over the whole run, set-ups included, samples more of a shared
host's slow and fast spells than one block would. Every invocation's outputs
are checked. Timings are medians over the invocations, and `setup_s` over the
set-ups, of the run. There is no separate warm-up invocation: the set-up just
before imports the same modules and writes the same files, and a median over
the invocations is not moved by one slow first one.

Traced (--trace 1): replay the same argv in this process through
`panelscale.cli.main`, once plain and once with the program's public
functions wrapped in spans (see tracer.py), then spot-check the statistics.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--all` runs every workload both ways and
prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import (
    ALPHA,
    CRIT_SEED,
    ROOT,
    SRC,
    WORKLOADS,
    check_outputs,
    digest,
    setup,
    timed_setup,
)

WORK = ROOT / ".perfbench"
# one BLAS thread: the CLI's own threads (at most two) already fill the two
# cores, and BLAS workers that spin-wait for a shared host's busy core add
# noise, not speed (the draws' GEMMs ran no faster with two)
BLAS_THREADS = "1"
# set up once per round at least, and keep repeating a cheap set-up until
# the run's set-ups have taken SETUP_MIN_S, so that its median is not one
# file write
SETUP_ROUNDS = 2
SETUP_MIN_S = 5.0
SETUP_MAX_REPEATS = 10
MIN_SAMPLES = 3
IMPORT_REPEATS = 3
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def hermetic_env() -> dict[str, str]:
    """This process's environment without PANELSCALE_* flag defaults, with the
    source tree first on the import path and the BLAS thread count pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PANELSCALE_")}
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def host_record() -> dict:
    import numpy
    import scipy

    def getconf(name: str) -> str:
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True,
                                  timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() or "unknown"

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


# ---------------------------------------------------------------------------
# untraced invocations


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None


def invoke(argv: list[str], env: dict, log: Path, timeout: float):
    """Run the CLI once in a fresh interpreter; wall time runs from spawn to
    exit, CPU time and peak RSS come from the child's own rusage."""
    cmd = [sys.executable, "-m", "panelscale.cli", *argv]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def end_to_end(name: str, seed: int, seconds: float, env: dict, work: Path,
               deadline: float) -> tuple[dict, list[Sample], list[float]]:
    w = WORKLOADS[name]
    setups: list[float] = []
    samples: list[Sample] = []
    reference: dict[int, dict] = {}  # output digests by panel, over all rounds
    invoked_s = 0.0  # wall time spent in invocations so far
    inputs = None
    for round_ in range(SETUP_ROUNDS):
        round_setups = 0.0
        while round_setups == 0.0 or (
            round_setups < SETUP_MIN_S / SETUP_ROUNDS
            and len(setups) < SETUP_MAX_REPEATS
        ):
            if inputs is not None:
                shutil.rmtree(inputs.directory)
            inputs, took = timed_setup(w, seed, work / f"setup_{len(setups)}", env,
                                       max(1.0, deadline - time.perf_counter()))
            setups.append(took)
            round_setups += took
        last_round = round_ == SETUP_ROUNDS - 1
        share = seconds * (round_ + 1) / SETUP_ROUNDS
        while True:
            if w.cold_cache:
                inputs.cache.unlink(missing_ok=True)
            n = len(samples)
            out = work / f"out_{n}"
            rc, wall, usage = invoke(inputs.argv_for(out, n), env, work / "cli.log",
                                     max(1.0, deadline - time.perf_counter()))
            error = f"exit code {rc}" if rc != 0 else check_outputs(inputs, out)
            if error is None:
                files = digest(out)
                if reference.setdefault(n % len(inputs.argvs), files) != files:
                    error = "outputs differ from an earlier invocation's on the same input"
            samples.append(Sample(wall, usage.ru_utime + usage.ru_stime,
                                  usage.ru_maxrss / 1024.0, error))
            shutil.rmtree(out, ignore_errors=True)
            invoked_s += wall
            slowest = max(s.wall_s for s in samples)
            if time.perf_counter() + slowest > deadline:
                break
            # short invocations run at least MIN_SAMPLES times, so that one
            # slow invocation cannot move the median
            short = samples[0].wall_s < seconds / 2
            if invoked_s >= share and (
                not last_round or not short or len(samples) >= MIN_SAMPLES
            ):
                break
        # a round that cannot fit before the deadline is not started
        if time.perf_counter() + setups[-1] + slowest > deadline:
            break
    ok = sum(s.error is None for s in samples)
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "success_rate": ok / len(samples),
    }
    return metrics, samples, setups


# ---------------------------------------------------------------------------
# traced run


def import_seconds(env: dict) -> float:
    """Median time of `import panelscale.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import panelscale.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _main_in_process(cli, argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(argv)
        except Exception:  # the program crashed: a failed invocation
            traceback.print_exc()
            rc = -1
    return rc, sink.getvalue()


def _spot_errors(w, seed: int, tracer, out: Path, cache: Path | None) -> list[float]:
    """Relative errors of the spot check; [inf] when it cannot run."""
    import layers
    from panelscale.critvals import draws_cache_key, load_draws

    try:
        if w.command == "simulate":
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            q_alpha, draws = report["extras"]["q_alpha"], None
        else:
            result_file = "result.json" if w.command == "test" else "dendrogram.json"
            q_alpha = json.loads((out / result_file).read_text(encoding="utf-8"))["q_alpha"]
            (_, args, _, _), = tracer.kept["multiscale.compute_stat_table"]
            panel, kernel, grid, _ = args
            key = draws_cache_key(panel.n_time, panel.n_units, panel.n_covariates,
                                  grid, kernel, w.B, CRIT_SEED)
            draws = load_draws(cache, key)
            if draws is None:
                raise ValueError("the critical-value cache could not be read back")
        return layers.spot_check(tracer, seed, ALPHA, q_alpha, draws)
    except (OSError, KeyError, ValueError, ArithmeticError) as exc:
        print(f"{w.name}: spot check failed: {exc!r}")
        return [float("inf")]


def traced(name: str, seed: int, env: dict, work: Path) -> tuple[dict, int, int, dict]:
    import layers
    import panelscale
    import panelscale.cli as cli
    from tracer import Tracer

    w = WORKLOADS[name]
    inputs = setup(w, seed, work / "setup_0")
    import_s = import_seconds(env)
    attempted = failed = 0
    walls = {}
    outputs = {}
    tracer = Tracer(layers.HOOKS, layers.KEEP)
    for mode in ("plain", "traced"):
        if w.cold_cache:
            inputs.cache.unlink(missing_ok=True)
        out = work / f"out_{mode}"
        if mode == "traced":
            tracer.install(panelscale)
            root = tracer.begin("cli.main")
        start = time.perf_counter()
        try:
            rc, log = _main_in_process(cli, inputs.argv_for(out))
        finally:
            walls[mode] = time.perf_counter() - start
            if mode == "traced":
                tracer.end(root)
                tracer.restore()
        attempted += 1
        error = f"exit code {rc}: {log.strip()}" if rc != 0 else check_outputs(inputs, out)
        outputs[mode] = digest(out) if out.is_dir() else {}
        if error is not None:
            failed += 1
            print(f"{name} {mode} invocation failed: {error}")
    if outputs["plain"] != outputs["traced"]:
        failed += 1
        print(f"{name}: traced outputs differ from the plain run's bytes")

    out = work / "out_traced"
    output_bytes = sum(p.stat().st_size for p in out.glob("*") if p.is_file())
    errors = _spot_errors(w, seed, tracer, out, inputs.cache)
    attempted += len(errors)
    failed += sum(e > layers.IDENTITY_TOL for e in errors)
    metrics = layers.layer_metrics(tracer, walls["traced"], walls["plain"], import_s,
                                   output_bytes, max(errors))
    (work / "spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    # thread-seconds over wall: worker-thread spans can sum past 1
    shares = {
        span: t / walls["traced"]
        for span, t in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    }
    return metrics, attempted, failed, shares


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    # a terminated run unwinds, so that `invoke` stops its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = hermetic_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # compile bytecode once so that no timed invocation pays for it
    subprocess.run([sys.executable, "-c", "import panelscale.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    import layers

    host = host_record()
    print("host " + json.dumps(host, sort_keys=True))
    if args.trace:
        metrics, attempted, failed, shares = traced(args.workload, args.seed, env, work)
        units = layers.PER_LAYER
        detail = {"self_time_share": shares}
        print("self-time share of the traced invocation: " + ", ".join(
            f"{span} {share:.1%}" for span, share in list(shares.items())[:8]))
    else:
        metrics, samples, setups = end_to_end(args.workload, args.seed, args.seconds,
                                              env, work, deadline)
        units = END_TO_END
        attempted = len(samples)
        failed = sum(s.error is not None for s in samples)
        detail = {"samples": [asdict(s) for s in samples], "setups_s": setups}
        for s in samples:
            if s.error:
                print(f"{args.workload}: invocation failed: {s.error}")
        print(f"{args.workload}: medians over {len(samples)} invocations and "
              f"{len(setups)} set-ups; error_rate {failed / attempted:.3f} "
              f"({failed}/{attempted})")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "detail": detail,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (work / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, end to end and traced, with every metric by name."""
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if trace == 0:
                rate = result["failed"] / result["attempted"]
                rows.append((name, "error_rate", rate, "ratio"))
            rows += [(name, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    for name, metric, value, unit in rows:
        print(f"{name:15s} {metric:34s} {value:>16.6g} {unit}")
    for name in WORKLOADS:
        record = json.loads((WORK / name / "result_trace1.json").read_text(encoding="utf-8"))
        shares = list(record["detail"]["self_time_share"].items())[:6]
        print(f"{name} self-time shares: " + ", ".join(f"{s} {v:.1%}" for s, v in shares))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    args = parser.parse_args(argv)
    if not (SRC / "panelscale" / "cli.py").is_file():
        print(f"panelscale sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
