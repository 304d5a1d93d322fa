"""The benchmark's own tests: python3 -m pytest perfbench -q

They use a cheap variant of `test_cold` (B=100) so that each CLI invocation
takes about a second.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from workloads import ROOT, SRC, WORKLOADS, check_outputs, setup

sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (imports numpy, after the path is set)
from tracer import Tracer  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["test_cold"], B=100)
SEED = 5


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    inputs = setup(SMALL, SEED, base / "in")
    rc, _, _ = run.invoke(inputs.argv_for(base / "out"), run.hermetic_env(),
                          base / "cli.log", timeout=120)
    assert rc == 0, (base / "cli.log").read_text()
    return inputs, base / "out"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seed_deterministic(tmp_path, name):
    w = WORKLOADS[name]
    made = {
        tag: setup(w, seed, tmp_path / tag, warm=False)
        for tag, seed in (("a", 3), ("b", 3), ("c", 4))
    }
    files = ["size.cfg"] if w.command == "simulate" else [
        f"panel_{k}.csv" for k in range(w.panels)
    ]
    for file in files:
        a, b, c = ((made[t].directory / file).read_bytes() for t in "abc")
        assert a == b
        assert a != c
    panels = [(made["a"].directory / file).read_bytes() for file in files]
    assert len(set(panels)) == len(panels)


def test_correct_outputs_pass(small_run):
    assert check_outputs(*small_run) is None


def _tampered_copy(small_run, tmp_path, edit):
    inputs, out = small_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy / "result.json")
    return inputs, copy


def _set(key, value):
    def edit(path):
        result = json.loads(path.read_text(encoding="utf-8"))
        result[key] = value
        path.write_text(json.dumps(result), encoding="utf-8")

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("reject_global", False),
        _set("rejections", []),
        _set("psi_hat", "large"),  # breaks the schema
        lambda path: path.write_text("{", encoding="utf-8"),
        lambda path: path.unlink(),
    ],
    ids=["no-reject", "no-rejections", "schema", "truncated", "missing"],
)
def test_tampered_or_missing_result_fails_the_check(small_run, tmp_path, edit):
    assert check_outputs(*_tampered_copy(small_run, tmp_path, edit)) is not None


@pytest.mark.parametrize("tamper", [None, "edit", "delete"])
def test_bad_output_counts_as_a_failed_invocation(monkeypatch, tmp_path, tamper):
    real = run.invoke

    def invoke(argv, env, log, timeout):
        done = real(argv, env, log, timeout)
        result = Path(argv[argv.index("--out") + 1]) / "result.json"
        if tamper == "edit":
            _set("reject_global", False)(result)
        elif tamper == "delete":
            result.unlink()
        return done

    monkeypatch.setitem(run.WORKLOADS, "small", SMALL)
    monkeypatch.setattr(run, "invoke", invoke)
    metrics, samples, setups = run.end_to_end(
        "small", SEED, 0.0, run.hermetic_env(), tmp_path, time.perf_counter() + 120
    )
    # one invocation after each round's set-up
    assert len(samples) == run.SETUP_ROUNDS and len(setups) >= run.SETUP_ROUNDS
    failed = tamper is not None
    assert all((s.error is not None) == failed for s in samples)
    assert metrics["success_rate"] == (0.0 if failed else 1.0)


def test_result_matches_a_direct_cli_run(small_run, tmp_path):
    inputs, out = small_run
    direct = tmp_path / "direct"
    subprocess.run(
        [sys.executable, "-m", "panelscale.cli", "test",
         "--input", str(inputs.directory / "panel_0.csv"),
         "--B", str(SMALL.B), "--out", str(direct)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, capture_output=True,
        timeout=120,
    )
    assert (direct / "result.json").read_bytes() == (out / "result.json").read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_are_those_declared(monkeypatch, capsys, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    monkeypatch.setitem(run.WORKLOADS, "test_cold", SMALL)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    argv = ["--workload", "test_cold", "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_worker_spans_name_the_fan_out_as_parent():
    from panelscale._parallel import ordered_map

    tracer = Tracer()
    fan_out = tracer._fan_out_wrapper("fan", "item", ordered_map)
    assert fan_out(lambda x: 2 * x, range(6), 2) == [0, 2, 4, 6, 8, 10]
    (fan,) = [s for s in tracer.spans if s.name == "fan"]
    items = [s for s in tracer.spans if s.name == "item"]
    assert len(items) == 6 and all(s.parent == fan.id for s in items)
    assert 0.0 <= tracer.self_times()["fan"] <= fan.duration
    assert 0.0 < tracer.busy_fraction("fan", "item") <= 1.0


def test_order_statistic_uses_the_ceiling_rank():
    draws = [float(v) for v in range(100, 0, -1)]
    assert layers.order_statistic(draws, 0.05) == 95.0
    assert layers.order_statistic(draws[:99], 0.05) == 96.0  # rank ceil(94.05) = 95
