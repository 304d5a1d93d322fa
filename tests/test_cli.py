import csv
import json
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from panelscale import (
    HacConfig,
    Panel,
    generate_panel,
    homogeneous_spec,
    panel_to_csv,
    two_group_spec,
)
from panelscale.cli import main
from panelscale.schemas import RESULT_SCHEMA

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "planted_panel.csv"

FAST = ["--B", "200", "--seed", "3"]


def write_identical_pair(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.standard_normal(100)
    panel = Panel(
        y=np.vstack([y, y]), x=np.ones((100, 1)), unit_labels=("a", "b")
    )
    path = tmp_path / "same.csv"
    panel_to_csv(panel, path, "long")
    return path


def test_cmd_test_identical_series(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["test", "--input", str(write_identical_pair(tmp_path)), "--out", str(out)]
        + FAST
    )
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["reject_global"] is False
    assert result["rejections"] == []
    with open(out / "rejections.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["i", "j", "u", "h", "stat", "exceedance"]]


def test_cmd_test_planted_fixture(tmp_path):
    out = tmp_path / "out"
    code = main(["test", "--input", str(FIXTURE), "--out", str(out)] + FAST)
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["reject_global"] is True
    assert {(r["i"], r["j"]) for r in result["rejections"]} == {(0, 1)}
    # the bump lives on [0.28, 0.72]; every rejected window must overlap it
    for r in result["rejections"]:
        assert r["u"] + r["h"] > 0.28 and r["u"] - r["h"] < 0.72


def test_cmd_test_pooled_lrv(tmp_path):
    out = tmp_path / "out"
    code = main(["test", "--input", str(FIXTURE), "--out", str(out), "--pooled-lrv"] + FAST)
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["config"]["pooled_lrv"] is True


def test_cmd_test_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,y,x1\nA,1,oops,1.0\n")
    assert main(["test", "--input", str(bad), "--out", str(tmp_path)] + FAST) == 2


def test_cmd_test_csv_reader_error_exits_2(tmp_path, capsys):
    # a field over the csv module's field size limit (131072 characters)
    bad = tmp_path / "huge_field.csv"
    bad.write_text("unit,time,y,x1\nA,1,1.0,1.0\nA,2," + "9" * 200_000 + ",1.0\n")
    assert main(["test", "--input", str(bad), "--out", str(tmp_path / "out")] + FAST) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 3:" in err
    assert "field larger than field limit" in err


def test_cmd_test_singular_pilot_exits_3(tmp_path, capsys):
    # second covariate is zero over the first pilot window [0, 0.5]
    T = 100
    rng = np.random.default_rng(12)
    x2 = np.zeros(T)
    x2[60:] = np.linspace(1.0, 2.0, T - 60)
    panel = Panel(
        y=rng.standard_normal((2, T)),
        x=np.column_stack([np.ones(T), x2]),
        unit_labels=("a", "b"),
    )
    path = tmp_path / "singular.csv"
    panel_to_csv(panel, path, "long")
    code = main(["test", "--input", str(path), "--out", str(tmp_path / "out")] + FAST)
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical degeneracy" in err
    assert "(u=0.25, h=0.25)" in err


def test_cmd_test_infinite_hac_bandwidth_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["test", "--input", str(FIXTURE), "--out", str(out), "--hac-bandwidth", "inf"]
    assert main(argv + FAST) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_cmd_test_missing_file(tmp_path):
    missing = tmp_path / "nope.csv"
    assert main(["test", "--input", str(missing), "--out", str(tmp_path)] + FAST) == 2


def test_cmd_test_emit_plot_data(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["test", "--input", str(FIXTURE), "--out", str(out), "--emit-plot-data"]
        + FAST
    )
    assert code == 0
    curves = sorted(p.name for p in out.glob("curves_*.csv"))
    assert curves == ["curves_u1.csv", "curves_u2.csv"]
    with open(out / "curves_u1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "h", "beta_1"]
    assert len(rows) == 1 + 11  # application grid for T=100
    # the curves are computed before any write and leave the other files alone
    plain = tmp_path / "plain"
    assert main(["test", "--input", str(FIXTURE), "--out", str(plain)] + FAST) == 0
    for name in ("result.json", "rejections.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize(
    "label",
    [
        "US/CA",
        pytest.param(
            "a\0b",
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="csv reads NUL from 3.11"
            ),
        ),
    ],
)
def test_cmd_test_bad_curve_label_writes_nothing(tmp_path, capsys, label):
    panel, _ = generate_panel(homogeneous_spec(N=2, T=100, D=1, seed=8))
    path = tmp_path / "panel.csv"
    panel_to_csv(Panel(y=panel.y, x=panel.x, unit_labels=(label, "b")), path, "long")
    out = tmp_path / "out"
    argv = ["test", "--input", str(path), "--out", str(out), "--emit-plot-data"]
    assert main(argv + FAST) == 2
    assert repr(label) in capsys.readouterr().err
    assert not out.exists()


def test_cmd_test_deterministic_across_runs_and_threads(tmp_path):
    outs = []
    for threads in ("1", "8", "1"):
        out = tmp_path / f"out{len(outs)}"
        code = main(
            ["test", "--input", str(FIXTURE), "--out", str(out), "--threads", threads]
            + FAST
        )
        assert code == 0
        outs.append((out / "result.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cmd_test_crit_cache_reused(tmp_path):
    cache = tmp_path / "draws.bin"
    for run in range(2):
        out = tmp_path / f"out{run}"
        code = main(
            [
                "test",
                "--input",
                str(FIXTURE),
                "--out",
                str(out),
                "--crit-cache",
                str(cache),
            ]
            + FAST
        )
        assert code == 0
    a = json.loads((tmp_path / "out0" / "result.json").read_text())
    b = json.loads((tmp_path / "out1" / "result.json").read_text())
    assert a == b
    assert cache.exists()


@pytest.mark.parametrize(
    "level", [["--alpha", "1.5"], ["--alpha", "0.001", "--B", "200"]],
    ids=["alpha-outside-0-1", "B-below-1-over-alpha"],
)
def test_cmd_test_bad_level_exits_2_before_any_draw(tmp_path, monkeypatch, level):
    from panelscale import critvals

    def no_draws(*args, **kwargs):
        raise AssertionError("simulate_phi called")

    monkeypatch.setattr(critvals, "simulate_phi", no_draws)
    cache = tmp_path / "draws.bin"
    argv = ["test", "--input", str(FIXTURE), "--out", str(tmp_path / "out"),
            "--crit-cache", str(cache)]
    assert main(argv + level) == 2
    assert not cache.exists()


def test_crit_cache_in_missing_directory_refused_before_any_draw(
    tmp_path, monkeypatch, capsys
):
    from panelscale import critvals

    def no_draws(*args, **kwargs):
        raise AssertionError("simulate_phi called")

    monkeypatch.setattr(critvals, "simulate_phi", no_draws)
    cache = tmp_path / "missing" / "crit.bin"
    out = tmp_path / "out"
    argv = ["test", "--input", str(FIXTURE), "--out", str(out), "--crit-cache", str(cache)]
    assert main(argv + FAST) == 2
    assert f"draw cache {cache}: no such directory" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test", "--pilot-h", "0.7"], "pilot bandwidth 0.7 outside (0, 1/2]"),
        (["cluster", "--hac-bandwidth", "0.5"], "HAC bandwidth 0.5 must be finite and >= 1"),
        (["test", "--seed", str(2**63)], f"seed={2**63} outside [0, 2**63)"),
        (["cluster", "--B", str(2**63)], f"B={2**63} outside [0, 2**63)"),
        (
            ["test", "--grid", "custom", "--u-step", "10", "--h", "0.2,abc"],
            "--h '0.2,abc' must list numbers",
        ),
        (
            ["cluster", "--grid", "custom", "--u-step", "10", "--h", ","],
            "--h ',' must list numbers",
        ),
    ],
    ids=["pilot-h-above-half", "hac-bandwidth-below-1", "seed-above-int64", "B-above-int64",
         "h-not-a-number", "h-empty"],
)
def test_bad_hac_or_draw_flags_exit_2_before_any_draw_or_cache_read(
    tmp_path, monkeypatch, capsys, argv, message
):
    from panelscale import critvals

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for name in ("simulate_phi", "load_draws"):
        monkeypatch.setattr(critvals, name, refuse(name))
    out, cache = tmp_path / "out", tmp_path / "draws.bin"
    code = main(argv + ["--input", str(FIXTURE), "--out", str(out), "--crit-cache", str(cache)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not cache.exists()
    assert not out.exists()


def test_cmd_cluster_two_distinct_units(tmp_path):
    out = tmp_path / "out"
    code = main(["cluster", "--input", str(FIXTURE), "--out", str(out)] + FAST)
    assert code == 0
    with open(out / "membership.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["unit", "label"]
    labels = {r[0]: r[1] for r in rows[1:]}
    assert labels["u1"] != labels["u2"]
    dendro = json.loads((out / "dendrogram.json").read_text())
    assert dendro["k_hat"] == 2
    assert len(dendro["merges"]) == 1
    diffs = (out / "group_differences.csv").read_text().strip().splitlines()
    assert len(diffs) > 1  # header plus at least one significant interval


@pytest.mark.parametrize("linkage", ["single", "average"])
def test_cmd_cluster_linkage(tmp_path, linkage):
    panel, truth = generate_panel(two_group_spec(T=200, D=1, seed=4, height=3.0))
    path = tmp_path / "six.csv"
    panel_to_csv(panel, path, "long")
    final_height = {}
    for name in (linkage, "complete"):
        out = tmp_path / name
        assert main(["cluster", "--input", str(path), "--linkage", name,
                     "--out", str(out)] + FAST) == 0
        with open(out / "membership.csv") as fh:
            labels = [int(r[1]) for r in list(csv.reader(fh))[1:]]
        assert len(labels) == 6
        assert labels == [1 + g for g in truth.group_assignment]
        merges = json.loads((out / "dendrogram.json").read_text())["merges"]
        final_height[name] = merges[-1]["height"]
    # the last merge joins the two groups at the min (single) or mean
    # (average) of their cross distances, below complete linkage's max
    assert final_height[linkage] < final_height["complete"]


def test_cmd_cluster_k_override(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["cluster", "--input", str(FIXTURE), "--out", str(out), "--k", "1"] + FAST
    )
    assert code == 0
    dendro = json.loads((out / "dendrogram.json").read_text())
    assert dendro["k_hat"] == 1
    with open(out / "membership.csv") as fh:
        labels = {r[1] for r in list(csv.reader(fh))[1:]}
    assert labels == {"1"}


def test_cmd_cluster_k_zero_rejected(tmp_path):
    code = main(
        ["cluster", "--input", str(FIXTURE), "--out", str(tmp_path), "--k", "0"]
        + FAST
    )
    assert code == 2


def test_cmd_cluster_oversized_k_refused_before_any_draw(tmp_path, capsys):
    out, cache = tmp_path / "out", tmp_path / "crit.bin"
    argv = ["cluster", "--input", str(FIXTURE), "--out", str(out), "--k", "9"]
    code = main(argv + ["--crit-cache", str(cache)] + FAST)
    assert code == 2
    assert "--k must lie in [1, 2], got 9" in capsys.readouterr().err
    assert not cache.exists()
    assert not out.exists()


def test_cmd_simulate_smoke(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = size\nT = 100\nN = 2\nD = 1\nR = 2\nB = 120\n"
        "alpha = 0.5\nseed = 4\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "size"
    assert report["replications"] == 2
    assert (out / "report.csv").exists()


def test_cmd_simulate_reproducible_bytes(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = size\nT = 100\nN = 2\nD = 1\nR = 3\nB = 120\n"
        "alpha = 0.5\nseed = 4\n"
    )
    blobs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cmd_simulate_invalid_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = warp\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


SIM_TINY = "T = 100\nD = 1\nB = 120\nalpha = 0.5\nseed = 4\n"


@pytest.mark.parametrize(
    "config",
    [
        "experiment = size\nN = 2\nR = 3\n",
        "experiment = power\nN = 2\nR = 6\nscales = 0.0,1.0\n",
        "experiment = fwer\nR = 6\n",
        "experiment = cluster\nR = 6\n",
    ],
    ids=["size", "power", "fwer", "cluster"],
)
def test_cmd_simulate_bytes_match_across_threads(tmp_path, config):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config + SIM_TINY)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--threads", threads]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "config, n_rows, expected",
    [
        (
            "experiment = size\nN = 2\nR = 3\n",
            2,
            lambda r: [
                ["metric", "value", "se"],
                ["rejection_rate", r["rejection_rate"], r["rejection_se"]],
            ],
        ),
        (
            "experiment = power\nN = 2\nR = 6\nscales = 0.0,1.0\n",
            3,
            lambda r: [["signal_scale", "rejection_rate", "se", "planted_pair_rate"]]
            + [
                [e["signal_scale"], e["rejection_rate"], e["se"], e["planted_pair_rate"]]
                for e in r["power_curve"]
            ],
        ),
    ],
    ids=["size", "power"],
)
def test_cmd_simulate_report_csv_matches_json(tmp_path, config, n_rows, expected):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config + SIM_TINY)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == n_rows
    assert rows == [[str(cell) for cell in row] for row in expected(report)]


@pytest.mark.parametrize(
    "config",
    [
        "experiment = size\nN = 2\nR = 0\n" + SIM_TINY,
        "experiment = size\nN = 2\nR = -3\n" + SIM_TINY,
        "experiment = fwer\nN = 20\nR = 2\n" + SIM_TINY,
        "experiment = cluster\nN = 20\nR = 2\n" + SIM_TINY,
        "experiment = size\nN = 2\nR = 3\nhac_bandwidth = inf\n" + SIM_TINY,
    ],
    ids=["R0", "R-3", "fwer-N", "cluster-N", "hac-bandwidth-inf"],
)
def test_cmd_simulate_rejects_bad_keys(tmp_path, config):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ("experiment = size\nN = 2\nR = 3\nnoise_sd = 0\n" + SIM_TINY, "noise_sd"),
        (
            "experiment = size\nN = 2\nR = 3\nT = 100\nD = 1\nB = 120\nseed = -1\n",
            "seed must be a nonnegative integer, got -1",
        ),
        (
            f"experiment = size\nN = 2\nR = 3\ncrit_seed = {2**63}\n" + SIM_TINY,
            f"crit_seed={2**63} outside [0, 2**63)",
        ),
        ("experiment = power\nN = 3\nR = 3\nscales = nan\n" + SIM_TINY, "scales = nan"),
        (
            "experiment = power\nN = 3\nR = 3\nscales = 1.0,inf\n" + SIM_TINY,
            "scales = 1.0,inf must all be finite",
        ),
        (
            "experiment = power\nN = 3\nR = 3\nscales = 0.5,abc\n" + SIM_TINY,
            "scales = 0.5,abc must list numbers",
        ),
        (
            "experiment = power\nN = 3\nR = 3\nbump_width = nan\n" + SIM_TINY,
            "bump_width = nan must be finite",
        ),
        (
            "experiment = power\nN = 3\nR = 3\nbump_center = nan\n" + SIM_TINY,
            "bump_center = nan must be finite",
        ),
        (
            "experiment = power\nN = 3\nR = 3\nheight_c = nan\n" + SIM_TINY,
            "height_c = nan must be finite",
        ),
        (
            "experiment = cluster\nR = 3\nheight_c = -inf\n" + SIM_TINY,
            "height_c = -inf must be finite",
        ),
        (
            "experiment = size\nN = 3\nR = 3\npooled_lrv = 7\n" + SIM_TINY,
            "pooled_lrv = 7 must be 0 or 1",
        ),
    ],
    ids=["noise-sd-0", "seed-negative", "crit-seed-above-int64", "scales-nan",
         "scales-inf", "scales-not-a-number", "bump-width-nan", "bump-center-nan",
         "height-c-nan", "cluster-height-c-inf", "pooled-lrv-7"],
)
def test_cmd_simulate_refuses_before_any_draw(tmp_path, monkeypatch, capsys, config, message):
    from panelscale import simulate

    def no_draws(*args, **kwargs):
        raise AssertionError("the critical value's draws were made")

    monkeypatch.setattr(simulate, "gaussian_critical_value", no_draws)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_simulate_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = size\nN = 2\nR = 2\nR = 5\n" + SIM_TINY)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "key 'R' given twice (lines 3 and 4)" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cmd_simulate_out_from_env(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = size\nN = 2\nR = 2\n" + SIM_TINY)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("PANELSCALE_OUT", str(tmp_path / "env_out"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "report.json").exists()
    assert list(cwd.iterdir()) == []


def test_hac_defaults_come_from_hac_config(monkeypatch):
    import importlib
    from dataclasses import dataclass

    import panelscale
    from panelscale import cli, kernels

    @dataclass(frozen=True)
    class OtherDefaults(HacConfig):
        cov_kernel: str = "parzen"
        bandwidth: float | None = 3.0
        pilot_bandwidth: float = 0.4

    monkeypatch.setattr(cli, "HacConfig", OtherDefaults)
    args = cli.build_parser().parse_args(["test", "--input", "x.csv"])
    assert (args.hac_kernel, args.hac_bandwidth, args.pilot_h) == ("parzen", 3.0, 0.4)

    # simulate's config keys take HacConfig's defaults when it is imported,
    # so a fresh simulate is imported with the other defaults in place
    seen = {}
    monkeypatch.setattr(kernels, "HacConfig", OtherDefaults)
    monkeypatch.delitem(sys.modules, "panelscale.simulate")
    monkeypatch.setattr(panelscale, "simulate", panelscale.simulate)
    simulate = importlib.import_module("panelscale.simulate")
    monkeypatch.setattr(
        simulate, "run_size_experiment", lambda spec, **kw: seen.update(kw)
    )
    simulate.run_from_config({"experiment": "size", "T": 100})
    assert seen["hac"] == OtherDefaults()


def test_cmd_preprocess_roundtrip(tmp_path):
    spec = homogeneous_spec(N=2, T=60, D=1, seed=8)
    panel, _ = generate_panel(spec)
    src = tmp_path / "raw.csv"
    panel_to_csv(panel, src, "long")
    dst = tmp_path / "processed.csv"
    code = main(
        [
            "preprocess",
            "--input",
            str(src),
            "--out-file",
            str(dst),
            "--deseason-lag",
            "4",
            "--trend-degree",
            "2",
            "--demean",
            "--lead",
            "1",
        ]
    )
    assert code == 0
    from panelscale import panel_from_csv

    out = panel_from_csv(dst, "long")
    assert out.n_time == 60 - 4 - 1
    assert np.abs(out.y.mean(axis=1)).max() < 1e-10


def test_cmd_preprocess_lead_too_large(tmp_path):
    spec = homogeneous_spec(N=2, T=20, D=1, seed=8)
    panel, _ = generate_panel(spec)
    src = tmp_path / "raw.csv"
    panel_to_csv(panel, src, "long")
    code = main(
        [
            "preprocess",
            "--input",
            str(src),
            "--out-file",
            str(tmp_path / "x.csv"),
            "--lead",
            "25",
        ]
    )
    assert code == 2


def test_cmd_preprocess_negative_lead_rejected(tmp_path):
    spec = homogeneous_spec(N=2, T=20, D=1, seed=8)
    panel, _ = generate_panel(spec)
    src = tmp_path / "raw.csv"
    panel_to_csv(panel, src, "long")
    out = tmp_path / "x.csv"
    code = main(
        ["preprocess", "--input", str(src), "--out-file", str(out), "--lead", "-1"]
    )
    assert code == 2
    assert not out.exists()


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PANELSCALE_ALPHA", "0.5")
    from panelscale.cli import build_parser

    args = build_parser().parse_args(
        ["test", "--input", "x.csv"]
    )
    assert args.alpha == 0.5


@pytest.mark.parametrize("name, value", [("B", "abc"), ("THREADS", "2.5")])
def test_malformed_env_override_exits_2(monkeypatch, name, value):
    monkeypatch.setenv(f"PANELSCALE_{name}", value)
    with pytest.raises(SystemExit) as exc:
        main(["test", "--input", "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["test", "--input", "x.csv"], ["cluster", "--input", "x.csv"],
     ["simulate", "--config", "x.cfg"]],
)
def test_threads_below_one_exits_2(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", value])
    assert exc.value.code == 2
    assert f"argument --threads: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "cluster", "simulate"])
def test_env_threads_below_one_exits_2(monkeypatch, capsys, command):
    monkeypatch.setenv("PANELSCALE_THREADS", "0")
    flag = "--config" if command == "simulate" else "--input"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "x"])
    assert exc.value.code == 2
    assert "argument --threads: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, flag",
    [("GRID", "--grid"), ("LAYOUT", "--layout"), ("KERNEL", "--kernel"),
     ("HAC_KERNEL", "--hac-kernel")],
)
def test_env_choice_checked_like_its_flag(monkeypatch, capsys, name, flag):
    monkeypatch.setenv(f"PANELSCALE_{name}", "bogus")
    with pytest.raises(SystemExit) as exc:
        main(["test", "--input", "x.csv"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err


def test_env_layout_reaches_preprocess(tmp_path, monkeypatch):
    spec = homogeneous_spec(N=2, T=20, D=1, seed=8)
    panel, _ = generate_panel(spec)
    src = tmp_path / "raw.csv"
    panel_to_csv(panel, src, "wide")
    monkeypatch.setenv("PANELSCALE_LAYOUT", "wide")
    dst = tmp_path / "out.csv"
    assert main(["preprocess", "--input", str(src), "--out-file", str(dst)]) == 0
    assert dst.read_bytes() == src.read_bytes()
    monkeypatch.setenv("PANELSCALE_LAYOUT", "bogus")
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", str(src), "--out-file", str(dst)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "layout, header", [("long", "unit,time,y,x1\n"), ("wide", "time,y_a,y_b,x_1\n")]
)
def test_cmd_test_header_only_file_exits_2(tmp_path, capsys, layout, header):
    path = tmp_path / "empty.csv"
    path.write_text(header, encoding="utf-8")
    code = main(
        ["test", "--input", str(path), "--layout", layout, "--out", str(tmp_path)]
        + FAST
    )
    assert code == 2
    assert "no data rows" in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["test", "--input", "x.csv", "--bogus", "1"])


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"panel.csv"' in code
    exec(code.replace('"panel.csv"', repr(str(FIXTURE))), {})
    lines = capsys.readouterr().out.splitlines()
    # the planted bump is found, and the clustering line ends the output
    assert lines[0].startswith("True ")
    assert any(line.startswith("units ") for line in lines[1:-1])
    k_hat, membership = lines[-1].split(" ", 1)
    assert int(k_hat) >= 2 and membership.startswith("(")
