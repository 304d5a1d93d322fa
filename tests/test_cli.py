import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from panelscale import Panel, generate_panel, homogeneous_spec, panel_to_csv
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


def test_cmd_test_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,y,x1\nA,1,oops,1.0\n")
    assert main(["test", "--input", str(bad), "--out", str(tmp_path)] + FAST) == 2


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


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PANELSCALE_ALPHA", "0.5")
    from panelscale.cli import build_parser

    args = build_parser().parse_args(
        ["test", "--input", "x.csv"]
    )
    assert args.alpha == 0.5


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["test", "--input", "x.csv", "--bogus", "1"])
