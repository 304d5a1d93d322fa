import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

from panelscale import (
    Bump,
    Constant,
    DgpSpec,
    Grid,
    GroundTruth,
    HacConfig,
    Linear,
    Sine,
    build_grid_custom,
    generate_panel,
    homogeneous_spec,
    mixed_heterogeneity_spec,
    planted_bump_spec,
    run_cluster_experiment,
    run_fwer_experiment,
    run_power_experiment,
    run_size_experiment,
    separation_height,
    two_group_spec,
)
from panelscale import kernels, lrv, simulate
from panelscale.simulate import load_experiment_config, run_from_config

import oracles


def test_bump_shape():
    b = Bump(center=0.5, width=0.2, height=2.0)
    u = np.array([0.5, 0.41, 0.59, 0.4, 0.6, 0.375, 0.625, 0.35, 0.65, 0.0])
    vals = b.eval(u)
    # plateau at full height, shoulders linear, zero outside support
    np.testing.assert_allclose(vals[:3], 2.0)
    np.testing.assert_allclose(vals[3:5], 2.0)
    np.testing.assert_allclose(vals[5:7], 1.0)
    np.testing.assert_allclose(vals[7:], 0.0)


# Bump's cases keep the bare field as their id
CURVE_FIELDS = [
    (Bump, "center"), (Bump, "width"), (Bump, "height"), (Constant, "level"),
    (Linear, "intercept"), (Linear, "slope"), (Sine, "amplitude"),
    (Sine, "cycles"), (Sine, "phase"), (Sine, "level"),
]


@pytest.mark.parametrize(
    "curve, field", CURVE_FIELDS,
    ids=[f if c is Bump else f"{c.__name__.lower()}-{f}" for c, f in CURVE_FIELDS],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bump_refuses_non_finite_fields(curve, field, value):
    kind = curve.__name__.lower()
    with pytest.raises(ValueError, match=f"{kind} {field} .* must be finite"):
        curve(**{field: value})


@pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -1.0])
def test_dgp_refuses_non_finite_or_negative_noise(noise_sd):
    with pytest.raises(ValueError, match="^noise_sd .* must be finite and nonnegative$"):
        homogeneous_spec(3, 100, 2, seed=1, noise_sd=noise_sd)


def test_bump_is_lipschitz():
    b = Bump(center=0.4, width=0.2, height=3.0)
    u = np.linspace(0, 1, 20001)
    v = b.eval(u)
    slope = np.abs(np.diff(v)).max() * (len(u) - 1)
    assert slope <= 4.0 * 3.0 / 0.2 + 1e-6


def equal_on(a, b, lo, hi):
    """One-interval call of the batched equality, checked against the oracle."""
    got = simulate._equal_on_intervals(a, b, np.array([lo]), np.array([hi]))
    assert got.shape == (1,)
    assert bool(got[0]) == oracles.naive_curves_equal_on(a, b, lo, hi)
    return bool(got[0])


def test_curve_equality_structural():
    flat = Constant(0.0)
    assert equal_on(flat, Constant(0.0), 0.0, 1.0)
    assert not equal_on(flat, Constant(1.0), 0.0, 1.0)
    assert equal_on(flat, Linear(0.0, 0.0), 0.2, 0.8)
    assert not equal_on(flat, Linear(0.0, 0.1), 0.2, 0.8)
    assert equal_on(flat, Sine(amplitude=0.0, level=0.0), 0.0, 1.0)
    assert not equal_on(flat, Sine(amplitude=0.5), 0.1, 0.9)


def test_curve_equality_bump_support():
    bump = Bump(center=0.5, width=0.2, height=1.0)  # support (0.35, 0.65)
    flat = Constant(0.0)
    assert equal_on(bump, flat, 0.0, 0.35)   # touches the edge only
    assert equal_on(bump, flat, 0.65, 1.0)
    assert not equal_on(bump, flat, 0.3, 0.4)
    assert not equal_on(bump, flat, 0.45, 0.55)
    assert equal_on(bump, Bump(0.5, 0.2, 1.0), 0.0, 1.0)


def test_zero_noise_reproduces_signal():
    spec = DgpSpec(
        n_units=2,
        n_time=50,
        n_covariates=2,
        curves=(
            (Constant(1.0), Linear(0.0, 2.0)),
            (Constant(1.0), Linear(0.0, 2.0)),
        ),
        seed=1,
        noise_sd=0.0,
    )
    panel, _ = generate_panel(spec)
    u = np.arange(1, 51) / 50
    beta = np.column_stack([np.ones(50), 2.0 * u])
    expected = np.einsum("td,td->t", panel.x, beta)
    np.testing.assert_allclose(panel.y[0], expected, atol=1e-14)
    np.testing.assert_array_equal(panel.y[0], panel.y[1])


def test_iid_errors_when_a_zero():
    spec = dataclasses.replace(homogeneous_spec(2, 2000, 1, seed=3), ar_coef=0.0)
    panel, _ = generate_panel(spec)
    eps = panel.y[0] - 0.0  # flat curve, x intercept-only for D=1
    r1 = np.corrcoef(eps[:-1], eps[1:])[0, 1]
    assert abs(r1) < 3.0 / np.sqrt(2000)


def test_fixed_seed_bit_identical():
    spec = homogeneous_spec(3, 40, 2, seed=11)
    a, _ = generate_panel(spec)
    b, _ = generate_panel(spec)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.x, b.x)


def test_ar_coefficient_validated():
    with pytest.raises(ValueError, match="AR"):
        dataclasses.replace(homogeneous_spec(2, 40, 1, seed=0), ar_coef=1.0)


def test_ground_truth_m0_mask():
    spec = mixed_heterogeneity_spec(T=100, D=1, seed=0, height=1.0)
    truth = GroundTruth(curves=spec.curves)
    grid = build_grid_custom(100, 10, [0.25])
    pairs = ((0, 1), (0, 2), (3, 4))
    mask = truth.m0_mask(grid, pairs)
    # homogeneous pair (3,4): every local null true
    assert mask[2].all()
    # pair (0,1): bumps at 0.25 and 0.75 differ on most windows
    assert not mask[0].all()
    # pair (0,2): intervals far from the first bump's support are null
    for g, (u, h) in enumerate(grid.points):
        lo, hi = u - h, u + h
        support = (0.25 - 0.12, 0.25 + 0.12)
        expected = hi <= support[0] or lo >= support[1]
        assert mask[1][g] == expected


M0_CURVES = (
    Constant(0.0),
    Constant(1.0),
    Linear(0.0, 0.0),  # equal to Constant(0.0)
    Linear(0.2, 1.0),
    Linear(-0.3, 2.0),  # crosses Linear(0.2, 1.0) at u = 0.5
    Sine(amplitude=1.0),
    Sine(amplitude=0.0, level=1.0),  # equal to Constant(1.0)
    Bump(center=0.5, width=0.2, height=1.0),
    Bump(center=0.3, width=0.1, height=0.5),
    Bump(center=0.5, width=0.2, height=0.0),  # equal to Constant(0.0)
)


@pytest.mark.parametrize(
    "name, curves",
    [
        ("bump", planted_bump_spec(6, 100, 2, seed=1, center=0.4, width=0.2,
                                   height=1.0).curves),
        ("mixed", mixed_heterogeneity_spec(T=100, D=2, seed=0, height=1.0).curves),
        ("linear", tuple((c,) for c in M0_CURVES[:5])),
        ("sine", ((Sine(),), (Sine(),), (Sine(phase=0.5),), (Constant(0.0),),
                  (Sine(amplitude=0.0),))),
        ("all_shapes",
         tuple((c, M0_CURVES[k % 3]) for k, c in enumerate(M0_CURVES))),
    ],
)
def test_m0_mask_matches_per_gridpoint_loop(name, curves):
    truth = GroundTruth(curves=curves)
    pairs = tuple(
        (i, j) for i in range(len(curves)) for j in range(i + 1, len(curves))
    )
    # u steps of 1/T put interval ends on every breakpoint of the lattice
    for step, widths in ((1, (5, 10, 25)), (5, (2, 15))):
        points = tuple(
            (t / 100, s / 100) for s in widths for t in range(s, 101 - s, step)
        )
        grid = Grid(points=points, T=100, h_min=min(widths) / 100,
                    h_max=max(widths) / 100)
        np.testing.assert_array_equal(
            truth.m0_mask(grid, pairs), oracles.naive_m0_mask(curves, grid, pairs)
        )


def test_true_partition_from_assignment():
    spec = two_group_spec(T=100, D=1, seed=0, height=1.0, group_sizes=(2, 3))
    truth = GroundTruth(curves=spec.curves, group_assignment=spec.group_assignment)
    assert truth.true_partition() == {frozenset({0, 1}), frozenset({2, 3, 4})}


def test_true_partition_from_curves():
    # without an assignment, units whose curve tuples are equal share a group
    a, b = (Constant(0.0), Sine()), (Constant(0.0), Sine(phase=0.5))
    truth = GroundTruth(curves=(a, b, a, (Constant(1.0), Sine()), b))
    assert truth.true_partition() == {
        frozenset({0, 2}), frozenset({1, 4}), frozenset({3})
    }


def test_sine_eval():
    u = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
    got = Sine(amplitude=2.0, cycles=2.0, level=1.0).eval(u)
    np.testing.assert_allclose(got, [1.0, 3.0, 1.0, -1.0, 1.0], atol=1e-12)
    shifted = Sine(phase=np.pi / 2).eval(u)  # a cosine
    np.testing.assert_allclose(shifted, np.cos(2.0 * np.pi * u), atol=1e-12)


def test_separation_height_formula():
    T, h, c = 300, 0.2, 5.0
    assert separation_height(T, h, c) == pytest.approx(
        c * np.sqrt(np.log(T) / (T * h))
    )


def smoke_grid(T):
    return build_grid_custom(T, T // 10, [0.25])


def test_size_experiment_smoke():
    spec = homogeneous_spec(N=2, T=100, D=1, seed=5)
    rep = run_size_experiment(
        spec, alpha=0.5, B=120, R=8, grid=smoke_grid(100), n_workers=2
    )
    assert rep.experiment == "size"
    assert rep.replications == 8
    assert 0.0 <= rep.rejection_rate <= 1.0
    assert rep.rejection_se >= 0.0


def test_size_experiment_requires_homogeneous_curves():
    spec = planted_bump_spec(2, 100, 1, seed=5, center=0.5, width=0.3, height=1.0)
    with pytest.raises(ValueError, match="share"):
        run_size_experiment(spec, alpha=0.1, B=120, R=2)


def test_size_experiment_alpha_half_sanity():
    # at alpha=0.5 the rejection rate should sit near 1/2 (3 binomial SEs)
    spec = homogeneous_spec(N=2, T=100, D=1, seed=21, ar_coef=0.0)
    R = 120
    rep = run_size_experiment(
        spec, alpha=0.5, B=400, R=R, grid=smoke_grid(100), n_workers=4
    )
    assert abs(rep.rejection_rate - 0.5) <= 3.0 * np.sqrt(0.25 / R)


def test_power_zero_scale_reduces_to_size():
    spec = planted_bump_spec(2, 100, 1, seed=9, center=0.5, width=0.5, height=3.0)
    rep = run_power_experiment(
        spec, scales=[0.0], alpha=0.5, B=120, R=6, grid=smoke_grid(100)
    )
    entry = rep.power_curve[0]
    assert entry["signal_scale"] == 0.0
    assert entry["planted_pair_rate"] == 0.0  # no heterogeneous pair exists


def test_power_large_scale_rejects():
    h = 0.25
    height = separation_height(100, h, 8.0)
    spec = planted_bump_spec(
        2, 100, 1, seed=10, center=0.5, width=2 * h, height=height
    )
    rep = run_power_experiment(
        spec, scales=[1.0], alpha=0.05, B=200, R=6, grid=smoke_grid(100)
    )
    assert rep.power_curve[0]["rejection_rate"] == 1.0
    assert rep.power_curve[0]["planted_pair_rate"] == 1.0


def test_fwer_fully_homogeneous_equals_size_logic():
    spec = homogeneous_spec(N=3, T=100, D=1, seed=12)
    rep = run_fwer_experiment(
        spec, alpha=0.5, B=120, R=6, grid=smoke_grid(100)
    )
    size = run_size_experiment(
        spec, alpha=0.5, B=120, R=6, grid=smoke_grid(100)
    )
    assert rep.fwer_estimate == size.rejection_rate


def test_experiment_reproducible():
    spec = homogeneous_spec(N=2, T=100, D=1, seed=30)
    a = run_size_experiment(spec, alpha=0.5, B=120, R=6, grid=smoke_grid(100))
    b = run_size_experiment(
        spec, alpha=0.5, B=120, R=6, grid=smoke_grid(100), n_workers=4
    )
    assert a.rejection_rate == b.rejection_rate
    assert a.extras["q_alpha"] == b.extras["q_alpha"]


def _record_workers(monkeypatch) -> list[int]:
    """Record the worker count of every replication fan-out, then run it."""
    seen: list[int] = []
    real = simulate.ordered_map

    def recorder(task, items, n_workers):
        seen.append(n_workers)
        return real(task, items, n_workers)

    monkeypatch.setattr(simulate, "ordered_map", recorder)
    return seen


@pytest.mark.parametrize(
    "shape, expected",
    [((5, 300, 2), 1), ((20, 300, 2), 1), ((5, 500, 2), 3)],
    ids=["paper-shape-serial", "twenty-units-serial", "above-crossover-threaded"],
)
def test_replications_use_threads_only_above_the_crossover(monkeypatch, shape, expected):
    # two sub-block passes, about 1.7 MiB at (5, 300, 2), 4.6 MiB at
    # (20, 300, 2) and 1.3 MiB at (5, 500, 2), against the draws' float32
    # grid weights: 0.25, 0.25 and 1.42 MiB
    seen = _record_workers(monkeypatch)
    run_size_experiment(homogeneous_spec(*shape, seed=2), alpha=0.5, B=100, R=2,
                        n_workers=3)
    assert seen == [expected]


def test_threaded_replications_match_serial(monkeypatch):
    # the tiny shapes above never reach the thread pool; force it
    monkeypatch.setattr(simulate, "_replication_workers", lambda n_workers, *_: n_workers)
    seen = _record_workers(monkeypatch)
    size_spec = homogeneous_spec(N=3, T=100, D=1, seed=31)
    cluster_spec = two_group_spec(T=100, D=1, seed=32, height=3.0, group_sizes=(2, 2))
    for run, spec in ((run_size_experiment, size_spec),
                      (run_cluster_experiment, cluster_spec)):
        serial, threaded = (
            run(spec, alpha=0.5, B=120, R=6, grid=smoke_grid(100), n_workers=w)
            for w in (1, 4)
        )
        assert threaded.to_dict() == serial.to_dict()
    assert seen == [1, 4, 1, 4]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_replications_share_one_build_of_each_weight_matrix(monkeypatch, n_workers):
    # a run holds its grid and pilot W from before its draws until it returns:
    # the draws and the replications of every power scale only look them up
    monkeypatch.setattr(simulate, "_replication_workers", lambda n_workers, *_: n_workers)
    seen = _record_workers(monkeypatch)
    built = []
    real = kernels.weights_matrix

    def counting(kernel, T, us, hs):
        W = real(kernel, T, us, hs)
        built.append((len(us), weakref.ref(W)))
        return W

    monkeypatch.setattr(kernels, "weights_matrix", counting)
    grid = smoke_grid(100)
    pilot_points = len(lrv._pilot_points(100, HacConfig().pilot_bandwidth)[0])
    bump = planted_bump_spec(N=3, T=100, D=1, seed=34, center=0.5, width=0.3, height=1.0)
    for run in (
        lambda: run_size_experiment(homogeneous_spec(N=3, T=100, D=1, seed=33), alpha=0.5,
                                    B=120, R=5, grid=grid, n_workers=n_workers),
        lambda: run_power_experiment(bump, [0.5, 1.0], alpha=0.5, B=120, R=3, grid=grid,
                                     n_workers=n_workers),
    ):
        built.clear()
        run()
        assert sorted(n for n, _ in built) == sorted([grid.n_points, pilot_points])
        assert all(ref() is None for _, ref in built)  # freed once the run returns
    assert seen == [n_workers] * 3


def test_config_parser(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        """# smoke experiment
experiment = size
T = 100
N = 2
D = 1
R = 2
B = 120
alpha = 0.5
seed = 4
"""
    )
    cfg = load_experiment_config(cfg_file)
    assert cfg["experiment"] == "size"
    assert cfg["T"] == 100 and cfg["B"] == 120


def test_config_parser_skips_a_byte_order_mark(tmp_path):
    text = "experiment = size\nN = 3\nscales = 0.5,1\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_experiment_config(marked) == load_experiment_config(plain)


def test_config_parser_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("experiment = size\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        load_experiment_config(cfg_file)


def test_readme_config_table_matches_config_keys():
    # the README's `simulate` key table: one row per key, in the code's order,
    # and every numeric default equal to the one the run takes
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | read by | meaning |\n", 1)[1]
    rows = [line.split("|")[1:3] for line in table.split("\n\n", 1)[0].splitlines()[1:]]
    documented = {key.strip(" `"): default.strip(" `") for key, default in rows}
    assert list(documented) == list(simulate._CONFIG_KEYS)
    defaults = simulate._config_defaults()
    numeric = {k: float(v) for k, v in documented.items() if _is_number(v)}
    assert numeric == {k: float(defaults[k]) for k in numeric}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_run_from_config_smoke(tmp_path):
    cfg = {
        "experiment": "size",
        "T": 100,
        "N": 2,
        "D": 1,
        "R": 2,
        "B": 120,
        "alpha": 0.5,
        "seed": 4,
    }
    rep = run_from_config(cfg)
    assert rep.replications == 2
    assert rep.rejection_rate in (0.0, 0.5, 1.0)


@pytest.mark.parametrize("ar_coef", [0.3, 0.0])
def test_generate_panel_matches_numpy_scalar_ar1(ar_coef):
    spec = dataclasses.replace(
        homogeneous_spec(4, 300, 3, seed=21), ar_coef=ar_coef
    )
    assert spec.covariate_model == "intercept_plus_ar1"
    panel, _ = generate_panel(spec)
    ref = oracles.naive_generate_panel(spec)
    np.testing.assert_array_equal(panel.x, ref.x)
    np.testing.assert_array_equal(panel.y, ref.y)


@pytest.mark.parametrize("covariate_model", ["intercept_plus_ar1", "iid_normal"])
@pytest.mark.parametrize("noise_sd", [0.0, 1.0])
@pytest.mark.parametrize("ar_coef", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("D", [1, 2, 3])
def test_generate_panel_matches_one_call_per_series(
    D, ar_coef, noise_sd, covariate_model, monkeypatch
):
    # a block's normals come from one generator call per panel and its AR(1)
    # series are stepped together; the bits must be those of one call per
    # series, one panel at a time
    spec = dataclasses.replace(
        planted_bump_spec(3, 50, D, seed=7 + D, center=0.5, width=0.2, height=1.0,
                          ar_coef=ar_coef, noise_sd=noise_sd),
        covariate_model=covariate_model,
    )
    n_x = 50 * (D - 1 if covariate_model == "intercept_plus_ar1" else D)
    n_z = n_x + (3 * 50 if noise_sd > 0.0 else 0)
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 2 * 8 * max(1, n_z))
    seeds = [spec.seed + r for r in range(5)]
    blocks = [stack(slice(0, n)) for n, stack in simulate._panel_blocks(spec, seeds)]
    assert [len(x) for x, _ in blocks] == [2, 2, 1]
    stacked = [(x[b], y[b]) for x, y in blocks for b in range(len(x))]
    for seed, (x, y) in zip(seeds, stacked):
        one = dataclasses.replace(spec, seed=seed)
        ref = oracles.naive_generate_panel(one)
        alone, _ = generate_panel(one)
        assert alone.unit_labels == ref.unit_labels
        for got_x, got_y in ((x, y), (alone.x, alone.y)):
            assert got_x.tobytes() == ref.x.tobytes()
            assert got_y.tobytes() == ref.y.tobytes()


@pytest.mark.parametrize(
    "run",
    [
        lambda spec, **kw: run_size_experiment(spec, **kw),
        lambda spec, **kw: run_power_experiment(spec, [1.0], **kw),
        lambda spec, **kw: run_fwer_experiment(spec, **kw),
        lambda spec, **kw: run_cluster_experiment(
            dataclasses.replace(spec, group_assignment=(0, 0, 1)), **kw),
    ],
    ids=["size", "power", "fwer", "cluster"],
)
def test_noiseless_spec_refused_before_any_draw(monkeypatch, run):
    # the statistic has no long-run covariance to normalise by; each runner
    # refuses before the B draws, not after them
    from panelscale import critvals

    def no_draws(*args, **kwargs):
        raise AssertionError("the critical value's draws were made")

    monkeypatch.setattr(critvals, "simulate_phi", no_draws)
    spec = homogeneous_spec(3, 100, 1, seed=1, noise_sd=0.0)
    with pytest.raises(ValueError, match=r"^noise_sd = 0.0 must be positive$"):
        run(spec, alpha=0.05, B=1000, R=3, grid=smoke_grid(100))
