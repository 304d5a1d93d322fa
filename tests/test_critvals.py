import hashlib
import math
import os
import stat
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import panelscale
from panelscale import (
    Grid,
    QuantileError,
    SmoothingKernel,
    build_grid_application,
    build_grid_custom,
    critical_value,
    gaussian_critical_value,
    generate_panel,
    panel_to_csv,
    planted_bump_spec,
    simulate_phi,
)
from panelscale import critvals, kernels
from panelscale.critvals import draws_cache_key, load_draws, save_draws
from panelscale.kernels import lambda_correction

import oracles

KERN = SmoothingKernel("epanechnikov")


def single_point_grid(T=100):
    return build_grid_custom(T, T // 2, [0.25])


def test_single_point_folded_normal_mean():
    # variance of (1/sqrt(Th)) sum (Z_i - Z_j) K_t is (2/(Th)) sum K^2
    T = 100
    grid = single_point_grid(T)
    assert grid.n_points == 1
    w = np.array(oracles.naive_weights("epanechnikov", T, 0.5, 0.25))
    v = 2.0 * (w**2).sum() / (T * 0.25)
    B = 4000
    draws = simulate_phi(T, 2, 1, grid, KERN, B, seed=123)
    lam = lambda_correction(0.25)
    mean = (draws + lam).mean()
    expected = oracles.folded_normal_mean(v)
    se = math.sqrt(v * (1.0 - 2.0 / math.pi) / B)
    assert abs(mean - expected) < 3.0 * se


def test_lambda_floor_on_admissible_grids():
    # h <= 1/4 forces lambda >= sqrt(2 log 2) at every gridpoint
    grid = build_grid_custom(100, 10, [0.22, 0.25])
    lams = [lambda_correction(h) for h in grid.h]
    assert min(lams) >= math.sqrt(2.0 * math.log(2.0)) - 1e-12


def test_simulate_phi_deterministic():
    grid = single_point_grid()
    a = simulate_phi(100, 2, 1, grid, KERN, 200, seed=9)
    b = simulate_phi(100, 2, 1, grid, KERN, 200, seed=9)
    np.testing.assert_array_equal(a, b)


def test_simulate_phi_worker_invariance():
    grid = build_grid_custom(100, 10, [0.22, 0.25])
    a = simulate_phi(100, 3, 2, grid, KERN, 150, seed=5, n_workers=1)
    b = simulate_phi(100, 3, 2, grid, KERN, 150, seed=5, n_workers=8)
    np.testing.assert_array_equal(a, b)


def test_simulate_phi_prefix_independent_of_B():
    # N=3, D=2 blocks 21 draws, so draws 84..99 sit in a short last block
    # at B=100 and in a full one at B=130
    grid = build_grid_custom(100, 10, [0.22, 0.25])
    short = simulate_phi(100, 3, 2, grid, KERN, 100, seed=4)
    longer = simulate_phi(100, 3, 2, grid, KERN, 130, seed=4)
    np.testing.assert_array_equal(longer[:100], short)


def test_multi_draw_blocks_match_einsum_for_any_workers_and_B():
    # N*D = 36 is over _BLOCK_COLUMNS / 4, so a block holds _BLOCK_DRAWS = 4
    # draws: at B=103 draws 100..102 sit in a zero-padded short last block,
    # and in a full one at B=104
    grid = build_grid_application(150)
    assert max(critvals._BLOCK_DRAWS, critvals._BLOCK_COLUMNS // 36) == 4
    short = simulate_phi(150, 12, 3, grid, KERN, 103, seed=6, n_workers=1)
    ref = oracles.naive_gaussian_draws(150, 12, 3, grid.u, grid.h, KERN.kind, 103, 6)
    np.testing.assert_allclose(short, ref, rtol=0.0, atol=1e-5)
    for workers in (2, 8):
        np.testing.assert_array_equal(
            simulate_phi(150, 12, 3, grid, KERN, 103, seed=6, n_workers=workers), short
        )
    longer = simulate_phi(150, 12, 3, grid, KERN, 104, seed=6, n_workers=2)
    np.testing.assert_array_equal(longer[:103], short)


def test_pair_range_equals_pair_max():
    rng = np.random.default_rng(12)
    for N in (2, 3, 7):
        sums = rng.standard_normal((9, N, 11)) * 10.0 ** rng.integers(-3, 4, (9, N, 11))
        sums[0, 1] = sums[0, 0]  # ties
        np.testing.assert_array_equal(
            critvals._max_pair_gap(sums), oracles.naive_pair_gap(sums)
        )


@pytest.mark.parametrize("T,grid", [
    (100, build_grid_custom(100, 10, [0.22, 0.25])),
    # over 256 periods: two blocks of window sums
    (300, build_grid_application(300)),
])
def test_draws_match_per_draw_einsum(T, grid):
    # the window sums are float32: within 1e-5 of float64 sums of the same
    # normals
    got = simulate_phi(T, 3, 2, grid, KERN, 100, seed=8, n_workers=2)
    ref = oracles.naive_gaussian_draws(T, 3, 2, grid.u, grid.h, KERN.kind, 100, 8)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("seed", [0, 5])
def test_draw_generator_matches_jumped_philox(seed):
    # the counter set through .state must give Philox(key=seed).jumped(b)'s
    # stream, across the 64-bit word boundary of the jump count too
    gen, move_to = critvals._philox_draws(seed)
    for b in (0, 1, 7, 999, 2**64 + 3):
        move_to(b)
        got = gen.standard_normal(64)
        ref = oracles.jumped_generator(seed, b).standard_normal(64)
        np.testing.assert_array_equal(got, ref)


# sha256 of simulate_phi(T, N, D, application grid, Epanechnikov, B=200,
# seed=7) as little-endian float64, taken when the window sums became float32
# (draw cache format 4); the same under 1, 2 and 3 BLAS threads
PINNED_DRAWS = {
    (5, 300, 2): "7c73d7b1394c1e1a5aa2f684d4ee3a97a061c24b5e62511465a590bfbd2a15b2",
    (4, 200, 3): "19d7ab6432ebf751407ed242c3b4d48b5546b3142ea1c5682226dbdbd4ee5822",
}


@pytest.mark.parametrize("shape", sorted(PINNED_DRAWS))
def test_simulate_phi_bytes_pinned(shape):
    N, T, D = shape
    phi = simulate_phi(T, N, D, build_grid_application(T), KERN, 200, seed=7)
    digest = hashlib.sha256(np.asarray(phi, dtype="<f8").tobytes()).hexdigest()
    assert digest == PINNED_DRAWS[shape]


def test_simulate_phi_repeat_calls_equal():
    # the draws scale the shared W into a float32 copy of their own: the
    # shared array keeps weights_matrix's bits, and the draws are the same
    # whether they build W themselves or find it held by a caller
    grid = build_grid_application(100)
    a = simulate_phi(100, 3, 2, grid, KERN, 100, seed=2)
    W = kernels._shared_weights(KERN, 100, grid.u, grid.h)
    b = simulate_phi(100, 3, 2, grid, KERN, 100, seed=2)
    np.testing.assert_array_equal(W, kernels.weights_matrix(KERN, 100, grid.u, grid.h))
    np.testing.assert_array_equal(a, b)


def test_outputs_identical_across_blas_threads(tmp_path):
    # a single GEMM over all T=500 periods rounds differently under 1 and 2
    # OpenBLAS threads; the blocked window sums must not
    spec = planted_bump_spec(
        N=4, T=500, D=2, seed=5, center=0.5, width=0.3, height=1.5
    )
    panel, _ = generate_panel(spec)
    src = tmp_path / "panel.csv"
    panel_to_csv(panel, src, "long")
    package_root = str(Path(panelscale.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        subprocess.run(
            [sys.executable, "-m", "panelscale.cli", "test", "--input", str(src),
             "--out", str(out), "--B", "100", "--seed", "3", "--emit-plot-data",
             "--crit-cache", str(tmp_path / f"draws{threads}.bin")],
            env=env, check=True, capture_output=True, timeout=600,
        )
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        # the cold cache holds every draw, not only the one q_alpha reports
        files["draws.bin"] = (tmp_path / f"draws{threads}.bin").read_bytes()
        outputs.append(files)
    assert {"result.json", "curves_u1.csv"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


def test_simulate_phi_requires_minimum_draws():
    with pytest.raises(ValueError, match="B="):
        simulate_phi(100, 2, 1, single_point_grid(), KERN, 50, seed=1)


def test_grid_for_another_T_rejected(tmp_path):
    grid = build_grid_custom(300, 30, [0.25])
    with pytest.raises(ValueError, match=r"T=300, not T=200"):
        simulate_phi(200, 2, 1, grid, KERN, 100, seed=1)
    with pytest.raises(ValueError, match=r"T=300, not T=200"):
        gaussian_critical_value(
            200, 2, 1, grid, KERN, 100, 1, 0.1, cache_path=tmp_path / "draws.bin"
        )
    assert not (tmp_path / "draws.bin").exists()


def test_critical_value_order_statistic():
    cv = critical_value(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), alpha=0.2)
    assert cv.q == 4.0


def test_critical_value_constant_draws():
    cv = critical_value(np.full(100, 2.5), alpha=0.05)
    assert cv.q == 2.5


def test_critical_value_uniform_quantile():
    rng = np.random.default_rng(3)
    draws = rng.uniform(0, 1, size=10000)
    cv = critical_value(draws, alpha=0.05)
    assert abs(cv.q - 0.95) < 0.01


def test_critical_value_matches_hand_count():
    rng = np.random.default_rng(4)
    for alpha in (0.5, 0.13, 0.05, 0.011):
        draws = rng.standard_normal(997)
        cv = critical_value(draws, alpha=alpha)
        assert cv.q == oracles.naive_quantile_ceiling(draws, alpha)


def test_critical_value_integer_boundary_not_fuzzed():
    # (1-0.05)*2000 = 1900 exactly; float fuzz must not bump the rank to 1901
    draws = np.arange(2000, dtype=float)
    cv = critical_value(draws, alpha=0.05)
    assert cv.q == 1899.0  # 1900th smallest, 1-based


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_critical_value_refuses_non_finite_draws(bad):
    draws = np.arange(100, dtype=float)
    draws[7] = bad
    with pytest.raises(ValueError, match="draws must be finite"):
        critical_value(draws, alpha=0.05)


def test_critical_value_requires_enough_draws():
    with pytest.raises(QuantileError):
        critical_value(np.arange(10, dtype=float), alpha=0.05)


def test_q_monotone_in_alpha():
    rng = np.random.default_rng(5)
    draws = rng.standard_normal(2000)
    qs = [critical_value(draws, a).q for a in (0.2, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_empirical_cdf_at_q_covers_level():
    rng = np.random.default_rng(6)
    for alpha in (0.3, 0.05, 0.013):
        draws = rng.standard_normal(500)
        cv = critical_value(draws, alpha)
        assert (draws <= cv.q).mean() >= 1.0 - alpha


def test_draw_cache_roundtrip(tmp_path):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 200, 9)
    draws = simulate_phi(100, 2, 1, grid, KERN, 200, seed=9)
    path = tmp_path / "draws.bin"
    save_draws(path, key, draws)
    np.testing.assert_array_equal(load_draws(path, key), draws)
    other = draws_cache_key(100, 2, 1, grid, KERN, 200, 10)
    assert load_draws(path, other) is None
    assert load_draws(tmp_path / "missing.bin", key) is None


def test_draw_cache_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 200, 9)
    draws = simulate_phi(100, 2, 1, grid, KERN, 200, seed=9)
    path = tmp_path / "draws.bin"
    save_draws(path, key, draws)

    def fail(*args):
        raise OSError("disk full")

    # the header is packed after the magic and the key are written: midway
    monkeypatch.setattr(critvals, "struct", types.SimpleNamespace(pack=fail))
    with pytest.raises(OSError, match="disk full"):
        save_draws(path, key, draws[::-1])
    monkeypatch.undo()
    np.testing.assert_array_equal(load_draws(path, key), draws)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["draws.bin"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_draw_cache_mode_follows_umask(tmp_path, umask, mode):
    # the mode open(path, "wb") gives, 0o666 less the umask
    path = tmp_path / "draws.bin"
    old = os.umask(umask)
    try:
        save_draws(path, b"key", np.arange(3.0))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    np.testing.assert_array_equal(load_draws(path, b"key"), np.arange(3.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["draws.bin"]


def test_gaussian_critical_value_uses_cache(tmp_path):
    grid = single_point_grid()
    path = tmp_path / "cache.bin"
    cv1 = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert path.exists()
    cv2 = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert cv1.q == cv2.q
    np.testing.assert_array_equal(cv1.phi_draws, cv2.phi_draws)


def test_cache_with_another_draw_count_recomputed(tmp_path, monkeypatch):
    # a key that matches but fewer draws than B: simulated afresh and rewritten
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    path = tmp_path / "cache.bin"
    save_draws(path, key, np.full(120, 7.0))
    calls = []
    simulate = critvals.simulate_phi
    monkeypatch.setattr(critvals, "simulate_phi", lambda *a: calls.append(a) or simulate(*a))
    cv = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert len(calls) == 1
    expected = simulate(100, 2, 1, grid, KERN, 150, 3)
    np.testing.assert_array_equal(cv.phi_draws, expected)
    np.testing.assert_array_equal(load_draws(path, key), expected)


def _check_older_magic_recomputed(tmp_path, magic):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    path = tmp_path / "cache.bin"
    stale = np.full(150, 7.0)
    save_draws(path, key, stale)
    blob = path.read_bytes()
    assert blob.startswith(critvals._CACHE_MAGIC) and critvals._CACHE_MAGIC != magic
    # the same file as an older format wrote it: old magic, matching key
    path.write_bytes(magic + blob[len(critvals._CACHE_MAGIC):])
    assert load_draws(path, key) is None
    cv = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert path.read_bytes().startswith(critvals._CACHE_MAGIC)
    np.testing.assert_array_equal(load_draws(path, key), cv.phi_draws)
    np.testing.assert_array_equal(
        cv.phi_draws, simulate_phi(100, 2, 1, grid, KERN, 150, seed=3)
    )


def test_cache_of_older_format_recomputed(tmp_path):
    # format 1 summed the draws in another order
    _check_older_magic_recomputed(tmp_path, b"PSCV\x01")


def test_cache_of_version_3_recomputed(tmp_path):
    # format 3 took the window sums in float64
    _check_older_magic_recomputed(tmp_path, b"PSCV\x03")


def test_cache_key_is_the_exact_parameter_bytes():
    # the bytes that keyed caches already written, which must still hit
    grids = [build_grid_custom(100, 10, [0.22, 0.25])]
    grids += [build_grid_application(T) for T in (89, 150, 300)]
    for grid in grids:
        T = grid.T
        key = draws_cache_key(T, 3, 2, grid, KERN, 200, 9)
        lattice = b"".join(struct.pack("<2q", t, s) for t, s in [
            (round(u * T), round(h * T)) for u, h in grid.points
        ])
        assert key == struct.pack("<5q", T, 3, 2, 200, 9) + b"epanechnikov" + lattice
        assert len(lattice) == 16 * grid.n_points


def test_cache_key_changes_with_every_parameter():
    grid = build_grid_custom(100, 10, [0.22, 0.25])
    reordered = Grid(
        points=grid.points[::-1], T=grid.T, h_min=grid.h_min, h_max=grid.h_max
    )
    base = dict(T=100, N=3, D=2, grid=grid, kernel=KERN, B=200, seed=9)
    changes = [
        {}, {"T": 101}, {"N": 4}, {"D": 3}, {"B": 201}, {"seed": 10},
        {"kernel": SmoothingKernel("biweight")}, {"grid": reordered},
    ]
    keys = {draws_cache_key(**{**base, **change}) for change in changes}
    assert len(keys) == len(changes)


def test_cache_needs_the_whole_key(tmp_path):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    draws = np.arange(150, dtype=float)
    path = tmp_path / "draws.bin"
    save_draws(path, key, draws)
    assert load_draws(path, key[:-1] + bytes([key[-1] ^ 1])) is None
    assert load_draws(path, key[:-1]) is None
    assert load_draws(path, key + b"\0") is None
    np.testing.assert_array_equal(load_draws(path, key), draws)


def test_truncated_cache_is_a_miss(tmp_path):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    path = tmp_path / "draws.bin"
    save_draws(path, key, np.arange(150, dtype=float))
    blob = path.read_bytes()
    head = len(critvals._CACHE_MAGIC) + 8 + len(key) + 8
    # inside the magic, the key length, the key and the draw count, then
    # draws cut short, by a whole draw and mid-draw
    for size in (3, len(critvals._CACHE_MAGIC) + 4, head - 9, head - 1, head,
                 len(blob) - 8, len(blob) - 3):
        path.write_bytes(blob[:size])
        assert load_draws(path, key) is None, size


def test_non_finite_cache_is_a_miss(tmp_path):
    # a whole cache whose draws are not all finite is simulated again and
    # replaced, as a truncated one is: it never becomes a critical value
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    path = tmp_path / "draws.bin"
    clean = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    blob = path.read_bytes()
    head = len(blob) - 8 * 150
    for bad in (np.full(150, np.nan), np.r_[clean.phi_draws[:-1], np.inf]):
        path.write_bytes(blob[:head] + bad.tobytes())
        assert load_draws(path, key) is None
        cv = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
        assert cv.q == clean.q
        assert path.read_bytes() == blob


def test_cache_of_version_2_recomputed(tmp_path):
    grid = single_point_grid()
    key = draws_cache_key(100, 2, 1, grid, KERN, 150, 3)
    path = tmp_path / "cache.bin"
    # the previous format: magic, SHA-256 of the same parameter bytes, count
    stale = np.full(150, 7.0)
    path.write_bytes(
        b"PSCV\x02" + hashlib.sha256(key).digest() + struct.pack("<Q", 150)
        + stale.tobytes()
    )
    assert load_draws(path, key) is None
    cv = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    np.testing.assert_array_equal(
        cv.phi_draws, simulate_phi(100, 2, 1, grid, KERN, 150, seed=3)
    )
    header = critvals._CACHE_MAGIC + struct.pack("<Q", len(key)) + key
    assert path.read_bytes().startswith(header)
    np.testing.assert_array_equal(load_draws(path, key), cv.phi_draws)


def test_pivotality_signature():
    # the simulation interface admits no panel data at all
    import inspect

    params = inspect.signature(simulate_phi).parameters
    assert "panel" not in params and "y" not in params
