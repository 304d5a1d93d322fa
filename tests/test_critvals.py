import math
import types

import numpy as np
import pytest

from panelscale import (
    QuantileError,
    SmoothingKernel,
    build_grid_custom,
    critical_value,
    gaussian_critical_value,
    simulate_phi,
)
from panelscale import critvals
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


def test_simulate_phi_requires_minimum_draws():
    with pytest.raises(ValueError, match="B="):
        simulate_phi(100, 2, 1, single_point_grid(), KERN, 50, seed=1)


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


def test_gaussian_critical_value_uses_cache(tmp_path):
    grid = single_point_grid()
    path = tmp_path / "cache.bin"
    cv1 = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert path.exists()
    cv2 = gaussian_critical_value(100, 2, 1, grid, KERN, 150, 3, 0.05, cache_path=path)
    assert cv1.q == cv2.q
    np.testing.assert_array_equal(cv1.phi_draws, cv2.phi_draws)


def test_pivotality_signature():
    # the simulation interface admits no panel data at all
    import inspect

    params = inspect.signature(simulate_phi).parameters
    assert "panel" not in params and "y" not in params
