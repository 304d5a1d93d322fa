import numpy as np
import pytest

import oracles
from panelscale import Grid, GridError, build_grid_application, build_grid_custom
from panelscale.kernels import lambda_correction


def enumerate_application(T):
    """Independent enumeration of the published grid formulas."""
    h_lo = T ** (-1.0 / 3.0)
    H = []
    t = 1
    while (5 * t - 3) / T <= 0.25 + 1e-12:
        s = 5 * t - 3
        if s / T >= h_lo - 1e-12:
            H.append(s)
        t += 1
    points = set()
    for s in H:
        for tu in range(1, T + 1):
            if tu % 5 == 0 and tu - s >= 0 and tu + s <= T:
                points.add((tu, s))
    return points


@pytest.mark.parametrize("T", [70, 100, 205, 300, 513])
def test_application_grid_matches_enumeration(T):
    grid = build_grid_application(T)
    got = {(round(u * T), round(h * T)) for u, h in grid.points}
    assert got == enumerate_application(T)


@pytest.mark.parametrize("T", [70, 100, 205, 300, 513, 1000])
def test_application_grid_keeps_point_order(T):
    # point order feeds draws_cache_key and the column order of s_hat
    grid = build_grid_application(T)
    points = oracles.naive_application_points(T)
    assert grid.points == tuple(points)
    hs = [h for _, h in points]
    assert (grid.h_min, grid.h_max) == (min(hs), max(hs))
    np.testing.assert_array_equal(grid.u, [u for u, _ in points])
    np.testing.assert_array_equal(grid.h, hs)
    np.testing.assert_array_equal(grid.lam, [lambda_correction(h) for h in hs])
    lattice = [(round(u * T), round(h * T)) for u, h in points]
    np.testing.assert_array_equal(grid.lattice, lattice)
    assert grid.lattice.dtype == np.int64
    assert not grid.lam.flags.writeable and not grid.lattice.flags.writeable


def test_application_grid_T64_empty_band():
    # [64^(-1/3), 1/4] = {1/4} but no (5t-3)/64 equals 1/4
    with pytest.raises(GridError):
        build_grid_application(64)


def test_application_grid_T100_exact():
    grid = build_grid_application(100)
    hs = sorted(set(grid.h.tolist()))
    assert hs == [0.22]
    us = sorted(grid.u.tolist())
    assert us == [(25 + 5 * k) / 100 for k in range(11)]


def test_application_grid_T205_contains_37_over_205():
    grid = build_grid_application(205)
    assert any(round(h * 205) == 37 for h in grid.h)


def test_application_grid_too_small():
    with pytest.raises(GridError):
        build_grid_application(50)  # 50^(-1/3) > 1/4
    with pytest.raises(GridError):
        build_grid_application(19)


def test_custom_grid_quarter_band():
    grid = build_grid_custom(100, 10, [0.25])
    assert sorted(grid.u.tolist()) == [0.3, 0.4, 0.5, 0.6, 0.7]
    assert grid.n_points == 5


def test_custom_grid_11_points():
    grid = build_grid_custom(100, 5, [0.24])
    assert grid.n_points == 11
    assert min(grid.u) == 0.25 and max(grid.u) == 0.75


def test_custom_grid_bounds_enforced():
    with pytest.raises(GridError, match="1/4"):
        build_grid_custom(100, 10, [0.3])
    with pytest.raises(GridError, match="minimal"):
        build_grid_custom(100, 10, [0.2])  # below 100^(-1/3) ~ 0.215
    with pytest.raises(GridError, match="multiple"):
        build_grid_custom(100, 10, [0.2401])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_grid_values_refused_by_name(value):
    # a GridError naming the value, not the OverflowError or ValueError of
    # rounding it onto the 1/T lattice
    with pytest.raises(GridError, match=rf"^h={value} must be finite$"):
        build_grid_custom(300, 5, [value])
    with pytest.raises(GridError, match=rf"^u={value} must be finite$"):
        Grid(points=((value, 0.1),), T=300, h_min=0.1, h_max=0.1)
    with pytest.raises(GridError, match=rf"^h={value} must be finite$"):
        Grid(points=((0.5, value),), T=300, h_min=0.1, h_max=0.1)


def test_grid_invariants_on_random_T():
    rng = np.random.default_rng(7)
    for T in rng.integers(64, 800, size=12):
        T = int(T)
        try:
            grid = build_grid_application(T)
        except GridError:
            # small T can have no integer of the form 5t-3 in [T^(2/3), T/4]
            assert not enumerate_application(T)
            continue
        assert grid.n_points <= T * T
        for u, h in grid.points:
            assert u - h >= -1e-12 and u + h <= 1 + 1e-12
            assert h <= 0.25 + 1e-12
            assert abs(u * T - round(u * T)) < 1e-6
            assert abs(h * T - round(h * T)) < 1e-6
        assert len(set(grid.points)) == grid.n_points


def test_direct_grid_validation():
    # micro grids may ignore the T^(-1/3) floor but not containment or the cap
    g = Grid(points=((0.5, 0.25), (0.25, 0.125)), T=24, h_min=0.125, h_max=0.25)
    assert g.n_points == 2
    with pytest.raises(GridError):
        Grid(points=((0.1, 0.25),), T=24, h_min=0.25, h_max=0.25)  # leaves [0,1]
    with pytest.raises(GridError):
        Grid(points=((0.5, 0.3),), T=10, h_min=0.3, h_max=0.3)  # h cap
    with pytest.raises(GridError):
        Grid(points=((0.5, 0.25), (0.5, 0.25)), T=24, h_min=0.25, h_max=0.25)
    with pytest.raises(GridError):
        Grid(points=(), T=24, h_min=0.1, h_max=0.25)
