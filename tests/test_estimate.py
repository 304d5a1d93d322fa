import weakref

import numpy as np
import pytest
from scipy.optimize import minimize

from panelscale import (
    Panel,
    SingularDesignError,
    SmoothingKernel,
    beta_hat,
    build_grid_application,
    coefficient_curve,
    compute_stat_table,
    local_design,
)
from panelscale import kernels
from panelscale.kernels import weights_matrix

import oracles

KERN = SmoothingKernel("epanechnikov")


def random_panel(rng, N=3, T=16, D=2):
    return Panel(
        y=rng.standard_normal((N, T)),
        x=rng.standard_normal((T, D)),
        unit_labels=tuple(f"u{i}" for i in range(N)),
    )


def test_design_intercept_reduction():
    # X identically one: m_xkx collapses to the scaled weight sum
    T = 12
    panel = Panel(
        y=np.arange(T, dtype=float)[None, :].repeat(2, axis=0),
        x=np.ones((T, 1)),
        unit_labels=("a", "b"),
    )
    design = local_design(panel, KERN, 0.5, 0.25)
    w = oracles.naive_weights("epanechnikov", T, 0.5, 0.25)
    assert design.m_xkx[0, 0] == pytest.approx(sum(w) / np.sqrt(T * 0.25), abs=1e-14)


def test_design_zero_window():
    rng = np.random.default_rng(0)
    panel = random_panel(rng, T=40)
    # u=0 with tiny h: every t/T lies beyond the support
    design = local_design(panel, KERN, 0.0, 1 / 40)
    assert np.all(design.m_xkx == 0.0)


def test_design_matches_double_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        panel = random_panel(rng, N=2, T=8, D=2)
        u, h = rng.uniform(0.3, 0.7), rng.uniform(0.15, 0.45)
        design = local_design(panel, KERN, u, h)
        m_ref, a_ref = oracles.naive_local_design(panel.x, panel.y, "epanechnikov", u, h)
        np.testing.assert_allclose(design.m_xkx, m_ref, atol=1e-12)
        np.testing.assert_allclose(design.xky, a_ref, atol=1e-12)


def test_beta_recovers_constant_coefficient():
    rng = np.random.default_rng(1)
    T, c = 30, 2.5
    x = rng.standard_normal((T, 1)) + 2.0
    panel = Panel(y=(c * x[:, 0])[None, :], x=x, unit_labels=("a",))
    for u, h in [(0.3, 0.2), (0.5, 0.4), (0.72, 0.25)]:
        beta = beta_hat(local_design(panel, KERN, u, h), 0)
        assert beta[0] == pytest.approx(c, abs=1e-10)


def test_beta_kernel_weighted_mean():
    rng = np.random.default_rng(2)
    T = 25
    y = rng.standard_normal(T)
    panel = Panel(y=y[None, :], x=np.ones((T, 1)), unit_labels=("a",))
    u, h = 0.4, 0.3
    beta = beta_hat(local_design(panel, KERN, u, h), 0)
    w = np.array(oracles.naive_weights("epanechnikov", T, u, h))
    assert beta[0] == pytest.approx((w * y).sum() / w.sum(), abs=1e-12)


def test_beta_matches_direct_criterion_minimizer():
    # generic-solver oracle for the weighted least squares criterion
    rng = np.random.default_rng(3)
    panel = random_panel(rng, N=1, T=12, D=2)
    u, h = 0.5, 0.3
    w = np.array(oracles.naive_weights("epanechnikov", 12, u, h))

    def criterion(beta):
        resid = panel.y[0] - panel.x @ beta
        return float((w * resid**2).sum())

    ref = minimize(criterion, np.zeros(2), method="Nelder-Mead", tol=1e-14).x
    beta = beta_hat(local_design(panel, KERN, u, h), 0)
    np.testing.assert_allclose(beta, ref, atol=1e-6)
    # first-order optimality of the closed form itself
    base = criterion(beta)
    for d in range(2):
        for sign in (+1, -1):
            e = np.zeros(2)
            e[d] = sign * 1e-4
            assert criterion(beta + e) >= base - 1e-12


def test_beta_equivariance():
    rng = np.random.default_rng(4)
    panel = random_panel(rng, N=2, T=20, D=2)
    u, h = 0.5, 0.3
    beta = beta_hat(local_design(panel, KERN, u, h), 0)
    scaled = Panel(y=3.0 * panel.y, x=panel.x, unit_labels=panel.unit_labels)
    np.testing.assert_allclose(
        beta_hat(local_design(scaled, KERN, u, h), 0), 3.0 * beta, rtol=1e-12
    )
    shift = np.array([0.7, -1.2])
    shifted = Panel(
        y=panel.y + panel.x @ shift, x=panel.x, unit_labels=panel.unit_labels
    )
    np.testing.assert_allclose(
        beta_hat(local_design(shifted, KERN, u, h), 0), beta + shift, atol=1e-10
    )


def test_singular_design_raises():
    # collinear covariates make the window rank deficient
    rng = np.random.default_rng(5)
    base = rng.standard_normal(20)
    x = np.column_stack([base, 2.0 * base])
    panel = Panel(y=rng.standard_normal((1, 20)), x=x, unit_labels=("a",))
    with pytest.raises(SingularDesignError, match="u=0.5"):
        beta_hat(local_design(panel, KERN, 0.5, 0.3), 0)


def test_coefficient_curve_single_location():
    rng = np.random.default_rng(6)
    panel = random_panel(rng, N=1, T=30, D=2)
    curve = coefficient_curve(panel, KERN, 0, [0.5], 0.3)
    np.testing.assert_array_equal(
        curve.values[0], beta_hat(local_design(panel, KERN, 0.5, 0.3), 0)
    )


def test_coefficient_curve_duplicates_preserved():
    rng = np.random.default_rng(7)
    panel = random_panel(rng, N=1, T=30, D=1)
    curve = coefficient_curve(panel, KERN, 0, [0.4, 0.4, 0.6], 0.3)
    assert curve.values.shape == (3, 1)
    np.testing.assert_array_equal(curve.values[0], curve.values[1])


def test_coefficient_curve_all_singular():
    rng = np.random.default_rng(8)
    base = rng.standard_normal(20)
    x = np.column_stack([base, -base])
    panel = Panel(y=rng.standard_normal((1, 20)), x=x, unit_labels=("a",))
    with pytest.raises(SingularDesignError, match="empty"):
        coefficient_curve(panel, KERN, 0, [0.4, 0.6], 0.3)


def test_coefficient_curve_records_gaps():
    # second covariate vanishes over the first window only
    T = 32
    x2 = np.zeros(T)
    x2[T // 2 :] = np.linspace(1, 2, T - T // 2)
    x = np.column_stack([np.ones(T), x2])
    rng = np.random.default_rng(9)
    panel = Panel(y=rng.standard_normal((1, T)), x=x, unit_labels=("a",))
    curve = coefficient_curve(panel, KERN, 0, [0.25, 0.75], 0.25)
    assert [g[0] for g in curve.gaps] == [0]
    assert np.all(np.isnan(curve.values[0]))
    assert np.all(np.isfinite(curve.values[1]))


def test_coefficient_curve_rejects_infeasible_window():
    rng = np.random.default_rng(10)
    panel = random_panel(rng, N=1, T=30, D=1)
    from panelscale import PanelFormatError

    with pytest.raises(PanelFormatError, match="leaves"):
        coefficient_curve(panel, KERN, 0, [0.1], 0.3)


def test_coefficient_curve_tracks_lipschitz_truth():
    # deviation from a smooth truth shrinks when T grows (monitored trend)
    def run(T):
        rng = np.random.default_rng(100 + T)
        u = np.arange(1, T + 1) / T
        truth = np.sin(2 * np.pi * u)
        x = np.ones((T, 1))
        y = truth + 0.3 * rng.standard_normal(T)
        panel = Panel(y=y[None, :], x=x, unit_labels=("a",))
        locs = np.linspace(0.2, 0.8, 13)
        h = 0.5 * T ** (-1 / 3)
        curve = coefficient_curve(panel, KERN, 0, locs, h)
        return np.abs(curve.values[:, 0] - np.sin(2 * np.pi * locs)).max()

    assert run(800) < run(200) * 1.2  # allow noise, expect clear improvement


def test_shared_weights_read_only_and_equal_to_weights_matrix():
    us, hs = np.array([0.25, 0.5]), np.array([0.125, 0.25])
    W = kernels._shared_weights(KERN, 16, us, hs)
    np.testing.assert_array_equal(W, weights_matrix(KERN, 16, us, hs))
    assert kernels._shared_weights(KERN, 16, us, hs) is W
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0] = 1.0


def test_shared_weights_freed_with_last_holder():
    us, hs = np.array([0.5]), np.array([0.25])
    W = kernels._shared_weights(KERN, 40, us, hs)
    ref = weakref.ref(W)
    # a key differs by kernel, T, locations and bandwidths
    for other in (
        kernels._shared_weights(SmoothingKernel("biweight"), 40, us, hs),
        kernels._shared_weights(KERN, 41, us, hs),
        kernels._shared_weights(KERN, 40, np.array([0.4]), hs),
        kernels._shared_weights(KERN, 40, us, np.array([0.2])),
    ):
        assert not np.array_equal(W, other)
    del W, other
    assert ref() is None


def test_no_weights_alive_after_a_stat_table(monkeypatch):
    built = []
    real = kernels.weights_matrix

    def tracked(*args):
        W = real(*args)
        built.append(weakref.ref(W))
        return W

    monkeypatch.setattr(kernels, "weights_matrix", tracked)
    panel = random_panel(np.random.default_rng(40), N=3, T=100, D=2)
    table = compute_stat_table(
        panel, KERN, build_grid_application(100), np.broadcast_to(np.eye(2), (3, 2, 2))
    )
    assert table.s_hat.shape[0] == 3
    assert len(built) == 1 and built[0]() is None
