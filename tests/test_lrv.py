import numpy as np
import pytest

from panelscale import (
    DegenerateCovarianceError,
    SingularDesignError,
    HacConfig,
    LongRunCov,
    Panel,
    SmoothingKernel,
    hac_estimate,
    pair_normalizer,
    residual_series,
)
from panelscale.lrv import cov_kernel_weight, default_hac_bandwidth, long_run_covariances

import oracles

KERN = SmoothingKernel("epanechnikov")


def test_default_bandwidth_rule():
    assert default_hac_bandwidth(300) == 6.0
    assert default_hac_bandwidth(1000) == 10.0
    assert default_hac_bandwidth(2) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        HacConfig(bandwidth=0.5)
    with pytest.raises(ValueError):
        HacConfig(pilot_bandwidth=0.6)
    with pytest.raises(ValueError):
        HacConfig(cov_kernel="uniform")


def test_bartlett_chi1_truncates_to_lag_zero():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((40, 2))
    got = hac_estimate(v, HacConfig(bandwidth=1.0)).sigma
    T, D = v.shape
    expected = (v.T @ v) / T * T / (T - D)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_constant_series_closed_form():
    # v_t = c: Gamma(l) = c^2 (T-|l|)/T, then the weighted sum by hand
    T, c, chi = 30, 1.7, 5.0
    v = np.full((T, 1), c)
    got = hac_estimate(v, HacConfig(bandwidth=chi)).sigma[0, 0]
    acc = 0.0
    for ell in range(-(T - 1), T):
        acc += max(0.0, 1.0 - abs(ell) / chi) * c * c * (T - abs(ell)) / T
    expected = acc * T / (T - 1)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["bartlett", "parzen", "quadratic_spectral"])
def test_hac_matches_naive_loops(kind):
    rng = np.random.default_rng(1)
    for _ in range(4):
        T = int(rng.integers(10, 25))
        D = int(rng.integers(1, 3))
        v = rng.standard_normal((T, D))
        chi = float(rng.uniform(1.5, 6.0))
        got = hac_estimate(v, HacConfig(cov_kernel=kind, bandwidth=chi)).sigma
        ref = oracles.naive_hac(v, kind, chi)
        ref = 0.5 * (ref + ref.T)
        np.testing.assert_allclose(got, ref, atol=1e-10 * max(1, np.abs(ref).max()))


def test_hac_ar1_approaches_population_lrv():
    # population long-run variance of AR(1): sigma_eta^2 / (1 - phi)^2;
    # tolerance sized from the Monte Carlo spread, so average a few draws
    rng = np.random.default_rng(2)
    phi, T = 0.5, 2000
    estimates = []
    for _ in range(6):
        eps = np.empty(T)
        eps[0] = rng.standard_normal() / np.sqrt(1 - phi**2)
        for t in range(1, T):
            eps[t] = phi * eps[t - 1] + rng.standard_normal()
        cfg = HacConfig(bandwidth=T ** (1 / 3))
        estimates.append(hac_estimate(eps[:, None], cfg).sigma[0, 0])
    truth = 1.0 / (1.0 - phi) ** 2
    assert abs(np.mean(estimates) - truth) / truth < 0.15


def test_hac_bartlett_psd_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T = int(rng.integers(5, 40))
        D = int(rng.integers(1, 4))
        v = rng.standard_normal((T, D)) * rng.uniform(0.1, 10)
        if T <= D:
            continue
        sigma = hac_estimate(v, HacConfig(bandwidth=rng.uniform(1, 8))).sigma
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10 * max(1, np.trace(sigma) / D)


def test_hac_time_reversal_invariance():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((30, 2))
    cfg = HacConfig(bandwidth=4.0)
    a = hac_estimate(v, cfg).sigma
    b = hac_estimate(v[::-1], cfg).sigma
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_hac_rejects_bad_input():
    with pytest.raises(ValueError, match="finite"):
        hac_estimate(np.array([[1.0], [np.nan]]), HacConfig())
    with pytest.raises(ValueError, match="T > D"):
        hac_estimate(np.ones((2, 2)), HacConfig())


def test_cov_kernel_shapes():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    bart = cov_kernel_weight("bartlett", x)
    np.testing.assert_allclose(bart, [1, 0.75, 0.5, 0.25, 0, 0])
    parz = cov_kernel_weight("parzen", x)
    assert parz[0] == 1.0 and parz[-1] == 0.0
    qs = cov_kernel_weight("quadratic_spectral", x)
    assert qs[0] == 1.0 and np.all(np.abs(qs) <= 1.0)


def zero_noise_panel(T=40, D=2, beta=(1.0, -0.5)):
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(T), rng.standard_normal(T)])[:, :D]
    y = (x @ np.asarray(beta[:D]))[None, :]
    return Panel(y=y, x=x, unit_labels=("a",))


def test_residuals_vanish_for_exact_model():
    panel = zero_noise_panel()
    v = residual_series(panel, KERN, 0, 0.25)
    assert np.abs(v).max() < 1e-8


def test_residuals_reduce_to_local_mean_removal():
    rng = np.random.default_rng(6)
    T = 32
    y = rng.standard_normal(T)
    panel = Panel(y=y[None, :], x=np.ones((T, 1)), unit_labels=("a",))
    v = residual_series(panel, KERN, 0, 0.25)
    ref = oracles.naive_residual_rows(panel.x, panel.y, "epanechnikov", 0, 0.25)
    np.testing.assert_allclose(v, ref, atol=1e-12)


def test_residuals_match_two_step_oracle():
    rng = np.random.default_rng(7)
    panel = Panel(
        y=rng.standard_normal((2, 24)),
        x=np.column_stack([np.ones(24), rng.standard_normal(24)]),
        unit_labels=("a", "b"),
    )
    for unit in (0, 1):
        v = residual_series(panel, KERN, unit, 0.25)
        ref = oracles.naive_residual_rows(panel.x, panel.y, "epanechnikov", unit, 0.25)
        np.testing.assert_allclose(v, ref, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        HacConfig(),
        HacConfig(cov_kernel="quadratic_spectral", bandwidth=4.0, pilot_bandwidth=0.5),
    ],
)
def test_covariances_match_per_unit_residual_series(config):
    # the one batched pilot fit must give each unit exactly what the
    # per-unit public path gives
    rng = np.random.default_rng(11)
    panel = Panel(
        y=rng.standard_normal((4, 80)),
        x=np.column_stack([np.ones(80), rng.standard_normal(80)]),
        unit_labels=("a", "b", "c", "d"),
    )
    covs = long_run_covariances(panel, KERN, config)
    for i in range(panel.n_units):
        v = residual_series(panel, KERN, i, config.pilot_bandwidth)
        np.testing.assert_array_equal(covs[i].sigma, hac_estimate(v, config).sigma)


def partly_zero_panel(T=100):
    # second covariate vanishes for t/T <= 0.6, so the first pilot window
    # [0, 0.5] (h = 0.25) has a rank-one design
    rng = np.random.default_rng(12)
    x2 = np.zeros(T)
    x2[60:] = np.linspace(1.0, 2.0, T - 60)
    return Panel(
        y=rng.standard_normal((2, T)),
        x=np.column_stack([np.ones(T), x2]),
        unit_labels=("a", "b"),
    )


def test_singular_pilot_names_the_point():
    with pytest.raises(SingularDesignError, match=r"\(u=0\.25, h=0\.25\)"):
        long_run_covariances(partly_zero_panel(), KERN, HacConfig(pilot_bandwidth=0.25))


def test_pair_normalizer_identity():
    eye = LongRunCov(unit=0, sigma=np.eye(2))
    np.testing.assert_allclose(pair_normalizer(eye, eye), np.eye(2), atol=1e-12)


def test_pair_normalizer_scalar_case():
    a = LongRunCov(unit=0, sigma=4.0 * np.eye(2))
    b = LongRunCov(unit=1, sigma=4.0 * np.eye(2))
    np.testing.assert_allclose(pair_normalizer(a, b), np.eye(2) / 2.0, atol=1e-8)
    zero = LongRunCov(unit=1, sigma=np.zeros((2, 2)))
    with pytest.raises(DegenerateCovarianceError, match=r"\(0, 1\)"):
        pair_normalizer(a, zero)


def test_pair_normalizer_defining_property_random_spd():
    rng = np.random.default_rng(8)
    for _ in range(10):
        D = int(rng.integers(1, 4))
        qa = rng.standard_normal((D, D))
        qb = rng.standard_normal((D, D))
        a = LongRunCov(unit=0, sigma=qa @ qa.T + 0.1 * np.eye(D))
        b = LongRunCov(unit=1, sigma=qb @ qb.T + 0.1 * np.eye(D))
        nrm = pair_normalizer(a, b)
        ref = oracles.sqrtm_inv(0.5 * (a.sigma + b.sigma))
        sigma_ij = 0.5 * (a.sigma + b.sigma)
        np.testing.assert_allclose(nrm @ sigma_ij @ nrm, np.eye(D), atol=1e-8)
        np.testing.assert_allclose(nrm, ref, atol=1e-6 * max(1, np.abs(ref).max()))


def test_pair_normalizer_symmetric_in_arguments():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((3, 3))
    a = LongRunCov(unit=0, sigma=q @ q.T + np.eye(3))
    b = LongRunCov(unit=1, sigma=2.0 * np.eye(3))
    np.testing.assert_array_equal(pair_normalizer(a, b), pair_normalizer(b, a))


def test_pooled_covariances_shared():
    rng = np.random.default_rng(10)
    panel = Panel(
        y=rng.standard_normal((3, 60)),
        x=np.column_stack([np.ones(60), rng.standard_normal(60)]),
        unit_labels=("a", "b", "c"),
    )
    per_unit = long_run_covariances(panel, KERN, HacConfig())
    pooled = long_run_covariances(panel, KERN, HacConfig(pooled=True))
    assert len({id(c.sigma) for c in per_unit}) == 3
    np.testing.assert_allclose(
        pooled[0].sigma, np.mean([c.sigma for c in per_unit], axis=0), atol=1e-14
    )
    np.testing.assert_array_equal(pooled[0].sigma, pooled[2].sigma)
