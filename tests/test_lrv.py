import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import panelscale

from panelscale import (
    DegenerateCovarianceError,
    SingularDesignError,
    HacConfig,
    LongRunCov,
    Panel,
    SmoothingKernel,
    generate_panel,
    hac_estimate,
    homogeneous_spec,
    pair_normalizer,
    residual_series,
)
from panelscale import lrv
from panelscale.kernels import default_hac_bandwidth
from panelscale.lrv import (
    _checked_min_eigs,
    cov_kernel_weight,
    long_run_covariances,
)
from panelscale import multiscale
from panelscale.multiscale import build_normalizers, unit_pairs

import oracles

KERN = SmoothingKernel("epanechnikov")


def test_default_bandwidth_rule():
    assert default_hac_bandwidth(300) == 6.0
    assert default_hac_bandwidth(1000) == 10.0
    assert default_hac_bandwidth(2) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        HacConfig(bandwidth=0.5)
    with pytest.raises(ValueError, match="finite"):
        HacConfig(bandwidth=float("inf"))
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
    cases = []
    for _ in range(4):
        T = int(rng.integers(10, 25))
        D = int(rng.integers(1, 3))
        cases.append((rng.standard_normal((T, D)), float(rng.uniform(1.5, 6.0))))
    # one long series: its far lags (every lag for quadratic_spectral) reach
    # the edge of the 2T-periodic convolution
    cases.append((rng.standard_normal((300, 2)), 75.0))
    for v, chi in cases:
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
        HacConfig(cov_kernel="parzen", bandwidth=6.0),
    ],
)
def test_covariances_match_per_unit_residual_series(config):
    # the one batched pilot fit and HAC must give each unit exactly what the
    # per-unit public path gives, with one covariate and with two
    rng = np.random.default_rng(11)
    y = rng.standard_normal((4, 80))
    x = np.column_stack([np.ones(80), rng.standard_normal(80)])
    for D in (1, 2):
        panel = Panel(y=y, x=x[:, :D], unit_labels=("a", "b", "c", "d"))
        covs = long_run_covariances(panel, KERN, config)
        for i in range(panel.n_units):
            v = residual_series(panel, KERN, i, config.pilot_bandwidth)
            sigma = hac_estimate(v, config).sigma
            np.testing.assert_array_equal(covs[i].sigma, sigma)


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


@pytest.mark.parametrize("h_pilot", [0.25, 0.5])
def test_pilot_points_are_lattice_points(h_pilot):
    # u_t = t/T for the period t clamped to [s, T - s]; at T = 89 the float
    # clamp 1 - 22/89 missed 67/89 by one ulp and gave a 47th point. s stops
    # at T // 2: at h = 1/2 and T = 23, round(11.5) = 12 would invert the clamp
    for T in range(20, 401):
        us, hs, inverse = lrv._pilot_points(T, h_pilot)
        s = round(hs[0] * T)
        assert s == min(round(h_pilot * T), T // 2), T
        assert us.tolist() == [t / T for t in range(s, T - s + 1)], T
        assert hs.tolist() == [s / T] * len(us)
        clamped = [min(max(t, s), T - s) / T for t in range(1, T + 1)]
        assert us[inverse].tolist() == clamped


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


def test_pooled_normalizers_bit_identical_to_per_pair_eigenvalues():
    panel, _ = generate_panel(homogeneous_spec(5, 300, 2, seed=5))
    covs = long_run_covariances(panel, KERN, HacConfig(pooled=True))
    got = build_normalizers(panel, KERN, HacConfig(pooled=True))
    ref = [per_pair_eig_normalizer(covs[i], covs[j]) for i, j in unit_pairs(5)]
    np.testing.assert_array_equal(got, np.array(ref))


def test_build_normalizers_builds_no_long_run_cov(monkeypatch):
    def built(self):
        raise AssertionError(f"LongRunCov built for unit {self.unit}")

    monkeypatch.setattr(LongRunCov, "__post_init__", built)
    panel, _ = generate_panel(homogeneous_spec(3, 100, 2, seed=1))
    for pooled in (False, True):
        build_normalizers(panel, KERN, HacConfig(pooled=pooled))


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


def per_pair_eig_normalizer(sig_i, sig_j):
    """pair_normalizer as it was when each pair recomputed both units'
    smallest eigenvalue; the reference for the cached one."""
    D = sig_i.sigma.shape[0]
    for cov in (sig_i, sig_j):
        thresh = 1e-8 * float(np.trace(cov.sigma)) / D
        if np.linalg.eigvalsh(cov.sigma)[0] <= thresh:
            raise DegenerateCovarianceError(f"unit {cov.unit} is degenerate")
    sigma = 0.5 * (sig_i.sigma + sig_j.sigma)
    trace = float(np.trace(sigma))
    sigma = sigma + (1e-10 * trace / D) * np.eye(D)
    vals, vecs = np.linalg.eigh(sigma)
    return (vecs / np.sqrt(vals)) @ vecs.T


@pytest.mark.parametrize("N,T,D", [(5, 300, 2), (20, 300, 2), (50, 500, 3)])
def test_normalizers_bit_identical_to_per_pair_eigenvalues(N, T, D):
    panel, _ = generate_panel(homogeneous_spec(N, T, D, seed=N))
    covs = long_run_covariances(panel, KERN, HacConfig())
    min_eig = _checked_min_eigs(np.array([cov.sigma for cov in covs]))
    for k, cov in enumerate(covs):
        assert min_eig[k] == np.linalg.eigvalsh(cov.sigma)[0]
    got = build_normalizers(panel, KERN, HacConfig())
    ref = [per_pair_eig_normalizer(covs[i], covs[j]) for i, j in unit_pairs(N)]
    np.testing.assert_array_equal(got, np.array(ref))


def test_degenerate_scalar_covariance_raises_without_warning():
    # the verification product of a nan root stays inside np.errstate
    zero = LongRunCov(unit=0, sigma=np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateCovarianceError, match="unit 0 is degenerate"):
            pair_normalizer(zero, LongRunCov(unit=1, sigma=np.zeros((1, 1))))


def test_degenerate_unit_error_unchanged():
    good = LongRunCov(unit=0, sigma=np.eye(2))
    flat = LongRunCov(unit=3, sigma=np.diag([1.0, 1e-12]))
    with pytest.raises(
        DegenerateCovarianceError,
        match=r"^pair \(0, 3\): covariance of unit 3 is degenerate$",
    ):
        pair_normalizer(good, flat)
    with pytest.raises(
        DegenerateCovarianceError,
        match=r"^pair \(3, 0\): covariance of unit 3 is degenerate$",
    ):
        pair_normalizer(flat, good)


def degenerate_unit_sigmas(n_units, bad):
    rng = np.random.default_rng(13)
    sigmas = []
    for i in range(n_units):
        q = rng.standard_normal((2, 2))
        sigmas.append(np.diag([1.0, 1e-12]) if i == bad else q @ q.T + np.eye(2))
    return np.array(sigmas)


def test_build_normalizers_raises_first_failing_pair(monkeypatch):
    # unit 4 is degenerate: (0, 4) is pair 3, the first pair that holds it
    sigmas = degenerate_unit_sigmas(6, bad=4)
    assert unit_pairs(6)[3] == (0, 4)
    monkeypatch.setattr(multiscale, "_unit_sigmas", lambda *args: sigmas)
    panel, _ = generate_panel(homogeneous_spec(6, 40, 2, seed=1))
    with pytest.raises(
        DegenerateCovarianceError,
        match=r"^pair \(0, 4\): covariance of unit 4 is degenerate$",
    ):
        build_normalizers(panel, KERN, HacConfig())


def test_build_normalizers_never_returns_after_a_failed_check(monkeypatch):
    # build_normalizers names the failing pair itself, without pair_normalizer
    sigmas = degenerate_unit_sigmas(4, bad=2)
    monkeypatch.setattr(multiscale, "_unit_sigmas", lambda *args: sigmas)
    monkeypatch.setattr(multiscale, "pair_normalizer", lambda *args: None)
    panel, _ = generate_panel(homogeneous_spec(4, 40, 2, seed=1))
    with pytest.raises(
        DegenerateCovarianceError,
        match=r"^pair \(0, 2\): covariance of unit 2 is degenerate$",
    ):
        build_normalizers(panel, KERN, HacConfig())


def test_both_units_degenerate_names_unit_i(monkeypatch):
    flat = [LongRunCov(unit=u, sigma=np.diag([1.0, 1e-12])) for u in range(3)]
    message = r"^pair \(0, 1\): covariance of unit 0 is degenerate$"
    with pytest.raises(DegenerateCovarianceError, match=message):
        pair_normalizer(flat[0], flat[1])
    sigmas = np.array([c.sigma for c in flat])
    monkeypatch.setattr(multiscale, "_unit_sigmas", lambda *args: sigmas)
    panel, _ = generate_panel(homogeneous_spec(3, 40, 2, seed=1))
    with pytest.raises(DegenerateCovarianceError, match=message):
        build_normalizers(panel, KERN, HacConfig())


# Two units whose covariances share a near-null direction. Each passes the
# degeneracy check (its smallest eigenvalue is ~1.05e-8 of its mean
# eigenvalue), but the root of their average is off the identity by ~6e-8.
NEAR_SINGULAR = (
    [[1.1528987593661746, 0.26170348868446397, 0.35325899200493865],
     [0.26170348868446397, 1.0915539359687962, 0.1711490654710443],
     [0.35325899200493865, 0.1711490654710443, 0.11625801418457038]],
    [[0.8591796726687224, -0.363549835627419, 0.21403441993436725],
     [-0.363549835627419, 1.0946978012407784, -0.007649414576235058],
     [0.21403441993436725, -0.007649414576235058, 0.06062636447686444]],
)


def test_verification_failure_named_by_both_paths(monkeypatch):
    covs = [LongRunCov(unit=u, sigma=np.array(s)) for u, s in enumerate(NEAR_SINGULAR)]
    message = r"^pair \(0, 1\): inverse square root failed verification$"
    with pytest.raises(DegenerateCovarianceError, match=message):
        pair_normalizer(covs[0], covs[1])
    sigmas = np.array(NEAR_SINGULAR)
    monkeypatch.setattr(multiscale, "_unit_sigmas", lambda *args: sigmas)
    panel, _ = generate_panel(homogeneous_spec(2, 40, 3, seed=1))
    with pytest.raises(DegenerateCovarianceError, match=message):
        build_normalizers(panel, KERN, HacConfig())


def test_pair_normalizer_dimension_mismatch():
    # one panel gives every unit the same D, so only pair_normalizer checks it
    a = LongRunCov(unit=0, sigma=np.eye(2))
    b = LongRunCov(unit=1, sigma=np.eye(3))
    with pytest.raises(ValueError, match=r"^pair \(0, 1\): dimension mismatch$"):
        pair_normalizer(a, b)


INVALID_SIGMAS = [
    (np.ones((2, 3)), r"^sigma must be square, got shape \(2, 3\)$"),
    (np.array([[1.0, 0.5], [0.4, 1.0]]), r"^sigma must be symmetric$"),
    (np.diag([1.0, -0.1]), r"^sigma must be positive semi-definite$"),
]


@pytest.mark.parametrize("sigma,message", INVALID_SIGMAS, ids=["square", "symmetric", "psd"])
def test_long_run_cov_rejects_invalid_sigma(sigma, message):
    with pytest.raises(ValueError, match=message):
        LongRunCov(unit=0, sigma=sigma)


@pytest.mark.parametrize("sigma,message", INVALID_SIGMAS[1:], ids=["symmetric", "psd"])
def test_build_normalizers_rejects_one_invalid_unit(monkeypatch, sigma, message):
    sigmas = np.array([np.eye(2), np.eye(2), sigma, np.eye(2)])
    monkeypatch.setattr(multiscale, "_unit_sigmas", lambda *args: sigmas)
    panel, _ = generate_panel(homogeneous_spec(4, 40, 2, seed=1))
    with pytest.raises(ValueError, match=message):
        build_normalizers(panel, KERN, HacConfig())



@pytest.mark.parametrize(
    "cached, args",
    [
        (lrv._pilot_points, (40, 0.25)),
        (lrv._hac_spectrum, ("bartlett", 3.0, 40)),
        (multiscale._pair_index, (6,)),
    ],
    ids=["pilot_points", "hac_spectrum", "pair_index"],
)
def test_per_shape_constants_shared_read_only(cached, args):
    # every run_test of one shape gets the same arrays; none may be written
    first = cached(*args)
    assert cached(*args) is first
    for arr in first if isinstance(first, tuple) else (first,):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0

# units half..2*half-1 copy the responses of units 0..half-1; prints the
# residuals' bytes in hex so that two BLAS thread counts can be compared
EQUAL_UNITS_SCRIPT = """
import sys
import numpy as np
from panelscale import HacConfig, Panel, SmoothingKernel, build_grid_application
from panelscale.lrv import _pilot_residuals, _unit_sigmas
from panelscale.multiscale import build_normalizers, compute_stat_table, unit_pairs

N, T, D = map(int, sys.argv[1:])
rng = np.random.default_rng(N * D)
x = np.column_stack([np.ones(T), rng.standard_normal((T, D - 1))])
y = rng.standard_normal((N, T))
half = N // 2
y[half : 2 * half] = y[:half]
panel = Panel(y=y, x=x, unit_labels=[f"u{i}" for i in range(N)])
kernel, config = SmoothingKernel(), HacConfig()
v = _pilot_residuals(panel, kernel, config.pilot_bandwidth)
sigmas = _unit_sigmas(panel, kernel, config)
normalizers = build_normalizers(panel, kernel, config)
table = compute_stat_table(panel, kernel, build_grid_application(T), normalizers)
pairs = unit_pairs(N)
for i in range(half):
    assert np.array_equal(v[i], v[i + half]), i
    assert np.array_equal(sigmas[i], sigmas[i + half]), i
    assert not table.s_hat[pairs.index((i, i + half))].any(), i
print(v.tobytes().hex())
"""


@pytest.mark.parametrize("N,T,D", [(5, 300, 2), (50, 200, 4)])
def test_equal_units_cancel_under_blas_threads(N, T, D):
    # the pilot fit solves every unit against one factorization per point;
    # units with equal responses must still get equal bits, whatever the
    # solve's column position and the BLAS thread count
    package_root = str(Path(panelscale.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", EQUAL_UNITS_SCRIPT, str(N), str(T), str(D)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
