"""Kernel HAC long-run covariance estimation and pairwise normalizers.

Sigma_i is estimated from v_it = X_t * residual_it by the fixed-bandwidth
kernel HAC formula

    Sigma_hat = T/(T-D) * sum_l kappa(l/chi) * Gamma_hat(l),

with sample autocovariances Gamma_hat(l). Residuals come from a wide pilot
local constant fit. The pilot design depends only on X, so one pilot fit
(one design build, one guard and one solve) serves all units. The pairwise
normalizer is the symmetric inverse square root of (Sigma_i + Sigma_j)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError, SingularDesignError
from .estimate import batched_beta, batched_designs, solve_mask
from .kernels import SmoothingKernel
from .panel import Panel

COV_KERNEL_KINDS = ("bartlett", "parzen", "quadratic_spectral")


def cov_kernel_weight(kind: str, x: np.ndarray) -> np.ndarray:
    """Covariance kernel kappa evaluated at x = lag/bandwidth."""
    ax = np.abs(np.asarray(x, dtype=float))
    if kind == "bartlett":
        return np.maximum(0.0, 1.0 - ax)
    if kind == "parzen":
        return np.where(
            ax <= 0.5,
            1.0 - 6.0 * ax**2 + 6.0 * ax**3,
            np.where(ax <= 1.0, 2.0 * (1.0 - ax) ** 3, 0.0),
        )
    if kind == "quadratic_spectral":
        z = 6.0 * math.pi * ax / 5.0
        with np.errstate(divide="ignore", invalid="ignore"):
            val = 25.0 / (12.0 * math.pi**2 * ax**2) * (np.sin(z) / z - np.cos(z))
        return np.where(ax < 1e-12, 1.0, val)
    raise ValueError(f"unknown covariance kernel {kind!r}; choose {COV_KERNEL_KINDS}")


def default_hac_bandwidth(T: int) -> float:
    """Common-practice rule chi = floor(T^(1/3)), exact integer cube root."""
    c = max(1, int(round(T ** (1.0 / 3.0))))
    while (c + 1) ** 3 <= T:
        c += 1
    while c > 1 and c**3 > T:
        c -= 1
    return float(c)


@dataclass(frozen=True)
class HacConfig:
    """HAC settings: covariance kernel, bandwidth chi, pilot bandwidth.

    bandwidth=None resolves to floor(T^(1/3)) when the sample size is known.
    pooled=True averages the per-unit estimates into one common matrix.
    """

    cov_kernel: str = "bartlett"
    bandwidth: float | None = None
    pilot_bandwidth: float = 0.25
    pooled: bool = False

    def __post_init__(self) -> None:
        if self.cov_kernel not in COV_KERNEL_KINDS:
            raise ValueError(
                f"unknown covariance kernel {self.cov_kernel!r}; "
                f"choose {COV_KERNEL_KINDS}"
            )
        if self.bandwidth is not None and not self.bandwidth >= 1.0:
            raise ValueError(f"HAC bandwidth {self.bandwidth} must be >= 1")
        if not 0.0 < self.pilot_bandwidth <= 0.5:
            raise ValueError(
                f"pilot bandwidth {self.pilot_bandwidth} outside (0, 1/2]"
            )

    def resolve_bandwidth(self, T: int) -> float:
        return self.bandwidth if self.bandwidth is not None else default_hac_bandwidth(T)


@dataclass(frozen=True, eq=False)
class LongRunCov:
    """Symmetric PSD long-run covariance estimate for one unit."""

    unit: int
    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"sigma must be square, got shape {sigma.shape}")
        if not np.allclose(sigma, sigma.T, atol=1e-10 * max(1.0, np.abs(sigma).max())):
            raise ValueError("sigma must be symmetric")
        floor = -1e-10 * max(1.0, float(np.trace(sigma)) / sigma.shape[0])
        if np.linalg.eigvalsh(sigma)[0] < floor:
            raise ValueError("sigma must be positive semi-definite")
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)


def _pilot_residuals(
    panel: Panel, kernel: SmoothingKernel, h_pilot: float
) -> np.ndarray:
    """residual_series for every unit at once, shape (N, T, D)."""
    T = panel.n_time
    if not 0.0 < h_pilot <= 0.5:
        raise ValueError(f"pilot bandwidth {h_pilot} outside (0, 1/2]")
    h_eff = max(1, round(h_pilot * T)) / T
    t_over_T = np.arange(1, T + 1, dtype=float) / T
    u_t = np.clip(t_over_T, h_eff, 1.0 - h_eff)
    uniq, inverse = np.unique(u_t, return_inverse=True)
    M, a = batched_designs(panel, kernel, uniq, np.full(uniq.shape, h_eff))
    ok = solve_mask(M)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise SingularDesignError(f"pilot design singular at (u={uniq[k]}, h={h_eff})")
    beta = batched_beta(M, a, ok)[inverse]  # (T, N, D)
    fitted = np.einsum("td,tnd->nt", panel.x, beta)
    eps = panel.y - fitted
    return panel.x[None, :, :] * eps[:, :, None]


def residual_series(
    panel: Panel, kernel: SmoothingKernel, unit: int, h_pilot: float = 0.25
) -> np.ndarray:
    """v_hat rows X_t * (Y_it - X_t' beta_hat_i(u_t, h_pilot)), u_t clamped
    to [h_pilot, 1 - h_pilot].

    h_pilot is snapped to the nearest 1/T lattice multiple.
    """
    return _pilot_residuals(panel, kernel, h_pilot)[unit]


def hac_estimate(v: np.ndarray, config: HacConfig, unit: int = 0) -> LongRunCov:
    """Fixed-bandwidth kernel HAC estimate of the long-run covariance of v.

    Parameters
    ----------
    v : (T, D) array of moment series, e.g. X_t * residual_t.
    config : HacConfig with the covariance kernel and bandwidth chi.
    unit : index stored on the result for diagnostics.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"v must be (T, D), got shape {v.shape}")
    T, D = v.shape
    if T <= D:
        raise ValueError(f"need T > D, got T={T}, D={D}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    chi = config.resolve_bandwidth(T)
    lags = np.arange(T)
    w = cov_kernel_weight(config.cov_kernel, lags / chi)
    sigma = w[0] * (v.T @ v) / T
    for ell in range(1, T):
        if w[ell] == 0.0:
            # bartlett/parzen vanish beyond chi; quadratic_spectral never does
            if config.cov_kernel in ("bartlett", "parzen"):
                break
            continue
        gamma = (v[ell:].T @ v[:-ell]) / T
        sigma += w[ell] * (gamma + gamma.T)
    sigma *= T / (T - D)
    asym = np.abs(sigma - sigma.T).max()
    if asym > 1e-12 * max(1.0, np.abs(sigma).max()):
        raise ValueError(f"HAC estimate asymmetric beyond tolerance ({asym:.3e})")
    sigma = 0.5 * (sigma + sigma.T)
    return LongRunCov(unit=unit, sigma=sigma)


def long_run_covariances(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> list[LongRunCov]:
    """Per-unit HAC estimates; with config.pooled the units share the average."""
    v = _pilot_residuals(panel, kernel, config.pilot_bandwidth)
    per_unit = [hac_estimate(v[i], config, unit=i) for i in range(panel.n_units)]
    if not config.pooled:
        return per_unit
    pooled = np.mean([c.sigma for c in per_unit], axis=0)
    return [LongRunCov(unit=i, sigma=pooled) for i in range(panel.n_units)]


def _inv_sqrt_spd(sigma: np.ndarray, floor: float, label: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    if vals[0] <= floor:
        raise DegenerateCovarianceError(
            f"{label}: smallest eigenvalue {vals[0]:.3e} at or below floor {floor:.3e}"
        )
    return (vecs / np.sqrt(vals)) @ vecs.T


def pair_normalizer(sig_i: LongRunCov, sig_j: LongRunCov) -> np.ndarray:
    """Symmetric inverse square root of (Sigma_i + Sigma_j)/2.

    Each input must be positive definite relative to its own scale; the
    average gets a tiny ridge before inversion. Raises
    DegenerateCovarianceError naming the unit pair otherwise.
    """
    pair = f"pair ({sig_i.unit}, {sig_j.unit})"
    D = sig_i.sigma.shape[0]
    if sig_j.sigma.shape[0] != D:
        raise ValueError(f"{pair}: dimension mismatch")
    for cov in (sig_i, sig_j):
        thresh = 1e-8 * float(np.trace(cov.sigma)) / D
        if np.linalg.eigvalsh(cov.sigma)[0] <= thresh:
            raise DegenerateCovarianceError(
                f"{pair}: covariance of unit {cov.unit} is degenerate"
            )
    sigma = 0.5 * (sig_i.sigma + sig_j.sigma)
    trace = float(np.trace(sigma))
    sigma = sigma + (1e-10 * trace / D) * np.eye(D)
    root = _inv_sqrt_spd(sigma, 1e-8 * trace / D, pair)
    check = root @ sigma @ root
    if np.abs(check - np.eye(D)).max() > 1e-8:
        raise DegenerateCovarianceError(
            f"{pair}: inverse square root failed verification"
        )
    return root
