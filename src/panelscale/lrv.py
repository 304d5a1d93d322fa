"""Kernel HAC long-run covariance estimation and pairwise normalizers.

Sigma_i is estimated from v_it = X_t * residual_it by the fixed-bandwidth
kernel HAC formula

    Sigma_hat = v' Omega v / (T-D),   Omega_ts = kappa(|t-s|/chi),

which equals T/(T-D) * sum_l kappa(l/chi) * Gamma_hat(l) over the sample
autocovariances Gamma_hat(l); one FFT of v gives it, whatever the
kernel. Residuals come from a wide pilot local constant fit. The pilot
design depends only on X, so one pilot fit (one design build, one guard
and one solve) serves all units, and one batched HAC estimates every unit's
Sigma as one (N, D, D) stack. One batched pass over that stack gives every
pair's normalizer, the symmetric inverse square root of (Sigma_i + Sigma_j)/2.
"""

from __future__ import annotations

import functools
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
        chi = self.bandwidth
        if chi is not None and not (math.isfinite(chi) and chi >= 1.0):
            raise ValueError(f"HAC bandwidth {chi} must be finite and >= 1")
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
        _checked_min_eigs(sigma[None])
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)


def _checked_min_eigs(sigmas: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric PSD matrix of a (N, D, D) stack."""
    D = sigmas.shape[-1]
    atol = 1e-10 * np.maximum(1.0, np.abs(sigmas).max(axis=(1, 2)))[:, None, None]
    if not np.all(np.isclose(sigmas, np.swapaxes(sigmas, 1, 2), atol=atol)):
        raise ValueError("sigma must be symmetric")
    floor = -1e-10 * np.maximum(1.0, np.trace(sigmas, axis1=1, axis2=2) / D)
    min_eig = np.linalg.eigvalsh(sigmas)[:, 0]
    if np.any(min_eig < floor):
        raise ValueError("sigma must be positive semi-definite")
    return min_eig


def _pilot_residuals(
    panel: Panel, kernel: SmoothingKernel, h_pilot: float
) -> np.ndarray:
    """residual_series for every unit at once, shape (N, T, D)."""
    if not 0.0 < h_pilot <= 0.5:
        raise ValueError(f"pilot bandwidth {h_pilot} outside (0, 1/2]")
    us, hs, inverse = _pilot_points(panel.n_time, h_pilot)
    M, a = batched_designs(panel, kernel, us, hs)
    ok = solve_mask(M)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise SingularDesignError(f"pilot design singular at (u={us[k]}, h={hs[k]})")
    beta = batched_beta(M, a, ok)[inverse]  # (T, N, D)
    fitted = np.einsum("td,tnd->nt", panel.x, beta)
    eps = panel.y - fitted
    return panel.x[None, :, :] * eps[:, :, None]


@functools.lru_cache(maxsize=4)
def _pilot_points(T: int, h_pilot: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pilot fit's distinct points (us, hs) and the index of each period's
    point, read-only: u_t = t/T for the period t clamped to [s, T - s], and
    h = s/T for s = h_pilot * T rounded to an integer, at least 1 and at most
    T // 2 so that the clamp is never inverted."""
    s = max(1, min(round(h_pilot * T), T // 2))
    ts, inverse = np.unique(np.clip(np.arange(1, T + 1), s, T - s), return_inverse=True)
    us = ts / T
    hs = np.full(us.shape, s / T)
    for arr in (us, hs, inverse):
        arr.setflags(write=False)
    return us, hs, inverse


def residual_series(
    panel: Panel, kernel: SmoothingKernel, unit: int, h_pilot: float = HacConfig.pilot_bandwidth
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
    return LongRunCov(unit=unit, sigma=_hac_sigmas(v[None], config)[0])


def _hac_sigmas(v: np.ndarray, config: HacConfig) -> np.ndarray:
    """HAC estimates for a stack of moment series v (N, T, D), shape
    (N, D, D). Omega v is a circular convolution of the zero-padded series
    over 2T periods, whose wrap-around reaches no t < T, so v' Omega v is the
    spectrum g of Omega's first column weighting the series' spectrum F:
    sum_k g_k Re(F_k^H F_k) / 2T (Parseval). Each unit's transform and
    product are the calls a lone (T, D) series gets, so its estimate has the
    same bits."""
    T, D = v.shape[1:]
    if T <= D:
        raise ValueError(f"need T > D, got T={T}, D={D}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    g = _hac_spectrum(config.cov_kernel, config.resolve_bandwidth(T), T)
    f = np.fft.rfft(v, 2 * T, axis=1)
    sigma = (np.swapaxes(f.conj(), 1, 2) @ (g[:, None] * f)).real / (2 * T * (T - D))
    asym = np.abs(sigma - np.swapaxes(sigma, 1, 2)).max(axis=(1, 2))
    limit = 1e-12 * np.maximum(1.0, np.abs(sigma).max(axis=(1, 2)))
    bad = asym > limit
    if np.any(bad):
        raise ValueError(
            f"HAC estimate asymmetric beyond tolerance ({asym[np.argmax(bad)]:.3e})"
        )
    return 0.5 * (sigma + np.swapaxes(sigma, 1, 2))


@functools.lru_cache(maxsize=4)
def _hac_spectrum(kind: str, chi: float, T: int) -> np.ndarray:
    """The spectrum g of _hac_sigmas' Omega over 2T periods, read-only."""
    w = cov_kernel_weight(kind, np.arange(T) / chi)
    g = np.fft.rfft(np.concatenate([w, [0.0], w[:0:-1]])).real
    g[1:-1] *= 2.0  # an inner frequency also stands for its conjugate
    g.setflags(write=False)
    return g


def _unit_sigmas(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> np.ndarray:
    """long_run_covariances as one (N, D, D) stack."""
    v = _pilot_residuals(panel, kernel, config.pilot_bandwidth)
    sigmas = _hac_sigmas(v, config)
    if not config.pooled:
        return sigmas
    _checked_min_eigs(sigmas)  # the units' own estimates must pass too
    return np.broadcast_to(sigmas.mean(axis=0), sigmas.shape)


def long_run_covariances(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> list[LongRunCov]:
    """Per-unit HAC estimates; with config.pooled the units share the average."""
    sigmas = _unit_sigmas(panel, kernel, config)
    return [LongRunCov(unit=i, sigma=sigma) for i, sigma in enumerate(sigmas)]


def _pair_roots(sigmas: np.ndarray, units, i_idx, j_idx) -> np.ndarray:
    """Symmetric inverse square roots of (Sigma_i + Sigma_j)/2 for the unit
    pairs (i_idx[p], j_idx[p]) of a (N, D, D) stack, shape (P, D, D).

    Each Sigma must pass _checked_min_eigs and be positive definite relative
    to its own scale; the average gets a tiny ridge before inversion. The
    first pair that fails a check raises DegenerateCovarianceError naming it
    by units[i] and units[j].
    """
    D = sigmas.shape[-1]
    min_eig = _checked_min_eigs(sigmas)
    degenerate = min_eig <= 1e-8 * np.trace(sigmas, axis1=1, axis2=2) / D
    sigma = 0.5 * (sigmas[i_idx] + sigmas[j_idx])
    trace = np.trace(sigma, axis1=1, axis2=2)
    sigma += (1e-10 * trace / D)[:, None, None] * np.eye(D)
    vals, vecs = np.linalg.eigh(sigma)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = (vecs / np.sqrt(vals)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        unverified = np.abs(root @ sigma @ root - np.eye(D)).max(axis=(1, 2)) > 1e-8
    low, floor = vals[:, 0], 1e-8 * trace / D
    failed = degenerate[i_idx] | degenerate[j_idx] | (low <= floor) | unverified
    if not np.any(failed):
        return root
    p = int(np.argmax(failed))
    i, j = i_idx[p], j_idx[p]
    pair = f"pair ({units[i]}, {units[j]})"
    if degenerate[i] or degenerate[j]:
        unit = units[i] if degenerate[i] else units[j]
        raise DegenerateCovarianceError(f"{pair}: covariance of unit {unit} is degenerate")
    if low[p] <= floor[p]:
        raise DegenerateCovarianceError(
            f"{pair}: smallest eigenvalue {low[p]:.3e} at or below floor {floor[p]:.3e}"
        )
    raise DegenerateCovarianceError(f"{pair}: inverse square root failed verification")


def pair_normalizer(sig_i: LongRunCov, sig_j: LongRunCov) -> np.ndarray:
    """Symmetric inverse square root of (Sigma_i + Sigma_j)/2.

    Each input must be positive definite relative to its own scale; the
    average gets a tiny ridge before inversion. Raises
    DegenerateCovarianceError naming the unit pair otherwise.
    """
    if sig_j.sigma.shape[0] != sig_i.sigma.shape[0]:
        raise ValueError(f"pair ({sig_i.unit}, {sig_j.unit}): dimension mismatch")
    sigmas = np.array([sig_i.sigma, sig_j.sigma])
    return _pair_roots(sigmas, (sig_i.unit, sig_j.unit), [0], [1])[0]
