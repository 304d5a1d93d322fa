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
The pilot fit and the HAC also take a stack of panels, one call a stage for
all of them, and give each panel the bits it gets alone.

HacConfig, the covariance kernels kappa and the pilot points are kernels'.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError, SingularDesignError
from .estimate import _stacked_moments, _stacked_sums, batched_beta, solve_mask
# perfbench's tracer looks it up here
from .estimate import batched_designs  # noqa: F401
from .kernels import (
    HacConfig, SmoothingKernel, _pilot_points, _row_blocks, _shared_weights,
    cov_kernel_weight,
)
from .panel import Panel


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
    x: np.ndarray, y: np.ndarray, kernel: SmoothingKernel, h_pilot: float
) -> np.ndarray:
    """residual_series for every unit of a stack of R panels, x (R, T, D)
    and y (R, N, T), at once, shape (R, N, T, D); a panel's residuals have the
    bits it gets alone."""
    if not 0.0 < h_pilot <= 0.5:
        raise ValueError(f"pilot bandwidth {h_pilot} outside (0, 1/2]")
    (R, N, T), D = y.shape, x.shape[-1]
    us, hs, inverse = _pilot_points(T, h_pilot)
    W = _shared_weights(kernel, T, us, hs)
    M = _stacked_moments(W, hs, x).reshape(-1, D, D)
    ok = solve_mask(M)
    if not np.all(ok):
        k = int(np.argmin(ok)) % len(us)
        raise SingularDesignError(f"pilot design singular at (u={us[k]}, h={hs[k]})")
    a = _stacked_sums(W, hs, x, y).reshape(-1, N, D)
    beta = batched_beta(M, a, ok).reshape(R, -1, N, D)[:, inverse]  # (R, T, N, D)
    eps = y - np.einsum("rtd,rtnd->rnt", x, beta)
    return x[:, None, :, :] * eps[..., None]


def residual_series(
    panel: Panel, kernel: SmoothingKernel, unit: int, h_pilot: float = HacConfig.pilot_bandwidth
) -> np.ndarray:
    """v_hat rows X_t * (Y_it - X_t' beta_hat_i(u_t, h_pilot)), u_t clamped
    to [h_pilot, 1 - h_pilot].

    h_pilot is snapped to the nearest 1/T lattice multiple.
    """
    return _pilot_residuals(panel.x[None], panel.y[None], kernel, h_pilot)[0, unit]


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
    """HAC estimates for a stack of moment series v (K, T, D), shape
    (K, D, D). Omega v is a circular convolution of the zero-padded series
    over 2T periods, whose wrap-around reaches no t < T, so v' Omega v is the
    spectrum g of Omega's first column weighting the series' spectrum F:
    sum_k g_k Re(F_k^H F_k) / 2T (Parseval). Each series' transform and
    product are the calls a lone (T, D) series gets, so its estimate has the
    same bits. The series go in row blocks whose two complex spectra (F, then
    its conjugate in place, and g F) stay within _BLOCK_BYTES."""
    T, D = v.shape[1:]
    if T <= D:
        raise ValueError(f"need T > D, got T={T}, D={D}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v contains non-finite entries")
    g = _hac_spectrum(config.cov_kernel, config.resolve_bandwidth(T), T)
    sigma = np.empty((len(v), D, D))
    for blk in _row_blocks(len(v), 4 * (T + 1) * D):
        f = np.fft.rfft(v[blk], 2 * T, axis=1)
        gf = g[:, None] * f
        sigma[blk] = (np.swapaxes(np.conjugate(f, out=f), 1, 2) @ gf).real
        del f, gf  # before the next block is transformed
    sigma /= 2 * T * (T - D)
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
    x: np.ndarray, y: np.ndarray, kernel: SmoothingKernel, config: HacConfig
) -> np.ndarray:
    """long_run_covariances of every panel of a stack, x (R, T, D) and
    y (R, N, T), as one (R, N, D, D) stack."""
    v = _pilot_residuals(x, y, kernel, config.pilot_bandwidth)
    R, N, T, D = v.shape
    sigmas = _hac_sigmas(v.reshape(-1, T, D), config)
    if not config.pooled:
        return sigmas.reshape(R, N, D, D)
    _checked_min_eigs(sigmas)  # the units' own estimates must pass too
    sigmas = sigmas.reshape(R, N, D, D)
    return np.broadcast_to(sigmas.mean(axis=1, keepdims=True), sigmas.shape)


def long_run_covariances(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> list[LongRunCov]:
    """Per-unit HAC estimates; with config.pooled the units share the average."""
    sigmas = _unit_sigmas(panel.x[None], panel.y[None], kernel, config)[0]
    return [LongRunCov(unit=i, sigma=sigma) for i, sigma in enumerate(sigmas)]


def _pair_roots(sigmas: np.ndarray, units, i_idx, j_idx) -> np.ndarray:
    """Symmetric inverse square roots of (Sigma_i + Sigma_j)/2 for the unit
    pairs (i_idx[p], j_idx[p]) of a (K, D, D) stack, shape (P, D, D). The
    stack may hold the units of several panels, with the pairs' indices
    offset to their panel and units[k] the label of unit k within its own.

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
