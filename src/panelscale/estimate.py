"""Localized design matrices and local constant coefficient estimates.

The design matrix M_XKX(u, h) = (1/sqrt(Th)) * sum_t X_t X_t' K((t/T-u)/h)
carries the 1/sqrt(Th) scaling throughout: it cancels in the coefficient
estimate but matters in the multiscale statistic.

batched_designs, the guard solve_mask and the solve batched_beta are the one
path; local_design, beta_hat and coefficient_curve wrap them. The designs of
a stack of panels (_stacked_moments, _stacked_sums) are the same
contractions with a leading stack axis, and one panel's are a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDesignError
from .kernels import SmoothingKernel, _shared_weights, check_point, window_sums
from .panel import CoefficientCurve, Panel

COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class LocalDesign:
    """Kernel-localized moment matrices at one (u, h).

    m_xkx is the D x D design matrix, xky stacks the per-unit covariate
    response sums (N x D), both scaled by 1/sqrt(Th).
    """

    u: float
    h: float
    m_xkx: np.ndarray
    xky: np.ndarray


def local_design(panel: Panel, kernel: SmoothingKernel, u: float, h: float) -> LocalDesign:
    """Compute M_XKX(u, h) and the per-unit response sums at (u, h)."""
    check_point(u, h)
    M, a = batched_designs(panel, kernel, np.array([u]), np.array([h]))
    return LocalDesign(u=u, h=h, m_xkx=M[0], xky=a[0])


def beta_hat(design: LocalDesign, unit: int) -> np.ndarray:
    """Solve M_XKX beta = xky[unit]; raises SingularDesignError when the
    condition number exceeds 1e12."""
    m = design.m_xkx
    ok = solve_mask(m[None])
    if not ok[0]:
        raise SingularDesignError(
            f"localized design at (u={design.u}, h={design.h}) is singular or "
            "ill-conditioned"
        )
    b = design.xky[unit]
    beta = batched_beta(m[None], b[None, None], ok)[0, 0]
    resid = np.linalg.norm(m @ beta - b)
    scale = np.linalg.norm(m) * max(1.0, np.linalg.norm(beta))
    if resid > 1e-10 * max(scale, 1e-300):
        raise SingularDesignError(
            f"solve at (u={design.u}, h={design.h}) left residual {resid:.3e}"
        )
    return beta


def coefficient_curve(
    panel: Panel,
    kernel: SmoothingKernel,
    unit: int,
    locations,
    h: float,
) -> CoefficientCurve:
    """Batch beta estimates for one unit over several locations at one bandwidth.

    Singular locations become NaN rows recorded in ``gaps``; if every location
    is singular a SingularDesignError is raised instead.
    """
    locations = [float(u) for u in locations]
    values = np.full((len(locations), panel.n_covariates), np.nan)
    gaps: list[tuple[int, str]] = []
    for k, u in enumerate(locations):
        try:
            values[k] = beta_hat(local_design(panel, kernel, u, h), unit)
        except SingularDesignError as exc:
            gaps.append((k, str(exc)))
    if len(gaps) == len(locations):
        raise SingularDesignError(
            f"coefficient curve for unit {unit} is empty: all {len(locations)} "
            "locations have singular designs"
        )
    return CoefficientCurve(
        unit=unit,
        grid_locations=tuple(locations),
        bandwidth=h,
        values=values,
        gaps=tuple(gaps),
    )


def batched_designs(
    panel: Panel, kernel: SmoothingKernel, us: np.ndarray, hs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized designs over many points: M (G, D, D) and sums a (G, N, D),
    the panel's designs as a stack of one."""
    W = _shared_weights(kernel, panel.n_time, us, hs)
    x, y = panel.x[None], panel.y[None]
    return _stacked_moments(W, hs, x)[0], _stacked_sums(W, hs, x, y)[0]


def _window_scale(T: int, hs: np.ndarray) -> np.ndarray:
    return (1.0 / np.sqrt(T * np.asarray(hs, dtype=float)))[:, None, None]


def _stacked_moments(W: np.ndarray, hs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Designs M (R, G, D, D) of a stack of R covariate matrices x (R, T, D)
    at the points whose kernel weights are W (G, T) and bandwidths hs.

    Both this and _stacked_sums are window_sums contractions, one product per
    matrix of the stack, whose arithmetic depends neither on BLAS threading
    nor on the stack: each panel's designs have the bits it gets alone.
    """
    R, T, D = x.shape
    M = window_sums(W, (x[..., :, None] * x[..., None, :]).reshape(R, T, D * D))
    M = M.reshape(R, -1, D, D) * _window_scale(T, hs)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _stacked_sums(
    W: np.ndarray, hs: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Response sums a (R, G, N, D) of a stack of R panels, x (R, T, D) and
    y (R, N, T). They take one product per unit, so units with equal
    responses get equal sums and cancel exactly in a pair."""
    a = window_sums(W, y[..., None] * x[:, None, :, :])
    return a.transpose(0, 2, 1, 3) * _window_scale(x.shape[1], hs)


def solve_mask(M: np.ndarray) -> np.ndarray:
    """Boolean mask of gridpoints whose design passes the condition guard."""
    eig = np.linalg.eigvalsh(M)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (lo > 0.0) & (hi / np.where(lo > 0.0, lo, 1.0) <= COND_LIMIT)
    return ok


def batched_beta(M: np.ndarray, a: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Coefficients beta[g, n] = M[g]^-1 a[g, n], shape (G, N, D), from one
    solve per point with the N units as its right-hand sides; rows where ~ok
    (the designs solve_mask rejects) are NaN, their designs never solved: the
    identity stands in for them."""
    safe = np.where(ok[:, None, None], M, np.eye(M.shape[-1]))
    beta = np.linalg.solve(safe, a.swapaxes(1, 2)).swapaxes(1, 2).copy()
    beta[~ok] = np.nan
    return beta
