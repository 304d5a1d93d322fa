"""Localized design matrices and local constant coefficient estimates.

The design matrix M_XKX(u, h) = (1/sqrt(Th)) * sum_t X_t X_t' K((t/T-u)/h)
carries the 1/sqrt(Th) scaling throughout: it cancels in the coefficient
estimate but matters in the multiscale statistic.

batched_designs, the guard solve_mask and the solve batched_beta are the one
path; local_design, beta_hat and coefficient_curve wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDesignError
from .kernels import SmoothingKernel, check_point, weights_matrix
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
    """Vectorized designs over many points: M (G, D, D) and sums a (G, N, D).

    Contractions deliberately use non-optimized einsum so the arithmetic is
    identical regardless of BLAS threading.
    """
    T = panel.n_time
    W = weights_matrix(kernel, T, us, hs)
    scale = 1.0 / np.sqrt(T * np.asarray(hs, dtype=float))
    M = np.einsum("gt,td,te->gde", W, panel.x, panel.x) * scale[:, None, None]
    M = 0.5 * (M + np.swapaxes(M, 1, 2))
    a = np.einsum("gt,td,nt->gnd", W, panel.x, panel.y) * scale[:, None, None]
    return M, a


def solve_mask(M: np.ndarray) -> np.ndarray:
    """Boolean mask of gridpoints whose design passes the condition guard."""
    eig = np.linalg.eigvalsh(M)
    lo, hi = eig[:, 0], eig[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (lo > 0.0) & (hi / np.where(lo > 0.0, lo, 1.0) <= COND_LIMIT)
    return ok


def batched_beta(M: np.ndarray, a: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Coefficients beta[g, n] = M[g]^-1 a[g, n], shape (G, N, D); rows where
    ~ok (the designs solve_mask rejects) are NaN and never solved."""
    beta = np.full(a.shape, np.nan)
    if np.any(ok):
        beta[ok] = np.linalg.solve(M[ok][:, None, :, :], a[ok][:, :, :, None])[..., 0]
    return beta
