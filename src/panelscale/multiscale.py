"""Pairwise local statistics, their lambda-penalized aggregation and the test.

For a pair (i, j) and gridpoint (u, h) the local statistic is

    S_ij(u, h) = || Nrm_ij @ M_XKX(u, h) @ (beta_i - beta_j) ||_inf

with Nrm_ij the inverse square root of the averaged long-run covariances.
Algebraically this equals the kernel-sum form
|| Nrm_ij @ (1/sqrt(Th)) sum_t X_t (Y_it - Y_jt) K_t ||_inf, which needs no
matrix inversion; it is how the statistic is computed. Gridpoints whose
design fails the condition guard are only recorded (fallback_points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critvals import CriticalValue
from .errors import PanelFormatError
from .estimate import batched_beta, batched_designs, solve_mask
from .grid import Grid
from .kernels import SmoothingKernel, lambda_corrections
from .lrv import HacConfig, long_run_covariances, pair_normalizer
from .panel import Panel

IDENTITY_TOL = 1e-8


def unit_pairs(n_units: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs i < j."""
    return tuple((i, j) for i in range(n_units) for j in range(i + 1, n_units))


@dataclass(frozen=True, eq=False)
class LocalStatTable:
    """Local statistics for every (pair, gridpoint) plus the lambda penalty.

    s_hat has shape (n_pairs, n_points); fallback_points lists grid indices
    whose design fails the condition guard, where only the kernel-sum form
    of the statistic is defined.
    """

    grid: Grid
    pairs: tuple[tuple[int, int], ...]
    s_hat: np.ndarray
    lam: np.ndarray
    fallback_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        s = np.asarray(self.s_hat, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if s.shape != (len(self.pairs), self.grid.n_points):
            raise ValueError(
                f"s_hat shape {s.shape} != (pairs, points) "
                f"({len(self.pairs)}, {self.grid.n_points})"
            )
        if lam.shape != (self.grid.n_points,):
            raise ValueError("one lambda per gridpoint required")
        if s.size and s.min() < 0.0:
            raise ValueError("local statistics are max-norms and cannot be negative")
        s = s.copy()
        lam = lam.copy()
        s.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "s_hat", s)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True, eq=False)
class Rejection:
    """One rejected local hypothesis: pair (i, j) on [u-h, u+h]."""

    i: int
    j: int
    u: float
    h: float
    stat: float
    exceedance: float


@dataclass(frozen=True, eq=False)
class TestResult:
    psi_hat: float
    q_alpha: float
    alpha: float
    reject_global: bool
    rejections: tuple[Rejection, ...]
    minimal_rejections: tuple[Rejection, ...] | None = None
    fallback_points: tuple[int, ...] = ()


def build_normalizers(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> np.ndarray:
    """(n_pairs, D, D) stack of inverse square roots, pair order as unit_pairs."""
    covs = long_run_covariances(panel, kernel, config)
    return np.array(
        [pair_normalizer(covs[i], covs[j]) for i, j in unit_pairs(panel.n_units)]
    )


def compute_stat_table(
    panel: Panel,
    kernel: SmoothingKernel,
    grid: Grid,
    normalizers: np.ndarray,
) -> LocalStatTable:
    """Evaluate S_ij(u, h) for every pair and gridpoint.

    The statistic is the kernel-sum form, taken straight from the response
    sums a; no design is inverted. solve_mask only diagnoses: gridpoints whose
    design fails the guard are listed in fallback_points.
    """
    panel.require_pairs()
    pairs = unit_pairs(panel.n_units)
    normalizers = np.asarray(normalizers, dtype=float)
    if normalizers.shape != (len(pairs), panel.n_covariates, panel.n_covariates):
        raise ValueError(
            f"normalizers shape {normalizers.shape} != (n_pairs, D, D)"
        )
    M, a = batched_designs(panel, kernel, grid.u, grid.h)
    ok = solve_mask(M)
    i_idx, j_idx = np.triu_indices(panel.n_units, k=1)  # unit_pairs order
    diff = a[:, i_idx, :] - a[:, j_idx, :]  # (G, P, D)
    scaled = np.einsum("pde,gpe->pgd", normalizers, diff)
    s_hat = np.abs(scaled).max(axis=2)
    return LocalStatTable(
        grid=grid,
        pairs=pairs,
        s_hat=s_hat,
        lam=lambda_corrections(grid.h),
        fallback_points=tuple(int(g) for g in np.nonzero(~ok)[0]),
    )


def local_stat(
    panel: Panel,
    kernel: SmoothingKernel,
    normalizer: np.ndarray,
    u: float,
    h: float,
    i: int,
    j: int,
    cross_check: bool = True,
) -> float:
    """Single local statistic for pair (i, j) at (u, h).

    When the design is invertible the estimator form is returned and, with
    cross_check, verified against the kernel-sum form to 1e-8 relative; a
    singular design silently uses the kernel-sum form (no inversion needed).
    """
    if not 0 <= i < j < panel.n_units:
        raise PanelFormatError(f"need 0 <= i < j < N, got ({i}, {j})")
    M, a = batched_designs(panel, kernel, np.array([u]), np.array([h]))
    direct = normalizer @ (a[0, i] - a[0, j])
    s_direct = float(np.abs(direct).max())
    ok = solve_mask(M)
    if not ok[0]:
        return s_direct
    beta = batched_beta(M, a, ok)[0]
    est = normalizer @ (M[0] @ (beta[i] - beta[j]))
    s_est = float(np.abs(est).max())
    if cross_check and abs(s_est - s_direct) > IDENTITY_TOL * max(1.0, s_direct):
        raise ArithmeticError(
            f"statistic forms disagree at (u={u}, h={h}) for pair ({i}, {j}): "
            f"{s_est} vs {s_direct}"
        )
    return s_est


def aggregate(table: LocalStatTable) -> float:
    """Max over pairs and gridpoints of the lambda-penalized statistics."""
    if table.s_hat.size == 0:
        raise ValueError("cannot aggregate an empty table")
    return float((table.s_hat - table.lam[None, :]).max())


def _collect_rejections(table: LocalStatTable, q: float) -> tuple[Rejection, ...]:
    exceed = table.s_hat - table.lam[None, :]
    entries = []
    for p, g in zip(*np.nonzero(exceed > q)):
        i, j = table.pairs[p]
        entries.append(
            Rejection(
                i=i,
                j=j,
                u=float(table.grid.u[g]),
                h=float(table.grid.h[g]),
                stat=float(table.s_hat[p, g]),
                exceedance=float(exceed[p, g]),
            )
        )
    entries.sort(key=lambda r: (-r.exceedance, r.i, r.j, r.u, r.h))
    return tuple(entries)


def prune_minimal(rejections) -> tuple[Rejection, ...]:
    """Keep, per pair, only rejected intervals containing no other rejected
    interval of the same pair."""
    eps = 1e-12
    kept = []
    for r in rejections:
        lo, hi = r.u - r.h, r.u + r.h
        nested = False
        for other in rejections:
            if other is r or (other.i, other.j) != (r.i, r.j):
                continue
            olo, ohi = other.u - other.h, other.u + other.h
            if olo >= lo - eps and ohi <= hi + eps and (ohi - olo) < (hi - lo) - eps:
                nested = True
                break
        if not nested:
            kept.append(r)
    return tuple(kept)


def run_test(
    panel: Panel,
    kernel: SmoothingKernel,
    grid: Grid,
    lrv_config: HacConfig,
    alpha: float,
    crit: CriticalValue,
    keep_minimal: bool = False,
) -> TestResult:
    """Full pipeline: normalizers, statistic table, global and local decisions."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if abs(crit.alpha - alpha) > 1e-12:
        raise ValueError(
            f"critical value was computed for alpha={crit.alpha}, requested {alpha}"
        )
    normalizers = build_normalizers(panel, kernel, lrv_config)
    table = compute_stat_table(panel, kernel, grid, normalizers)
    psi = aggregate(table)
    rejections = _collect_rejections(table, crit.q)
    return TestResult(
        psi_hat=psi,
        q_alpha=crit.q,
        alpha=alpha,
        reject_global=psi > crit.q,
        rejections=rejections,
        minimal_rejections=prune_minimal(rejections) if keep_minimal else None,
        fallback_points=table.fallback_points,
    )
