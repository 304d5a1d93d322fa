"""Pairwise local statistics, their lambda-penalized aggregation and the test.

For a pair (i, j) and gridpoint (u, h) the local statistic is

    S_ij(u, h) = || Nrm_ij @ M_XKX(u, h) @ (beta_i - beta_j) ||_inf

with Nrm_ij the inverse square root of the averaged long-run covariances.
Algebraically this equals the kernel-sum form
|| Nrm_ij @ (1/sqrt(Th)) sum_t X_t (Y_it - Y_jt) K_t ||_inf, which needs no
matrix inversion; _pair_blocks forms it, one einsum a row block of pairs.
Gridpoints whose design fails the condition guard are only recorded (fallback_points).

A Monte Carlo replication needs only each pair's maximum: _stack_pair_max
takes a stack of panels through the same stages, one call a stage for all of
them, and keeps of each block only those maxima (and masked exceedances).
Each panel's maxima have the bits run_test and compute_stat_table give it
alone, and the Monte Carlo harness checks them against TestResult.pair_max
on the first panel of every run, raising ArithmeticError if they differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .critvals import CriticalValue
from .errors import PanelFormatError
from .estimate import _stacked_sums, batched_beta, batched_designs, solve_mask
from .grid import Grid, check_grid_T
from .kernels import HacConfig, SmoothingKernel, _row_blocks, _shared_weights
from .lrv import _pair_roots, _unit_sigmas
# perfbench's tracer looks both up here
from .lrv import long_run_covariances, pair_normalizer  # noqa: F401
from .panel import Panel

IDENTITY_TOL = 1e-8


def unit_pairs(n_units: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs i < j."""
    return tuple((i, j) for i in range(n_units) for j in range(i + 1, n_units))


@functools.lru_cache(maxsize=4)
def _pair_index(n_units: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Unit index arrays (i, j), read-only, of the pairs of panels whose units
    lie end to end: panel r's in unit_pairs order, offset by r * n_units."""
    i_idx, j_idx = np.triu_indices(n_units, k=1)
    offsets = n_units * np.arange(panels)[:, None]
    i_idx, j_idx = (offsets + i_idx).ravel(), (offsets + j_idx).ravel()
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself if it is read-only and owns its data, else a read-only copy."""
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.setflags(write=False)
    return a


def _check_stats(s: np.ndarray) -> None:
    """Raise ValueError unless every local statistic is finite and >= 0."""
    if s.size:
        # min and max build no temporary; nan and inf fail isfinite
        lo, hi = s.min(), s.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("local statistics must be finite")
        if lo < 0.0:
            raise ValueError("local statistics are max-norms and cannot be negative")


@dataclass(frozen=True, eq=False)
class LocalStatTable:
    """Local statistics for every (pair, gridpoint) plus the lambda penalty.

    s_hat has shape (n_pairs, n_points); fallback_points lists grid indices
    whose design fails the condition guard, where only the kernel-sum form
    of the statistic is defined. pair_max holds max over gridpoints of
    s_hat - lam per pair, the one reduction psi, the dissimilarities and the
    rejections read.
    """

    grid: Grid
    pairs: tuple[tuple[int, int], ...]
    s_hat: np.ndarray
    lam: np.ndarray
    fallback_points: tuple[int, ...] = ()
    pair_max: np.ndarray = field(init=False, repr=False)

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
        if not np.isfinite(lam).all():
            raise ValueError("lambda must be finite")
        _check_stats(s)
        s, lam = _frozen(s), _frozen(lam)
        pair_max = np.empty(s.shape[0])
        for blk in _row_blocks(*s.shape):
            np.max(s[blk] - lam, axis=1, out=pair_max[blk])
        pair_max.setflags(write=False)
        object.__setattr__(self, "s_hat", s)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "pair_max", pair_max)


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
    """The test's decisions on one panel. pair_max holds each pair's max over
    gridpoints of S - lambda, in unit_pairs order: the maxima psi_hat and the
    dissimilarities read (None only in a result built by its caller)."""

    psi_hat: float
    q_alpha: float
    alpha: float
    reject_global: bool
    rejections: tuple[Rejection, ...]
    minimal_rejections: tuple[Rejection, ...] | None = None
    fallback_points: tuple[int, ...] = ()
    pair_max: np.ndarray | None = None


def build_normalizers(
    panel: Panel, kernel: SmoothingKernel, config: HacConfig
) -> np.ndarray:
    """(n_pairs, D, D) stack of inverse square roots, pair order as unit_pairs.

    Raises DegenerateCovarianceError naming the first pair that fails a check.
    """
    return _stack_normalizers(panel.x[None], panel.y[None], kernel, config)


def _stack_normalizers(
    x: np.ndarray, y: np.ndarray, kernel: SmoothingKernel, config: HacConfig
) -> np.ndarray:
    """build_normalizers of every panel of a stack, x (R, T, D) and
    y (R, N, T), end to end, shape (R * n_pairs, D, D). The first pair that
    fails a check is named by its units within its panel."""
    (R, N, _), D = y.shape, x.shape[-1]
    sigmas = _unit_sigmas(x, y, kernel, config).reshape(-1, D, D)
    return _pair_roots(sigmas, [*range(N)] * R, *_pair_index(N, R))


def _pair_blocks(
    a: np.ndarray, normalizers: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray
):
    """Yields (rows, S) a row block of pairs at a time, S[k] the max-norms of
    normalizers[p] @ (a[i_idx[p]] - a[j_idx[p]]) for the sums a (K, D, G) and
    the k-th pair p of rows. The only code that forms S: one einsum a block,
    whose optimize=False never calls BLAS, so no bit depends on BLAS threads.
    A block's gathered sums and products, 2 * D * G floats a pair, stay within
    _BLOCK_BYTES (one pair at the least) and go before its S is taken."""
    G = a.shape[2]
    if G == 1:
        # einsum would sum e innermost, in SIMD partial sums; keep g inner
        a = np.repeat(a, 2, axis=2)
    D, width = a.shape[1:]
    for rows in _row_blocks(len(normalizers), 2 * D * width):
        diff = a[i_idx[rows]]
        diff -= a[j_idx[rows]]
        # each product is added to its row in the order e = 0, 1, ...
        prods = np.einsum("pde,peg->pdg", normalizers[rows], diff)
        del diff
        s = np.abs(prods, out=prods).max(axis=1)
        del prods
        yield rows, s[:, :G]


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
    check_grid_T(grid, panel.n_time)
    pairs = unit_pairs(panel.n_units)
    normalizers = np.asarray(normalizers, dtype=float)
    if normalizers.shape != (len(pairs), panel.n_covariates, panel.n_covariates):
        raise ValueError(
            f"normalizers shape {normalizers.shape} != (n_pairs, D, D)"
        )
    M, a = batched_designs(panel, kernel, grid.u, grid.h)
    ok = solve_mask(M)
    a = np.ascontiguousarray(a.transpose(1, 2, 0))  # (N, D, G)
    s_hat = np.empty((len(pairs), grid.n_points))
    for rows, s in _pair_blocks(a, normalizers, *_pair_index(panel.n_units)):
        s_hat[rows] = s
    s_hat.setflags(write=False)  # the table keeps it without a copy
    return LocalStatTable(
        grid=grid,
        pairs=pairs,
        s_hat=s_hat,
        lam=grid.lam,
        fallback_points=tuple(int(g) for g in np.nonzero(~ok)[0]),
    )


def _stack_pair_max(
    x: np.ndarray,
    y: np.ndarray,
    kernel: SmoothingKernel,
    grid: Grid,
    config: HacConfig,
    mask: np.ndarray | None = None,
    q: float = np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """LocalStatTable.pair_max of every panel of a stack, x (R, T, D) and
    y (R, N, T), shape (R, n_pairs), and, given a (n_pairs, G) mask, whether
    any masked cell of each panel has S - lambda > q (all False without one).

    One call a stage serves the whole stack: pilot fit, HAC, pair roots and
    the response sums at the grid, then the statistics of all R * n_pairs
    pairs, each row block reduced as _pair_blocks yields it. No grid design
    M, solve_mask, table, rejection or TestResult is made. Each panel's
    maxima have the bits that build_normalizers and compute_stat_table (so
    run_test) give it alone; the Monte Carlo harness checks them against
    run_test's on the first panel of every run, raising ArithmeticError. The
    statistics must be finite and nonnegative, as a table's must.
    """
    (R, N, T), D, G = y.shape, x.shape[-1], grid.n_points
    check_grid_T(grid, T)
    normalizers = _stack_normalizers(x, y, kernel, config)
    W = _shared_weights(kernel, T, grid.u, grid.h)
    a = _stacked_sums(W, grid.h, x, y)  # (R, G, N, D)
    a = np.ascontiguousarray(a.transpose(0, 2, 3, 1)).reshape(R * N, D, G)
    P = len(normalizers) // R
    pair_max, hot = np.empty(R * P), np.zeros(R * P, dtype=bool)
    for rows, excess in _pair_blocks(a, normalizers, *_pair_index(N, R)):
        _check_stats(excess)
        excess -= grid.lam
        excess.max(axis=1, out=pair_max[rows])
        if mask is not None:  # a block may straddle panels: pair k is mask row k % P
            hot[rows] = ((excess > q) & mask[np.arange(R * P)[rows] % P]).any(axis=1)
    return pair_max.reshape(R, P), hot.reshape(R, P).any(axis=1)


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
    return float(table.pair_max.max())


def _collect_rejections(table: LocalStatTable, q: float) -> tuple[Rejection, ...]:
    # only pairs whose max exceeds q have a cell that does
    hot = np.nonzero(table.pair_max > q)[0]
    entries = []
    for blk in _row_blocks(hot.size, table.grid.n_points):
        rows = hot[blk]
        exceed = table.s_hat[rows]
        exceed -= table.lam
        for k, g in zip(*np.nonzero(exceed > q)):
            i, j = table.pairs[rows[k]]
            entries.append(
                Rejection(
                    i=i,
                    j=j,
                    u=float(table.grid.u[g]),
                    h=float(table.grid.h[g]),
                    stat=float(table.s_hat[rows[k], g]),
                    exceedance=float(exceed[k, g]),
                )
            )
        del exceed  # before the next block is gathered
    entries.sort(key=lambda r: (-r.exceedance, r.i, r.j, r.u, r.h))
    return tuple(entries)


def prune_minimal(rejections) -> tuple[Rejection, ...]:
    """Keep, per pair, only rejected intervals containing no other rejected
    interval of the same pair, in input order. Inside and shorter are both
    taken with a 1e-12 tolerance; each pair's intervals are compared among
    themselves, in row blocks of at most _BLOCK_BYTES."""
    eps = 1e-12
    rejections = tuple(rejections)
    lo = np.array([r.u - r.h for r in rejections], dtype=float)
    hi = np.array([r.u + r.h for r in rejections], dtype=float)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for k, r in enumerate(rejections):
        by_pair.setdefault((r.i, r.j), []).append(k)
    keep = np.ones(len(rejections), dtype=bool)
    for members in by_pair.values():
        m = np.array(members)
        plo, phi = lo[m], hi[m]
        width = phi - plo
        for blk in _row_blocks(m.size, m.size):
            # [row, other]: other lies inside row and is strictly shorter
            nested = plo >= plo[blk, None] - eps
            nested &= phi <= phi[blk, None] + eps
            nested &= width < width[blk, None] - eps
            keep[m[blk]] = ~nested.any(axis=1)
    return tuple(r for r, k in zip(rejections, keep) if k)


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
        pair_max=table.pair_max,  # read-only and owns its P floats: no copy
    )
