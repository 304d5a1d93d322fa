"""Monte Carlo critical values from the pivotal Gaussian statistic.

Draw b simulates i.i.d. standard normal Z_it in R^D, evaluates

    S_ij(u, h) = || (1/sqrt(Th)) sum_t (Z_it - Z_jt) K((t/T-u)/h) ||_inf

for every pair and gridpoint, and aggregates to
Phi_b = max {S_ij(u,h) - lambda(h)}. The distribution depends only on
(T, N, D, grid, kernel) -- never on panel data -- so draws can be cached and
shared across runs and replications.

Draw b uses the counter-based Philox generator jumped b times from the seed,
making the vector of draws independent of worker scheduling.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from ._parallel import ordered_map
from .errors import QuantileError
from .grid import Grid
from .kernels import SmoothingKernel, lambda_corrections, weights_matrix


@dataclass(frozen=True, eq=False)
class CriticalValue:
    """Empirical (1-alpha)-quantile of the simulated Gaussian aggregate."""

    alpha: float
    B: int
    seed: int
    q: float
    phi_draws: np.ndarray | None = None


def _draw_generator(seed: int, b: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(b))


def simulate_phi(
    T: int,
    N: int,
    D: int,
    grid: Grid,
    kernel: SmoothingKernel,
    B: int,
    seed: int,
    n_workers: int = 1,
) -> np.ndarray:
    """B independent draws of the aggregated Gaussian statistic Phi.

    Deterministic given (seed, T, N, D, grid, kernel, B); draw order in the
    output never depends on n_workers.
    """
    if B < 100:
        raise ValueError(f"B={B} too small; need at least 100 draws")
    if N < 2:
        raise ValueError("need at least two units for pairwise statistics")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if grid.n_points == 0:
        raise ValueError("grid is empty")
    W = weights_matrix(kernel, T, grid.u, grid.h)
    scale = 1.0 / np.sqrt(T * grid.h)
    lam = lambda_corrections(grid.h)
    i_idx, j_idx = np.triu_indices(N, k=1)

    def one_draw(b: int) -> float:
        z = _draw_generator(seed, b).standard_normal((N, T, D))
        sums = np.einsum("gt,ntd->ngd", W, z) * scale[None, :, None]
        s = np.abs(sums[i_idx] - sums[j_idx]).max(axis=2)
        return float((s - lam[None, :]).max())

    return np.array(ordered_map(one_draw, range(B), n_workers))


def critical_value(
    draws: np.ndarray,
    alpha: float,
    seed: int = 0,
    keep_draws: bool = True,
) -> CriticalValue:
    """Ceiling order statistic q = sorted_draws[ceil((1-alpha) B)] (1-based).

    The ceiling convention makes the empirical P(Phi <= q) at least 1 - alpha.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1 or draws.size == 0:
        raise ValueError("draws must be a nonempty vector")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    B = draws.size
    if B < 1.0 / alpha:
        raise QuantileError(
            f"B={B} draws cannot resolve the {1 - alpha:.4f} quantile; "
            f"need B >= {math.ceil(1.0 / alpha)}"
        )
    # guard against float fuzz when (1-alpha)*B is mathematically an integer
    idx = max(1, math.ceil((1.0 - alpha) * B - 1e-9))
    q = float(np.sort(draws)[idx - 1])
    return CriticalValue(
        alpha=alpha, B=B, seed=seed, q=q, phi_draws=draws if keep_draws else None
    )


def gaussian_critical_value(
    T: int,
    N: int,
    D: int,
    grid: Grid,
    kernel: SmoothingKernel,
    B: int,
    seed: int,
    alpha: float,
    n_workers: int = 1,
    cache_path=None,
) -> CriticalValue:
    """simulate_phi + critical_value, with optional draw caching."""
    draws = None
    key = draws_cache_key(T, N, D, grid, kernel, B, seed)
    if cache_path is not None:
        draws = load_draws(cache_path, key)
        if draws is not None and draws.size != B:
            draws = None
    if draws is None:
        draws = simulate_phi(T, N, D, grid, kernel, B, seed, n_workers)
        if cache_path is not None:
            save_draws(cache_path, key, draws)
    return critical_value(draws, alpha, seed=seed)


_CACHE_MAGIC = b"PSCV\x01"


def draws_cache_key(
    T: int, N: int, D: int, grid: Grid, kernel: SmoothingKernel, B: int, seed: int
) -> bytes:
    """SHA-256 over the exact parameter tuple that pins the draw distribution."""
    hasher = hashlib.sha256()
    hasher.update(struct.pack("<5q", T, N, D, B, seed))
    hasher.update(kernel.kind.encode())
    for u, h in grid.points:
        hasher.update(struct.pack("<2q", round(u * grid.T), round(h * grid.T)))
    return hasher.digest()


def save_draws(path, key: bytes, draws: np.ndarray) -> None:
    """Write the draw cache through a temporary file in the same directory
    that then replaces the target: readers never see a partial file, and a
    failed write leaves the previous cache in place."""
    draws = np.asarray(draws, dtype="<f8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".pscv-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(key)
            fh.write(struct.pack("<Q", draws.size))
            fh.write(draws.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_draws(path, key: bytes) -> np.ndarray | None:
    """Return cached draws when the file exists and the key matches, else None."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    head = len(_CACHE_MAGIC) + 32 + 8
    if len(blob) < head or blob[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        return None
    if blob[len(_CACHE_MAGIC) : len(_CACHE_MAGIC) + 32] != key:
        return None
    (size,) = struct.unpack("<Q", blob[head - 8 : head])
    data = np.frombuffer(blob[head:], dtype="<f8")
    if data.size != size:
        return None
    return data.copy()
