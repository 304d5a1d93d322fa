"""Monte Carlo critical values from the pivotal Gaussian statistic.

Draw b simulates i.i.d. standard normal Z_it in R^D, evaluates

    S_ij(u, h) = || (1/sqrt(Th)) sum_t (Z_it - Z_jt) K((t/T-u)/h) ||_inf

for every pair and gridpoint, and aggregates to
Phi_b = max {S_ij(u,h) - lambda(h)}. The distribution depends only on
(T, N, D, grid, kernel) -- never on panel data -- so draws can be cached and
shared across runs and replications.

Draw b uses the counter-based Philox generator jumped b times from the seed,
making the vector of draws independent of worker scheduling. Blocks of draws
share one window_sums contraction, and the max over pairs is the range
max_i S - min_i S per coordinate, O(N) rather than O(N^2).

The normals are drawn in float64 and the window sums and pair ranges taken in
float32, against a float32 copy of the designs' shared kernel weights
(kernels._shared_weights) scaled by 1/sqrt(Th); lambda(h) is subtracted in
float64. Against float64 sums of the same normals, Phi moves by at most
about 2e-6.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._parallel import ordered_map
from .errors import QuantileError
from .grid import Grid, check_grid_T
from .kernels import SmoothingKernel, _shared_weights, window_sums


@dataclass(frozen=True, eq=False)
class CriticalValue:
    """Empirical (1-alpha)-quantile of the simulated Gaussian aggregate."""

    alpha: float
    B: int
    seed: int
    q: float
    phi_draws: np.ndarray | None = None


# GEMM columns per block of draws (draws times N*D). At N=5, T=300, D=2,
# 64-draw blocks (640 columns) ran no faster and raised peak memory
_BLOCK_COLUMNS = 128
# draws per block at least: at N=50, T=500, D=3, 100 draws took 0.41-0.55 s
# in one-draw blocks and 0.36-0.38 s in four-draw blocks (one worker; with
# two, 0.27-0.31 against 0.21-0.23 s)
_BLOCK_DRAWS = 4


def _philox_draws(seed: int):
    """A Generator on Philox(key=seed) and a function that moves it to the
    start of draw b: counter b * 2**128 and an empty buffer, the state that
    Philox(key=seed).jumped(b) starts from. Each Philox construction, and so
    each jumped() call, seeds a SeedSequence from OS entropy that goes
    unused; setting the state does not."""
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state

    def move_to(b: int) -> None:
        state["state"]["counter"] = np.array(
            [0, 0, b & (2**64 - 1), b >> 64], dtype=np.uint64
        )
        bitgen.state = state

    return np.random.Generator(bitgen), move_to


def _max_pair_gap(sums: np.ndarray) -> np.ndarray:
    """max over unit pairs i < j of |S_i - S_j| for sums of shape (G, N, C),
    shape (G, C). It is max_i S - min_i S exactly: rounding is monotone, so
    no pair's rounded difference exceeds the rounded range."""
    hi = sums[:, 0].copy()
    lo = hi.copy()
    for n in range(1, sums.shape[1]):
        np.maximum(hi, sums[:, n], out=hi)
        np.minimum(lo, sums[:, n], out=lo)
    return hi - lo


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
    check_grid_T(grid, T)
    # the shared W scaled in float64, then rounded once to float32
    W = np.empty((grid.n_points, T), dtype=np.float32)
    scale = (1.0 / np.sqrt(T * grid.h))[:, None]
    np.multiply(_shared_weights(kernel, T, grid.u, grid.h), scale, out=W, casting="unsafe")
    # about _BLOCK_COLUMNS GEMM columns and at least _BLOCK_DRAWS draws per
    # block; the blocks depend only on (N, D) and a short last block is
    # zero-padded, so every draw is computed the same way whatever B and
    # n_workers are
    per_block = max(_BLOCK_DRAWS, _BLOCK_COLUMNS // (N * D))

    def one_block(start: int) -> np.ndarray:
        n = min(per_block, B - start)
        # columns ordered (unit, draw, coordinate), periods innermost so that
        # a draw is cast in by runs of T values rather than of D
        block = np.zeros((N, per_block, D, T), dtype=np.float32)
        z = np.empty((N, T, D))
        gen, move_to = _philox_draws(seed)
        for k in range(n):
            move_to(start + k)
            gen.standard_normal(out=z)
            block[:, k] = z.transpose(0, 2, 1)
        sums = window_sums(W, block.reshape(-1, T).T)
        gap = _max_pair_gap(sums.reshape(-1, N, per_block * D))
        s = gap.reshape(-1, per_block, D).max(axis=2)
        # float32 ranges less float64 lambda: the draws are float64
        return (s[:, :n] - grid.lam[:, None]).max(axis=0)

    starts = range(0, B, per_block)
    return np.concatenate(ordered_map(one_block, starts, n_workers))


def _check_quantile(alpha: float, B: int) -> None:
    """alpha must lie in (0, 1) and B >= 1/alpha draws resolve its quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if B < 1.0 / alpha:
        raise QuantileError(
            f"B={B} draws cannot resolve the {1 - alpha:.4f} quantile; "
            f"need B >= {math.ceil(1.0 / alpha)}"
        )


def critical_value(
    draws: np.ndarray,
    alpha: float,
    seed: int = 0,
) -> CriticalValue:
    """Ceiling order statistic q = sorted_draws[ceil((1-alpha) B)] (1-based).

    The ceiling convention makes the empirical P(Phi <= q) at least 1 - alpha.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1 or draws.size == 0:
        raise ValueError("draws must be a nonempty vector")
    if not np.isfinite(draws).all():
        raise ValueError("draws must be finite")
    B = draws.size
    _check_quantile(alpha, B)
    # guard against float fuzz when (1-alpha)*B is mathematically an integer
    idx = max(1, math.ceil((1.0 - alpha) * B - 1e-9))
    q = float(np.sort(draws)[idx - 1])
    return CriticalValue(alpha=alpha, B=B, seed=seed, q=q, phi_draws=draws)


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
    """simulate_phi + critical_value, with optional draw caching. alpha, B
    and the cache's path and directory are checked before any draw is made or
    read."""
    _check_quantile(alpha, B)
    check_grid_T(grid, T)
    draws = None
    key = draws_cache_key(T, N, D, grid, kernel, B, seed)
    if cache_path is not None:
        if not os.fspath(cache_path) or os.path.isdir(cache_path):
            raise ValueError(
                f"draw cache {os.fspath(cache_path)!r}: empty or a directory, not a file"
            )
        if not os.path.isdir(os.path.dirname(os.path.abspath(cache_path))):
            raise FileNotFoundError(f"draw cache {cache_path}: no such directory")
        draws = load_draws(cache_path, key)
        if draws is not None and draws.size != B:
            draws = None
    if draws is None:
        draws = simulate_phi(T, N, D, grid, kernel, B, seed, n_workers)
        if cache_path is not None:
            save_draws(cache_path, key, draws)
    return critical_value(draws, alpha, seed=seed)


# version 4 takes the window sums in float32; version 3 took them in float64,
# version 2 keyed by the parameters' SHA-256 and version 1 summed the draws
# another way: older caches are recomputed
_CACHE_MAGIC = b"PSCV\x04"


def draws_cache_key(
    T: int, N: int, D: int, grid: Grid, kernel: SmoothingKernel, B: int, seed: int
) -> bytes:
    """The exact parameter tuple that pins the draw distribution, as bytes:
    (T, N, D, B, seed), the kernel name, then the (t, s) lattice indices of
    every grid point in order. No kernel name is a prefix of another, so
    equal keys mean equal parameters: a cache hit needs no hash."""
    for name, value in (("B", B), ("seed", seed)):
        if not 0 <= value < 2**63:
            raise ValueError(f"{name}={value} outside [0, 2**63), the draw cache key's range")
    head = struct.pack("<5q", T, N, D, B, seed) + kernel.kind.encode()
    return head + grid.lattice.astype("<i8").tobytes()


def save_draws(path, key: bytes, draws: np.ndarray) -> None:
    """Write the draw cache through a temporary file in the same directory
    that then replaces the target: readers never see a partial file, and a
    failed write leaves the previous cache in place. The layout is the
    magic, the key's length and the key, the draw count and the draws."""
    draws = np.asarray(draws, dtype="<f8")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".pscv-{os.urandom(8).hex()}.tmp")
    # mode 0o666 less the umask, as open(path, "wb") would give
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<Q", len(key)))
            fh.write(key)
            fh.write(struct.pack("<Q", draws.size))
            fh.write(draws.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_draws(path, key: bytes) -> np.ndarray | None:
    """Return cached draws when the file exists, its key equals `key` byte
    for byte and it holds every draw its header counts, each finite, else
    None."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    header = _CACHE_MAGIC + struct.pack("<Q", len(key)) + key
    head = len(header) + 8
    if len(blob) < head or not blob.startswith(header):
        return None
    (size,) = struct.unpack("<Q", blob[head - 8 : head])
    if len(blob) - head != 8 * size:
        return None
    draws = np.frombuffer(blob, dtype="<f8", offset=head)
    return draws.copy() if np.isfinite(draws).all() else None
