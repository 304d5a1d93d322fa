"""Compactly supported smoothing kernels, the multiscale bandwidth penalty and
the HAC settings (HacConfig, its covariance kernels and pilot fit points).

All built-in kernels are nonnegative, symmetric, integrate to one, vanish
outside [-1, 1] and have squared integral strictly above 1/2 (Epanechnikov
3/5, biweight 5/7, triweight 350/429).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("epanechnikov", "biweight", "triweight")


@dataclass(frozen=True)
class SmoothingKernel:
    """A named smoothing kernel; callable on scalars or arrays."""

    kind: str = "epanechnikov"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel {self.kind!r}; choose one of {KERNEL_KINDS}"
            )

    def __call__(self, z):
        return kernel_eval(self, z)


def kernel_eval(kernel: SmoothingKernel, z):
    """Evaluate K(z); exactly zero outside [-1, 1].

    Accepts scalars or arrays and returns the matching shape.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("kernel argument must be finite")
    out = _kernel_into(kernel.kind, z, np.empty_like(z))
    return out if out.ndim else float(out)


def _kernel_into(kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K(z) for finite z, written into out (which may be z itself) and
    returned. Biweight and triweight allocate one more array of z's size."""
    w = np.multiply(z, z, out=out)
    np.subtract(1.0, w, out=w)
    np.maximum(0.0, w, out=w)
    if kind == "epanechnikov":
        return np.multiply(0.75, w, out=w)
    if kind == "biweight":
        scaled = (15.0 / 16.0) * w
    else:  # triweight
        scaled = (35.0 / 32.0) * w
        scaled *= w
    return np.multiply(scaled, w, out=w)


def check_point(u: float, h: float) -> None:
    """Raise ValueError unless 0 < h < 1 and 0 <= u <= 1."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth h={h} outside (0, 1)")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"location u={u} outside [0, 1]")


def kernel_weights(kernel: SmoothingKernel, T: int, u: float, h: float) -> np.ndarray:
    """Localizing weights K((t/T - u)/h) for t = 1..T.

    An all-zero vector signals an empty local window; callers decide how to
    react to it.
    """
    check_point(u, h)
    return weights_matrix(kernel, T, np.array([u]), np.array([h]))[0]


def weights_matrix(
    kernel: SmoothingKernel, T: int, u: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Kernel weights for many (u, h) points: row g is K((t/T - u_g)/h_g),
    shape (len(u), T).

    The weights are computed in one (len(u), T) array, plus a second for
    biweight and triweight, with kernel_eval's bits.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    t = np.arange(1, T + 1, dtype=float)
    # (t - uT)/(hT) rather than (t/T - u)/h. On the 1/T lattice uT and hT are
    # still rounded products (15/22 * 22 = 14.999999999999998), so a window's
    # edge period may keep a weight near 1e-16, but no period outside [u-h, u+h]
    # gets one; z from integer offsets would change every draw's bits
    z = np.subtract(t[None, :], u[:, None] * T)
    z /= h[:, None] * T
    # each row is monotone in t, so it is finite wherever its two ends are
    if not (np.all(np.isfinite(z[:, :1])) and np.all(np.isfinite(z[:, -1:]))):
        raise ValueError("kernel argument must be finite")
    return _kernel_into(kernel.kind, z, z)


_LIVE_WEIGHTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_weights(
    kernel: SmoothingKernel, T: int, us: np.ndarray, hs: np.ndarray
) -> np.ndarray:
    """weights_matrix(kernel, T, us, hs), read-only, and the same array for
    every call while any caller holds it; it is freed with its last holder.
    A Monte Carlo run holds its grid and pilot W, so its draws and
    replications share one build of each; a single run_test frees each after
    its designs."""
    us = np.asarray(us, dtype=float)
    hs = np.asarray(hs, dtype=float)
    key = (kernel, T, us.tobytes(), hs.tobytes())
    W = _LIVE_WEIGHTS.get(key)
    if W is None:
        W = weights_matrix(kernel, T, us, hs)
        W.setflags(write=False)
        _LIVE_WEIGHTS[key] = W
    return W


WINDOW_BLOCK = 256


def window_sums(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Kernel-weighted sums over time, W (G, T) @ Z (..., T, C), shape
    (..., G, C); a stack of Z matrices gives one product per matrix.

    The product is one GEMM per block of at most WINDOW_BLOCK periods, and
    the blocks are added in order. A single GEMM over T >= 500 periods gives
    different bits under 1 and 2 OpenBLAS (0.3.31) threads; blocks of at most
    256 periods gave the same bits under 1, 2 and 3 threads, so the sums do
    not depend on BLAS threading. A one-column Z would take numpy's
    matrix-vector path, which is not thread-stable, so it gets a zero column.
    GEMMs round a column by its position, so equal columns of one Z need not
    give equal sums; equal matrices of a stack always do.
    """
    if Z.shape[-1] == 1:
        padded = np.concatenate([Z, np.zeros_like(Z)], axis=-1)
        return window_sums(W, padded)[..., :1]
    T = W.shape[1]
    out = W[:, :WINDOW_BLOCK] @ Z[..., :WINDOW_BLOCK, :]
    for start in range(WINDOW_BLOCK, T, WINDOW_BLOCK):
        stop = start + WINDOW_BLOCK
        out += W[:, start:stop] @ Z[..., start:stop, :]
    return out


# bytes of the temporaries a row block holds: the statistic table, its
# reductions, pruning and the panel generator's normals go a block at a time
_BLOCK_BYTES = 1 << 20


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of at least one row each, at most _BLOCK_BYTES of float rows."""
    step = max(1, _BLOCK_BYTES // (8 * n_cols))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def lambda_correction(h: float) -> float:
    """Additive multiple-testing penalty sqrt(2 log(1/(2h))) for scale h."""
    if not 0.0 < h <= 0.5:
        raise ValueError(f"bandwidth h={h} outside (0, 1/2]")
    return math.sqrt(2.0 * math.log(1.0 / (2.0 * h)))


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
