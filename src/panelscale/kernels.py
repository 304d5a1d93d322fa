"""Compactly supported smoothing kernels and the multiscale bandwidth penalty.

All built-in kernels are nonnegative, symmetric, integrate to one, vanish
outside [-1, 1] and have squared integral strictly above 1/2 (Epanechnikov
3/5, biweight 5/7, triweight 350/429).
"""

from __future__ import annotations

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


def lambda_correction(h: float) -> float:
    """Additive multiple-testing penalty sqrt(2 log(1/(2h))) for scale h."""
    if not 0.0 < h <= 0.5:
        raise ValueError(f"bandwidth h={h} outside (0, 1/2]")
    return math.sqrt(2.0 * math.log(1.0 / (2.0 * h)))
