"""Compactly supported smoothing kernels and the multiscale bandwidth penalty.

All built-in kernels are nonnegative, symmetric, integrate to one, vanish
outside [-1, 1] and have squared integral strictly above 1/2 (Epanechnikov
3/5, biweight 5/7, triweight 350/429).
"""

from __future__ import annotations

import math
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
    w = np.maximum(0.0, 1.0 - z * z)
    if kernel.kind == "epanechnikov":
        out = 0.75 * w
    elif kernel.kind == "biweight":
        out = (15.0 / 16.0) * w * w
    else:  # triweight
        out = (35.0 / 32.0) * w * w * w
    return out if out.ndim else float(out)


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
    shape (len(u), T)."""
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    t = np.arange(1, T + 1, dtype=float)
    # (t - uT)/(hT) rather than (t/T - u)/h: exact at support edges whenever
    # u and h sit on the 1/T lattice, so grid windows never leak past [u-h, u+h]
    z = (t[None, :] - u[:, None] * T) / (h[:, None] * T)
    return kernel_eval(kernel, z)


def lambda_correction(h: float) -> float:
    """Additive multiple-testing penalty sqrt(2 log(1/(2h))) for scale h."""
    if not 0.0 < h <= 0.5:
        raise ValueError(f"bandwidth h={h} outside (0, 1/2]")
    return math.sqrt(2.0 * math.log(1.0 / (2.0 * h)))


def lambda_corrections(h) -> np.ndarray:
    """lambda_correction for each bandwidth in h, e.g. one per gridpoint."""
    return np.array([lambda_correction(x) for x in h])
