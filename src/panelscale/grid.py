"""Location-bandwidth grids on the 1/T lattice.

Every grid point (u, h) satisfies [u-h, u+h] within [0, 1], u = t/T and
h = s/T for integers t, s, and h <= 1/4. The application builder uses
U = {5t/T} and H = {(5t-3)/T} intersected with [T^(-1/3), 1/4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError
from .kernels import lambda_correction

_LATTICE_TOL = 1e-6
H_MAX_CAP = 0.25


def _lattice_index(value: float, T: int, what: str) -> int:
    if not math.isfinite(value):
        raise GridError(f"{what}={value} must be finite")
    scaled = value * T
    idx = int(round(scaled))
    if abs(scaled - idx) > _LATTICE_TOL:
        raise GridError(f"{what}={value} is not a multiple of 1/T for T={T}")
    return idx


@dataclass(frozen=True)
class Grid:
    """Validated, immutable (location, bandwidth) points and their lambdas."""

    points: tuple[tuple[float, float], ...]
    T: int
    h_min: float
    h_max: float
    u: np.ndarray = field(init=False, repr=False, compare=False)
    h: np.ndarray = field(init=False, repr=False, compare=False)
    lam: np.ndarray = field(init=False, repr=False, compare=False)
    # the integer (t, s) of each point, u = t/T and h = s/T, shape (G, 2)
    lattice: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.T < 1:
            raise GridError(f"T={self.T} must be positive")
        if not self.points:
            raise GridError("grid has no points")
        if self.h_max > H_MAX_CAP + 1e-12:
            raise GridError(f"h_max={self.h_max} exceeds the cap {H_MAX_CAP}")
        seen: dict[tuple[int, int], None] = {}
        for u, h in self.points:
            ti = _lattice_index(u, self.T, "u")
            si = _lattice_index(h, self.T, "h")
            if si < 1:
                raise GridError(f"bandwidth h={h} below 1/T")
            if ti - si < 0 or ti + si > self.T:
                raise GridError(f"point (u={u}, h={h}) leaves [0, 1]")
            if not self.h_min - 1e-12 <= h <= self.h_max + 1e-12:
                raise GridError(
                    f"h={h} outside the declared range [{self.h_min}, {self.h_max}]"
                )
            if (ti, si) in seen:
                raise GridError(f"duplicate grid point (u={u}, h={h})")
            seen[ti, si] = None
        us = np.array([p[0] for p in self.points], dtype=float)
        hs = np.array([p[1] for p in self.points], dtype=float)
        lam = np.array([lambda_correction(h) for h in hs])
        lattice = np.array(list(seen), dtype=np.int64)
        for name, arr in (("u", us), ("h", hs), ("lam", lam), ("lattice", lattice)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return len(self.points)


def check_grid_T(grid: Grid, T: int) -> None:
    """Raise ValueError unless grid was built for sample size T."""
    if grid.T != T:
        raise ValueError(f"grid was built for T={grid.T}, not T={T}")


def _assemble(T: int, u_step: int, s_values) -> Grid:
    """The points (t/T, s/T) for s in s_values, in order, crossed with every
    multiple t of u_step whose window [t - s, t + s] lies in [0, T]."""
    points = [
        (t / T, s / T) for s in s_values for t in range(0, T + 1, u_step) if s <= t <= T - s
    ]
    if not points:
        raise GridError(f"grid construction produced no feasible points for T={T}")
    hs = [h for _, h in points]
    return Grid(points=tuple(points), T=T, h_min=min(hs), h_max=max(hs))


def build_grid_application(T: int) -> Grid:
    """Application grid: u in {5t/T}, h in {(5t-3)/T} cap [T^(-1/3), 1/4].

    Raises GridError when the bandwidth band is empty, which happens for
    every T < 64 because then T^(-1/3) > 1/4.
    """
    if T < 20:
        raise GridError(f"T={T} too small for the application grid (need T >= 20)")
    h_floor = T ** (-1.0 / 3.0)
    if h_floor > H_MAX_CAP:
        raise GridError(
            f"empty bandwidth set: T^(-1/3)={h_floor:.4f} exceeds 1/4 for T={T} "
            "(need T >= 64)"
        )
    s_values = [
        s for s in range(2, T + 1, 5) if h_floor - 1e-12 <= s / T <= H_MAX_CAP + 1e-12
    ]
    if not s_values:
        raise GridError(f"no admissible bandwidth of the form (5t-3)/T for T={T}")
    return _assemble(T, 5, s_values)


def build_grid_custom(T: int, u_step: int, h_values) -> Grid:
    """Grid over u = k*u_step/T crossed with user bandwidths.

    Each h must be an exact multiple of 1/T inside [T^(-1/3), 1/4]; violations
    raise GridError naming the broken bound.
    """
    if T < 1:
        raise GridError(f"T={T} must be positive")
    if u_step < 1:
        raise GridError(f"u_step={u_step} must be a positive integer")
    h_floor = T ** (-1.0 / 3.0)
    s_values = []
    for h in h_values:
        si = _lattice_index(float(h), T, "h")
        if h < h_floor - 1e-12:
            raise GridError(f"h={h} below the minimal bandwidth T^(-1/3)={h_floor:.6f}")
        if h > H_MAX_CAP + 1e-12:
            raise GridError(f"h={h} exceeds the maximal bandwidth 1/4")
        s_values.append(si)
    return _assemble(T, u_step, s_values)
