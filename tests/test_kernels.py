import math
import tracemalloc

import numpy as np
import pytest

from panelscale import (
    SmoothingKernel,
    build_grid_application,
    kernel_eval,
    kernel_weights,
    lambda_correction,
)
from panelscale.kernels import KERNEL_KINDS, weights_matrix, window_sums

import oracles

# high-precision oracle values (mpmath, 40 digits)
LAMBDA_005 = 2.1459660262893472
LAMBDA_QUARTER = 1.1774100225154747  # sqrt(2 log 2)


def test_epanechnikov_point_values():
    k = SmoothingKernel("epanechnikov")
    assert kernel_eval(k, 0.0) == 0.75
    assert kernel_eval(k, 1.5) == 0.0
    assert kernel_eval(k, -0.5) == kernel_eval(k, 0.5)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SmoothingKernel("gaussian")


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_kernel_axioms_numeric(kind):
    # (compact support, symmetry, nonnegativity, unit mass, squared mass > 1/2)
    k = SmoothingKernel(kind)
    zs = np.linspace(-2, 2, 4001)
    vals = kernel_eval(k, zs)
    assert np.all(vals >= 0)
    assert np.all(vals[np.abs(zs) > 1] == 0)
    assert np.allclose(vals, vals[::-1])
    mass, sq = oracles.riemann_kernel_integral(kind)
    assert abs(mass - 1.0) < 1e-6
    assert sq > 0.5


def test_epanechnikov_squared_mass_exact():
    # closed form is 3/5; compare the trapezoid-rule oracle against it
    _, sq = oracles.riemann_kernel_integral("epanechnikov")
    assert abs(sq - 0.6) < 1e-6


def test_kernel_weights_support_window():
    k = SmoothingKernel("epanechnikov")
    w = kernel_weights(k, 10, 0.5, 0.2)
    positive = {t + 1 for t in range(10) if w[t] > 0}
    assert positive == {4, 5, 6}
    # t=3 and t=7 sit exactly on the support edge
    assert w[2] == 0.0 and w[6] == 0.0


@pytest.mark.parametrize("T", [100, 150, 300, 600])
def test_application_grid_weights_stay_in_closed_window(T):
    # an edge period may keep a weight of about 1e-16, no period beyond it
    grid = build_grid_application(T)
    W = weights_matrix(SmoothingKernel(), T, grid.u, grid.h)
    t = np.arange(1, T + 1)
    centre, half = grid.lattice[:, :1], grid.lattice[:, 1:]
    assert np.all(W[(t < centre - half) | (t > centre + half)] == 0.0)


def test_kernel_weights_boundary_location():
    k = SmoothingKernel("epanechnikov")
    w = kernel_weights(k, 50, 0.0, 0.1)
    times = np.arange(1, 51) / 50
    assert np.all(w[times > 0.1] == 0)


def test_kernel_weights_riemann_sum():
    # sum of weights / (Th) approximates the unit mass for interior u
    k = SmoothingKernel("epanechnikov")
    T, u, h = 400, 0.5, 0.1
    w = kernel_weights(k, T, u, h)
    assert abs(w.sum() / (T * h) - 1.0) < 2.0 / (T * h)


def test_kernel_weights_matches_loop_oracle():
    for kind in KERNEL_KINDS:
        k = SmoothingKernel(kind)
        w = kernel_weights(k, 23, 0.37, 0.21)
        ref = oracles.naive_weights(kind, 23, 0.37, 0.21)
        np.testing.assert_allclose(w, ref, atol=1e-15)


def test_weights_matrix_rows_match_single_calls():
    k = SmoothingKernel("biweight")
    us = np.array([0.3, 0.5, 0.9])
    hs = np.array([0.1, 0.25, 0.1])
    W = weights_matrix(k, 37, us, hs)
    for row, (u, h) in zip(W, zip(us, hs)):
        np.testing.assert_array_equal(row, kernel_weights(k, 37, u, h))


@pytest.mark.parametrize("T", [100, 300, 500])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_weights_matrix_is_kernel_eval_bit_for_bit(kind, T):
    k = SmoothingKernel(kind)
    grid = build_grid_application(T)
    t = np.arange(1, T + 1, dtype=float)
    z = (t[None, :] - grid.u[:, None] * T) / (grid.h[:, None] * T)
    W = weights_matrix(k, T, grid.u, grid.h)
    assert W.tobytes() == kernel_eval(k, z).tobytes()


def test_kernel_eval_operation_order():
    # the constant multiplies w first; c * (w * w) differs in the last bit
    z = np.random.default_rng(15).uniform(-1.0, 1.0, 10_000)
    w = np.maximum(0.0, 1.0 - z * z)
    expected = {
        "epanechnikov": 0.75 * w,
        "biweight": ((15.0 / 16.0) * w) * w,
        "triweight": (((35.0 / 32.0) * w) * w) * w,
    }
    for kind, ref in expected.items():
        assert kernel_eval(SmoothingKernel(kind), z).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "kind, arrays", [("epanechnikov", 1), ("biweight", 2), ("triweight", 2)]
)
def test_weights_matrix_allocates_one_array(kind, arrays):
    # W is built in place: one (G, T) array, a second for the higher powers
    T = 500
    grid = build_grid_application(T)
    k = SmoothingKernel(kind)
    size = grid.n_points * T * 8
    tracemalloc.start()
    try:
        W = weights_matrix(k, T, grid.u, grid.h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.nbytes == size
    # beyond the arrays: the ufuncs' fixed broadcasting buffers (about 0.1 MiB)
    assert peak <= arrays * size + 256 * 1024


def test_weights_matrix_rejects_non_finite_arguments():
    k = SmoothingKernel()
    for u, h in ((0.5, 0.0), (np.nan, 0.2), (1e308, 0.2)):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            weights_matrix(k, 10, np.array([u]), np.array([h]))


@pytest.mark.parametrize("shape", [(600, 5), (600, 1), (3, 600, 2), (3, 600, 1)])
def test_window_sums_match_one_product(shape):
    # 600 periods: blocks of 256, 256 and 88
    rng = np.random.default_rng(13)
    W = rng.random((7, 600))
    Z = rng.standard_normal(shape)
    got = window_sums(W, Z)
    assert got.shape == shape[:-2] + (7, shape[-1])
    np.testing.assert_allclose(got, W @ Z, rtol=0.0, atol=1e-12)


def test_window_sums_equal_stack_members_agree():
    # one GEMM may round equal columns differently by position; equal
    # matrices of a stack must come out equal
    rng = np.random.default_rng(14)
    W = rng.random((20, 300))
    z = rng.standard_normal((300, 2))
    got = window_sums(W, np.stack([z] * 5))
    for member in got[1:]:
        np.testing.assert_array_equal(member, got[0])


def test_weights_lipschitz_in_u():
    # finite-difference slope bounded by C/h for the built-in kernels
    step = 1e-6
    for kind in KERNEL_KINDS:
        k = SmoothingKernel(kind)
        T, h = 64, 0.125
        w0 = kernel_weights(k, T, 0.43, h)
        w1 = kernel_weights(k, T, 0.43 + step, h)
        slope = np.abs(w1 - w0).max() / step
        assert slope <= 3.0 / h


def test_lambda_values():
    assert lambda_correction(0.5) == 0.0
    assert abs(lambda_correction(1.0 / (2.0 * math.e)) - math.sqrt(2.0)) < 1e-15
    assert abs(lambda_correction(0.05) - LAMBDA_005) < 1e-12
    assert abs(lambda_correction(0.25) - LAMBDA_QUARTER) < 1e-12


def test_lambda_domain():
    with pytest.raises(ValueError):
        lambda_correction(0.6)
    with pytest.raises(ValueError):
        lambda_correction(0.0)


def test_lambda_strictly_decreasing():
    hs = np.linspace(0.01, 0.5, 200)
    vals = [lambda_correction(h) for h in hs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
