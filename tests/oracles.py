"""Independent naive-loop reference implementations.

Everything here recomputes the published formulas with explicit Python loops
(or delegates to scipy where scipy IS the independent reference, e.g. the
linkage oracle). Nothing imports the package's computational paths, so
agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform


def kernel_value(kind: str, z: float) -> float:
    if abs(z) > 1.0:
        return 0.0
    w = 1.0 - z * z
    if kind == "epanechnikov":
        return 0.75 * w
    if kind == "biweight":
        return 15.0 / 16.0 * w**2
    if kind == "triweight":
        return 35.0 / 32.0 * w**3
    raise ValueError(kind)


def naive_weights(kind: str, T: int, u: float, h: float) -> list[float]:
    return [kernel_value(kind, (t / T - u) / h) for t in range(1, T + 1)]


def naive_local_design(x, y, kind, u, h):
    """(M_XKX, per-unit sums) by direct double loops with 1/sqrt(Th) scaling."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T, D = x.shape
    N = y.shape[0]
    scale = 1.0 / math.sqrt(T * h)
    m = np.zeros((D, D))
    a = np.zeros((N, D))
    for t in range(T):
        k = kernel_value(kind, ((t + 1) / T - u) / h)
        for d1 in range(D):
            for d2 in range(D):
                m[d1, d2] += x[t, d1] * x[t, d2] * k
            for i in range(N):
                a[i, d1] += x[t, d1] * y[i, t] * k
    return m * scale, a * scale


def naive_beta(x, y, kind, u, h, unit):
    m, a = naive_local_design(x, y, kind, u, h)
    return np.linalg.inv(m) @ a[unit]


def sqrtm_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse matrix square root through an eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    return vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T


def naive_local_stat(x, y, kind, u, h, i, j, nrm) -> float:
    """Compose the three published pieces: estimate, difference, normalize."""
    m, a = naive_local_design(x, y, kind, u, h)
    beta_i = np.linalg.inv(m) @ a[i]
    beta_j = np.linalg.inv(m) @ a[j]
    vec = nrm @ (m @ (beta_i - beta_j))
    return float(np.max(np.abs(vec)))


def naive_kernel_sum_stat(x, y, kind, u, h, i, j, nrm) -> float:
    """Direct form: || nrm (1/sqrt(Th)) sum_t X_t (Y_it - Y_jt) K_t ||_inf."""
    x = np.asarray(x, dtype=float)
    T, D = x.shape
    acc = np.zeros(D)
    for t in range(T):
        k = kernel_value(kind, ((t + 1) / T - u) / h)
        acc += x[t] * (y[i, t] - y[j, t]) * k
    vec = nrm @ (acc / math.sqrt(T * h))
    return float(np.max(np.abs(vec)))


def cov_kernel(kind: str, xv: float) -> float:
    ax = abs(xv)
    if kind == "bartlett":
        return max(0.0, 1.0 - ax)
    if kind == "parzen":
        if ax <= 0.5:
            return 1.0 - 6.0 * ax**2 + 6.0 * ax**3
        if ax <= 1.0:
            return 2.0 * (1.0 - ax) ** 3
        return 0.0
    if kind == "quadratic_spectral":
        if ax < 1e-12:
            return 1.0
        z = 6.0 * math.pi * ax / 5.0
        return 25.0 / (12.0 * math.pi**2 * ax**2) * (math.sin(z) / z - math.cos(z))
    raise ValueError(kind)


def naive_hac(v, kind: str, chi: float) -> np.ndarray:
    """T/(T-D) weighted sum over every lag of the piecewise autocovariances."""
    v = np.asarray(v, dtype=float)
    T, D = v.shape
    sigma = np.zeros((D, D))
    for ell in range(-(T - 1), T):
        gamma = np.zeros((D, D))
        if ell >= 0:
            for t in range(ell + 1, T + 1):
                gamma += np.outer(v[t - 1], v[t - 1 - ell])
        else:
            for t in range(-ell + 1, T + 1):
                gamma += np.outer(v[t - 1 + ell], v[t - 1])
        sigma += cov_kernel(kind, ell / chi) * gamma / T
    return sigma * T / (T - D)


def naive_residual_rows(x, y, kind, unit, h_pilot):
    """Two-step oracle: estimate at each clamped t/T, subtract, multiply."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = x.shape[0]
    h_eff = max(1, round(h_pilot * T)) / T
    rows = []
    for t in range(1, T + 1):
        u = min(max(t / T, h_eff), 1.0 - h_eff)
        beta = naive_beta(x, y, kind, u, h_eff, unit)
        rows.append(x[t - 1] * (y[unit, t - 1] - x[t - 1] @ beta))
    return np.array(rows)


def naive_gaussian_draws(T, N, D, us, hs, kind, B, seed) -> np.ndarray:
    """Phi draws one at a time: draw b's Z from the Philox stream jumped b
    times, one einsum over every period, then the max over all unit pairs."""
    W = np.array([naive_weights(kind, T, u, h) for u, h in zip(us, hs)])
    scale = 1.0 / np.sqrt(T * np.asarray(hs, dtype=float))
    lam = np.array([math.sqrt(2.0 * math.log(1.0 / (2.0 * h))) for h in hs])
    i_idx, j_idx = np.triu_indices(N, k=1)
    draws = []
    for b in range(B):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        z = gen.standard_normal((N, T, D))
        sums = np.einsum("gt,ntd->ngd", W, z) * scale[None, :, None]
        s = np.abs(sums[i_idx] - sums[j_idx]).max(axis=2)
        draws.append(float((s - lam[None, :]).max()))
    return np.array(draws)


def naive_pair_gap(sums) -> np.ndarray:
    """max over unit pairs i < j of |S_i - S_j| for sums (G, N, C), by a
    scan over every pair."""
    G, N, C = sums.shape
    out = np.full((G, C), -np.inf)
    for i in range(N):
        for j in range(i + 1, N):
            out = np.maximum(out, np.abs(sums[:, i] - sums[:, j]))
    return out


def naive_ar1(rng, n: int, coef: float, stationary_sd: float) -> np.ndarray:
    """AR(1) path stepped with numpy scalar indexing; the same generator
    calls in the same order as the package's generator."""
    innov_sd = stationary_sd * np.sqrt(1.0 - coef * coef)
    out = np.empty(n)
    out[0] = rng.standard_normal() * stationary_sd
    shocks = rng.standard_normal(n - 1) * innov_sd
    for t in range(1, n):
        out[t] = coef * out[t - 1] + shocks[t - 1]
    return out


def naive_quantile_ceiling(draws, alpha: float) -> float:
    """Order statistic #ceil((1-alpha) B), counted by hand."""
    data = sorted(float(d) for d in draws)
    B = len(data)
    rank = math.ceil((1.0 - alpha) * B - 1e-9)
    return data[max(rank, 1) - 1]


def folded_normal_mean(variance: float) -> float:
    return math.sqrt(2.0 * variance / math.pi)


def naive_psi(s_hat, lam) -> float:
    """Full double-loop scan of max(s - lambda)."""
    best = -math.inf
    for p in range(s_hat.shape[0]):
        for g in range(s_hat.shape[1]):
            best = max(best, s_hat[p, g] - lam[g])
    return best


def naive_dissimilarity(s_hat, lam, pairs, n) -> np.ndarray:
    d = np.zeros((n, n))
    for p, (i, j) in enumerate(pairs):
        best = -math.inf
        for g in range(s_hat.shape[1]):
            best = max(best, s_hat[p, g] - lam[g])
        d[i, j] = d[j, i] = best
    return d


def scipy_merge_heights(d: np.ndarray, method: str) -> np.ndarray:
    """Reference merge heights via scipy; a constant shift makes the matrix
    nonnegative (complete/single/average linkage are shift-equivariant)."""
    d = np.asarray(d, dtype=float)
    off = d[np.triu_indices_from(d, k=1)]
    shift = max(0.0, -off.min()) + 1.0 if off.size else 0.0
    shifted = d + shift
    np.fill_diagonal(shifted, 0.0)
    z = scipy_linkage(squareform(shifted, checks=False), method=method)
    return z[:, 2] - shift


def naive_hac_cluster(d: np.ndarray, linkage: str):
    """Merge sequence [(left, right, height)] by rescanning every cluster
    pair's linkage on every merge; ties go to the lexicographically smallest
    pair of sorted member tuples."""
    d = np.asarray(d, dtype=float)
    clusters = [(i,) for i in range(d.shape[0])]
    merges = []
    while len(clusters) > 1:
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                a, b = clusters[ai], clusters[bi]
                block = d[np.ix_(a, b)]
                if linkage == "complete":
                    dist = float(block.max())
                elif linkage == "single":
                    dist = float(block.min())
                else:
                    dist = float(block.mean())
                first, second = (a, b) if a < b else (b, a)
                key = (dist, first, second)
                if best is None or key < best[0]:
                    best = (key, ai, bi)
        (height, first, second), ai, bi = best
        merges.append((first, second, height))
        merged = tuple(sorted(clusters[ai] + clusters[bi]))
        clusters = [c for k, c in enumerate(clusters) if k not in (ai, bi)]
        clusters.append(merged)
    return merges


def naive_group_differences(membership, pairs, s_hat, us, hs, q):
    """{(k, k'): sorted (u, h, u-h, u+h)} by a loop over every pair and
    gridpoint with S > q whose units carry different labels."""
    out = {}
    for p, (i, j) in enumerate(pairs):
        ki, kj = membership[i], membership[j]
        if ki == kj:
            continue
        for g in range(s_hat.shape[1]):
            if s_hat[p, g] > q:
                u, h = float(us[g]), float(hs[g])
                out.setdefault((min(ki, kj), max(ki, kj)), set()).add((u, h, u - h, u + h))
    return {
        key: tuple(sorted(vals, key=lambda t: (t[2], t[3])))
        for key, vals in sorted(out.items())
    }


def naive_minimal_intervals(entries):
    """O(n^2) containment scan: drop any interval strictly containing another
    rejected interval of the same pair."""
    kept = []
    for a in entries:
        (pa, loa, hia) = a
        contains_other = False
        for b in entries:
            if b is a or b[0] != pa:
                continue
            (_, lob, hib) = b
            if lob >= loa - 1e-12 and hib <= hia + 1e-12 and (hib - lob) < (hia - loa) - 1e-12:
                contains_other = True
                break
        if not contains_other:
            kept.append(a)
    return kept


def riemann_kernel_integral(kind: str, n: int = 10001) -> tuple[float, float]:
    """Trapezoid integrals of K and K^2 on [-1, 1]."""
    zs = np.linspace(-1.0, 1.0, n)
    vals = np.array([kernel_value(kind, z) for z in zs])
    # np.trapezoid is new in NumPy 2.0 and np.trapz is gone from 2.4, so
    # look up the old name only when the new one is missing.
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(vals, zs)), float(trapezoid(vals**2, zs))
