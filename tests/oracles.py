"""Independent naive-loop reference implementations.

Everything here recomputes the published formulas with explicit Python loops
(or delegates to scipy where scipy IS the independent reference, e.g. the
linkage oracle). Nothing imports the package's computational paths, so
agreement between the two is a real cross-check. The CSV oracles build the
package's Panel container and raise its error type, but parse every cell
themselves. The curve oracles use only the curves' own eval and breakpoints.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from panelscale import Bump, Constant, Linear, Panel, PanelFormatError, Sine


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


def oracle_lrv(D: int, ar_coef: float, cov_ar_coef: float, noise_sd: float) -> np.ndarray:
    """Long-run covariance of v_t = X_t eps_t for the intercept-plus-AR(1)
    covariates (stationary sd 1, coefficient cov_ar_coef) and independent
    AR(1) errors (innovation sd noise_sd, coefficient ar_coef). Lag k
    multiplies the error's autocovariance sigma^2 a^k by the covariate's, 1
    for the intercept and rho^k for an AR(1) column, and the columns are
    independent: diag(sigma^2 (1 + a)/(1 - a), sigma^2 (1 + a rho)/(1 - a rho), ...)
    with sigma^2 = noise_sd^2 / (1 - a^2)."""
    a, rho = ar_coef, cov_ar_coef
    sigma2 = noise_sd**2 / (1.0 - a * a)
    covariate = sigma2 * (1 + a * rho) / (1 - a * rho)
    return np.diag([sigma2 * (1 + a) / (1 - a)] + [covariate] * (D - 1))


def naive_residual_rows(x, y, kind, unit, h_pilot):
    """Two-step oracle: estimate at each clamped t/T, subtract, multiply."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = x.shape[0]
    h_eff = max(1, min(round(h_pilot * T), T // 2)) / T
    rows = []
    for t in range(1, T + 1):
        u = min(max(t / T, h_eff), 1.0 - h_eff)
        beta = naive_beta(x, y, kind, u, h_eff, unit)
        rows.append(x[t - 1] * (y[unit, t - 1] - x[t - 1] @ beta))
    return np.array(rows)


def jumped_generator(seed: int, b: int) -> np.random.Generator:
    """The stream of draw b: Philox keyed by the seed, jumped b times."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(b))


def einsum_stat_table(a, normalizers, n_units: int) -> np.ndarray:
    """s_hat (P, G) from the response sums a (G, N, D) by one einsum over
    every pair and gridpoint, pairs in i < j order."""
    i_idx, j_idx = np.triu_indices(n_units, k=1)
    diff = a[:, i_idx, :] - a[:, j_idx, :]
    return np.abs(np.einsum("pde,gpe->pgd", normalizers, diff)).max(axis=2)


def naive_pair_stats(a, normalizers) -> np.ndarray:
    """s_hat (P, G) from the sums a (N, D, G) one scalar at a time, pairs in
    i < j order: each row adds its D products in the order e = 0, 1, ..."""
    N, D, G = a.shape
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    out = np.empty((len(pairs), G))
    for p, (i, j) in enumerate(pairs):
        for g in range(G):
            best = 0.0
            for d in range(D):
                row = 0.0
                for e in range(D):
                    diff = float(a[i, e, g]) - float(a[j, e, g])
                    row += float(normalizers[p, d, e]) * diff
                best = max(best, abs(row))
            out[p, g] = best
    return out


def _naive_canonical(curve):
    if isinstance(curve, Sine) and curve.amplitude == 0.0:
        return Constant(level=curve.level)
    if isinstance(curve, Linear) and curve.slope == 0.0:
        return Constant(level=curve.intercept)
    if isinstance(curve, Bump) and curve.height == 0.0:
        return Constant(level=0.0)
    return curve


def naive_curves_equal_on(a, b, lo: float, hi: float) -> bool:
    """Equality on [lo, hi]: both curves evaluated at lo, hi and every
    breakpoint strictly between them."""
    a, b = _naive_canonical(a), _naive_canonical(b)
    if a == b:
        return True
    if a.piecewise_linear and b.piecewise_linear:
        knots = {lo, hi}
        for knot in a.breakpoints() + b.breakpoints():
            if lo < knot < hi:
                knots.add(knot)
        pts = np.array(sorted(knots))
        return bool(np.all(a.eval(pts) == b.eval(pts)))
    return False  # two different sines, or a sine and a piecewise-linear curve


def naive_m0_mask(curves, grid, pairs) -> np.ndarray:
    """True local nulls by one comparison per (pair, gridpoint, coordinate)."""
    mask = np.zeros((len(pairs), grid.n_points), dtype=bool)
    for p, (i, j) in enumerate(pairs):
        for g, (u, h) in enumerate(grid.points):
            mask[p, g] = all(
                naive_curves_equal_on(ci, cj, u - h, u + h)
                for ci, cj in zip(curves[i], curves[j])
            )
    return mask


def naive_gaussian_draws(T, N, D, us, hs, kind, B, seed) -> np.ndarray:
    """Phi draws one at a time: draw b's Z from the Philox stream jumped b
    times, one einsum over every period, then the max over all unit pairs."""
    W = np.array([naive_weights(kind, T, u, h) for u, h in zip(us, hs)])
    scale = 1.0 / np.sqrt(T * np.asarray(hs, dtype=float))
    lam = np.array([math.sqrt(2.0 * math.log(1.0 / (2.0 * h))) for h in hs])
    i_idx, j_idx = np.triu_indices(N, k=1)
    draws = []
    for b in range(B):
        z = jumped_generator(seed, b).standard_normal((N, T, D))
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
    """AR(1) path stepped with numpy scalar indexing, drawing its start and
    then its innovations from rng in two calls."""
    innov_sd = stationary_sd * np.sqrt(1.0 - coef * coef)
    out = np.empty(n)
    out[0] = rng.standard_normal() * stationary_sd
    shocks = rng.standard_normal(n - 1) * innov_sd
    for t in range(1, n):
        out[t] = coef * out[t - 1] + shocks[t - 1]
    return out


def naive_generate_panel(spec) -> Panel:
    """The panel of a DgpSpec with one generator call per series (covariate
    columns, then each unit) and AR(1) paths stepped by naive_ar1."""
    rng = np.random.default_rng(spec.seed)
    T, D = spec.n_time, spec.n_covariates
    if spec.covariate_model == "intercept_plus_ar1":
        x = np.empty((T, D))
        x[:, 0] = 1.0
        for d in range(1, D):
            x[:, d] = naive_ar1(rng, T, spec.cov_ar_coef, 1.0)
    else:
        x = rng.standard_normal((T, D))
    u = np.arange(1, T + 1, dtype=float) / T
    y = np.empty((spec.n_units, T))
    for i in range(spec.n_units):
        beta = np.column_stack([c.eval(u) for c in spec.curves[i]])
        signal = np.einsum("td,td->t", x, beta)
        if spec.noise_sd > 0.0:
            if spec.ar_coef == 0.0:
                eps = rng.standard_normal(T) * spec.noise_sd
            else:
                sd = spec.noise_sd / np.sqrt(1.0 - spec.ar_coef**2)
                eps = naive_ar1(rng, T, spec.ar_coef, sd)
        else:
            eps = np.zeros(T)
        y[i] = signal + eps
    labels = tuple(f"u{i + 1}" for i in range(spec.n_units))
    return Panel(y=y, x=x, unit_labels=labels)


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


def naive_rejections(s_hat, lam, pairs, us, hs, q):
    """[(i, j, u, h, stat, exceedance)] for every cell with s - lambda > q,
    by a loop over every pair and gridpoint, ordered by descending
    exceedance, then i, j, u, h."""
    out = []
    for p, (i, j) in enumerate(pairs):
        for g in range(s_hat.shape[1]):
            exceed = s_hat[p, g] - lam[g]
            if exceed > q:
                out.append((i, j, float(us[g]), float(hs[g]), float(s_hat[p, g]), float(exceed)))
    return sorted(out, key=lambda r: (-r[5], r[0], r[1], r[2], r[3]))


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


def naive_prune_minimal(rejections) -> tuple:
    """O(R^2) reference for prune_minimal: every rejection is compared with
    every other one, skipping other pairs only inside the inner loop."""
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


def riemann_kernel_integral(kind: str, n: int = 10001) -> tuple[float, float]:
    """Trapezoid integrals of K and K^2 on [-1, 1]."""
    zs = np.linspace(-1.0, 1.0, n)
    vals = np.array([kernel_value(kind, z) for z in zs])
    # np.trapezoid is new in NumPy 2.0 and np.trapz is gone from 2.4, so
    # look up the old name only when the new one is missing.
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(vals, zs)), float(trapezoid(vals**2, zs))


# Per-cell CSV reader and writer: every cell goes through its own parse
# call, so each value and each error message here is the reference for the
# package's whole-column reader and writer.


def _naive_parse_float(token: str, row: int, col: str) -> float:
    token = token.strip()
    if token == "":
        raise PanelFormatError(f"missing value in row {row}, column {col!r}")
    try:
        value = float(token)
    except ValueError:
        raise PanelFormatError(
            f"non-numeric value {token!r} in row {row}, column {col!r}"
        ) from None
    if not np.isfinite(value):
        raise PanelFormatError(f"non-finite value in row {row}, column {col!r}")
    return value


def _naive_parse_int(token: str, row: int, col: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise PanelFormatError(
            f"non-integer value {token!r} in row {row}, column {col!r}"
        ) from None


def _naive_read_rows(path) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh)]
    except OSError as exc:
        raise PanelFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise PanelFormatError(f"{path} is empty")
    return rows


def _naive_from_long(rows: list[list[str]], path) -> Panel:
    header = [c.strip() for c in rows[0]]
    if header[:3] != ["unit", "time", "y"]:
        raise PanelFormatError(
            f"{path}: long layout header must start with unit,time,y; got {header[:3]}"
        )
    x_cols = header[3:]
    expected = [f"x{d + 1}" for d in range(len(x_cols))]
    if x_cols != expected:
        raise PanelFormatError(
            f"{path}: covariate columns must be {expected}, got {x_cols}"
        )
    if not x_cols:
        raise PanelFormatError(f"{path}: long layout needs at least one x column")
    D = len(x_cols)

    units: list[str] = []
    data: dict[str, dict[int, float]] = {}
    xdata: dict[int, tuple[float, ...]] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 3 + D:
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {3 + D}"
            )
        unit = row[0].strip()
        if unit == "":
            raise PanelFormatError(f"{path}: empty unit label in row {r}")
        t = _naive_parse_int(row[1], r, "time")
        yv = _naive_parse_float(row[2], r, "y")
        xv = tuple(_naive_parse_float(row[3 + d], r, x_cols[d]) for d in range(D))
        if unit not in data:
            units.append(unit)
            data[unit] = {}
        if t in data[unit]:
            raise PanelFormatError(
                f"{path}: duplicate (unit={unit}, time={t}) at row {r}"
            )
        data[unit][t] = yv
        if t in xdata:
            if xdata[t] != xv:
                raise PanelFormatError(
                    f"{path}: covariates differ across units at time {t} (row {r}); "
                    "covariates must be common to all units"
                )
        else:
            xdata[t] = xv

    lengths = {u: len(ts) for u, ts in data.items()}
    T = lengths[units[0]]
    for u, n in lengths.items():
        if n != T:
            raise PanelFormatError(
                f"{path}: ragged series: unit {units[0]!r} has {T} rows, "
                f"unit {u!r} has {n}"
            )
    for u in units:
        times = sorted(data[u])
        if times != list(range(1, T + 1)):
            raise PanelFormatError(
                f"{path}: unit {u!r} does not cover a complete time sequence 1..{T}"
            )

    y = np.array([[data[u][t] for t in range(1, T + 1)] for u in units])
    x = np.array([xdata[t] for t in range(1, T + 1)])
    return Panel(y=y, x=x, unit_labels=tuple(units))


def _naive_from_wide(rows: list[list[str]], path) -> Panel:
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "time":
        raise PanelFormatError(f"{path}: wide layout header must start with 'time'")
    y_cols = [c for c in header[1:] if c.startswith("y_")]
    x_cols = [c for c in header[1:] if not c.startswith("y_")]
    if header[1:] != y_cols + x_cols:
        raise PanelFormatError(
            f"{path}: wide layout columns must be time, y_<label>..., x_1..x_D"
        )
    expected = [f"x_{d + 1}" for d in range(len(x_cols))]
    if x_cols != expected:
        raise PanelFormatError(
            f"{path}: covariate columns must be {expected}, got {x_cols}"
        )
    if not y_cols or not x_cols:
        raise PanelFormatError(f"{path}: wide layout needs y_<label> and x_ columns")
    labels = [c[2:] for c in y_cols]
    if len(set(labels)) != len(labels):
        raise PanelFormatError(f"{path}: duplicate unit labels in header")

    seen: dict[int, int] = {}
    yrows: dict[int, list[float]] = {}
    xrows: dict[int, list[float]] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        t = _naive_parse_int(row[0], r, "time")
        if t in seen:
            raise PanelFormatError(f"{path}: duplicate time {t} at row {r}")
        seen[t] = r
        yrows[t] = [_naive_parse_float(row[1 + i], r, y_cols[i]) for i in range(len(y_cols))]
        xrows[t] = [
            _naive_parse_float(row[1 + len(y_cols) + d], r, x_cols[d])
            for d in range(len(x_cols))
        ]
    T = len(yrows)
    if sorted(yrows) != list(range(1, T + 1)):
        raise PanelFormatError(f"{path}: time column does not cover 1..{T}")

    y = np.array([[yrows[t][i] for t in range(1, T + 1)] for i in range(len(labels))])
    x = np.array([xrows[t] for t in range(1, T + 1)])
    return Panel(y=y, x=x, unit_labels=tuple(labels))


def naive_panel_from_csv(path, layout: str = "long") -> Panel:
    """Read a panel from CSV; unit order follows first appearance in the file."""
    rows = _naive_read_rows(path)
    if layout == "long":
        return _naive_from_long(rows, path)
    if layout == "wide":
        return _naive_from_wide(rows, path)
    raise PanelFormatError(f"unknown layout {layout!r}; use 'long' or 'wide'")


def naive_panel_to_csv(panel: Panel, path, layout: str = "long") -> None:
    """Write a panel as CSV; exact inverse of panel_from_csv for both layouts."""
    if layout not in ("long", "wide"):
        raise PanelFormatError(f"unknown layout {layout!r}; use 'long' or 'wide'")
    N, T, D = panel.n_units, panel.n_time, panel.n_covariates
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if layout == "long":
            writer.writerow(["unit", "time", "y"] + [f"x{d + 1}" for d in range(D)])
            for i, label in enumerate(panel.unit_labels):
                for t in range(T):
                    writer.writerow(
                        [label, t + 1, repr(float(panel.y[i, t]))]
                        + [repr(float(panel.x[t, d])) for d in range(D)]
                    )
        else:
            writer.writerow(
                ["time"]
                + [f"y_{label}" for label in panel.unit_labels]
                + [f"x_{d + 1}" for d in range(D)]
            )
            for t in range(T):
                writer.writerow(
                    [t + 1]
                    + [repr(float(panel.y[i, t])) for i in range(N)]
                    + [repr(float(panel.x[t, d])) for d in range(D)]
                )


def naive_application_points(T: int) -> list[tuple[float, float]]:
    """Application grid points in the order of the original enumeration loop."""
    if T < 20:
        raise ValueError(f"T={T} too small for the application grid (need T >= 20)")
    h_floor = T ** (-1.0 / 3.0)
    if h_floor > 0.25:
        raise ValueError(
            f"empty bandwidth set: T^(-1/3)={h_floor:.4f} exceeds 1/4 for T={T} "
            "(need T >= 64)"
        )
    s_values = []
    t = 1
    while True:
        s = 5 * t - 3
        if s / T > 0.25 + 1e-12:
            break
        if s / T >= h_floor - 1e-12:
            s_values.append(s)
        t += 1
    if not s_values:
        raise ValueError(f"no admissible bandwidth of the form (5t-3)/T for T={T}")
    u_values = [5 * t for t in range(1, T // 5 + 1)]
    points = [
        (tu / T, s / T)
        for s in s_values
        for tu in u_values
        if tu - s >= 0 and tu + s <= T
    ]
    return points
