"""Synthetic data generation and Monte Carlo experiment harness.

Panels follow Y_it = X_t' beta_i(t/T) + eps_it with AR(1) errors that are
independent across units, common covariates, and per-unit coefficient curves
built from a small family of named shapes. Ground truth (which local
hypotheses are true, which units share a group) is computed analytically
from the curves, never from data.

The experiments reuse one set of Gaussian critical values across
replications: the simulated statistic depends only on (T, N, D, grid,
kernel), so re-simulating per replication would change nothing but runtime.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _deferred
from .kernels import HacConfig, SmoothingKernel, _pilot_points, _row_blocks, _shared_weights

# the names a run, an experiment or a panel generator needs, bound here by
# _bind_deferred when one of them first runs: defining a DGP or reading a
# config loads only kernels, and generating a panel adds panel
__getattr__, _bind_deferred = _deferred(globals(), (
    "Panel", "ordered_map", "dissimilarity_matrix", "hac_cluster", "select_k",
    "gaussian_critical_value", "build_grid_application", "build_normalizers",
    "compute_stat_table", "run_test", "unit_pairs",
))


# seed of the Gaussian draws behind the critical value every replication shares
_CRIT_SEED = 1_234_567

# multiply-adds of one replication's kernel sums, G*T*(N*D + D^2), from which
# replications are spread over threads. Below it a replication is mostly small
# NumPy calls that hold the GIL, so threads contend instead of overlapping: on
# 2 vCPUs with 1 BLAS thread, 2 workers were slower at 2.9 M (20, 300, 2) and
# faster from 5.2 M (5, 500, 2) on.
_THREADED_REPLICATION_OPS = 4_000_000

# ---------------------------------------------------------------------------
# coefficient curves


@dataclass(frozen=True)
class Constant:
    level: float = 0.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.level)

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    piecewise_linear = True


@dataclass(frozen=True)
class Linear:
    intercept: float = 0.0
    slope: float = 1.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(u, dtype=float)

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    piecewise_linear = True


@dataclass(frozen=True)
class Sine:
    amplitude: float = 1.0
    cycles: float = 1.0
    phase: float = 0.0
    level: float = 0.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.level + self.amplitude * np.sin(
            2.0 * np.pi * self.cycles * u + self.phase
        )

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    piecewise_linear = False


@dataclass(frozen=True)
class Bump:
    """Trapezoid bump: full height on [center - width/2, center + width/2],
    linear shoulders of width/4 on each side, zero outside.

    The flat top makes the separation |beta_i - beta_j| >= height hold on the
    whole plateau, not just at the apex. Lipschitz with constant
    4 * |height| / width.
    """

    center: float = 0.5
    width: float = 0.2
    height: float = 1.0

    def __post_init__(self) -> None:
        for name in ("center", "width", "height"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bump {name} {getattr(self, name)} must be finite")
        if self.width <= 0.0:
            raise ValueError("bump width must be positive")

    @property
    def taper(self) -> float:
        return self.width / 4.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        dist = np.abs(u - self.center) - self.width / 2.0
        return self.height * np.clip(1.0 - np.maximum(dist, 0.0) / self.taper, 0.0, 1.0)

    def breakpoints(self) -> tuple[float, ...]:
        half = self.width / 2.0
        return (
            self.center - half - self.taper,
            self.center - half,
            self.center + half,
            self.center + half + self.taper,
        )

    piecewise_linear = True


Curve = Constant | Linear | Sine | Bump


def _canonical(curve: Curve) -> Curve:
    if isinstance(curve, Sine) and curve.amplitude == 0.0:
        return Constant(level=curve.level)
    if isinstance(curve, Linear) and curve.slope == 0.0:
        return Constant(level=curve.intercept)
    if isinstance(curve, Bump) and curve.height == 0.0:
        return Constant(level=0.0)
    return curve


def _equal_on_intervals(
    a: Curve, b: Curve, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Exact equality of curves a and b on each interval [lo[g], hi[g]], each
    curve evaluated once at all interval ends and breakpoints: piecewise-linear
    curves agree where they agree at both ends and at every breakpoint
    inside; a nonconstant sine equals only the same sine."""
    a, b = _canonical(a), _canonical(b)
    if a == b:
        return np.ones(lo.shape, dtype=bool)
    if not (a.piecewise_linear and b.piecewise_linear):
        # two different sines, or a nonconstant sine and a piecewise-linear curve
        return np.zeros(lo.shape, dtype=bool)
    knots = np.array(a.breakpoints() + b.breakpoints(), dtype=float)
    n = lo.size
    pts = np.concatenate([lo, hi, knots])
    same = a.eval(pts) == b.eval(pts)
    differing = np.sort(knots[~same[2 * n :]])
    inside = np.searchsorted(differing, hi, "left") - np.searchsorted(
        differing, lo, "right"
    )
    return same[:n] & same[n : 2 * n] & (inside == 0)


# ---------------------------------------------------------------------------
# data generating process


@dataclass(frozen=True)
class DgpSpec:
    """Synthetic panel description.

    curves holds one tuple of D coefficient curves per unit. Errors are
    unit-wise independent AR(1) processes started from their stationary law;
    covariates are either (1, AR(1) columns) or i.i.d. standard normal.
    """

    n_units: int
    n_time: int
    n_covariates: int
    curves: tuple[tuple[Curve, ...], ...]
    seed: int
    ar_coef: float = 0.3
    noise_sd: float = 1.0
    covariate_model: str = "intercept_plus_ar1"
    cov_ar_coef: float = 0.3
    group_assignment: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_units < 1 or self.n_time < 2 or self.n_covariates < 1:
            raise ValueError("need n_units >= 1, n_time >= 2, n_covariates >= 1")
        if not abs(self.ar_coef) < 1.0:
            raise ValueError(f"AR coefficient {self.ar_coef} must satisfy |a| < 1")
        if not abs(self.cov_ar_coef) < 1.0:
            raise ValueError("covariate AR coefficient must satisfy |a| < 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.noise_sd < 0.0:
            raise ValueError("noise sd must be nonnegative")
        if self.covariate_model not in ("intercept_plus_ar1", "iid_normal"):
            raise ValueError(f"unknown covariate model {self.covariate_model!r}")
        if len(self.curves) != self.n_units:
            raise ValueError("one curve tuple per unit required")
        for tup in self.curves:
            if len(tup) != self.n_covariates:
                raise ValueError("one curve per covariate required")
        if self.group_assignment is not None and len(self.group_assignment) != self.n_units:
            raise ValueError("one group label per unit required")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    curves: tuple[tuple[Curve, ...], ...]
    group_assignment: tuple[int, ...] | None = None

    def m0_mask(self, grid: Grid, pairs) -> np.ndarray:
        """(n_pairs, n_points) boolean mask of TRUE local null hypotheses."""
        lo, hi = grid.u - grid.h, grid.u + grid.h
        mask = np.ones((len(pairs), grid.n_points), dtype=bool)
        for p, (i, j) in enumerate(pairs):
            for ci, cj in zip(self.curves[i], self.curves[j]):
                mask[p] &= _equal_on_intervals(ci, cj, lo, hi)
        return mask

    def true_partition(self) -> set[frozenset[int]]:
        labels = self.group_assignment
        if labels is None:
            labels = _labels_from_curves(self.curves)
        return _partition(labels)


def _partition(labels) -> set[frozenset[int]]:
    """The groups of unit indices that share a label."""
    groups: dict = {}
    for i, g in enumerate(labels):
        groups.setdefault(g, set()).add(i)
    return {frozenset(v) for v in groups.values()}


def _labels_from_curves(curves) -> tuple[int, ...]:
    seen: dict[tuple, int] = {}
    labels = []
    for tup in curves:
        labels.append(seen.setdefault(tup, len(seen)))
    return tuple(labels)


def _panel_blocks(spec: DgpSpec, seeds):
    """The panels of spec under each of seeds, in order, a block at a time.

    Yields (n, panel) per block of n seeds, where panel(b) builds the block's
    b-th panel with the bits it has alone, until the next block is drawn into
    the same buffer. A block's normals take at most _BLOCK_BYTES (one panel at
    the least). Each seed's normals come from one generator call, in the order
    that one call per series draws them: the covariate columns, then each
    unit. Every AR(1) series of the block (covariate columns at stationary sd
    1, then the units' errors) is stepped in place, in one loop over t: its
    first normal starts it from the stationary law and the rest are its
    innovations. With coefficient 0 the step scales by sd*sqrt(1) = sd and
    adds 0*prev, so i.i.d. errors keep the bits of normals times sd.
    """
    _bind_deferred("Panel")
    T, D, N = spec.n_time, spec.n_covariates, spec.n_units
    ar_covariates = spec.covariate_model == "intercept_plus_ar1"
    noisy = spec.noise_sd > 0.0
    n_x = T * (D - 1) if ar_covariates else T * D
    n_z = n_x + (N * T if noisy else 0)
    coef, sd = [], []
    if ar_covariates:
        coef += [spec.cov_ar_coef] * (D - 1)
        sd += [1.0] * (D - 1)
    if noisy:
        coef += [spec.ar_coef] * N
        sd += [spec.noise_sd / np.sqrt(1.0 - spec.ar_coef**2)] * N
    coef, sd = np.array(coef), np.array(sd)
    first = 0 if ar_covariates else n_x  # the series lie end to end from here
    u = np.arange(1, T + 1, dtype=float) / T
    betas = [np.column_stack([c.eval(u) for c in curves]) for curves in spec.curves]
    labels = tuple(f"u{i + 1}" for i in range(N))

    def panel(z: np.ndarray, series: np.ndarray, b: int) -> Panel:
        if ar_covariates:
            x = np.empty((T, D))
            x[:, 0] = 1.0
            x[:, 1:] = series[b, : D - 1].T
        else:
            x = z[b, :n_x].reshape(T, D)
        eps = series[b, coef.size - N :] if noisy else np.zeros((N, T))
        signal = np.array([np.einsum("td,td->t", x, beta) for beta in betas])
        return Panel(y=signal + eps, x=x, unit_labels=labels)

    buffer = None
    for blk in _row_blocks(len(seeds), max(1, n_z)):
        if buffer is None:
            # the first block is the largest; one buffer for all of them kept
            # peak RSS at (5,300,2) 1.2 MB below a fresh array per block
            buffer = np.empty((len(seeds[blk]), n_z))
        z = buffer[: len(seeds[blk])]
        for row, seed in zip(z, seeds[blk]):
            np.random.default_rng(seed).standard_normal(out=row)
        # a view: the series are stepped where they were drawn
        series = z[:, first : first + coef.size * T].reshape(len(z), coef.size, T)
        series[:, :, 1:] *= (sd * np.sqrt(1.0 - coef * coef))[:, None]
        series[:, :, 0] *= sd
        for t in range(1, T):
            # shock + coef * prev, one rounding each, as a scalar step
            series[:, :, t] += coef * series[:, :, t - 1]
        yield len(z), functools.partial(panel, z, series)


def generate_panel(spec: DgpSpec) -> tuple[Panel, GroundTruth]:
    """Simulate Y_it = X_t' beta_i(t/T) + eps_it exactly; bit-reproducible."""
    ((_, panel),) = _panel_blocks(spec, [spec.seed])
    truth = GroundTruth(curves=spec.curves, group_assignment=spec.group_assignment)
    return panel(0), truth


# ---------------------------------------------------------------------------
# experiment harness


@dataclass
class ExperimentReport:
    """Aggregated Monte Carlo results; every rate has a binomial SE."""

    experiment: str
    replications: int
    alpha: float
    B: int
    seed: int
    rejection_rate: float | None = None
    rejection_se: float | None = None
    fwer_estimate: float | None = None
    fwer_se: float | None = None
    cluster_recovery_rate: float | None = None
    cluster_recovery_se: float | None = None
    power_curve: list[dict] = field(default_factory=list)
    planted_pair_rate: float | None = None
    runtime_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # wall-clock runtime stays off the serialized report so that a fixed
        # seed reproduces the file byte for byte; it is printed by the CLI
        out = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        out.pop("runtime_seconds", None)
        return out

    def csv_table(self) -> tuple[list[str], list[list]]:
        """The header and rows of report.csv: one row per signal scale for a
        power curve, else one (metric, value, se) row per rate present."""
        if self.power_curve:
            header = ["signal_scale", "rejection_rate", "se", "planted_pair_rate"]
            return header, [[e.get(k, "") for k in header] for e in self.power_curve]
        rows = [
            [name, getattr(self, name), getattr(self, se_name)]
            for name, se_name in (
                ("rejection_rate", "rejection_se"),
                ("fwer_estimate", "fwer_se"),
                ("cluster_recovery_rate", "cluster_recovery_se"),
            )
            if getattr(self, name) is not None
        ]
        return ["metric", "value", "se"], rows


def binomial_se(rate: float, n: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n))


def _replication_seeds(base_seed: int, R: int) -> list[int]:
    # child seeds keyed by (base, r): independent of scheduling order
    return [
        int(np.random.SeedSequence((base_seed, r)).generate_state(1, np.uint64)[0])
        for r in range(R)
    ]


def _setup(spec: DgpSpec, R: int, grid: Grid | None, kernel: SmoothingKernel,
           hac: HacConfig, B: int, alpha: float, crit_seed: int,
           n_workers: int, *runs: str) -> tuple[float, Grid, CriticalValue, tuple]:
    """Start the clock, bind the harness's names and runs (the outcome's),
    validate R and crit_seed, default the grid and get the one Gaussian
    critical value that every replication shares. The grid and pilot kernel
    weights are taken first and returned: the caller holds them until it
    returns, so the draws and the replications share one build."""
    start = time.perf_counter()
    _bind_deferred("ordered_map", "gaussian_critical_value", "build_grid_application", *runs)
    if R < 1:
        raise ValueError(f"R={R} replications; need R >= 1")
    if not 0 <= crit_seed < 2**63:  # the draw cache key's signed 64-bit field
        raise ValueError(f"crit_seed={crit_seed} outside [0, 2**63)")
    T = spec.n_time
    if grid is None:
        grid = build_grid_application(T)
    us, hs, _ = _pilot_points(T, hac.pilot_bandwidth)
    held = (_shared_weights(kernel, T, grid.u, grid.h), _shared_weights(kernel, T, us, hs))
    crit = gaussian_critical_value(
        T, spec.n_units, spec.n_covariates, grid, kernel, B, crit_seed,
        alpha, n_workers=n_workers,
    )
    return start, grid, crit, held


def _replicate(spec: DgpSpec, R: int, grid: Grid, n_workers: int, outcome) -> list:
    """outcome(panel) for R panels drawn from spec, in replication order; the
    panels are generated a block at a time, the outcomes run on n_workers
    threads only when one replication is large enough to pay."""
    N, T, D = spec.n_units, spec.n_time, spec.n_covariates
    ops = grid.n_points * T * (N * D + D * D)
    workers = n_workers if ops >= _THREADED_REPLICATION_OPS else 1
    outcomes = []
    for n, panel in _panel_blocks(spec, _replication_seeds(spec.seed, R)):
        outcomes += ordered_map(lambda b: outcome(panel(b)), range(n), workers)
    return outcomes


def _report(experiment: str, spec: DgpSpec, R: int, alpha: float, B: int,
            start: float, crit: CriticalValue, extras: dict | None = None,
            **rates) -> ExperimentReport:
    """The report with the fields every experiment shares filled in; rates
    holds the experiment's own result fields."""
    return ExperimentReport(
        experiment=experiment, replications=R, alpha=alpha, B=B, seed=spec.seed,
        runtime_seconds=time.perf_counter() - start,
        extras={"q_alpha": crit.q, **(extras or {})}, **rates,
    )


def run_size_experiment(
    spec: DgpSpec,
    alpha: float,
    B: int,
    R: int,
    grid: Grid | None = None,
    kernel: SmoothingKernel = SmoothingKernel(),
    hac: HacConfig = HacConfig(),
    crit_seed: int = _CRIT_SEED,
    n_workers: int = 1,
) -> ExperimentReport:
    """Empirical rejection rate under a shared homogeneous coefficient curve."""
    if len(set(spec.curves)) != 1:
        raise ValueError("size experiment requires all units to share one curve")
    start, grid, crit, held = _setup(spec, R, grid, kernel, hac, B, alpha,
                                     crit_seed, n_workers, "run_test")

    def outcome(panel: Panel) -> bool:
        return run_test(panel, kernel, grid, hac, alpha, crit).reject_global

    rate = float(np.mean(_replicate(spec, R, grid, n_workers, outcome)))
    return _report(
        "size", spec, R, alpha, B, start, crit,
        rejection_rate=rate, rejection_se=binomial_se(rate, R),
    )


def _scale_bumps(curves: tuple[Curve, ...], scale: float) -> tuple[Curve, ...]:
    return tuple(
        dataclasses.replace(c, height=c.height * scale) if isinstance(c, Bump) else c
        for c in curves
    )


def run_power_experiment(
    spec: DgpSpec,
    scales,
    alpha: float,
    B: int,
    R: int,
    grid: Grid | None = None,
    kernel: SmoothingKernel = SmoothingKernel(),
    hac: HacConfig = HacConfig(),
    crit_seed: int = _CRIT_SEED,
    n_workers: int = 1,
) -> ExperimentReport:
    """Rejection rate per signal scale; the deviating unit's Bump heights are
    multiplied by each scale. Also tracks how often the rejection list names a
    truly heterogeneous pair."""
    start, grid, crit, held = _setup(spec, R, grid, kernel, hac, B, alpha,
                                     crit_seed, n_workers, "run_test", "unit_pairs")
    pairs = unit_pairs(spec.n_units)
    power_curve = []
    for scale in scales:
        scaled = dataclasses.replace(
            spec, curves=tuple(_scale_bumps(tup, float(scale)) for tup in spec.curves)
        )
        m0 = GroundTruth(curves=scaled.curves).m0_mask(grid, pairs)
        hetero = {pairs[p] for p in np.nonzero(~m0.all(axis=1))[0]}

        def outcome(panel: Panel, hetero=hetero) -> tuple[bool, bool]:
            result = run_test(panel, kernel, grid, hac, alpha, crit)
            named = any((r.i, r.j) in hetero for r in result.rejections)
            return result.reject_global, named

        outcomes = _replicate(scaled, R, grid, n_workers, outcome)
        rate = float(np.mean([o[0] for o in outcomes]))
        power_curve.append(
            {
                "signal_scale": float(scale),
                "rejection_rate": rate,
                "se": binomial_se(rate, R),
                "planted_pair_rate": float(np.mean([o[1] for o in outcomes])),
            }
        )
    return _report(
        "power", spec, R, alpha, B, start, crit,
        power_curve=power_curve,
        planted_pair_rate=power_curve[-1]["planted_pair_rate"] if power_curve else None,
    )


def run_fwer_experiment(
    spec: DgpSpec,
    alpha: float,
    B: int,
    R: int,
    grid: Grid | None = None,
    kernel: SmoothingKernel = SmoothingKernel(),
    hac: HacConfig = HacConfig(),
    crit_seed: int = _CRIT_SEED,
    n_workers: int = 1,
) -> ExperimentReport:
    """Fraction of replications with at least one rejection of a TRUE local
    null, membership decided analytically from the curves."""
    start, grid, crit, held = _setup(spec, R, grid, kernel, hac, B, alpha,
                                     crit_seed, n_workers, "run_test", "unit_pairs")
    pairs = unit_pairs(spec.n_units)
    m0 = GroundTruth(curves=spec.curves).m0_mask(grid, pairs)
    true_nulls = {(*pairs[p], grid.points[g]) for p, g in zip(*np.nonzero(m0))}

    def outcome(panel: Panel) -> bool:
        result = run_test(panel, kernel, grid, hac, alpha, crit)
        return any((r.i, r.j, (r.u, r.h)) in true_nulls for r in result.rejections)

    rate = float(np.mean(_replicate(spec, R, grid, n_workers, outcome)))
    return _report(
        "fwer", spec, R, alpha, B, start, crit,
        extras={"n_true_nulls": int(m0.sum())},
        fwer_estimate=rate, fwer_se=binomial_se(rate, R),
    )


def run_cluster_experiment(
    spec: DgpSpec,
    alpha: float,
    B: int,
    R: int,
    grid: Grid | None = None,
    kernel: SmoothingKernel = SmoothingKernel(),
    hac: HacConfig = HacConfig(),
    crit_seed: int = _CRIT_SEED,
    n_workers: int = 1,
) -> ExperimentReport:
    """Rate of exact group recovery (K_hat == K0 and partitions identical)."""
    if spec.group_assignment is None:
        raise ValueError("cluster experiment requires group_assignment ground truth")
    start, grid, crit, held = _setup(spec, R, grid, kernel, hac, B, alpha, crit_seed,
                                     n_workers, "build_normalizers", "compute_stat_table",
                                     "dissimilarity_matrix", "hac_cluster", "select_k")
    target = _partition(spec.group_assignment)

    def outcome(panel: Panel) -> bool:
        normalizers = build_normalizers(panel, kernel, hac)
        table = compute_stat_table(panel, kernel, grid, normalizers)
        d = dissimilarity_matrix(table)
        result = select_k(hac_cluster(d, "complete"), d, crit.q)
        return _partition(result.membership) == target

    rate = float(np.mean(_replicate(spec, R, grid, n_workers, outcome)))
    return _report(
        "cluster", spec, R, alpha, B, start, crit,
        extras={"k_true": len(target)},
        cluster_recovery_rate=rate, cluster_recovery_se=binomial_se(rate, R),
    )


# ---------------------------------------------------------------------------
# preset DGPs used by the experiments and the CLI


def separation_height(T: int, h: float, c: float = 5.0) -> float:
    """c * sqrt(log T / (T h)): the detection-boundary scale at bandwidth h."""
    return float(c * np.sqrt(np.log(T) / (T * h)))


def _flat_curves(D: int) -> tuple[Curve, ...]:
    return tuple(Constant(0.0) for _ in range(D))


def _preset(curves, T: int, seed: int, ar_coef: float, noise_sd: float,
            group_assignment: tuple[int, ...] | None = None) -> DgpSpec:
    """The DgpSpec of one coefficient curve list per unit; N and D are read
    off the curves (no units: DgpSpec refuses it)."""
    return DgpSpec(
        n_units=len(curves),
        n_time=T,
        n_covariates=len(curves[0]) if curves else 0,
        curves=tuple(tuple(c) for c in curves),
        seed=seed,
        ar_coef=ar_coef,
        noise_sd=noise_sd,
        group_assignment=group_assignment,
    )


def homogeneous_spec(N: int, T: int, D: int, seed: int, ar_coef: float = 0.3,
                     noise_sd: float = 1.0) -> DgpSpec:
    """All units share flat coefficient curves (global null holds)."""
    return _preset([_flat_curves(D)] * N, T, seed, ar_coef, noise_sd)


def planted_bump_spec(N: int, T: int, D: int, seed: int, center: float, width: float,
                      height: float, ar_coef: float = 0.3,
                      noise_sd: float = 1.0) -> DgpSpec:
    """Unit 0 deviates by a trapezoid bump on its first coordinate."""
    curves = [list(_flat_curves(D)) for _ in range(N)]
    curves[0][0] = Bump(center=center, width=width, height=height)
    return _preset(curves, T, seed, ar_coef, noise_sd)


def mixed_heterogeneity_spec(T: int, D: int, seed: int, height: float,
                             ar_coef: float = 0.3, noise_sd: float = 1.0) -> DgpSpec:
    """Two deviating units with disjoint bumps plus three homogeneous units."""
    curves = [list(_flat_curves(D)) for _ in range(5)]
    curves[0][0] = Bump(center=0.25, width=0.16, height=height)
    curves[1][0] = Bump(center=0.75, width=0.16, height=-height)
    return _preset(curves, T, seed, ar_coef, noise_sd)


def two_group_spec(T: int, D: int, seed: int, height: float,
                   group_sizes: tuple[int, int] = (3, 3), ar_coef: float = 0.3,
                   noise_sd: float = 1.0) -> DgpSpec:
    """Two latent groups: flat curves vs a shared bump on coordinate 0."""
    n1, n2 = group_sizes
    flat = _flat_curves(D)
    bumped = (Bump(center=0.5, width=0.3, height=height),) + flat[1:]
    return _preset([flat] * n1 + [bumped] * n2, T, seed, ar_coef, noise_sd,
                   group_assignment=(0,) * n1 + (1,) * n2)


# ---------------------------------------------------------------------------
# config-file driven entry point (used by the CLI)

# each key's parser and default. None is no default: experiment is required
# and bump_width defaults to twice the smallest grid bandwidth.
_CONFIG_KEYS = {
    "experiment": (str, None),
    "N": (int, 5),
    "T": (int, 300),
    "D": (int, 2),
    "R": (int, 100),
    "B": (int, 1000),
    "alpha": (float, 0.05),
    "seed": (int, 0),
    "crit_seed": (int, _CRIT_SEED),
    "ar_coef": (float, 0.3),
    "noise_sd": (float, 1.0),
    "height_c": (float, 5.0),
    "scales": (str, "1.0"),
    "bump_center": (float, 0.5),
    "bump_width": (float, None),
    "hac_kernel": (str, HacConfig.cov_kernel),
    "hac_bandwidth": (float, HacConfig.bandwidth),
    "pilot_h": (float, HacConfig.pilot_bandwidth),
    "pooled_lrv": (int, 0),
}


def _config_defaults() -> dict:
    return {key: default for key, (_, default) in _CONFIG_KEYS.items()}


def load_experiment_config(path) -> dict:
    """Parse a `key = value` text file (# starts a comment); a key may be
    given once. A leading UTF-8 byte-order mark, which some editors write, is
    skipped."""
    cfg: dict = {}
    lines: dict = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            if key in lines:
                raise ValueError(
                    f"{path}:{ln}: key {key!r} given twice (lines {lines[key]} and {ln})"
                )
            lines[key] = ln
            try:
                cfg[key] = _CONFIG_KEYS[key][0](value.strip())
            except ValueError:
                raise ValueError(
                    f"{path}:{ln}: cannot parse value {value.strip()!r} for {key!r}"
                ) from None
    if "experiment" not in cfg:
        raise ValueError(f"{path}: missing required key 'experiment'")
    return cfg


def run_from_config(cfg: dict, n_workers: int = 1) -> ExperimentReport:
    """Run the experiment described by a parsed config dictionary; a key it
    leaves out takes its default from _CONFIG_KEYS."""
    kind = cfg["experiment"]
    if kind in ("fwer", "cluster") and "N" in cfg:
        raise ValueError(
            f"the {kind} design fixes the number of units "
            "(fwer: 5, cluster: 3 + 3); remove the key 'N'"
        )
    cfg = {**_config_defaults(), **cfg}
    for key, (parse, _) in _CONFIG_KEYS.items():
        if parse is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ValueError(f"{key} = {cfg[key]} must be finite")
    try:
        scales = [float(s) for s in cfg["scales"].split(",")]
    except ValueError:
        raise ValueError(f"scales = {cfg['scales']} must list numbers") from None
    if not all(map(math.isfinite, scales)):
        raise ValueError(f"scales = {cfg['scales']} must all be finite")
    if cfg["pooled_lrv"] not in (0, 1):
        raise ValueError(f"pooled_lrv = {cfg['pooled_lrv']} must be 0 or 1")
    if not cfg["noise_sd"] > 0.0:  # no long-run covariance to normalise by
        raise ValueError(f"noise_sd = {cfg['noise_sd']} must be positive")
    _bind_deferred("build_grid_application")
    N, T, D, seed = cfg["N"], cfg["T"], cfg["D"], cfg["seed"]
    noise = dict(ar_coef=cfg["ar_coef"], noise_sd=cfg["noise_sd"])
    hac = HacConfig(
        cov_kernel=cfg["hac_kernel"],
        bandwidth=cfg["hac_bandwidth"],
        pilot_bandwidth=cfg["pilot_h"],
        pooled=bool(cfg["pooled_lrv"]),
    )
    grid = build_grid_application(T)
    h_ref = float(grid.h.min())
    height = separation_height(T, h_ref, cfg["height_c"])
    common = dict(
        alpha=cfg["alpha"], B=cfg["B"], R=cfg["R"], grid=grid, hac=hac,
        crit_seed=cfg["crit_seed"], n_workers=n_workers,
    )
    if kind == "size":
        return run_size_experiment(homogeneous_spec(N, T, D, seed, **noise), **common)
    if kind == "power":
        width = cfg["bump_width"]
        spec = planted_bump_spec(
            N, T, D, seed, center=cfg["bump_center"],
            width=2.0 * h_ref if width is None else width, height=height, **noise,
        )
        return run_power_experiment(spec, scales, **common)
    if kind == "fwer":
        spec = mixed_heterogeneity_spec(T, D, seed, height=height, **noise)
        return run_fwer_experiment(spec, **common)
    if kind == "cluster":
        spec = two_group_spec(T, D, seed, height=height, **noise)
        return run_cluster_experiment(spec, **common)
    raise ValueError(f"unknown experiment {kind!r}")
