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
from .kernels import (
    _BLOCK_BYTES, HacConfig, SmoothingKernel, _pilot_points, _row_blocks, _shared_weights,
)

# the names a run, an experiment or a panel generator needs, bound here by
# _bind_deferred when one of them first runs: defining a DGP or reading a
# config loads only kernels, and generating a panel adds panel
__getattr__, _bind_deferred = _deferred(globals(), (
    "Panel", "ordered_map", "_dissimilarity", "hac_cluster", "select_k",
    "gaussian_critical_value", "build_grid_application", "run_test", "unit_pairs",
    "_stack_pair_max",
))


# seed of the Gaussian draws behind the critical value every replication shares
_CRIT_SEED = 1_234_567

# ---------------------------------------------------------------------------
# coefficient curves


class _Shape:
    """What the curve shapes share: every field must be finite (refused by
    name); piecewise linear with no breakpoints, unless a shape overrides."""

    piecewise_linear = True

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                kind = type(self).__name__.lower()
                raise ValueError(f"{kind} {f.name} {value} must be finite")

    def breakpoints(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class Constant(_Shape):
    level: float = 0.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=float), self.level)


@dataclass(frozen=True)
class Linear(_Shape):
    intercept: float = 0.0
    slope: float = 1.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class Sine(_Shape):
    amplitude: float = 1.0
    cycles: float = 1.0
    phase: float = 0.0
    level: float = 0.0

    def eval(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.level + self.amplitude * np.sin(
            2.0 * np.pi * self.cycles * u + self.phase
        )

    piecewise_linear = False


@dataclass(frozen=True)
class Bump(_Shape):
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
        super().__post_init__()
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
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd {self.noise_sd} must be finite and nonnegative")
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

    Yields (n, stack) per block of n seeds, where stack(rows) builds the
    covariates x (k, T, D) and responses y (k, N, T) of the block's panels
    rows (a slice of k of them), each panel with the bits it has alone,
    until the next block is drawn into the same buffer. A block's normals
    take at most _BLOCK_BYTES (one panel at the least). Each seed's normals
    come from one generator call, in the order that one call per series draws
    them: the covariate columns, then each unit. Every AR(1) series of the
    block (covariate columns at stationary sd 1, then the units' errors) is
    stepped in place, in one loop over t: its first normal starts it from the
    stationary law and the rest are its innovations. With coefficient 0 the
    step scales by sd*sqrt(1) = sd and adds 0*prev, so i.i.d. errors keep the
    bits of normals times sd.
    """
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
    betas = np.array([np.column_stack([c.eval(u) for c in curves]) for curves in spec.curves])

    def stack(z: np.ndarray, series: np.ndarray, rows: slice):
        k = len(z[rows])
        if ar_covariates:
            x = np.empty((k, T, D))
            x[:, :, 0] = 1.0
            x[:, :, 1:] = series[rows, : D - 1].transpose(0, 2, 1)
        else:
            x = z[rows, :n_x].reshape(k, T, D).copy()
        # each unit's signal is a sum over d of one panel's (T, D) products,
        # as the scalar einsum "td,td->t" adds it
        y = np.einsum("btd,ntd->bnt", x, betas)
        # + 0.0 without noise: a signal of -0.0 reads 0.0, as signal + zeros
        y += series[rows, coef.size - N :] if noisy else 0.0
        return x, y

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
        yield len(z), functools.partial(stack, z, series)


def _unit_labels(n_units: int) -> tuple[str, ...]:
    return tuple(f"u{i + 1}" for i in range(n_units))


def generate_panel(spec: DgpSpec) -> tuple[Panel, GroundTruth]:
    """Simulate Y_it = X_t' beta_i(t/T) + eps_it exactly; bit-reproducible."""
    _bind_deferred("Panel")
    ((_, stack),) = _panel_blocks(spec, [spec.seed])
    x, y = stack(slice(0, 1))
    truth = GroundTruth(curves=spec.curves, group_assignment=spec.group_assignment)
    return Panel(y=y[0], x=x[0], unit_labels=_unit_labels(spec.n_units)), truth


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
           n_workers: int) -> tuple[float, Grid, CriticalValue, tuple]:
    """Start the clock, bind the harness's names (the stacked pass's and the
    cross-check's), validate R, crit_seed and the noise, default the grid
    and get the one Gaussian critical value that every replication shares.
    The grid and pilot kernel weights are taken first and returned: the
    caller holds them until it returns, so the draws and the replications
    share one build."""
    start = time.perf_counter()
    _bind_deferred("Panel", "ordered_map", "gaussian_critical_value",
                   "build_grid_application", "_stack_pair_max", "run_test",
                   "unit_pairs")
    if R < 1:
        raise ValueError(f"R={R} replications; need R >= 1")
    if not spec.noise_sd > 0.0:  # no long-run covariance to normalise by
        raise ValueError(f"noise_sd = {spec.noise_sd} must be positive")
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


def _replicate(spec: DgpSpec, R: int, grid: Grid, kernel: SmoothingKernel,
               hac: HacConfig, crit: CriticalValue, n_workers: int, outcome,
               mask: np.ndarray | None = None) -> list:
    """outcome(pair_max, hits) of R panels drawn from spec, in replication
    order: pair_max (k, n_pairs) holds LocalStatTable.pair_max of k panels and
    hits (k,) whether a cell under mask (n_pairs, G) has S - lambda > q (all
    False without a mask); outcome returns one entry a panel.

    The panels are generated a block at a time, and each block is split into
    sub-blocks whose stacked pass (_stack_pair_max) keeps its temporaries
    within _BLOCK_BYTES (one panel at the least). The sub-blocks run on
    n_workers threads only where that raises no peak RSS
    (_replication_workers).

    The first replication also runs through run_test, and the run raises
    ArithmeticError unless that gives the block's values: its pair_max bit
    for bit and whether a rejection lies under mask.
    """
    N, T, D, G = spec.n_units, spec.n_time, spec.n_covariates, grid.n_points
    # floats a replication's pass may hold: its panel, the pilot fit and HAC's
    # residual series and spectra, and the grid stage's response sums,
    # statistics and the rows gathered for them, counted as if all were alive
    # at once. The pass holds one row block of statistics, not its (P, G), so
    # the last term over-counts; it stays so that the sub-blocks and the
    # worker choice stay those measured: at (5,300,2) the 3-panel sub-blocks
    # kept a size run's peak RSS 0.4 MB below 5-panel ones, for 3 % more CPU time
    P = N * (N - 1) // 2
    floats = T * (D + N) + 7 * N * T * D + N * D * G + P * G * (2 * D + 1)
    workers = _replication_workers(n_workers, G, T, floats)
    outcomes: list = []
    for n, stack in _panel_blocks(spec, _replication_seeds(spec.seed, R)):
        def reduce(rows: slice, stack=stack):
            return _stack_pair_max(*stack(rows), kernel, grid, hac, mask, crit.q)

        parts = ordered_map(reduce, _row_blocks(n, floats), workers)
        pair_max, hits = map(np.concatenate, zip(*parts))
        if not outcomes:
            x, y = stack(slice(0, 1))
            panel = Panel(y=y[0], x=x[0], unit_labels=_unit_labels(N))
            _cross_check(panel, kernel, grid, hac, crit, mask, pair_max[0], hits[0])
        outcomes += outcome(pair_max, hits)
    return outcomes


def _replication_workers(n_workers: int, G: int, T: int, floats: int) -> int:
    """n_workers if a second sub-block in flight raises no peak RSS, else 1.

    On 2 vCPUs with 1 BLAS thread, two workers ran the replications faster
    at most shapes measured, from (5,300,2) to (50,500,3), but raised a run's
    peak RSS unless two sub-block passes fit where its draws had held their
    float32 copy of the grid's kernel weights, 4 G T bytes.
    """
    sub_block = 8 * floats * max(1, _BLOCK_BYTES // (8 * floats))
    return n_workers if 2 * sub_block <= 4 * G * T else 1


def _cross_check(panel: Panel, kernel: SmoothingKernel, grid: Grid, hac: HacConfig,
                 crit: CriticalValue, mask, pair_max: np.ndarray, hit) -> None:
    """Raise ArithmeticError unless run_test gives panel the block pass's
    values: its pair_max bit for bit (so psi_hat and the rejected pairs) and
    whether a rejection lies under mask."""
    result = run_test(panel, kernel, grid, hac, crit.alpha, crit)
    hot = False
    if mask is not None:
        pair_of = {pair: p for p, pair in enumerate(unit_pairs(panel.n_units))}
        point_of = {point: g for g, point in enumerate(grid.points)}
        hot = any(mask[pair_of[r.i, r.j], point_of[r.u, r.h]] for r in result.rejections)
    if (result.pair_max.tobytes(), hot) != (pair_max.tobytes(), bool(hit)):
        raise ArithmeticError(
            "the stacked replication pass and the one-panel path disagree on the "
            "first replication"
        )


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
                                     crit_seed, n_workers)
    outcomes = _replicate(spec, R, grid, kernel, hac, crit, n_workers,
                          lambda pair_max, _: list(pair_max.max(axis=1) > crit.q))
    rate = float(np.mean(outcomes))
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
                                     crit_seed, n_workers)
    pairs = unit_pairs(spec.n_units)
    power_curve = []
    for scale in scales:
        scaled = dataclasses.replace(
            spec, curves=tuple(_scale_bumps(tup, float(scale)) for tup in spec.curves)
        )
        hetero = ~GroundTruth(curves=scaled.curves).m0_mask(grid, pairs).all(axis=1)

        def outcome(pair_max: np.ndarray, _, hetero=hetero) -> list:
            rejected = pair_max > crit.q
            return list(zip(rejected.any(axis=1), rejected[:, hetero].any(axis=1)))

        outcomes = _replicate(scaled, R, grid, kernel, hac, crit, n_workers, outcome)
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
                                     crit_seed, n_workers)
    pairs = unit_pairs(spec.n_units)
    m0 = GroundTruth(curves=spec.curves).m0_mask(grid, pairs)
    outcomes = _replicate(spec, R, grid, kernel, hac, crit, n_workers,
                          lambda _, hits: list(hits), mask=m0)
    rate = float(np.mean(outcomes))
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
                                     n_workers)
    _bind_deferred("_dissimilarity", "hac_cluster", "select_k")
    target = _partition(spec.group_assignment)
    i_idx, j_idx = np.triu_indices(spec.n_units, k=1)  # unit_pairs order

    def outcome(pair_max: np.ndarray, _) -> list:
        recovered = []
        for row in pair_max:
            d = _dissimilarity(spec.n_units, i_idx, j_idx, row)
            result = select_k(hac_cluster(d, "complete"), d, crit.q)
            recovered.append(_partition(result.membership) == target)
        return recovered

    outcomes = _replicate(spec, R, grid, kernel, hac, crit, n_workers, outcome)
    rate = float(np.mean(outcomes))
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
