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

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ._parallel import ordered_map
from .cluster import dissimilarity_matrix, hac_cluster, select_k
from .critvals import CriticalValue, gaussian_critical_value
from .grid import Grid, build_grid_application
from .kernels import SmoothingKernel
from .lrv import HacConfig
from .multiscale import build_normalizers, compute_stat_table, run_test, unit_pairs
from .panel import Panel

# seed of the Gaussian draws behind the critical value every replication shares
_CRIT_SEED = 1_234_567

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
        if self.width <= 0.0:
            raise ValueError("bump width must be positive")

    @property
    def taper(self) -> float:
        return self.width / 4.0

    def support(self) -> tuple[float, float]:
        half = self.width / 2.0 + self.taper
        return (self.center - half, self.center + half)

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


def _ar1(z: np.ndarray, coef: float, stationary_sd: float) -> np.ndarray:
    """AR(1) path from its own standard normals: z[0] starts it from the
    stationary law and z[1:] are the innovations."""
    innov_sd = stationary_sd * np.sqrt(1.0 - coef * coef)
    prev = float(z[0] * stationary_sd)
    shocks = (z[1:] * innov_sd).tolist()  # Python floats: no numpy scalar per step
    return np.array([prev] + [prev := coef * prev + shock for shock in shocks])


def generate_panel(spec: DgpSpec) -> tuple[Panel, GroundTruth]:
    """Simulate Y_it = X_t' beta_i(t/T) + eps_it exactly; bit-reproducible."""
    rng = np.random.default_rng(spec.seed)
    T, D, N = spec.n_time, spec.n_covariates, spec.n_units
    ar_covariates = spec.covariate_model == "intercept_plus_ar1"
    n_x = T * (D - 1) if ar_covariates else T * D
    # every normal of the panel in one call, in the order that one call per
    # series draws them: the covariate columns, then each unit
    z = rng.standard_normal(n_x + (N * T if spec.noise_sd > 0.0 else 0))
    if ar_covariates:
        x = np.empty((T, D))
        x[:, 0] = 1.0
        for d in range(1, D):
            x[:, d] = _ar1(z[(d - 1) * T : d * T], spec.cov_ar_coef, 1.0)
    else:
        x = z[:n_x].reshape(T, D)
    u = np.arange(1, T + 1, dtype=float) / T
    y = np.empty((N, T))
    for i in range(N):
        beta = np.column_stack([c.eval(u) for c in spec.curves[i]])
        signal = np.einsum("td,td->t", x, beta)
        if spec.noise_sd > 0.0:
            z_i = z[n_x + i * T : n_x + (i + 1) * T]
            if spec.ar_coef == 0.0:
                eps = z_i * spec.noise_sd
            else:
                eps = _ar1(z_i, spec.ar_coef, spec.noise_sd / np.sqrt(1.0 - spec.ar_coef**2))
        else:
            eps = np.zeros(T)
        y[i] = signal + eps
    labels = tuple(f"u{i + 1}" for i in range(spec.n_units))
    panel = Panel(y=y, x=x, unit_labels=labels)
    truth = GroundTruth(curves=spec.curves, group_assignment=spec.group_assignment)
    return panel, truth


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

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        rows = []
        if self.power_curve:
            header = ["signal_scale", "rejection_rate", "se", "planted_pair_rate"]
            for entry in self.power_curve:
                rows.append(
                    [
                        entry["signal_scale"],
                        entry["rejection_rate"],
                        entry["se"],
                        entry.get("planted_pair_rate", ""),
                    ]
                )
        else:
            header = ["metric", "value", "se"]
            for name, se_name in (
                ("rejection_rate", "rejection_se"),
                ("fwer_estimate", "fwer_se"),
                ("cluster_recovery_rate", "cluster_recovery_se"),
            ):
                value = getattr(self, name)
                if value is not None:
                    rows.append([name, value, getattr(self, se_name)])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def binomial_se(rate: float, n: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n))


def _replication_seeds(base_seed: int, R: int) -> list[int]:
    # child seeds keyed by (base, r): independent of scheduling order
    return [
        int(np.random.SeedSequence((base_seed, r)).generate_state(1, np.uint64)[0])
        for r in range(R)
    ]


def _setup(spec: DgpSpec, R: int, grid: Grid | None, kernel: SmoothingKernel,
           B: int, alpha: float, crit_seed: int,
           n_workers: int) -> tuple[float, Grid, CriticalValue]:
    """Start the clock, validate R, default the grid and get the one Gaussian
    critical value that every replication shares."""
    start = time.perf_counter()
    if R < 1:
        raise ValueError(f"R={R} replications; need R >= 1")
    if grid is None:
        grid = build_grid_application(spec.n_time)
    crit = gaussian_critical_value(
        spec.n_time, spec.n_units, spec.n_covariates, grid, kernel, B, crit_seed,
        alpha, n_workers=n_workers,
    )
    return start, grid, crit


def _replicate(spec: DgpSpec, R: int, n_workers: int, outcome) -> list:
    """outcome(panel) for R panels drawn from spec, in replication order."""

    def one(seed: int):
        panel, _ = generate_panel(dataclasses.replace(spec, seed=seed))
        return outcome(panel)

    return ordered_map(one, _replication_seeds(spec.seed, R), n_workers)


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
    start, grid, crit = _setup(spec, R, grid, kernel, B, alpha, crit_seed, n_workers)

    def outcome(panel: Panel) -> bool:
        return run_test(panel, kernel, grid, hac, alpha, crit).reject_global

    rate = float(np.mean(_replicate(spec, R, n_workers, outcome)))
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
    start, grid, crit = _setup(spec, R, grid, kernel, B, alpha, crit_seed, n_workers)
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

        outcomes = _replicate(scaled, R, n_workers, outcome)
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
    start, grid, crit = _setup(spec, R, grid, kernel, B, alpha, crit_seed, n_workers)
    pairs = unit_pairs(spec.n_units)
    m0 = GroundTruth(curves=spec.curves).m0_mask(grid, pairs)
    true_nulls = {(*pairs[p], grid.points[g]) for p, g in zip(*np.nonzero(m0))}

    def outcome(panel: Panel) -> bool:
        result = run_test(panel, kernel, grid, hac, alpha, crit)
        return any((r.i, r.j, (r.u, r.h)) in true_nulls for r in result.rejections)

    rate = float(np.mean(_replicate(spec, R, n_workers, outcome)))
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
    start, grid, crit = _setup(spec, R, grid, kernel, B, alpha, crit_seed, n_workers)
    target = _partition(spec.group_assignment)

    def outcome(panel: Panel) -> bool:
        normalizers = build_normalizers(panel, kernel, hac)
        table = compute_stat_table(panel, kernel, grid, normalizers)
        d = dissimilarity_matrix(table)
        result = select_k(hac_cluster(d, "complete"), d, crit.q)
        return _partition(result.membership) == target

    rate = float(np.mean(_replicate(spec, R, n_workers, outcome)))
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


def homogeneous_spec(N: int, T: int, D: int, seed: int, ar_coef: float = 0.3,
                     noise_sd: float = 1.0) -> DgpSpec:
    """All units share flat coefficient curves (global null holds)."""
    return DgpSpec(
        n_units=N,
        n_time=T,
        n_covariates=D,
        curves=tuple(_flat_curves(D) for _ in range(N)),
        seed=seed,
        ar_coef=ar_coef,
        noise_sd=noise_sd,
    )


def planted_bump_spec(
    N: int,
    T: int,
    D: int,
    seed: int,
    center: float,
    width: float,
    height: float,
    ar_coef: float = 0.3,
    noise_sd: float = 1.0,
) -> DgpSpec:
    """Unit 0 deviates by a trapezoid bump on its first coordinate."""
    curves = [list(_flat_curves(D)) for _ in range(N)]
    curves[0][0] = Bump(center=center, width=width, height=height)
    return DgpSpec(
        n_units=N,
        n_time=T,
        n_covariates=D,
        curves=tuple(tuple(c) for c in curves),
        seed=seed,
        ar_coef=ar_coef,
        noise_sd=noise_sd,
    )


def mixed_heterogeneity_spec(
    T: int,
    D: int,
    seed: int,
    height: float,
    ar_coef: float = 0.3,
    noise_sd: float = 1.0,
) -> DgpSpec:
    """Two deviating units with disjoint bumps plus three homogeneous units."""
    curves = [list(_flat_curves(D)) for _ in range(5)]
    curves[0][0] = Bump(center=0.25, width=0.16, height=height)
    curves[1][0] = Bump(center=0.75, width=0.16, height=-height)
    return DgpSpec(
        n_units=5,
        n_time=T,
        n_covariates=D,
        curves=tuple(tuple(c) for c in curves),
        seed=seed,
        ar_coef=ar_coef,
        noise_sd=noise_sd,
    )


def two_group_spec(
    T: int,
    D: int,
    seed: int,
    height: float,
    group_sizes: tuple[int, int] = (3, 3),
    ar_coef: float = 0.3,
    noise_sd: float = 1.0,
) -> DgpSpec:
    """Two latent groups: flat curves vs a shared bump on coordinate 0."""
    n1, n2 = group_sizes
    flat = _flat_curves(D)
    bumped = (Bump(center=0.5, width=0.3, height=height),) + flat[1:]
    curves = tuple(flat for _ in range(n1)) + tuple(bumped for _ in range(n2))
    assignment = tuple([0] * n1 + [1] * n2)
    return DgpSpec(
        n_units=n1 + n2,
        n_time=T,
        n_covariates=D,
        curves=curves,
        seed=seed,
        ar_coef=ar_coef,
        noise_sd=noise_sd,
        group_assignment=assignment,
    )


# ---------------------------------------------------------------------------
# config-file driven entry point (used by the CLI)

_CONFIG_KEYS = {
    "experiment": str,
    "N": int,
    "T": int,
    "D": int,
    "R": int,
    "B": int,
    "alpha": float,
    "seed": int,
    "crit_seed": int,
    "ar_coef": float,
    "noise_sd": float,
    "height_c": float,
    "scales": str,
    "bump_center": float,
    "bump_width": float,
    "hac_kernel": str,
    "hac_bandwidth": float,
    "pilot_h": float,
    "pooled_lrv": int,
}


def load_experiment_config(path) -> dict:
    """Parse a `key = value` text file (# starts a comment)."""
    cfg: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
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
            try:
                cfg[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError:
                raise ValueError(
                    f"{path}:{ln}: cannot parse value {value.strip()!r} for {key!r}"
                ) from None
    if "experiment" not in cfg:
        raise ValueError(f"{path}: missing required key 'experiment'")
    return cfg


def run_from_config(cfg: dict, n_workers: int = 1) -> ExperimentReport:
    """Run the experiment described by a parsed config dictionary."""
    kind = cfg["experiment"]
    if kind in ("fwer", "cluster") and "N" in cfg:
        raise ValueError(
            f"the {kind} design fixes the number of units "
            "(fwer: 5, cluster: 3 + 3); remove the key 'N'"
        )
    T = int(cfg.get("T", 300))
    D = int(cfg.get("D", 2))
    N = int(cfg.get("N", 5))
    R = int(cfg.get("R", 100))
    B = int(cfg.get("B", 1000))
    alpha = float(cfg.get("alpha", 0.05))
    seed = int(cfg.get("seed", 0))
    crit_seed = int(cfg.get("crit_seed", _CRIT_SEED))
    ar_coef = float(cfg.get("ar_coef", 0.3))
    noise_sd = float(cfg.get("noise_sd", 1.0))
    hac = HacConfig(
        cov_kernel=cfg.get("hac_kernel", HacConfig.cov_kernel),
        bandwidth=cfg.get("hac_bandwidth"),
        pilot_bandwidth=float(cfg.get("pilot_h", HacConfig.pilot_bandwidth)),
        pooled=bool(cfg.get("pooled_lrv", 0)),
    )
    grid = build_grid_application(T)
    c = float(cfg.get("height_c", 5.0))
    h_ref = float(grid.h.min())
    common = dict(
        alpha=alpha, B=B, R=R, grid=grid, hac=hac,
        crit_seed=crit_seed, n_workers=n_workers,
    )
    if kind == "size":
        spec = homogeneous_spec(N, T, D, seed, ar_coef, noise_sd)
        return run_size_experiment(spec, **common)
    if kind == "power":
        height = separation_height(T, h_ref, c)
        spec = planted_bump_spec(
            N, T, D, seed,
            center=float(cfg.get("bump_center", 0.5)),
            width=float(cfg.get("bump_width", 2.0 * h_ref)),
            height=height,
            ar_coef=ar_coef, noise_sd=noise_sd,
        )
        scales = [float(s) for s in str(cfg.get("scales", "1.0")).split(",")]
        return run_power_experiment(spec, scales, **common)
    if kind == "fwer":
        spec = mixed_heterogeneity_spec(
            T, D, seed, height=separation_height(T, h_ref, c),
            ar_coef=ar_coef, noise_sd=noise_sd,
        )
        return run_fwer_experiment(spec, **common)
    if kind == "cluster":
        spec = two_group_spec(
            T, D, seed, height=separation_height(T, h_ref, c),
            ar_coef=ar_coef, noise_sd=noise_sd,
        )
        return run_cluster_experiment(spec, **common)
    raise ValueError(f"unknown experiment {kind!r}")
