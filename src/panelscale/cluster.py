"""Agglomerative clustering of units on test-implied dissimilarities.

The dissimilarity between units i and j is the partially aggregated
statistic max over gridpoints of S_ij(u, h) - lambda(h); it can be negative.
The number of groups, when not overridden, is the smallest K whose partition
keeps every within-group dissimilarity at or below the critical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PanelFormatError
from .kernels import _row_blocks
from .multiscale import LocalStatTable, unit_pairs

LINKAGES = ("complete", "single", "average")


@dataclass(frozen=True, eq=False)
class Dissimilarity:
    """Symmetric zero-diagonal matrix of pairwise multiscale distances."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"dissimilarity must be square, got {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("dissimilarity must be finite")
        if not np.array_equal(d, d.T):
            raise ValueError("dissimilarity must be exactly symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("dissimilarity diagonal must be zero")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n_units(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: the two clusters merged and the linkage height."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    height: float


@dataclass(frozen=True, eq=False)
class ClusterResult:
    k_hat: int
    membership: tuple[int, ...]
    dendrogram: tuple[Merge, ...]
    q_alpha: float


@dataclass(frozen=True, eq=False)
class GroupDifferenceReport:
    """Per ordered group pair (k, k'): gridpoints/intervals with a significant
    difference between some cross-group unit pair."""

    intervals: dict[tuple[int, int], tuple[tuple[float, float, float, float], ...]]


def dissimilarity_matrix(table: LocalStatTable) -> Dissimilarity:
    """d_ij = max over gridpoints of (S_ij - lambda); exact max, symmetric."""
    if not table.pairs:
        raise ValueError("table has no unit pairs")
    n = max(map(max, table.pairs)) + 1
    if sorted(tuple(sorted(p)) for p in table.pairs) != list(unit_pairs(n)):
        raise ValueError(f"table must cover every unit pair of 0..{n - 1} exactly once")
    d = np.zeros((n, n))
    i, j = np.asarray(table.pairs).T
    d[i, j] = d[j, i] = table.pair_max
    return Dissimilarity(d=d)


_COMBINE = {"complete": np.maximum, "single": np.minimum, "average": np.add}


def hac_cluster(d: Dissimilarity, linkage: str = "complete") -> tuple[Merge, ...]:
    """Agglomerative merge sequence with deterministic tie-breaking.

    One matrix holds the cross-cluster max (complete), min (single) or sum
    (average) of d, and a merge combines two of its rows (Lance-Williams).
    Average linkage divides the sum by the block size only when comparing,
    so averages equal as fractions of the same sums stay equal as floats.
    Ties are broken by the lexicographically smallest (cluster, cluster) pair,
    comparing sorted member tuples.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; choose {LINKAGES}")
    n = d.n_units
    if n < 2:
        raise PanelFormatError("clustering requires at least two units")
    combine = _COMBINE[linkage]
    # d is finite, so inf marks the diagonal and retired slots unambiguously
    agg = d.d.copy()
    np.fill_diagonal(agg, np.inf)
    size = np.ones(n)
    members: list[tuple[int, ...]] = [(i,) for i in range(n)]
    merges: list[Merge] = []
    for _ in range(n - 1):
        dist = agg / np.outer(size, size) if linkage == "average" else agg
        # slot k holds the cluster whose smallest member is k, and clusters
        # are disjoint, so sorted member tuples order as their slots do: the
        # first minimum in row-major order is the documented tie-break, a < b
        a, b = divmod(int(dist.argmin()), n)
        merges.append(Merge(left=members[a], right=members[b], height=float(dist[a, b])))
        agg[a] = agg[:, a] = combine(agg[a], agg[b])
        agg[b] = agg[:, b] = agg[a, a] = np.inf
        size[a] += size[b]
        members[a] = tuple(sorted(members[a] + members[b]))
    return tuple(merges)


def partition_at(dendrogram: tuple[Merge, ...], n_units: int, k: int) -> list[tuple[int, ...]]:
    """Partition into exactly k groups by replaying the first n-k merges."""
    if not 1 <= k <= n_units:
        raise ValueError(f"k={k} outside [1, {n_units}]")
    clusters: list[tuple[int, ...]] = [(i,) for i in range(n_units)]
    for merge in dendrogram[: n_units - k]:
        clusters = [c for c in clusters if c != merge.left and c != merge.right]
        clusters.append(tuple(sorted(merge.left + merge.right)))
    return sorted(clusters, key=lambda c: c[0])


def select_k(
    dendrogram: tuple[Merge, ...],
    d: Dissimilarity,
    q_alpha: float,
    k_override: int | None = None,
) -> ClusterResult:
    """Smallest K with max within-group dissimilarity <= q_alpha, or the
    override; labels are assigned by each group's smallest member index.

    Every within-group pair is joined by exactly one merge, so the partition
    after m merges is feasible until the first merge whose cross-block max
    exceeds q_alpha; K is n minus that merge's 0-based index, or 1 if none
    does.
    """
    n = d.n_units
    if len(dendrogram) != n - 1:
        raise ValueError(f"dendrogram has {len(dendrogram)} merges; {n} units need {n - 1}")
    if k_override is not None:
        if not 1 <= k_override <= n:
            raise ValueError(f"k_override={k_override} outside [1, {n}]")
        k_hat = k_override
    else:
        first_over = (
            m
            for m, merge in enumerate(dendrogram)
            if d.d[np.ix_(merge.left, merge.right)].max() > q_alpha
        )
        k_hat = n - next(first_over, n - 1)
    groups = partition_at(dendrogram, n, k_hat)
    membership = [0] * n
    for label, group in enumerate(groups, start=1):
        for i in group:
            membership[i] = label
    return ClusterResult(
        k_hat=k_hat,
        membership=tuple(membership),
        dendrogram=dendrogram,
        q_alpha=q_alpha,
    )


def group_difference_intervals(
    result: ClusterResult, table: LocalStatTable, q_alpha: float
) -> GroupDifferenceReport:
    """Gridpoints with S_ij(u, h) > q_alpha (strict, no lambda) for some unit
    pair straddling the group pair, reported as intervals [u-h, u+h]."""
    labels = np.asarray(result.membership)
    i, j = np.asarray(table.pairs).T
    lo, hi = np.minimum(labels[i], labels[j]), np.maximum(labels[i], labels[j])
    cross = lo != hi
    intervals = {}
    for key in sorted(set(zip(lo[cross].tolist(), hi[cross].tolist()))):
        rows = np.nonzero((lo == key[0]) & (hi == key[1]))[0]
        hit = np.zeros(table.grid.n_points, dtype=bool)
        for blk in _row_blocks(rows.size, table.grid.n_points):
            hit |= (table.s_hat[rows[blk]] > q_alpha).any(axis=0)
        points = np.nonzero(hit)[0]
        if points.size:
            u, h = table.grid.u[points], table.grid.h[points]
            hits = zip(u.tolist(), h.tolist(), (u - h).tolist(), (u + h).tolist())
            intervals[key] = tuple(sorted(hits, key=lambda t: (t[2], t[3])))
    return GroupDifferenceReport(intervals=intervals)
