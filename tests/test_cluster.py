import numpy as np
import pytest

from panelscale import (
    Dissimilarity,
    Grid,
    LocalStatTable,
    build_grid_application,
    dissimilarity_matrix,
    group_difference_intervals,
    hac_cluster,
    select_k,
    unit_pairs,
)
from panelscale.cluster import LINKAGES, partition_at
from panelscale.kernels import lambda_correction

import oracles


def micro_grid(T=16):
    points = ((0.5, 0.25), (0.25, 3 / 16), (0.75, 3 / 16))
    return Grid(points=points, T=T, h_min=3 / 16, h_max=0.25)


def table_from(s_hat, n_units, grid=None):
    grid = grid or micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    return LocalStatTable(
        grid=grid, pairs=unit_pairs(n_units), s_hat=np.asarray(s_hat, float), lam=lam
    )


def random_dissimilarity(rng, n):
    m = rng.uniform(-1.0, 4.0, size=(n, n))
    d = 0.5 * (m + m.T)
    np.fill_diagonal(d, 0.0)
    return Dissimilarity(d=d)


def test_dissimilarity_identical_units():
    grid = micro_grid()
    lam = np.array([lambda_correction(h) for h in grid.h])
    table = table_from(np.zeros((1, grid.n_points)), 2)
    d = dissimilarity_matrix(table)
    assert d.d[0, 1] == pytest.approx(-lam.min(), abs=1e-14)


def test_dissimilarity_two_units_equals_psi_contribution():
    rng = np.random.default_rng(0)
    grid = micro_grid()
    s = rng.uniform(0, 3, size=(1, grid.n_points))
    table = table_from(s, 2)
    d = dissimilarity_matrix(table)
    assert d.d[0, 1] == pytest.approx((s[0] - table.lam).max(), abs=1e-14)


def test_dissimilarity_matches_bruteforce():
    rng = np.random.default_rng(1)
    grid = micro_grid()
    n = 4
    s = rng.uniform(0, 3, size=(len(unit_pairs(n)), grid.n_points))
    table = table_from(s, n)
    d = dissimilarity_matrix(table)
    ref = oracles.naive_dissimilarity(s, table.lam, table.pairs, n)
    np.testing.assert_allclose(d.d, ref, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dissimilarity_rejects_non_finite(bad):
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        Dissimilarity(d=m)


def _constant_table(pairs, value=5.0):
    grid = build_grid_application(100)
    lam = np.array([lambda_correction(h) for h in grid.h])
    s = np.full((len(pairs), grid.n_points), value)
    return LocalStatTable(grid=grid, pairs=pairs, s_hat=s, lam=lam)


@pytest.mark.parametrize(
    "pairs", [((0, 1), (0, 1), (1, 2)), ((0, 0), (0, 1), (1, 2)), ((0, 1), (1, 2), (2, 1))]
)
def test_dissimilarity_rejects_pairs_other_than_each_unit_pair_once(pairs):
    # no table holds (0, 2): read as 0, it would put units 0 and 2 in one group
    with pytest.raises(ValueError, match="every unit pair of 0..2 exactly once"):
        dissimilarity_matrix(_constant_table(pairs))
    # any order and either orientation of the pairs is accepted
    shuffled = dissimilarity_matrix(_constant_table(((1, 2), (2, 0), (1, 0))))
    np.testing.assert_array_equal(
        shuffled.d, dissimilarity_matrix(_constant_table(unit_pairs(3))).d
    )


def test_dissimilarity_rejects_table_without_pairs():
    with pytest.raises(ValueError, match="no unit pairs"):
        dissimilarity_matrix(_constant_table(()))


def test_three_unit_merge_sequence():
    d = Dissimilarity(
        d=np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 6.0], [5.0, 6.0, 0.0]])
    )
    merges = hac_cluster(d, "complete")
    assert merges[0].left == (0,) and merges[0].right == (1,)
    assert merges[0].height == 1.0
    assert merges[1].left == (0, 1) and merges[1].right == (2,)
    assert merges[1].height == 6.0


@pytest.mark.parametrize("linkage", LINKAGES)
def test_equal_distances_tie_break_lexicographic(linkage):
    n = 4
    d = Dissimilarity(d=np.ones((n, n)) - np.eye(n))
    merges = hac_cluster(d, linkage)
    assert merges[0].left == (0,) and merges[0].right == (1,)
    assert all(m.height == 1.0 for m in merges)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_merges_match_rescan_oracle(linkage):
    rng = np.random.default_rng(12)
    cases = [random_dissimilarity(rng, n) for n in range(2, 14)]
    # entries in {0, 1, 2} make many exact ties, also between averages; a
    # weighted-mean update of the averages breaks one of them (trial 225)
    for trial in range(240):
        n = 2 + trial % 12
        m = np.triu(rng.integers(0, 3, size=(n, n)), k=1).astype(float)
        cases.append(Dissimilarity(d=m + m.T))
    for d in cases:
        merges = hac_cluster(d, linkage)
        ref = oracles.naive_hac_cluster(d.d, linkage)
        assert [(m.left, m.right) for m in merges] == [(a, b) for a, b, _ in ref]
        heights = np.array([m.height for m in merges])
        ref_heights = np.array([h for _, _, h in ref])
        if linkage == "average":
            np.testing.assert_allclose(heights, ref_heights, rtol=1e-12, atol=0.0)
        else:
            np.testing.assert_array_equal(heights, ref_heights)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_merge_heights_match_scipy_reference(linkage):
    rng = np.random.default_rng(2)
    for _ in range(6):
        d = random_dissimilarity(rng, 8)
        merges = hac_cluster(d, linkage)
        got = sorted(m.height for m in merges)
        ref = sorted(oracles.scipy_merge_heights(d.d, linkage))
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_complete_linkage_heights_nondecreasing():
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = random_dissimilarity(rng, 7)
        heights = [m.height for m in hac_cluster(d, "complete")]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_select_k_all_below_threshold():
    d = random_dissimilarity(np.random.default_rng(4), 5)
    dendro = hac_cluster(d, "complete")
    res = select_k(dendro, d, q_alpha=d.d.max() + 1.0)
    assert res.k_hat == 1
    assert set(res.membership) == {1}


def test_select_k_all_above_threshold():
    d = random_dissimilarity(np.random.default_rng(5), 5)
    dendro = hac_cluster(d, "complete")
    off = d.d[np.triu_indices(5, k=1)]
    res = select_k(dendro, d, q_alpha=off.min() - 1.0)
    assert res.k_hat == 5
    assert sorted(res.membership) == [1, 2, 3, 4, 5]


def test_select_k_respects_override():
    d = random_dissimilarity(np.random.default_rng(6), 6)
    dendro = hac_cluster(d, "complete")
    res = select_k(dendro, d, q_alpha=-10.0, k_override=2)
    assert res.k_hat == 2
    assert len(set(res.membership)) == 2
    with pytest.raises(ValueError):
        select_k(dendro, d, 0.0, k_override=0)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_select_k_definition_smallest_feasible(linkage):
    d = random_dissimilarity(np.random.default_rng(7), 6)
    dendro = hac_cluster(d, linkage)
    q = float(np.median(d.d[np.triu_indices(6, k=1)]))
    res = select_k(dendro, d, q)

    def max_within(k):
        worst = -np.inf
        for grp in partition_at(dendro, 6, k):
            for a in range(len(grp)):
                for b in range(a + 1, len(grp)):
                    worst = max(worst, d.d[grp[a], grp[b]])
        return worst

    assert max_within(res.k_hat) <= q
    for k in range(1, res.k_hat):
        assert max_within(k) > q


def test_select_k_rejects_dendrogram_of_other_n():
    rng = np.random.default_rng(14)
    d3, d4 = random_dissimilarity(rng, 3), random_dissimilarity(rng, 4)
    with pytest.raises(ValueError, match="merges"):
        select_k(hac_cluster(d4, "complete"), d3, q_alpha=0.0)
    with pytest.raises(ValueError, match="merges"):
        select_k(hac_cluster(d3, "complete"), d4, q_alpha=0.0)


def test_select_k_equals_height_cut_for_complete_linkage():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = random_dissimilarity(rng, 7)
        dendro = hac_cluster(d, "complete")
        q = float(rng.uniform(-0.5, 4.0))
        res = select_k(dendro, d, q)
        n_cut = 7 - sum(1 for m in dendro if m.height <= q)
        assert res.k_hat == n_cut


def test_clustering_invariant_to_relabeling():
    rng = np.random.default_rng(9)
    d = random_dissimilarity(rng, 6)
    perm = rng.permutation(6)
    dp = Dissimilarity(d=d.d[np.ix_(perm, perm)])
    q = 1.0
    res = select_k(hac_cluster(d, "complete"), d, q)
    res_p = select_k(hac_cluster(dp, "complete"), dp, q)
    parts = {
        frozenset(np.nonzero(np.array(res.membership) == g)[0].tolist())
        for g in set(res.membership)
    }
    parts_p = {
        frozenset(perm[np.nonzero(np.array(res_p.membership) == g)[0]].tolist())
        for g in set(res_p.membership)
    }
    assert parts == parts_p


def test_group_differences_empty_for_single_group():
    rng = np.random.default_rng(10)
    grid = micro_grid()
    s = rng.uniform(0, 1, size=(3, grid.n_points))
    table = table_from(s, 3)
    d = dissimilarity_matrix(table)
    res = select_k(hac_cluster(d, "complete"), d, q_alpha=100.0)
    assert res.k_hat == 1
    report = group_difference_intervals(res, table, q_alpha=100.0)
    assert report.intervals == {}


def test_group_differences_strict_threshold():
    grid = micro_grid()
    q = 2.0
    s = np.array(
        [
            [q, q, q],        # pair (0,1): exactly q everywhere -> excluded
            [q + 0.1, 0, 0],  # pair (0,2): one interval above q
            [0, 0, 0],        # pair (1,2)
        ]
    )
    table = table_from(s, 3)
    d = dissimilarity_matrix(table)
    res = select_k(hac_cluster(d, "complete"), d, q_alpha=-10.0, k_override=3)
    report = group_difference_intervals(res, table, q)
    labels = res.membership
    key = tuple(sorted((labels[0], labels[2])))
    assert key in report.intervals
    (u, h, lo, hi) = report.intervals[key][0]
    assert (u, h) == (0.5, 0.25) and (lo, hi) == (0.25, 0.75)
    assert tuple(sorted((labels[0], labels[1]))) not in report.intervals


def test_group_difference_monotone_in_alpha():
    rng = np.random.default_rng(11)
    grid = micro_grid()
    s = rng.uniform(0, 4, size=(3, grid.n_points))
    table = table_from(s, 3)
    d = dissimilarity_matrix(table)
    res = select_k(hac_cluster(d, "complete"), d, q_alpha=-10.0, k_override=3)
    small_q = group_difference_intervals(res, table, 1.0)
    large_q = group_difference_intervals(res, table, 2.5)
    for key, intervals in large_q.intervals.items():
        assert set(intervals) <= set(small_q.intervals.get(key, ()))


def test_group_differences_match_per_pair_oracle():
    rng = np.random.default_rng(15)
    grid = build_grid_application(100)
    n = 7
    s = rng.uniform(0, 3, size=(len(unit_pairs(n)), grid.n_points))
    table = table_from(s, n, grid)
    d = dissimilarity_matrix(table)
    res = select_k(hac_cluster(d, "complete"), d, q_alpha=0.0, k_override=3)
    assert len(set(res.membership)) == 3
    q = 2.9
    report = group_difference_intervals(res, table, q)
    ref = oracles.naive_group_differences(res.membership, table.pairs, s, grid.u, grid.h, q)
    assert report.intervals == ref
    assert list(report.intervals) == list(ref)
    for key, intervals in report.intervals.items():
        assert all(type(k) is int for k in key)
        assert all(type(x) is float for t in intervals for x in t)
