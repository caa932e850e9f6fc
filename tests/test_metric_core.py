import math
import time

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from continuum_lab import errors, metric_core
from continuum_lab.errors import DomainError
from continuum_lab.metric_core import (DistanceReport,
                                       FinitePointSet, closed_neighborhood,
                                       hausdorff_distance)


def test_singleton_pair_is_euclidean_distance():
    k = FinitePointSet(points=[(0.0, 0.0)])
    l = FinitePointSet(points=[(3.0, 4.0)])
    rep = hausdorff_distance(k, l)
    assert rep.value == 5.0


def test_known_asymmetric_pair():
    # the far point 0.4 of L is 0.4 away from K = {0, 1}
    k = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])
    l = FinitePointSet(points=[(0.0, 0.0), (0.4, 0.0), (1.0, 0.0)])
    rep = hausdorff_distance(k, l)
    assert rep.value == pytest.approx(0.4, abs=1e-15)
    assert rep.direction == 1
    assert rep.witness == (1, 0)


def test_identical_sets_distance_zero():
    k = FinitePointSet(points=[(0.0, 1.0), (2.0, 3.0)])
    assert hausdorff_distance(k, k).value == 0.0


def test_constructor_validation():
    for bad in ([], [0.0, 1.0], [(0.0, 1.0, 2.0)], [[[0.0, 1.0]]]):
        with pytest.raises(DomainError, match=r"^points must have shape "):
            FinitePointSet(points=bad)
    with pytest.raises(DomainError, match="^point set must be non-empty$"):
        FinitePointSet(points=np.empty((0, 2)))


def test_subset_refuses_indices_that_are_not_integers():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(DomainError,
                       match="^subset indices must be integers, got bool$"):
        amb.subset([True, False, True])
    with pytest.raises(DomainError,
                       match="^subset indices must be integers, got float64$"):
        amb.subset([1.7])
    # np.asarray([]) is float64: an empty list is still named as empty
    with pytest.raises(DomainError, match="^subset must be non-empty$"):
        amb.subset([])
    with pytest.raises(DomainError, match="^subset index out of range$"):
        amb.subset([3])
    for idx in ([2, 0], np.array([2, 0], dtype=np.uint8), range(2, -1, -2)):
        assert amb.subset(idx).points.tolist() == [[2.0, 0.0], [0.0, 0.0]]


def test_closed_neighborhood_includes_boundary():
    amb = FinitePointSet(points=[(float(i), 0.0) for i in range(5)])
    k = amb.subset([0])
    nb = closed_neighborhood(k, 2.0, amb)
    assert len(nb) == 3  # 0, 1, and the boundary point at distance exactly 2


def test_closed_neighborhood_names_a_bad_radius():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])
    for eps in (math.nan, -1.0):
        with pytest.raises(DomainError,
                           match=f"^neighborhood radius must be non-negative, "
                                 f"got {eps}$"):
            closed_neighborhood(amb.subset([0]), eps, amb)
    assert len(closed_neighborhood(amb.subset([0]), math.inf, amb)) == 2


def test_closed_neighborhood_requires_subset():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])
    k = FinitePointSet(points=[(0.5, 0.0)])
    with pytest.raises(DomainError):
        closed_neighborhood(k, 1.0, amb)


def test_negative_distance_report_rejected():
    with pytest.raises(DomainError):
        DistanceReport(value=-1.0, witness=(0, 0), direction=0)


coords = st.floats(min_value=-50, max_value=50, allow_nan=False,
                   allow_infinity=False)
point_sets = st.lists(st.tuples(coords, coords), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(point_sets, point_sets)
def test_hausdorff_symmetry(p, q):
    k, l = FinitePointSet(points=p), FinitePointSet(points=q)
    assert hausdorff_distance(k, l).value == \
        pytest.approx(hausdorff_distance(l, k).value, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(point_sets, point_sets, point_sets)
def test_hausdorff_triangle_inequality(p, q, r):
    k = FinitePointSet(points=p)
    l = FinitePointSet(points=q)
    m = FinitePointSet(points=r)
    d_km = hausdorff_distance(k, m).value
    d_kl = hausdorff_distance(k, l).value
    d_lm = hausdorff_distance(l, m).value
    assert d_km <= d_kl + d_lm + 1e-9


@settings(max_examples=100, deadline=None)
@given(point_sets, point_sets)
def test_hausdorff_witness_attains_value(p, q):
    k, l = FinitePointSet(points=p), FinitePointSet(points=q)
    rep = hausdorff_distance(k, l)
    far, near = (k, l) if rep.direction == 0 else (l, k)
    i, j = rep.witness
    d = math.dist(far.points[i], near.points[j])
    assert d == pytest.approx(rep.value, abs=1e-12)


def test_non_finite_coordinates_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            FinitePointSet(points=[(0.0, 0.0), (bad, 1.0)])
    with pytest.raises(DomainError, match="non-negative number"):
        DistanceReport(value=math.nan, witness=(0, 0), direction=0)


# -- the KD-tree path against the dense formula -----------------------------


def dense_reference(P, Q, block=256):
    """(value, witness, direction) from the dense formula, row block by row
    block: max over rows of min over columns, lowest index on ties, the
    forward direction on a tie between directions."""
    best = None
    for direction, (A, B) in enumerate(((P, Q), (Q, P))):
        mins = np.concatenate([
            np.sqrt(((A[s:s + block, None, :] - B[None, :, :]) ** 2)
                    .sum(axis=2)).min(axis=1)
            for s in range(0, len(A), block)])
        i = int(np.argmax(mins))
        j = int(np.argmin(np.sqrt(((A[i] - B) ** 2).sum(axis=1))))
        if best is None or mins[i] > best[0]:
            best = (float(mins[i]), (i, j), direction)
    return best


def tree_report(P, Q):
    rep = metric_core._tree_hausdorff(P, Q)
    return rep.value, rep.witness, rep.direction


@pytest.mark.parametrize("how", ["reversed", "shifted"])
def test_tied_rows_stop_the_witness_search_at_the_first_hit(how):
    # every row ties at the maximum: 0 against the points reversed, and
    # sqrt(2) * 1e-3 up to rounding against them shifted
    P = np.random.default_rng(0).uniform(0, 1, (8000, 2))
    Q = P[::-1].copy() if how == "reversed" else P + 1e-3
    tree_report(P[:300], Q[:300])  # load scipy before the clock starts
    start = time.perf_counter()
    got = tree_report(P, Q)
    seconds = time.perf_counter() - start
    assert got == dense_reference(P, Q)
    assert seconds < 1.0


def _large_pair(kind, seed, n, m):
    """Two planar point arrays with n x m > TREE_MIN_PAIRS."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-3, 3, (n, 2)), rng.uniform(-2, 4, (m, 2))
    if kind == "grid":   # cell centres: many equal distances
        h = rng.uniform(0.01, 3.0)
        cells = np.array([(c, r) for c in range(40) for r in range(30)])
        a = cells[rng.choice(len(cells), size=n, replace=False)]
        b = cells[rng.choice(len(cells), size=m, replace=False)]
        return (a + 0.5) * h, (b + 0.5) * h
    if kind == "duplicates":
        base = rng.integers(0, 12, (n, 2)) * 0.25
        return base, base[rng.integers(0, n, m)]
    if kind == "identical":
        a = rng.uniform(0, 1, (n, 2))
        return a, a.copy()
    if kind == "nested":  # Q drawn from P's rows, as a coarser tower level
        cells = rng.integers(0, 24, (n // 2, 2)) * rng.uniform(0.01, 1.0)
        a = cells[rng.integers(0, len(cells), n)]
        return a, a[rng.integers(0, n, m)]
    if kind == "overlap":  # shared rows, rows an ulp or a step off, new rows
        a = rng.integers(-6, 7, (n, 2)) * 0.5
        b = a[rng.integers(0, n, m)]
        how = rng.integers(0, 4, m)
        b[how == 1] = np.nextafter(b[how == 1], 2 * b[how == 1])
        b[how == 2] += rng.choice([-0.25, 0.25], ((how == 2).sum(), 2))
        b[how == 3] = rng.uniform(-3.5, 3.5, ((how == 3).sum(), 2))
        # -0.0 and 0.0 are one point
        a, b = (np.where((x == 0) & (rng.random(x.shape) < 0.5), -0.0, x)
                for x in (a, b))
        return (a, b) if seed % 2 else (b, a)
    # one point against many, either way round
    a = rng.uniform(0, 1, (1, 2))
    b = rng.uniform(0, 1, (metric_core.TREE_MIN_PAIRS + n, 2))
    return (a, b) if seed % 2 else (b, a)


class ScrambledTree:
    """A KD-tree whose answers are only candidates: about 30% of its
    neighbour indices are replaced at random and its distances are noise,
    as a faulty tree from another library version might answer."""

    def __init__(self, data, **kwargs):
        self.tree = cKDTree(data, **kwargs)
        self.rng = np.random.default_rng(len(data))

    def query(self, x):
        _, idx = self.tree.query(x)
        swap = self.rng.random(len(idx)) < 0.3
        idx = np.where(swap, self.rng.integers(0, self.tree.n, len(idx)), idx)
        return self.rng.uniform(-1.0, 1.0, len(idx)), idx


@settings(max_examples=84, deadline=None)
@given(st.sampled_from(["random", "grid", "duplicates", "identical", "one",
                        "nested", "overlap"]),
       st.integers(0, 2**32 - 1), st.integers(250, 500),
       st.integers(210, 400), st.booleans())
def test_tree_path_equals_dense_reference(kind, seed, n, m, scrambled):
    P, Q = _large_pair(kind, seed, n, m)
    assert len(P) * len(Q) > metric_core.TREE_MIN_PAIRS
    expected = dense_reference(P, Q)
    with pytest.MonkeyPatch.context() as mp:
        if scrambled:
            mp.setattr(scipy.spatial, "cKDTree", ScrambledTree)
        assert tree_report(P, Q) == expected
        rep = hausdorff_distance(FinitePointSet(points=P),
                                 FinitePointSet(points=Q))
    assert (rep.value, rep.witness, rep.direction) == expected


@pytest.mark.parametrize("tree", [cKDTree, ScrambledTree])
def test_tree_bounds_are_zero_exactly_on_shared_points(tree, monkeypatch):
    # a point an ulp or 1e-9 away from every point of B is not shared
    monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
    rng = np.random.default_rng(5)
    B = rng.integers(-8, 9, (400, 2)) * 0.25
    shared = np.vstack([B, np.where(B == 0, -0.0, B)])
    near = np.vstack([np.nextafter(B, 2 * B), B + 1e-9])
    A = np.vstack([shared, near])
    dense = metric_core._dense_minima(A, B)
    bound = metric_core._tree_bounds(A, B)
    assert (bound >= dense).all()
    assert np.array_equal(bound == 0.0, dense == 0.0)
    assert (dense[:800] == 0.0).all() and (dense[800:] > 0.0).sum() > 700
    if tree is cKDTree:
        assert np.allclose(bound, dense, rtol=2.0 ** -48, atol=0.0)
    for P in (near, shared):
        assert tree_report(P, B) == dense_reference(P, B)


def test_four_link_three_level_tower_step_equals_dense_reference():
    # 12,775 points over 6,860 distinct ones against 862 points that all
    # lie among them: the backward minima are exact zeros, no tree asked
    from continuum_lab.realize import build_tower, realize_planar
    tower = build_tower(4, 3, (0.0, 0.0), (0.25, 0.1))
    P, Q = (np.vstack([link.points for link in links])
            for links in realize_planar(tower)[1:])
    assert (len(P), len(Q)) == (12775, 862)
    assert len(np.unique(metric_core._point_keys(P))) == 6860
    assert (metric_core._tree_bounds(Q, P) == 0.0).all()
    expected = dense_reference(P, Q)
    rep = hausdorff_distance(FinitePointSet(points=P),
                             FinitePointSet(points=Q))
    assert (rep.value, rep.witness, rep.direction) == expected
    assert tree_report(P, Q) == expected


def test_five_link_two_level_tower_step_equals_dense_reference():
    from continuum_lab.realize import build_tower, realize_planar
    tower = build_tower(5, 2, (0.0, 0.0), (0.25, 0.1))
    P, Q = (np.vstack([link.points for link in links])
            for links in realize_planar(tower))
    assert (len(P), len(Q)) == (1965, 181)
    assert len(P) * len(Q) > metric_core.TREE_MIN_PAIRS
    rep = hausdorff_distance(FinitePointSet(points=P),
                             FinitePointSet(points=Q))
    assert (rep.value, rep.witness, rep.direction) == dense_reference(P, Q)
    assert tree_report(P, Q) == dense_reference(P, Q)


# -- flat subsets against the set-loop reference ------------------------------


def reference_require_subset(K, ambient):
    """The set-loop subset check."""
    amb = {(float(x), float(y)) for x, y in ambient.points}
    for x, y in K.points:
        if (float(x), float(y)) not in amb:
            raise DomainError(f"point ({x}, {y}) is not in the ambient set")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DomainError as exc:
        return "error", str(exc)


def _layout(pts, how):
    """The same float64 points as a contiguous, strided, Fortran-ordered or
    column-reversed array; ``FinitePointSet`` keeps each as given."""
    a = np.array(pts, dtype=float).reshape(-1, 2)
    if how == "strided":
        wide = np.full((2 * len(a), 2), 99.0)
        wide[::2] = a
        return wide[::2]
    if how == "fortran":
        return np.asfortranarray(a)
    if how == "reversed":
        return np.ascontiguousarray(a[:, ::-1])[:, ::-1]
    return a


# -0.0 and 0.0 are one point, as they are for the set loop
grid_coords = st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 1e-300, 7.75])
layouts = st.sampled_from(["contiguous", "strided", "fortran", "reversed"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(grid_coords, grid_coords), min_size=1,
                max_size=12),
       st.lists(st.integers(0, 99), max_size=10),
       st.lists(st.tuples(grid_coords, grid_coords), max_size=3),
       st.booleans(), layouts, layouts,
       st.sampled_from([0.0, 0.5, 2.0, 10.0]))
def test_planar_subset_check_matches_the_set_loop(amb_pts, picks, extra,
                                                  flip_zeros, amb_layout,
                                                  k_layout, eps):
    k_pts = [amb_pts[i % len(amb_pts)] for i in picks] + extra
    k = _layout(k_pts or amb_pts[:1], k_layout)
    if flip_zeros:
        k = np.where(k == 0.0, -k, k)
    amb = FinitePointSet(points=_layout(amb_pts, amb_layout))
    K = FinitePointSet(points=k)
    got = _outcome(metric_core._require_subset, K, amb)
    assert got == _outcome(reference_require_subset, K, amb)
    kind, nb = _outcome(closed_neighborhood, K, eps, amb)
    assert kind == got[0]
    if kind == "ok":
        near = metric_core._pair_distances(amb.points, K.points).min(axis=1)
        assert isinstance(nb, FinitePointSet)
        assert np.array_equal(nb.points, amb.points[near <= eps])
    else:
        assert nb == got[1]


def test_planar_subset_is_an_ordinary_planar_set():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    sub = amb.subset([2, 0]).subset([1])
    assert type(sub) is FinitePointSet
    assert np.array_equal(sub.points, [[0.0, 0.0]])
    # planar sets are compatible with any planar set, subset or not
    assert closed_neighborhood(sub, 1.0, amb).points.tolist() == \
        [[0.0, 0.0], [1.0, 0.0]]


def test_subset_check_names_the_first_missing_point():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])
    k = FinitePointSet(points=[(1.0, 0.0), (0.5, 0.0), (2.0, 0.0)])
    with pytest.raises(DomainError,
                       match=r"^point \(0\.5, 0\.0\) is not in the ambient"):
        closed_neighborhood(k, 1.0, amb)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("block", [1, 7, 1 << 17])
def test_planar_neighborhood_from_row_blocks_equals_the_dense_one(
        seed, block, monkeypatch):
    # the minima come in row blocks of at most the budget's point pairs, and
    # per point they are the dense matrix's minima; eps on a grid distance
    # hits exact ties
    monkeypatch.setattr(errors, "SIZE_BLOCK_FLOATS", block)
    rng = np.random.default_rng(seed)
    amb = FinitePointSet(points=rng.integers(-20, 20, (300, 2)) / 8)
    K = amb.subset(rng.choice(300, 25, replace=False))
    near = metric_core._pair_distances(amb.points, K.points).min(axis=1)
    for eps in (0.0, 0.625, float(np.sort(near)[150])):
        nb = closed_neighborhood(K, eps, amb)
        assert np.array_equal(nb.points, amb.points[near <= eps])
