import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab import metric_core
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
    with pytest.raises(DomainError):
        FinitePointSet()
    with pytest.raises(DomainError):
        FinitePointSet(points=[])
    with pytest.raises(DomainError):
        FinitePointSet(points=[(0.0, 0.0)], matrix=[[0.0]])
    with pytest.raises(DomainError):
        FinitePointSet(matrix=[[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(DomainError):
        FinitePointSet(matrix=[[0.0, 5.0, 1.0],
                               [5.0, 0.0, 1.0],
                               [1.0, 1.0, 0.0]])  # triangle violation


def test_matrix_backed_sets_and_subsets():
    m = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    amb = FinitePointSet(matrix=m)
    sub = amb.subset([0, 2])
    rep = hausdorff_distance(sub, amb)
    assert rep.value == 1.0


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


def test_mixed_ambient_spaces_rejected():
    table = FinitePointSet(matrix=[[0.0, 1.0], [1.0, 0.0]])
    other = FinitePointSet(matrix=[[0.0, 1.0], [1.0, 0.0]])
    planar = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(DomainError, match="mix planar"):
        hausdorff_distance(planar, table)
    with pytest.raises(DomainError, match="mix planar"):
        hausdorff_distance(table, planar)
    with pytest.raises(DomainError, match="different distance tables"):
        hausdorff_distance(table, other.subset([0]))


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
    rep = metric_core._report(*metric_core._tree_hausdorff(P, Q))
    return rep.value, rep.witness, rep.direction


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


def _nudged(minima, seed):
    """Tree minima moved by up to 4 ulps either way, as another tree's
    rounding might move them."""
    rng = np.random.default_rng(seed)
    out = minima.copy()
    for _ in range(4):
        step = rng.integers(-1, 2, len(out))
        out = np.where(step > 0, np.nextafter(out, np.inf),
                       np.where(step < 0, np.nextafter(out, -np.inf), out))
    return np.maximum(out, 0.0)


@settings(max_examples=84, deadline=None)
@given(st.sampled_from(["random", "grid", "duplicates", "identical", "one",
                        "nested", "overlap"]),
       st.integers(0, 2**32 - 1), st.integers(250, 500),
       st.integers(210, 400), st.booleans())
def test_tree_path_equals_dense_reference(kind, seed, n, m, nudge):
    P, Q = _large_pair(kind, seed, n, m)
    assert len(P) * len(Q) > metric_core.TREE_MIN_PAIRS
    expected = dense_reference(P, Q)
    with pytest.MonkeyPatch.context() as mp:
        if nudge:
            exact = metric_core._tree_minima
            mp.setattr(metric_core, "_tree_minima",
                       lambda A, B: _nudged(exact(A, B), seed))
        assert tree_report(P, Q) == expected
        rep = hausdorff_distance(FinitePointSet(points=P),
                                 FinitePointSet(points=Q))
    assert (rep.value, rep.witness, rep.direction) == expected


def test_tree_minima_are_zero_exactly_on_shared_points():
    # a point an ulp or 1e-9 away from every point of B is not shared
    rng = np.random.default_rng(5)
    B = rng.integers(-8, 9, (400, 2)) * 0.25
    shared = np.vstack([B, np.where(B == 0, -0.0, B)])
    near = np.vstack([np.nextafter(B, 2 * B), B + 1e-9])
    A = np.vstack([shared, near])
    dense = metric_core._dense_minima(A, B)
    tree = metric_core._tree_minima(A, B)
    assert np.array_equal(tree == 0.0, dense == 0.0)
    assert (dense[:800] == 0.0).all() and (dense[800:] > 0.0).sum() > 700
    assert np.allclose(tree, dense, rtol=2.0 ** -48, atol=0.0)
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
    assert (metric_core._tree_minima(Q, P) == 0.0).all()
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


def reference_require_subset(K, ambient, k_rows=None, amb_rows=None):
    """The set-loop subset check.  A table-backed set is given with its
    ``(root table, indices into the root)``, tracked outside the class."""
    if K.is_planar and ambient.is_planar:
        amb = {(float(x), float(y)) for x, y in ambient.points}
        for x, y in K.points:
            if (float(x), float(y)) not in amb:
                raise DomainError(f"point ({x}, {y}) is not in the ambient set")
        return
    if K.is_planar != ambient.is_planar:
        raise DomainError("cannot mix planar and table-backed point sets")
    if k_rows[0] is not amb_rows[0]:
        raise DomainError("K is not drawn from the ambient distance table")
    amb_idx = set(amb_rows[1].tolist())
    for i in k_rows[1].tolist():
        if i not in amb_idx:
            raise DomainError("K contains points outside the ambient set")


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
        assert nb.is_planar
        assert np.array_equal(nb.points, amb.points[near <= eps])
    else:
        assert nb == got[1]


def _metric_table(rng, n):
    pts = rng.uniform(-3, 3, (n, 2))
    return FinitePointSet(matrix=metric_core._pair_distances(pts, pts))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 6),
       st.sampled_from([0.0, 0.7, 2.5]))
def test_table_subsets_match_the_set_loop(seed, n, steps, eps):
    """Subsets of subsets, siblings and two roots: the root table, the
    indices into it, distances, the subset check and the neighborhood."""
    rng = np.random.default_rng(seed)
    roots = [_metric_table(rng, n), _metric_table(rng, n)]
    nodes = [(r, r, np.arange(n)) for r in roots]  # (set, root, indices)
    for _ in range(steps):
        parent, root, idx = nodes[rng.integers(len(nodes))]
        pick = rng.integers(0, len(parent), rng.integers(1, len(parent) + 1))
        nodes.append((parent.subset(pick), root, idx[pick]))
    for s, root, idx in nodes:
        assert s.root() is root
        assert np.array_equal(s._root_indices(), idx)
        assert np.array_equal(s.matrix, root.matrix[np.ix_(idx, idx)])
    for (K, k_root, k_idx), (A, a_root, a_idx) in \
            [(nodes[i], nodes[j]) for i in range(len(nodes))
             for j in range(len(nodes))]:
        got = _outcome(metric_core._require_subset, K, A)
        assert got == _outcome(reference_require_subset, K, A,
                               (k_root, k_idx), (a_root, a_idx))
        if k_root is a_root:
            assert np.array_equal(K.distances_to(A),
                                  k_root.matrix[np.ix_(k_idx, a_idx)])
        kind, nb = _outcome(closed_neighborhood, K, eps, A)
        assert kind == got[0]
        if kind == "ok":
            keep = a_idx[a_root.matrix[np.ix_(a_idx, k_idx)].min(axis=1)
                         <= eps]
            assert nb.root() is a_root
            assert np.array_equal(nb._root_indices(), keep)
            assert np.array_equal(nb.matrix, a_root.matrix[np.ix_(keep, keep)])
        else:
            assert nb == got[1]


def test_subset_of_a_subset_slices_the_root_table():
    rng = np.random.default_rng(3)
    root = _metric_table(rng, 8)
    a = root.subset([7, 1, 4, 4, 0])
    b = a.subset([3, 0, 4])          # root points 4, 7, 0
    c = root.subset([2, 4])
    assert np.array_equal(b._root_indices(), [4, 7, 0])
    assert np.array_equal(b.distances_to(c),
                          root.matrix[np.ix_([4, 7, 0], [2, 4])])
    assert np.array_equal(c.distances_to(a),
                          root.matrix[np.ix_([2, 4], [7, 1, 4, 4, 0])])


def test_planar_subset_is_an_ordinary_planar_set():
    amb = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    sub = amb.subset([2, 0]).subset([1])
    assert sub.root() is sub
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
    table = FinitePointSet(matrix=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="mix planar"):
        closed_neighborhood(table, 1.0, amb)
    with pytest.raises(DomainError, match="outside the ambient set"):
        closed_neighborhood(table.subset([0]), 1.0, table.subset([1]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("block", [1, 7, 1 << 17])
def test_planar_neighborhood_from_row_blocks_equals_the_dense_one(
        seed, block, monkeypatch):
    # the minima come BLOCK_PAIRS pairs at a time, and per point they are
    # the dense matrix's minima; eps on a grid distance hits exact ties
    monkeypatch.setattr(metric_core, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(seed)
    amb = FinitePointSet(points=rng.integers(-20, 20, (300, 2)) / 8)
    K = amb.subset(rng.choice(300, 25, replace=False))
    near = metric_core._pair_distances(amb.points, K.points).min(axis=1)
    for eps in (0.0, 0.625, float(np.sort(near)[150])):
        nb = closed_neighborhood(K, eps, amb)
        assert np.array_equal(nb.points, amb.points[near <= eps])
