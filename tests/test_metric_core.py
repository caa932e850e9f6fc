import json
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


def test_json_roundtrip():
    k = FinitePointSet(points=[(0.0, 0.5), (1.25, -3.0)])
    k2 = FinitePointSet.from_json(k.to_json())
    assert np.array_equal(k.points, k2.points)
    data = json.loads(k.to_json())
    assert "points" in data


def test_closed_neighborhood_includes_boundary():
    amb = FinitePointSet(points=[(float(i), 0.0) for i in range(5)])
    k = amb.subset([0])
    nb = closed_neighborhood(k, 2.0, amb)
    assert len(nb) == 3  # 0, 1, and the boundary point at distance exactly 2


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "grid", "duplicates", "identical", "one"]),
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
