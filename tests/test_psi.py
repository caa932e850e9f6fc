import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from continuum_lab.errors import DomainError, ResourceError
from continuum_lab.psi import (Arc, Piece, PsiPathspace, build_psi_model,
                               closed_form_element_count,
                               component_cyclic_arrangement, curvature_check,
                               distinct_element_count, level_structure_report,
                               normalize_to_psi0, planck_report, raw_values)

TOL = 1e-12


@pytest.fixture(scope="module")
def model():
    return build_psi_model()


@pytest.fixture(scope="module")
def pv(model):
    return normalize_to_psi0(model)


def test_fiber_chain_shape(model):
    assert model.m == 6
    assert model.k == 6
    for pat in model.patterns:
        assert len(pat) == 6


def test_element_census(model):
    pieces = [e for e in model.elements if isinstance(e, Piece)]
    arcs = [e for e in model.elements if isinstance(e, Arc)]
    assert len(pieces) == 120  # 20 proper subintervals per fiber
    assert len(arcs) == 31     # 5 lengths x 6 starts, plus the whole
    assert len(model.elements) == distinct_element_count(model.m, model.k)
    assert len(model.elements) == 151
    # the closed-form census counts full fibers twice (as length-1 arcs
    # and again as fibers); the distinct census removes the overlap
    assert closed_form_element_count(6, 6) == 157
    assert closed_form_element_count(6, 6) - distinct_element_count(6, 6) == 6


def _exact_size(model, e):
    """The defining sum over the float64 term table, evaluated exactly.

    Each term is w_n * (max - min) of row n of F over the element's
    vertices; the Fraction sum has no rounding until the final float().
    """
    cols = model.mu_base.F[:, sorted(model.vertices(e))]
    spans = cols.max(axis=1) - cols.min(axis=1)
    return float(sum(Fraction(float(w)) * Fraction(float(s))
                     for w, s in zip(model.mu_base.weights, spans)))


def test_golden_size_constants(model):
    """Sizes are bit-exact with respect to the float64 term table.

    Each size is the correctly rounded sum of its float64 terms, so it
    equals the exact Fraction evaluation of the defining sum on every
    platform.  It is not promised to be the correctly rounded real value:
    the table carries the rounding of cos, sin, sqrt and the division
    (a 60-digit evaluation gives l = 0.03357443549393837960...).
    """
    assert model.l == 0.03357443549393839
    assert model.L == 0.2284301695440301
    assert model.mu[model.whole] == 0.7068619848690658
    assert 0.0 < model.l <= model.L < model.mu[model.whole]
    fibers = [Arc(start=s, length=1) for s in range(model.m)]
    exact = [_exact_size(model, f) for f in fibers]
    assert model.l == min(exact)
    assert model.L == max(exact)
    assert model.mu[model.whole] == _exact_size(model, model.whole)


def test_containment_order(model):
    piece = Piece(fiber=2, i=2, j=4)
    inner = Piece(fiber=2, i=3, j=4)
    fiber = Arc(start=2, length=1)
    assert model.leq(inner, piece)
    assert model.leq(piece, fiber)
    assert not model.leq(piece, Arc(start=3, length=1))
    assert model.leq(fiber, Arc(start=1, length=3))
    assert all(model.leq(e, model.whole) for e in model.elements)


def test_strict_size_monotonicity(model):
    for a in model.elements:
        for b in model.elements:
            if a != b and model.leq(a, b):
                assert model.mu[a] < model.mu[b]


def test_classification_split(model):
    for e in model.elements:
        expected = "filament" if isinstance(e, Piece) else "ample"
        assert model.classify(e) == expected


def test_planck_boundary_is_the_full_fibers(model):
    rep = planck_report(model)
    assert set(rep.boundary) == {Arc(start=s, length=1) for s in range(6)}
    assert rep.l == model.l and rep.L == model.L


def test_invalid_elements_rejected(model):
    with pytest.raises(DomainError):
        Piece(fiber=0, i=3, j=2)
    with pytest.raises(DomainError):
        Arc(start=0, length=0)
    # the full fiber is represented as an Arc, never as a Piece
    assert Piece(fiber=0, i=1, j=6) not in model.index
    assert Arc(start=0, length=1) in model.index


def test_element_cap(monkeypatch):
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", "50")
    with pytest.raises(ResourceError):
        build_psi_model()
    monkeypatch.delenv("CONTINUUM_LAB_MAX_ELEMENTS")
    # level-4 fibers have about 10^11 links: the cap refuses them from the
    # link-count recurrence, before any pattern is generated
    with pytest.raises(ResourceError):
        build_psi_model(fiber_level=4)


# -- containment-order kernel -----------------------------------------------

SMALL_MODELS = st.tuples(st.integers(3, 8), st.sampled_from([1, 2]))


def _leq_matrix(model):
    """Strict order from the scalar reference ``PsiModel.leq``."""
    return np.array([[a != b and model.leq(a, b) for b in model.elements]
                     for a in model.elements])


def _reference_graph(pv):
    """Comparability graph from a pair loop over ``PsiModel.leq``."""
    model = pv.model
    nodes = model.elements
    rows, cols, data = [], [], []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if model.leq(a, b) or model.leq(b, a):
                w = abs(pv.values[a] - pv.values[b])
                rows += [i, j]
                cols += [j, i]
                data += [w, w]
    return csr_matrix((data, (rows, cols)), shape=(len(nodes), len(nodes)))


@settings(max_examples=12, deadline=None)
@given(SMALL_MODELS)
def test_strict_order_matches_scalar_leq(shape):
    model = build_psi_model(*shape)
    order = model.strict_order
    assert order.dtype == bool
    assert (order.toarray() == _leq_matrix(model)).all()


@settings(max_examples=12, deadline=None)
@given(SMALL_MODELS)
def test_covers_match_transitive_reduction(shape):
    nx = pytest.importorskip("networkx")
    model = build_psi_model(*shape)
    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(model.elements)))
    dag.add_edges_from((int(a), int(b))
                       for a, b in zip(*np.nonzero(_leq_matrix(model))))
    reduction = set(nx.transitive_reduction(dag).edges())
    order = model.strict_order
    covers = order > order @ order
    assert {(int(a), int(b)) for a, b in zip(*covers.nonzero())} == reduction
    els = model.elements
    covering = {els[b] for a, b in reduction
                if isinstance(els[a], Piece) and isinstance(els[b], Arc)}
    assert planck_report(model).boundary == [e for e in els if e in covering]


@settings(max_examples=12, deadline=None)
@given(SMALL_MODELS, st.booleans())
def test_pathspace_csr_matches_pair_loop(shape, normalized):
    model = build_psi_model(*shape)
    pv = normalize_to_psi0(model) if normalized else raw_values(model)
    got = PsiPathspace(pv).graph
    want = _reference_graph(pv)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("m, level", [(6, 2), (12, 2), (24, 2), (6, 3)])
def test_planck_boundary_on_the_ladder(m, level):
    rep = planck_report(build_psi_model(m=m, fiber_level=level))
    assert rep.boundary == [Arc(start=s, length=1) for s in range(m)]


# -- normalization ----------------------------------------------------------


def test_normalized_fibers_all_at_l(pv):
    for s in range(6):
        assert abs(pv.values[Arc(start=s, length=1)] - pv.l) <= TOL


def test_normalization_keeps_strict_monotonicity(pv):
    model = pv.model
    for a in model.elements:
        for b in model.elements:
            if a != b and model.leq(a, b):
                assert pv.values[a] < pv.values[b]


def test_equal_length_arcs_get_equal_value(pv):
    for length in range(2, 6):
        vals = {pv.values[Arc(start=s, length=length)] for s in range(6)}
        assert len(vals) == 1


def test_level_set_at_l_is_the_boundary(pv):
    level = {e for e in pv.model.elements
             if abs(pv.values[e] - pv.l) <= TOL}
    assert level == {Arc(start=s, length=1) for s in range(6)}


def test_raw_values_match_model(model):
    rv = raw_values(model)
    assert rv.values[model.whole] == model.mu[model.whole]
    assert rv.l == model.l


# -- level structure --------------------------------------------------------

def test_sub_planck_level_has_m_components(pv):
    rep = level_structure_report(pv, 0.4 * pv.l)
    assert len(rep.components) == 6
    assert not rep.is_cycle
    fibers = [pv.model.fibers_of(comp[0]) for comp in rep.components]
    assert sorted(f for fs in fibers for f in fs) == list(range(6))
    assert component_cyclic_arrangement(pv, rep)


def test_level_at_l_is_a_cycle_of_fibers(pv):
    rep = level_structure_report(pv, pv.l)
    assert set(rep.elements) == {Arc(start=s, length=1) for s in range(6)}
    assert len(rep.components) == 1
    assert rep.is_cycle
    assert rep.epsilon == 0.21875


def test_level_above_l_is_a_single_cycle(pv):
    t = pv.values[Arc(start=0, length=2)]
    rep = level_structure_report(pv, t)
    assert len(rep.components) == 1
    assert rep.is_cycle
    assert all(isinstance(e, Arc) for e in rep.elements)


@pytest.mark.parametrize("m, level", [(24, 2), (6, 3)])
def test_level_structure_on_the_ladder(m, level):
    pv = normalize_to_psi0(build_psi_model(m=m, fiber_level=level))
    fibers = {Arc(start=s, length=1) for s in range(m)}
    below = level_structure_report(pv, 0.5 * pv.l)
    assert len(below.components) == m and not below.is_cycle
    assert component_cyclic_arrangement(pv, below)
    at = level_structure_report(pv, pv.l)
    assert set(at.elements) == fibers and at.is_cycle
    above = level_structure_report(pv, pv.values[Arc(start=0, length=2)])
    assert len(above.components) == 1 and above.is_cycle


# -- paths and curvature ----------------------------------------------------

def _assert_real_path(pv, path, a, b, dist):
    """Ends a and b, comparable steps, size gaps summing to ``dist``."""
    model = pv.model
    steps = list(zip(path, path[1:]))
    assert path[0] == a and path[-1] == b
    assert all(x != y and (model.leq(x, y) or model.leq(y, x))
               for x, y in steps)
    gaps = [abs(pv.values[y] - pv.values[x]) for x, y in steps]
    assert abs(math.fsum(gaps) - dist) <= TOL


def test_cross_fiber_path_passes_ample_element(pv):
    a = Piece(fiber=0, i=2, j=3)
    b = Piece(fiber=3, i=2, j=3)
    dist, path = pv.space.path_between(a, b)
    assert math.isfinite(dist)
    assert path[0] == a and path[-1] == b
    assert any(isinstance(e, Arc) for e in path)


def test_pieces_of_two_fibers_are_incomparable(pv):
    # so every path between them climbs through an ample element
    model = pv.model
    pieces = [e for e in model.elements if isinstance(e, Piece)]
    space = pv.space
    for a in pieces[::7]:
        for b in pieces:
            if a.fiber != b.fiber:
                assert not (model.leq(a, b) or model.leq(b, a))
                i, j = model.index[a], model.index[b]
                assert space.meet(i, j) == -1
                assert isinstance(model.elements[space.join(i, j)], Arc)


def test_join_and_meet_cases(pv):
    model, space = pv.model, pv.space
    idx = model.index

    def join(a, b):
        return model.elements[space.join(idx[a], idx[b])]

    def meet(a, b):
        got = space.meet(idx[a], idx[b])
        return None if got < 0 else model.elements[got]

    # one fiber: the link hull, the fiber itself when it spans [1, k]
    assert join(Piece(1, 2, 3), Piece(1, 4, 5)) == Piece(1, 2, 5)
    assert join(Piece(1, 1, 3), Piece(1, 2, 6)) == Arc(1, 1)
    assert meet(Piece(1, 2, 4), Piece(1, 3, 5)) == Piece(1, 3, 4)
    assert meet(Piece(1, 2, 3), Piece(1, 4, 5)) is None
    # across the base: the shorter way round, which may wrap past 0
    assert join(Piece(5, 1, 1), Arc(1, 2)) == Arc(5, 4)
    assert join(Arc(0, 2), Arc(3, 2)) == Arc(0, 5)
    assert join(Arc(0, 4), Arc(3, 4)) == model.whole
    assert meet(Arc(4, 3), Piece(0, 2, 2)) == Piece(0, 2, 2)
    # two arcs meeting at both ends: equal sizes, so the lower index
    assert meet(Arc(0, 4), Arc(3, 4)) == Arc(0, 1)
    assert meet(model.whole, Piece(2, 1, 2)) == Piece(2, 1, 2)
    # nested pairs bend at an end, which the path drops
    dist, path = space.path_between(Piece(2, 2, 3), Arc(1, 3))
    assert path == [Piece(2, 2, 3), Arc(1, 3)]
    assert space.path_between(Arc(1, 3), Arc(1, 3)) == (0.0, [Arc(1, 3)])


@settings(max_examples=10, deadline=None)
@given(SMALL_MODELS, st.booleans())
def test_closed_form_matches_dijkstra(shape, normalized):
    from scipy.sparse.csgraph import dijkstra
    model = build_psi_model(*shape)
    pv = normalize_to_psi0(model) if normalized else raw_values(model)
    space = PsiPathspace(pv)
    want = dijkstra(space.graph)
    n = len(model.elements)
    got = np.array([[space.distance(i, j) for j in range(n)]
                    for i in range(n)])
    assert np.abs(got - want).max() <= TOL
    for i, a in enumerate(model.elements):
        for j, b in enumerate(model.elements):
            dist, path = space.path_between(a, b)
            assert dist == got[i, j]
            _assert_real_path(pv, path, a, b, dist)


def test_path_distance_lower_bound(pv):
    # a geodesic can never be shorter than the direct value gap
    a = Piece(fiber=0, i=1, j=1)
    b = pv.model.whole
    dist, path = pv.space.path_between(a, b)
    assert dist >= abs(pv.values[b] - pv.values[a]) - TOL


def test_nested_pair_distance_is_value_gap(pv):
    a = Piece(fiber=2, i=2, j=3)
    b = Arc(start=2, length=1)
    dist, path = pv.space.path_between(a, b)
    assert dist == pytest.approx(pv.values[b] - pv.values[a], abs=TOL)
    assert path == [a, b]


def _oracle_degenerate_count(pv, trials, seed, tol):
    """Degenerate triples by networkx Dijkstra on the comparability graph."""
    nx = pytest.importorskip("networkx")
    model = pv.model
    nodes = list(model.elements)
    g = nx.Graph()
    g.add_nodes_from(range(len(nodes)))
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if model.leq(a, b) or model.leq(b, a):
                g.add_edge(i, j, weight=abs(pv.values[a] - pv.values[b]))
    rng = np.random.default_rng(seed)
    triples = [[int(v) for v in rng.choice(len(nodes), size=3, replace=False)]
               for _ in range(trials)]
    dist = {s: nx.single_source_dijkstra_path_length(g, s)
            for s in {v for t in triples for v in t}}
    count = 0
    for t in triples:
        if any(abs(dist[t[x]][t[y]] - dist[t[x]][t[z]] - dist[t[z]][t[y]])
               <= tol for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0))):
            count += 1
    return count


def test_curvature_triples_additive(pv):
    rep = curvature_check(pv, trials=1000, seed=0, tol=TOL)
    assert rep.trials == 1000
    assert rep.degenerate == 220
    assert rep.all_additive
    assert rep.worst_defect <= 1e-15
    # no triple sits near the threshold: the count is the same at 1e-15
    assert curvature_check(pv, trials=1000, seed=0,
                           tol=1e-15).degenerate == 220
    assert _oracle_degenerate_count(pv, 1000, 0, TOL) == 220


@pytest.mark.parametrize("m, level, degenerate",
                         [(6, 2, 220), (12, 2, 123), (24, 2, 120),
                          (6, 3, 174)])
def test_curvature_on_the_ladder(m, level, degenerate):
    pv = normalize_to_psi0(build_psi_model(m=m, fiber_level=level))
    rep = curvature_check(pv, trials=1000, seed=0)
    assert (rep.degenerate, rep.additive) == (degenerate, degenerate)
    assert rep.worst_defect <= 1e-12


def test_curvature_deterministic_per_seed(pv):
    a = curvature_check(pv, trials=200, seed=5)
    b = curvature_check(pv, trials=200, seed=5)
    assert (a.degenerate, a.additive, a.worst_defect) == \
        (b.degenerate, b.additive, b.worst_defect)


# -- terminality granularity ------------------------------------------------

def test_closed_vertices_overlap_between_adjacent_pieces(model):
    a = model.closed_vertices(Piece(fiber=0, i=1, j=2))
    b = model.closed_vertices(Piece(fiber=0, i=4, j=5))
    c = model.closed_vertices(Piece(fiber=0, i=2, j=3))
    # links two apart are disjoint; consecutive links share a point
    assert a & b == frozenset()
    assert a & c and not (a <= c or c <= a)
