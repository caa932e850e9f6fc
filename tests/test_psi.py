import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, vstack

from continuum_lab.continua import build_continuum
from continuum_lab import psi
from continuum_lab.errors import DomainError, ResourceError
from continuum_lab.metric_core import DEFAULT_TOL
from continuum_lab.whitney import build_whitney_map
from continuum_lab.psi import (Arc, LevelReport, Piece, PsiPathspace,
                               build_psi_model,
                               closed_form_element_count,
                               component_cyclic_arrangement, curvature_check,
                               distinct_element_count, filament_covers,
                               level_structure_report, normalize_to_psi0,
                               planck_report, raw_values)

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
    cols = model.mu_base.F[:, sorted(reference_vertices(model, e))]
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
    assert model.sizes[-1] == 0.7068619848690658
    assert 0.0 < model.l <= model.L < model.sizes[-1]
    fibers = [Arc(start=s, length=1) for s in range(model.m)]
    exact = [_exact_size(model, f) for f in fibers]
    assert model.l == min(exact)
    assert model.L == max(exact)
    assert model.sizes[-1] == _exact_size(model, model.whole)


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
                assert (model.sizes[model.index[a]]
                        < model.sizes[model.index[b]])


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


def reference_normalize(model):
    """normalize_to_psi0's values by the per-element loop it once ran."""
    w = build_whitney_map(build_continuum("cycle", n=model.m))
    m = model.m
    arc_size = {length: float(np.mean(w.sizes(
        [frozenset((s + o) % m for o in range(length)) for s in range(m)])))
        for length in range(2, m + 1)}
    values = {}
    for e in model.elements:
        if isinstance(e, Piece):
            fiber = model.index[Arc(start=e.fiber, length=1)]
            scale = model.l / model.sizes[fiber]
            values[e] = float(model.sizes[model.index[e]] * scale)
        elif e.length == 1:
            values[e] = model.l
        else:
            values[e] = model.l + arc_size[e.length]
    return values


def _assert_normalized_like_the_loop(model):
    got, want = normalize_to_psi0(model).values, reference_normalize(model)
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert all(type(v) is float for v in got.values())


@pytest.mark.parametrize("m, level", [(3, 1), (6, 2), (12, 2), (6, 3),
                                      (24, 2)])
def test_normalize_matches_the_per_element_loop(m, level):
    _assert_normalized_like_the_loop(build_psi_model(m=m, fiber_level=level))


@settings(max_examples=12, deadline=None)
@given(st.tuples(st.integers(3, 8), st.sampled_from([1, 2])))
def test_normalize_matches_the_loop_on_small_models(shape):
    _assert_normalized_like_the_loop(build_psi_model(*shape))


# -- containment-order kernel -----------------------------------------------

SMALL_MODELS = st.tuples(st.integers(3, 8), st.sampled_from([1, 2]))


def reference_leq(model, a, b):
    """Containment as sets: a piece lies in one fiber, an arc is the set of
    fibers it covers (:meth:`PsiModel.fibers_of`)."""
    if isinstance(a, Piece):
        if isinstance(b, Piece):
            return a.fiber == b.fiber and b.i <= a.i and a.j <= b.j
        return a.fiber in model.fibers_of(b)
    if isinstance(b, Piece):
        return False
    return model.fibers_of(a) <= model.fibers_of(b)


@pytest.mark.parametrize("m, level", [(3, 1), (6, 2), (3, 3)])
def test_leq_matches_reference_on_every_pair(m, level):
    model = build_psi_model(m=m, fiber_level=level)
    els = model.elements
    assert [[model.leq(a, b) for b in els] for a in els] == \
        [[reference_leq(model, a, b) for b in els] for a in els]


# -- element layout ---------------------------------------------------------


def reference_elements(m, k):
    """The element list by the nested loops that once built it."""
    elements = []
    for a in range(m):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                if (i, j) != (1, k):
                    elements.append(Piece(fiber=a, i=i, j=j))
    for length in range(1, m):
        for s in range(m):
            elements.append(Arc(start=s, length=length))
    elements.append(Arc(start=0, length=m))
    return elements


def _assert_layout_matches_the_loops(model):
    els = model.elements
    assert els == reference_elements(model.m, model.k)
    assert [tuple(row) for row in model.shapes.tolist()] == \
        [model.shape(e) for e in els]
    assert all(model.at[model.shape(e)] == model.index[e] == t
               for t, e in enumerate(els))
    assert len(model.at) == len(model.index) == len(els)
    assert [t for t, e in enumerate(els) if isinstance(e, Piece)] == \
        list(range(model.m * model.q))


@pytest.mark.parametrize("m, level", [(6, 3), (24, 3)])
def test_layout_matches_the_nested_loops(m, level):
    _assert_layout_matches_the_loops(build_psi_model(m=m, fiber_level=level))


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.integers(3, 12), st.sampled_from([1, 2])))
def test_layout_matches_the_nested_loops_on_small_models(mk):
    _assert_layout_matches_the_loops(build_psi_model(m=mk[0],
                                                     fiber_level=mk[1]))


# -- element sets from the shape ---------------------------------------------


def reference_vertices(model, e):
    """One point id per link, a branch per element kind."""
    if isinstance(e, Piece):
        return frozenset(model.vertex_id(e.fiber, t)
                         for t in range(e.i, e.j + 1))
    return frozenset(model.vertex_id((e.start + off) % model.m, t)
                     for off in range(e.length)
                     for t in range(1, model.k + 1))


def reference_closed_vertices(model, e):
    """Doubled-grid points, a branch per element kind."""
    span = 2 * model.k + 1
    if isinstance(e, Piece):
        return frozenset(e.fiber * span + g
                         for g in range(2 * e.i - 1, 2 * e.j + 2))
    return frozenset(f * span + g for f in reference_fibers_of(model, e)
                     for g in range(1, span + 1))


def reference_fibers_of(model, e):
    if isinstance(e, Piece):
        return frozenset([e.fiber])
    return frozenset((e.start + off) % model.m for off in range(e.length))


def _assert_element_sets_match(model):
    for e in model.elements:
        assert model.closed_vertices(e) == \
            reference_closed_vertices(model, e), e
        assert model.fibers_of(e) == reference_fibers_of(model, e), e


@pytest.mark.parametrize("m, level", [(3, 1), (6, 2), (6, 3), (12, 2)])
def test_element_sets_match_the_per_kind_reference(m, level):
    _assert_element_sets_match(build_psi_model(m=m, fiber_level=level))


@settings(max_examples=12, deadline=None)
@given(SMALL_MODELS)
def test_element_sets_match_the_per_kind_reference_on_small_models(mk):
    _assert_element_sets_match(build_psi_model(m=mk[0], fiber_level=mk[1]))


def _leq_matrix(model):
    """Strict order from the scalar set reference ``reference_leq``."""
    return np.array([[a != b and reference_leq(model, a, b)
                      for b in model.elements] for a in model.elements])


def _reference_graph(pv):
    """Comparability graph from a pair loop over ``reference_leq``."""
    model = pv.model
    nodes = model.elements
    rows, cols, data = [], [], []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if reference_leq(model, a, b) or reference_leq(model, b, a):
                w = abs(pv.values[a] - pv.values[b])
                rows += [i, j]
                cols += [j, i]
                data += [w, w]
    return csr_matrix((data, (rows, cols)), shape=(len(nodes), len(nodes)))


ORDER_BLOCK_ROWS = 128


def reference_order(model):
    """The strict order as a scipy CSR matrix from shape comparisons,
    ``ORDER_BLOCK_ROWS`` rows at a time (the construction index runs
    replaced)."""
    n, m = len(model.elements), model.m
    start, length, lo, hi = np.array(model.shapes, dtype=np.int32).T.copy()
    blocks = []
    for r0 in range(0, n, ORDER_BLOCK_ROWS):
        r = np.arange(r0, min(r0 + ORDER_BLOCK_ROWS, n))
        offset = (start[r, None] - start) % m
        below = (((length == m) | (offset + length[r, None] <= length))
                 & (lo <= lo[r, None]) & (hi[r, None] <= hi))
        below[np.arange(len(r)), r] = False
        blocks.append(csr_matrix(below))
    return vstack(blocks, format="csr")


def order_csr(model):
    """:attr:`PsiModel.strict_order` as a bool scipy CSR matrix."""
    order = model.strict_order
    n = len(order.indptr) - 1
    return csr_matrix((np.ones(len(order.indices), dtype=bool),
                       order.indices, order.indptr), shape=(n, n))


def graph_csr(graph, n):
    """:class:`Edges` as a scipy CSR matrix with sorted indices."""
    out = csr_matrix((graph.weights, (graph.rows, graph.cols)), shape=(n, n))
    assert out.nnz == graph.nnz  # no pair listed twice
    out.sort_indices()
    return out


def csr_graph(pv, order):
    """Comparability graph of a CSR order, weighted by size gaps."""
    comparable = order + order.T
    comparable.sort_indices()
    v = np.array([pv.values[e] for e in pv.model.elements])
    rows = np.repeat(np.arange(len(v)), np.diff(comparable.indptr))
    return csr_matrix((np.abs(v[rows] - v[comparable.indices]),
                       comparable.indices, comparable.indptr),
                      shape=comparable.shape)


def _assert_order_matches_reference(model):
    want = reference_order(model)
    got = model.strict_order
    # pair for pair, each row ascending
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert all(np.array_equal(a, b)
               for a, b in zip(got.pairs(), want.nonzero()))
    filament, ample, covers = filament_covers(model)
    is_piece = np.array([isinstance(e, Piece) for e in model.elements])
    assert np.array_equal(filament, np.flatnonzero(is_piece))
    assert np.array_equal(ample, np.flatnonzero(~is_piece))
    below = want[filament]
    assert np.array_equal(
        covers, (below[:, ample] > (below @ want)[:, ample]).toarray())
    for pv in (raw_values(model), normalize_to_psi0(model)):
        graph = graph_csr(pv.space.graph, len(is_piece))
        ref = csr_graph(pv, want)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(graph, name), getattr(ref, name))


@settings(max_examples=15, deadline=None)
@given(st.tuples(st.integers(3, 8), st.sampled_from([1, 2, 3])))
def test_order_covers_and_graph_match_the_block_reference(shape):
    _assert_order_matches_reference(build_psi_model(*shape))


# (30, 1): level 1, where the pieces are only 270 of the order's 1,141 rows
@pytest.mark.parametrize("shape", [(24, 2), (30, 1)], ids=["24_2", "30_1"])
def test_order_covers_and_graph_match_the_block_reference_at(shape):
    _assert_order_matches_reference(build_psi_model(*shape))


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize("m, level", [(5, 2), (3, 3)])
def test_covers_and_sizes_do_not_depend_on_the_block(m, level, block,
                                                     monkeypatch):
    whole = build_psi_model(m, level)
    _, _, want = filament_covers(whole)
    monkeypatch.setattr(psi, "SIZE_BLOCK_FLOATS", block)
    model = build_psi_model(m, level)
    assert model.sizes.tolist() == whole.sizes.tolist()
    filament, ample, covers = filament_covers(model)
    assert covers.dtype == bool and np.array_equal(covers, want)
    order = reference_order(model)[filament]
    assert np.array_equal(
        covers, (order[:, ample] > (order @ reference_order(model))[:, ample])
        .toarray())


@settings(max_examples=12, deadline=None)
@given(SMALL_MODELS)
def test_strict_order_matches_scalar_leq(shape):
    model = build_psi_model(*shape)
    order = order_csr(model)
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
    order = order_csr(model)
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
    got = graph_csr(PsiPathspace(pv).graph, len(model.elements))
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
    assert rv.values[model.whole] == model.sizes[model.index[model.whole]]
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


# The level section as it stood before the one-table rewrite: four pair loops
# over pv.distance, kept as the reference for the differential tests.


def reference_level_report(pv, t, tol=None):
    model = pv.model
    if t <= 0:
        raise DomainError("level parameter must be positive")
    if t < pv.l - DEFAULT_TOL:
        pieces = [e for e in model.elements if isinstance(e, Piece)]
        errs = {e: abs(pv.values[e] - t) for e in pieces}
        if tol is None:
            tol = max(min(errs[e] for e in pieces if e.fiber == a)
                      for a in range(model.m))
        shells = [e for e in pieces if errs[e] <= tol + DEFAULT_TOL]
        eps = 0.0
        for a in range(model.m):
            sub = [e for e in shells if e.fiber == a]
            if len(sub) > 1:
                eps = max(eps, _reference_mst_max_edge(pv, sub))
    else:
        arcs = [e for e in model.elements if isinstance(e, Arc)]
        errs = {e: abs(pv.values[e] - t) for e in arcs}
        if tol is None:
            tol = max(min(errs[e] for e in arcs
                          if e.length == model.m or e.start == s)
                      for s in range(model.m))
        shells = [e for e in arcs if errs[e] <= tol + DEFAULT_TOL]
        eps = 0.0
        if len(shells) >= 3:
            for e in shells:
                ds = sorted(pv.distance(e, f) for f in shells if f != e)
                eps = max(eps, ds[1])
    return _reference_nerve_report(pv, t, tol, eps, shells)


def _reference_mst_max_edge(pv, nodes):
    n = len(nodes)
    d = np.array([[pv.distance(a, b) for b in nodes] for a in nodes])
    in_tree = [0]
    best = d[0].copy()
    worst = 0.0
    while len(in_tree) < n:
        best[in_tree] = np.inf
        nxt = int(np.argmin(best))
        worst = max(worst, float(best[nxt]))
        in_tree.append(nxt)
        best = np.minimum(best, d[nxt])
    return worst


def _reference_nerve_report(pv, t, tol, eps, shells):
    n = len(shells)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    degree = [0] * n
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pv.distance(shells[i], shells[j]) <= eps + DEFAULT_TOL:
                degree[i] += 1
                degree[j] += 1
                edge_count += 1
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i, e in enumerate(shells):
        groups.setdefault(find(i), []).append(e)
    components = sorted(groups.values(),
                        key=lambda g: min(pv.model.index[e] for e in g))
    is_cycle = (len(components) == 1 and n >= 3 and
                all(deg == 2 for deg in degree) and edge_count == n)
    comp_fibers = [frozenset().union(*(pv.model.fibers_of(e) for e in g))
                   for g in components]
    return LevelReport(t=t, tol=tol, epsilon=eps, elements=shells,
                       components=components, is_cycle=is_cycle,
                       component_fibers=comp_fibers)


def reference_cyclic_arrangement(pv, report):
    m = pv.model.m
    comps = report.components
    if len(comps) != m:
        return False
    fiber_of = {}
    for idx, fibers in enumerate(report.component_fibers):
        if len(fibers) != 1:
            return False
        fiber_of[idx] = next(iter(fibers))
    for i in range(m):
        dists = []
        for j in range(m):
            if i == j:
                continue
            d = min(pv.distance(a, b) for a in comps[i] for b in comps[j])
            dists.append((d, fiber_of[j]))
        dists.sort()
        near = {f for _, f in dists[:2]}
        want = {(fiber_of[i] + 1) % m, (fiber_of[i] - 1) % m}
        if near != want:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _values(m, level, normalized=True):
    model = build_psi_model(m=m, fiber_level=level)
    return normalize_to_psi0(model) if normalized else raw_values(model)


@st.composite
def level_queries(draw):
    """(pv, t, tol): raw or normalized sizes, t in (0, 1.2 l] or an arc
    size, tol automatic or drawn."""
    pv = _values(draw(st.integers(3, 8)), draw(st.sampled_from([1, 2])),
                 draw(st.booleans()))
    arc_sizes = sorted({pv.values[e] for e in pv.model.elements
                        if isinstance(e, Arc)})
    t = draw(st.one_of(
        st.floats(0.0, 1.2 * pv.l, exclude_min=True),
        st.sampled_from(arc_sizes)))
    tol = draw(st.one_of(st.none(), st.floats(0.0, 0.02)))
    return pv, t, tol


@settings(max_examples=120, deadline=None)
@given(level_queries())
def test_level_report_matches_reference(query):
    pv, t, tol = query
    got = level_structure_report(pv, t, tol=tol)
    want = reference_level_report(pv, t, tol=tol)
    for name in ("t", "tol", "epsilon", "elements", "components",
                 "is_cycle", "component_fibers"):
        assert getattr(got, name) == getattr(want, name), name
    assert component_cyclic_arrangement(pv, got) == \
        reference_cyclic_arrangement(pv, want)


@pytest.mark.parametrize("m, level, normalized",
                         [(3, 1, True), (6, 2, True), (12, 2, True),
                          (6, 3, True), (6, 2, False), (8, 1, False)])
def test_level_report_matches_reference_on_fixed_levels(m, level,
                                                        normalized):
    pv = _values(m, level, normalized)
    ts = [f * pv.l for f in (0.05, 0.3, 0.5, 0.75, 0.999)]
    ts += sorted({pv.values[e] for e in pv.model.elements
                  if isinstance(e, Arc)})
    for t in ts:
        for tol in (None, 0.001):
            got = level_structure_report(pv, t, tol=tol)
            want = reference_level_report(pv, t, tol=tol)
            assert got == want, (t, tol)
            assert component_cyclic_arrangement(pv, got) == \
                reference_cyclic_arrangement(pv, want), (t, tol)


@pytest.mark.parametrize("frac", [0.4, 1.0, 1.5])
def test_level_report_evaluates_each_shell_pair_once(frac, monkeypatch):
    # in the default row blocks, in one-row blocks and in blocks of <= 40 pairs
    pv = normalize_to_psi0(build_psi_model())
    want = level_structure_report(pv, frac * pv.l)
    n = len(want.elements)
    assert n >= 6
    joins = PsiPathspace.joins

    def counted(self, a, b):
        assert len(a) <= max(psi.SIZE_BLOCK_FLOATS, n - 1)
        calls.extend(map(frozenset, zip(a.tolist(), b.tolist())))
        return joins(self, a, b)

    monkeypatch.setattr(PsiPathspace, "joins", counted)
    for block in (psi.SIZE_BLOCK_FLOATS, 1, 40):
        monkeypatch.setattr(psi, "SIZE_BLOCK_FLOATS", block)
        calls = []
        rep = level_structure_report(pv, frac * pv.l)
        assert rep == want and (rep.distances == want.distances).all()
        assert len(calls) == len(set(calls)) == n * (n - 1) // 2
        assert all(len(pair) == 2 for pair in calls)
        component_cyclic_arrangement(pv, rep)
        assert len(calls) == n * (n - 1) // 2


def _assert_batch_matches_scalar(space, a, b):
    """joins, meets, geodesics and join_distances equal the one-pair
    kernel on each pair (a[t], b[t])."""
    pairs = list(zip(a.tolist(), b.tolist()))
    assert space.joins(a, b).tolist() == [space.join(x, y) for x, y in pairs]
    assert space.meets(a, b).tolist() == [space.meet(x, y) for x, y in pairs]
    lengths, bends = space.geodesics(a, b)
    assert list(zip(lengths.tolist(), bends.tolist())) == \
        [space._geodesic(x, y) for x, y in pairs]
    assert space.join_distances(a, b).tolist() == \
        [space.join_distance(x, y) for x, y in pairs]


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 8), st.sampled_from([1, 2, 3]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_batch_kernel_matches_the_scalar_kernel(m, level, normalized, seed):
    # every pair at levels 1 and 2; at level 3 (over 1,300 elements) every
    # pair among the arcs, the whole and 120 drawn pieces
    pv = _values(m, level, normalized)
    ids = np.arange(len(pv.v))
    if level == 3:
        pieces = pv.model.m * pv.model.q
        ids = np.r_[np.random.default_rng(seed).choice(pieces, 120, False),
                    ids[pieces:]]
    a, b = (x.ravel() for x in np.meshgrid(ids, ids))
    _assert_batch_matches_scalar(pv.space, a, b)


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("m, level", [(24, 2), (6, 3)])
def test_batch_kernel_matches_the_scalar_kernel_on_random_pairs(m, level,
                                                                normalized):
    pv = _values(m, level, normalized)
    a, b = np.random.default_rng(0).integers(0, len(pv.v), (2, 20_000))
    _assert_batch_matches_scalar(pv.space, a, b)


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
    want = dijkstra(graph_csr(space.graph, len(model.elements)))
    n = len(model.elements)
    got = space.geodesics(*np.divmod(np.arange(n * n), n))[0].reshape(n, n)
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


@pytest.mark.parametrize("trials", [0, -5])
def test_curvature_refuses_fewer_than_one_trial(pv, trials):
    with pytest.raises(DomainError, match="trials must be >= 1"):
        curvature_check(pv, trials=trials)


# (1+3)-point comparison: curvature >= 0 asks, for every p, x1, x2, x3, that
# the three comparison angles at p sum to at most 2 pi (Alexander, Kapovitch
# and Petrunin, arXiv:1903.08539).  Flat comparison triangles put arccos at
# +-1, where rounding alone gives up to about 3e-7; real excesses here start
# near 6e-5.
ANGLE_TOL = 1e-5


def one_plus_three_excess(dp, dx):
    """Angle sum at p minus 2 pi of each quadruple (p, x1, x2, x3), from
    ``dp[:, i] = |p x_i|`` and ``dx[:, i] = |x_i x_(i+1)|`` (i mod 3): the
    comparison angle at p between x_i and x_j is that of the Euclidean
    triangle with sides |p x_i|, |p x_j| and |x_i x_j|."""
    a, b = dp, np.roll(dp, -1, axis=1)
    cos = (a * a + b * b - dx * dx) / (2 * a * b)
    return np.arccos(np.clip(cos, -1.0, 1.0)).sum(axis=1) - 2 * math.pi


def _psi_quadruple_excess(pv, count, seed):
    """The excess of ``count`` seeded quadruples of distinct elements,
    their six distances from one ``geodesics`` call."""
    rng = np.random.default_rng(seed)
    p, x1, x2, x3 = np.array([rng.choice(len(pv.v), 4, replace=False)
                              for _ in range(count)]).T
    d, _ = pv.space.geodesics(np.r_[p, p, p, x1, x2, x3],
                              np.r_[x1, x2, x3, x2, x3, x1])
    d = d.reshape(6, count).T
    return one_plus_three_excess(d[:, :3], d[:, 3:])


def test_one_plus_three_oracle_passes_euclidean_samples():
    rng = np.random.default_rng(0)
    planar = rng.normal(size=(10_000, 4, 2))
    collinear = (rng.normal(size=(10_000, 1, 3))
                 + rng.normal(size=(10_000, 4, 1))
                 * rng.normal(size=(10_000, 1, 3)))
    for pts in (planar, collinear):
        dp = np.linalg.norm(pts[:, 1:] - pts[:, :1], axis=-1)
        dx = np.linalg.norm(pts[:, 1:] - np.roll(pts[:, 1:], -1, axis=1),
                            axis=-1)
        excess = one_plus_three_excess(dp, dx)
        assert excess.max() <= ANGLE_TOL
        assert excess.max() > -ANGLE_TOL  # the sum reaches 2 pi


def test_one_plus_three_oracle_rejects_a_tripod():
    # p the centre of a star, x_i on leg i: every comparison angle is pi
    dp = np.random.default_rng(0).uniform(0.1, 1.0, (1000, 3))
    excess = one_plus_three_excess(dp, dp + np.roll(dp, -1, axis=1))
    assert (excess > ANGLE_TOL).all()
    assert excess == pytest.approx(math.pi, abs=ANGLE_TOL)


def test_one_plus_three_excess_of_the_psi_metric():
    # the path metric branches, so many quadruples fail (1+3)-point
    # comparison, the worst by a full pi
    excess = _psi_quadruple_excess(_values(6, 2), 20_000, seed=0)
    assert int((excess > ANGLE_TOL).sum()) == 1656
    assert excess.max() == pytest.approx(math.pi, abs=ANGLE_TOL)


# -- terminality granularity ------------------------------------------------

def test_closed_vertices_overlap_between_adjacent_pieces(model):
    a = model.closed_vertices(Piece(fiber=0, i=1, j=2))
    b = model.closed_vertices(Piece(fiber=0, i=4, j=5))
    c = model.closed_vertices(Piece(fiber=0, i=2, j=3))
    # links two apart are disjoint; consecutive links share a point
    assert a & b == frozenset()
    assert a & c and not (a <= c or c <= a)
