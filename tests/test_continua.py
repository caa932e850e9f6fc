import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab.continua import (GraphContinuum, Triod, build_continuum,
                                    circle_arc_to_disk, detect_triod,
                                    disk_to_circle_arc,
                                    enumerate_subcontinua,
                                    interval_arc_to_triangle, is_terminal,
                                    order_arcs_between,
                                    triangle_to_interval_arc)
from continuum_lab.errors import DomainError


def reference_triod(g, family):
    """The triod search as the plain triple loop over the family."""
    fam = list(family)
    n = len(fam)
    for i in range(n):
        for j in range(i + 1, n):
            core = fam[i] & fam[j]
            if not core or core == fam[i] or core == fam[j]:
                continue
            if not g.is_connected(frozenset(core)):
                continue
            for l in range(j + 1, n):
                c = fam[l]
                if core < c and (fam[i] & c) == core and (fam[j] & c) == core:
                    return Triod(a=fam[i], b=fam[j], c=c, core=frozenset(core))
    return None


@st.composite
def connected_graphs(draw):
    """A random tree on up to 8 vertices plus some extra edges."""
    n = draw(st.integers(min_value=1, max_value=8))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v)
             for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    return GraphContinuum(n=n, edges=tuple(sorted(edges)),
                          pos=tuple((float(v), 0.0) for v in range(n)))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_triod_search_matches_the_triple_loop(g, rnd):
    fam = enumerate_subcontinua(g)
    assert detect_triod(g, fam) == reference_triod(g, fam)
    rnd.shuffle(fam)
    assert detect_triod(g, fam) == reference_triod(g, fam)


def test_triod_search_skips_disconnected_cores():
    # a theta graph: three arcs from 0 to 1 pairwise meet in {0, 1}
    g = GraphContinuum(n=5, edges=((0, 2), (2, 1), (0, 3), (3, 1), (0, 4),
                                   (4, 1)),
                       pos=tuple((float(v), 0.0) for v in range(5)))
    arcs = [frozenset({0, 1, v}) for v in (2, 3, 4)]
    assert detect_triod(g, arcs) is None
    legs = [frozenset({0, v}) for v in (2, 3, 4)]
    w = detect_triod(g, arcs + legs)
    assert w == reference_triod(g, arcs + legs)
    assert w.core == frozenset({0})


@pytest.mark.parametrize("kind, params", [
    *[("path", {"n": n}) for n in range(1, 17)],
    *[("cycle", {"n": n}) for n in range(3, 17)],
    *[("star", {"legs": legs, "leg_length": k})
      for legs in (3, 4, 5) for k in (1, 2)],
    ("cantor_fan", {"depth": 1}), ("cantor_fan", {"depth": 2})])
def test_triod_search_matches_the_triple_loop_on_models(kind, params):
    g = build_continuum(kind, **params)
    fam = enumerate_subcontinua(g)
    got = detect_triod(g, fam)
    assert got == reference_triod(g, fam)
    # these models are arcs, circles or fans of arcs: a triod needs a branch
    branch = max(len(nb) for nb in g.adjacency.values()) >= 3
    assert (got is not None) == branch


def test_subcontinua_counts_match_brute_force():
    # counts verified against independent subset enumeration
    assert len(enumerate_subcontinua(build_continuum("path", n=5))) == 15
    assert len(enumerate_subcontinua(build_continuum("cycle", n=4))) == 13
    assert len(enumerate_subcontinua(build_continuum("path", n=10))) == 55
    assert len(enumerate_subcontinua(build_continuum("cycle", n=6))) == 31


def test_path_subcontinua_are_intervals():
    g = build_continuum("path", n=6)
    for s in enumerate_subcontinua(g):
        lo, hi = min(s), max(s)
        assert s == frozenset(range(lo, hi + 1))


def test_order_arcs_have_unit_steps():
    g = build_continuum("path", n=5)
    arcs = order_arcs_between(g, frozenset([2]), frozenset(range(5)))
    assert arcs
    for arc in arcs:
        assert arc[0] == frozenset([2])
        assert arc[-1] == frozenset(range(5))
        for a, b in zip(arc, arc[1:]):
            assert a < b and len(b - a) == 1
    # from the middle of a 5-path: interleave 2 left and 2 right extensions
    assert len(arcs) == math.comb(4, 2)


def test_order_arcs_validate_endpoints():
    g = build_continuum("path", n=4)
    with pytest.raises(DomainError):
        order_arcs_between(g, frozenset([0, 2]), frozenset(range(4)))
    with pytest.raises(DomainError):
        order_arcs_between(g, frozenset([3]), frozenset([0, 1]))
    for ids in ([99], [-1]):
        with pytest.raises(DomainError, match="endpoints must be"):
            order_arcs_between(g, frozenset(ids), frozenset(ids))


def test_no_triod_in_path_or_cycle():
    assert detect_triod(build_continuum("path", n=6)) is None
    assert detect_triod(build_continuum("cycle", n=6)) is None


def test_star_reads_leg_length_and_rejects_unknown_parameters():
    g = build_continuum("star", legs=3, leg_length=5)
    assert g.n == 16 and g.kind == "star-3x5"
    assert build_continuum("star").n == 4
    with pytest.raises(DomainError):
        build_continuum("star", leg_len=5)
    with pytest.raises(DomainError):
        build_continuum("path", n=4, legs=3)
    with pytest.raises(DomainError):
        build_continuum("disk", n=4)


def test_adjacency_is_built_once_and_read_by_connectivity():
    g = build_continuum("star", legs=3, leg_length=2)
    assert g.adjacency is g.adjacency
    assert g.adjacency[0] == frozenset({1, 3, 5})
    assert g == build_continuum("star", legs=3, leg_length=2)
    assert g.is_connected(frozenset({0, 1, 2}))
    assert not g.is_connected(frozenset({1, 3}))
    assert g.neighbors_of_set(frozenset({0, 1})) == frozenset({2, 3, 5})
    # an id that is no vertex has no neighbors
    assert g.is_connected(frozenset({99}))
    assert not g.is_connected(frozenset({5, 99}))
    assert not g.is_connected(frozenset())


def test_star_contains_triod_witness():
    g = build_continuum("star", legs=3, leg_length=2)
    w = detect_triod(g)
    assert w is not None
    assert w.core == w.a & w.b == w.a & w.c == w.b & w.c
    for big in (w.a, w.b, w.c):
        assert w.core < big


def test_terminal_in_arc_family():
    g = build_continuum("path", n=5)
    subs = enumerate_subcontinua(g)
    # singletons and the whole space are terminal; nondegenerate proper
    # intervals overlap a shifted interval non-comparably
    assert is_terminal(frozenset([0]), subs)
    assert is_terminal(frozenset(range(5)), subs)
    assert not is_terminal(frozenset([0, 1]), subs)
    assert not is_terminal(frozenset([1, 2]), subs)


# -- classic homeomorphisms -------------------------------------------------


def test_interval_map_special_values_exact():
    assert interval_arc_to_triangle(0.3, 0.3) == (0.3, 0.0)
    assert interval_arc_to_triangle(0.0, 1.0) == (0.5, 1.0)


def test_interval_map_rejects_bad_input():
    with pytest.raises(DomainError):
        interval_arc_to_triangle(0.5, 0.4)
    with pytest.raises(DomainError):
        triangle_to_interval_arc(0.0, 0.5)  # sticks out on the left


def test_full_circle_hits_center_exactly():
    for alpha in (0.0, 1.0, -2.5, math.pi / 3):
        assert circle_arc_to_disk(alpha, alpha + 2 * math.pi) == (0.0, 0.0)


def test_disk_center_is_full_circle():
    a, b = disk_to_circle_arc(0.0, 0.0)
    assert b - a == pytest.approx(2 * math.pi, abs=1e-15)


def test_circle_point_arcs_on_boundary():
    x, y = circle_arc_to_disk(0.5, 0.5)
    assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-15)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_interval_roundtrip(a, b):
    a, b = min(a, b), max(a, b)
    u, v = interval_arc_to_triangle(a, b)
    a2, b2 = triangle_to_interval_arc(u, v)
    assert abs(a2 - a) < 1e-12 and abs(b2 - b) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
       st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
def test_circle_roundtrip(alpha, width):
    x, y = circle_arc_to_disk(alpha, alpha + width)
    a2, b2 = disk_to_circle_arc(x, y)
    assert abs((b2 - a2) - width) < 1e-9 or width > 2 * math.pi - 1e-9
    if width < 2 * math.pi - 1e-9:
        mid_err = math.remainder((a2 + b2) / 2 - (alpha + width / 2),
                                 2 * math.pi)
        assert abs(mid_err) < 1e-9
