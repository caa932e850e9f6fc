import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab.continua import build_continuum, enumerate_subcontinua
from continuum_lab.errors import DomainError
from continuum_lab.metric_core import DEFAULT_TOL
from continuum_lab.suite import _convex_size, _noise_size
from continuum_lab.whitney import (build_whitney_map, check_whitney_axioms,
                                   continuity_modulus_table,
                                   equal_level_refinement,
                                   hyperspace_distance_matrices,
                                   whitney_distance, whitney_level)


def reference_axioms(mu, family, tol):
    """The Whitney axiom checks as plain nested loops over the family."""
    fam = [frozenset(s) for s in family]
    single, mono, subadd, diff = [], [], [], []
    for s in fam:
        if len(s) == 1 and abs(mu(s)) > tol:
            single.append(s)
    for a in fam:
        for b in fam:
            if a < b and mu(b) - mu(a) <= tol:
                mono.append((a, b))
    for i, a in enumerate(fam):
        for b in fam[i:]:
            inter = a & b
            if inter and mu(a | b) > mu(a) + mu(b) - mu(inter) + tol:
                subadd.append((a, b))
    for a in fam:
        for b in fam:
            if a <= b:
                base = mu(b) - mu(a)
                for c in fam:
                    if mu(b | c) - mu(a | c) > base + tol:
                        diff.append((a, b, c))
    return single, mono, subadd, diff


def reference_distances(g, mu, family):
    """(d_H, d_mu) one pair at a time from the members' coordinates."""
    fam = [frozenset(s) for s in family]
    coords = [g.point_coordinates(sorted(s)) for s in fam]
    k = len(fam)
    dh = np.zeros((k, k))
    dm = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            diff = coords[i][:, None, :] - coords[j][None, :, :]
            d = np.sqrt((diff ** 2).sum(axis=2))
            dh[i, j] = dh[j, i] = max(d.min(axis=1).max(),
                                      d.min(axis=0).max())
            dm[i, j] = dm[j, i] = whitney_distance(mu, fam[i], fam[j])
    return dh, dm


@pytest.fixture(scope="module")
def path10():
    g = build_continuum("path", n=10)
    return g, enumerate_subcontinua(g), build_whitney_map(g)


def test_golden_whole_value_path5():
    g = build_continuum("path", n=5)
    mu = build_whitney_map(g)
    assert mu(frozenset(range(5))) == 0.7427083333333334


def test_axioms_hold_exhaustively(path10):
    g, subs, mu = path10
    rep = check_whitney_axioms(mu, subs, tol=DEFAULT_TOL)
    assert rep.all_ok


def test_singletons_are_zero(path10):
    g, subs, mu = path10
    for v in range(g.n):
        assert mu(frozenset([v])) == 0.0


def test_strict_monotonicity(path10):
    g, subs, mu = path10
    for a in subs:
        for b in subs:
            if a < b:
                assert mu(a) < mu(b)


def test_values_in_unit_range(path10):
    g, subs, mu = path10
    whole = frozenset(range(g.n))
    assert 0.0 < mu(whole) < 1.0
    for s in subs:
        assert 0.0 <= mu(s) <= mu(whole)


def test_seeded_maps_differ_but_stay_whitney():
    g = build_continuum("path", n=6)
    subs = enumerate_subcontinua(g)
    mu0 = build_whitney_map(g, ordering_seed=0)
    mu3 = build_whitney_map(g, ordering_seed=3)
    assert any(mu0(s) != mu3(s) for s in subs)
    assert check_whitney_axioms(mu3, subs).all_ok


def test_distance_nested_pair_is_size_difference(path10):
    g, subs, mu = path10
    a, b = frozenset([3]), frozenset([2, 3, 4])
    assert whitney_distance(mu, a, b) == mu(b) - mu(a)


def test_distance_to_inner_point_is_size(path10):
    g, subs, mu = path10
    for a in subs[:20]:
        for x in a:
            assert abs(whitney_distance(mu, a, frozenset([x])) - mu(a)) \
                <= DEFAULT_TOL


def test_cx_mode_rejects_disconnected_union():
    g = build_continuum("path", n=6)
    mu = build_whitney_map(g)
    with pytest.raises(DomainError):
        whitney_distance(mu, frozenset([0]), frozenset([5]), mode="CX",
                         connected_check=g.is_connected)
    # ... but the same pair is fine in the ambient-union mode
    assert whitney_distance(mu, frozenset([0]), frozenset([5])) > 0


def test_whitney_level_membership():
    g = build_continuum("path", n=8)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    t = mu(frozenset([2, 3]))
    members = whitney_level(mu, subs, t)
    assert frozenset([2, 3]) in members
    assert frozenset(range(8)) not in members


def test_equal_level_refinement_covers_each_member():
    g = build_continuum("path", n=8)
    mu = build_whitney_map(g)
    halves = [frozenset(range(4)), frozenset(range(4, 8))]
    t0 = min(mu(h) for h in halves) / 2
    out = equal_level_refinement(g, mu, halves, t0)
    for piece in out:
        covered = set()
        for s in piece.pieces:
            assert s <= piece.member
            assert abs(mu(s) - t0) <= piece.tol + DEFAULT_TOL
            covered |= s
        assert covered == set(piece.member)


def test_equal_level_refinement_validates_input():
    g = build_continuum("path", n=6)
    mu = build_whitney_map(g)
    with pytest.raises(DomainError):
        equal_level_refinement(g, mu, [frozenset(range(5))], 0.1)
    with pytest.raises(DomainError):
        equal_level_refinement(g, mu, [frozenset(range(6))], 2.0)


def test_metrics_uniformly_comparable():
    g = build_continuum("path", n=8)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    dh, dm = hyperspace_distance_matrices(g, mu, subs)
    for eps in (0.05, 0.1, 0.5):
        (_, delta1), = continuity_modulus_table(dh, dm, [eps])
        (_, delta2), = continuity_modulus_table(dm, dh, [eps])
        assert delta1 > 0 and delta2 > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0,
                                                          max_value=100))
def test_axioms_hold_for_any_seed_and_size(n, seed):
    g = build_continuum("path", n=n)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g, ordering_seed=seed)
    assert check_whitney_axioms(mu, subs, tol=DEFAULT_TOL).all_ok


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=8))
def test_cycle_maps_are_whitney(n):
    g = build_continuum("cycle", n=n)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    assert check_whitney_axioms(mu, subs, tol=DEFAULT_TOL).all_ok


@st.composite
def sized_families(draw):
    """A path or cycle, its subcontinua, and a size function on them.

    The size function is a Whitney map (any ordering seed), one with a
    single perturbed value, or one of the suite's two adversarial maps.
    """
    model = draw(st.sampled_from(["path", "cycle"]))
    n = draw(st.integers(min_value=2 if model == "path" else 3,
                         max_value=10))
    g = build_continuum(model, n=n)
    subs = enumerate_subcontinua(g)
    kind = draw(st.sampled_from(["whitney", "perturbed", "convex", "noise"]))
    if kind == "convex":
        return g, subs, _convex_size
    if kind == "noise":
        return g, subs, _noise_size
    mu = build_whitney_map(g, ordering_seed=draw(
        st.none() | st.integers(min_value=0, max_value=10**6)))
    if kind == "perturbed":
        target = subs[draw(st.integers(min_value=0, max_value=len(subs) - 1))]
        value = mu(target)
        mu._cache[target] = draw(st.sampled_from(
            [0.0, value - 0.05, value - 1e-3, value + 1e-3, value + 0.05]))
    return g, subs, mu


@settings(max_examples=60, deadline=None)
@given(sized_families(), st.sampled_from([DEFAULT_TOL, 0.0, -1e-9, 0.02]))
def test_axiom_tables_match_nested_loops(case, tol):
    g, subs, mu = case
    rep = check_whitney_axioms(mu, subs, tol=tol)
    single, mono, subadd, diff = reference_axioms(mu, subs, tol)
    assert rep.singleton_violations == single
    assert rep.monotone_violations == mono
    assert rep.subadd_violations == subadd
    assert rep.diff_violations == diff


@settings(max_examples=40, deadline=None)
@given(sized_families())
def test_distance_tables_match_pair_loop(case):
    g, subs, mu = case
    dh, dm = hyperspace_distance_matrices(g, mu, subs)
    ref_dh, ref_dm = reference_distances(g, mu, subs)
    assert np.array_equal(dh, ref_dh)
    assert np.array_equal(dm, ref_dm)


def test_equal_sizes_violate_strict_monotonicity():
    g = build_continuum("path", n=6)
    subs = enumerate_subcontinua(g)
    mu = build_whitney_map(g)
    a, b = frozenset([2, 3]), frozenset([2, 3, 4])
    mu._cache[a] = mu(b)
    rep = check_whitney_axioms(mu, subs, tol=0.0)
    assert (a, b) in rep.monotone_violations
    assert rep.monotone_violations == reference_axioms(mu, subs, 0.0)[1]


@pytest.mark.parametrize("mu,counts", [
    (_convex_size, [0, 0, 35, 504]),
    (_noise_size, [0, 28, 4, 301]),
])
def test_adversarial_violation_counts(mu, counts):
    # the suite's subadditivity-agreement family: the arc with 6 vertices
    subs = enumerate_subcontinua(build_continuum("path", n=6))
    rep = check_whitney_axioms(mu, subs)
    assert [len(rep.singleton_violations), len(rep.monotone_violations),
            len(rep.subadd_violations), len(rep.diff_violations)] == counts


@pytest.mark.parametrize("model,n,members", [
    ("path", 22, 22 * 23 // 2),     # intervals [i, j]: n(n + 1) / 2
    ("cycle", 16, 16 * 15 + 1),     # proper arcs n(n - 1), and the circle
])
def test_axioms_hold_on_the_ladder(model, n, members):
    g = build_continuum(model, n=n)
    subs = enumerate_subcontinua(g)
    assert len(subs) == members
    assert check_whitney_axioms(build_whitney_map(g), subs).all_ok
