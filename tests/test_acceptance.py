"""The package-level acceptance gate.

Each test runs one end-to-end check from :mod:`continuum_lab.suite`,
asserts the advertised facts, and enforces the runtime budget.  One check
fails by design: the stated closed-form element census of the circular
fiber model counts each full fiber twice, so ``check_psi_model`` reports
151 distinct elements against the closed form's 157 and its verdict is
not ok.  The census test pins that verdict and its cause, so it fails if
the model, the closed form or any other clause of the check changes.
"""

import numpy as np

from continuum_lab import suite
from continuum_lab.continua import triangle_to_interval_arc
from continuum_lab.psi import Arc, PsiPathspace, build_psi_model
from continuum_lab.suite import (check_crookedness, check_homeomorphisms,
                                 check_psi_levels, check_psi_model,
                                 check_psi_paths, check_size_axioms,
                                 check_size_metric,
                                 check_subadditivity_agreement,
                                 check_tower, check_triods_terminal)
from continuum_lab.whitney import whitney_distance_matrix
from test_psi import reference_vertices


def test_1_size_axioms_exhaustive_on_arc():
    r = check_size_axioms()
    assert r.details["subcontinua"] == 55
    assert r.details["singleton_ok"]
    assert r.details["monotone_ok"]
    assert r.details["subadd_ok"]
    assert r.details["diff_ok"]
    assert r.ok and r.seconds < 1.0


def test_2_subadditivity_checkers_agree():
    r = check_subadditivity_agreement()
    assert r.details["constructed"] == 5
    assert r.details["adversarial"] == 2
    for name in ("convex", "noise"):
        assert r.details[name]["subadd_ok"] == r.details[name]["diff_ok"]
    assert r.ok and r.seconds < 1.0


def test_3_size_metric_on_hyperspace_of_arc():
    r = check_size_metric()
    assert r.details["triples"] == 26235
    assert r.details["worst_triangle_defect"] <= 1e-12
    assert r.details["positivity"]
    assert r.details["point_distance_ok"]
    assert r.details["order_arc_isometry_ok"]
    assert r.ok and r.seconds < 5.0


def test_3_order_arc_isometry_fails_on_a_shifted_distance(monkeypatch):
    def shifted(mu, family):
        """One nested pair of intervals, neither a point, moved by 1e-6."""
        dm = whitney_distance_matrix(mu, family)
        i, j = family.index(frozenset([3, 4])), family.index(
            frozenset([2, 3, 4, 5]))
        dm[i, j] += 1e-6
        dm[j, i] += 1e-6
        return dm

    monkeypatch.setattr(suite, "whitney_distance_matrix", shifted)
    r = check_size_metric()
    assert r.details["point_distance_ok"]
    assert not r.details["order_arc_isometry_ok"]
    assert not r.ok


def test_4_crooked_generation_verified_independently():
    r = check_crookedness()
    assert r.details["lengths"] == [1, 2, 3, 6, 13]
    assert r.details["minimal_spanning_length_4"] == 6
    assert r.ok and r.seconds < 10.0


def test_5_tower_refines_nests_and_converges():
    r = check_tower()
    meshes = r.details["meshes"]
    assert meshes[0] <= 0.5 and meshes[1] <= 0.25 and meshes[2] <= 0.125
    assert r.details["nested"]
    assert r.details["hausdorff_ok"]
    assert r.ok and r.seconds < 10.0


def test_6_classic_homeomorphisms_roundtrip():
    r = check_homeomorphisms()
    assert r.details["interval_roundtrip"] < 1e-9
    assert r.details["circle_roundtrip"] < 1e-9
    assert r.details["special_values_exact"]
    assert r.ok and r.seconds < 2.0


def test_6_interval_roundtrip_fails_on_a_shifted_inverse(monkeypatch):
    def shifted(u, v):
        a, b = triangle_to_interval_arc(u, v)
        return a + 1e-6, b

    monkeypatch.setattr(suite, "triangle_to_interval_arc", shifted)
    r = check_homeomorphisms()
    assert r.details["interval_roundtrip"] > 1e-9
    assert r.details["circle_roundtrip"] < 1e-9
    assert not r.ok


def test_7_psi_model_structure():
    r = check_psi_model()
    assert r.details["filaments"] == 120
    assert r.details["ample"] == 31
    assert r.details["boundary_is_fibers"]
    assert r.details["normalized_fibers_at_l"]
    assert r.details["boundary_is_level_set"]
    assert r.details["all_but_count_ok"]
    assert r.seconds < 5.0


def test_7_psi_model_element_census_closed_form():
    # The stated closed form counts each of the m full fibers twice: once
    # as the link interval [1, k] and once as a length-1 base arc.  The
    # model holds that vertex set once, as Arc(s, 1), so it has m fewer
    # elements than the closed form and the check fails on the count alone.
    r = check_psi_model()
    model = build_psi_model()
    assert r.details["closed_form"] == 157
    assert r.details["distinct_form"] == 151
    assert r.details["elements"] == 151
    assert r.details["closed_form"] - r.details["elements"] == model.m
    # independent count: distinct vertex sets of the element family
    assert len({reference_vertices(model, e) for e in model.elements}) == 151
    full = {reference_vertices(model, Arc(start=s, length=1))
            for s in range(model.m)}
    assert full == {frozenset(model.vertex_id(s, t)
                              for t in range(1, model.k + 1))
                    for s in range(model.m)}
    assert r.details["count_matches_closed_form"] is False
    assert r.details["all_but_count_ok"]
    assert not r.ok
    assert r.seconds < 5.0


def test_8_level_structure_of_normalized_model():
    r = check_psi_levels()
    assert r.details["below_components"] == 6
    assert r.details["at_l_elements"] == 6
    assert r.details["above_cycle"]
    assert r.ok and r.seconds < 5.0


def test_9_cross_fiber_geodesics_and_flat_triangles():
    r = check_psi_paths()
    assert r.details["cross_fiber_pairs"] == 6000
    assert r.details["all_need_ample"]
    assert r.details["edges_checked"] == 16 * 5280
    assert -1e-12 <= r.details["worst_slack"] <= 0.0
    assert r.details["trials"] == 1000
    assert r.details["degenerate"] == 220
    assert r.details["worst_defect"] <= 1e-12
    assert r.ok and r.seconds < 30.0


def test_9_geodesic_certificate_fails_on_a_corrupted_join(monkeypatch):
    def larger_join(self, a, b):
        """The larger of the two minimal base arcs: an upper bound, but
        not the least one, so some graph edge shortens its paths."""
        (sa, la, _, _), (sb, lb, _, _) = self.shapes[a], self.shapes[b]
        if la == lb == 1 and sa == sb:
            return join(self, a, b)
        ups = [self.id(s, ln, 1, self.k) if ln < self.m else self.whole
               for s, ln in ((sa, max(la, (sb - sa) % self.m + lb)),
                             (sb, max(lb, (sa - sb) % self.m + la)))]
        return max(ups, key=lambda e: (self.v[e], e))

    join = PsiPathspace.join
    monkeypatch.setattr(PsiPathspace, "joins", lambda self, a, b: np.array(
        [larger_join(self, x, y) for x, y in zip(a.tolist(), b.tolist())]))
    r = check_psi_paths()
    assert r.details["all_need_ample"]
    assert r.details["worst_slack"] < -1e-12
    assert not r.ok


def test_9_geodesic_certificate_fails_on_one_wrong_length(monkeypatch):
    def one_longer(self, a, b):
        dist, bend = geodesics(self, a, b)
        dist[1] += 1e-6
        return dist, bend

    geodesics = PsiPathspace.geodesics
    monkeypatch.setattr(PsiPathspace, "geodesics", one_longer)
    r = check_psi_paths()
    assert r.details["all_need_ample"]
    assert not r.ok


def test_10_triods_and_terminal_fibers():
    r = check_triods_terminal()
    assert not r.details["path_triod"]
    assert not r.details["cycle_triod"]
    assert r.details["star_triod"]
    assert r.details["fibers_terminal"]
    assert r.details["pieces_not_terminal"]
    assert r.ok and r.seconds < 5.0
