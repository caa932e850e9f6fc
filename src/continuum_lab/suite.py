"""End-to-end checks covering every capability of the package.

Each check builds its own objects, verifies the advertised guarantees with
independent computations where possible, and reports a compact result.
The test suite and the command line both run these.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from .chains import (generate_crooked_pattern, is_crooked,
                     minimal_spanning_crooked_length)
from .continua import (_by_math, build_continuum, circle_arc_to_disk,
                       detect_triod, disk_to_circle_arc, enumerate_subcontinua,
                       interval_arc_to_triangle, is_terminal,
                       order_arcs_between, triangle_to_interval_arc)
from .metric_core import DEFAULT_TOL
from .psi import (Arc, Piece, build_psi_model,
                  closed_form_element_count, component_cyclic_arrangement,
                  curvature_check, distinct_element_count,
                  level_structure_report, normalize_to_psi0, planck_report)
from .realize import build_tower
from .whitney import (build_whitney_map, check_whitney_axioms,
                      whitney_distance_matrix)

TOL = DEFAULT_TOL


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    details: Dict[str, object] = field(default_factory=dict)


def _timed(name: str, fn: Callable[[Dict[str, object]], bool]) -> CheckResult:
    details: Dict[str, object] = {}
    t0 = time.perf_counter()
    ok = fn(details)
    return CheckResult(name=name, ok=bool(ok),
                       seconds=time.perf_counter() - t0, details=details)


# ---------------------------------------------------------------------------
# 1. Whitney size axioms on an arc


def check_size_axioms() -> CheckResult:
    def run(d):
        g = build_continuum("path", n=10)
        subs = enumerate_subcontinua(g)
        mu = build_whitney_map(g)
        rep = check_whitney_axioms(mu, subs, tol=TOL)
        d["subcontinua"] = len(subs)
        d["singleton_ok"] = rep.singleton_ok
        d["monotone_ok"] = rep.monotone_ok
        d["subadd_ok"] = rep.subadd_ok
        d["diff_ok"] = rep.diff_ok
        return len(subs) == 55 and rep.all_ok
    return _timed("size_axioms", run)


# ---------------------------------------------------------------------------
# 2. the two subadditivity forms agree


def _convex_size(a):
    return float((len(a) - 1) ** 2)


def _noise_size(a):
    if len(a) <= 1:
        return 0.0
    h = sum((v + 1) * 97 for v in a) % 1009
    return 0.1 + (h / 1009.0)


def check_subadditivity_agreement() -> CheckResult:
    def run(d):
        g = build_continuum("path", n=6)
        subs = enumerate_subcontinua(g)
        maps = [("whitney_seed_%d" % s, build_whitney_map(g, ordering_seed=s))
                for s in range(5)]
        maps += [("convex", _convex_size), ("noise", _noise_size)]
        agree = []
        genuine = []
        for name, mu in maps:
            rep = check_whitney_axioms(mu, subs, tol=TOL)
            agree.append(rep.subadd_ok == rep.diff_ok)
            genuine.append(rep.all_ok)
            d[name] = {"subadd_ok": rep.subadd_ok, "diff_ok": rep.diff_ok}
        d["constructed"] = 5
        d["adversarial"] = 2
        return (all(agree) and all(genuine[:5]) and
                not any(genuine[5:]))
    return _timed("subadditivity_agreement", run)


# ---------------------------------------------------------------------------
# 3. the size metric on the hyperspace of an arc


def check_size_metric() -> CheckResult:
    def run(d):
        g = build_continuum("path", n=10)
        subs = enumerate_subcontinua(g)
        mu = build_whitney_map(g)
        k = len(subs)
        dist = whitney_distance_matrix(mu, subs)
        pos = dist[~np.eye(k, dtype=bool)].min() > TOL
        sym = bool((dist == dist.T).all())
        # d(i,k) <= d(i,j) + d(j,k) over all ordered triples
        tri = float((dist[:, :, None] + dist[None, :, :]
                     - dist[:, None, :]).min())
        triangle_ok = tri >= -TOL
        d["triples"] = k * (k - 1) * (k - 2) // 6
        d["worst_triangle_defect"] = max(-tri, 0.0)
        at = {s: i for i, s in enumerate(subs)}  # rows of dist
        size = mu.sizes(subs)
        point = np.array([at[frozenset([x])] for x in range(g.n)])
        owner = np.repeat(np.arange(k), [len(s) for s in subs])
        xs = np.fromiter(itertools.chain.from_iterable(subs), dtype=np.int64)
        point_ok = bool((np.abs(dist[owner, point[xs]] - size[owner])
                         <= TOL).all())
        # every order arc from a point to the whole grows through g.n sets:
        # one (arcs, g.n) table of rows of dist, checked at its pairs i < j
        whole = frozenset(range(g.n))
        arcs = [arc for x in range(g.n)
                for arc in order_arcs_between(g, frozenset([x]), whole)]
        rows = np.fromiter(map(at.__getitem__, itertools.chain.from_iterable(
            arcs)), dtype=np.int64).reshape(len(arcs), g.n)
        i, j = np.triu_indices(g.n, k=1)
        iso_ok = bool((dist[rows[:, i], rows[:, j]]
                       == size[rows[:, j]] - size[rows[:, i]]).all())
        d["positivity"] = bool(pos)
        d["point_distance_ok"] = point_ok
        d["order_arc_isometry_ok"] = iso_ok
        return bool(pos and sym and triangle_ok and point_ok and iso_ok)
    return _timed("size_metric", run)


# ---------------------------------------------------------------------------
# 4. crooked pattern generation


def check_crookedness() -> CheckResult:
    def run(d):
        lengths = []
        for n in range(1, 6):
            pat = generate_crooked_pattern(n)
            rep = is_crooked(pat)
            lengths.append(len(pat))
            if not rep.ok:
                d["failed_at"] = n
                return False
        d["lengths"] = lengths
        d["minimal_spanning_length_4"] = minimal_spanning_crooked_length(4)[0]
        return d["minimal_spanning_length_4"] == 6
    return _timed("crookedness", run)


# ---------------------------------------------------------------------------
# 5. tower realization


def check_tower() -> CheckResult:
    def run(d):
        tower = build_tower(4, 3, (0.0, 0.0), (0.25, 0.0))
        meshes = [diag.mesh for diag in tower.diagnostics]
        d["meshes"] = meshes
        budgets = [0.5, 0.25, 0.125]
        mesh_ok = all(m <= b for m, b in zip(meshes, budgets))
        nested_ok = all(diag.nested_in_previous
                        for diag in tower.diagnostics[1:])
        hd_ok = all(diag.hausdorff_to_previous <= diag.hausdorff_bound
                    for diag in tower.diagnostics[1:])
        d["nested"] = nested_ok
        d["hausdorff_ok"] = hd_ok
        crooked_ok = all(is_crooked(p).ok and all(p.containment)
                         for p in tower.patterns)
        return mesh_ok and nested_ok and hd_ok and crooked_ok
    return _timed("tower", run)


# ---------------------------------------------------------------------------
# 6. classic hyperspace homeomorphisms


HOMEOMORPHISM_SAMPLES = 10_000


def check_homeomorphisms() -> CheckResult:
    def run(d):
        rng = np.random.default_rng(7)
        samples = HOMEOMORPHISM_SAMPLES
        a, b = np.sort(rng.uniform(0, 1, (2, samples)), axis=0)
        a2, b2 = triangle_to_interval_arc(*interval_arc_to_triangle(a, b))
        worst = float(max(np.abs(a2 - a).max(), np.abs(b2 - b).max()))
        d["interval_roundtrip"] = worst
        alpha = rng.uniform(-math.pi, math.pi, samples)
        width = rng.uniform(0, 2 * math.pi, samples)
        a2, b2 = disk_to_circle_arc(*circle_arc_to_disk(alpha, alpha + width))
        mid = (a2 + b2) / 2 - (alpha + width / 2)
        mid_err = np.abs(_by_math(math.remainder, mid, 2 * math.pi))
        err = np.abs((b2 - a2) - width)
        err = np.where(width < 2 * math.pi - 1e-9,
                       np.maximum(err, mid_err), err)
        worst_c = float(err.max())
        d["circle_roundtrip"] = worst_c
        exact = all(interval_arc_to_triangle(a, a) == (a, 0.0)
                    for a in rng.uniform(0, 1, 100))
        exact = exact and interval_arc_to_triangle(0.0, 1.0) == (0.5, 1.0)
        t = rng.uniform(-math.pi, math.pi, 100)
        exact = exact and all((xy == 0.0).all() for xy
                              in circle_arc_to_disk(t, t + 2 * math.pi))
        d["special_values_exact"] = exact
        return worst < 1e-9 and worst_c < 1e-9 and exact
    return _timed("homeomorphisms", run)


# ---------------------------------------------------------------------------
# 7. the circular fiber model


def check_psi_model() -> CheckResult:
    def run(d):
        model = build_psi_model()
        d["elements"] = len(model.elements)
        d["closed_form"] = closed_form_element_count(model.m, model.k)
        d["distinct_form"] = distinct_element_count(model.m, model.k)
        count_ok = len(model.elements) == d["closed_form"]
        d["count_matches_closed_form"] = count_ok
        fil = [e for e in model.elements if model.classify(e) == "filament"]
        amp = [e for e in model.elements if model.classify(e) == "ample"]
        partition_ok = (len(fil) + len(amp) == len(model.elements)
                        and all(isinstance(e, Piece) for e in fil)
                        and all(isinstance(e, Arc) for e in amp))
        d["filaments"] = len(fil)
        d["ample"] = len(amp)
        rep = planck_report(model)
        fibers = {Arc(start=s, length=1) for s in range(model.m)}
        boundary_ok = set(rep.boundary) == fibers
        d["boundary_is_fibers"] = boundary_ok
        pv = normalize_to_psi0(model)
        fiber_ok = all(abs(pv.values[f] - pv.l) <= TOL for f in fibers)
        level = {e for e in model.elements
                 if abs(pv.values[e] - pv.l) <= TOL}
        level_ok = level == fibers
        d["normalized_fibers_at_l"] = fiber_ok
        d["boundary_is_level_set"] = level_ok
        d["all_but_count_ok"] = bool(partition_ok and boundary_ok
                                     and fiber_ok and level_ok)
        return bool(count_ok and d["all_but_count_ok"])
    return _timed("psi_model", run)


# ---------------------------------------------------------------------------
# 8. level structure of the normalized model


def check_psi_levels() -> CheckResult:
    def run(d):
        model = build_psi_model()
        pv = normalize_to_psi0(model)
        below = level_structure_report(pv, 0.4 * pv.l)
        d["below_components"] = len(below.components)
        below_ok = (len(below.components) == model.m
                    and not below.is_cycle
                    and component_cyclic_arrangement(pv, below))
        at = level_structure_report(pv, pv.l)
        d["at_l_elements"] = len(at.elements)
        fibers = {Arc(start=s, length=1) for s in range(model.m)}
        at_ok = (len(at.components) == 1 and at.is_cycle
                 and set(at.elements) == fibers)
        arc2 = pv.values[Arc(start=0, length=2)]
        above = level_structure_report(pv, arc2)
        above_ok = len(above.components) == 1 and above.is_cycle
        d["above_cycle"] = above.is_cycle
        return below_ok and at_ok and above_ok
    return _timed("psi_levels", run)


# ---------------------------------------------------------------------------
# 9. geodesics must pass through ample elements


def _leq(model, a, b) -> np.ndarray:
    """``model.leq`` of each pair of element ids (a[t], b[t])."""
    sa, la, loa, hia = model.shapes[a].T
    sb, lb, lob, hib = model.shapes[b].T
    return (((lb >= model.m) | ((sa - sb) % model.m + la <= lb))
            & (lob <= loa) & (hia <= hib))


def _geodesic_certificate(pv, d) -> bool:
    """Closed-form geodesics are real paths that no graph edge shortens.

    One ``PsiPathspace.geodesics`` call gives, from each of 16 seeded
    sources a to every b, the length d(a, b) and bend c of a path [a, c, b],
    whose steps must join comparable elements and whose size gaps must sum
    to d(a, b); so d(a, .) is at least the shortest-path distance.  Every
    edge (c, b) of the comparability graph must satisfy
    d(a, b) <= d(a, c) + |v(b) - v(c)|, one (sources, edges) slack table,
    and d(a, a) = 0; so d(a, .) is at most that distance.  Together they
    prove it without Dijkstra.
    """
    model, v, edges = pv.model, pv.v, pv.space.graph
    sources = np.random.default_rng(0).choice(len(v), 16, replace=False)
    src = np.repeat(sources, len(v))
    ids = np.tile(np.arange(len(v)), len(sources))
    dist, bend = pv.space.geodesics(src, ids)
    # a two-term float sum is correctly rounded, as math.fsum is
    length = np.abs(v[bend] - v[src]) + np.abs(v[ids] - v[bend])
    steps = all((_leq(model, x, y) | _leq(model, y, x)).all()
                for x, y in ((src, bend), (bend, ids)))
    dist = dist.reshape(len(sources), len(v))
    paths_ok = bool(steps and (np.abs(length - dist.ravel()) <= TOL).all()
                    and (dist[np.arange(len(sources)), sources] == 0.0).all())
    slack = dist[:, edges.rows] + edges.weights - dist[:, edges.cols]
    worst = float(slack.min())
    d["edges_checked"] = len(sources) * edges.nnz
    d["worst_slack"] = worst
    return paths_ok and worst >= -TOL


def check_psi_paths() -> CheckResult:
    def run(d):
        model = build_psi_model()
        pv = normalize_to_psi0(model)
        # Pieces of two fibers need an ample element between them exactly
        # when no pair of them is comparable.
        pieces = model.m * model.q
        per_fiber = np.bincount(model.shapes[:pieces, 0])
        d["cross_fiber_pairs"] = int(pieces ** 2 - per_fiber @ per_fiber) // 2
        fiber = np.where(np.arange(len(model.elements)) < pieces,
                         model.shapes[:, 0], -1)
        rows, cols = model.strict_order.pairs()
        cross = np.flatnonzero((fiber[rows] >= 0) & (fiber[cols] >= 0)
                               & (fiber[rows] != fiber[cols]))
        if cross.size:
            d["counterexample"] = (model.elements[rows[cross[0]]],
                                   model.elements[cols[cross[0]]])
        d["all_need_ample"] = cross.size == 0
        geodesics_ok = _geodesic_certificate(pv, d)
        curv = curvature_check(pv, trials=1000, seed=0, tol=TOL)
        d["trials"] = curv.trials
        d["degenerate"] = curv.degenerate
        d["worst_defect"] = curv.worst_defect
        return d["all_need_ample"] and geodesics_ok
    return _timed("psi_paths", run)


# ---------------------------------------------------------------------------
# 10. triods and terminal elements


def check_triods_terminal() -> CheckResult:
    def run(d):
        path = build_continuum("path", n=6)
        cycle = build_continuum("cycle", n=6)
        star = build_continuum("star", legs=3, leg_length=2)
        d["path_triod"] = detect_triod(path) is not None
        d["cycle_triod"] = detect_triod(cycle) is not None
        witness = detect_triod(star)
        d["star_triod"] = witness is not None
        model = build_psi_model()
        family = [model.closed_vertices(e) for e in model.elements]
        fibers = [Arc(start=s, length=1) for s in range(model.m)]
        fibers_terminal = all(is_terminal(model.closed_vertices(f), family)
                              for f in fibers)
        pieces_not = all(
            not is_terminal(model.closed_vertices(e), family)
            for e in model.elements if isinstance(e, Piece))
        d["fibers_terminal"] = fibers_terminal
        d["pieces_not_terminal"] = pieces_not
        return (not d["path_triod"] and not d["cycle_triod"]
                and d["star_triod"] and fibers_terminal and pieces_not)
    return _timed("triods_terminal", run)


ALL_CHECKS = [
    check_size_axioms,
    check_subadditivity_agreement,
    check_size_metric,
    check_crookedness,
    check_tower,
    check_homeomorphisms,
    check_psi_model,
    check_psi_levels,
    check_psi_paths,
    check_triods_terminal,
]


def run_all() -> List[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
