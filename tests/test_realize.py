import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from continuum_lab import realize
from continuum_lab.chains import (RefinementPattern, generate_crooked_pattern,
                                  is_crooked, verify_chain)
from continuum_lab.errors import DomainError, ResourceError
from continuum_lab.realize import (_closure_mask, build_tower,
                                   chain_point_sets,
                                   pattern_runs, realize_pattern,
                                   realize_planar, tower_to_json)
from continuum_lab.svg import chains_svg, tower_svg

X, Y = (0.0, 0.0), (0.25, 0.0)


@pytest.fixture(scope="module")
def tower():
    return build_tower(4, 3, X, Y)


@pytest.fixture(scope="module")
def rotated():
    return build_tower(4, 3, (0.1, -0.1), (0.25, 0.1))


def _cells(rects):
    """The grid cells (c, r) of ``rects``, rect by rect, columns outer."""
    return [(c, r) for rect in rects for c in range(rect.c0, rect.c1)
            for r in range(rect.r0, rect.r1)]


MASKS = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(bool, shape))


@settings(max_examples=200, deadline=None)
@given(MASKS)
@example(np.zeros((1, 1), bool))
@example(np.ones((1, 1), bool))
@example(np.array([[False, True, False, False, True]]))
@example(np.zeros((4, 6), bool))
@example(np.ones((4, 6), bool))
@example(np.eye(5, dtype=bool)[::-1])
def test_closure_mask_is_the_3x3_dilation(mask):
    from scipy import ndimage
    want = ndimage.binary_dilation(mask, structure=np.ones((3, 3), bool))
    got = _closure_mask(mask)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def reference_closure_mask(m):
    """The closure as realize once computed it: the OR of the nine shifted
    windows of a zero-padded copy."""
    rows, cols = m.shape
    padded = np.pad(m, 1)
    out = np.zeros_like(m)
    for dr in range(3):
        for dc in range(3):
            out |= padded[dr:dr + rows, dc:dc + cols]
    return out


BORDER = np.zeros((5, 7), bool)
BORDER[0, 0] = BORDER[-1, 3] = BORDER[2, -1] = True


@settings(max_examples=300, deadline=None)
@given(MASKS)
@example(np.zeros((1, 1), bool))
@example(np.ones((1, 1), bool))
@example(np.array([[True, False, False, False, False, False, True]]))
@example(np.array([[False], [True], [False]]))
@example(np.zeros((3, 8), bool))
@example(np.ones((6, 2), bool))
@example(BORDER)
def test_closure_mask_equals_the_nine_window_or(mask):
    before = mask.copy()
    got = _closure_mask(mask)
    assert np.array_equal(mask, before)
    assert got.dtype == mask.dtype
    assert np.array_equal(got, reference_closure_mask(mask))


def ndimage_hausdorff(a, b, cell):
    """The grid Hausdorff distance as realize once computed it: the larger
    of two exact Euclidean distance transforms, each read on the other
    mask."""
    from scipy import ndimage
    da = ndimage.distance_transform_edt(~a)
    db = ndimage.distance_transform_edt(~b)
    return float(max(da[b].max(initial=0.0), db[a].max(initial=0.0))) * cell


MASK_PAIRS = st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
    lambda shape: st.tuples(arrays(bool, shape), arrays(bool, shape)))
STRIPES = np.zeros((6, 9), bool)
STRIPES[[0, 1, 4, 5]] = True
STRIPES[:, [0, 4, 8]] = True
HOLED = np.ones((7, 8), bool)  # no src cell in row 3 or column 5
HOLED[3] = HOLED[:, 5] = False
LEFT = np.zeros((5, 8), bool)
LEFT[:, :3] = True
# 17 scattered cells: over 128 targets, and a cell of bound top + 1 left
# after the first batch
SCATTER = np.zeros((24, 19), bool)
SCATTER[[0, 5, 5, 7, 9, 10, 10, 11, 11, 13, 14, 15, 16, 16, 18, 19, 21],
        [17, 0, 16, 17, 16, 1, 10, 7, 17, 5, 3, 10, 8, 11, 10, 16, 4]] = True


@settings(max_examples=300, deadline=None)
@given(MASK_PAIRS, st.floats(1e-6, 1e3))
@example((np.ones((1, 1), bool), np.ones((1, 1), bool)), 1.0)
@example((np.array([[True, False, False, False, False, False]]),
          np.array([[False, False, False, False, True, True]])), 0.25)
@example((np.array([[False], [False], [True], [False], [False]]),
          np.array([[True], [False], [False], [False], [True]])), 0.25)
@example((np.ones((4, 6), bool), np.eye(4, 6, dtype=bool)), 0.5)
@example((np.eye(4, 6, dtype=bool), np.ones((4, 6), bool)), 0.5)
@example((np.ones((5, 5), bool), np.ones((5, 5), bool)), 3.0)
@example((BORDER, np.ones_like(BORDER)), 0.1)
@example((BORDER, STRIPES[:5, :7]), 0.1)
@example((HOLED, np.ones_like(HOLED)), 0.1)
@example((HOLED, ~HOLED), 0.1)
@example((LEFT, ~LEFT), 0.125)
@example((SCATTER, np.ones_like(SCATTER)), 1.0)
def test_grid_hausdorff_is_the_edt_formula(masks, cell):
    a, b = masks
    assume(a.any() and b.any())
    before = a.copy(), b.copy()
    assert realize._grid_hausdorff(a, b) * cell == ndimage_hausdorff(a, b, cell)
    assert realize._grid_hausdorff(b, a) * cell == ndimage_hausdorff(b, a, cell)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


def test_grid_hausdorff_squares_do_not_overflow_on_thin_grids():
    # 49,999^2 is above the int32 range
    for shape in ((1, 50_000), (50_000, 1)):
        a, b = np.zeros(shape, bool), np.zeros(shape, bool)
        a.flat[0] = b.flat[-1] = True
        assert realize._grid_hausdorff(a, b) == 49_999.0
        assert ndimage_hausdorff(a, b, 1.0) == 49_999.0


@pytest.mark.parametrize("n,levels", [(n, lv) for n in range(1, 6)
                                      for lv in (2, 3) if (n, lv) != (5, 3)])
def test_tower_steps_equal_the_edt_formula(n, levels):
    # (5, 3) is refused at every distance; 0.02 builds the rest
    tower = build_tower(n, levels, (0.0, 0.0), (0.02, 0.0))
    closures = [_closure_mask(realize._mask([l.rects for l in lc.links],
                                            tower.grid_shape))
                for lc in tower.levels]
    cell = tower.cell_size
    for diag, coarse, fine in zip(tower.diagnostics[1:], closures,
                                  closures[1:]):
        assert diag.hausdorff_to_previous == \
            ndimage_hausdorff(fine, coarse, cell)
    if (n, levels) == (4, 3):  # the 36 x 36-cell diagonal step
        assert tower.diagnostics[1].hausdorff_to_previous == \
            math.sqrt(2 * 36 ** 2) * cell


def test_pattern_runs_decomposition():
    assert pattern_runs((1, 2, 3, 2, 3, 4)) == [0, 0, 0, 1, 2, 2]
    assert pattern_runs(generate_crooked_pattern(6).assignment)[-1] == 16


# The router's lane table and run records before lanes became a formula of
# the segment's axis, kept as references for the formula.

def _reference_runs(assignment):
    """Maximal monotone stretches as 0-based inclusive (start, end) pairs;
    a turn apex ends its run."""
    p = list(assignment)
    runs, s, d = [], 0, 0
    for i in range(1, len(p)):
        step = p[i] - p[i - 1]
        if step == 0:
            continue
        step = 1 if step > 0 else -1
        if d == 0:
            d = step
        elif step != d:
            runs.append((s, i - 1))
            s, d = i, step
    runs.append((s, len(p) - 1))
    return runs


def _reference_lane_starts(tube, lanes, bh):
    """Each tube segment's lane starts by run: seeded in run order on the
    first segment, then pushed through every junction.  A straight junction
    keeps them; a bend ranks them by their distance from the inner corner,
    which faces larger coordinates on the first segment's transverse axis."""
    starts = [{r: tube[0].trans0 + 1 + r * (bh + 1) for r in range(lanes)}]
    for a, b in zip(tube, tube[1:]):
        prev = starts[-1]
        if a.axis == b.axis:
            starts.append(dict(prev))
            continue
        ranked = sorted(prev, key=lambda r: -prev[r])
        starts.append({run: b.trans0 + 1 + rank * (bh + 1)
                       for rank, run in enumerate(ranked)})
    return starts


def _spanning_walks():
    """Every walk from coarse link 1 to n with steps of at most one link,
    for n <= 5 and at most 9 fine links: 1,485 patterns."""
    for n in range(1, 6):
        for length in range(1, 10):
            for p in itertools.product(range(1, n + 1), repeat=length):
                if p[0] == 1 and p[-1] == n and \
                        all(abs(a - b) <= 1 for a, b in zip(p, p[1:])):
                    yield RefinementPattern(assignment=p, n_coarse=n)


def test_lanes_and_runs_equal_the_propagated_references(monkeypatch):
    real = realize._route
    seen = {"tubes": 0, "segments": 0, "bends": 0}

    def checked(tube, windows, p, run_of, bh, *args, **kwargs):
        runs = _reference_runs(p)
        assert run_of == [k for k, (s, e) in enumerate(runs)
                          for _ in range(s, e + 1)], p
        assert tube[0].axis == "h"
        for seg, starts in zip(tube, _reference_lane_starts(tube, len(runs),
                                                             bh)):
            for run, t in starts.items():
                assert realize._lane(seg, run, len(runs), bh) == \
                    (t, t + bh), (p, seg, run)
        seen["tubes"] += 1
        seen["segments"] += len(tube)
        seen["bends"] += sum(a.axis != b.axis for a, b in zip(tube, tube[1:]))
        return real(tube, windows, p, run_of, bh, *args, **kwargs)

    monkeypatch.setattr(realize, "_route", checked)
    for n, levels in [(n, 2) for n in range(1, 10)] + \
            [(n, 3) for n in range(1, 5)]:
        realize._realize(n, realize._crooked_patterns(n, levels))
    realized = 0
    for pat in _spanning_walks():
        try:
            realize_pattern(pat)
            realized += 1
        except DomainError:
            pass
    assert realized == 478
    # one tube per 2-level tower, two per 3-level one, one per walk; only
    # the 3-level tower over 4 links bends
    assert seen == {"tubes": 9 + 2 * 4 + 1485, "segments": 5267, "bends": 4}


def test_tower_shape(tower):
    assert [len(c) for c in tower.levels] == [4, 6, 30]
    assert tower.endpoints == (X, Y)


def test_meshes_meet_budgets(tower):
    for n, diag in enumerate(tower.diagnostics, start=1):
        assert diag.mesh <= 2.0 ** (-n)
        assert diag.chain_ok


def test_chains_verify_at_their_levels(tower):
    for n, chain in enumerate(tower.levels, start=1):
        report = verify_chain(chain)
        assert report.ok and report.mesh < 2.0 ** (-n)


def test_closures_nest_and_converge(tower):
    for diag in tower.diagnostics[1:]:
        assert diag.nested_in_previous
        assert diag.hausdorff_to_previous <= diag.hausdorff_bound


def test_patterns_are_crooked_with_verified_containment(tower, rotated):
    # closure containment as cell sets: every cell of each dilated fine
    # rect lies in some rect of the coarse link the pattern assigns
    for t in (tower, rotated):
        assert len(t.patterns) == 2
        for coarse, fine, pat in zip(t.levels, t.levels[1:], t.patterns):
            assert is_crooked(pat).ok
            assert len(fine) == len(pat) and pat.n_coarse == len(coarse)
            for link, a in zip(fine.links, pat.assignment):
                closure = set(_cells(r.dilate() for r in link.rects))
                assert closure <= set(_cells(coarse.links[a - 1].rects)), \
                    (t.endpoints, link.index)


@pytest.fixture
def no_grids():
    """An empty grid cache, emptied again afterwards: a grid built under a
    patch must not outlive the test."""
    realize._grid_tower.cache_clear()
    yield
    realize._grid_tower.cache_clear()


def test_a_failed_containment_check_refuses_the_realization(monkeypatch,
                                                            no_grids):
    real = realize.rects_contain

    def fail_once(inner, outer):
        if calls:
            return real(inner, outer)
        calls.append(1)
        return False

    monkeypatch.setattr(realize, "rects_contain", fail_once)
    for build in (lambda: build_tower(4, 2, X, Y),
                  lambda: realize_pattern(generate_crooked_pattern(4))):
        calls = []
        with pytest.raises(DomainError, match="containment violated"):
            build()
        assert calls == [1]


def _request(n, levels, x, y):
    """What a caller sees of one request: the tower's JSON, frame and cells,
    or the refusal's type, message and achievable level count."""
    try:
        t = build_tower(n, levels, x, y)
    except (DomainError, ResourceError) as exc:
        return type(exc), str(exc), getattr(exc, "achievable", None)
    return (tower_to_json(t), t.rotation, t.cell_size, t.x_cell, t.y_cell,
            t.grid_shape)


GRID_REQUESTS = [
    (n, levels, (0.1 * i - 0.3, 0.05 * i - 0.2),
     (0.1 * i - 0.3 + d * math.cos(0.7 * i), 0.05 * i - 0.2
      + d * math.sin(0.7 * i)))
    for n in range(1, 7) for levels in range(1, 5)
    for i, d in enumerate((1e-300, 1e-100, 1e-9, 1e-3, 0.02, 0.1, 0.25, 0.6,
                           3.0, 1e300))]


def test_a_kept_grid_builds_what_an_empty_cache_builds(no_grids):
    # 240 requests, each built from an empty cache and again, in reverse
    # order, from grids that other endpoints left in it
    cold = {}
    for req in GRID_REQUESTS:
        realize._grid_tower.cache_clear()
        cold[req] = _request(*req)
    for req in reversed(GRID_REQUESTS):
        assert _request(*req) == cold[req], req
    built = [r for r in cold.values() if isinstance(r[0], dict)]
    assert len(built) == 79


def test_a_returned_tower_shares_nothing_mutable_with_the_cache():
    first = build_tower(4, 3, X, Y)
    want = _request(4, 3, X, Y)
    first.levels[0].links.clear()
    first.levels[2].links.reverse()
    first.levels.pop()
    first.patterns.clear()
    first.diagnostics[1].mesh = 0.0
    first.diagnostics.clear()
    assert _request(4, 3, X, Y) == want


def test_new_endpoints_neither_route_nor_verify_again(monkeypatch):
    for levels in (3, 2):
        build_tower(4, levels, X, Y)
    calls = []

    def spy(real):
        def counted(*args):
            calls.append(real.__name__)
            return real(*args)
        return counted
    monkeypatch.setattr(realize, "_realize", spy(realize._realize))
    monkeypatch.setattr(realize, "verify_chain", spy(realize.verify_chain))
    for y in ((0.2, 0.1), (0.0, -0.3), (-0.05, 0.01)):
        build_tower(4, 3, X, y)
    with pytest.raises(ResourceError) as exc:
        build_tower(4, 3, X, (0.0, 0.5))  # level 3 refuses its mesh
    assert exc.value.achievable == 2
    assert calls == []


def test_endpoints_in_terminal_links(tower):
    for chain in tower.levels:
        for cell, link in ((tower.x_cell, chain.links[0]),
                           (tower.y_cell, chain.links[-1])):
            assert any(r.c0 <= cell[0] < r.c1 and r.r0 <= cell[1] < r.r1
                       for r in link.rects)


def test_frame_maps_endpoint_cells_to_endpoints(tower):
    for cell, pt in ((tower.x_cell, X), (tower.y_cell, Y)):
        mapped = tower.cell_center(cell)
        assert math.dist(mapped, pt) < 1e-12


def test_frame_is_isometric(tower):
    a = tower.cell_center((0, 0))
    b = tower.cell_center((3, 4))
    assert math.dist(a, b) == pytest.approx(5 * tower.cell_size, abs=1e-12)


def test_rotated_endpoints(rotated):
    assert math.dist(rotated.cell_center(rotated.y_cell),
                     (0.25, 0.1)) < 1e-12
    for n, diag in enumerate(rotated.diagnostics, start=1):
        assert diag.mesh <= 2.0 ** (-n)


def test_too_many_levels_reports_achievable_depth():
    with pytest.raises(ResourceError) as exc:
        build_tower(4, 4, X, Y)
    assert exc.value.achievable == 3


def test_oversized_coarse_pattern_reports_achievable_depth():
    with pytest.raises(ResourceError) as exc:
        build_tower(5, 3, X, Y)
    assert exc.value.achievable == 2


# one coarse link, one level: at this distance the link's mesh is exactly
# 0.5, the level's 2^-1 bound
BOUND_DISTANCE = 0.13130643285972254


def test_a_mesh_equal_to_its_bound_is_refused():
    with pytest.raises(ResourceError, match=r"^level 1 mesh 0\.5000 exceeds "
                                            r"0\.5$") as exc:
        build_tower(1, 1, (0.0, 0.0), (BOUND_DISTANCE, 0.0))
    assert exc.value.achievable == 0


def test_endpoints_one_ulp_nearer_build_below_the_bound():
    near = math.nextafter(BOUND_DISTANCE, 0)
    (diag,) = build_tower(1, 1, (0.0, 0.0), (near, 0.0)).diagnostics
    assert diag.mesh == 0.4999999999999999 < diag.eps == 0.5
    assert diag.chain_ok


def test_distant_endpoints_blocked_with_achievable():
    with pytest.raises(ResourceError) as exc:
        build_tower(4, 3, (0.0, 0.0), (3.0, 0.0))
    assert exc.value.achievable == 0


def test_degenerate_input_rejected():
    with pytest.raises(DomainError):
        build_tower(4, 0, X, Y)
    with pytest.raises(DomainError):
        build_tower(4, 2, X, X)


def test_non_finite_endpoints_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="endpoints must be finite"):
            build_tower(2, 1, (bad, 0.0), Y)
        with pytest.raises(DomainError, match="endpoints must be finite"):
            build_tower(2, 1, X, (0.0, bad))


def test_tower_json_shape(tower):
    data = tower_to_json(tower)
    assert len(data["levels"]) == 3
    assert len(data["patterns"]) == 2
    assert data["endpoints"] == [list(X), list(Y)]
    assert [d["level"] for d in data["diagnostics"]] == [1, 2, 3]


def test_realize_pattern_crooked_and_straight():
    for pat in (generate_crooked_pattern(4),
                RefinementPattern(assignment=(1, 2, 3, 4), n_coarse=4)):
        coarse, fine = realize_pattern(pat)
        assert verify_chain(coarse).ok
        assert verify_chain(fine).ok


def test_point_set_realization(tower):
    sets = chain_point_sets(tower.levels[0])
    assert len(sets) == 4
    per_level = realize_planar(tower)
    assert [len(level) for level in per_level] == [4, 6, 30]
    _, fine = realize_pattern(generate_crooked_pattern(3))
    assert len(chain_point_sets(fine)) == 3


def test_point_sets_follow_cell_order(tower):
    for chain in tower.levels:
        for link, pts in zip(chain.links, chain_point_sets(chain)):
            ref = [((c + 0.5) * chain.cell_size, (r + 0.5) * chain.cell_size)
                   for c, r in _cells(link.rects)]
            assert pts.points.shape == (len(ref), 2)
            assert np.array_equal(pts.points, np.array(ref))


def _small_patterns():
    """Every valid pattern with at most 4 coarse links and 6 fine links."""
    for n in range(1, 5):
        for length in range(1, 7):
            for p in itertools.product(range(1, n + 1), repeat=length):
                if all(abs(a - b) <= 1 for a, b in zip(p, p[1:])):
                    yield RefinementPattern(assignment=p, n_coarse=n)


def test_realize_pattern_realizes_or_refuses_every_small_pattern():
    seen = realized = 0
    for pat in _small_patterns():
        seen += 1
        p = pat.assignment
        spans = p[0] == 1 and p[-1] == pat.n_coarse
        stutters = any(a == b for a, b in zip(p, p[1:]))
        try:
            coarse, fine = realize_pattern(pat)
        except DomainError:
            assert not spans or stutters, p
            continue
        realized += 1
        assert spans, p
        assert len(fine) == len(p) and len(coarse) == pat.n_coarse
        assert verify_chain(fine).ok, p
        # closure containment, checked against the column bounds directly
        for link, a in zip(fine.links, p):
            (col,) = coarse.links[a - 1].rects
            for r in link.rects:
                d = r.dilate()
                assert (col.c0 <= d.c0 and d.c1 <= col.c1 and
                        col.r0 <= d.r0 and d.r1 <= col.r1), (p, link.index)
    assert seen == 1290
    # the 11 spanning patterns without stutters and 29 with them
    assert realized == 40


def test_realize_pattern_refusals():
    _, fine = realize_pattern(
        RefinementPattern(assignment=(1, 1, 2), n_coarse=2))
    assert len(fine) == 3
    for p, n in (((2, 1), 2), ((1, 2, 3), 4), ((1, 2, 2), 2),
                 ((1, 2, 1, 1, 2), 2)):
        with pytest.raises(DomainError):
            realize_pattern(RefinementPattern(assignment=p, n_coarse=n))
    with pytest.raises(DomainError):  # generate_crooked_pattern(4), doubled
        realize_pattern(RefinementPattern(
            assignment=(1, 1, 2, 2, 3, 3, 2, 2, 3, 3, 4, 4), n_coarse=4))


GOLDEN = Path(__file__).parent / "golden" / "towers.json"
# Towers whose level-3 links list their bars before their turn stub, where
# the recorded outputs list the stub first: the only allowed difference.
RECT_ORDER_CHANGED = {(4, 3)}


def _sorted_chain_rects(text):
    chain = json.loads(text)
    for link in chain["links"]:
        link["rects"].sort()
    return json.dumps(chain, sort_keys=True)


def _sorted_tower_rects(text):
    tower = json.loads(text)
    tower["levels"] = [_sorted_chain_rects(c) for c in tower["levels"]]
    return json.dumps(tower, sort_keys=True)


def _sorted_svg_rects(svg):
    # one <path> per link, one "M ... Z" subpath per rect
    def sort_path(match):
        subpaths = sorted(s.strip() for s in match.group(1).split("Z")
                          if s.strip())
        return 'd="' + " ".join(s + " Z" for s in subpaths) + '"'
    return re.sub(r'd="([^"]*)"', sort_path, svg)


def _tower_case(case):
    try:
        tower = build_tower(case["n"], case["levels"], tuple(case["x"]),
                            tuple(case["y"]))
    except ResourceError as exc:
        return {"error": str(exc), "achievable": exc.achievable}
    return {"json": json.dumps(tower_to_json(tower), sort_keys=True),
            "svg": tower_svg(tower)}


def test_towers_match_golden_outputs():
    # recorded before the single planner and router replaced the per-level
    # ones: towers (built and refused, two frames) and pattern realizations
    reordered = set()
    for case in json.loads(GOLDEN.read_text()):
        if case["call"] == "pattern":
            pat = RefinementPattern(assignment=tuple(case["assignment"]),
                                    n_coarse=case["n_coarse"])
            coarse, fine = realize_pattern(pat)
            assert coarse.to_json() == case["coarse"], pat
            assert fine.to_json() == case["fine"], pat
            # the recorded flags: realize_pattern refuses any false one
            assert case["containment"] == [True] * len(pat), pat
            assert chains_svg([coarse, fine]) == case["svg"], pat
            continue
        key = (case["n"], case["levels"])
        got = _tower_case(case)
        want = {k: case[k] for k in ("json", "svg", "error", "achievable")
                if k in case}
        if got == want:
            continue
        assert key in RECT_ORDER_CHANGED, case
        assert _sorted_tower_rects(got["json"]) == \
            _sorted_tower_rects(want["json"]), case
        assert _sorted_svg_rects(got["svg"]) == \
            _sorted_svg_rects(want["svg"]), case
        reordered.add(key)
    assert reordered == RECT_ORDER_CHANGED
