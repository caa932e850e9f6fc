import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def test_pattern_runs_decomposition():
    runs = pattern_runs((1, 2, 3, 2, 3, 4))
    assert [(r.start, r.end, r.direction) for r in runs] == \
        [(0, 2, 1), (3, 3, -1), (4, 5, 1)]
    assert len(pattern_runs(generate_crooked_pattern(6).assignment)) == 17


def test_tower_shape(tower):
    assert [len(c) for c in tower.levels] == [4, 6, 30]
    assert tower.endpoints == (X, Y)


def test_meshes_meet_budgets(tower):
    for n, diag in enumerate(tower.diagnostics, start=1):
        assert diag.mesh <= 2.0 ** (-n)
        assert diag.chain_ok


def test_chains_verify_at_their_levels(tower):
    for n, chain in enumerate(tower.levels, start=1):
        assert verify_chain(chain, 2.0 ** (-n)).ok


def test_closures_nest_and_converge(tower):
    for diag in tower.diagnostics[1:]:
        assert diag.nested_in_previous
        assert diag.hausdorff_to_previous <= diag.hausdorff_bound


def test_patterns_are_crooked_with_verified_containment(tower):
    assert len(tower.patterns) == 2
    for pat in tower.patterns:
        assert all(pat.containment)
        assert is_crooked(pat).ok


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


def test_rotated_endpoints(tower):
    rot = build_tower(4, 3, (0.1, -0.1), (0.25, 0.1))
    assert math.dist(rot.cell_center(rot.y_cell), (0.25, 0.1)) < 1e-12
    for n, diag in enumerate(rot.diagnostics, start=1):
        assert diag.mesh <= 2.0 ** (-n)


def test_too_many_levels_reports_achievable_depth():
    with pytest.raises(ResourceError) as exc:
        build_tower(4, 4, X, Y)
    assert exc.value.achievable == 3


def test_oversized_coarse_pattern_reports_achievable_depth():
    with pytest.raises(ResourceError) as exc:
        build_tower(5, 3, X, Y)
    assert exc.value.achievable == 2


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
        coarse, fine, verified = realize_pattern(pat)
        assert verify_chain(coarse, 1e9).ok
        assert verify_chain(fine, 1e9).ok
        assert all(verified.containment)
        assert is_crooked(verified).ok == is_crooked(pat).ok


def test_point_set_realization(tower):
    sets = chain_point_sets(tower.levels[0])
    assert len(sets) == 4
    per_level = realize_planar(tower)
    assert [len(level) for level in per_level] == [4, 6, 30]
    assert len(realize_planar(generate_crooked_pattern(3))) == 3


def test_point_sets_follow_cell_order(tower):
    for chain in tower.levels:
        for link, pts in zip(chain.links, chain_point_sets(chain)):
            ref = [((c + 0.5) * chain.cell_size, (r + 0.5) * chain.cell_size)
                   for rect in link.rects for c, r in rect.cells()]
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
            coarse, fine, verified = realize_pattern(pat)
        except DomainError:
            assert not spans or stutters, p
            continue
        realized += 1
        assert spans, p
        assert len(fine) == len(p) and len(coarse) == pat.n_coarse
        assert verified.containment == (True,) * len(p)
        assert verify_chain(fine, math.inf).ok, p
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
    _, fine, verified = realize_pattern(
        RefinementPattern(assignment=(1, 1, 2), n_coarse=2))
    assert len(fine) == 3 and all(verified.containment)
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
            coarse, fine, verified = realize_pattern(pat)
            assert coarse.to_json() == case["coarse"], pat
            assert fine.to_json() == case["fine"], pat
            assert list(verified.containment) == case["containment"], pat
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
