import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab.chains import (Chain, Link, Rect, RefinementPattern,
                                  crooked_pattern_length,
                                  generate_crooked_pattern, is_crooked,
                                  minimal_spanning_crooked_length,
                                  pattern_from_json, pattern_to_json,
                                  repeat_pattern, verify_chain)
from continuum_lab.errors import DomainError


def test_generated_pattern_for_four_links():
    pat = generate_crooked_pattern(4)
    assert pat.assignment == (1, 2, 3, 2, 3, 4)


def test_generated_lengths_follow_recurrence():
    # s(n) = 2 s(n-1) + s(n-2) - 2, computed independently of the generator
    expected = [1, 2]
    for _ in range(6):
        expected.append(2 * expected[-1] + expected[-2] - 2)
    got = [len(generate_crooked_pattern(n)) for n in range(1, 9)]
    assert got == expected
    # the length alone, without building the pattern
    assert [crooked_pattern_length(n) for n in range(1, 9)] == expected
    with pytest.raises(DomainError):
        crooked_pattern_length(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_generated_patterns_are_crooked(n):
    assert is_crooked(generate_crooked_pattern(n)).ok


def test_generated_patterns_take_unit_steps_and_span():
    for n in range(2, 7):
        p = generate_crooked_pattern(n).assignment
        assert p[0] == 1 and p[-1] == n
        assert set(p) == set(range(1, n + 1))
        assert all(abs(a - b) == 1 for a, b in zip(p, p[1:]))


def test_straight_run_is_not_crooked():
    rep = is_crooked(RefinementPattern(assignment=(1, 2, 3, 4), n_coarse=4))
    assert not rep.ok
    assert rep.counterexample == (1, 4, 1, 4)


def test_counterexample_names_real_violation():
    rep = is_crooked(RefinementPattern(assignment=(1, 2, 3, 4, 3, 2, 3, 4),
                                       n_coarse=4))
    assert not rep.ok
    k, m, i, j = rep.counterexample
    assert 1 <= k < m <= 4 and m - k >= 2


def test_minimal_spanning_crooked_length():
    length, pattern = minimal_spanning_crooked_length(4)
    assert length == 6
    assert is_crooked(pattern).ok
    assert len(pattern) == 6


def test_minimal_lengths_small_cases():
    assert minimal_spanning_crooked_length(1)[0] == 1
    assert minimal_spanning_crooked_length(2)[0] == 2
    assert minimal_spanning_crooked_length(3)[0] == 3


def test_pattern_json_roundtrip():
    pat = generate_crooked_pattern(5)
    again = pattern_from_json(pattern_to_json(pat))
    assert again.assignment == pat.assignment
    assert again.n_coarse == pat.n_coarse
    json.loads(pattern_to_json(pat))  # valid JSON


def test_repeat_pattern_preserves_crookedness():
    pat = generate_crooked_pattern(4)
    rep = repeat_pattern(pat, 3)
    assert len(rep) == 3 * len(pat)
    assert is_crooked(rep).ok


def test_pattern_validation():
    with pytest.raises(DomainError):
        RefinementPattern(assignment=(), n_coarse=3)
    with pytest.raises(DomainError):
        RefinementPattern(assignment=(0, 1), n_coarse=2)
    with pytest.raises(DomainError):
        RefinementPattern(assignment=(1, 3), n_coarse=2)


# -- geometric chains -------------------------------------------------------


def _bar(index, c0, c1):
    return Link(index=index, rects=(Rect(c0, c1, 0, 1),))


def test_verify_chain_accepts_overlapping_row():
    chain = Chain(links=[_bar(1, 0, 3), _bar(2, 2, 5), _bar(3, 4, 7)],
                  cell_size=0.1)
    rep = verify_chain(chain, 1.0)
    assert rep.ok
    # widest link spans 3 x 1 cells; diameter is corner to corner
    assert rep.mesh == pytest.approx(0.1 * (10 ** 0.5), abs=1e-12)


def test_verify_chain_rejects_gap():
    chain = Chain(links=[_bar(1, 0, 2), _bar(2, 3, 5)])
    rep = verify_chain(chain, 100.0)
    assert not rep.ok
    assert any("do not meet" in f for f in rep.failures)


def test_verify_chain_rejects_skip_intersection():
    chain = Chain(links=[_bar(1, 0, 5), _bar(2, 2, 7), _bar(3, 4, 9)])
    rep = verify_chain(chain, 100.0)
    assert not rep.ok
    assert any("not adjacent" in f for f in rep.failures)


def test_verify_chain_edge_adjacency_is_disjoint():
    # sharing only an edge (no common cell) must count as a gap
    chain = Chain(links=[_bar(1, 0, 2), _bar(2, 2, 4)])
    rep = verify_chain(chain, 100.0)
    assert any("do not meet" in f for f in rep.failures)


def test_mesh_strictness():
    chain = Chain(links=[_bar(1, 0, 3), _bar(2, 2, 5)], cell_size=1.0)
    diam = 10 ** 0.5  # corner-to-corner of a 3 x 1 cell bar
    assert not verify_chain(chain, diam).ok  # diameter == eps is too big
    assert verify_chain(chain, diam + 0.01).ok


# five rects, 20 corners, in a plus shape with a far stub: the diameter
# runs between two corners that are not on one rect
FIVE_RECTS = (Rect(0, 3, 4, 5), Rect(1, 2, 2, 9), Rect(-2, 1, 6, 7),
              Rect(2, 6, 6, 7), Rect(7, 9, -3, -1))


def test_mesh_of_many_rects_is_the_farthest_corner_pair():
    corners = [c for r in FIVE_RECTS for c in r.corners()]
    assert len(corners) == 20
    chain = Chain(links=[Link(index=1, rects=FIVE_RECTS)], cell_size=0.3)
    far = max(math.dist(p, q) for p in corners for q in corners)
    assert chain.mesh() == far * 0.3


def test_mesh_leaves_scipy_spatial_unloaded():
    import continuum_lab
    src = str(Path(list(continuum_lab.__path__)[0]).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from continuum_lab.chains import Chain, Link, Rect\n"
            f"rects = {FIVE_RECTS!r}\n"
            "Chain(links=[Link(index=1, rects=rects)]).mesh()\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.spatial')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rect_validation():
    with pytest.raises(DomainError):
        Rect(3, 3, 0, 1)
    with pytest.raises(DomainError):
        Rect(0, 1, 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_generator_output_passes_exhaustive_verifier(n):
    assert is_crooked(generate_crooked_pattern(n)).ok


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2,
                max_size=8))
def test_verifier_never_crashes_on_unit_step_walks(steps):
    # build a 1-based walk with +-1 steps from the raw integer list
    walk = [1]
    for v in steps:
        nxt = walk[-1] + (1 if v % 2 else -1)
        walk.append(min(max(nxt, 1), 4))
    if any(abs(a - b) != 1 for a, b in zip(walk, walk[1:])):
        return  # clamping can create repeats; those are rejected inputs
    pat = RefinementPattern(assignment=tuple(walk), n_coarse=4)
    rep = is_crooked(pat)
    assert rep.ok or rep.counterexample is not None
