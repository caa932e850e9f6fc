import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_lab import chains
from continuum_lab.chains import (Chain, ChainReport, Link, Rect,
                                  RefinementPattern,
                                  _zigzag_pairs, _zigzag_step,
                                  crooked_pattern_length,
                                  generate_crooked_pattern, is_crooked,
                                  minimal_spanning_crooked_length,
                                  pattern_from_json, pattern_to_json,
                                  verify_chain)
from continuum_lab.errors import DomainError, ResourceError


# -- independent references ---------------------------------------------------


def _first_at(p, value, start):
    for idx in range(start, len(p)):
        if p[idx] == value:
            return idx
    return None


def _upward_reference(p, n_coarse):
    # the first verifier: every k < m - 2, every i at k, every j > i at m
    positions = {}
    for idx, v in enumerate(p):
        positions.setdefault(v, []).append(idx)
    for k in range(1, n_coarse + 1):
        for m in range(k + 3, n_coarse + 1):
            for i in positions.get(k, []):
                for j in positions.get(m, []):
                    if j <= i:
                        continue
                    a = _first_at(p, m - 1, i + 1)
                    ok = False
                    if a is not None and a < j:
                        b = _first_at(p, k + 1, a + 1)
                        ok = b is not None and b < j
                    if not ok:
                        return (k, m, i + 1, j + 1)
    return None


def reference_is_crooked(p, n_coarse):
    """(ok, counterexample) of the nested loop on p, then on its
    reflection n_coarse + 1 - p with the values mapped back."""
    bad = _upward_reference(p, n_coarse)
    if bad is None:
        bad = _upward_reference(tuple(n_coarse + 1 - v for v in p), n_coarse)
        if bad is not None:
            k, m, i, j = bad
            bad = (n_coarse + 1 - k, n_coarse + 1 - m, i, j)
    return bad is None, bad


def last_occurrence_crooked(p, n_coarse):
    """Verdict from previous-occurrence tables, O(n_coarse * len).

    At each j with value m and each k with |k - m| >= 3 seen before j,
    take i the last k before j, b the last k +/- 1 (the neighbour towards
    m) before j, and a the last m -/+ 1 (the neighbour towards k) before
    b; every run from k to this j zigzags exactly when i < a < b.
    """
    last = [-1] * (n_coarse + 2)
    before = []  # before[j]: the last position < j of each value
    for j, m in enumerate(p):
        before.append(last[:])
        for k in range(1, n_coarse + 1):
            i = last[k]
            if abs(k - m) < 3 or i < 0:
                continue
            step = 1 if m > k else -1
            b = last[k + step]
            if b < i or before[b][m - step] < i:
                return False
        last[m] = j
    return True


def reference_search(n_coarse, length):
    """The first search: every walk, each full leaf checked."""
    def rec(prefix):
        if len(prefix) == length:
            if prefix[-1] != n_coarse:
                return None
            pat = tuple(prefix)
            spans = set(pat) == set(range(1, n_coarse + 1))
            return pat if spans and reference_is_crooked(
                pat, n_coarse)[0] else None
        for nxt in (prefix[-1] - 1, prefix[-1], prefix[-1] + 1):
            if 1 <= nxt <= n_coarse and n_coarse - nxt < length - len(prefix):
                got = rec(prefix + [nxt])
                if got is not None:
                    return got
        return None

    return rec([1])


def _walks(n_coarse, length):
    """Every walk of ``length`` values in 1..n_coarse, steps -1, 0, +1."""
    walks = [(v,) for v in range(1, n_coarse + 1)]
    for _ in range(length - 1):
        walks = [w + (w[-1] + d,) for w in walks for d in (-1, 0, 1)
                 if 1 <= w[-1] + d <= n_coarse]
    return walks


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


@pytest.mark.parametrize("n", range(1, 13))
def test_generated_patterns_are_crooked(n):
    # a scale ladder up to 5,742 links at n = 12
    pat = generate_crooked_pattern(n)
    assert last_occurrence_crooked(pat.assignment, n)
    assert is_crooked(pat).ok


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


def test_downward_runs_are_checked():
    rep = is_crooked(RefinementPattern(assignment=(4, 3, 2, 1), n_coarse=4))
    assert (rep.ok, rep.counterexample) == (False, (4, 1, 1, 4))
    # spanning, with the straight descent 4 -> 1 at links 6..9
    walk = (1, 2, 3, 2, 3, 4, 3, 2, 1, 2, 3, 2, 3, 4)
    rep = is_crooked(RefinementPattern(assignment=walk, n_coarse=4))
    assert (rep.ok, rep.counterexample) == (False, (4, 1, 6, 9))


def test_verifier_matches_reference_on_every_short_walk():
    # also the search's prefix summaries: a walk survives them exactly
    # when it is crooked
    count = 0
    for n_coarse in range(1, 7):
        pairs = _zigzag_pairs(n_coarse)
        summary = {(): (0, (0,) * len(pairs))}
        for length in range(1, 10):
            for walk in _walks(n_coarse, length):
                rep = is_crooked(RefinementPattern(assignment=walk,
                                                   n_coarse=n_coarse))
                want = reference_is_crooked(walk, n_coarse)
                assert (rep.ok, rep.counterexample) == want, walk
                assert last_occurrence_crooked(walk, n_coarse) == want[0]
                before = summary[walk[:-1]]
                summary[walk] = (None if before is None else
                                 _zigzag_step(pairs, before, walk[-1]))
                assert (summary[walk] is not None) == want[0], walk
                count += 1
    assert count == 75451


@st.composite
def long_walks(draw):
    """Walks of up to 40 values in 1..n_coarse <= 8: random walks, and
    generated crooked patterns stuttered, reflected or cut and continued
    at random, so that crooked and near-crooked walks both occur."""
    n_coarse = draw(st.integers(min_value=1, max_value=8))
    length = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()) and n_coarse <= 6:
        walk = []
        for v in generate_crooked_pattern(n_coarse).assignment:
            walk.extend([v] * draw(st.integers(min_value=1, max_value=2)))
        walk = walk[:draw(st.integers(min_value=1, max_value=length))]
        if draw(st.booleans()):
            walk = [n_coarse + 1 - v for v in walk]
    else:
        walk = [draw(st.integers(min_value=1, max_value=n_coarse))]
    rest = length - len(walk)
    for d in draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=rest,
                           max_size=rest)):
        walk.append(min(max(walk[-1] + d, 1), n_coarse))
    return n_coarse, tuple(walk)


@settings(max_examples=300, deadline=None)
@given(long_walks())
def test_verifier_matches_reference_on_long_walks(case):
    n_coarse, walk = case
    rep = is_crooked(RefinementPattern(assignment=walk, n_coarse=n_coarse))
    assert (rep.ok, rep.counterexample) == reference_is_crooked(walk,
                                                                n_coarse)


def test_minimal_spanning_crooked_length():
    length, pattern = minimal_spanning_crooked_length(4)
    assert length == 6
    assert is_crooked(pattern).ok
    assert len(pattern) == 6


def test_minimal_lengths_small_cases():
    assert minimal_spanning_crooked_length(1)[0] == 1
    assert minimal_spanning_crooked_length(2)[0] == 2
    assert minimal_spanning_crooked_length(3)[0] == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_pruned_search_matches_the_unpruned_search(n, monkeypatch):
    length = next(l for l in range(1, 17) if reference_search(n, l))
    got_length, got = minimal_spanning_crooked_length(n)
    assert got_length == length
    assert got.assignment == reference_search(n, length)
    assert got.assignment == generate_crooked_pattern(n).assignment
    if n == 5:
        assert got.assignment == (1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 3, 4, 5)
    monkeypatch.setattr(chains, "MAX_SEARCH_LENGTH", length - 1)
    assert chains._search_patterns(n) is None


@pytest.mark.parametrize("n", [6, 7, 8])
def test_generated_patterns_are_minimal_beyond_five(n, monkeypatch):
    # the fold recurrence's 30, 71 and 170 links are the least, and the first
    # minimal pattern in search order is the generated one
    length = crooked_pattern_length(n)
    monkeypatch.setattr(chains, "MAX_SEARCH_LENGTH", length)
    got_length, got = minimal_spanning_crooked_length(n)
    assert got_length == length
    assert got.assignment == generate_crooked_pattern(n).assignment
    monkeypatch.setattr(chains, "MAX_SEARCH_LENGTH", length - 1)
    with pytest.raises(DomainError, match=f"length <= {length - 1}"):
        minimal_spanning_crooked_length(n)


@pytest.mark.parametrize("n", [0, -2])
def test_minimal_search_refuses_fewer_than_one_coarse_link(n):
    with pytest.raises(DomainError, match=r"^need n_coarse >= 1$"):
        minimal_spanning_crooked_length(n)


def test_pattern_json_roundtrip():
    pat = generate_crooked_pattern(5)
    again = pattern_from_json(pattern_to_json(pat))
    assert again.assignment == pat.assignment
    assert again.n_coarse == pat.n_coarse
    json.loads(pattern_to_json(pat))  # valid JSON


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
    rep = verify_chain(chain)
    assert rep.ok
    # widest link spans 3 x 1 cells; diameter is corner to corner
    assert rep.mesh == pytest.approx(0.1 * (10 ** 0.5), abs=1e-12)


def test_verify_chain_rejects_gap():
    chain = Chain(links=[_bar(1, 0, 2), _bar(2, 3, 5)])
    rep = verify_chain(chain)
    assert not rep.ok
    assert any("do not meet" in f for f in rep.failures)


def test_verify_chain_rejects_skip_intersection():
    chain = Chain(links=[_bar(1, 0, 5), _bar(2, 2, 7), _bar(3, 4, 9)])
    rep = verify_chain(chain)
    assert not rep.ok
    assert any("not adjacent" in f for f in rep.failures)


def test_verify_chain_edge_adjacency_is_disjoint():
    # sharing only an edge (no common cell) must count as a gap
    chain = Chain(links=[_bar(1, 0, 2), _bar(2, 2, 4)])
    rep = verify_chain(chain)
    assert any("do not meet" in f for f in rep.failures)


def test_verify_chain_reports_the_mesh_and_bounds_none():
    # one 100 x 1 cell bar: its diameter is sqrt(100^2 + 1)
    chain = Chain(links=[_bar(1, 0, 100)])
    assert verify_chain(chain) == ChainReport(ok=True,
                                              mesh=math.hypot(100, 1))


def test_link_needs_a_rect():
    with pytest.raises(DomainError, match="link 1 has no rects"):
        Link(1, ())


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


def test_mesh_leaves_scipy_spatial_unloaded(loaded_modules):
    # the crookedness kernels too: chains loads neither numpy nor scipy
    code = ("from continuum_lab.chains import (Chain, Link, Rect,\n"
            "    generate_crooked_pattern, is_crooked,\n"
            "    minimal_spanning_crooked_length)\n"
            f"rects = {FIVE_RECTS!r}\n"
            "Chain(links=[Link(index=1, rects=rects)]).mesh()\n"
            "is_crooked(generate_crooked_pattern(6))\n"
            "minimal_spanning_crooked_length(5)\n")
    assert not {m for m in loaded_modules(code)
                if m.split(".")[0] in ("numpy", "scipy")}


def test_rect_validation():
    with pytest.raises(DomainError):
        Rect(3, 3, 0, 1)
    with pytest.raises(DomainError):
        Rect(0, 1, 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_generator_output_passes_exhaustive_verifier(n):
    assert is_crooked(generate_crooked_pattern(n)).ok


def test_pattern_lengths_at_least_double():
    # the generator's cap test skips the recurrence past this bound
    assert all(crooked_pattern_length(n) >= 2 ** (n - 2)
               for n in range(1, 60))


@pytest.mark.parametrize("cap, largest", [(1, 1), (2, 2), (5, 3),
                                          (100, 7), (170, 8)])
def test_generator_refuses_patterns_over_the_cap(cap, largest,
                                                 monkeypatch):
    monkeypatch.setenv("CONTINUUM_LAB_MAX_ELEMENTS", str(cap))
    assert len(generate_crooked_pattern(largest)) <= cap
    for n in (largest + 1, largest + 40):
        with pytest.raises(ResourceError,
                           match=f"has more than {cap} links"):
            generate_crooked_pattern(n)
