"""Chains, refinement patterns, and crookedness.

A chain is a finite sequence of links where links meet exactly when their
indices are adjacent.  Links are unions of axis-aligned grid-cell
rectangles at a common cell size; two links intersect when they share a
cell, and a link's closure adds the one-cell dilation of its cells.

A refinement pattern records, for each link of a fine chain, the index of
the coarse link containing its closure.  Crookedness of the pattern is the
combinatorial zigzag condition, in both directions: whenever the fine chain
runs from coarse link k to coarse link m with |m - k| >= 3, it must first
reach the neighbour of m and then return to the neighbour of k strictly in
between (m - 1, then k + 1 on a run up; m + 1, then k - 1 on a run down).
``is_crooked`` decides it from next-occurrence tables in
O(n_coarse * len).  The minimal spanning search cuts a prefix as soon as
it closes a run that misses the zigzag, and treats prefixes with the same
summary of open runs as one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, ResourceError, _max_elements


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle of grid cells: columns [c0, c1), rows [r0, r1)."""

    c0: int
    c1: int
    r0: int
    r1: int

    def __post_init__(self):
        if self.c0 >= self.c1 or self.r0 >= self.r1:
            raise DomainError(f"empty rect {self}")

    def intersects(self, other: "Rect") -> bool:
        return (self.c0 < other.c1 and other.c0 < self.c1 and
                self.r0 < other.r1 and other.r0 < self.r1)

    def dilate(self) -> "Rect":
        """The rectangle grown by one cell on every side."""
        return Rect(self.c0 - 1, self.c1 + 1, self.r0 - 1, self.r1 + 1)

    def corners(self) -> List[Tuple[int, int]]:
        return [(self.c0, self.r0), (self.c0, self.r1),
                (self.c1, self.r0), (self.c1, self.r1)]


def rects_intersect(a: Sequence[Rect], b: Sequence[Rect]) -> bool:
    return any(ra.intersects(rb) for ra in a for rb in b)


def rects_contain(inner: Sequence[Rect], outer: Sequence[Rect]) -> bool:
    """Every cell of ``inner`` lies in some rect of ``outer``."""
    for r in inner:
        if not _rect_covered(r, list(outer)):
            return False
    return True


def _rect_covered(r: Rect, cover: List[Rect]) -> bool:
    pending = [r]
    while pending:
        cur = pending.pop()
        hit = None
        for c in cover:
            if c.intersects(cur):
                hit = c
                break
        if hit is None:
            return False
        # split the uncovered remainder of cur around hit
        if cur.c0 < hit.c0:
            pending.append(Rect(cur.c0, hit.c0, cur.r0, cur.r1))
            cur = Rect(hit.c0, cur.c1, cur.r0, cur.r1)
        if cur.c1 > hit.c1:
            pending.append(Rect(hit.c1, cur.c1, cur.r0, cur.r1))
            cur = Rect(cur.c0, hit.c1, cur.r0, cur.r1)
        if cur.r0 < hit.r0:
            pending.append(Rect(cur.c0, cur.c1, cur.r0, hit.r0))
            cur = Rect(cur.c0, cur.c1, hit.r0, cur.r1)
        if cur.r1 > hit.r1:
            pending.append(Rect(cur.c0, cur.c1, hit.r1, cur.r1))
    return True


def rects_diameter(rects: Sequence[Rect], cell_size: float) -> float:
    """Exact diameter of the closed union: the farthest pair of corners.

    Corners are integers, so the squared distances are exact and the one
    square root is correctly rounded.
    """
    pts = [c for r in rects for c in r.corners()]
    far = max((a - c) ** 2 + (b - d) ** 2 for a, b in pts for c, d in pts)
    return math.sqrt(far) * cell_size


def rects_connected(rects: Sequence[Rect]) -> bool:
    """Connectivity of the cell set, rect overlap or edge adjacency."""
    n = len(rects)
    if n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and rects[i].dilate().intersects(rects[j]):
                a, b = rects[i], rects[j]
                col_touch = a.c0 <= b.c1 and b.c0 <= a.c1
                row_touch = a.r0 <= b.r1 and b.r0 <= a.r1
                col_over = a.c0 < b.c1 and b.c0 < a.c1
                row_over = a.r0 < b.r1 and b.r0 < a.r1
                # share an edge of positive length, not just a corner
                if (col_over and row_touch) or (row_over and col_touch):
                    seen.add(j)
                    stack.append(j)
    return len(seen) == n


@dataclass(frozen=True)
class Link:
    """One chain link: a non-empty union of cell rectangles."""

    index: int
    rects: Tuple[Rect, ...]

    def __post_init__(self):
        if not self.rects:
            raise DomainError(f"link {self.index} has no rects")


@dataclass
class Chain:
    """A sequence of links; adjacency must hold exactly for |k - l| <= 1."""

    links: List[Link]
    cell_size: float = 1.0

    def __post_init__(self):
        if not self.links:
            raise DomainError("chain needs at least one link")
        if self.cell_size <= 0:
            raise DomainError("cell size must be positive")

    def __len__(self) -> int:
        return len(self.links)

    def mesh(self) -> float:
        return max(rects_diameter(l.rects, self.cell_size) for l in self.links)

    def to_json(self) -> str:
        obj = {
            "cell_size": self.cell_size,
            "links": [
                {"index": l.index,
                 "rects": [[r.c0, r.c1, r.r0, r.r1] for r in l.rects]}
                for l in self.links],
        }
        return json.dumps(obj, sort_keys=True)


@dataclass
class ChainReport:
    ok: bool
    mesh: float
    failures: List[str] = field(default_factory=list)


def verify_chain(chain: Chain) -> ChainReport:
    """Check the link structure of a chain and report its mesh.

    Links must intersect exactly when their indices differ by at most one,
    and each link must be a connected cell region.  The mesh is reported,
    not bounded: ``realize.build_tower`` refuses a level n whose mesh is
    not below 2^-n.
    """
    failures: List[str] = []
    n = len(chain)
    for i in range(n):
        if not rects_connected(chain.links[i].rects):
            failures.append(f"link {i} is not connected")
    for i in range(n):
        for j in range(i + 1, n):
            meets = rects_intersect(chain.links[i].rects, chain.links[j].rects)
            if j == i + 1 and not meets:
                failures.append(f"links {i} and {j} do not meet")
            if j > i + 1 and meets:
                failures.append(f"links {i} and {j} meet but are not adjacent")
    return ChainReport(ok=not failures, mesh=chain.mesh(), failures=failures)


# ---------------------------------------------------------------------------
# refinement patterns and crookedness


@dataclass(frozen=True)
class RefinementPattern:
    """Assignment of fine links to coarse links, 1-based on both sides."""

    assignment: Tuple[int, ...]
    n_coarse: int

    def __post_init__(self):
        p = self.assignment
        if not p:
            raise DomainError("pattern must be non-empty")
        if any(not (1 <= v <= self.n_coarse) for v in p):
            raise DomainError("pattern values must lie in 1..n_coarse")
        if any(abs(a - b) > 1 for a, b in zip(p, p[1:])):
            raise DomainError("consecutive pattern values must differ by <= 1")

    def __len__(self) -> int:
        return len(self.assignment)

    @property
    def spans(self) -> bool:
        p = self.assignment
        return (p[0] == 1 and p[-1] == self.n_coarse and
                set(p) == set(range(1, self.n_coarse + 1)))


@dataclass(frozen=True)
class CrookednessReport:
    ok: bool
    counterexample: Optional[Tuple[int, int, int, int]] = None  # (k, m, i, j)


def is_crooked(pattern: RefinementPattern) -> CrookednessReport:
    """Decide the zigzag condition in both directions; 1-based
    counterexample (k, m, i, j).

    For each coarse pair k, m with |m - k| >= 3 and each fine pair i < j
    with assignment k at i and m at j, there must be i < i* < i^ < j
    hitting m -/+ 1 at i* and then k +/- 1 at i^ (upper signs for an
    upward run, m > k).

    Runs up are checked first, in the order (k, m, i) of a loop over
    k < m and the positions i of k, and the first failure is reported with
    the first j > i at m.  Then the same check runs on the reflected
    pattern n_coarse + 1 - p, and a failure there is reported in the
    original values, so k > m.  Cost O(n_coarse * len).
    """
    n = pattern.n_coarse
    p = pattern.assignment
    bad = _first_upward_violation(p, n)
    if bad is None:
        bad = _first_upward_violation(tuple(n + 1 - v for v in p), n)
        if bad is not None:
            k, m, i, j = bad
            bad = (n + 1 - k, n + 1 - m, i, j)
    return CrookednessReport(ok=bad is None, counterexample=bad)


def _first_upward_violation(p: Sequence[int], n_coarse: int
                            ) -> Optional[Tuple[int, int, int, int]]:
    """First (k, m, i, j), 1-based, of a run up from k to m >= k + 3 that
    does not reach m - 1 and then k + 1 strictly in between, or None.

    For a position i of k only the first j > i at m matters: a later j
    keeps every witness of an earlier one.  With a the first m - 1 after
    i and b the first k + 1 after a, that j fails exactly when j < b (no
    a or no b counting as past the end).
    """
    npat = len(p)
    positions: List[List[int]] = [[] for _ in range(n_coarse + 1)]
    for idx, v in enumerate(p):
        positions[v].append(idx)
    # nxt[v][s]: the first idx >= s with p[idx] == v, else npat
    nxt: List[List[int]] = [[]]
    for v in range(1, n_coarse + 1):
        row = [npat] * (npat + 2)
        start = 0
        for idx in positions[v]:
            row[start:idx + 1] = [idx] * (idx + 1 - start)
            start = idx + 1
        nxt.append(row)
    for k in range(1, n_coarse - 2):
        after_k = nxt[k + 1]
        for m in range(k + 3, n_coarse + 1):
            at_m, below_m = nxt[m], nxt[m - 1]
            for i in positions[k]:
                j = at_m[i + 1]
                if j == npat:
                    break  # no m after this or any later position of k
                if j < after_k[below_m[i + 1] + 1]:
                    return (k, m, i + 1, j + 1)
    return None


def generate_crooked_pattern(n_coarse: int) -> RefinementPattern:
    """Deterministic spanning crooked pattern on ``n_coarse`` links.

    Recursive folding: a run from a to b first runs to b -/+ 1, doubles back
    to a +/- 1, then finishes; spans of at most three links are monotone.
    Lengths grow 1, 2, 3, 6, 13, 30, ...; the pattern is the first
    minimal spanning crooked pattern that ``minimal_spanning_crooked_length``
    finds for n <= 5, and for n <= 8 with its search length raised (the
    tests pin both; n = 9 and 10 were checked once the same way).  A
    pattern over the element cap is refused before any of it is built.
    """
    cap = _max_elements()
    # lengths are at least 2^(n-2), so a larger n needs no recurrence
    if (n_coarse > cap.bit_length() + 1
            or crooked_pattern_length(n_coarse) > cap):
        raise ResourceError(f"crooked pattern on {n_coarse} coarse links "
                            f"has more than {cap} links")

    def fold(a: int, b: int) -> List[int]:
        if abs(b - a) <= 2:
            step = 1 if b >= a else -1
            return list(range(a, b + step, step))
        d = 1 if b > a else -1
        part1 = fold(a, b - d)
        part2 = fold(b - d, a + d)
        part3 = fold(a + d, b)
        return part1 + part2[1:] + part3[1:]

    return RefinementPattern(assignment=tuple(fold(1, n_coarse)),
                             n_coarse=n_coarse)


def crooked_pattern_length(n_coarse: int) -> int:
    """``len(generate_crooked_pattern(n_coarse))``, without building it.

    A fold over span d = n_coarse - 1 has length
    l(d) = 2 l(d-1) + l(d-2) - 2, from l(-1) = 2 and l(0) = 1.
    """
    if n_coarse < 1:
        raise DomainError("need n_coarse >= 1")
    prev, cur = 2, 1
    for _ in range(n_coarse - 1):
        prev, cur = cur, 2 * cur + prev - 2
    return cur


def pattern_to_json(pattern: RefinementPattern) -> str:
    return json.dumps({"pattern": list(pattern.assignment),
                       "n_coarse": pattern.n_coarse}, sort_keys=True)


def pattern_from_json(text: str) -> RefinementPattern:
    obj = json.loads(text)
    return RefinementPattern(assignment=tuple(obj["pattern"]),
                             n_coarse=int(obj["n_coarse"]))


# The longest pattern the exhaustive search tries.
MAX_SEARCH_LENGTH = 16


def minimal_spanning_crooked_length(n_coarse: int
                                    ) -> Tuple[int, RefinementPattern]:
    """Exhaustive search for the shortest spanning crooked pattern.

    Searches every adjacency-respecting sequence from 1 to n_coarse up to
    ``MAX_SEARCH_LENGTH`` entries and returns the first crooked spanning
    pattern of minimal length, in the depth-first order of steps -1, 0,
    +1.  Independent of the recursive generator; the pattern returned is
    certified by ``is_crooked``.
    """
    if n_coarse < 1:
        raise DomainError("need n_coarse >= 1")
    found = _search_patterns(n_coarse)
    if found is None:
        raise DomainError(f"no spanning crooked pattern of length <= "
                          f"{MAX_SEARCH_LENGTH}")
    pattern = RefinementPattern(assignment=found, n_coarse=n_coarse)
    if not (pattern.spans and is_crooked(pattern).ok):
        raise DomainError("internal: searched pattern is not crooked")
    return len(found), pattern


# A walk's prefix, for the search, is its last value and one stage per
# coarse pair (k, m) with |m - k| >= 3 of the run from the last k towards
# m: 0 no k yet, 1 at k, 2 past the neighbour of m, 3 back at the
# neighbour of k.  Prefixes with one summary have the same crooked
# completions.

_ZigzagState = Tuple[int, Tuple[int, ...]]


def _zigzag_pairs(n_coarse: int) -> List[Tuple[int, int]]:
    return [(k, m) for k in range(1, n_coarse + 1)
            for m in range(1, n_coarse + 1) if abs(m - k) >= 3]


def _zigzag_step(pairs: Sequence[Tuple[int, int]], state: _ZigzagState,
                 x: int) -> Optional[_ZigzagState]:
    """The summary after appending ``x``, or None when ``x`` closes a run
    that missed the zigzag.  The empty walk is ``(0, (0,) * len(pairs))``.
    """
    stages = []
    for (k, m), stage in zip(pairs, state[1]):
        if x == m and stage in (1, 2):
            return None
        toward = 1 if m > k else -1
        if x == k:
            stage = 1
        elif stage == 1 and x == m - toward:
            stage = 2
        elif stage == 2 and x == k + toward:
            stage = 3
        stages.append(stage)
    return (x, tuple(stages))


def _search_patterns(n_coarse: int) -> Optional[Tuple[int, ...]]:
    """First spanning crooked pattern of the least length <=
    ``MAX_SEARCH_LENGTH``, depth first with steps -1, 0, +1 in that order,
    or None.

    A prefix is cut as soon as its newest entry closes a run (up or down)
    that misses the zigzag: the failure is decided by the prefix, so no
    completion is crooked.  The search runs over prefix summaries: the
    summaries reachable at each length, forwards until one ends at
    n_coarse; backwards, the ones that still end there; then the first
    step, in depth-first order, that stays among them.
    """
    pairs = _zigzag_pairs(n_coarse)
    moves = {}

    def children(state: _ZigzagState) -> List[Tuple[int, _ZigzagState]]:
        if state not in moves:
            here = state[0]
            steps = [(x, _zigzag_step(pairs, state, x))
                     for x in (here - 1, here, here + 1)
                     if 1 <= x <= n_coarse]
            moves[state] = [(x, nxt) for x, nxt in steps if nxt is not None]
        return moves[state]

    start = _zigzag_step(pairs, (0, (0,) * len(pairs)), 1)
    layers = [{start}]
    while len(layers) <= MAX_SEARCH_LENGTH:
        if any(state[0] == n_coarse for state in layers[-1]):
            break
        layers.append({nxt for state in layers[-1]
                       for _, nxt in children(state)})
    else:
        return None
    alive = [{state for state in layers[-1] if state[0] == n_coarse}]
    for layer in reversed(layers[:-1]):
        alive.append({state for state in layer
                      if any(nxt in alive[-1] for _, nxt in children(state))})
    alive.reverse()
    walk, state = [1], start
    for depth in range(1, len(layers)):
        x, state = next((x, nxt) for x, nxt in children(state)
                        if nxt in alive[depth])
        walk.append(x)
    return tuple(walk)
