"""Chains, refinement patterns, and crookedness.

A chain is a finite sequence of links where links meet exactly when their
indices are adjacent.  Geometric links are unions of axis-aligned grid-cell
rectangles at a common cell size; two links intersect when they share a
cell, and a link's closure adds the one-cell dilation of its cells.

A refinement pattern records, for each link of a fine chain, the index of
the coarse link containing its closure.  Crookedness of the pattern is the
combinatorial zigzag condition: whenever the fine chain runs from coarse
link k to coarse link m with m >= k + 3, it must first reach m - 1 and then
return to k + 1 strictly in between.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError

Cell = Tuple[int, int]


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

    def dilate(self, pad: int = 1) -> "Rect":
        return Rect(self.c0 - pad, self.c1 + pad, self.r0 - pad, self.r1 + pad)

    def corners(self) -> List[Tuple[int, int]]:
        return [(self.c0, self.r0), (self.c0, self.r1),
                (self.c1, self.r0), (self.c1, self.r1)]

    @property
    def n_cells(self) -> int:
        return (self.c1 - self.c0) * (self.r1 - self.r0)

    def cells(self) -> Iterable[Cell]:
        for c in range(self.c0, self.c1):
            for r in range(self.r0, self.r1):
                yield (c, r)


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
    """Exact diameter of the closed union, from rect corner extremes."""
    pts = np.array([c for r in rects for c in r.corners()], dtype=float)
    if len(pts) > 8:
        from scipy.spatial import ConvexHull
        try:
            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            pass  # degenerate (collinear) input: brute force below
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max()) * cell_size


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
            if j not in seen and rects[i].dilate(1).intersects(rects[j]):
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
    """One chain link: a union of cell rectangles (empty when abstract)."""

    index: int
    rects: Tuple[Rect, ...] = ()

    @property
    def is_geometric(self) -> bool:
        return len(self.rects) > 0


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

    @property
    def is_geometric(self) -> bool:
        return all(l.is_geometric for l in self.links)

    def mesh(self) -> float:
        if not self.is_geometric:
            raise DomainError("mesh needs a geometric chain")
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

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        obj = json.loads(text)
        links = [Link(index=l["index"],
                      rects=tuple(Rect(*r) for r in l["rects"]))
                 for l in obj["links"]]
        return cls(links=links, cell_size=float(obj["cell_size"]))


@dataclass
class ChainReport:
    ok: bool
    mesh: float
    failures: List[str] = field(default_factory=list)


def verify_chain(chain: Chain, eps: float) -> ChainReport:
    """Check the epsilon-chain conditions for a geometric chain.

    Links must intersect exactly when their indices differ by at most one,
    each link must be a connected cell region, and every diameter must be
    strictly below ``eps``.
    """
    if not chain.is_geometric:
        raise DomainError("verify_chain needs geometric links")
    if eps <= 0:
        raise DomainError("eps must be positive")
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
    mesh = chain.mesh()
    if mesh >= eps:
        failures.append(f"mesh {mesh} is not below eps {eps}")
    return ChainReport(ok=not failures, mesh=mesh, failures=failures)


# ---------------------------------------------------------------------------
# refinement patterns and crookedness


@dataclass(frozen=True)
class RefinementPattern:
    """Assignment of fine links to coarse links, 1-based on both sides.

    ``containment`` flags record that the closure of each fine link lies in
    its assigned coarse link; abstract patterns assert this by construction.
    """

    assignment: Tuple[int, ...]
    n_coarse: int
    containment: Tuple[bool, ...] = ()

    def __post_init__(self):
        p = self.assignment
        if not p:
            raise DomainError("pattern must be non-empty")
        if any(not (1 <= v <= self.n_coarse) for v in p):
            raise DomainError("pattern values must lie in 1..n_coarse")
        if any(abs(a - b) > 1 for a, b in zip(p, p[1:])):
            raise DomainError("consecutive pattern values must differ by <= 1")
        if not self.containment:
            object.__setattr__(self, "containment", tuple([True] * len(p)))
        if len(self.containment) != len(p):
            raise DomainError("one containment flag per fine link required")

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
    """Decide the zigzag condition; 1-based counterexample (k, m, i, j).

    Requires every containment flag to hold (a pattern that fails condition
    (1) has no crookedness verdict).  For each coarse pair k, m with
    m >= k + 3 and each fine pair i < j with assignment k at i and m at j,
    there must be i < i* < i^ < j hitting m - 1 at i* and k + 1 at i^.
    """
    if not all(pattern.containment):
        raise DomainError("crookedness requires all containment flags true")
    p = pattern.assignment
    npat = len(p)
    positions = {}
    for idx, v in enumerate(p):
        positions.setdefault(v, []).append(idx)
    for k in range(1, pattern.n_coarse + 1):
        for m in range(k + 3, pattern.n_coarse + 1):
            pos_k = positions.get(k, [])
            pos_m = positions.get(m, [])
            for i in pos_k:
                for j in pos_m:
                    if j <= i:
                        continue
                    a = _first_at(p, m - 1, i + 1, npat)
                    ok = False
                    if a is not None and a < j:
                        b = _first_at(p, k + 1, a + 1, npat)
                        ok = b is not None and b < j
                    if not ok:
                        return CrookednessReport(
                            ok=False, counterexample=(k, m, i + 1, j + 1))
    return CrookednessReport(ok=True)


def _first_at(p: Sequence[int], value: int, start: int, n: int) -> Optional[int]:
    for idx in range(start, n):
        if p[idx] == value:
            return idx
    return None


def generate_crooked_pattern(n_coarse: int) -> RefinementPattern:
    """Deterministic spanning crooked pattern on ``n_coarse`` links.

    Recursive folding: a run from a to b first runs to b -/+ 1, doubles back
    to a +/- 1, then finishes; spans of at most three links are monotone.
    Lengths grow 1, 2, 3, 6, 13, 30, ... and are minimal for n <= 4.
    """
    if n_coarse < 1:
        raise DomainError("need n_coarse >= 1")

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


def repeat_pattern(pattern: RefinementPattern, times: int) -> RefinementPattern:
    """Repeat each entry ``times`` times; preserves crookedness and span."""
    if times < 1:
        raise DomainError("repeat count must be >= 1")
    out: List[int] = []
    for v in pattern.assignment:
        out.extend([v] * times)
    return RefinementPattern(assignment=tuple(out), n_coarse=pattern.n_coarse)


def pattern_to_json(pattern: RefinementPattern) -> str:
    return json.dumps({"pattern": list(pattern.assignment),
                       "n_coarse": pattern.n_coarse}, sort_keys=True)


def pattern_from_json(text: str) -> RefinementPattern:
    obj = json.loads(text)
    return RefinementPattern(assignment=tuple(obj["pattern"]),
                             n_coarse=int(obj["n_coarse"]))


def minimal_spanning_crooked_length(n_coarse: int, max_len: int = 16
                                    ) -> Tuple[int, RefinementPattern]:
    """Exhaustive search for the shortest spanning crooked pattern.

    Enumerates every adjacency-respecting sequence from 1 to n_coarse up to
    ``max_len`` entries and returns the first crooked spanning pattern of
    minimal length.  Independent of the recursive generator.
    """
    for length in range(1, max_len + 1):
        found = _search_patterns(n_coarse, length)
        if found is not None:
            return length, found
    raise DomainError(f"no spanning crooked pattern of length <= {max_len}")


def _search_patterns(n_coarse: int, length: int) -> Optional[RefinementPattern]:
    def rec(prefix: List[int]) -> Optional[RefinementPattern]:
        if len(prefix) == length:
            if prefix[-1] != n_coarse:
                return None
            pat = RefinementPattern(assignment=tuple(prefix),
                                    n_coarse=n_coarse)
            if pat.spans and is_crooked(pat).ok:
                return pat
            return None
        last = prefix[-1]
        for nxt in (last - 1, last, last + 1):
            if 1 <= nxt <= n_coarse:
                # prune: must still be able to reach n_coarse in time
                remaining = length - len(prefix) - 1
                if n_coarse - nxt <= remaining:
                    got = rec(prefix + [nxt])
                    if got is not None:
                        return got
        return None

    return rec([1])
