"""Finite graph models of continua and their hyperspaces.

A :class:`GraphContinuum` is a connected graph with a deterministic planar
embedding.  Its "subcontinua" are the connected vertex sets; the containment
poset of those sets is the finite stand-in for the hyperspace of a continuum.

Also provided: order arcs between nested subcontinua, terminal-subcontinuum
and triod detection, and the two classic hyperspace homeomorphisms
(interval -> triangle, circle -> disk).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceError

MAX_ELEMENTS_ENV = "CONTINUUM_LAB_MAX_ELEMENTS"
DEFAULT_MAX_ELEMENTS = 200_000
MAX_ORDER_ARCS = 1_000_000


def _max_elements() -> int:
    raw = os.environ.get(MAX_ELEMENTS_ENV)
    return int(raw) if raw else DEFAULT_MAX_ELEMENTS


@dataclass(frozen=True)
class GraphContinuum:
    """Connected graph with a planar embedding; vertices are 0..n-1."""

    n: int
    edges: Tuple[Tuple[int, int], ...]
    pos: Tuple[Tuple[float, float], ...]
    kind: str = "custom"

    def __post_init__(self):
        if self.n <= 0:
            raise DomainError("graph must have at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise DomainError(f"bad edge ({u}, {v})")
        if len(self.pos) != self.n:
            raise DomainError("one position per vertex required")
        if not self.is_connected(frozenset(range(self.n))):
            raise DomainError("graph must be connected")

    @property
    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        adj: Dict[int, set] = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def is_connected(self, vertices: FrozenSet[int]) -> bool:
        if not vertices:
            return False
        adj: Dict[int, set] = {v: set() for v in vertices}
        for u, v in self.edges:
            if u in adj and v in adj:
                adj[u].add(v)
                adj[v].add(u)
        start = min(vertices)
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vertices)

    def neighbors_of_set(self, vertices: FrozenSet[int]) -> FrozenSet[int]:
        adj = self.adjacency
        out: set = set()
        for v in vertices:
            out |= adj[v]
        return frozenset(out - vertices)

    def point_coordinates(self, vertices: Sequence[int]) -> np.ndarray:
        return np.array([self.pos[v] for v in sorted(vertices)], dtype=float)


# ---------------------------------------------------------------------------
# constructors


_KIND_PARAMS = {"path": {"n"}, "cycle": {"n"},
                "star": {"legs", "leg_length"}, "cantor_fan": {"depth"}}


def build_continuum(kind: str, **params) -> GraphContinuum:
    """Build a named continuum model: path, cycle, star, or cantor_fan."""
    if kind not in _KIND_PARAMS:
        raise DomainError(f"unknown continuum kind: {kind!r}")
    unknown = sorted(set(params) - _KIND_PARAMS[kind])
    if unknown:
        raise DomainError(f"unknown {kind} parameters: {unknown}")
    if kind == "path":
        n = int(params.get("n", 2))
        if n < 1:
            raise DomainError("path needs n >= 1")
        edges = tuple((i, i + 1) for i in range(n - 1))
        pos = tuple((float(i), 0.0) for i in range(n))
        return GraphContinuum(n=n, edges=edges, pos=pos, kind=f"path-{n}")
    if kind == "cycle":
        n = int(params.get("n", 3))
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        edges = tuple((i, (i + 1) % n) for i in range(n))
        pos = tuple((math.cos(2 * math.pi * i / n),
                     math.sin(2 * math.pi * i / n)) for i in range(n))
        return GraphContinuum(n=n, edges=edges, pos=pos, kind=f"cycle-{n}")
    if kind == "star":
        legs = int(params.get("legs", 3))
        leg_length = int(params.get("leg_length", 1))
        if legs < 3 or leg_length < 1:
            raise DomainError("star needs legs >= 3 and leg_length >= 1")
        edges: List[Tuple[int, int]] = []
        pos = [(0.0, 0.0)]
        idx = 1
        for leg in range(legs):
            ang = 2 * math.pi * leg / legs
            prev = 0
            for step in range(1, leg_length + 1):
                pos.append((step * math.cos(ang) / leg_length,
                            step * math.sin(ang) / leg_length))
                edges.append((prev, idx))
                prev = idx
                idx += 1
        return GraphContinuum(n=idx, edges=tuple(edges), pos=tuple(pos),
                              kind=f"star-{legs}x{leg_length}")
    depth = int(params.get("depth", 1))
    if depth < 1:
        raise DomainError("cantor_fan needs depth >= 1")
    return _cantor_fan(depth)


def _cantor_fan(depth: int) -> GraphContinuum:
    """Fan over the depth-``d`` Cantor approximation: 2^d rays from an apex.

    Ray endpoints sit at the midpoints of the 2^d ternary intervals, lifted
    to the line y = 1; each ray is a path with ``depth + 1`` vertices past
    the apex.
    """
    tips: List[float] = []
    for code in range(2 ** depth):
        x = 0.0
        width = 1.0
        for bit in range(depth):
            width /= 3.0
            if (code >> (depth - 1 - bit)) & 1:
                x += 2 * width
        tips.append(x + width / 2.0)
    pos = [(0.5, 0.0)]
    edges: List[Tuple[int, int]] = []
    idx = 1
    for tip in tips:
        prev = 0
        for step in range(1, depth + 2):
            t = step / (depth + 1)
            pos.append((0.5 + (tip - 0.5) * t, t))
            edges.append((prev, idx))
            prev = idx
            idx += 1
    return GraphContinuum(n=idx, edges=tuple(edges), pos=tuple(pos),
                          kind=f"cantor_fan-{depth}")


# ---------------------------------------------------------------------------
# hyperspace enumeration


def enumerate_subcontinua(g: GraphContinuum) -> List[FrozenSet[int]]:
    """All connected vertex sets, sorted by (size, sorted vertex tuple).

    Raises :class:`ResourceError` when the count would exceed the cap taken
    from ``CONTINUUM_LAB_MAX_ELEMENTS``.
    """
    cap = _max_elements()
    seen = set()
    frontier: List[FrozenSet[int]] = []
    for v in range(g.n):
        s = frozenset([v])
        seen.add(s)
        frontier.append(s)
    out = list(frontier)
    while frontier:
        nxt: List[FrozenSet[int]] = []
        for s in frontier:
            for w in g.neighbors_of_set(s):
                t = s | {w}
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    out.append(t)
                    if len(out) > cap:
                        raise ResourceError(
                            f"subcontinuum enumeration exceeds cap {cap}",
                            achievable=cap)
        frontier = nxt
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def order_arcs_between(g: GraphContinuum, a: FrozenSet[int],
                       b: FrozenSet[int]) -> List[Tuple[FrozenSet[int], ...]]:
    """All discrete order arcs from a to b, growing one vertex per step.

    Each step stays connected, so every listed chain is a maximal chain of
    subcontinua between the endpoints.  More than ``MAX_ORDER_ARCS`` arcs
    raise :class:`ResourceError`.
    """
    if not (g.is_connected(a) and g.is_connected(b)):
        raise DomainError("endpoints must be subcontinua")
    if not a <= b:
        raise DomainError("need a contained in b")
    arcs: List[Tuple[FrozenSet[int], ...]] = []

    def grow(chain):
        top = chain[-1]
        if top == b:
            arcs.append(tuple(chain))
            if len(arcs) > MAX_ORDER_ARCS:
                raise ResourceError("too many order arcs",
                                    achievable=MAX_ORDER_ARCS)
            return
        for w in sorted(g.neighbors_of_set(top) & b):
            grow(chain + [top | {w}])

    grow([a])
    return arcs


# ---------------------------------------------------------------------------
# terminal subcontinua and triods


def is_terminal(k: FrozenSet[int], family: Sequence[FrozenSet[int]]) -> bool:
    """k is terminal when every family member meeting it is comparable."""
    for m in family:
        if m & k and not (m <= k or k <= m):
            return False
    return True


@dataclass(frozen=True)
class Triod:
    a: FrozenSet[int]
    b: FrozenSet[int]
    c: FrozenSet[int]
    core: FrozenSet[int]


def detect_triod(g: GraphContinuum,
                 family: Optional[Sequence[FrozenSet[int]]] = None
                 ) -> Optional[Triod]:
    """Search for three subcontinua with a common proper core intersection.

    Returns a witness (A, B, C, K) with K = A&B = B&C = A&C a subcontinuum
    proper and non-empty in each of A, B, C; or None when no triple exists.
    """
    if family is None:
        family = enumerate_subcontinua(g)
    fam = list(family)
    # group candidates by their pairwise-intersection core
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


# ---------------------------------------------------------------------------
# classic hyperspace homeomorphisms


def interval_arc_to_triangle(a: float, b: float, lo: float = 0.0,
                             hi: float = 1.0) -> Tuple[float, float]:
    """Map a subinterval [a, b] of [lo, hi] to (midpoint, length).

    The image of all subintervals is the triangle with vertices
    (lo, 0), (hi, 0), ((lo + hi) / 2, hi - lo); degenerate intervals land on
    the base.
    """
    if not (lo <= a <= b <= hi):
        raise DomainError("need lo <= a <= b <= hi")
    return ((a + b) / 2.0, b - a)


def triangle_to_interval_arc(u: float, v: float, lo: float = 0.0,
                             hi: float = 1.0) -> Tuple[float, float]:
    a = u - v / 2.0
    b = u + v / 2.0
    tol = 1e-9 * max(1.0, abs(hi - lo))
    if v < -tol or a < lo - tol or b > hi + tol:
        raise DomainError("point lies outside the triangle image")
    return (max(a, lo), min(b, hi))


TWO_PI = 2.0 * math.pi


def circle_arc_to_disk(alpha: float, beta: float) -> Tuple[float, float]:
    """Map a circular arc [alpha, beta] (radians, beta - alpha in [0, 2pi])
    to the closed unit disk.

    Radius encodes the co-length (full circle -> center), angle encodes the
    arc midpoint.  Injective for arcs with midpoint taken mod 2pi; every full
    circle maps to the origin.
    """
    width = beta - alpha
    if width < 0 or width > TWO_PI + 1e-12:
        raise DomainError("need 0 <= beta - alpha <= 2*pi")
    # full circles must hit the center exactly, also when beta - alpha
    # misses 2*pi by a rounding ulp
    if width >= TWO_PI - 1e-12:
        return (0.0, 0.0)
    r = 1.0 - width / TWO_PI
    mid = (alpha + beta) / 2.0
    return (r * math.cos(mid), r * math.sin(mid))


def disk_to_circle_arc(x: float, y: float) -> Tuple[float, float]:
    """Inverse of :func:`circle_arc_to_disk` with canonical midpoint.

    Returns (alpha, beta) with midpoint in (-pi, pi]; the origin maps to the
    full circle with midpoint 0.
    """
    r = math.hypot(x, y)
    if r > 1.0 + 1e-12:
        raise DomainError("point lies outside the unit disk")
    r = min(r, 1.0)
    width = TWO_PI * (1.0 - r)
    mid = math.atan2(y, x) if r > 0 else 0.0
    if mid <= -math.pi:
        mid = math.pi
    return (mid - width / 2.0, mid + width / 2.0)
