"""Finite model of a circle of pseudo-arcs and its hyperspace.

The model has ``m`` fibers, one over each vertex of an ``m``-cycle base.
Each fiber is the nerve of a crooked chain taken from an abstract refinement
tower (``fiber_level`` picks the tower level, so fibers carry a crookedness
certificate), embedded as a short radial stick of ``k`` vertices near its
base angle.

Hyperspace elements are of two kinds:

* ``Piece(fiber, i, j)`` - a proper link interval of one fiber (filament);
* ``Arc(start, length)`` - the union of the full fibers over a connected
  base arc (ample); ``length == 1`` is a single full fiber, the minimal
  ample element, and ``length == m`` is the whole space.

Sizes come from a Whitney map over the embedded vertices.  The Planck
boundary is the set of ample elements covering a filament element in the
containment order; normalization rescales every fiber to the common minimal
full-fiber size l, after which the boundary is exactly the level set at l.

Distances between elements use the containment join J of the pair:
d(A, B) = max(mu(J) - mu(A), mu(J) - mu(B)).  On nested pairs this is the
plain size difference, so order arcs are isometric to their size ranges,
and it remains well defined after normalization (where unions of vertex
sets no longer have canonical sizes).  Paths along the containment order
are measured by their total size variation; a shortest one bends once, at
the join or at the meet M, so its length is the closed form
min(2 mu(J) - mu(A) - mu(B), mu(A) + mu(B) - 2 mu(M)).  One index-based
kernel, :class:`PsiPathspace`, computes J and M for both metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix, vstack

from .chains import (RefinementPattern, crooked_pattern_length,
                     generate_crooked_pattern, is_crooked)
from .continua import _max_elements, build_continuum
from .errors import DomainError, ResourceError
from .metric_core import DEFAULT_TOL, FinitePointSet
from .whitney import WhitneyMap, build_whitney_map


@dataclass(frozen=True, order=True)
class Piece:
    """Proper link interval [i, j] (1-based, inclusive) of one fiber."""

    fiber: int
    i: int
    j: int

    def __post_init__(self):
        if self.fiber < 0 or not 1 <= self.i <= self.j:
            raise DomainError(f"bad piece ({self.fiber}, {self.i}, {self.j})")


@dataclass(frozen=True, order=True)
class Arc:
    """Union of the full fibers over ``length`` consecutive base vertices."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise DomainError(f"bad arc ({self.start}, {self.length})")


HyperElement = Union[Piece, Arc]

FIBER_STICK = 0.35  # radial extent of one embedded fiber
BASE_RADIUS = 1.0
FIBER_LINKS = 4  # links of each fiber's level-1 chain
ORDER_BLOCK_ROWS = 128  # rows of the containment order compared at once


class PsiModel:
    """The element family, sizes, and containment order of the model."""

    def __init__(self, m: int, k: int, fiber_level: int,
                 patterns: List[RefinementPattern],
                 points: FinitePointSet, mu_base: WhitneyMap,
                 elements: List[HyperElement]):
        self.m = m
        self.k = k
        self.fiber_level = fiber_level
        self.patterns = patterns
        self.points = points
        self.mu_base = mu_base
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self._vsets: Dict[HyperElement, FrozenSet[int]] = {}
        self.mu: Dict[HyperElement, float] = {
            e: mu_base(self.vertices(e)) for e in elements}
        fibers = [Arc(start=a, length=1) for a in range(m)]
        self.l = min(self.mu[f] for f in fibers)
        self.L = max(self.mu[f] for f in fibers)
        self.whole = Arc(start=0, length=m)

    # -- structure ---------------------------------------------------------

    def vertex_id(self, fiber: int, link: int) -> int:
        """Embedded point id of 1-based ``link`` in ``fiber``."""
        return fiber * self.k + (link - 1)

    def vertices(self, e: HyperElement) -> FrozenSet[int]:
        got = self._vsets.get(e)
        if got is not None:
            return got
        if isinstance(e, Piece):
            vs = frozenset(self.vertex_id(e.fiber, t)
                           for t in range(e.i, e.j + 1))
        else:
            vs = frozenset(self.vertex_id((e.start + off) % self.m, t)
                           for off in range(e.length)
                           for t in range(1, self.k + 1))
        self._vsets[e] = vs
        return vs

    def closed_vertices(self, e: HyperElement) -> FrozenSet[int]:
        """Overlap-faithful vertex set on a doubled grid per fiber.

        Link t covers grid points 2t-1 .. 2t+1, so consecutive links share
        a point, exactly as overlapping chain links do.  Use this for
        intersection questions (terminality); :meth:`vertices` keeps one
        center point per link for metric purposes.
        """
        span = 2 * self.k + 1
        if isinstance(e, Piece):
            return frozenset(e.fiber * span + g
                             for g in range(2 * e.i - 1, 2 * e.j + 2))
        return frozenset(f * span + g for f in self.fibers_of(e)
                         for g in range(1, span + 1))

    def fibers_of(self, e: HyperElement) -> FrozenSet[int]:
        if isinstance(e, Piece):
            return frozenset([e.fiber])
        return frozenset((e.start + off) % self.m for off in range(e.length))

    def leq(self, a: HyperElement, b: HyperElement) -> bool:
        """Scalar containment test; :attr:`strict_order` is its batch form."""
        if isinstance(a, Piece):
            if isinstance(b, Piece):
                return a.fiber == b.fiber and b.i <= a.i and a.j <= b.j
            return a.fiber in self.fibers_of(b)
        if isinstance(b, Piece):
            return False
        return self.fibers_of(a) <= self.fibers_of(b)

    @cached_property
    def shapes(self) -> List[Tuple[int, int, int, int]]:
        """(base start, base length, first link, last link) per element.

        Every element is a cyclic base interval of fibers with a link
        interval; an arc holds all links [1, k].
        """
        return [(e.fiber, 1, e.i, e.j) if isinstance(e, Piece)
                else (e.start, e.length, 1, self.k) for e in self.elements]

    @cached_property
    def strict_order(self) -> csr_matrix:
        """Strict containment order as a bool CSR matrix: [a, b] iff a < b.

        a <= b iff b's cyclic base interval of fibers holds a's and b's link
        interval holds a's (see :attr:`shapes`).  Rows are compared
        ``ORDER_BLOCK_ROWS`` at a time and only their nonzeros are kept, so
        memory grows with the comparable pairs, never with n^2.
        """
        n, m = len(self.elements), self.m
        start, length, lo, hi = np.array(self.shapes, dtype=np.int32).T.copy()
        blocks = []
        for r0 in range(0, n, ORDER_BLOCK_ROWS):
            r = np.arange(r0, min(r0 + ORDER_BLOCK_ROWS, n))
            offset = (start[r, None] - start) % m
            below = (((length == m) | (offset + length[r, None] <= length))
                     & (lo <= lo[r, None]) & (hi[r, None] <= hi))
            below[np.arange(len(r)), r] = False
            blocks.append(csr_matrix(below))
        return vstack(blocks, format="csr")

    def classify(self, e: HyperElement) -> str:
        return "filament" if isinstance(e, Piece) else "ample"


def closed_form_element_count(m: int, k: int) -> int:
    """Stated closed form for the element count.

    Note: the m singleton base arcs (= full fibers) are already included in
    the m*(m-1) proper-arc term, so this expression exceeds the number of
    distinct subcontinua in the model by m; the honest enumeration size is
    ``distinct_element_count``.  Kept as stated for the acceptance gate.
    """
    return m * (k * (k + 1) // 2 - 1) + m * (m - 1) + 1 + m


def distinct_element_count(m: int, k: int) -> int:
    """Number of distinct subcontinua: proper pieces, base arcs, whole."""
    return m * (k * (k + 1) // 2 - 1) + m * (m - 1) + 1


def build_psi_model(m: int = 6, fiber_level: int = 2) -> PsiModel:
    if m < 3:
        raise DomainError("need m >= 3 fibers")
    if fiber_level < 1:
        raise DomainError("fiber_level must be >= 1")
    cap = _max_elements()
    # Link counts grow with the level: refuse at the first level over the
    # cap, before any pattern is built (level 4 has ~10^11 links).
    links = [FIBER_LINKS]  # per fiber, at levels 1, 2, ...
    for level in range(1, fiber_level + 1):
        if level > 1:
            links.append(crooked_pattern_length(links[-1]))
        count = distinct_element_count(m, links[-1])
        if count > cap:
            bound = "" if level == fiber_level else "at least "
            raise ResourceError(
                f"psi model with {bound}{count} elements exceeds cap {cap}",
                achievable=cap)
    k = links[-1]
    patterns = [generate_crooked_pattern(n) for n in links[:-1]]
    if not all(is_crooked(pat).ok for pat in patterns):
        raise DomainError("internal: generated pattern is not crooked")
    pts = []
    for a in range(m):
        ang = 2 * math.pi * a / m
        for t in range(k):
            r = BASE_RADIUS + FIBER_STICK * t / max(k - 1, 1)
            pts.append((r * math.cos(ang), r * math.sin(ang)))
    points = FinitePointSet(points=pts)
    mu_base = build_whitney_map(points)
    elements: List[HyperElement] = []
    for a in range(m):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                if (i, j) != (1, k):
                    elements.append(Piece(fiber=a, i=i, j=j))
    for length in range(1, m):
        for s in range(m):
            elements.append(Arc(start=s, length=length))
    elements.append(Arc(start=0, length=m))
    model = PsiModel(m=m, k=k, fiber_level=fiber_level, patterns=patterns,
                     points=points, mu_base=mu_base, elements=elements)
    if not (0 < model.l <= model.L < model.mu[model.whole]):
        raise DomainError("internal: Planck interval out of order")
    return model


# ---------------------------------------------------------------------------
# Planck boundary and normalization


@dataclass
class PlanckReport:
    l: float
    L: float
    boundary: List[HyperElement]
    fiber_values: List[float]


def planck_report(model: PsiModel) -> PlanckReport:
    """Boundary = ample elements covering some filament element.

    b covers a iff S[a, b] and not (S @ S)[a, b], for S the strict order.
    """
    order = model.strict_order
    filament = np.array([isinstance(e, Piece) for e in model.elements])
    below = order[np.flatnonzero(filament)]
    ample = np.flatnonzero(~filament)
    covers = below[:, ample] > (below @ order)[:, ample]
    boundary = [model.elements[i] for i in ample[covers.getnnz(axis=0) > 0]]
    fibers = [Arc(start=a, length=1) for a in range(model.m)]
    return PlanckReport(l=model.l, L=model.L, boundary=boundary,
                        fiber_values=[model.mu[f] for f in fibers])


@dataclass
class PsiValues:
    """A size assignment on the element family (raw or normalized)."""

    model: PsiModel
    values: Dict[HyperElement, float]
    l: float

    @cached_property
    def space(self) -> "PsiPathspace":
        return PsiPathspace(self)

    def distance(self, a: HyperElement, b: HyperElement) -> float:
        """Join metric max(v(J) - v(a), v(J) - v(b)), J the join of a, b."""
        i, j = self.model.index[a], self.model.index[b]
        v = self.space.v
        top = v[self.space.join(i, j)]
        return max(top - v[i], top - v[j])


def raw_values(model: PsiModel) -> PsiValues:
    return PsiValues(model=model, values=dict(model.mu), l=model.l)


def normalize_to_psi0(model: PsiModel) -> PsiValues:
    """Rescale each fiber affinely so every full fiber has size l.

    Piece sizes are scaled by their fiber's factor; arc sizes become
    l plus a Whitney size of the base arc, preserving strict monotonicity
    across the whole containment order (every piece < l <= every arc).
    The base size is averaged over all rotations of the cycle (a mean of
    Whitney maps is again one), so arcs of equal length get equal size and
    the rotational symmetry of the model survives normalization.
    """
    base = build_continuum("cycle", n=model.m)
    w = build_whitney_map(base)
    m = model.m
    arc_size = {length: float(np.mean(
        [w(frozenset((s + o) % m for o in range(length))) for s in range(m)]))
        for length in range(2, m + 1)}
    values: Dict[HyperElement, float] = {}
    for e in model.elements:
        if isinstance(e, Piece):
            scale = model.l / model.mu[Arc(start=e.fiber, length=1)]
            values[e] = model.mu[e] * scale
        elif e.length == 1:
            values[e] = model.l
        else:
            values[e] = model.l + arc_size[e.length]
    return PsiValues(model=model, values=values, l=model.l)


# ---------------------------------------------------------------------------
# level structure


@dataclass
class LevelReport:
    t: float
    tol: float
    epsilon: float
    elements: List[HyperElement]
    components: List[List[HyperElement]]
    is_cycle: bool
    component_fibers: List[FrozenSet[int]]


def level_structure_report(pv: PsiValues, t: float,
                           tol: Optional[float] = None) -> LevelReport:
    """Level set near size ``t`` with an auto-calibrated proximity nerve.

    Below the fiber size l the level is the per-fiber shell of pieces
    closest to t (tolerance = the largest per-fiber best error, so each
    fiber contributes); the nerve radius is the smallest value making each
    fiber's shell connected.  At and above l the level is the per-rotation
    closest shell of base arcs and the nerve radius is the largest
    second-nearest-neighbor distance, which closes the base cycle.
    """
    model = pv.model
    if t <= 0:
        raise DomainError("level parameter must be positive")
    if t < pv.l - DEFAULT_TOL:
        pieces = [e for e in model.elements if isinstance(e, Piece)]
        errs = {e: abs(pv.values[e] - t) for e in pieces}
        if tol is None:
            tol = max(min(errs[e] for e in pieces if e.fiber == a)
                      for a in range(model.m))
        shells = [e for e in pieces if errs[e] <= tol + DEFAULT_TOL]
        eps = _per_fiber_connect_radius(pv, shells)
    else:
        arcs = [e for e in model.elements if isinstance(e, Arc)]
        errs = {e: abs(pv.values[e] - t) for e in arcs}
        if tol is None:
            tol = max(min(errs[e] for e in arcs
                          if e.length == model.m or e.start == s)
                      for s in range(model.m))
        shells = [e for e in arcs if errs[e] <= tol + DEFAULT_TOL]
        eps = _second_neighbor_radius(pv, shells)
    return _nerve_report(pv, t, tol, eps, shells)


def _per_fiber_connect_radius(pv: PsiValues,
                              shells: List[HyperElement]) -> float:
    eps = 0.0
    for a in range(pv.model.m):
        sub = [e for e in shells if isinstance(e, Piece) and e.fiber == a]
        if len(sub) > 1:
            eps = max(eps, _mst_max_edge(pv, sub))
    return eps


def _second_neighbor_radius(pv: PsiValues,
                            shells: List[HyperElement]) -> float:
    if len(shells) < 3:
        return 0.0
    eps = 0.0
    for e in shells:
        ds = sorted(pv.distance(e, f) for f in shells if f != e)
        eps = max(eps, ds[1] if len(ds) > 1 else ds[0])
    return eps


def _mst_max_edge(pv: PsiValues, nodes: List[HyperElement]) -> float:
    n = len(nodes)
    d = np.array([[pv.distance(a, b) for b in nodes] for a in nodes])
    in_tree = [0]
    best = d[0].copy()
    worst = 0.0
    while len(in_tree) < n:
        best[in_tree] = np.inf
        nxt = int(np.argmin(best))
        worst = max(worst, float(best[nxt]))
        in_tree.append(nxt)
        best = np.minimum(best, d[nxt])
    return worst


def _nerve_report(pv: PsiValues, t, tol, eps, shells) -> LevelReport:
    n = len(shells)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    degree = [0] * n
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pv.distance(shells[i], shells[j]) <= eps + DEFAULT_TOL:
                degree[i] += 1
                degree[j] += 1
                edge_count += 1
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: Dict[int, List[HyperElement]] = {}
    for i, e in enumerate(shells):
        groups.setdefault(find(i), []).append(e)
    components = sorted(groups.values(),
                        key=lambda g: min(pv.model.index[e] for e in g))
    is_cycle = (len(components) == 1 and n >= 3 and
                all(deg == 2 for deg in degree) and edge_count == n)
    comp_fibers = [frozenset().union(*(pv.model.fibers_of(e) for e in g))
                   for g in components]
    return LevelReport(t=t, tol=tol, epsilon=eps, elements=shells,
                       components=components, is_cycle=is_cycle,
                       component_fibers=comp_fibers)


def component_cyclic_arrangement(pv: PsiValues, report: LevelReport) -> bool:
    """Each component's two nearest other components are its base neighbors."""
    m = pv.model.m
    comps = report.components
    if len(comps) != m:
        return False
    fiber_of = {}
    for idx, fibers in enumerate(report.component_fibers):
        if len(fibers) != 1:
            return False
        fiber_of[idx] = next(iter(fibers))
    for i in range(m):
        dists = []
        for j in range(m):
            if i == j:
                continue
            d = min(pv.distance(a, b) for a in comps[i] for b in comps[j])
            dists.append((d, fiber_of[j]))
        dists.sort()
        near = {f for _, f in dists[:2]}
        want = {(fiber_of[i] + 1) % m, (fiber_of[i] - 1) % m}
        if near != want:
            return False
    return True


# ---------------------------------------------------------------------------
# order-arc paths and curvature


class PsiPathspace:
    """The order-arc metric of a size assignment, in closed form.

    A path steps between comparable elements and costs their size gap, so
    its length is its total size variation.  Sizes are strictly monotone,
    so a shortest path bends once: up to the join J (least common upper
    bound) and down, or down to the meet M (greatest common lower bound)
    and up, d(a, b) = min(2 v(J) - v(a) - v(b), v(a) + v(b) - 2 v(M)).
    :meth:`join`, :meth:`meet` and :meth:`distance` take element indices;
    :attr:`graph` is the comparability graph, kept for checks and tests.
    """

    def __init__(self, pv: PsiValues):
        self.pv = pv
        model = pv.model
        self.m, self.k = model.m, model.k
        self.shapes = model.shapes
        self.at = {shape: i for i, shape in enumerate(self.shapes)}
        self.whole = self.at[0, self.m, 1, self.k]
        self.v = [pv.values[e] for e in model.elements]

    def join(self, a: int, b: int) -> int:
        """Least common upper bound.

        In one fiber it is the link hull (the fiber arc for [1, k]).
        Otherwise it is the smaller, by (size, index), of the two minimal
        base arcs holding both, one starting at each element's start; an
        arc of length m or more is the whole space.
        """
        m, k, at, v, whole = self.m, self.k, self.at, self.v, self.whole
        sa, la, loa, hia = self.shapes[a]
        sb, lb, lob, hib = self.shapes[b]
        if la == lb == 1 and sa == sb:
            return at[sa, 1, min(loa, lob), max(hia, hib)]
        x = at.get((sa, max(la, (sb - sa) % m + lb), 1, k), whole)
        y = at.get((sb, max(lb, (sa - sb) % m + la), 1, k), whole)
        return x if v[x] < v[y] or (v[x] == v[y] and x < y) else y

    def meet(self, a: int, b: int) -> int:
        """Greatest common lower bound, or -1 when a and b are disjoint.

        The cyclic base intersection has at most two arcs, each taken with
        the intersected links; the larger wins, by size then lower index.
        """
        m, at, v = self.m, self.at, self.v
        sa, la, loa, hia = self.shapes[a]
        sb, lb, lob, hib = self.shapes[b]
        if la == m or lb == m:
            return b if la == m else a
        lo, hi = max(loa, lob), min(hia, hib)
        if lo > hi:
            return -1
        off = (sb - sa) % m  # b's start, counted from a's
        x = at[sb, min(la - off, lb), lo, hi] if off < la else -1
        y = at[sa, min(la, off + lb - m), lo, hi] if off + lb > m else -1
        if x < 0 or y < 0:
            return max(x, y)
        return x if v[x] > v[y] or (v[x] == v[y] and x < y) else y

    def _geodesic(self, a: int, b: int) -> Tuple[float, int]:
        """Length of a shortest path and its bend; ties go to the join."""
        v = self.v
        top, low = self.join(a, b), self.meet(a, b)
        up = (v[top] - v[a]) + (v[top] - v[b])
        if low >= 0 and (v[a] - v[low]) + (v[b] - v[low]) < up:
            return (v[a] - v[low]) + (v[b] - v[low]), low
        return up, top

    def distance(self, a: int, b: int) -> float:
        return self._geodesic(a, b)[0]

    def path_between(self, a: HyperElement, b: HyperElement
                     ) -> Tuple[float, List[HyperElement]]:
        """A shortest path [a, J, b] or [a, M, b], repeated ends dropped."""
        model = self.pv.model
        dist, bend = self._geodesic(model.index[a], model.index[b])
        path = [a]
        for e in (model.elements[bend], b):
            if e != path[-1]:
                path.append(e)
        return dist, path

    @cached_property
    def graph(self) -> csr_matrix:
        """Comparable pairs, weighted by their size gap."""
        order = self.pv.model.strict_order
        comparable = order + order.T
        comparable.sort_indices()
        v = np.array(self.v)
        rows = np.repeat(np.arange(len(v)), np.diff(comparable.indptr))
        return csr_matrix((np.abs(v[rows] - v[comparable.indices]),
                           comparable.indices, comparable.indptr),
                          shape=comparable.shape)


@dataclass
class CurvatureReport:
    trials: int
    degenerate: int
    additive: int
    worst_defect: float

    @property
    def all_additive(self) -> bool:
        return self.degenerate == self.additive


def curvature_check(pv: PsiValues, trials: int = 1000,
                    seed: int = 0, tol: float = DEFAULT_TOL
                    ) -> CurvatureReport:
    """Exact additivity on degenerate geodesic triangles.

    Samples seeded random element triples; a triple is degenerate when its
    third element lies on *some* geodesic between the other two, that is
    |d(x, y) - d(x, z) - d(z, y)| <= ``tol`` for one of the three orderings.
    This reading does not depend on which of several shortest paths is
    taken.  On it the two shorter sides sum to the third within ``tol`` by
    definition, so ``additive`` equals ``degenerate`` and ``worst_defect``
    is the largest such gap.  Each side is one closed-form distance.
    """
    if trials <= 0:
        return CurvatureReport(trials=trials, degenerate=0, additive=0,
                               worst_defect=0.0)
    rng = np.random.default_rng(seed)
    space = pv.space
    n = len(space.v)
    sides = np.array([(space.distance(x, y), space.distance(x, z),
                       space.distance(y, z))
                      for x, y, z in (rng.choice(n, size=3, replace=False)
                                      .tolist() for _ in range(trials))])
    xy, xz, yz = sides.T
    gap = np.min([np.abs(xy - xz - yz), np.abs(xz - xy - yz),
                  np.abs(yz - xy - xz)], axis=0)
    flat = gap[gap <= tol]
    degenerate = int(flat.size)
    worst = float(flat.max()) if degenerate else 0.0
    return CurvatureReport(trials=trials, degenerate=degenerate,
                           additive=degenerate, worst_defect=worst)
