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
kernel, :class:`PsiPathspace`, computes J and M for both metrics, one pair
at a time for single queries and over index arrays for batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .chains import (crooked_pattern_length, generate_crooked_pattern,
                     is_crooked)
from .continua import (build_continuum, packed_rows, row_classes,
                       unpacked_rows)
from .errors import DomainError, ResourceError, _max_elements, _row_blocks
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


class Order(NamedTuple):
    """A strict order by rows: a < b iff b is one of
    ``indices[indptr[a]:indptr[a + 1]]``, each row ascending."""

    indptr: np.ndarray
    indices: np.ndarray

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of every pair a < b, row by row."""
        counts = np.diff(self.indptr)
        rows = np.arange(len(counts), dtype=self.indices.dtype)
        return np.repeat(rows, counts), self.indices


class Edges(NamedTuple):
    """Edges ``rows[e]`` -> ``cols[e]`` of cost ``weights[e]``."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @property
    def nnz(self) -> int:
        """The number of edges; a comparable pair gives two."""
        return len(self.rows)


class PsiModel:
    """The element family, sizes, and containment order of the model,
    each store read by the element ids that :func:`_layout` lays out.
    :meth:`id_of` and :meth:`element` map one element to its id and back
    by formula; :attr:`elements` lists them all, built on first read."""

    def __init__(self, m: int, k: int, points: FinitePointSet,
                 mu_base: WhitneyMap):
        self.m = m
        self.k = k
        self.points = points
        self.mu_base = mu_base
        self.q = k * (k + 1) // 2 - 1  # pieces per fiber: all but [1, k]
        self.shapes = _layout(m, k)
        # row[i]: the offset in a fiber of its first piece with first link i
        self.row = np.searchsorted(self.shapes[:self.q, 2], range(k + 1))
        self._row = self.row.tolist()  # the same, for one id at a time
        pieces = m * self.q  # the pieces are the ids below this
        self.sizes = _envelope_sizes(self)
        self.fiber_sizes = self.sizes[pieces:pieces + m]
        self.l = float(self.fiber_sizes.min())
        self.L = float(self.fiber_sizes.max())

    @cached_property
    def elements(self) -> List[HyperElement]:
        """Every element, by id."""
        return self._from_shapes(self.shapes.tolist())

    def element(self, t: int) -> HyperElement:
        """The element of id ``t``, built alone."""
        if not 0 <= t < len(self.shapes):
            raise DomainError(f"no element has id {t}")
        return self._from_shapes(self.shapes[t:t + 1].tolist())[0]

    def _from_shapes(self, rows: List[List[int]]) -> List[HyperElement]:
        """The elements of shape rows (start, length, first link, last
        link) of Python ints: all k links make an arc."""
        k = self.k
        return [Arc(s, ln) if lo == 1 and hi == k else Piece(s, lo, hi)
                for s, ln, lo, hi in rows]

    def id_of(self, e: HyperElement) -> int:
        """The id of element ``e``, by :meth:`shape_id`'s formula written
        out for speed; a piece or arc that is not an element of this model
        is refused."""
        if type(e) is Piece:
            f, i, j = e.fiber, e.i, e.j
            if f < self.m and j <= self.k and (i > 1 or j < self.k):
                return f * self.q + self._row[i] + j - i
        elif type(e) is Arc:
            s, ln, m = e.start, e.length, self.m
            if s < m and (ln < m or ln == m and s == 0):
                return (self.q + ln - 1) * m + s
        raise DomainError(f"{e!r} is not an element of this model")

    def shape_id(self, s: int, ln: int, lo: int, hi: int) -> int:
        """The id of the element of shape (start, length, first link, last
        link), in Python ints: all k links make an arc; piece (f, i, j)
        sits at f * q + row[i] + j - i, arc (s, L) at (q + L - 1) * m + s,
        the whole (0, m) at n - 1.  :meth:`PsiPathspace._ids` is the same
        formula over arrays, and maps every length m or more to the whole."""
        if lo == 1 and hi == self.k:
            return (self.q + ln - 1) * self.m + s
        return s * self.q + self._row[lo] + hi - lo

    # -- structure ---------------------------------------------------------

    def vertex_id(self, fiber: int, link: int) -> int:
        """Embedded point id of 1-based ``link`` in ``fiber``."""
        return fiber * self.k + (link - 1)

    def closed_vertices(self, e: HyperElement) -> FrozenSet[int]:
        """Overlap-faithful vertex set on a doubled grid per fiber.

        Link t covers grid points 2t-1 .. 2t+1, so consecutive links share
        a point, exactly as overlapping chain links do.  Use this for
        intersection questions (terminality); the sizes keep one center
        point per link for metric purposes.
        """
        span = 2 * self.k + 1
        start, length, lo, hi = self.shape(e)
        return frozenset(chain.from_iterable(
            range(f % self.m * span + 2 * lo - 1,
                  f % self.m * span + 2 * hi + 2)
            for f in range(start, start + length)))

    def fibers_of(self, e: HyperElement) -> FrozenSet[int]:
        start, length, _, _ = self.shape(e)
        return frozenset(f % self.m for f in range(start, start + length))

    def leq(self, a: HyperElement, b: HyperElement) -> bool:
        """:func:`shape_leq` of two elements' shapes."""
        return shape_leq(self.m, self.shape(a), self.shape(b))

    def shape(self, e: HyperElement) -> Tuple[int, int, int, int]:
        """(base start, base length, first link, last link) of ``e``.

        Every element is a cyclic base interval of fibers with a link
        interval; an arc holds all links [1, k].
        """
        if isinstance(e, Piece):
            return (e.fiber, 1, e.i, e.j)
        return (e.start, e.length, 1, self.k)

    @cached_property
    def strict_order(self) -> Order:
        """Strict containment order (a < b iff a != b and ``leq(a, b)``),
        built from index runs in time linear in its pairs.

        Elements lie as :func:`_layout` lists them: pieces by
        ``(fiber, i, j)``, arcs by ``(length, start)``, the whole.  Above
        piece ``(f, i, j)`` lie, for each i' <= i, the pieces
        ``(f, i', j..k)``.  Above base interval [s - L + 1, s] (L = 1 for
        a piece) lie, for each longer length L', the arcs starting in
        [s - L' + L, s]: one run, or two where it wraps.  Then the whole.
        """
        m, k, q, n = self.m, self.k, self.q, len(self.shapes)
        s, ln, lo, hi = self.shapes.T[..., None]
        piece = (lo > 1) | (hi < k)
        i = np.arange(1, k + 1)
        last = i == lo
        # piece (f, i, j) sits at f * q + row[i] + j - i
        p_head = s * q + self.row[i] + hi - i + last
        p_count = np.where(piece & (i <= lo), k - hi + 1 - last - (i == 1), 0)
        L = np.arange(1, m)
        w = np.where(L >= ln + ~piece, L - ln + 1, 0)  # arcs of length L
        block = m * q + (L - 1) * m  # arc (start, L) sits at block + start
        a_count, b_count = np.minimum(w, s + 1), np.maximum(w - s - 1, 0)
        arcs = np.dstack([block + s + 1 - a_count, block + m - b_count,
                          a_count, b_count]).reshape(n, -1, 2, 2)
        head = np.hstack([p_head, arcs[:, :, 0].reshape(n, -1),
                          np.full((n, 1), n - 1)]).ravel()
        count = np.hstack([p_count, arcs[:, :, 1].reshape(n, -1), ln < m])
        indptr = np.r_[0, np.cumsum(count.sum(axis=1))]
        count = count.ravel()  # int32 temporaries: indices are below n
        indices = np.repeat((head - np.cumsum(count) + count).astype(np.int32),
                            count)
        # plus each entry's position, a block at a time: no arange of all
        for at in _row_blocks(len(indices), 1):
            indices[at] += np.arange(at.start, at.stop, dtype=np.int32)
        return Order(indptr=indptr, indices=indices)

    def classify(self, e: HyperElement) -> str:
        return "filament" if isinstance(e, Piece) else "ample"


def shape_leq(m: int, a, b):
    """Whether shape ``a`` lies in shape ``b``, each a (start, length, first
    link, last link) of ints (a bool) or of arrays (elementwise)."""
    (sa, la, loa, hia), (sb, lb, lob, hib) = a, b
    return (((lb >= m) | ((sa - sb) % m + la <= lb))
            & (lob <= loa) & (hia <= hib))


def _layout(m: int, k: int) -> np.ndarray:
    """Element shapes (start, length, first link, last link), one row per
    element id: pieces by (fiber, i, j) without the fiber arc (1, k), then
    arcs by (length, start), then the whole."""
    i, j = np.triu_indices(k)  # link intervals by (i, j)
    keep = (i > 0) | (j < k - 1)  # [1, k] is the fiber arc
    i, j = i[keep] + 1, j[keep] + 1
    length, start = np.divmod(np.arange(m, m * m + 1), m)  # m * m: whole
    return np.stack([np.r_[np.repeat(np.arange(m), len(i)), start],
                     np.r_[np.ones(m * len(i), dtype=int), length],
                     np.r_[np.tile(i, m), np.ones_like(start)],
                     np.r_[np.tile(j, m), np.full_like(start, k)]], axis=1)


def _envelope_sizes(model: PsiModel) -> np.ndarray:
    """mu of each element's vertex set from F's row envelopes, summed by
    :meth:`WhitneyMap.series`, whose each step reads its own rows of F: a
    run of d links (an arc of L fibers) has the max of its first d - 1
    (L - 1) and its last; max and min are exact, so the terms are the
    vertex sets'."""
    m, k = model.m, model.k
    first = np.r_[0, np.cumsum(m * np.arange(k, 0, -1))]  # by run length
    s, ln, lo, hi = model.shapes.T
    row = np.where(ln == 1, first[hi - lo] + s * (k - hi + lo) + lo - 1,
                   first[-1] + (ln - 2) * m + s)
    rows = first[-1] + (m - 1) * m

    def envelope(g):  # g[n, fiber, link]: the max of each run, by row
        env = np.empty((len(g), rows))
        env[:, :m * k], prev = g.reshape(len(g), -1), g
        for d in range(1, k):  # runs of d + 1 links
            run = env[:, first[d]:first[d + 1]].reshape(-1, m, k - d)
            prev = np.maximum(prev[:, :, :-1], g[:, :, d:], out=run)
        ring = np.hstack([prev[:, :, 0]] * 2)
        prev = ring[:, :m]
        for length in range(1, m):  # arcs of length + 1 fibers
            run = env[:, first[-1] + (length - 1) * m:first[-1] + length * m]
            prev = np.maximum(prev, ring[:, length:length + m], out=run)
        return env

    def spans(at):
        g = model.mu_base.rows(at).reshape(-1, m, k)
        top, bottom = np.split(envelope(np.vstack([g, -g])), 2)
        top += bottom  # top - min, as min = -bottom
        return top

    # the first m * k rows are single links, whose spans are all 0; a
    # point's envelopes of F and -F hold 2 * rows cells
    return model.mu_base.series(spans, rows, np.arange(rows) >= m * k,
                                2 * rows)[row]


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
    model = PsiModel(m, k, points, build_whitney_map(points))
    if not (0 < model.l <= model.L < model.sizes[-1]):
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


def filament_covers(model: PsiModel
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(filament, ample, covers)``: element indices of each kind, and
    ``covers[r, c]`` iff ample element ``ample[c]`` covers ``filament[r]``.

    b covers a iff a < b and no c has a < c < b.  From the order's rows:
    ``up`` is each element's set of ample elements above it (as words);
    elements with equal ``up`` rows form one class, and the ample elements
    above some c > a are the union of the classes of the elements above a,
    read for the pieces alone: the order's first ``m * q`` rows.
    """
    p, n = model.m * model.q, len(model.shapes)
    filament, ample = np.arange(p), np.arange(p, n)
    col = np.r_[np.full(p, n - p), ample - p]  # a spare column for pieces
    order = model.strict_order
    up = packed_rows(order.indptr, order.indices, col, n - p)
    first, cls = row_classes(up)
    above = packed_rows(order.indptr[:p + 1], order.indices, cls, len(first))
    groups, grp = row_classes(above)
    reach = np.array([np.bitwise_or.reduce(up[first[g]])
                      for g in unpacked_rows(above[groups], len(first))])
    return filament, ample, unpacked_rows(up[:p] & ~reach[grp], n - p)


def planck_report(model: PsiModel) -> PlanckReport:
    """Boundary = ample elements covering some filament element."""
    _, ample, covers = filament_covers(model)
    boundary = [model.element(i) for i in ample[covers.any(axis=0)].tolist()]
    return PlanckReport(l=model.l, L=model.L, boundary=boundary,
                        fiber_values=model.fiber_sizes.tolist())


@dataclass(eq=False)  # compared by identity: v is an array
class PsiValues:
    """A size assignment on the element family (raw or normalized): ``v``
    holds the value of each element id."""

    model: PsiModel
    v: np.ndarray
    l: float

    @cached_property
    def values(self) -> Dict[HyperElement, float]:
        return dict(zip(self.model.elements, self.v.tolist()))

    @cached_property
    def space(self) -> "PsiPathspace":
        return PsiPathspace(self)

    def distance(self, a: HyperElement, b: HyperElement) -> float:
        """Join metric of two elements (:meth:`PsiPathspace.join_distance`)."""
        return self.space.join_distance(self.model.id_of(a),
                                        self.model.id_of(b))


def raw_values(model: PsiModel) -> PsiValues:
    return PsiValues(model=model, v=model.sizes, l=model.l)


def normalize_to_psi0(model: PsiModel) -> PsiValues:
    """Rescale each fiber affinely so every full fiber has size l.

    Piece sizes are scaled by their fiber's factor; arc sizes become
    l plus a Whitney size of the base arc, preserving strict monotonicity
    across the whole containment order (every piece < l <= every arc).
    The base size is averaged over all rotations of the cycle (a mean of
    Whitney maps is again one), so arcs of equal length get equal size and
    the rotational symmetry of the model survives normalization.  The mean
    adds the rotations in one fixed order, :func:`_pairwise_sum`'s.
    """
    m, k, l = model.m, model.k, model.l
    w = build_whitney_map(build_continuum("cycle", n=m))
    arc_size = np.zeros(m + 1)  # by base length; fibers get l + 0 = l
    sizes = w.sizes([frozenset((s + o) % m for o in range(length))
                     for length in range(2, m + 1) for s in range(m)])
    arc_size[2:] = _pairwise_sum(sizes.reshape(m - 1, m)) / m
    s, ln, lo, hi = model.shapes.T
    full = (lo == 1) & (hi == k)  # all links: a fiber or a longer arc
    scale = l / model.fiber_sizes[s]
    v = np.where(full, l + arc_size[ln], model.sizes * scale)
    return PsiValues(model=model, v=v, l=l)


def _pairwise_sum(cols: np.ndarray) -> np.ndarray:
    """The sum of each row in numpy's pairwise order, written out so that
    it does not depend on numpy's build: a running sum under 8 columns; up
    to 128, eight running lanes, combined as ((0+1)+(2+3))+((4+5)+(6+7)),
    then the remaining columns in turn; above 128, the two halves split at
    a multiple of 8 near the middle, each summed so."""
    n = cols.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(cols[:, :half]) + _pairwise_sum(cols[:, half:])
    total, done = np.zeros(len(cols)), 0
    if n >= 8:
        done = n - n % 8
        lane = cols[:, :8].copy()
        for c in range(8, done, 8):
            lane += cols[:, c:c + 8]
        total = ((lane[:, 0] + lane[:, 1]) + (lane[:, 2] + lane[:, 3])) + \
            ((lane[:, 4] + lane[:, 5]) + (lane[:, 6] + lane[:, 7]))
    for c in range(done, n):
        total = total + cols[:, c]
    return total


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
    # the elements' join distances, infinite on the diagonal; the nerve and
    # component_cyclic_arrangement read it
    distances: Optional[np.ndarray] = field(default=None, compare=False,
                                            repr=False)


def level_structure_report(pv: PsiValues, t: float,
                           tol: Optional[float] = None) -> LevelReport:
    """Level set near size ``t`` with an auto-calibrated proximity nerve.

    Below the fiber size l the level is the per-fiber shell of pieces
    closest to t (tolerance = the largest per-fiber best error, so each
    fiber contributes); the nerve radius is the smallest value making each
    fiber's shell connected.  At and above l the level is the per-rotation
    closest shell of base arcs and the nerve radius is the largest
    second-nearest-neighbor distance, which closes the base cycle.  Every
    step reads one table of the shell pairs' join distances (row blocks).
    """
    model, space = pv.model, pv.space
    if not 0 < t < math.inf:
        raise DomainError(f"level parameter must be positive and finite, "
                          f"got {t}")
    below = t < pv.l - DEFAULT_TOL
    m, pieces = model.m, model.m * model.q
    cands = np.arange(pieces) if below else np.arange(pieces, len(pv.v))
    errs = np.abs(pv.v[cands] - t)
    if tol is None:  # the largest best error of a fiber or rotation
        best = (errs.reshape(m, -1).min(axis=1) if below  # q per fiber
                else np.minimum(errs[:-1].reshape(-1, m).min(axis=0),
                                errs[-1]))  # the whole: every rotation
        tol = float(best.max())
    idx = cands[errs <= tol + DEFAULT_TOL]
    n = len(idx)
    d = np.full((n, n), np.inf)
    for at in _row_blocks(n, n):  # the pairs r < c of the rows at
        r, c = np.triu_indices(at.stop - at.start, at.start + 1, n)
        r += at.start
        d[r, c] = d[c, r] = space.join_distances(idx[r], idx[c])
    if below:
        fiber = model.shapes[idx, 0]
        eps = max([_bottleneck(d[np.ix_(fiber == a, fiber == a)])
                   for a in sorted(set(fiber.tolist()))], default=0.0)
    else:
        eps = float(np.sort(d)[:, 1].max()) if n >= 3 else 0.0
    adj = d <= eps + DEFAULT_TOL
    label = np.full(n, -1)  # the first member of each element's component
    for s in range(n):
        front = (np.arange(n) == s) & (label < 0)
        while front.any():
            label[front] = s
            front = adj[front].any(axis=0) & (label < 0)
    shells = model._from_shapes(model.shapes[idx].tolist())
    components = [[shells[r] for r in np.flatnonzero(label == s)]
                  for s in np.flatnonzero(label == np.arange(n))]
    is_cycle = bool(len(components) == 1 and n >= 3
                    and (adj.sum(axis=1) == 2).all())
    comp_fibers = [frozenset().union(*(model.fibers_of(e) for e in g))
                   for g in components]
    return LevelReport(t=t, tol=tol, epsilon=eps, elements=shells,
                       components=components, is_cycle=is_cycle,
                       component_fibers=comp_fibers, distances=d)


def _bottleneck(d: np.ndarray) -> float:
    """Largest edge of a minimum spanning tree (Prim) of distance table d."""
    best, worst, done = d[0].copy(), 0.0, np.arange(len(d)) == 0
    for _ in range(len(d) - 1):
        best[done] = np.inf
        nxt = int(np.argmin(best))
        worst = max(worst, float(best[nxt]))
        done[nxt] = True
        best = np.minimum(best, d[nxt])
    return worst


def component_cyclic_arrangement(pv: PsiValues, report: LevelReport) -> bool:
    """Each component's two nearest other components (by the least entry of
    the report's distance table between them) are its base neighbors."""
    m = pv.model.m
    fiber_of = [min(f) for f in report.component_fibers if len(f) == 1]
    if len(fiber_of) != m or len(report.components) != m:
        return False
    row = {e: r for r, e in enumerate(report.elements)}
    rows = [[row[e] for e in comp] for comp in report.components]
    for i in range(m):
        near = sorted((report.distances[np.ix_(rows[i], rows[j])].min(),
                       fiber_of[j]) for j in range(m) if j != i)
        if ({f for _, f in near[:2]}
                != {(fiber_of[i] + 1) % m, (fiber_of[i] - 1) % m}):
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
    :meth:`join`, :meth:`meet` and :meth:`join_distance` take two element
    indices, for single queries such as :meth:`path_between`; their batch
    form :meth:`joins`, :meth:`meets`, :meth:`geodesics` and
    :meth:`join_distances` takes index arrays.  :attr:`graph` is the
    comparability graph, kept for checks and tests.
    """

    def __init__(self, pv: PsiValues):
        self.pv = pv
        model = pv.model
        self.m, self.k, self.q, self.id = model.m, model.k, model.q, \
            model.shape_id
        # Python scalars: join and meet unpack rows one pair at a time
        self.shapes, self.v = model.shapes.tolist(), pv.v.tolist()
        self.whole = len(self.v) - 1

    def join(self, a: int, b: int) -> int:
        """Least common upper bound.

        In one fiber it is the link hull (the fiber arc for [1, k]).
        Otherwise it is the smaller, by (size, index), of the two minimal
        base arcs holding both, one starting at each element's start; an
        arc of length m or more is the whole space.
        """
        m, v = self.m, self.v
        sa, la, loa, hia = self.shapes[a]
        sb, lb, lob, hib = self.shapes[b]
        if la == lb == 1 and sa == sb:
            return self.id(sa, 1, min(loa, lob), max(hia, hib))
        x = max(la, (sb - sa) % m + lb)
        y = max(lb, (sa - sb) % m + la)
        # arc ids, inlined from shape_id: one join is one distance query
        x = (self.q + x - 1) * m + sa if x < m else self.whole
        y = (self.q + y - 1) * m + sb if y < m else self.whole
        return x if v[x] < v[y] or (v[x] == v[y] and x < y) else y

    def join_distance(self, a: int, b: int) -> float:
        """Join metric max(v(J) - v(a), v(J) - v(b)), J the join of a, b."""
        v = self.v
        top = v[self.join(a, b)]
        return max(top - v[a], top - v[b])

    def meet(self, a: int, b: int) -> int:
        """Greatest common lower bound, or -1 when a and b are disjoint.

        The cyclic base intersection has at most two arcs, each taken with
        the intersected links; the larger wins, by size then lower index.
        """
        m, at, v = self.m, self.id, self.v
        sa, la, loa, hia = self.shapes[a]
        sb, lb, lob, hib = self.shapes[b]
        if la == m or lb == m:
            return b if la == m else a
        lo, hi = max(loa, lob), min(hia, hib)
        if lo > hi:
            return -1
        off = (sb - sa) % m  # b's start, counted from a's
        x = at(sb, min(la - off, lb), lo, hi) if off < la else -1
        y = at(sa, min(la, off + lb - m), lo, hi) if off + lb > m else -1
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

    # -- batch form: int id arrays in, arrays out ---------------------------

    def _ids(self, s, ln, lo, hi) -> np.ndarray:
        """Ids of shapes: all k links make an arc, of length m or more the
        whole; piece (f, i, j) sits at f * q + row[i] + j - i."""
        m, q = self.m, self.q
        arc = np.where(ln < m, m * q + (ln - 1) * m + s, self.whole)
        return np.where((lo == 1) & (hi == self.k), arc,
                        s * q + self.pv.model.row[lo] + hi - lo)

    def _pick(self, x, y, larger: bool) -> np.ndarray:
        """x or y, whichever is smaller (larger) by size, then lower id."""
        vx, vy = self.pv.v[x], self.pv.v[y]
        return np.where(((vx > vy) if larger else (vx < vy))
                        | ((vx == vy) & (x < y)), x, y)

    def joins(self, a, b) -> np.ndarray:
        """:meth:`join` of each pair (a[t], b[t])."""
        m, k = self.m, self.k
        sa, la, loa, hia = self.pv.model.shapes[a].T
        sb, lb, lob, hib = self.pv.model.shapes[b].T
        hull = self._ids(sa, 1, np.minimum(loa, lob), np.maximum(hia, hib))
        x = self._ids(sa, np.maximum(la, (sb - sa) % m + lb), 1, k)
        y = self._ids(sb, np.maximum(lb, (sa - sb) % m + la), 1, k)
        return np.where((la == 1) & (lb == 1) & (sa == sb), hull,
                        self._pick(x, y, larger=False))

    def meets(self, a, b) -> np.ndarray:
        """:meth:`meet` of each pair (a[t], b[t]), -1 where disjoint."""
        m = self.m
        sa, la, loa, hia = self.pv.model.shapes[a].T
        sb, lb, lob, hib = self.pv.model.shapes[b].T
        lo, hi = np.maximum(loa, lob), np.minimum(hia, hib)
        off = (sb - sa) % m  # b's start, counted from a's
        x = np.where((lo <= hi) & (off < la),
                     self._ids(sb, np.minimum(la - off, lb), lo, hi), -1)
        y = np.where((lo <= hi) & (off + lb > m),
                     self._ids(sa, np.minimum(la, off + lb - m), lo, hi), -1)
        low = np.where((x < 0) | (y < 0), np.maximum(x, y),
                       self._pick(x, y, larger=True))
        return np.where(la == m, b, np.where(lb == m, a, low))

    def geodesics(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """(lengths, bends) of :meth:`_geodesic` for each pair."""
        v = self.pv.v
        top, low = self.joins(a, b), self.meets(a, b)
        up = (v[top] - v[a]) + (v[top] - v[b])
        down = (v[a] - v[low]) + (v[b] - v[low])  # low = -1 masked below
        take = (low >= 0) & (down < up)
        return np.where(take, down, up), np.where(take, low, top)

    def join_distances(self, a, b) -> np.ndarray:
        """:meth:`join_distance` of each pair."""
        v, top = self.pv.v, self.pv.v[self.joins(a, b)]
        return np.maximum(top - v[a], top - v[b])

    def path_between(self, a: HyperElement, b: HyperElement
                     ) -> Tuple[float, List[HyperElement]]:
        """A shortest path [a, J, b] or [a, M, b], repeated ends dropped."""
        model = self.pv.model
        dist, bend = self._geodesic(model.id_of(a), model.id_of(b))
        path = [a]
        for e in (model.element(bend), b):
            if e != path[-1]:
                path.append(e)
        return dist, path

    @cached_property
    def graph(self) -> Edges:
        """Comparable pairs in both directions, weighted by their size gap."""
        below, above = self.pv.model.strict_order.pairs()
        gap = np.abs(self.pv.v[below] - self.pv.v[above])
        return Edges(rows=np.concatenate([below, above]),
                     cols=np.concatenate([above, below]),
                     weights=np.concatenate([gap, gap]))


@dataclass
class CurvatureReport:
    trials: int
    degenerate: int
    additive: int
    worst_defect: float
    triangle_breaks: int  # triples breaking the triangle inequality

    @property
    def all_additive(self) -> bool:
        return self.degenerate == self.additive


def _draws(n: int, size: int, trials: int, seed: int) -> np.ndarray:
    """``trials`` rows of ``size`` distinct ids below ``n``, bit-equal to
    ``[rng.choice(n, size, replace=False) for _ in range(trials)]`` with
    ``rng = default_rng(seed)`` wherever ``choice`` takes Floyd's branch
    (``n <= 10000`` or ``size <= n // 50``; every caller does).

    Only PCG64's raw stream is read, which NEP 19 pins; each raw word gives
    its low 32-bit half, then its high half.  A row draws Floyd's ids with
    inclusive bounds ``n - size .. n - 1`` (a bound of 0 draws nothing, an
    id already taken is replaced by its bound), then shuffles them with
    Fisher-Yates draws of bounds ``size - 1 .. 1``.  Each draw is Lemire's
    ``(u * (bound + 1)) >> 32`` (arXiv:1805.10941), all rows at once; the
    first row holding a draw that Lemire rejects is drawn one value at a
    time, consuming the extra halves, and the pass resumes after it.
    """
    floyd = np.arange(max(n - size, 1), n)
    span = np.r_[floyd, np.arange(size - 1, 0, -1)].astype(np.uint64) + 1
    k, low = len(span), 0xFFFFFFFF
    floor = (1 << 32) % span  # a low product word below this is rejected
    bits = np.random.default_rng(seed).bit_generator
    stream = np.empty(0, np.uint64)  # 32-bit halves not yet read, in order
    drawn = np.empty((trials, k), np.int64)

    def fill(count):
        nonlocal stream
        if stream.size < count:
            raw = bits.random_raw((count - stream.size + 1) // 2)
            stream = np.r_[stream,
                           np.column_stack([raw & low, raw >> 32]).ravel()]

    done = 0
    while done < trials:
        fill((trials - done) * k)
        m = stream[:(trials - done) * k].reshape(trials - done, k) * span
        rejects = ((m & low) < floor).any(axis=1)
        ok = int(np.r_[rejects, True].argmax())  # rows before the first
        drawn[done:done + ok] = m[:ok] >> 32
        done, stream = done + ok, stream[ok * k:]
        if done < trials:  # this row holds a rejection: one draw at a time
            for c, s in enumerate(span.tolist()):
                while True:
                    fill(1)
                    p, stream = int(stream[0]) * s, stream[1:]
                    if p & low >= (1 << 32) % s:
                        break
                drawn[done, c] = p >> 32
            done += 1

    picks = np.c_[np.zeros((trials, size - len(floyd)), np.int64),
                  drawn[:, :len(floyd)]]
    for c in range(1, size):
        taken = (picks[:, :c] == picks[:, c:c + 1]).any(axis=1)
        picks[taken, c] = n - size + c
    rows = np.arange(trials)
    for i, j in zip(range(size - 1, 0, -1), drawn[:, len(floyd):].T):
        # the view of column i is read before column i is written
        picks[rows, j], picks[:, i] = picks[:, i], picks[rows, j]
    return picks


def curvature_check(pv: PsiValues, trials: int = 1000,
                    seed: int = 0, tol: float = DEFAULT_TOL
                    ) -> CurvatureReport:
    """Sampled triangle inequality, and a count of degenerate triples.

    Not a certificate of curvature >= 0: (1+3)-point comparisons on this
    metric fail with an angle excess of pi (a geodesic branches).

    Samples seeded random element triples, :func:`_draws`' rows of three
    distinct ids, which read only PCG64's raw stream under ``seed`` and equal
    ``Generator.choice``'s rows on numpy 2.4; a triple is degenerate when its
    third element lies on *some* geodesic between the other two, that is
    |d(x, y) - d(x, z) - d(z, y)| <= ``tol`` for one of the three orderings.
    This reading does not depend on which of several shortest paths is
    taken.  On it the two shorter sides sum to the third within ``tol`` by
    definition, so ``additive`` equals ``degenerate`` and ``worst_defect``
    is the largest such gap.  All sides are closed-form distances from
    one :meth:`PsiPathspace.geodesics` call.
    ``triangle_breaks`` counts the triples whose longest side exceeds the
    sum of the other two by more than ``tol``; it is 0 for a metric.
    More trials than the cap taken from ``CONTINUUM_LAB_MAX_ELEMENTS`` are
    refused before any is drawn.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    cap = _max_elements()
    if trials > cap:
        raise ResourceError(f"{trials} curvature trials exceed cap {cap}",
                            achievable=cap)
    x, y, z = _draws(len(pv.v), 3, trials, seed).T
    sides, _ = pv.space.geodesics(np.r_[x, x, y], np.r_[y, z, z])
    xy, xz, yz = sides.reshape(3, trials)
    excess = np.array([xy - xz - yz, xz - xy - yz, yz - xy - xz])
    gap = np.abs(excess).min(axis=0)
    flat = gap[gap <= tol]
    degenerate = int(flat.size)
    worst = float(flat.max()) if degenerate else 0.0
    return CurvatureReport(trials=trials, degenerate=degenerate,
                           additive=degenerate, worst_defect=worst,
                           triangle_breaks=int((excess.max(axis=0) > tol)
                                               .sum()))
