"""Finite graph models of continua and their hyperspaces.

A :class:`GraphContinuum` is a connected graph with a deterministic planar
embedding.  Its "subcontinua" are the connected vertex sets; the containment
poset of those sets is the finite stand-in for the hyperspace of a continuum.
Its one breadth-first walk from vertex 0, :attr:`GraphContinuum.order`, is
both its connectivity check and the Whitney enumeration order.  The
family depends only on the graph, so each graph's is enumerated once per
process and kept, per (graph, cap) and under two bounds, as one immutable
:class:`Hyperspace` that carries its packed words; a kernel packs any other
family once per call (:func:`enumerate_subcontinua`, :func:`hyperspace`).

Also provided: order arcs between nested subcontinua, terminal-subcontinuum
and triod detection, and the two classic hyperspace homeomorphisms
(interval -> triangle, circle -> disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import errors
from .errors import DomainError, ResourceError, _max_elements, _row_blocks

MAX_ORDER_ARCS = 1_000_000
KEPT_HYPERSPACES = 32


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
        if len(self.order) != self.n:
            raise DomainError("graph must be connected")

    @cached_property
    def neighbors(self) -> Tuple[FrozenSet[int], ...]:
        """Each vertex's neighbours, indexed by vertex."""
        rows: List[set] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            rows[u].add(v)
            rows[v].add(u)
        return tuple(map(frozenset, rows))

    @cached_property
    def order(self) -> Tuple[int, ...]:
        """The breadth-first order from vertex 0, the Whitney enumeration
        order; it holds every vertex exactly when the graph is connected."""
        return tuple(self._walk(0, range(self.n)))

    def _walk(self, start: int, inside) -> List[int]:
        """The vertices of ``inside`` reached from ``start`` within it,
        breadth first, each vertex's new neighbours in increasing order."""
        nb = self.neighbors
        seen, mark = [start], {start}
        for v in seen:
            for w in sorted(nb[v]):
                if w in inside and w not in mark:
                    mark.add(w)
                    seen.append(w)
        return seen

    def is_connected(self, vertices: FrozenSet[int]) -> bool:
        """Whether ``vertices`` spans a connected subgraph; an id that is no
        vertex has no neighbors, so it is connected only on its own, and
        the empty set is not connected."""
        start = min(vertices, default=-1)
        if not 0 <= start < self.n:
            return len(vertices) == 1
        return len(self._walk(start, vertices)) == len(vertices)

    def neighbors_of_set(self, vertices: FrozenSet[int]) -> FrozenSet[int]:
        nb = self.neighbors
        out: set = set()
        for v in vertices:
            out |= nb[v]
        return frozenset(out - vertices)


# ---------------------------------------------------------------------------
# constructors


_KIND_PARAMS = {"path": {"n"}, "cycle": {"n"},
                "star": {"legs", "leg_length"}, "cantor_fan": {"depth"}}


def build_continuum(kind: str, **params) -> GraphContinuum:
    """Build a named continuum model: path, cycle, star, or cantor_fan.

    A graph of more vertices than the cap taken from
    ``CONTINUUM_LAB_MAX_ELEMENTS`` is refused before any of it is built.
    """
    if kind not in _KIND_PARAMS:
        raise DomainError(f"unknown continuum kind: {kind!r}")
    unknown = sorted(set(params) - _KIND_PARAMS[kind])
    if unknown:
        raise DomainError(f"unknown {kind} parameters: {unknown}")
    cap = _max_elements()
    if kind == "path":
        n = int(params.get("n", 2))
        if n < 1:
            raise DomainError("path needs n >= 1")
        _refuse_over_cap(f"path with {n} vertices", n, cap, cap)
        edges = tuple((i, i + 1) for i in range(n - 1))
        pos = tuple((float(i), 0.0) for i in range(n))
        return GraphContinuum(n=n, edges=edges, pos=pos, kind=f"path-{n}")
    if kind == "cycle":
        n = int(params.get("n", 3))
        if n < 3:
            raise DomainError("cycle needs n >= 3")
        _refuse_over_cap(f"cycle with {n} vertices", n, cap, cap)
        edges = tuple((i, (i + 1) % n) for i in range(n))
        pos = tuple((math.cos(2 * math.pi * i / n),
                     math.sin(2 * math.pi * i / n)) for i in range(n))
        return GraphContinuum(n=n, edges=edges, pos=pos, kind=f"cycle-{n}")
    if kind == "star":
        legs = int(params.get("legs", 3))
        leg_length = int(params.get("leg_length", 1))
        if legs < 3 or leg_length < 1:
            raise DomainError("star needs legs >= 3 and leg_length >= 1")
        n = 1 + legs * leg_length
        _refuse_over_cap(f"star with {n} vertices", n,
                         1 + legs * ((cap - 1) // legs), cap)
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
    deepest = 0  # depth d has 1 + (d + 1) * 2^d vertices
    while 1 + ((deepest + 2) << (deepest + 1)) <= cap:
        deepest += 1
    _refuse_over_cap(f"cantor_fan of depth {depth}", depth, deepest, cap)
    return _cantor_fan(depth)


def _refuse_over_cap(what: str, size: int, largest: int, cap: int) -> None:
    """Refuse a size parameter above the largest whose graph has at most
    ``cap`` vertices, naming that largest one."""
    if size > largest:
        raise ResourceError(f"{what} exceeds the vertex cap {cap}",
                            achievable=largest)


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


class Hyperspace(tuple):
    """A family of vertex sets as frozensets, in its order, with the tables
    the kernels read, each built on first read and kept, read-only: ``card``,
    the member sizes; ``flat``, their vertices back to back; ``verts``, the
    sorted vertices of their union; ``words``, their :func:`packed_rows`,
    each member's run of ``flat`` set in the columns ``verts``.  A kept
    family has at most 2^16 vertex cells, so at most 72 vertices, two words
    a row: its tables hold at most five 8-byte entries a cell, a constant
    multiple of the kept cell bound."""

    @cached_property
    def card(self) -> np.ndarray:
        return _frozen(np.fromiter(map(len, self), np.int64, len(self)))

    @cached_property
    def flat(self) -> np.ndarray:
        return _frozen(np.fromiter(chain.from_iterable(self), np.int64))

    @cached_property
    def verts(self) -> np.ndarray:
        return _frozen(np.array(sorted(set().union(*self)), dtype=np.int64))

    @cached_property
    def words(self) -> np.ndarray:
        width = len(self.verts)
        return _frozen(packed_rows(
            np.r_[0, np.cumsum(self.card)],
            np.searchsorted(self.verts, self.flat), np.arange(width), width))


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def hyperspace(family: Sequence[FrozenSet[int]]) -> Hyperspace:
    """``family`` if it is a :class:`Hyperspace`, else a new one of it."""
    return family if isinstance(family, Hyperspace) else Hyperspace(
        map(frozenset, family))


# the kept families by (graph, cap), least recently used first
_kept: Dict[Tuple[GraphContinuum, int], Hyperspace] = {}


def enumerate_subcontinua(g: GraphContinuum) -> Hyperspace:
    """All connected vertex sets, sorted by (size, sorted vertex tuple), as
    a :class:`Hyperspace`.

    Raises :class:`ResourceError` when the count would exceed the cap taken
    from ``CONTINUUM_LAB_MAX_ELEMENTS``.  A family of at most
    ``errors.SIZE_BLOCK_FLOATS`` vertex cells (the sum of its member
    sizes) is kept per (graph, cap), the last ``KEPT_HYPERSPACES`` used,
    so equal graphs share one record and its tables; a refused graph keeps
    nothing.  A connected graph on n vertices has at least n - k + 1
    connected sets of k vertices (a path has exactly that), so at least
    n(n+1)(n+2)/6 cells: past that bound the graph is not even looked up.
    """
    cap, n = _max_elements(), g.n
    if n * (n + 1) * (n + 2) > 6 * errors.SIZE_BLOCK_FLOATS:
        return _connected_sets(g, cap)
    key = (g, cap)
    family = _kept.pop(key, None)  # re-inserted last: the most recent use
    if family is None:
        family = _connected_sets(g, cap)
        if sum(map(len, family)) > errors.SIZE_BLOCK_FLOATS:
            return family
        if len(_kept) >= KEPT_HYPERSPACES:
            del _kept[next(iter(_kept))]
    _kept[key] = family
    return family


def _connected_sets(g: GraphContinuum, cap: int) -> Hyperspace:
    """:func:`enumerate_subcontinua`'s family, grown size by size and
    refused as soon as its count passes ``cap``."""
    frontier = [frozenset([v]) for v in range(g.n)]
    seen, out = set(frontier), list(frontier)
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
    return Hyperspace(out)


def order_arcs_between(g: GraphContinuum, a: FrozenSet[int],
                       b: FrozenSet[int]) -> List[Tuple[FrozenSet[int], ...]]:
    """All discrete order arcs from a to b, growing one vertex per step.

    Each step stays connected, so every listed chain is a maximal chain of
    subcontinua between the endpoints.  More than ``MAX_ORDER_ARCS`` arcs
    raise :class:`ResourceError`.
    """
    if (not (g.is_connected(a) and g.is_connected(b))
            or min(a | b) < 0 or max(a | b) >= g.n):
        raise DomainError("endpoints must be subcontinua")
    if not a <= b:
        raise DomainError("need a contained in b")
    if a == b:
        return [(a,)]
    arcs: List[Tuple[FrozenSet[int], ...]] = []
    kids: Dict[FrozenSet[int], List[FrozenSet[int]]] = {}

    def children(top):
        got = kids.get(top)
        if got is None:
            got = kids[top] = [top | {w} for w in
                               sorted(g.neighbors_of_set(top) & b)]
        return iter(got)

    # depth first, children in vertex order: chain[i] is the set whose
    # remaining children todo[i] holds
    chain, todo = [a], [children(a)]
    while todo:
        top = next(todo[-1], None)
        if top is None:
            todo.pop()
            chain.pop()
        elif top == b:
            arcs.append((*chain, top))
            if len(arcs) > MAX_ORDER_ARCS:
                raise ResourceError("too many order arcs",
                                    achievable=MAX_ORDER_ARCS)
        else:
            chain.append(top)
            todo.append(children(top))
    return arcs


# ---------------------------------------------------------------------------
# terminal subcontinua and triods


def is_terminal(k: FrozenSet[int], family: Sequence[FrozenSet[int]]) -> bool:
    """k is terminal when every family member meeting it is comparable."""
    for m in family:
        if m & k and not (m <= k or k <= m):
            return False
    return True


def packed_rows(ptr: np.ndarray, indices: np.ndarray, col: np.ndarray,
                width: int) -> np.ndarray:
    """Row r: the bits ``col[indices[ptr[r]:ptr[r + 1]]]``, as (rows, words)
    little-endian uint64 words; bit b of word w is column 64 w + b, and the
    bits from ``width`` on are 0, so a column equal to ``width`` sets none.
    Filled in the :func:`_row_blocks` of ``width + 1`` cells."""
    rows, col = len(ptr) - 1, col.astype(np.int32)
    out = np.zeros((rows, -(-width // 64)), dtype="<u8")
    for at in _row_blocks(rows, width + 1):
        p = ptr[at.start:at.stop + 1]
        table = np.zeros((len(p) - 1, width + 1), dtype=bool)
        cell = col[indices[p[0]:p[-1]]]
        cell += np.repeat(np.arange(0, table.size, width + 1, dtype=np.int32),
                          np.diff(p))
        table.ravel()[cell] = True
        out.view(np.uint8)[at, :(width + 7) // 8] = np.packbits(
            table[:, :width], axis=1, bitorder="little")
    return out


def row_groups(keys: np.ndarray, *lead: np.ndarray):
    """Stable sort of the rows of a (rows, words) key table by (lead...,
    words): returns ``order`` and ``edge``, True where a sorted row starts a
    run of equal (lead..., words)."""
    order = np.lexsort([*keys.T[::-1], *lead[::-1]])
    edge = np.zeros(len(order), dtype=bool)
    edge[:1] = True
    for col in (*lead, *keys.T):
        c = col[order]
        edge[1:] |= c[1:] != c[:-1]
    return order, edge


def row_classes(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, cls)``: the first row of each distinct key row, in
    :func:`row_groups` order, and each row's class, ``cls[first[c]] == c``."""
    order, edge = row_groups(keys)
    cls = np.empty(len(keys), dtype=np.int64)
    cls[order] = np.cumsum(edge) - 1
    return order[edge], cls


def unpacked_rows(words: np.ndarray, width: int) -> np.ndarray:
    """The bool table of ``width`` columns that :func:`packed_rows` packed."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=width,
                         bitorder="little").view(bool)


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
    The witness is the first in the order of the family's index triples
    i < j < l.

    The search joins the family's :class:`Hyperspace` words.  A block of
    rows i lists the pairs i < j whose core K = F_i & F_j is non-empty and
    proper in both, grouped by (i, K) with :func:`row_groups`: (i, j, l) is
    then a triod exactly when j < l lie in one group, F_j & F_l = K, and K
    is connected, which is checked only for these hits, in (i, j) order.
    Members of fewer than two vertices hold no proper core and are left
    out; blocks start at one row and double, so early witnesses stay cheap.
    Row blocks and partner blocks hold at most the package's block budget,
    ``errors.SIZE_BLOCK_FLOATS`` words, read at each call, or one row.
    """
    fam = hyperspace(enumerate_subcontinua(g) if family is None else family)
    keep = np.flatnonzero(fam.card > 1)
    w = fam.words[keep]
    n, width = w.shape
    lo, rows = 0, 1
    while lo < n:
        blk, rest = w[lo:lo + rows, None], w[lo:]
        core = blk & rest  # (rows i, members j >= i, words)
        ii, jj = np.nonzero(np.triu(core.any(axis=2) & (core != blk).any(
            axis=2) & (core != rest).any(axis=2), 1))
        order, edge = row_groups(core[ii, jj], ii)
        k, ii, jj = core[ii, jj][order], ii[order] + lo, jj[order] + lo
        lo, rows = lo + len(blk), min(2 * rows, max(
            1, errors.SIZE_BLOCK_FLOATS // (n * width)))
        stop = np.append(np.flatnonzero(edge)[1:], len(ii))[
            np.cumsum(edge) - 1]
        cnt = stop - np.arange(len(ii)) - 1  # the later pairs of its group
        end = np.cumsum(cnt)  # partner lists laid end to end
        if not end[-1:].any():  # no group holds two pairs
            continue
        begin = end - cnt
        best = np.full(len(ii), len(ii))  # each pair's first triod partner
        p = 0
        while p < len(ii):  # pairs whose partners fill a block, or one pair
            q = max(p + 1, int(np.searchsorted(
                end, begin[p] + errors.SIZE_BLOCK_FLOATS // width,
                "right")))
            a = np.repeat(np.arange(p, q), cnt[p:q])
            b = a + 1 + np.arange(begin[p], end[q - 1]) - begin[a]
            hit = ((w[jj[a]] & w[jj[b]]) == k[a]).all(axis=1)
            np.minimum.at(best, a[hit], b[hit])
            p = q
        found = np.flatnonzero(best < len(ii))
        for x in found[np.lexsort((jj[found], ii[found]))].tolist():
            f_i, f_j = fam[keep[ii[x]]], fam[keep[jj[x]]]
            if g.is_connected(f_i & f_j):
                return Triod(a=f_i, b=f_j, c=fam[keep[jj[best[x]]]],
                             core=f_i & f_j)
    return None


# ---------------------------------------------------------------------------
# classic hyperspace homeomorphisms


def interval_arc_to_triangle(a, b):
    """Map a subinterval [a, b] of [0, 1] to (midpoint, length).

    The image of all subintervals is the triangle with vertices
    (0, 0), (1, 0), (1/2, 1); degenerate intervals land on the base.
    Elementwise on arrays, which must all be subintervals.
    """
    if not np.all((0.0 <= a) & (a <= b) & (b <= 1.0)):
        raise DomainError("need 0 <= a <= b <= 1")
    return ((a + b) / 2.0, b - a)


def _floats(x, y):
    """A pair of arrays as given, or of 0-d results as Python floats."""
    return (x, y) if np.ndim(x) else (float(x), float(y))


def triangle_to_interval_arc(u, v):
    """Inverse of :func:`interval_arc_to_triangle`, within 1e-9; elementwise
    on arrays, with floats for scalars."""
    a = u - v / 2.0
    b = u + v / 2.0
    tol = 1e-9
    if np.any((v < -tol) | (a < -tol) | (b > 1.0 + tol)):
        raise DomainError("point lies outside the triangle image")
    return _floats(np.maximum(a, 0.0), np.minimum(b, 1.0))


TWO_PI = 2.0 * math.pi


def _by_math(fn, *args) -> np.ndarray:
    """``fn`` from :mod:`math` element by element over broadcast arrays.

    numpy's own transcendentals round differently from :mod:`math`
    (``np.arctan2`` on 7.8% of inputs), so the maps below call :mod:`math`.
    """
    cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = np.fromiter(map(fn, *(c.ravel().tolist() for c in cols)), float,
                      cols[0].size)
    return out.reshape(cols[0].shape)


def circle_arc_to_disk(alpha, beta):
    """Map a circular arc [alpha, beta] (radians, beta - alpha in [0, 2pi])
    to the closed unit disk.

    Radius encodes the co-length (full circle -> center), angle encodes the
    arc midpoint.  Injective for arcs with midpoint taken mod 2pi; every full
    circle maps to the origin.  Elementwise on arrays, which must all be
    such arcs, with floats for scalars.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    width = beta - alpha
    if np.any((width < 0) | (width > TWO_PI + 1e-12)):
        raise DomainError("need 0 <= beta - alpha <= 2*pi")
    r = 1.0 - width / TWO_PI
    mid = (alpha + beta) / 2.0
    # full circles must hit the center exactly, also when beta - alpha
    # misses 2*pi by a rounding ulp
    full = width >= TWO_PI - 1e-12
    return _floats(np.where(full, 0.0, r * _by_math(math.cos, mid)),
                   np.where(full, 0.0, r * _by_math(math.sin, mid)))


def disk_to_circle_arc(x, y):
    """Inverse of :func:`circle_arc_to_disk` with canonical midpoint.

    Returns (alpha, beta) with midpoint in (-pi, pi]; the origin maps to the
    full circle with midpoint 0.  Elementwise on arrays, which must all lie
    in the disk, with floats for scalars.
    """
    r = _by_math(math.hypot, x, y)
    if np.any(r > 1.0 + 1e-12):
        raise DomainError("point lies outside the unit disk")
    r = np.minimum(r, 1.0)
    width = TWO_PI * (1.0 - r)
    mid = np.where(r > 0, _by_math(math.atan2, y, x), 0.0)
    mid = np.where(mid <= -math.pi, math.pi, mid)
    return _floats(mid - width / 2.0, mid + width / 2.0)
