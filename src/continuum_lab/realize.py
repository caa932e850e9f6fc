"""Geometric realization of crooked chain towers on a cell grid.

Links are unions of grid-cell rectangles.  One router threads every level
through the *tube* of the level above: the coarse links' segments (straight
rectangles, each with a longitudinal axis) plus a meet window at each
straight junction of the coarse chain.  The coarse chain is a row of
columns, which is simply a straight tube with one segment per column whose
overlaps are its meet windows.  Inside the tube every monotone run of the
refinement pattern gets its own transverse lane and links are bars along
their lane.  A straight step meets its neighbour in a slot of the coarse
meet window; a turn descends to the next lane through a transverse stub in
that window; at right-angle bends of the tube the lanes turn as nested
L-blocks around the inner corner (which keeps distinct lanes disjoint).
Every tube starts along the columns and bends only toward larger
coordinates, so a lane's transverse position follows from its run and its
segment's axis alone (:func:`_lane`); no lane table is propagated from
junction to junction.  The bars and stubs of the fine links, with their
slots, are the tube of the next level.

Sizing is bottom-up: the transverse thickness of a level-n link is the
width of the lanes the level-(n+1) routing needs, and each meet window is
as wide as the slots and stubs the finer level puts into it, so all cell
counts are fixed by the patterns alone; the physical cell size then
follows from the requested endpoints.  Meshes, adjacency, closures, and
containment are all verified on the grid after construction.

The grid therefore depends only on (n, levels): the endpoints fix only the
cell size and the rotation.  Each tower is built and verified once at unit
cell size, and kept in a bounded per-process cache (``_grid_tower``, the
last ``GRID_TOWERS`` grids); a request scales the kept meshes and Hausdorff
distances, which are square roots of integers times the cell, by its cell
size, and raises the kept verdicts in the order of the checks.  A closure is
the 3x3 dilation of a level's cell mask, taken in numpy; the Hausdorff
distance between consecutive levels is exact integer arithmetic in numpy
too: column and row gaps bound each cell's squared distance, and
:func:`metric_core._settle` settles exactly only the cells whose bound
can still raise the maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chains import (Chain, Link, Rect, RefinementPattern,
                     generate_crooked_pattern, is_crooked, pattern_to_json,
                     rects_contain, verify_chain)
from .errors import DomainError, ResourceError
from .metric_core import FinitePointSet, _settle

MAX_LEVELS = 3
MAX_GRID_CELLS = 5_000_000
# Unit-cell grids kept per process: room for every tower of n <= 5 and
# up to 3 levels (15 grids), and room to spare.
GRID_TOWERS = 32

# Per level (level 1 first): the narrowest meet window at a straight
# adjacency, and the thinnest link.  A level with no finer level gets
# exactly these.
_MIN_WINDOW = (4, 5, 2)
_MIN_THICKNESS = (3, 1, 1)

Interval = Tuple[int, int]


# ---------------------------------------------------------------------------
# pattern combinatorics


def pattern_runs(assignment: Sequence[int]) -> List[int]:
    """Each link's run, counted from 0: runs are the maximal monotone
    stretches, and a turn apex ends its run."""
    labels, d = [0], 0
    for a, b in zip(assignment, assignment[1:]):
        step = (b > a) - (b < a)
        labels.append(labels[-1] + (step * d < 0))
        d = step or d
    return labels


# ---------------------------------------------------------------------------
# tube segments


@dataclass(frozen=True)
class Segment:
    rect: Rect
    axis: str          # 'h': longitudinal = columns; 'v': longitudinal = rows
    link_id: int       # 1-based owner link in its own chain

    @property
    def trans0(self) -> int:
        return self.rect.r0 if self.axis == "h" else self.rect.c0

    def rect_at(self, lo: int, hi: int, t0: int, t1: int) -> Rect:
        """Longitudinal [lo, hi) by transverse [t0, t1)."""
        if self.axis == "h":
            return Rect(lo, hi, t0, t1)
        return Rect(t0, t1, lo, hi)


def _lane(seg: Segment, run: int, lanes: int, bh: int) -> Interval:
    """The transverse interval of lane ``run`` of ``lanes`` in ``seg``, for
    links ``bh`` cells thick.  Every tube starts along 'h' and, in towers of
    at most MAX_LEVELS levels, bends only toward larger coordinates
    (_grid_tower's checks would refuse any other), so each bend reverses
    the lanes' order about the inner corner: lane 0 lies at the low edge
    of an 'h' segment and at the high edge of a 'v' one."""
    rank = run if seg.axis == "h" else lanes - 1 - run
    t = seg.trans0 + 1 + rank * (bh + 1)
    return (t, t + bh)


# ---------------------------------------------------------------------------
# sizing


@dataclass
class _Plan:
    """Per level, level 1 first: the run of each link of its pattern (none
    at level 1), the transverse thickness of its links, and the meet-window
    width of each adjacency c at [c - 1] (only straight junctions have a
    window)."""

    runs: List[List[int]]
    thickness: List[int]
    windows: List[List[int]]


def _plan(n1: int, patterns: Sequence[RefinementPattern]) -> _Plan:
    """Size every level bottom-up from its refinement pattern."""
    runs = [[]] + [pattern_runs(q.assignment) for q in patterns]
    sizes = [n1] + [len(q) for q in patterns]
    thickness: List[int] = []
    windows: List[List[int]] = []
    fine_thick, fine_windows = 0, []   # of the level below, if any
    for k in reversed(range(len(sizes))):
        room = [2] * (sizes[k] - 1)
        lanes = 0
        if k < len(patterns):
            p, run = patterns[k].assignment, runs[k + 1]
            for t in range(len(p) - 1):
                c = min(p[t], p[t + 1])
                if c < sizes[k]:  # a stutter in the last link has no window
                    room[c - 1] += 1 + (fine_thick if run[t] != run[t + 1]
                                        else fine_windows[t])
            lanes = run[-1] + 1
        fine_thick = max(lanes * (fine_thick + 1) + 1, _MIN_THICKNESS[k])
        fine_windows = [max(w, _MIN_WINDOW[k]) for w in room]
        thickness.insert(0, fine_thick)
        windows.insert(0, fine_windows)
    return _Plan(runs=runs, thickness=thickness, windows=windows)


def _crooked_patterns(n1: int, levels: int) -> List[RefinementPattern]:
    patterns: List[RefinementPattern] = []
    n = n1
    for level in range(2, levels + 1):
        if level > 2 and n > 8:
            raise ResourceError(
                f"level-{level} pattern over {n} coarse links is too large",
                achievable=level - 1)
        q = generate_crooked_pattern(n)
        patterns.append(q)
        n = len(q)
    return patterns


# ---------------------------------------------------------------------------
# slot allocation


class _Allocator:
    """Hands out disjoint longitudinal intervals inside a window."""

    def __init__(self, lo: int, hi: int):
        self.hi = hi
        self.next = lo + 1

    def take(self, width: int) -> Interval:
        iv = (self.next, self.next + width)
        self.next += width + 1
        if self.next > self.hi:
            raise DomainError("internal: window overflow in slot allocation")
        return iv


# ---------------------------------------------------------------------------
# routing


def _route(tube: List[Segment], windows: Dict[int, Interval],
           p: Sequence[int], run_of: List[int], bh: int, slot_w: List[int],
           inset: int, gw: int
           ) -> Tuple[List[Link], List[Segment], Dict[int, Interval]]:
    """Thread the fine pattern ``p`` through the coarse tube.

    ``windows`` maps each straight coarse adjacency to its meet window,
    ``run_of[t]`` is the run of fine link t (see :func:`pattern_runs`),
    ``bh`` is the fine link thickness, ``slot_w[t]`` the meet-window width
    of the fine junction after link t, and the terminal anchors sit
    ``inset`` cells inside the grid of width ``gw``.  Returns the fine
    links, their segments, and the meet windows of their straight
    junctions: the tube of the next level.
    """
    turns = {t for t in range(len(p) - 1) if run_of[t] != run_of[t + 1]}
    lane = functools.partial(_lane, lanes=run_of[-1] + 1, bh=bh)

    segs_of: Dict[int, List[int]] = {}
    for i, s in enumerate(tube):
        segs_of.setdefault(s.link_id, []).append(i)

    # the two tube segments that meet at each fine junction
    meet: List[Tuple[int, int]] = []
    for t in range(len(p) - 1):
        ia, ib = segs_of[p[t]], segs_of[p[t + 1]]
        meet.append((ia[-1], ib[0]) if ia[-1] < ib[0] else (ia[0], ib[-1]))

    # slots in the straight coarse windows: straight steps, then turn stubs
    allocs = {c: _Allocator(*iv) for c, iv in windows.items()}
    slot: List[Optional[Interval]] = [None] * (len(p) - 1)
    for stubs in (False, True):
        for t, (i_a, i_b) in enumerate(meet):
            if (t in turns) != stubs or tube[i_a].axis != tube[i_b].axis:
                continue
            c = min(p[t], p[t + 1])
            if c not in allocs:
                raise DomainError(
                    f"fine links {t + 1} and {t + 2} have no meet window "
                    f"in coarse link {c}")
            slot[t] = allocs[c].take(bh if stubs else slot_w[t])

    # anchors of each fine link toward its neighbours, in the coordinates
    # of the tube segment it enters and leaves by
    n = len(p)
    enter: List[Interval] = [(inset, 3)] + [None] * (n - 1)
    leave: List[Interval] = [None] * (n - 1) + [(gw - 3, gw - inset)]
    seg_in = [segs_of[p[0]][0]] + [0] * (n - 1)
    seg_out = [0] * (n - 1) + [segs_of[p[-1]][0]]
    stub_of: List[Optional[Segment]] = [None] * n
    for t, (i_a, i_b) in enumerate(meet):
        sa, sb = tube[i_a], tube[i_b]
        ra, rb = run_of[t], run_of[t + 1]
        seg_out[t], seg_in[t + 1] = i_a, i_b
        iv = slot[t]
        if iv is None:
            # bend: each side extends to the other's lane interval
            leave[t], enter[t + 1] = lane(sb, rb), lane(sa, ra)
            continue
        leave[t] = enter[t + 1] = iv
        if ra != rb:
            la, lb = lane(sa, ra), lane(sa, rb)
            stub = sa.rect_at(iv[0], iv[1], min(la[0], lb[0]),
                              max(la[1], lb[1]))
            stub_of[t] = Segment(rect=stub, axis="v" if sa.axis == "h"
                                 else "h", link_id=t + 1)

    # stitch: one bar per tube segment the link passes, then its stub
    links: List[Link] = []
    segments: List[Segment] = []
    for t in range(n):
        rho = run_of[t]
        i, j = seg_in[t], seg_out[t]
        path = tube[i:j + 1] if i <= j else tube[j:i + 1][::-1]
        rects = []
        for m, seg in enumerate(path):
            a = enter[t] if m == 0 else lane(path[m - 1], rho)
            b = leave[t] if m == len(path) - 1 else lane(path[m + 1], rho)
            bar = seg.rect_at(min(a[0], b[0]), max(a[1], b[1]),
                              *lane(seg, rho))
            rects.append(bar)
            segments.append(Segment(rect=bar, axis=seg.axis, link_id=t + 1))
        if stub_of[t] is not None:
            rects.append(stub_of[t].rect)
            segments.append(stub_of[t])
        links.append(Link(index=t + 1, rects=tuple(rects)))
    meets = {t + 1: iv for t, iv in enumerate(slot)
             if iv is not None and t not in turns}
    return links, segments, meets


def _columns(windows: List[int], height: int) -> List[Rect]:
    """Row of columns; neighbours overlap in their meet windows."""
    cols: List[Rect] = []
    start = 0
    ends = [2] + windows + [2]
    for k in range(len(windows) + 1):
        width = ends[k] + 3 + ends[k + 1]
        cols.append(Rect(start, start + width, 0, height))
        start += width - ends[k + 1]
    return cols


def _realize(n1: int, patterns: Sequence[RefinementPattern]
             ) -> Tuple[List[List[Link]], Tuple[int, int]]:
    """Links of every level, and the grid shape (rows, cols)."""
    plan = _plan(n1, patterns)
    cols = _columns(plan.windows[0], plan.thickness[0])
    shape = (plan.thickness[0], cols[-1].c1)
    if shape[0] * shape[1] > MAX_GRID_CELLS:
        raise ResourceError("grid too large", achievable=None)
    tube = [Segment(rect=c, axis="h", link_id=k + 1)
            for k, c in enumerate(cols)]
    windows = {j: (cols[j].c0, cols[j - 1].c1) for j in range(1, n1)}
    chains = [[Link(index=k + 1, rects=(c,)) for k, c in enumerate(cols)]]
    for k, q in enumerate(patterns, start=1):
        links, tube, windows = _route(
            tube, windows, q.assignment, plan.runs[k], plan.thickness[k],
            plan.windows[k], inset=k, gw=shape[1])
        chains.append(links)
    return chains, shape


def _contained(chains: Sequence[Sequence[Link]],
               patterns: Sequence[RefinementPattern]) -> bool:
    """Whether the closure of each fine link lies in its coarse link,
    cell-exactly on the grid."""
    return all(rects_contain([r.dilate() for r in link.rects],
                             coarse[a - 1].rects)
               for coarse, fine, q in zip(chains, chains[1:], patterns)
               for link, a in zip(fine, q.assignment))


# ---------------------------------------------------------------------------
# towers


@dataclass
class LevelDiagnostics:
    level: int
    mesh: float
    eps: float
    chain_ok: bool
    nested_in_previous: Optional[bool]     # None at level 1
    hausdorff_to_previous: Optional[float]
    hausdorff_bound: Optional[float]


@dataclass
class ChainTower:
    """Nested chain cover of an arc from x to y, one chain per level."""

    levels: List[Chain]
    patterns: List[RefinementPattern]
    endpoints: Tuple[Tuple[float, float], Tuple[float, float]]
    cell_size: float
    x_cell: Tuple[int, int]
    y_cell: Tuple[int, int]
    grid_shape: Tuple[int, int]   # (rows, cols)
    rotation: float
    diagnostics: List[LevelDiagnostics]

    def cell_center(self, cell: Tuple[int, int]) -> Tuple[float, float]:
        dc = cell[0] - self.x_cell[0]
        dr = cell[1] - self.x_cell[1]
        ca, sa = math.cos(self.rotation), math.sin(self.rotation)
        x = self.endpoints[0]
        return (x[0] + self.cell_size * (ca * dc - sa * dr),
                x[1] + self.cell_size * (sa * dc + ca * dr))


def _mask(rect_lists: Sequence[Sequence[Rect]], shape) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    for rects in rect_lists:
        for r in rects:
            m[r.r0:r.r1, r.c0:r.c1] = True
    return m


def _column_gaps(src: np.ndarray) -> np.ndarray:
    """Each cell's gap, in cells, to the nearest ``src`` cell of its column;
    at least rows + columns in a column with none."""
    n, big = len(src), sum(src.shape)
    at = np.arange(big, big + n, dtype=np.int32)[:, None]  # 0 marks none
    up = at - np.maximum.accumulate(src * at)
    down = at - np.maximum.accumulate(src[::-1] * at)
    return np.minimum(up, down[::-1])


def _farthest_sq(src: np.ndarray, dst: np.ndarray) -> int:
    """The largest squared cell distance from a cell of ``dst & ~src`` to
    its nearest ``src`` cell, 0 when there is none.  The nearest ``src``
    cell of its column or row bounds it (its column alone for at most 128
    cells, one batch), and :func:`_settle` settles the cells, 128 at a
    time, as the min over the columns j' of vert[r, j']^2 + (c - j')^2,
    vert the column gap.  Squares are int64: int32 overflows on thin grids."""
    r, c = np.nonzero(dst & ~src)
    if not len(r):
        return 0
    if src.shape[1] > src.shape[0]:  # settle along the shorter lines
        src, r, c = src.T, c, r
    vert = _column_gaps(src)
    gap = (vert[r, c] if len(r) <= 128
           else np.minimum(vert[r, c], _column_gaps(src.T).T[r, c]))
    cols = np.arange(src.shape[1], dtype=np.int64)
    return int(_settle(np.square(gap, dtype=np.int64),
                       lambda k: (np.square(vert[r[k]], dtype=np.int64)
                                  + (c[k, None] - cols) ** 2).min(axis=1),
                       128, 0))


def _grid_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two cell masks, in cells, measured between
    cell centres: the root of the larger farthest squared cell distance
    (the root is monotone and correctly rounded, so this is the max of the
    exact Euclidean distance transform's roots, bit for bit)."""
    return math.sqrt(max(_farthest_sq(a, b), _farthest_sq(b, a)))


def _closure_mask(m: np.ndarray) -> np.ndarray:
    """The cells of ``m`` and their 8 neighbours: the 3 x 3 dilation, as
    one OR of row shifts, then one of column shifts."""
    rows = m.copy()
    rows[1:] |= m[:-1]
    rows[:-1] |= m[1:]
    out = rows.copy()
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def build_tower(n_coarse_initial: int, levels: int,
                x: Tuple[float, float], y: Tuple[float, float]) -> ChainTower:
    """Nested crooked chain cover of an arc from x to y.

    Level n is a 2^-n-chain; each refinement pattern is crooked and its
    closure containment is verified cell-exactly on the grid.  The two
    endpoints sit in the first and last link of every level.  Endpoints too
    far apart for the mesh bounds, or towers too deep to realize, raise a
    resource error carrying the deepest achievable level count.
    """
    if levels < 1:
        raise DomainError("levels must be >= 1")
    if n_coarse_initial < 1:
        raise DomainError("need at least one coarse link")
    if not all(math.isfinite(v) for v in (*x, *y)):
        raise DomainError(f"endpoints must be finite; got {tuple(x)} and "
                          f"{tuple(y)}")
    if tuple(x) == tuple(y):
        raise DomainError("endpoints must differ")
    if levels > MAX_LEVELS:
        raise ResourceError(
            f"towers beyond {MAX_LEVELS} levels are not realizable here",
            achievable=_deepest(n_coarse_initial, x, y, MAX_LEVELS))
    try:
        return _build_tower(n_coarse_initial, levels, x, y)
    except ResourceError as err:
        if err.achievable is None or err.achievable >= levels:
            err.achievable = _deepest(n_coarse_initial, x, y, levels - 1)
        raise


def _deepest(n1, x, y, cap) -> int:
    for lv in range(cap, 0, -1):
        try:
            _build_tower(n1, lv, x, y)
            return lv
        except (ResourceError, DomainError):
            continue
    return 0


def _mid_row(r: Rect) -> int:
    return r.r0 + (r.r1 - r.r0) // 2


@dataclass(frozen=True)
class _GridTower:
    """A tower at unit cell size, which depends on (n, levels) alone: the
    links of every level, the grid shape, the endpoint cells and whether
    they lie in the terminal links of every level; per level, its
    structural chain failures, its mesh and, past level 1, whether it lies
    in the previous closure and the grid Hausdorff distance between the
    two closures; and the containment and crookedness verdicts."""

    level_links: Tuple[Tuple[Link, ...], ...]
    shape: Tuple[int, int]
    end_cells: Tuple[Tuple[int, int], Tuple[int, int]]
    ends_inside: bool
    chain_failures: Tuple[Tuple[str, ...], ...]
    unit_meshes: Tuple[float, ...]
    nested: Tuple[Optional[bool], ...]
    unit_hausdorff: Tuple[Optional[float], ...]
    contained: bool
    crooked: bool


@functools.lru_cache(maxsize=GRID_TOWERS)
def _grid_tower(n1: int, patterns: Tuple[RefinementPattern, ...]
                ) -> _GridTower:
    """The tower of ``patterns`` over ``n1`` coarse links, built and checked
    at unit cell size once per process while it stays among the last
    ``GRID_TOWERS`` asked for."""
    chains, shape = _realize(n1, patterns)

    # endpoint cells: on the lanes of the finest terminal links
    x_cell = (2, _mid_row(chains[-1][0].rects[0]))
    y_cell = (shape[1] - 3, _mid_row(chains[-1][-1].rects[-1]))
    ends_inside = all(
        any(r.c0 <= cell[0] < r.c1 and r.r0 <= cell[1] < r.r1
            for r in link.rects)
        for links in chains
        for cell, link in ((x_cell, links[0]), (y_cell, links[-1])))

    failures, meshes, nested, far = [], [], [None], [None]
    prev_closure = None
    for links in chains:
        report = verify_chain(Chain(links=links))
        failures.append(tuple(report.failures))
        meshes.append(report.mesh)
        mask = _mask([l.rects for l in links], shape)
        # the finer closure of this step and the coarser one of the next
        closure = _closure_mask(mask) if len(chains) > 1 else None
        if prev_closure is not None:
            nested.append(bool((mask & ~prev_closure).sum() == 0))
            far.append(_grid_hausdorff(closure, prev_closure))
        prev_closure = closure

    return _GridTower(
        level_links=tuple(map(tuple, chains)), shape=shape,
        end_cells=(x_cell, y_cell), ends_inside=ends_inside,
        chain_failures=tuple(failures), unit_meshes=tuple(meshes),
        nested=tuple(nested), unit_hausdorff=tuple(far),
        contained=_contained(chains, patterns),
        crooked=all(is_crooked(pat).ok for pat in patterns))


def _build_tower(n1: int, levels: int, x, y) -> ChainTower:
    # the patterns first, on every call: they read the element cap
    patterns = _crooked_patterns(n1, levels)
    grid = _grid_tower(n1, tuple(patterns))
    x_cell, y_cell = grid.end_cells

    dx, dy = y[0] - x[0], y[1] - x[1]
    dist = math.hypot(dx, dy)
    gc, gr = y_cell[0] - x_cell[0], y_cell[1] - x_cell[1]
    cell = dist / math.hypot(gc, gr)
    rotation = math.atan2(dy, dx) - math.atan2(gr, gc)

    level_chains = [Chain(links=list(links), cell_size=cell)
                    for links in grid.level_links]
    if not grid.ends_inside:
        raise DomainError("internal: endpoint outside terminal link")

    # every unit length is a square root of an integer: scaling it rounds
    # as the same length measured at this cell size does
    diags: List[LevelDiagnostics] = []
    prev_mesh = None
    for n, (failures, unit_mesh, nested, far) in enumerate(zip(
            grid.chain_failures, grid.unit_meshes, grid.nested,
            grid.unit_hausdorff), start=1):
        eps = 2.0 ** (-n)
        mesh = unit_mesh * cell
        if failures and mesh < eps:
            raise DomainError(
                f"internal: level {n} chain invalid: {list(failures[:3])}")
        if mesh >= eps:
            raise ResourceError(f"level {n} mesh {mesh:.4f} exceeds {eps}",
                                achievable=None)
        diags.append(LevelDiagnostics(
            level=n, mesh=mesh, eps=eps, chain_ok=not failures,
            nested_in_previous=nested,
            hausdorff_to_previous=None if far is None else far * cell,
            hausdorff_bound=prev_mesh))
        prev_mesh = mesh

    if not grid.contained:
        raise DomainError("containment violated on the grid")
    if not grid.crooked:
        raise DomainError("internal: realized pattern is not crooked")

    return ChainTower(levels=level_chains, patterns=patterns,
                      endpoints=(tuple(x), tuple(y)), cell_size=cell,
                      x_cell=x_cell, y_cell=y_cell, grid_shape=grid.shape,
                      rotation=rotation, diagnostics=diags)


# ---------------------------------------------------------------------------
# standalone realizations


def realize_pattern(pattern: RefinementPattern) -> Tuple[Chain, Chain]:
    """Realize one refinement pattern inside a straight row of columns.

    Returns the coarse row and the fine snake, both with unit cells.  The
    pattern must run from the first coarse link to the last.  A pattern
    the router cannot fit (some stutters, e.g. one in the last coarse
    link), or whose closure containment fails on the grid, raises a
    domain error, so the snake is a chain whose link closures lie in
    their coarse links.
    """
    p = pattern.assignment
    if p[0] != 1 or p[-1] != pattern.n_coarse:
        raise DomainError(f"pattern must run from coarse link 1 to "
                          f"{pattern.n_coarse}; got {p[0]} to {p[-1]}")
    chains, _ = _realize(pattern.n_coarse, [pattern])
    if not _contained(chains, [pattern]):
        raise DomainError("containment violated on the grid")
    coarse, fine = (Chain(links=links) for links in chains)
    report = verify_chain(fine)
    if not report.ok:
        raise DomainError(f"pattern {list(p)} does not realize as a chain: "
                          f"{report.failures[0]}")
    return coarse, fine


def chain_point_sets(chain: Chain) -> List[FinitePointSet]:
    """Cell-center point set of every link, in the grid frame: origin at
    the grid corner, axis-aligned, scaled by ``cell_size``.  The points do
    not lie on the arc from x to y; :meth:`ChainTower.cell_center` places
    a cell in the plane.  Points come rect by rect, columns outer, rows
    inner.
    """
    spec, ends, total = [], [], 0   # per rect: c0, r0, height, first, cells
    for link in chain.links:
        for r in link.rects:
            n = (r.c1 - r.c0) * (r.r1 - r.r0)
            spec.append((r.c0, r.r0, r.r1 - r.r0, total, n))
            total += n
        ends.append(total)
    per_rect = np.array(spec)
    per_cell = per_rect.repeat(per_rect[:, 4], axis=0)
    # cell k of a rect is (c0 + k // height, r0 + k % height)
    dc, dr = np.divmod(np.arange(total) - per_cell[:, 3], per_cell[:, 2])
    pts = (np.column_stack((per_cell[:, 0] + dc, per_cell[:, 1] + dr))
           + 0.5) * chain.cell_size
    return [FinitePointSet(points=pts[a:b])
            for a, b in zip([0] + ends, ends)]


def realize_planar(tower: ChainTower) -> List[List[FinitePointSet]]:
    """Point-set realization of a tower: per level, per link, in the grid
    frame of :func:`chain_point_sets`."""
    return [chain_point_sets(level) for level in tower.levels]


def tower_to_json(tower: ChainTower) -> dict:
    return {
        "levels": [c.to_json() for c in tower.levels],
        "patterns": [pattern_to_json(p) for p in tower.patterns],
        "endpoints": [list(tower.endpoints[0]), list(tower.endpoints[1])],
        "cell_size": tower.cell_size,
        "grid_shape": list(tower.grid_shape),
        "diagnostics": [
            {"level": d.level, "mesh": d.mesh, "eps": d.eps,
             "chain_ok": d.chain_ok,
             "nested_in_previous": d.nested_in_previous,
             "hausdorff_to_previous": d.hausdorff_to_previous,
             "hausdorff_bound": d.hausdorff_bound}
            for d in tower.diagnostics],
    }
