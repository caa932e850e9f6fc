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
The bars and stubs of the fine links, with their slots, are the tube of the
next level.

Sizing is bottom-up: the transverse thickness of a level-n link is the
width of the lanes the level-(n+1) routing needs, and each meet window is
as wide as the slots and stubs the finer level puts into it, so all cell
counts are fixed by the patterns alone; the physical cell size then
follows from the requested endpoints.  Meshes, adjacency, closures, and
containment are all verified on the grid after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .chains import (Chain, Link, Rect, RefinementPattern,
                     generate_crooked_pattern, is_crooked, rects_contain,
                     verify_chain)
from .errors import DomainError, ResourceError
from .metric_core import FinitePointSet

MAX_LEVELS = 3
MAX_LINKS_PER_LEVEL = 2000
MAX_GRID_CELLS = 5_000_000

# Per level (level 1 first): the narrowest meet window at a straight
# adjacency, and the thinnest link.  A level with no finer level gets
# exactly these.
_MIN_WINDOW = (4, 5, 2)
_MIN_THICKNESS = (3, 1, 1)

Interval = Tuple[int, int]


# ---------------------------------------------------------------------------
# pattern combinatorics


@dataclass(frozen=True)
class Run:
    start: int  # 0-based, inclusive
    end: int
    direction: int


def pattern_runs(assignment: Sequence[int]) -> List[Run]:
    """Maximal monotone stretches; a turn apex ends its run."""
    p = list(assignment)
    runs: List[Run] = []
    s, d = 0, 0
    for i in range(1, len(p)):
        step = p[i] - p[i - 1]
        if step == 0:
            continue
        step = 1 if step > 0 else -1
        if d == 0:
            d = step
        elif step != d:
            runs.append(Run(s, i - 1, d))
            s, d = i, step
    runs.append(Run(s, len(p) - 1, d if d else 1))
    return runs


# ---------------------------------------------------------------------------
# tube segments


@dataclass
class Segment:
    rect: Rect
    axis: str          # 'h': longitudinal = columns; 'v': longitudinal = rows
    link_id: int       # 1-based owner link in its own chain
    direction: int     # +1 when the tube runs toward larger coordinates
    band_start: Dict[int, int] = field(default_factory=dict)

    @property
    def trans0(self) -> int:
        return self.rect.r0 if self.axis == "h" else self.rect.c0

    @property
    def trans1(self) -> int:
        return self.rect.r1 if self.axis == "h" else self.rect.c1

    def rect_at(self, lo: int, hi: int, t0: int, t1: int) -> Rect:
        """Longitudinal [lo, hi) by transverse [t0, t1)."""
        if self.axis == "h":
            return Rect(lo, hi, t0, t1)
        return Rect(t0, t1, lo, hi)

    def lane(self, run: int, bh: int) -> Interval:
        t = self.band_start[run]
        return (t, t + bh)


def _transfer_bands(a: Segment, b: Segment, bh: int) -> None:
    """Propagate lane positions across a junction of two segments."""
    if a.axis == b.axis:
        b.band_start.update(a.band_start)
        return
    # right-angle bend: lanes keep their distance from the inner corner.
    # inner side on a's transverse axis faces +direction of b; inner side
    # on b's transverse axis faces -direction of a.
    if b.direction > 0:
        ranked = sorted(a.band_start, key=lambda r: -a.band_start[r])
    else:
        ranked = sorted(a.band_start, key=lambda r: a.band_start[r])
    for rank, run in enumerate(ranked):
        if a.direction > 0:
            b.band_start[run] = b.trans0 + 1 + rank * (bh + 1)
        else:
            b.band_start[run] = b.trans1 - 1 - rank * (bh + 1) - bh


# ---------------------------------------------------------------------------
# sizing


@dataclass
class _Plan:
    """Per level, level 1 first: the runs of its pattern (none at level 1),
    the transverse thickness of its links, and the meet-window width of
    each adjacency c at [c - 1] (only straight junctions have a window)."""

    runs: List[List[Run]]
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
            p = patterns[k].assignment
            turns = {r.end for r in runs[k + 1][:-1]}
            for t in range(len(p) - 1):
                c = min(p[t], p[t + 1])
                if c < sizes[k]:  # a stutter in the last link has no window
                    room[c - 1] += 1 + (fine_thick if t in turns
                                        else fine_windows[t])
            lanes = len(runs[k + 1])
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
        if level > 2 and len(q) > MAX_LINKS_PER_LEVEL:
            raise ResourceError(f"level-{level} chain has too many links",
                                achievable=level - 1)
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
           p: Sequence[int], runs: List[Run], bh: int, slot_w: List[int],
           inset: int, gw: int
           ) -> Tuple[List[Link], List[Segment], Dict[int, Interval]]:
    """Thread the fine pattern ``p`` through the coarse tube.

    ``windows`` maps each straight coarse adjacency to its meet window,
    ``bh`` is the fine link thickness, ``slot_w[t]`` the meet-window width
    of the fine junction after link t, and the terminal anchors sit
    ``inset`` cells inside the grid of width ``gw``.  Returns the fine
    links, their segments, and the meet windows of their straight
    junctions: the tube of the next level.
    """
    run_of = [0] * len(p)
    for idx, r in enumerate(runs):
        run_of[r.start:r.end + 1] = [idx] * (r.end - r.start + 1)
    turns = {r.end for r in runs[:-1]}

    # lane positions: seed the first segment, then push through junctions
    first = tube[0]
    for idx in range(len(runs)):
        first.band_start[idx] = first.trans0 + 1 + idx * (bh + 1)
    for a, b in zip(tube, tube[1:]):
        _transfer_bands(a, b, bh)

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
            leave[t], enter[t + 1] = sb.lane(rb, bh), sa.lane(ra, bh)
            continue
        leave[t] = enter[t + 1] = iv
        if ra != rb:
            la, lb = sa.band_start[ra], sa.band_start[rb]
            stub = sa.rect_at(iv[0], iv[1], min(la, lb), max(la, lb) + bh)
            stub_of[t] = Segment(rect=stub, axis="v" if sa.axis == "h"
                                 else "h", link_id=t + 1,
                                 direction=1 if lb >= la else -1)

    # stitch: one bar per tube segment the link passes, then its stub
    links: List[Link] = []
    segments: List[Segment] = []
    for t in range(n):
        rho = run_of[t]
        i, j = seg_in[t], seg_out[t]
        path = tube[i:j + 1] if i <= j else tube[j:i + 1][::-1]
        rects = []
        for m, seg in enumerate(path):
            a = enter[t] if m == 0 else path[m - 1].lane(rho, bh)
            b = leave[t] if m == len(path) - 1 else path[m + 1].lane(rho, bh)
            bar = seg.rect_at(min(a[0], b[0]), max(a[1], b[1]),
                              *seg.lane(rho, bh))
            rects.append(bar)
            segments.append(Segment(rect=bar, axis=seg.axis, link_id=t + 1,
                                    direction=1 if sum(b) >= sum(a) else -1))
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
    tube = [Segment(rect=c, axis="h", link_id=k + 1, direction=1)
            for k, c in enumerate(cols)]
    windows = {j: (cols[j].c0, cols[j - 1].c1) for j in range(1, n1)}
    chains = [[Link(index=k + 1, rects=(c,)) for k, c in enumerate(cols)]]
    for k, q in enumerate(patterns, start=1):
        links, tube, windows = _route(
            tube, windows, q.assignment, plan.runs[k], plan.thickness[k],
            plan.windows[k], inset=k, gw=shape[1])
        chains.append(links)
    return chains, shape


def _verified(chains: Sequence[Sequence[Link]],
              patterns: Sequence[RefinementPattern]
              ) -> List[RefinementPattern]:
    """Each pattern with its containment flags checked on the grid."""
    out = []
    for coarse, fine, q in zip(chains, chains[1:], patterns):
        flags = tuple(rects_contain([r.dilate(1) for r in link.rects],
                                    coarse[a - 1].rects)
                      for link, a in zip(fine, q.assignment))
        if not all(flags):
            raise DomainError("containment violated on the grid")
        out.append(RefinementPattern(assignment=q.assignment,
                                     n_coarse=len(coarse),
                                     containment=flags))
    return out


# ---------------------------------------------------------------------------
# towers


@dataclass
class LevelDiagnostics:
    level: int
    mesh: float
    eps: float
    chain_ok: bool
    nested_in_previous: Optional[bool] = None
    hausdorff_to_previous: Optional[float] = None
    hausdorff_bound: Optional[float] = None


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
    origin: Tuple[float, float]
    rotation: float
    diagnostics: List[LevelDiagnostics]

    def cell_center(self, cell: Tuple[int, int]) -> Tuple[float, float]:
        dc = cell[0] - self.x_cell[0]
        dr = cell[1] - self.x_cell[1]
        ca, sa = math.cos(self.rotation), math.sin(self.rotation)
        return (self.origin[0] + self.cell_size * (ca * dc - sa * dr),
                self.origin[1] + self.cell_size * (sa * dc + ca * dr))


def _mask(rect_lists: Sequence[Sequence[Rect]], shape) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    for rects in rect_lists:
        for r in rects:
            m[r.r0:r.r1, r.c0:r.c1] = True
    return m


def _grid_hausdorff(a: np.ndarray, b: np.ndarray, cell: float) -> float:
    da = ndimage.distance_transform_edt(~a)
    db = ndimage.distance_transform_edt(~b)
    return float(max(da[b].max(initial=0.0), db[a].max(initial=0.0))) * cell


def _closure_mask(m: np.ndarray) -> np.ndarray:
    return ndimage.binary_dilation(m, structure=np.ones((3, 3), bool))


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


def _build_tower(n1: int, levels: int, x, y) -> ChainTower:
    patterns = _crooked_patterns(n1, levels)
    chains, shape = _realize(n1, patterns)

    # endpoint cells: on the lanes of the finest terminal links
    x_cell = (2, _mid_row(chains[-1][0].rects[0]))
    y_cell = (shape[1] - 3, _mid_row(chains[-1][-1].rects[-1]))

    dx, dy = y[0] - x[0], y[1] - x[1]
    dist = math.hypot(dx, dy)
    gc, gr = y_cell[0] - x_cell[0], y_cell[1] - x_cell[1]
    cell = dist / math.hypot(gc, gr)
    rotation = math.atan2(dy, dx) - math.atan2(gr, gc)

    level_chains = [Chain(links=links, cell_size=cell) for links in chains]

    # membership of the endpoints in first/last links of every level
    for lc in level_chains:
        for cell_pt, link in ((x_cell, lc.links[0]), (y_cell, lc.links[-1])):
            inside = any(r.c0 <= cell_pt[0] < r.c1 and
                         r.r0 <= cell_pt[1] < r.r1 for r in link.rects)
            if not inside:
                raise DomainError("internal: endpoint outside terminal link")

    # verify chains, patterns, containment
    diags: List[LevelDiagnostics] = []
    prev_mask = None
    prev_mesh = None
    for n, lc in enumerate(level_chains, start=1):
        eps = 2.0 ** (-n)
        report = verify_chain(lc, eps)
        if report.failures and report.mesh < eps:
            raise DomainError(
                f"internal: level {n} chain invalid: {report.failures[:3]}")
        if report.mesh >= eps:
            raise ResourceError(
                f"level {n} mesh {report.mesh:.4f} exceeds {eps}",
                achievable=None)
        mask = _mask([l.rects for l in lc.links], shape)
        diag = LevelDiagnostics(level=n, mesh=report.mesh, eps=eps,
                                chain_ok=report.ok)
        if prev_mask is not None:
            closure = _closure_mask(prev_mask)
            diag.nested_in_previous = bool((mask & ~closure).sum() == 0)
            diag.hausdorff_to_previous = _grid_hausdorff(
                _closure_mask(mask), closure, cell)
            diag.hausdorff_bound = prev_mesh
        prev_mask, prev_mesh = mask, report.mesh
        diags.append(diag)

    verified = _verified(chains, patterns)
    if not all(is_crooked(pat).ok for pat in verified):
        raise DomainError("internal: realized pattern is not crooked")

    return ChainTower(levels=level_chains, patterns=verified,
                      endpoints=(tuple(x), tuple(y)), cell_size=cell,
                      x_cell=x_cell, y_cell=y_cell, grid_shape=shape,
                      origin=tuple(x), rotation=rotation, diagnostics=diags)


# ---------------------------------------------------------------------------
# standalone realizations


def realize_pattern(pattern: RefinementPattern, cell_size: float = 1.0
                    ) -> Tuple[Chain, Chain, RefinementPattern]:
    """Realize one refinement pattern inside a straight row of columns.

    Returns the coarse row, the fine snake, and the pattern with its
    containment flags re-verified on the grid.  The pattern must run from
    the first coarse link to the last.  A pattern the router cannot fit
    (some stutters, e.g. one in the last coarse link) raises a domain
    error, so every returned flag is true and the snake is a chain.
    """
    p = pattern.assignment
    if p[0] != 1 or p[-1] != pattern.n_coarse:
        raise DomainError(f"pattern must run from coarse link 1 to "
                          f"{pattern.n_coarse}; got {p[0]} to {p[-1]}")
    chains, _ = _realize(pattern.n_coarse, [pattern])
    verified = _verified(chains, [pattern])[0]
    coarse, fine = (Chain(links=links, cell_size=cell_size)
                    for links in chains)
    report = verify_chain(fine, math.inf)
    if not report.ok:
        raise DomainError(f"pattern {list(p)} does not realize as a chain: "
                          f"{report.failures[0]}")
    return coarse, fine, verified


def chain_point_sets(chain: Chain) -> List[FinitePointSet]:
    """Cell-center point set of every link, in physical units."""
    out = []
    for link in chain.links:
        pts = [((c + 0.5) * chain.cell_size, (r + 0.5) * chain.cell_size)
               for rect in link.rects for c, r in rect.cells()]
        out.append(FinitePointSet(points=pts))
    return out


def realize_planar(obj, cell_size: float = 1.0):
    """Point-set realization of a chain, pattern, or tower per link."""
    if isinstance(obj, ChainTower):
        return [chain_point_sets(level) for level in obj.levels]
    if isinstance(obj, Chain):
        return chain_point_sets(obj)
    if isinstance(obj, RefinementPattern):
        _, fine, _ = realize_pattern(obj, cell_size)
        return chain_point_sets(fine)
    raise DomainError("cannot realize this object")


def tower_to_json(tower: ChainTower) -> dict:
    from .chains import pattern_to_json
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
