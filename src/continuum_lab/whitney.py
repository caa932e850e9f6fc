"""Whitney maps on finite hyperspaces.

The size map is built from a point enumeration x_1, ..., x_N of the finite
ambient space: with f_n(x) = 1 / (1 + d(x_n, x)), each term
mu_n(A) = diam f_n(A) is averaged into mu(A) = sum_n mu_n(A) / 2^n.

The module also provides the hyperspace size metric
d_mu(A, B) = max(mu(A | B) - mu(A), mu(A | B) - mu(B)), axiom checkers for
the monotone/subadditive characterisation of Whitney maps, level sets, and
equal-level refinements of decompositions.  The axiom checks and the
distance matrices read from one union-size table U[i, j] = mu(F_i | F_j)
per family.  For a WhitneyMap the table comes from the members' envelopes,
hi[n, i] = max F[n, F_i] and lo[n, i] = min F[n, F_i]: the span of a union
is max(hi_i, hi_j) - min(lo_i, lo_j), exactly, so no union set is built.
The subadditivity meets are sized the same way, once per distinct meet.
These tables read F alone, not the memo; a plain size function is called
once per set.  Level queries take their sizes from the memoised batch
kernel :meth:`WhitneyMap.sizes`, through :func:`_sizes`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .continua import (SIZE_BLOCK_FLOATS, GraphContinuum,
                       enumerate_subcontinua, incidence_table, packed_rows,
                       row_classes, unpacked_rows)
from .errors import DomainError
from .metric_core import DEFAULT_TOL, FinitePointSet, _pair_distances

MuLike = Callable[[FrozenSet[int]], float]


class WhitneyMap:
    """Size map over a finite ambient metric space.

    ``ambient`` is a FinitePointSet or a GraphContinuum (whose embedding
    supplies Euclidean distances).  The enumeration order is breadth-first
    from vertex 0 for graphs and index order for point sets; a non-None
    ``ordering_seed`` applies a seeded permutation instead.

    Sizes do not depend on the platform: the weights are powers of two, so
    every term ``w_n * span_n`` is exact, and :func:`fsum_rows` returns the
    correctly rounded sum of those float64 terms (``math.fsum``'s) whatever
    the BLAS.  The promise is bit-exactness with respect to this term table,
    not to the real-valued series: the table itself carries the rounding of
    the distances and of ``1 / (1 + d)``.
    """

    def __init__(self, ambient, ordering_seed: Optional[int] = None):
        if isinstance(ambient, GraphContinuum):
            pts = np.array(ambient.pos, dtype=float)
            dist = _pair_distances(pts, pts)
            order = _bfs_order(ambient)
        elif isinstance(ambient, FinitePointSet):
            dist = ambient.distances_to(ambient)
            order = list(range(len(ambient)))
        else:
            raise DomainError("ambient must be a GraphContinuum or FinitePointSet")
        n = dist.shape[0]
        if ordering_seed is not None:
            rng = np.random.default_rng(ordering_seed)
            order = [order[i] for i in rng.permutation(n)]
        self.ambient = ambient
        self.n_points = n
        self.order = list(order)
        # F[k, i] = f_{x_k}(p_i) for the k-th enumeration point x_k
        self.F = 1.0 / (1.0 + dist[self.order, :])
        self.weights = 0.5 ** np.arange(1, n + 1)
        self._cache: Dict[FrozenSet[int], float] = {}

    def __call__(self, a: FrozenSet[int]) -> float:
        a = frozenset(a)
        got = self._cache.get(a)
        if got is not None:
            return got
        self.sizes([a])
        return self._cache[a]

    def sizes(self, sets: Sequence[FrozenSet[int]]) -> np.ndarray:
        """mu of each set, read from the memo or computed in one batch.

        Each distinct set the memo lacks is computed once and memoised;
        values already in the memo are returned as they are.  A block of
        at most SIZE_BLOCK_FLOATS gathered cells, or one point's, takes the
        span of each miss over its :func:`_member_index` row, so no whole
        envelope table is held, and :func:`fsum_rows` sums the terms.
        """
        sets = list(map(frozenset, sets))
        vals = list(map(self._cache.get, sets))
        if None in vals:
            misses = list({s for s, v in zip(sets, vals) if v is None})
            cols = _member_index(misses, self.n_points).T.copy()
            step = max(1, SIZE_BLOCK_FLOATS // cols.size)

            def blocks():
                for lo in range(0, self.n_points, step):
                    # (points, members, sets); max and min ignore padding
                    got = self.F[lo:lo + step].take(cols, axis=1)
                    yield (got.max(axis=1) - got.min(axis=1)) * \
                        self.weights[lo:lo + step, None]

            self._cache.update(zip(misses, fsum_rows(
                blocks, len(misses)).tolist()))
            vals = list(map(self._cache.get, sets))
        return np.array(vals, dtype=float)


def fsum_rows(blocks: Callable, rows: int) -> np.ndarray:
    """``math.fsum`` of each row of a table of finite non-negative terms,
    bit for bit; ``blocks()`` yields its columns as (columns, rows) arrays.

    Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005) on all rows
    at once: a running TwoSum gives sigma and the sum q of its errors, and
    (r, rho) = TwoSum(sigma, q) is within 2 gamma_{n-1}^2 r of the exact sum.
    r is its rounding when |rho| plus that bound is below half the gap down
    from r, or r = 0; other rows read ``blocks()`` again for ``math.fsum``.
    """
    sigma, q, n = np.zeros(rows), np.zeros(rows), 0
    for block in blocks():
        n += len(block)
        run = np.vstack([sigma, block])
        for i in range(len(block)):  # the running float sums
            np.add(run[i], run[i + 1], out=run[i + 1])
        part = run[1:] - run[:-1]  # TwoSum of each step: the part of x kept
        q += ((run[:-1] - (run[1:] - part)) + (block - part)).sum(axis=0)
        sigma = run[-1]
    r = sigma + q  # |q| <= sigma: TwoSum(sigma, q) = (r, q - (r - sigma))
    gamma = (n - 1) * 2.0 ** -53 / (1 - (n - 1) * 2.0 ** -53)
    slack = np.abs(q - (r - sigma)) + 2 * gamma * gamma * r
    bad = np.flatnonzero((slack >= (r - np.nextafter(r, 0)) / 2) & (r != 0))
    if bad.size:
        terms = np.vstack([block[:, bad] for block in blocks()]).T
        r[bad] = [math.fsum(row) for row in terms.tolist()]
    return r


def _bfs_order(g: GraphContinuum) -> List[int]:
    adj = g.adjacency
    seen = [0]
    mark = {0}
    head = 0
    while head < len(seen):
        for w in sorted(adj[seen[head]]):
            if w not in mark:
                mark.add(w)
                seen.append(w)
        head += 1
    return seen


def build_whitney_map(ambient,
                      ordering_seed: Optional[int] = None) -> WhitneyMap:
    return WhitneyMap(ambient, ordering_seed=ordering_seed)


# ---------------------------------------------------------------------------
# the size metric


def whitney_distance(mu: MuLike, a: FrozenSet[int],
                     b: FrozenSet[int]) -> float:
    """d_mu(A, B) from the size of the union, in 2^X mode: mu is evaluated
    on the union whether or not it is connected."""
    a, b = frozenset(a), frozenset(b)
    mu_u = mu(a | b)
    return max(mu_u - mu(a), mu_u - mu(b))


def _sizes(mu: MuLike, sets: Sequence[FrozenSet[int]]) -> np.ndarray:
    """mu of each set: one batch for a WhitneyMap, one call per set for a
    plain size function."""
    if isinstance(mu, WhitneyMap):
        return mu.sizes(sets)
    return np.array([mu(s) for s in sets], dtype=float)


def _pair_sizes(mu: MuLike, fam: Sequence[FrozenSet[int]], ii: np.ndarray,
                jj: np.ndarray, op: Callable) -> np.ndarray:
    """mu(op(F_i, F_j)) for each index pair, one call per set."""
    return np.fromiter((mu(op(fam[i], fam[j])) for i, j in
                        zip(ii.tolist(), jj.tolist())), dtype=float,
                       count=len(ii))


def _gather_index(flat: np.ndarray, card: np.ndarray) -> np.ndarray:
    """The (sets, largest set) index of sets listed back to back in ``flat``,
    set i holding the next card[i] >= 1 entries; each row is padded by
    repeating its last entry (max and min ignore repeats)."""
    pos = np.minimum(np.arange(card.max(initial=1)), card[:, None] - 1)
    return flat[(np.cumsum(card) - card)[:, None] + pos]


def _member_index(fam: Sequence[FrozenSet[int]], n_points: int) -> np.ndarray:
    """:func:`_gather_index` of the family's vertex sets; refuses what
    :meth:`WhitneyMap.sizes` refuses."""
    card = np.fromiter(map(len, fam), dtype=np.int64, count=len(fam))
    if not card.all():
        raise DomainError("mu is defined on non-empty sets")
    flat = np.fromiter(chain.from_iterable(fam), dtype=np.int64,
                       count=int(card.sum()))
    if flat.size and (flat.min() < 0 or flat.max() >= n_points):
        raise DomainError("set contains vertices outside the ambient")
    return _gather_index(flat, card)


def _reduce_over(table: np.ndarray, idx: np.ndarray, op) -> np.ndarray:
    """out[r, i] = op over table[r, idx[i]], for every row r of the table:
    gathered in row blocks of at most SIZE_BLOCK_FLOATS cells, or one row."""
    out = np.empty((len(table), len(idx)))
    cols = np.ascontiguousarray(idx.T)  # take copies a strided index per call
    step = max(1, SIZE_BLOCK_FLOATS // max(idx.size, 1))
    for lo in range(0, len(table), step):  # (rows, width, sets) blocks
        op.reduce(np.take(table[lo:lo + step], cols, axis=1), axis=1,
                  out=out[lo:lo + step])
    return out


def _span_sizes(mu: WhitneyMap, idx: np.ndarray, ii: np.ndarray,
                jj: np.ndarray) -> np.ndarray:
    """mu(S_i | S_j) for each index pair over the sets of a gather index.

    The envelopes hi[n, i] = max F[n, S_i] and lo[n, i] = min F[n, S_i] are
    taken once; the span of a union is max(hi_i, hi_j) - min(lo_i, lo_j),
    so every term w_n * span_n is the one of the union's own size, and
    :func:`fsum_rows` sums them.  A block of points gathers four
    (points, pairs) envelope tables, which together hold at most
    SIZE_BLOCK_FLOATS cells, or one point's.
    """
    hi = _reduce_over(mu.F, idx, np.maximum)
    lo = _reduce_over(mu.F, idx, np.minimum)
    out = np.empty(len(ii))
    cells = max(1, SIZE_BLOCK_FLOATS // 4)
    for p in range(0, len(ii), cells):
        a, b = ii[p:p + cells], jj[p:p + cells]
        step = max(1, cells // len(a))

        def blocks():
            for n in range(0, mu.n_points, step):
                h, l = hi[n:n + step], lo[n:n + step]
                spans = np.maximum(h.take(a, axis=1), h.take(b, axis=1)) - \
                    np.minimum(l.take(a, axis=1), l.take(b, axis=1))
                yield spans * mu.weights[n:n + step, None]

        out[p:p + len(a)] = fsum_rows(blocks, len(a))
    return out


def _union_sizes(mu: MuLike, fam: Sequence[FrozenSet[int]]) -> np.ndarray:
    """U[i, j] = mu(F_i | F_j), over the unordered pairs i <= j."""
    k = len(fam)
    ii, jj = np.triu_indices(k)
    if isinstance(mu, WhitneyMap):
        vals = _span_sizes(mu, _member_index(fam, mu.n_points), ii, jj)
    else:
        vals = _pair_sizes(mu, fam, ii, jj, operator.or_)
    u = np.empty((k, k))
    u[ii, jj] = vals
    u[jj, ii] = vals
    return u


def whitney_distance_matrix(mu: MuLike,
                            family: Sequence[FrozenSet[int]]) -> np.ndarray:
    """d_mu over the family (2X mode), from the union-size table."""
    u = _union_sizes(mu, [frozenset(a) for a in family])
    grow = u - u.diagonal()[:, None]  # mu(F_i | F_j) - mu(F_i); U symmetric
    dm = np.maximum(grow, grow.T)
    np.fill_diagonal(dm, 0.0)
    return dm


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    singleton_violations: List[FrozenSet[int]] = field(default_factory=list)
    monotone_violations: List[Tuple[FrozenSet[int], FrozenSet[int]]] = \
        field(default_factory=list)
    subadd_violations: List[Tuple[FrozenSet[int], FrozenSet[int]]] = \
        field(default_factory=list)
    diff_violations: List[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]] = \
        field(default_factory=list)

    @property
    def singleton_ok(self) -> bool:
        return not self.singleton_violations

    @property
    def monotone_ok(self) -> bool:
        return not self.monotone_violations

    @property
    def subadd_ok(self) -> bool:
        return not self.subadd_violations

    @property
    def diff_ok(self) -> bool:
        return not self.diff_violations

    @property
    def all_ok(self) -> bool:
        return (self.singleton_ok and self.monotone_ok and self.subadd_ok
                and self.diff_ok)


def check_whitney_axioms(mu: MuLike, family: Sequence[FrozenSet[int]],
                         tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check the Whitney axioms over an explicit family of sets.

    (a) singletons have size 0; (b) strict containment gives strictly
    smaller size; (c) union-intersection subadditivity
    mu(A|B) <= mu(A) + mu(B) - mu(A&B) on intersecting pairs i <= j; (c')
    difference monotonicity mu(B|C) - mu(A|C) <= mu(B) - mu(A) for A <= B.
    Unions and intersections are evaluated in 2^X mode.  Violations are
    listed in row-major order of the member indices ((A, B), then C).
    """
    fam = [frozenset(s) for s in family]
    report = AxiomReport()
    inc = incidence_table(fam)
    meet = inc @ inc.T  # |F_i & F_j|
    card = np.diag(meet)
    subset = meet == card[:, None]  # F_i <= F_j
    u = _union_sizes(mu, fam)
    s = u.diagonal()

    single = (card == 1) & (np.abs(s) > tol)
    report.singleton_violations = [fam[i] for i in np.flatnonzero(single)]

    strict = subset & (card[:, None] < card[None, :])
    bad = strict & (s[None, :] - s[:, None] <= tol)
    report.monotone_violations = [(fam[i], fam[j])
                                  for i, j in zip(*np.nonzero(bad))]

    ii, jj = np.nonzero(np.triu(meet > 0))
    s_meet = _meet_sizes(mu, fam, inc, ii, jj)
    bad = u[ii, jj] > s[ii] + s[jj] - s_meet + tol
    report.subadd_violations = [(fam[ii[p]], fam[jj[p]])
                                for p in np.flatnonzero(bad)]

    na, nb = np.nonzero(subset)
    rows = max(1, SIZE_BLOCK_FLOATS // max(len(fam), 1))
    for lo in range(0, len(na), rows):
        a, b = na[lo:lo + rows], nb[lo:lo + rows]
        bad = u[b] - u[a] > (s[b] - s[a] + tol)[:, None]
        if bad.any():
            report.diff_violations.extend((fam[a[p]], fam[b[p]], fam[c])
                                          for p, c in zip(*np.nonzero(bad)))
    return report


def _meet_sizes(mu: MuLike, fam: Sequence[FrozenSet[int]], inc: np.ndarray,
                ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """mu(F_i & F_j) for each intersecting index pair.  For a WhitneyMap each
    pair's meet is the AND of the members' :func:`packed_rows`; the distinct
    meets, found by :func:`row_classes` and read back by
    :func:`unpacked_rows`, are sized once by :func:`_span_sizes`."""
    if not isinstance(mu, WhitneyMap):
        return _pair_sizes(mu, fam, ii, jj, operator.and_)
    if not len(ii):
        return np.empty(0)
    words = packed_rows(inc)
    keys = words[ii] & words[jj]
    first, back = row_classes(keys)
    rows, cols = np.nonzero(unpacked_rows(keys[first], inc.shape[1]))
    verts = np.array(sorted(set().union(*fam)), dtype=np.int64)
    idx = _gather_index(verts[cols], np.bincount(rows, minlength=len(first)))
    every = np.arange(len(idx))
    return _span_sizes(mu, idx, every, every)[back]


# ---------------------------------------------------------------------------
# levels and refinements


def min_value_gap(values: Sequence[float]) -> float:
    vals = sorted(set(float(v) for v in values))
    if len(vals) < 2:
        return 0.0
    return min(b - a for a, b in zip(vals, vals[1:]))


def default_level_tolerance(mu: MuLike,
                            family: Sequence[FrozenSet[int]]) -> float:
    """Half the minimal gap between distinct mu-values in the family."""
    return min_value_gap(_sizes(mu, family).tolist()) / 2.0


def whitney_level(mu: MuLike, family: Sequence[FrozenSet[int]], t: float,
                  tol: Optional[float] = None) -> List[FrozenSet[int]]:
    """Family members whose size is within ``tol`` of ``t``."""
    if not math.isfinite(t):
        raise DomainError(f"level parameter must be finite, got {t}")
    if tol is None:
        tol = default_level_tolerance(mu, family)
    sizes = _sizes(mu, family).tolist()
    return [s for s, v in zip(family, sizes) if abs(v - t) <= tol]


@dataclass
class RefinementPiece:
    member: FrozenSet[int]
    pieces: List[FrozenSet[int]]
    tol: float


def equal_level_refinement(g: GraphContinuum, mu: MuLike,
                           decomposition: Sequence[FrozenSet[int]],
                           t0: float) -> List[RefinementPiece]:
    """Refine each decomposition member into subcontinua of size about t0.

    Preconditions: the members partition the vertex set, each is connected,
    and 0 < t0 <= min member size.  For each member the tolerance is the
    smallest value for which every vertex is covered by some piece within
    tolerance of t0 (so the result is a covering family, not a partition);
    the tolerance used is reported per member.
    """
    members = [frozenset(m) for m in decomposition]
    allv: set = set()
    for m in members:
        if not g.is_connected(m):
            raise DomainError("decomposition members must be connected")
        if allv & m:
            raise DomainError("decomposition members must be disjoint")
        allv |= m
    if allv != set(range(g.n)):
        raise DomainError("decomposition must cover the vertex set")
    if not t0 > 0:
        raise DomainError(f"t0 must be positive, got {t0}")
    min_size = min(mu(m) for m in members)
    if t0 > min_size + DEFAULT_TOL:
        raise DomainError(
            f"t0 = {t0} exceeds the smallest member size {min_size}")
    subs = enumerate_subcontinua(g)
    errs = dict(zip(subs, [abs(v - t0) for v in _sizes(mu, subs).tolist()]))
    out: List[RefinementPiece] = []
    for m in members:
        cands = [c for c in subs if c <= m]
        tol = 0.0
        for v in m:
            best = min(errs[c] for c in cands if v in c)
            tol = max(tol, best)
        pieces = [c for c in cands if errs[c] <= tol + DEFAULT_TOL]
        out.append(RefinementPiece(member=m, pieces=pieces, tol=tol))
    return out


# ---------------------------------------------------------------------------
# comparing the two hyperspace metrics


def hyperspace_distance_matrices(g: GraphContinuum, mu: MuLike,
                                 family: Sequence[FrozenSet[int]]
                                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(d_H, d_mu) matrices over the family, using the planar embedding."""
    pts = np.array(g.pos, dtype=float)
    idx = _member_index([frozenset(s) for s in family], len(pts))
    # near[x, j] = d(x, F_j)
    near = _reduce_over(_pair_distances(pts, pts), idx, np.minimum)
    # h[j, i] = max_{x in F_i} d(x, F_j), zero on the diagonal as d(x, x) is
    h = _reduce_over(np.ascontiguousarray(near.T), idx, np.maximum)
    return np.maximum(h, h.T), whitney_distance_matrix(mu, family)
