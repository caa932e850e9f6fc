"""Whitney maps on finite hyperspaces.

The size map is built from a point enumeration x_1, ..., x_n of the finite
ambient space: with f_k(x) = 1 / (1 + d(x_k, x)), each term
mu_k(A) = diam f_k(A) is averaged into mu(A) = sum_k mu_k(A) / 2^k.

Every f_k lies in (0, 1], so every span, and with it every computed term
w_k * span_k, lies in [0, 2^-k]: the terms past point N add less than
2^-N, and nothing at all to a one-point set, whose spans are exactly 0.
One driver, :meth:`WhitneyMap.series`, sums each size series only to a
certified head (:func:`fsum_rows`): it reads point steps in enumeration
order and stops once every sum is fixed; each step computes its own rows
of the size table F, which is never stored, and a kernel gives the spans.
Every blocked loop here, the series steps included, takes its row blocks
from :func:`errors._row_blocks`, the package's one working-memory budget.

The module also provides the hyperspace size metric
d_mu(A, B) = max(mu(A | B) - mu(A), mu(A | B) - mu(B)), axiom checkers for
the monotone/subadditive characterisation of Whitney maps, level sets, and
the equal-level refinement of the whole continuum.  The axiom checks and the
distance matrices read from one union-size table U[i, j] = mu(F_i | F_j)
per family, which sizes each distinct union once.  Every table reads the
family's :class:`~continua.Hyperspace` record, whose words a kept family
packs once per process and any other sequence once per call.  For a
WhitneyMap the table comes from the members' envelopes, hi[k, i] =
max F[k, F_i] and lo[k, i] = min F[k, F_i]: the span of a union is
max(hi_i, hi_j) - min(lo_i, lo_j), exactly, so no union set is built.
One single-set kernel, :func:`_set_sizes`, sizes each distinct meet of
the subadditivity check and the misses of the memoised batch
:meth:`WhitneyMap.sizes`, which level queries read.  The tables read F
alone, not the memo; a plain size function is called once per set.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .continua import (GraphContinuum, Hyperspace, enumerate_subcontinua,
                       hyperspace, row_classes, unpacked_rows)
from .errors import DomainError, _row_blocks
from .metric_core import DEFAULT_TOL, FinitePointSet, _pair_distances

MuLike = Callable[[FrozenSet[int]], float]


class WhitneyMap:
    """Size map over a finite planar metric space.

    ``ambient`` is a GraphContinuum (whose embedding supplies Euclidean
    distances) or a FinitePointSet.  The enumeration order is
    :attr:`GraphContinuum.order` for graphs and index order for point sets;
    a non-None ``ordering_seed`` applies a seeded permutation instead.

    Sizes do not depend on the platform: the weights are powers of two, so
    every term ``w_k * span_k`` is exact, and :func:`fsum_rows` returns the
    correctly rounded sum of those float64 terms (``math.fsum``'s) whatever
    the BLAS.  The promise is bit-exactness with respect to this term table,
    not to the real-valued series: the table itself carries the rounding of
    the distances and of ``1 / (1 + d)``.  Every computed F entry is in
    (0, 1], so every span is in [0, 1] and the terms past point N add less
    than sum_{k > N} 2^-k < 2^-N to any set, and exactly 0 to a one-point
    set; a sum is therefore fixed once its head's error plus that tail is
    inside one float's rounding interval, and the later rows of F are never
    read.  F is not stored: each step of a sum computes the rows it reads
    (:meth:`rows`), so no n x n table is formed.
    """

    def __init__(self, ambient, ordering_seed: Optional[int] = None):
        if isinstance(ambient, GraphContinuum):
            order = np.array(ambient.order)
            ambient = np.array(ambient.pos, dtype=float)
        elif isinstance(ambient, FinitePointSet):
            order = np.arange(len(ambient))
            ambient = ambient.points
        else:
            raise DomainError("ambient must be a graph or planar points")
        n = len(ambient)
        if ordering_seed is not None:
            order = order[np.random.default_rng(ordering_seed).permutation(n)]
        self.n_points = n
        self.order = order
        self.weights = 0.5 ** np.arange(1, n + 1)
        self._points = ambient
        self._cache: Dict[FrozenSet[int], float] = {}

    def rows(self, at: slice) -> np.ndarray:
        """Rows ``at`` of F[k, i] = f_{x_k}(p_i) = 1 / (1 + d(x_k, p_i)) for
        the k-th enumeration point x_k."""
        x = self._points
        return 1.0 / (1.0 + _pair_distances(x[self.order[at]], x))

    def series(self, spans: Callable, rows: int, tail: np.ndarray,
               width: int) -> np.ndarray:
        """The sizes sum_k w_k * span_k of ``rows`` sets, by :func:`fsum_rows`
        with ``tail``: ``spans(at)`` returns a new (points, rows) array, the
        spans at the enumeration points ``at``, from :meth:`rows` ``at``.
        The steps are the :func:`_row_blocks` of the points, ``width`` cells
        a point or one row of F, whichever is wider, so no step holds more
        than the budget's cells, or one point's."""

        def steps():
            for at in _row_blocks(self.n_points, max(width, self.n_points)):
                got = spans(at)
                got *= self.weights[at, None]
                yield got

        return fsum_rows(steps, rows, tail)

    def __call__(self, a: FrozenSet[int]) -> float:
        a = frozenset(a)
        got = self._cache.get(a)
        if got is not None:
            return got
        self.sizes([a])
        return self._cache[a]

    def sizes(self, sets: Sequence[FrozenSet[int]]) -> np.ndarray:
        """mu of each set, read from the memo or computed in one batch:
        each distinct set the memo lacks is sized once by
        :func:`_set_sizes` and memoised."""
        sets = hyperspace(sets)
        vals = list(map(self._cache.get, sets))
        if None in vals:
            misses = list({s for s, v in zip(sets, vals) if v is None})
            self._cache.update(zip(misses, _set_sizes(
                self, _member_index(misses, self.n_points)).tolist()))
            vals = list(map(self._cache.get, sets))
        return np.array(vals, dtype=float)


def fsum_rows(blocks: Callable, rows: int, tail: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a table of finite non-negative terms,
    bit for bit; ``blocks()`` yields its columns in order as (columns,
    rows) arrays, and the terms past column N of row i add less than
    ``tail[i] * 2^-N``.

    Sum2 (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005) on all rows
    at once: a running TwoSum gives sigma and the sum q of its errors, and
    r + rho = TwoSum(sigma, q) is within 2 gamma_{N-1}^2 r of the exact sum
    of the first N columns.  So the whole row sums to within the slack
    |rho| + 2 gamma_{N-1}^2 r + tail[i] * 2^-N of r, and r is its rounding
    when the slack is below half the gap down from r, or is 0.  The test
    runs after each block once N > 54 (every size is below 1, where half a
    gap is at most 2^-54, so a tail of 2^-N cannot pass sooner), and
    reading stops at the first block after which every row passes.  After
    the last column the tails are 0; a row failing then (a near-tie) reads
    ``blocks()`` again for ``math.fsum``.
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
        if n > 54:
            r, ok = _rounded(sigma, q, n, tail * 2.0 ** -n)
            if ok.all():
                return r
    r, ok = _rounded(sigma, q, n, 0.0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        terms = np.vstack([block[:, bad] for block in blocks()]).T
        r[bad] = [math.fsum(row) for row in terms.tolist()]
    return r


def _rounded(sigma: np.ndarray, q: np.ndarray, n: int, tail):
    """``(r, ok)``: r = sigma + q, and whether a row sum within Sum2's
    bound of the first ``n`` terms, plus less than ``tail``, rounds to r."""
    r = sigma + q  # |q| <= sigma: TwoSum(sigma, q) = (r, q - (r - sigma))
    gamma = (n - 1) * 2.0 ** -53 / (1 - (n - 1) * 2.0 ** -53)
    slack = np.abs(q - (r - sigma)) + 2 * gamma * gamma * r + tail
    return r, (slack < (r - np.nextafter(r, 0)) / 2) | (slack == 0)


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
    fam = hyperspace(fam)
    if not fam.card.all():
        raise DomainError("mu is defined on non-empty sets")
    if len(fam.verts) and (fam.verts[0] < 0 or fam.verts[-1] >= n_points):
        raise DomainError("set contains vertices outside the ambient")
    return _gather_index(fam.flat, fam.card)


def _reduce_over(table: np.ndarray, idx: np.ndarray, op) -> np.ndarray:
    """out[r, i] = op over table[r, idx[i]], for every row r of the table:
    gathered in the :func:`_row_blocks` of ``idx.size`` cells a row."""
    out = np.empty((len(table), len(idx)))
    cols = np.ascontiguousarray(idx.T)  # take copies a strided index per call
    for at in _row_blocks(len(table), idx.size):  # (rows, width, sets) blocks
        op.reduce(np.take(table[at], cols, axis=1), axis=1, out=out[at])
    return out


def _set_sizes(mu: WhitneyMap, idx: np.ndarray) -> np.ndarray:
    """mu of each set of a gather index: spans over its members."""
    cols = np.ascontiguousarray(idx.T)

    def spans(at):  # gathers (points, members, sets); padding repeats
        got = mu.rows(at).take(cols, axis=1)
        return got.max(axis=1) - got.min(axis=1)

    return mu.series(spans, len(idx), _several(idx), cols.size)


def _several(idx: np.ndarray) -> np.ndarray:
    """Whether each set of a gather index has more than one point (a
    tail, for :func:`fsum_rows`): its row repeats only its last vertex."""
    return idx[:, 0] != idx[:, -1]


def _span_sizes(mu: WhitneyMap, idx: np.ndarray, ii: np.ndarray,
                jj: np.ndarray) -> np.ndarray:
    """mu(S_i | S_j) for each index pair over the sets of a gather index.

    The envelopes hi[k, i] = max F[k, S_i] and lo[k, i] = min F[k, S_i] are
    taken first, at every enumeration point, one :func:`_row_blocks` block
    of F at a time; the span of a union is max(hi_i, hi_j) - min(lo_i,
    lo_j), so every term w_k * span_k is the one of the union's own size,
    and :func:`fsum_rows` sums them to the certified head.  The pairs go in
    the :func:`_row_blocks` of four cells a pair, and a step of points
    gathers four (points, pairs) envelope tables, which together hold at
    most one such block's cells, or one row of F's.
    """
    several, first = _several(idx), idx[:, 0]
    hi, lo = np.empty((2, mu.n_points, len(idx)))
    for at in _row_blocks(mu.n_points, max(idx.size, mu.n_points)):
        f = mu.rows(at)
        hi[at] = _reduce_over(f, idx, np.maximum)
        lo[at] = _reduce_over(f, idx, np.minimum)

    out = np.empty(len(ii))
    for pairs in _row_blocks(len(ii), 4):
        a, b = ii[pairs], jj[pairs]

        def spans(at):
            h, l = hi[at], lo[at]
            return np.maximum(h.take(a, axis=1), h.take(b, axis=1)) - \
                np.minimum(l.take(a, axis=1), l.take(b, axis=1))

        out[pairs] = mu.series(spans, len(a), several[a] | several[b]
                               | (first[a] != first[b]), 4 * len(a))
    return out


def _union_sizes(mu: MuLike, fam: Hyperspace) -> np.ndarray:
    """U[i, j] = mu(F_i | F_j), over the unordered pairs i <= j.  For a
    WhitneyMap each pair's union is the OR of the members' ``words``, and
    one pair per distinct union, found by :func:`row_classes`, is sized by
    :func:`_span_sizes` over the members' gather index
    (:func:`_member_index`, which refuses what the map refuses): a size is
    the correctly rounded sum of its union's own terms, so every pair with
    that union gets its bits.  A plain size function reads no table."""
    k = len(fam)
    if not k:
        return np.empty((0, 0))
    ii, jj = np.triu_indices(k)
    if isinstance(mu, WhitneyMap):
        idx, words = _member_index(fam, mu.n_points), fam.words
        first, back = row_classes(words[ii] | words[jj])
        vals = _span_sizes(mu, idx, ii[first], jj[first])[back]
    else:
        vals = _pair_sizes(mu, fam, ii, jj, operator.or_)
    u = np.empty((k, k))
    u[ii, jj] = vals
    u[jj, ii] = vals
    return u


def _size_metric(u: np.ndarray) -> np.ndarray:
    """d_mu from a union-size table: max(U_ij - U_ii, U_ij - U_jj)."""
    grow = u - u.diagonal()[:, None]  # mu(F_i | F_j) - mu(F_i); U symmetric
    dm = np.maximum(grow, grow.T)
    np.fill_diagonal(dm, 0.0)
    return dm


def whitney_distance_matrix(mu: MuLike,
                            family: Sequence[FrozenSet[int]]) -> np.ndarray:
    """d_mu over the family (2X mode), from the union-size table."""
    return _size_metric(_union_sizes(mu, hyperspace(family)))


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
    fam, report = hyperspace(family), AxiomReport()
    k, words, card = len(fam), fam.words, fam.card
    subset = np.empty((k, k), dtype=bool)  # F_i <= F_j
    meets = np.empty((k, k), dtype=bool)  # F_i & F_j non-empty
    for at in _row_blocks(k, k * words.shape[1]):
        both = words[at, None] & words[None]
        subset[at] = (both == words[at, None]).all(axis=2)
        meets[at] = both.any(axis=2)
    u = _union_sizes(mu, fam)
    s = u.diagonal()

    single = (card == 1) & (np.abs(s) > tol)
    report.singleton_violations = [fam[i] for i in np.flatnonzero(single)]

    strict = subset & (card[:, None] < card[None, :])
    bad = strict & (s[None, :] - s[:, None] <= tol)
    report.monotone_violations = [(fam[i], fam[j])
                                  for i, j in zip(*np.nonzero(bad))]

    ii, jj = np.nonzero(np.triu(meets))
    s_meet = _meet_sizes(mu, fam, ii, jj)
    bad = u[ii, jj] > s[ii] + s[jj] - s_meet + tol
    report.subadd_violations = [(fam[ii[p]], fam[jj[p]])
                                for p in np.flatnonzero(bad)]

    na, nb = np.nonzero(subset)
    for at in _row_blocks(len(na), len(fam)):
        a, b = na[at], nb[at]
        grow = u.take(b, axis=0)
        grow -= u.take(a, axis=0)
        bad = grow > (s[b] - s[a] + tol)[:, None]
        if bad.any():
            report.diff_violations.extend((fam[a[p]], fam[b[p]], fam[c])
                                          for p, c in zip(*np.nonzero(bad)))
    return report


def _meet_sizes(mu: MuLike, fam: Hyperspace, ii: np.ndarray,
                jj: np.ndarray) -> np.ndarray:
    """mu(F_i & F_j) for each intersecting index pair.  For a WhitneyMap each
    pair's meet is the AND of the members' ``words``; the distinct meets,
    found by :func:`row_classes` and read back by :func:`unpacked_rows`
    over the columns ``verts``, are sized once by :func:`_set_sizes`."""
    if not isinstance(mu, WhitneyMap):
        return _pair_sizes(mu, fam, ii, jj, operator.and_)
    if not len(ii):
        return np.empty(0)
    keys, verts = fam.words[ii] & fam.words[jj], fam.verts
    first, back = row_classes(keys)
    rows, cols = np.nonzero(unpacked_rows(keys[first], len(verts)))
    idx = _gather_index(verts[cols], np.bincount(rows, minlength=len(first)))
    return _set_sizes(mu, idx)[back]


# ---------------------------------------------------------------------------
# levels and refinements


def min_value_gap(values: Sequence[float]) -> float:
    vals = sorted(set(float(v) for v in values))
    if len(vals) < 2:
        return 0.0
    return min(b - a for a, b in zip(vals, vals[1:]))


def whitney_level(mu: WhitneyMap, family: Sequence[FrozenSet[int]], t: float,
                  tol: Optional[float] = None) -> List[FrozenSet[int]]:
    """Family members whose size is within ``tol`` of ``t``; by default
    half the minimal gap between distinct sizes in the family."""
    if not math.isfinite(t):
        raise DomainError(f"level parameter must be finite, got {t}")
    sizes = mu.sizes(family).tolist()
    if tol is None:
        tol = min_value_gap(sizes) / 2.0
    return [s for s, v in zip(family, sizes) if abs(v - t) <= tol]


def equal_level_refinement(g: GraphContinuum, mu: WhitneyMap, t0: float
                           ) -> Tuple[List[FrozenSet[int]], float]:
    """Refine the whole continuum into subcontinua of size about t0.

    Precondition: 0 < t0 <= the whole's size.  The tolerance is the
    smallest value for which every vertex is covered by some piece within
    tolerance of t0 (so the result is a covering family, not a partition);
    returns the pieces and that tolerance.
    """
    if not t0 > 0:
        raise DomainError(f"t0 must be positive, got {t0}")
    whole = mu(frozenset(range(g.n)))
    if t0 > whole + DEFAULT_TOL:
        raise DomainError(
            f"t0 = {t0} exceeds the smallest member size {whole}")
    subs = enumerate_subcontinua(g)
    errs, best = np.abs(mu.sizes(subs) - t0), np.full(g.n, np.inf)
    np.minimum.at(best, subs.flat, np.repeat(errs, subs.card))  # per vertex
    tol = float(best.max())
    return [c for c, e in zip(subs, errs <= tol + DEFAULT_TOL) if e], tol


# ---------------------------------------------------------------------------
# comparing the two hyperspace metrics


def hyperspace_distance_matrices(g: GraphContinuum, mu: MuLike,
                                 family: Sequence[FrozenSet[int]]
                                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(d_H, d_mu) matrices over the family, using the planar embedding;
    both read the family's one :class:`Hyperspace` record."""
    pts, fam = np.array(g.pos, dtype=float), hyperspace(family)
    idx = _member_index(fam, len(pts))
    near = np.empty((len(pts), len(idx)))  # near[x, j] = d(x, F_j)
    for at in _row_blocks(len(pts), len(pts)):
        near[at] = _reduce_over(_pair_distances(pts[at], pts), idx,
                                np.minimum)
    # h[j, i] = max_{x in F_i} d(x, F_j), zero on the diagonal as d(x, x) is
    h = _reduce_over(np.ascontiguousarray(near.T), idx, np.maximum)
    return np.maximum(h, h.T), _size_metric(_union_sizes(mu, fam))
