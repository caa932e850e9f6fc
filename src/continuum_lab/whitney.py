"""Whitney maps on finite hyperspaces.

The size map is built from a point enumeration x_1, ..., x_N of the finite
ambient space: with f_n(x) = 1 / (1 + d(x_n, x)), each term
mu_n(A) = diam f_n(A) is averaged into mu(A) = sum_n mu_n(A) / 2^n.

The module also provides the hyperspace size metric
d_mu(A, B) = max(mu(A | B) - mu(A), mu(A | B) - mu(B)), axiom checkers for
the monotone/subadditive characterisation of Whitney maps, level sets, and
equal-level refinements of decompositions.  The axiom checks and the
distance matrices read from one union-size table U[i, j] = mu(F_i | F_j)
per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .continua import GraphContinuum, enumerate_subcontinua
from .errors import DomainError
from .metric_core import DEFAULT_TOL, FinitePointSet

MuLike = Callable[[FrozenSet[int]], float]

# The difference-monotonicity check compares this many nested pairs at a
# time, so its working memory stays at DIFF_BLOCK_ROWS x len(family) floats.
DIFF_BLOCK_ROWS = 64


class WhitneyMap:
    """Size map over a finite ambient metric space.

    ``ambient`` is a FinitePointSet or a GraphContinuum (whose embedding
    supplies Euclidean distances).  The enumeration order is breadth-first
    from vertex 0 for graphs and index order for point sets; a non-None
    ``ordering_seed`` applies a seeded permutation instead.

    Sizes do not depend on the platform: the weights are powers of two, so
    every term ``w_n * span_n`` is exact, and ``math.fsum`` returns the
    correctly rounded sum of those float64 terms whatever the BLAS.  The
    promise is bit-exactness with respect to this float64 term table, not
    to the real-valued series: the table itself carries the rounding of
    the distances and of ``1 / (1 + d)``.
    """

    def __init__(self, ambient, ordering_seed: Optional[int] = None):
        if isinstance(ambient, GraphContinuum):
            dist = _vertex_distances(ambient)
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
        if not a:
            raise DomainError("mu is defined on non-empty sets")
        got = self._cache.get(a)
        if got is not None:
            return got
        idx = np.fromiter(a, dtype=int)
        if idx.min() < 0 or idx.max() >= self.n_points:
            raise DomainError("set contains vertices outside the ambient")
        cols = self.F[:, idx]
        span = cols.max(axis=1) - cols.min(axis=1)
        val = math.fsum((self.weights * span).tolist())
        self._cache[a] = val
        return val


def _vertex_distances(g: GraphContinuum) -> np.ndarray:
    """Euclidean distances between the embedded vertices of ``g``."""
    pts = np.array(g.pos, dtype=float)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


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


def whitney_distance(mu: MuLike, a: FrozenSet[int], b: FrozenSet[int],
                     mode: str = "2X",
                     connected_check: Optional[Callable[[FrozenSet[int]], bool]] = None
                     ) -> float:
    """d_mu(A, B) from the size of the union.

    In "CX" mode the union must stay connected (``connected_check``
    required); the default "2X" mode evaluates mu on arbitrary unions.
    """
    a, b = frozenset(a), frozenset(b)
    u = a | b
    if mode == "CX":
        if connected_check is None:
            raise DomainError("CX mode needs a connected_check predicate")
        if not connected_check(u):
            raise DomainError("union is disconnected; use 2X mode")
    elif mode != "2X":
        raise DomainError(f"unknown mode {mode!r}")
    mu_u = mu(u)
    return max(mu_u - mu(a), mu_u - mu(b))


def _union_sizes(mu: MuLike, fam: Sequence[FrozenSet[int]]) -> np.ndarray:
    """U[i, j] = mu(F_i | F_j), one mu call per unordered pair i <= j."""
    u = np.empty((len(fam), len(fam)))
    for i, a in enumerate(fam):
        u[i, i:] = u[i:, i] = [mu(a | b) for b in fam[i:]]
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
    verts = {v: j for j, v in enumerate(sorted(set().union(*fam)))}
    inc = np.zeros((len(fam), len(verts)), dtype=np.int64)
    for i, a in enumerate(fam):
        inc[i, [verts[v] for v in a]] = 1
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
    s_meet = np.array([mu(fam[i] & fam[j]) for i, j in zip(ii, jj)],
                      dtype=float)
    bad = u[ii, jj] > s[ii] + s[jj] - s_meet + tol
    report.subadd_violations = [(fam[ii[p]], fam[jj[p]])
                                for p in np.flatnonzero(bad)]

    na, nb = np.nonzero(subset)
    for lo in range(0, len(na), DIFF_BLOCK_ROWS):
        a, b = na[lo:lo + DIFF_BLOCK_ROWS], nb[lo:lo + DIFF_BLOCK_ROWS]
        bad = u[b] - u[a] > (s[b] - s[a] + tol)[:, None]
        report.diff_violations.extend((fam[a[p]], fam[b[p]], fam[c])
                                      for p, c in zip(*np.nonzero(bad)))
    return report


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
    return min_value_gap([mu(s) for s in family]) / 2.0


def whitney_level(mu: MuLike, family: Sequence[FrozenSet[int]], t: float,
                  tol: Optional[float] = None) -> List[FrozenSet[int]]:
    """Family members whose size is within ``tol`` of ``t``."""
    if tol is None:
        tol = default_level_tolerance(mu, family)
    return [s for s in family if abs(mu(s) - t) <= tol]


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
    if t0 <= 0:
        raise DomainError("t0 must be positive")
    min_size = min(mu(m) for m in members)
    if t0 > min_size + DEFAULT_TOL:
        raise DomainError(
            f"t0 = {t0} exceeds the smallest member size {min_size}")
    subs = enumerate_subcontinua(g)
    out: List[RefinementPiece] = []
    for m in members:
        cands = [c for c in subs if c <= m]
        errs = {c: abs(mu(c) - t0) for c in cands}
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
    members = [sorted(s) for s in family]
    d = _vertex_distances(g)
    near = np.empty((len(d), len(members)))  # near[x, j] = d(x, F_j)
    for j, m in enumerate(members):
        near[:, j] = d[:, m].min(axis=1)
    # h[i, j] = max_{x in F_i} d(x, F_j), zero on the diagonal as d(x, x) is
    h = np.empty((len(members), len(members)))
    for i, m in enumerate(members):
        h[i] = near[m].max(axis=0)
    return np.maximum(h, h.T), whitney_distance_matrix(mu, family)


def continuity_modulus_table(d_from: np.ndarray, d_to: np.ndarray,
                             eps_values: Sequence[float]
                             ) -> List[Tuple[float, float]]:
    """For each eps: the largest delta with d_from < delta => d_to < eps.

    Positive deltas for every positive eps witness uniform continuity of the
    identity map on a finite family.
    """
    iu = np.triu_indices(d_from.shape[0], k=1)
    df, dt = d_from[iu], d_to[iu]
    out = []
    for eps in eps_values:
        bad = df[dt >= eps]
        delta = float(bad.min()) if bad.size else float("inf")
        out.append((float(eps), delta))
    return out
