"""Finite metric spaces, Hausdorff distance, and closed neighborhoods.

A :class:`FinitePointSet` is either a set of planar points or a set of
abstract points carrying a validated distance table.  A planar subset is an
ordinary planar set; a table-backed one keeps its root table and its indices
into that root, so pairs drawn from unrelated tables are refused.

Planar distances are ``sqrt(dx*dx + dy*dy)`` in numpy float64.
:func:`hausdorff_distance` evaluates that formula densely up to
``TREE_MIN_PAIRS`` point pairs.  Above it the per-point minima are taken
over distinct points: a point that also lies in the other set is at exactly
0.0, as the dense formula gives, and the rest ask one sliding-midpoint
KD-tree (Bentley, CACM 1975; Maneewongvatana & Mount 1999) over the other
set's distinct points.  Only the points whose tree minimum lies within a
few ulps of the larger directed maximum are re-checked with the dense
formula, ``BLOCK_PAIRS`` pairs at a time.  Results are therefore the
dense results bit for bit, ties going to the lowest index, whatever the
tree's rounding.  :func:`closed_neighborhood` takes the same dense minima
in row blocks, and table-backed sets read their distance table.  The
default comparison tolerance is ``1e-12``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_TOL = 1e-12

# Planar pairs of sets with more than this many point pairs take their
# nearest distances from a KD-tree; below it the dense formula is faster.
TREE_MIN_PAIRS = 50_000
# Dense distances are formed this many point pairs at a time.
BLOCK_PAIRS = 1 << 17
# A tree minimum this close below the Hausdorff value is re-checked densely:
# 16 ulps relative, plus an absolute floor for squares in the subnormal range.
_RECHECK_REL = 2.0 ** -48
_RECHECK_ABS = 2.0 ** -500


class FinitePointSet:
    """A finite metric space given by planar points or a distance table.

    Exactly one of ``points`` / ``matrix`` is set.  Planar sets all live in
    the Euclidean plane and are mutually compatible; matrix-backed sets are
    compatible only with subsets of the same root table.
    """

    def __init__(self, points=None, matrix=None):
        if (points is None) == (matrix is None):
            raise DomainError("provide exactly one of points= or matrix=")
        # a table-backed subset's root set and its indices into the root
        self._root: Optional["FinitePointSet"] = None
        self._idx: Optional[np.ndarray] = None
        if points is not None:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise DomainError("points must have shape (n, 2)")
            if pts.shape[0] == 0:
                raise DomainError("point set must be non-empty")
            if not np.isfinite(pts).all():
                raise DomainError("point coordinates must be finite")
            self.points = pts
            self.matrix = None
        else:
            m = np.asarray(matrix, dtype=float)
            _validate_distance_table(m)
            self.points = None
            self.matrix = m

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        if self.points is not None:
            return self.points.shape[0]
        return self.matrix.shape[0]

    @property
    def is_planar(self) -> bool:
        return self.points is not None

    def root(self) -> "FinitePointSet":
        return self if self._root is None else self._root

    def subset(self, indices: Sequence[int]) -> "FinitePointSet":
        """Restrict to the given point indices (kept in the given order)."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise DomainError("subset must be non-empty")
        if idx.min() < 0 or idx.max() >= len(self):
            raise DomainError("subset index out of range")
        if self.points is not None:
            return FinitePointSet(points=self.points[idx])
        sub = object.__new__(FinitePointSet)
        sub.points = None
        sub.matrix = self.matrix[np.ix_(idx, idx)]
        sub._root = self.root()
        sub._idx = self._root_indices()[idx]
        return sub

    def _root_indices(self) -> np.ndarray:
        return np.arange(len(self)) if self._idx is None else self._idx

    def distances_to(self, other: "FinitePointSet") -> np.ndarray:
        """Pairwise distance matrix between self and other (same ambient)."""
        if self.is_planar and other.is_planar:
            return _pair_distances(self.points, other.points)
        if self.is_planar != other.is_planar:
            raise DomainError("cannot mix planar and table-backed point sets")
        ra, rb = self.root(), other.root()
        if ra is not rb:
            raise DomainError("point sets drawn from different distance tables")
        return ra.matrix[np.ix_(self._root_indices(), other._root_indices())]


def _validate_distance_table(m: np.ndarray) -> None:
    """A distance table, each axiom checked within ``DEFAULT_TOL``."""
    tol = DEFAULT_TOL
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("distance table must be square")
    if m.shape[0] == 0:
        raise DomainError("distance table must be non-empty")
    if not np.all(np.isfinite(m)):
        raise DomainError("distance table entries must be finite")
    if np.any(m < -tol):
        raise DomainError("distance table entries must be non-negative")
    if np.abs(np.diag(m)).max() > tol:
        raise DomainError("distance table diagonal must be zero")
    if np.abs(m - m.T).max() > tol:
        raise DomainError("distance table must be symmetric")
    # triangle inequality: d(i,j) <= d(i,k) + d(k,j) within tol
    n = m.shape[0]
    for k in range(n):
        slack = m[:, k][:, None] + m[k, :][None, :] - m
        if slack.min() < -tol:
            i, j = np.unravel_index(np.argmin(slack), slack.shape)
            raise DomainError(
                f"distance table violates the triangle inequality at "
                f"({i}, {k}, {j})")


@dataclass(frozen=True)
class DistanceReport:
    """Hausdorff distance together with a witness pair attaining it.

    ``witness`` holds indices ``(i, j)`` into the two input sets such that
    point ``i`` of the far set realizes the max-min distance to the near set
    at point ``j``.  ``direction`` records which input was the far set
    (0 = first, 1 = second).  Ties are broken toward the lowest index.
    """

    value: float
    witness: tuple
    direction: int

    def __post_init__(self):
        if not self.value >= 0:
            raise DomainError("Hausdorff distance must be a non-negative "
                              "number")


# -- the planar nearest-distance kernel ------------------------------------


def _pair_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense |A| x |B| Euclidean distances between planar point arrays."""
    dx = A[:, 0, None] - B[None, :, 0]
    dy = A[:, 1, None] - B[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _dense_minima(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance from each point of A to its nearest point of B, exactly.

    Evaluated ``BLOCK_PAIRS`` pairs at a time, so memory stays bounded.
    """
    step = max(1, BLOCK_PAIRS // len(B))
    out = np.empty(len(A))
    for s in range(0, len(A), step):
        out[s:s + step] = _pair_distances(A[s:s + step], B).min(axis=1)
    return out


def _point_keys(X: np.ndarray) -> np.ndarray:
    """Each planar point as one complex number, so ``==`` is coordinate
    equality (-0.0 is 0.0)."""
    return np.ascontiguousarray(X).view(np.complex128).ravel()


def _tree_minima(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Nearest distances from A to B, within a few ulps.

    Per distinct point: one that also lies in B is at exactly 0.0, as the
    dense formula gives; the rest ask one sliding-midpoint KD-tree over B's
    distinct points.  Every row reads its point's minimum.
    """
    a_keys, a_first, a_row = np.unique(_point_keys(A), return_index=True,
                                       return_inverse=True)
    b_keys, b_first = np.unique(_point_keys(B), return_index=True)
    out = np.zeros(len(a_keys))
    rest = np.flatnonzero(~np.isin(a_keys, b_keys, assume_unique=True))
    if rest.size:
        from scipy.spatial import cKDTree
        tree = cKDTree(B[b_first], balanced_tree=False, compact_nodes=False)
        out[rest] = tree.query(A[a_first[rest]])[0]
    return out[a_row]


def _recheck_floor(x: float) -> float:
    """Tree minima below this are surely below the dense maximum ``x``."""
    return x * (1 - _RECHECK_REL) - _RECHECK_ABS


def _farthest(A: np.ndarray, B: np.ndarray, rows: np.ndarray):
    """``(value, i, j)``: the row ``i`` among ``rows`` of A farthest from B,
    and its nearest point ``j`` of B, both exact; lowest indices on ties.
    No rows give value ``-inf``."""
    if rows.size == 0:
        return -np.inf, -1, -1
    mins = _dense_minima(A[rows], B)
    k = int(np.argmax(mins))
    i = int(rows[k])
    j = int(np.argmin(_pair_distances(A[i:i + 1], B)[0]))
    return float(mins[k]), i, j


def _tree_hausdorff(P: np.ndarray, Q: np.ndarray):
    """Forward and backward ``(value, i, j)`` of two planar point arrays.

    Tree minima select the rows, in either direction, that may attain the
    larger of the two maxima; only those are re-checked densely.
    """
    near = _tree_minima(P, Q), _tree_minima(Q, P)
    lo = _recheck_floor(max(near[0].max(), near[1].max()))
    return (_farthest(P, Q, np.flatnonzero(near[0] >= lo)),
            _farthest(Q, P, np.flatnonzero(near[1] >= lo)))


def _directed_hausdorff(d: np.ndarray):
    """max over rows of min over columns; lowest-index tie breaking."""
    mins = d.min(axis=1)
    i = int(np.argmax(mins))
    j = int(np.argmin(d[i]))
    return float(mins[i]), i, j


def _report(fwd, bwd) -> DistanceReport:
    """The larger of two directed ``(value, i, j)``; forward on a tie."""
    if fwd[0] >= bwd[0]:
        return DistanceReport(value=fwd[0], witness=fwd[1:], direction=0)
    return DistanceReport(value=bwd[0], witness=bwd[1:], direction=1)


def hausdorff_distance(K: FinitePointSet, L: FinitePointSet) -> DistanceReport:
    """Hausdorff distance between two finite sets in a common ambient space."""
    if K.is_planar and L.is_planar and len(K) * len(L) > TREE_MIN_PAIRS:
        return _report(*_tree_hausdorff(K.points, L.points))
    d = K.distances_to(L)
    return _report(_directed_hausdorff(d), _directed_hausdorff(d.T))


def closed_neighborhood(K: FinitePointSet, eps: float,
                        ambient: FinitePointSet) -> FinitePointSet:
    """Points of ``ambient`` within distance ``eps`` of ``K``, inclusive.

    ``K`` must be a subset of ``ambient`` (by exact point identity for planar
    sets, by table membership otherwise).  The boundary is included: points at
    distance exactly ``eps`` belong to the neighborhood.
    """
    if not eps >= 0:
        raise DomainError(f"neighborhood radius must be non-negative, "
                          f"got {eps}")
    _require_subset(K, ambient)
    near = (_dense_minima(ambient.points, K.points) if K.is_planar
            else ambient.distances_to(K).min(axis=1))
    return ambient.subset(np.flatnonzero(near <= eps))


def _require_subset(K: FinitePointSet, ambient: FinitePointSet) -> None:
    """Planar points match by coordinate equality (so -0.0 is 0.0), each
    pair read as one complex number; table points by root index."""
    if K.is_planar and ambient.is_planar:
        missing = np.flatnonzero(~np.isin(_point_keys(K.points),
                                          _point_keys(ambient.points)))
        if missing.size:
            x, y = K.points[missing[0]]
            raise DomainError(f"point ({x}, {y}) is not in the ambient set")
        return
    if K.is_planar != ambient.is_planar:
        raise DomainError("cannot mix planar and table-backed point sets")
    if K.root() is not ambient.root():
        raise DomainError("K is not drawn from the ambient distance table")
    if not np.isin(K._root_indices(), ambient._root_indices()).all():
        raise DomainError("K contains points outside the ambient set")
