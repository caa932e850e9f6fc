"""Finite planar point sets, Hausdorff distance, and closed neighborhoods.

Every space the package measures is a planar compactum, so a
:class:`FinitePointSet` is a finite set of points of the Euclidean plane
and its hyperspace carries the planar Hausdorff metric (Illanes & Nadler,
*Hyperspaces*, Dekker 1999).  A subset is an ordinary planar set.

Planar distances are ``sqrt(dx*dx + dy*dy)`` in numpy float64.
:func:`hausdorff_distance` evaluates that formula densely up to
``TREE_MIN_PAIRS`` point pairs.  Above it a point that also lies in the
other set is bounded by exactly 0.0, and the rest by the formula's
distance to the neighbour that one sliding-midpoint KD-tree (Bentley,
CACM 1975; Maneewongvatana & Mount 1999) over the other set's distinct
points names.  :func:`_settle` evaluates the points densely in decreasing
order of bound until no bound left can raise the maximum (Taha & Hanbury,
IEEE TPAMI 37(11), 2015).  A wrong neighbour only costs time: results are
the dense ones bit for bit, ties going to the lowest index.
Dense minima, here and in :func:`closed_neighborhood`, come in the row
blocks of :func:`errors._row_blocks`.  The default comparison tolerance
is ``1e-12``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, _row_blocks

DEFAULT_TOL = 1e-12

# Planar pairs of sets with more than this many point pairs bound their
# nearest distances through a KD-tree; below it the dense formula is faster.
TREE_MIN_PAIRS = 50_000


class FinitePointSet:
    """A finite, non-empty set of points of the Euclidean plane, kept as
    the validated (n, 2) float64 array ``points``, rows in the given order.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError("points must have shape (n, 2)")
        if pts.shape[0] == 0:
            raise DomainError("point set must be non-empty")
        if not np.isfinite(pts).all():
            raise DomainError("point coordinates must be finite")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, indices: Sequence[int]) -> "FinitePointSet":
        """Restrict to the given point indices (kept in the given order)."""
        idx = np.asarray(indices)
        if idx.size == 0:
            raise DomainError("subset must be non-empty")
        if idx.dtype.kind not in "iu":
            raise DomainError(f"subset indices must be integers, got "
                              f"{idx.dtype}")
        if idx.min() < 0 or idx.max() >= len(self):
            raise DomainError("subset index out of range")
        return FinitePointSet(points=self.points[idx])


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

    Evaluated in :func:`_row_blocks` of ``len(B)`` pairs a row.
    """
    out = np.empty(len(A))
    for at in _row_blocks(len(A), len(B)):
        out[at] = _pair_distances(A[at], B).min(axis=1)
    return out


def _point_keys(X: np.ndarray) -> np.ndarray:
    """Each planar point as one complex number, so ``==`` is coordinate
    equality (-0.0 is 0.0)."""
    return np.ascontiguousarray(X).view(np.complex128).ravel()


def _tree_bounds(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """An upper bound on each row's nearest distance from A to B, per
    distinct point: exactly 0.0 for one that also lies in B, as the dense
    formula gives, else the formula's distance to the point of B that one
    KD-tree over B's distinct points names, whatever the tree returns."""
    a_keys, a_first, a_row = np.unique(_point_keys(A), return_index=True,
                                       return_inverse=True)
    b_keys, b_first = np.unique(_point_keys(B), return_index=True)
    out = np.zeros(len(a_keys))
    rest = np.flatnonzero(~np.isin(a_keys, b_keys, assume_unique=True))
    if rest.size:
        from scipy.spatial import cKDTree
        ref, ask = B[b_first], A[a_first[rest]]
        tree = cKDTree(ref, balanced_tree=False, compact_nodes=False)
        near = tree.query(ask)[1]
        dx, dy = ask[:, 0] - ref[near, 0], ask[:, 1] - ref[near, 1]
        out[rest] = np.sqrt(dx * dx + dy * dy)
    return out[a_row]


def _settle(bound, exact, batch, top):
    """The largest of ``top`` and ``exact(rows)`` over all rows, given an
    upper ``bound`` per row: rows are settled ``batch`` at a time, largest
    bound first, until no bound left can raise the maximum."""
    if bound.max() <= top:
        return top
    # the first batch in linear time (argpartition has no fast path for 1)
    head = (np.argpartition(bound, -min(batch, bound.size))[-batch:]
            if batch > 1 else bound.argmax(keepdims=True))
    top = max(top, exact(head).max())
    live = bound > top
    live[head] = False
    rows = np.flatnonzero(live)
    rows = rows[np.argsort(bound[rows])[::-1]]
    for s in range(0, rows.size, batch):
        if bound[rows[s]] <= top:
            break
        top = max(top, exact(rows[s:s + batch]).max())
    return top


def _first_at(A: np.ndarray, B: np.ndarray, rows: np.ndarray, top):
    """``(i, j)``: the first of ``rows`` (ascending) whose exact distance
    to B equals ``top``, and its nearest point ``j`` of B, lowest index on
    ties; None if no row does.  Rows go in :func:`_row_blocks`, so the
    search stops in the block that holds the first hit."""
    for at in _row_blocks(rows.size, len(B)):
        hit = np.flatnonzero(_dense_minima(A[rows[at]], B) == top)
        if hit.size:
            i = int(rows[at.start + hit[0]])
            return i, int(np.argmin(_pair_distances(A[i:i + 1], B)[0]))
    return None


def _tree_hausdorff(P: np.ndarray, Q: np.ndarray) -> DistanceReport:
    """The Hausdorff report of two planar point arrays: both directions
    settle their tree bounds against one shared maximum.  The witness is
    the lowest row attaining it, forward before backward, as the dense
    report has it: only rows whose bound reaches the maximum can, and the
    search stops at the first."""
    fwd, bwd = _tree_bounds(P, Q), _tree_bounds(Q, P)
    top = _settle(fwd, lambda rows: _dense_minima(P[rows], Q), 1, 0.0)
    top = float(_settle(bwd, lambda rows: _dense_minima(Q[rows], P), 1, top))
    hit = _first_at(P, Q, np.flatnonzero(fwd >= top), top)
    if hit is not None:
        return DistanceReport(value=top, witness=hit, direction=0)
    return DistanceReport(value=top, direction=1, witness=_first_at(
        Q, P, np.flatnonzero(bwd >= top), top))


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
    """Hausdorff distance between two finite planar sets."""
    if len(K) * len(L) > TREE_MIN_PAIRS:
        return _tree_hausdorff(K.points, L.points)
    d = _pair_distances(K.points, L.points)
    return _report(_directed_hausdorff(d), _directed_hausdorff(d.T))


def closed_neighborhood(K: FinitePointSet, eps: float,
                        ambient: FinitePointSet) -> FinitePointSet:
    """Points of ``ambient`` within distance ``eps`` of ``K``, inclusive.

    ``K`` must be a subset of ``ambient``, point by point.  The boundary is
    included: points at distance exactly ``eps`` belong to the neighborhood.
    """
    if not eps >= 0:
        raise DomainError(f"neighborhood radius must be non-negative, "
                          f"got {eps}")
    _require_subset(K, ambient)
    near = _dense_minima(ambient.points, K.points)
    return ambient.subset(np.flatnonzero(near <= eps))


def _require_subset(K: FinitePointSet, ambient: FinitePointSet) -> None:
    """Points match by coordinate equality (so -0.0 is 0.0), each pair read
    as one complex number."""
    missing = np.flatnonzero(~np.isin(_point_keys(K.points),
                                      _point_keys(ambient.points)))
    if missing.size:
        x, y = K.points[missing[0]]
        raise DomainError(f"point ({x}, {y}) is not in the ambient set")
