"""Geodesics, flat triangles, and terminal elements in the fiber model.

Paths between elements run along the containment order: a step joins
two comparable elements and costs their size difference.  Sizes grow
strictly along the order, so a geodesic bends once, at the join (the
least common upper bound) or at the meet (the greatest common lower
bound).  No piece of one fiber is comparable with a piece of another,
so any walk between fibers climbs through an ample element.  On
degenerate geodesic triangles the metric is exactly additive, and the
full fibers are precisely the terminal elements of the family.

Run:  python3 demos/06_geodesics_terminality.py
"""

from continuum_lab.continua import is_terminal
from continuum_lab.psi import (Arc, Piece, build_psi_model, curvature_check,
                               normalize_to_psi0)

model = build_psi_model()
pv = normalize_to_psi0(model)

# A geodesic between pieces of different fibers.
a = Piece(fiber=0, i=2, j=3)
b = Piece(fiber=3, i=1, j=4)
dist, path = pv.space.path_between(a, b)


def label(e):
    if isinstance(e, Piece):
        return f"piece f{e.fiber}[{e.i}..{e.j}]"
    return f"arc({e.start}+{e.length})" if e.length < model.m else "whole"


print(f"geodesic from {label(a)} to {label(b)}: length {dist:.6f}")
print("  " + " -> ".join(label(e) for e in path))
print(f"  passes through an ample element: "
      f"{any(model.classify(e) == 'ample' for e in path)}")

# Without the ample zone no path leaves a fiber: no piece of one fiber
# is comparable with a piece of another.
pieces = [e for e in model.elements if isinstance(e, Piece)]
linked = sum(model.leq(p, q) or model.leq(q, p)
             for p in pieces for q in pieces if p.fiber != q.fiber)
print(f"comparable pairs of pieces of two fibers: {linked}")

# Degenerate triangles (one geodesic passing through the third element)
# are exactly additive.
rep = curvature_check(pv, trials=1000, seed=0)
print(f"1000 random triples: {rep.degenerate} degenerate, "
      f"{rep.additive} exactly additive, "
      f"worst defect {rep.worst_defect:.2e}")

# Terminality, computed on the overlap-faithful point family: every
# full fiber is terminal, no proper piece is.
family = [model.closed_vertices(e) for e in model.elements]
fibers = [Arc(start=s, length=1) for s in range(model.m)]
print(f"all {model.m} full fibers terminal: "
      f"{all(is_terminal(model.closed_vertices(f), family) for f in fibers)}")
proper = [e for e in model.elements
          if isinstance(e, Piece) and (e.j - e.i + 1) < model.k]
print(f"any proper piece terminal: "
      f"{any(is_terminal(model.closed_vertices(e), family) for e in proper)}")
