"""Hausdorff distance on finite point sets: values, witnesses, neighborhoods.

Run:  python3 demos/01_metric_basics.py
"""

from continuum_lab.metric_core import (FinitePointSet, closed_neighborhood,
                                       hausdorff_distance)

# Two samplings of the unit segment.  The sparse one misses the middle.
dense = FinitePointSet(points=[(i / 10, 0.0) for i in range(11)])
sparse = FinitePointSet(points=[(0.0, 0.0), (1.0, 0.0)])

rep = hausdorff_distance(dense, sparse)
print(f"d_H(dense, sparse) = {rep.value}")
far = dense if rep.direction == 0 else sparse
x, y = far.points[rep.witness[0]].tolist()  # Python floats, not numpy's repr
print(f"attained by point ({x}, {y}) of the "
      f"{'first' if rep.direction == 0 else 'second'} set")

# The distance is symmetric and vanishes only on equal sets.
assert hausdorff_distance(sparse, dense).value == rep.value
assert hausdorff_distance(dense, dense).value == 0.0

# Closed neighborhoods grow a set inside an ambient space; the boundary
# point at distance exactly eps is included.
nb = closed_neighborhood(dense.subset([0]), 0.2, dense)
print(f"closed 0.2-neighborhood of the left endpoint has {len(nb)} points")
