#!/usr/bin/env python3
"""Connection coefficient tables and their quadrature cross-check.

The shipped fixed-point tables are exact up to solver noise; the independent
cascade-quadrature oracle converges toward the table values as its
level grows, at a rate set by the smoothness of the order-K scaling
function.
"""

from wavefield.connection import (
    derivative_overlaps,
    gamma_tensor,
    oracle_deviation,
    recursion_residual,
    rescale_tensor,
)
from wavefield.filters import make_filters

fp = make_filters(3)

d = derivative_overlaps(3)
print("derivative overlaps, K=3 (residual %.1e):" % recursion_residual(d, fp))
for (n,), v in d.sorted_items():
    print("  D[%+d] = %+.15f" % (n, v))

g3 = gamma_tensor(3, 3)
print("\n3-point table: %d entries, residual %.1e"
      % (len(g3.sorted_items()), recursion_residual(g3, fp)))
sums = {}
for (n2, n3), v in g3.sorted_items():
    sums[n2] = sums.get(n2, 0.0) + v
print("sum rule max defect: %.2e"
      % max(abs(s - (1.0 if n2 == 0 else 0.0)) for n2, s in sums.items()))

# oracle convergence over the whole table
print("\n# level  max |oracle - table|")
for level in (6, 8, 10, 12):
    print("%6d  %.3e" % (level, oracle_deviation(g3, level)))

# rescaling: one scale step multiplies D by 4 and Gamma3 by 2^(1/2)
d1 = rescale_tensor(d, 1)
print("\nD[0] scale 0 -> 1: %.12f -> %.12f (ratio %.1f)"
      % (d.value((0,)), d1.value((0,)), d1.value((0,)) / d.value((0,))))
