#!/usr/bin/env python3
"""Cascade refinement of the scaling function and its basic checks.

Emits (x, s(x)) pairs at a moderate level for external plotting, then
shows how the Riemann mass and the partition-of-unity residual behave
as the dyadic level increases.
"""

import numpy as np

from wavefield.scaling import integer_values, moments, scaling_samples

K = 3

iv = integer_values(K)
print("integer values:", " ".join("%+.9f" % v for v in iv.values))
print("first moment  :", "%.12f" % moments(K, 1))

# plot-ready samples, level 6
s6 = scaling_samples(K, 6)
x = s6.grid()
print("\n# x s(x)   (level 6, decimate by 8)")
for i in range(0, len(x), 8):
    print("%.6f %+.9f" % (x[i], s6.values[i]))

print("\n# level  riemann_mass_error  partition_error")
for level in range(4, 13, 2):
    s = scaling_samples(K, level).values
    g = 2 ** level
    mass = abs(s[:-1].sum() / g - 1.0)
    # sum the translates covering x in [0, 1]
    acc = np.zeros(g + 1)
    for n in range(-(2 * K - 2), 1):
        seg = s[-n * g: -n * g + g + 1]
        acc[: len(seg)] += seg
    print("%6d  %.3e  %.3e" % (level, mass, np.abs(acc - 1.0).max()))
