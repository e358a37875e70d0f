#!/usr/bin/env python3
"""Print Daubechies filter taps and their constraint residuals.

The three constraint families (normalization, double-shift
orthonormality, vanishing moments of the wavelet side) should all sit
at float64 noise.
"""

import numpy as np

from wavefield.filters import constraint_residuals, make_filters

for K in range(1, 7):
    fp = make_filters(K)
    r = constraint_residuals(fp.h)
    print("K=%d  taps=%d  sum=%.1e  orth=%.1e  moments=%.1e"
          % (K, len(fp.h), r["sum"], r["orthonormality"], r["moments"]))
    print("  h =", " ".join("%+.12f" % v for v in fp.h))

# closed form at K=2 for reference
s3 = np.sqrt(3.0)
closed = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2))
print("\nK=2 closed-form deviation: %.2e"
      % np.abs(np.asarray(make_filters(2).h) - closed).max())
