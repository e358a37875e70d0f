#!/usr/bin/env python3
"""Low spectrum of the truncated phi^4 Hamiltonian on a small lattice.

Free-sector sanity first (the matched-gamma ladder is exact up to
truncation), then a coupling sweep and the variational drift of the
ground state with the occupation cutoff.
"""

import numpy as np

from wavefield.connection import derivative_overlaps, gamma_tensor
from wavefield.fock import (
    FockBasis,
    ModelParams,
    build_phi4_hamiltonian,
    free_reference_spectrum,
    lanczos_lowest,
)

d3 = derivative_overlaps(3)
g43 = gamma_tensor(3, 4)

# the tables fix the resolution (order 3, scale 0); the basis fixes the
# number of modes
om, _ = free_reference_spectrum(ModelParams(1.0, 0.0, 1.0), d3, 2)
gam = float(np.sqrt(om[0] * om[1]))
print("two modes, mass^2=1: omega = (%.6f, %.6f), gamma = %.6f"
      % (om[0], om[1], gam))

h = build_phi4_hamiltonian(ModelParams(1.0, 0.0, gam), d3, None, FockBasis(2, 20))
om2, e0 = free_reference_spectrum(ModelParams(1.0, 0.0, gam), d3, 2)
rows, cols, vals = h.entries()
dense = np.zeros((h.basis.dimension,) * 2)
dense[rows, cols] = vals
evs = np.linalg.eigvalsh(dense)
ladder = sorted(e0 + i * om2[0] + j * om2[1]
                for i in range(6) for j in range(6))
print("free ladder agreement (6 levels): %.2e"
      % np.abs(evs[:6] - np.array(ladder[:6])).max())

print("\n# lambda  E0  E1  E2   (nmax=10)")
b = FockBasis(2, 10)
for lam in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
    hh = build_phi4_hamiltonian(ModelParams(1.0, lam, gam), d3, g43, b)
    es = [e for e, _ in lanczos_lowest(hh, 3)]
    print("%7.3f  %+.8f  %+.8f  %+.8f" % (lam, es[0], es[1], es[2]))

print("\n# variational: E0 vs cutoff at lambda=0.2, N=4 modes")
for nmax in (2, 3, 4, 5):
    hh = build_phi4_hamiltonian(ModelParams(1.0, 0.2), d3, g43, FockBasis(4, nmax))
    print("nmax=%d  dim=%5d  E0 = %+.8f"
          % (nmax, FockBasis(4, nmax).dimension,
             lanczos_lowest(hh, 1)[0][0]))
