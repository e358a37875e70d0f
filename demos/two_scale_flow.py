#!/usr/bin/env python3
"""Decouple coarse and detail scales with a block Wegner flow.

The fine-lattice derivative coupling is rotated into the
coarse+wavelet basis, which leaves a strong cross-scale block; the
SRG flow with a block-diagonal generator drives that block to zero
while preserving the spectrum.
"""

import numpy as np

from wavefield.connection import derivative_overlaps, gamma_tensor, rescale_tensor
from wavefield.filters import make_filters
from wavefield.flow import FlowState, coupling_matrix, split_tensors, srg_flow

fp = make_filters(3)
N = 16
sp = split_tensors(rescale_tensor(derivative_overlaps(3), 1),
                   rescale_tensor(gamma_tensor(3, 4), 1), fp, N)

h0 = coupling_matrix(sp) + np.eye(N)
print("cross-scale block norm at start: %.4f" % np.linalg.norm(h0[:8, 8:]))

fin, traj, rep = srg_flow(FlowState(0.0, h0, "wegner-block", 8), 0.05)
print("accepted %d steps, rejected %d" % (rep["accepted"], rep["rejected"]))

print("\n# lambda  offdiag_frobenius  eigen_drift   (every 16th row)")
for row in traj[::16] + [traj[-1]]:
    print("%.5f  %.6e  %.2e" % row)

sw = np.linalg.norm(fin.h_matrix[:8, 8:])
print("\ncross-scale block norm at end: %.2e" % sw)

joint = np.sort(np.concatenate([
    np.linalg.eigvalsh(fin.h_matrix[:8, :8]),
    np.linalg.eigvalsh(fin.h_matrix[8:, 8:]),
]))
full = np.sort(np.linalg.eigvalsh(h0))
print("block spectra vs full spectrum: %.2e"
      % np.abs(joint - full).max())
