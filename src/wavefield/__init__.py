"""Daubechies wavelet discretization toolkit for 1+1d scalar field theory.

Submodules:
    filters      Daubechies-K filter taps h, g
    scaling      scaling function / wavelet values on dyadic grids, moments
    transform    periodic fast wavelet transform (analysis/synthesis/pyramid,
                 the stage matrix)
    connection   overlap tensors D and Gamma from fixed-point systems
    fock         truncated normal-ordered phi^4 Hamiltonian and spectra
    flow         two-scale splitting and SRG (Wegner) flow on matrices
    diagnostics  kernel-level checks: partition of unity, projection error,
                 commutator pairing residual
    cli          command line entry point
"""

__version__ = "0.1.0"

from .filters import FilterPair, make_filters  # noqa: F401
from .scaling import (  # noqa: F401
    derivative_samples,
    integer_values,
    moments,
    scaling_samples,
    wavelet_samples,
)
from .transform import (  # noqa: F401
    CoeffPyramid,
    CoeffVector,
    max_levels,
    multilevel,
    stage_matrix,
)
from .connection import (  # noqa: F401
    CoeffTensor,
    derivative_overlaps,
    gamma_tensor,
    load_tensor,
    quadrature_oracle,
    rescale_tensor,
    save_tensor,
    validate_tensor,
)
from .fock import (  # noqa: F401
    FockBasis,
    FockOperator,
    ModelParams,
    build_phi4_hamiltonian,
    free_reference_spectrum,
    lanczos_lowest,
)
from .flow import (  # noqa: F401
    FlowState,
    SplitTensors,
    StepControl,
    split_tensors,
    srg_flow,
)
from .diagnostics import (  # noqa: F401
    KernelProbe,
    commutator_residual,
    gaussian_probe,
    kernel_projection_error,
    partition_check,
    polynomial_probe,
)
from .errors import WavefieldError  # noqa: F401

__all__ = [
    "FilterPair", "make_filters",
    "derivative_samples", "integer_values", "moments",
    "scaling_samples", "wavelet_samples",
    "CoeffPyramid", "CoeffVector", "max_levels", "multilevel", "stage_matrix",
    "CoeffTensor", "derivative_overlaps", "gamma_tensor", "load_tensor",
    "quadrature_oracle", "rescale_tensor", "save_tensor", "validate_tensor",
    "FockBasis", "FockOperator", "ModelParams",
    "build_phi4_hamiltonian", "free_reference_spectrum", "lanczos_lowest",
    "FlowState", "SplitTensors", "StepControl",
    "split_tensors", "srg_flow",
    "KernelProbe", "commutator_residual", "gaussian_probe",
    "kernel_projection_error", "partition_check", "polynomial_probe",
    "WavefieldError",
]
