"""ptscatter: transfer-matrix scattering off 1D real and PT-symmetric potentials.

Compute 2x2 transfer matrices and (T, R_left, R_right) amplitudes by an exact
slab-product backend or an adaptive integrator, check the full catalog of
reciprocity/unitarity identities as numerical residuals, and scan wavenumber
intervals for spectral singularities, one-sided reflectionless points, and
invisible points.
"""
from .catalog import builtin_potential, builtin_potentials, corpus
from .identities import (
    IDENTITY_IDS,
    IdentityEntry,
    IdentityReport,
    PhaseRecord,
    identity_report,
    phases,
)
from .potentials import (
    AnalyticPotential,
    LayerPotential,
    Potential,
    PotentialError,
    SampledPotential,
    SymmetryClass,
    classify_symmetry,
    parse_potential_spec,
)
from .scan import (
    Feature,
    ScanResult,
    SweepResult,
    check_invisibility,
    find_spectral_singularities,
    find_unidirectional_points,
    sweep,
)
from .transfer import (
    BackendError,
    ConvergenceError,
    ScatteringData,
    TransferMatrix,
    compute_transfer,
    negative_k_matrix,
    scattering_data,
    stack_matrices,
    transfer_matrix_ode,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPotential",
    "BackendError",
    "ConvergenceError",
    "Feature",
    "IDENTITY_IDS",
    "IdentityEntry",
    "IdentityReport",
    "LayerPotential",
    "PhaseRecord",
    "Potential",
    "PotentialError",
    "SampledPotential",
    "ScanResult",
    "ScatteringData",
    "SweepResult",
    "SymmetryClass",
    "TransferMatrix",
    "builtin_potential",
    "builtin_potentials",
    "check_invisibility",
    "classify_symmetry",
    "compute_transfer",
    "corpus",
    "find_spectral_singularities",
    "find_unidirectional_points",
    "identity_report",
    "negative_k_matrix",
    "parse_potential_spec",
    "phases",
    "scattering_data",
    "stack_matrices",
    "sweep",
    "transfer_matrix_ode",
    "__version__",
]
