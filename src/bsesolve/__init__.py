"""Iterative eigensolver for definite Bethe-Salpeter (pseudo-hermitian)
Hamiltonians: Chebyshev-filtered subspace iteration with an oblique
Rayleigh-Ritz projection, a direct dense oracle, and a seeded generator
of synthetic problem instances.
"""

__version__ = "0.1.0"

from .errors import (
    BseSolveError,
    HermitianRqError,
    IndefiniteError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .hamiltonian import (
    BseHamiltonian,
    Definiteness,
    apply_h,
    apply_j,
    apply_k,
    apply_s,
    is_definite,
    materialize,
    materialize_sh,
    validate_pseudo_hermitian,
)
from .generate import GeneratorSpec, field_of_values_bounds, generate, quadruplet_partners
from .direct import (
    FullEigendecomposition,
    cond_of_h,
    dense_general_eig,
    dense_hermitian_eig,
    direct_solve_definite,
    rho_sh,
)
from .lanczos import SpectralBounds, estimate_bounds, update_cutoff
from .chebyshev import FilterConfig, chebyshev_filter, scalar_filter_value
from .ortho import cholqr_with_fallback, s_orthonormalize
from .rayleigh_ritz import (
    ConvergenceDiagnostics,
    ReducedProblem,
    RitzSet,
    build_backup_rq,
    build_hermitian_rq,
    diagnostics,
    dual_basis_explicit,
    lock_converged,
    residuals,
)
from .solver import (
    CompletedSpectrum,
    SolveResult,
    SolverConfig,
    TraceRecord,
    complete_spectrum,
    mirror_largest,
    solve,
)
from .metrics import PhaseLedger

__all__ = [
    "BseHamiltonian",
    "BseSolveError",
    "CompletedSpectrum",
    "ConvergenceDiagnostics",
    "Definiteness",
    "FilterConfig",
    "FullEigendecomposition",
    "GeneratorSpec",
    "HermitianRqError",
    "IndefiniteError",
    "NumericalError",
    "PhaseLedger",
    "RankDeficiencyError",
    "ReducedProblem",
    "RitzSet",
    "SolveResult",
    "SolverConfig",
    "SpectralBounds",
    "TraceRecord",
    "ValidationError",
    "apply_h",
    "apply_j",
    "apply_k",
    "apply_s",
    "build_backup_rq",
    "build_hermitian_rq",
    "chebyshev_filter",
    "cholqr_with_fallback",
    "complete_spectrum",
    "cond_of_h",
    "dense_general_eig",
    "dense_hermitian_eig",
    "diagnostics",
    "direct_solve_definite",
    "dual_basis_explicit",
    "estimate_bounds",
    "field_of_values_bounds",
    "generate",
    "is_definite",
    "lock_converged",
    "materialize",
    "materialize_sh",
    "mirror_largest",
    "quadruplet_partners",
    "residuals",
    "rho_sh",
    "s_orthonormalize",
    "scalar_filter_value",
    "solve",
    "update_cutoff",
    "validate_pseudo_hermitian",
]
