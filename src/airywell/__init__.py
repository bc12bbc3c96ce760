"""Closed-form Airy eigenstates of an imaginary absolute-value well with
time-dependent mass, plus the numerical machinery to check them.

Modules:
    airy         complex Airy functions and their negative real zeros
    quadrature   cumulative Simpson integrals with Richardson control
    profiles     mass and coupling histories and the frozen time integrals
    spectrum     static half-line spectrum, normalization, densities
    wavefunction region-1 branch, region 2 by parity, solution assembly, phases
    verify       finite-difference residual checks and propagator runs
    cli          command-line front end
"""

from .airy import (
    AiryPair,
    airy_eval,
    airy_eval_many,
    airy_ai_many,
    airy_ai_and_prime,
    airy_ai_and_prime_lattice,
    airy_function_zero,
    airy_derivative_zero,
)
from .profiles import (
    CoefficientSet,
    InvariantCoefficients,
    TimeProfile,
    coefficients_at,
    invariant_coefficients,
)
from .spectrum import (
    SpectralLevel,
    level,
    eigenfunction,
    eigenfunction_continued,
    density,
)
from .wavefunction import (
    WavefunctionSample,
    wavefunction_branch,
    wavefunction_branch_on_lattice,
    wavefunction_branch_and_dt,
    assemble_wavefunction,
    reconstructed_density,
    phase,
    shift_reorder_phase,
)
from .verify import (
    Grid1D,
    DiscretizedOperator,
    PropagationResult,
    build_hamiltonian,
    build_invariant,
    crank_nicolson_propagate,
    tdse_residual,
    invariant_eigen_residual,
    level_residuals,
    von_neumann_residual,
    pseudo_hermiticity_check,
)

__all__ = [
    "AiryPair",
    "airy_eval",
    "airy_eval_many",
    "airy_ai_many",
    "airy_ai_and_prime",
    "airy_ai_and_prime_lattice",
    "airy_function_zero",
    "airy_derivative_zero",
    "CoefficientSet",
    "InvariantCoefficients",
    "TimeProfile",
    "coefficients_at",
    "invariant_coefficients",
    "SpectralLevel",
    "level",
    "eigenfunction",
    "eigenfunction_continued",
    "density",
    "WavefunctionSample",
    "wavefunction_branch",
    "wavefunction_branch_on_lattice",
    "wavefunction_branch_and_dt",
    "assemble_wavefunction",
    "reconstructed_density",
    "phase",
    "shift_reorder_phase",
    "Grid1D",
    "DiscretizedOperator",
    "PropagationResult",
    "build_hamiltonian",
    "build_invariant",
    "crank_nicolson_propagate",
    "tdse_residual",
    "invariant_eigen_residual",
    "level_residuals",
    "von_neumann_residual",
    "pseudo_hermiticity_check",
]

__version__ = "0.1.0"
