"""Numerics for dual-band model spaces and their multiplication
compressions.

The package realizes spaces M = phi K_theta + psi K_theta for finite
Blaschke products theta and unimodular band functions phi, psi, and
studies the compression of multiplication by a symbol g to M: block
matrix identities, the antilinear symmetry, kernels and spectra of the
shift family g = z - lam through closed forms, equivalence with a
four-by-four block Toeplitz extension, explicit Wiener-Hopf
factorizations with resolvents built from them, and Hankel expressions
for norms and spectra of analytic symbols.
"""

from .dual_band import (DualBandSpace, block_w, build_dualband, cm_matrix,
                        cm_symmetry_residual, dualband_matrix,
                        is_zero_operator, pm_apply, shift_quadrature_residual,
                        unitary_equiv_check)
from .errors import (CoefficientError, CutoffError, DegeneracyError,
                     DualbandError, EigenvalueEncounteredError,
                     GridMismatchError, MissingDecompositionError, NoAdcError,
                     NonKernelInputError, NotAnEigenvalueError,
                     OrthogonalityError, PoleError, ScenarioError,
                     SingularOperatorError, UnimodularityError)
from .extension import (ExtensionVector, adjoint_kernel_map, build_G,
                        inverse_via_extension, kernel_lift, kernel_project,
                        range_test, rh_residual)
from .factorization import (FactorizationResult, build_g_r, build_g_tilde,
                            canonical_factors, hminus_split, l2_factors,
                            meromorphic_factors, resolvent_apply,
                            verify_factorization)
from .hankel import analytic_spectrum, hankel_norm, triangular_w_inverse
from .matsym import MatrixSymbol
from .model_space import ModelSpaceBasis, ctheta_matrix, tto_matrix
from .scenario import Scenario, build_space, parse_scenario, parse_scenario_text
from .shift_spectra import (adc_test, classify, delta, delta_tilde,
                            eigvec_build, essential_spectrum, point_spectrum,
                            shift_constants, solve_theta_equals)
from .symbols import InnerFunction, LaurentSymbol

__version__ = "0.1.0"

__all__ = [
    "LaurentSymbol", "InnerFunction", "ModelSpaceBasis", "tto_matrix",
    "ctheta_matrix", "DualBandSpace",
    "build_dualband", "dualband_matrix", "block_w", "pm_apply",
    "unitary_equiv_check", "is_zero_operator", "cm_matrix",
    "cm_symmetry_residual", "shift_quadrature_residual", "MatrixSymbol",
    "build_G", "ExtensionVector",
    "kernel_lift", "kernel_project", "rh_residual", "range_test",
    "adjoint_kernel_map", "inverse_via_extension", "shift_constants",
    "delta", "delta_tilde", "eigvec_build", "point_spectrum", "adc_test",
    "solve_theta_equals",
    "essential_spectrum", "classify", "FactorizationResult",
    "build_g_r", "build_g_tilde", "canonical_factors",
    "meromorphic_factors", "hminus_split", "l2_factors",
    "verify_factorization", "resolvent_apply", "hankel_norm",
    "Scenario", "parse_scenario", "parse_scenario_text", "build_space",
    "analytic_spectrum", "triangular_w_inverse", "DualbandError",
    "PoleError", "GridMismatchError", "CoefficientError",
    "UnimodularityError", "OrthogonalityError", "DegeneracyError",
    "MissingDecompositionError", "NotAnEigenvalueError",
    "EigenvalueEncounteredError", "NoAdcError", "CutoffError",
    "NonKernelInputError", "SingularOperatorError", "ScenarioError",
    "__version__",
]
