"""Analytic phase factors for the iterated matrix-sign transform, with
dense block-encoding drivers and independent cross-checks."""

from .blockenc import BlockEncoding, dilate_general, dilate_hermitian, extract
from .errors import DomainError, InputError, NumericError
from .linalg import (hermitian_eig, hermitian_eigvals, load_matrix,
                     matrix_function_hermitian, operator_norm,
                     polar_oracle, save_matrix)
from .poly import (ComplexPolynomial, check_qet_conditions, load_poly, pade,
                   poly_eval, polynomial, save_poly)
from .qet import (IterationReport, ScalarSignTable, coherent_perturb, compose_phases,
                  distinct_angles, distinct_nonzero_angles, error_bound,
                  flatten_sign_phases, qet_assemble, qet_recursive_step,
                  query_count, run_sign, sign_iterations)
from .qsp import canonicalize_angles, pade_phases, reflection_upper_left, save_phases
from .qsvt import (FilterResult, PreparationResult, filtering_operator,
                   preparation_projector, run_polar)

__version__ = "0.1.0"
