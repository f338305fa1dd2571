"""Exact computations for star configurations in the monomial model.

Skeleton ideals of coordinate-hyperplane arrangements, their symbolic and
ordinary powers, Hilbert functions and h-vectors, graded free resolution
shapes, determinantal presentations of codimension-2 symbolic powers, primary
decompositions of powers, and resurgence.  All arithmetic is exact.
"""

from .errors import ResourceCapError, TheoremViolation, UsageError
from .exponents import (
    MonomialIdeal,
    alpha,
    colon,
    colon_ideal,
    contains,
    divides,
    equals,
    ideal_sum,
    intersect,
    intersect_many,
    member,
    minimalize,
    multiply,
    omega,
    power,
    saturate,
    unit_ideal,
    variable_ideal,
    zero_ideal,
)
from .hilbert import (
    HVector,
    bdg_hf_check,
    degree,
    generic_hvector,
    h_vector,
    hilbert_function,
    ss_hvector_formula,
    symbolic_h_vector,
    symbolic_numerator,
)
from .resolution import (
    ResolutionShape,
    SparsePoly,
    SymbolicMatrix,
    determinant,
    en_rank,
    euler_check,
    expected_minor_monomials,
    hb_matrix,
    maximal_minors,
    ss_resolution,
    verify_hb,
)
from .star import (
    SimplicialComplex,
    StarConfig,
    alpha_symbolic_formula,
    check_lemma_contain,
    is_matroid,
    omega_symbolic_formula,
    skeleton_complex,
    skeleton_ideal,
    stanley_reisner_ideal,
    symbolic_member,
    symbolic_power,
    symbolic_power_by_intersection,
    wk_ideal,
    wk_step_check,
)
from .decomp import (
    ContainmentReport,
    criterion,
    irrelevant_ideal,
    irrelevant_power,
    resurgence_scan,
    rhs_decomposition,
    rho_exact,
    rho_lower_bound,
    symbolic_in_power,
    verify_power_decomposition,
    verify_saturation,
)

__version__ = "0.1.0"
