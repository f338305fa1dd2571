"""Exact computations for star configurations in the monomial model.

Skeleton ideals of coordinate-hyperplane arrangements, their symbolic and
ordinary powers, Hilbert functions and h-vectors, graded free resolution
shapes, determinantal presentations of codimension-2 symbolic powers, primary
decompositions of powers, and resurgence.  All arithmetic is exact.

The public names below are imported on first access (PEP 562), so importing
the package, or one submodule such as the CLI, loads no other submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "errors": ("ResourceCapError", "TheoremViolation", "UsageError"),
    "exponents": (
        "MonomialIdeal",
        "alpha",
        "colon",
        "colon_ideal",
        "contains",
        "divides",
        "equals",
        "ideal_sum",
        "intersect",
        "intersect_many",
        "member",
        "minimalize",
        "multiply",
        "omega",
        "power",
        "saturate",
        "unit_ideal",
        "variable_ideal",
        "zero_ideal",
    ),
    "hilbert": (
        "HVector",
        "bdg_hf_check",
        "degree",
        "generic_hvector",
        "h_vector",
        "hilbert_function",
        "ss_hvector_formula",
        "symbolic_h_vector",
        "symbolic_numerator",
    ),
    "resolution": (
        "ResolutionShape",
        "SparsePoly",
        "SymbolicMatrix",
        "determinant",
        "en_rank",
        "euler_check",
        "expected_minor_monomials",
        "hb_matrix",
        "maximal_minors",
        "ss_resolution",
        "verify_hb",
    ),
    "star": (
        "SimplicialComplex",
        "StarConfig",
        "alpha_symbolic_formula",
        "check_lemma_contain",
        "is_matroid",
        "omega_symbolic_formula",
        "skeleton_complex",
        "skeleton_ideal",
        "stanley_reisner_ideal",
        "symbolic_member",
        "symbolic_power",
        "symbolic_power_by_intersection",
        "wk_ideal",
        "wk_step_check",
    ),
    "decomp": (
        "ContainmentReport",
        "criterion",
        "irrelevant_ideal",
        "irrelevant_power",
        "resurgence_scan",
        "rhs_decomposition",
        "rho_exact",
        "rho_lower_bound",
        "symbolic_in_power",
        "verify_power_decomposition",
        "verify_saturation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's submodule on first access, or a submodule itself."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
