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
    "config": ("StarConfig", "alpha_symbolic_formula", "omega_symbolic_formula"),
    "exponents": (
        "MonomialIdeal",
        "alpha",
        "equals",
        "minimalize",
        "multiply",
        "omega",
        "power",
        "unit_ideal",
    ),
    "shapes": (
        "HVector",
        "ResolutionShape",
        "generic_hvector",
        "ss_hvector_formula",
        "ss_resolution",
        "symbolic_h_vector",
        "symbolic_numerator",
    ),
    "hilbert": ("bdg_hf_check", "euler_check", "h_vector"),
    "resolution": (
        "SymbolicMatrix",
        "expected_minor_monomials",
        "hb_matrix",
        "maximal_minors",
        "verify_hb",
    ),
    "star": (
        "SimplicialComplex",
        "check_lemma_contain",
        "is_matroid",
        "skeleton_complex",
        "skeleton_ideal",
        "stanley_reisner_ideal",
        "symbolic_member",
        "symbolic_power",
        "wk_ideal",
        "wk_step_check",
    ),
    "decomp": (
        "ContainmentReport",
        "criterion",
        "resurgence_scan",
        "rho_exact",
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
