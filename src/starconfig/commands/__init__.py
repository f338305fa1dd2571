"""The CLI's report builders, one module per command.

Each module's run(args) takes the parsed arguments and returns (report dict,
exit code); cli puts the command's name first in the report, and imports
only the module of the command it runs.  The library modules are called as
module attributes, so monkeypatches and tracing wrappers on them apply.
"""


def ideal_summary(ideal, list_gens: bool = True) -> dict:
    """Arity, generator count, alpha/omega and optionally the generators of a MonomialIdeal."""
    from .. import exponents as ex

    out = {
        "arity": ideal.arity,
        "generator_count": len(ideal.gens),
    }
    if not ideal.is_zero:
        out["alpha"] = ex.alpha(ideal)
        out["omega"] = ex.omega(ideal)
    if list_gens:
        out["generators"] = [ex.monomial_str(g) for g in ideal.gens]
        out["exponents"] = [list(g) for g in ideal.gens]
    return out
