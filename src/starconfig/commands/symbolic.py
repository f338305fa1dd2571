"""The `symbolic` command: a symbolic power's generators and alpha/omega against their closed forms."""

from .. import config, exponents as ex, star
from . import ideal_summary

MAX_LISTED = 64  # generators are listed only up to this count


def run(args) -> tuple[dict, int]:
    cfg = config.StarConfig(args.s, args.c)
    cap = config.DEFAULT_ENUM_CAP if args.enum_cap is None else args.enum_cap
    ideal = star.symbolic_power(cfg, args.ell, enum_cap=cap)
    a, o = ex.alpha(ideal), ex.omega(ideal)
    a_formula = config.alpha_symbolic_formula(cfg, args.ell)
    o_formula = config.omega_symbolic_formula(cfg, args.ell)
    report = {
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"enum_cap": cap},
        "ideal": ideal_summary(ideal, list_gens=len(ideal.gens) <= MAX_LISTED),
        "alpha": a,
        "omega": o,
        "alpha_formula": a_formula,
        "omega_formula": o_formula,
        "formulas_match": a == a_formula and o == o_formula,
    }
    return report, 0 if report["formulas_match"] else 1
