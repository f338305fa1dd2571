"""The `scan` command: the containment grid with its empirical supremum and the resurgence."""

from .. import decomp


def _frac_str(q) -> str | None:
    """A Fraction as "num/den", None as None."""
    return None if q is None else f"{q.numerator}/{q.denominator}"


def run(args) -> tuple[dict, int]:
    rep = decomp.resurgence_scan(args.s, args.c, args.mmax, args.rmax, r_cap=args.power_cap)
    report = {
        "params": {"s": args.s, "c": args.c, "m_max": args.mmax, "r_max": args.rmax},
        "caps": {"power_cap": args.power_cap},
        "entries": [
            {"m": m, "r": r, "contained": contained} for m, r, contained in rep.entries
        ],
        "empirical_sup": _frac_str(rep.empirical_sup),
        "lower_bound": _frac_str(rep.rho),  # the bound c(s-c+1)/s is the resurgence itself
        "rho_exact": _frac_str(rep.rho),
        "criterion_mismatches": [list(p) for p in rep.criterion_mismatches],
    }
    return report, 0
