"""The `scan` command: the containment grid with its empirical supremum and the resurgence, and its csv rows."""

from math import gcd

from .. import decomp


def _frac_str(q: tuple[int, int] | None) -> str | None:
    """A (numerator, denominator) pair as "num/den", None as None."""
    return None if q is None else f"{q[0]}/{q[1]}"


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


def render_csv(report: dict) -> str:
    """The report's grid; its fields are ints and true/false, which csv never quotes."""
    rows = ["m,r,contained,ratio_num,ratio_den\n"]
    for entry in report["entries"]:
        m, r = entry["m"], entry["r"]
        g = gcd(m, r)  # m/r in lowest terms
        rows.append(f"{m},{r},{'true' if entry['contained'] else 'false'},{m // g},{r // g}\n")
    return "".join(rows)
