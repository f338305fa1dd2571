"""The `hvector` command: the h-vector of a skeleton symbolic power, and for ell = 2 its closed form."""

from .. import config, hilbert


def run(args) -> tuple[dict, int]:
    cfg = config.StarConfig(args.s, args.c)
    hv = hilbert.symbolic_h_vector(cfg, args.ell, d_cap=args.degree_cap)
    report = {
        "command": "hvector",
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"degree_cap": args.degree_cap},
        "h_vector": list(hv.entries),
        "degree": hv.total(),
    }
    if args.ell == 2:
        formula = hilbert.ss_hvector_formula(args.s, args.c)
        report["formula"] = list(formula.entries)
        report["matches_formula"] = hv.entries == formula.entries
        return report, 0 if report["matches_formula"] else 1
    return report, 0
