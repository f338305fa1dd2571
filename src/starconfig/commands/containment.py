"""The `containment` command: one symbolic-in-ordinary-power containment, with the criterion for c = N-1."""

from .. import decomp


def run(args) -> tuple[dict, int]:
    contained = decomp.symbolic_in_power(args.s, args.c, args.m, args.r, r_cap=args.power_cap)
    report = {
        "command": "containment",
        "params": {"s": args.s, "c": args.c, "m": args.m, "r": args.r},
        "caps": {"power_cap": args.power_cap},
        "contained": contained,
    }
    n_dim = args.s - 1
    if args.c == n_dim - 1 and n_dim >= 3:
        crit = decomp.criterion(n_dim, args.m, args.r)
        report["criterion_noncontainment"] = crit
        report["criterion_agrees"] = crit != contained
    return report, 0
