"""The `decomp` command: the power decomposition and the saturation identity."""

from .. import decomp


def run(args) -> tuple[dict, int]:
    s_cap = decomp.DECOMP_S_CAP if args.s_cap is None else args.s_cap
    l_cap = decomp.DECOMP_L_CAP if args.l_cap is None else args.l_cap
    power_ok = decomp.verify_power_decomposition(args.s, args.c, args.ell, s_cap=s_cap, l_cap=l_cap)
    sat_ok = decomp.verify_saturation(args.s, args.c, args.ell, s_cap=s_cap, l_cap=l_cap)
    report = {
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"s_cap": s_cap, "l_cap": l_cap},
        "power_decomposition": power_ok,
        "saturation_identity": sat_ok,
    }
    return report, 0 if power_ok and sat_ok else 1
