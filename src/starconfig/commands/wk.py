"""The `wk` command: the basic-double-link chain between codimension-2 symbolic powers."""

from .. import exponents as ex, hilbert, star
from ..errors import UsageError


def run(args) -> tuple[dict, int]:
    s, ell = args.s, args.ell
    if args.k is not None and not 0 <= args.k < s:  # a usage error, before check_wk's cap
        raise UsageError(f"need 0 <= k < s, got k={args.k}")
    star.check_wk(s, ell)  # before anything is listed, so a huge s is refused
    ks = range(s) if args.k is None else range(args.k, args.k + 1)
    chain = {j: star.wk_ideal(s, ell, j) for j in range(ks.start, ks.stop + 1)}  # each W_j once
    steps = []
    all_ok = True
    for k in ks:
        current, nxt = chain[k], chain[k + 1]
        step_ok = star.wk_step_check(s, ell, k, current, nxt)
        link = ex.MonomialIdeal(s, (star.wk_link_monomial(s, ell, k),))
        hf_ok = hilbert.bdg_hf_check(link, current, 1, nxt)
        all_ok = all_ok and step_ok and hf_ok
        steps.append(
            {
                "k": k,
                "link_identity_and_degree": step_ok,
                "hilbert_function_identity": hf_ok,
                "degree_before": star.wk_degree(s, ell, k),
                "degree_after": star.wk_degree(s, ell, k + 1),
            }
        )
    report = {
        "params": {"s": s, "ell": ell, "k": args.k},
        "caps": {},
        "steps": steps,
        "all_steps_verified": all_ok,
    }
    return report, 0 if all_ok else 1
