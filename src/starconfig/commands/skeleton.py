"""The `skeleton` command: the skeleton ideal, its h-vector against the generic one, degree and alpha.

At ell = 1 the closed-form h-vector is the paper's generic one, so h_vector_matches_generic restates it.
"""

from .. import config, exponents as ex, shapes, star
from . import ideal_summary


def run(args) -> tuple[dict, int]:
    cfg = config.StarConfig(args.s, args.c)
    # first, so that the closed form's work check refuses a huge skeleton before it is built
    hv = shapes.symbolic_h_vector(cfg, 1, d_cap=args.degree_cap)
    ideal = star.skeleton_ideal(cfg)
    generic = shapes.generic_hvector(args.s, args.c)
    report = {
        "params": {"s": args.s, "c": args.c},
        "caps": {"degree_cap": args.degree_cap},
        "ideal": ideal_summary(ideal),
        "h_vector": list(hv.entries),
        "generic_h_vector": list(generic.entries),
        "h_vector_matches_generic": hv.entries == generic.entries,
        "degree": hv.total(),
        "alpha": ex.alpha(ideal),
    }
    return report, 0 if report["h_vector_matches_generic"] else 1
