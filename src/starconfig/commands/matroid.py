"""The `matroid` command: the matroid property of the skeleton complex and the Stanley-Reisner check."""

from .. import config, exponents as ex, star


def run(args) -> tuple[dict, int]:
    cfg = config.StarConfig(args.s, args.c)
    complex_ = star.skeleton_complex(cfg)
    matroid_ok = star.is_matroid(complex_)
    sr_ok = ex.equals(star.stanley_reisner_ideal(complex_), star.skeleton_ideal(cfg))
    report = {
        "params": {"s": args.s, "c": args.c},
        "caps": {"vertex_cap": star.MATROID_VERTEX_CAP},
        "facet_count": len(complex_.facets),
        "is_matroid": matroid_ok,
        "stanley_reisner_matches_skeleton": sr_ok,
    }
    return report, 0 if matroid_ok and sr_ok else 1
