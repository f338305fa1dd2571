"""The `betti` command: the resolution shape of the symbolic square and its Euler check."""

from .. import config, shapes


def run(args) -> tuple[dict, int]:
    cfg = config.StarConfig(args.s, args.c)
    shapes.check_ss(args.s, args.c)  # c = 1 is malformed here, however large s is: refused before any work check
    # first, so that the closed form's work check refuses a huge (s, c) before the shape is listed
    numerator = shapes.symbolic_numerator(cfg, 2)
    shape = shapes.ss_resolution(args.s, args.c)
    euler_ok = shapes.shape_numerator(shape) == numerator
    report = {
        "params": {"s": args.s, "c": args.c},
        "caps": {},
        "modules": [
            {"index": i + 1, "terms": [{"twist": t, "rank": r} for t, r in pairs]}
            for i, pairs in enumerate(shape.modules)
        ],
        "euler_check": euler_ok,
    }
    return report, 0 if euler_ok else 1
