"""The `betti` command: the resolution shape of the symbolic square and its Euler check."""

from .. import config, shapes


def run(args) -> tuple[dict, int]:
    # first, so that the closed form's work check refuses a huge (s, c) before the shape is listed
    numerator = shapes.symbolic_numerator(config.StarConfig(args.s, args.c), 2)
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
