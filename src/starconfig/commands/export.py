"""The `export` command: a Macaulay2 or Singular script for the general-forms check."""

from .. import export


def run(args) -> tuple[dict, int]:
    forms = export.parse_forms(args.forms) if args.forms is not None else None  # None: the coordinate hyperplanes
    script = export.export_cas(args.s, args.c, args.ell, args.target, forms)
    report = {
        "params": {"s": args.s, "c": args.c, "ell": args.ell, "target": args.target},
        "caps": {},
        "script": script,
    }
    return report, 0
