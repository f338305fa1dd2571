"""The `hb` command: the determinantal matrix, its maximal minors and the minor-ideal check."""

from .. import resolution


def run(args) -> tuple[dict, int]:
    matrix = resolution.hb_matrix(args.s, args.m)
    minors = resolution.maximal_minors(matrix)
    verified = resolution.verify_hb(args.s, args.m, minors)
    report = {
        "params": {"s": args.s, "m": args.m},
        "caps": {"det_dimension_cap": resolution.DET_DIMENSION_CAP},
        "matrix_rows": matrix.rows,
        "matrix_cols": matrix.cols,
        "minors": [str(p) for p in minors],
        "minor_ideal_equals_symbolic_power": verified,
    }
    return report, 0 if verified else 1
