"""The `hb` command: the determinantal matrix, its maximal minors and the minor-ideal check."""

from .. import config, resolution


def run(args) -> tuple[dict, int]:
    if args.m >= 2:  # else hb_matrix refuses m first, with its own line
        config.check_codim2(args.s)  # verify_hb compares with the codimension-2 skeleton: refused before any matrix
    matrix = resolution.hb_matrix(args.s, args.m)
    minors = resolution.maximal_minors(matrix)
    verified = resolution.verify_hb(args.s, args.m, minors)
    from .. import exponents as ex  # here, so that a refusal compiles no exponents

    report = {
        "params": {"s": args.s, "m": args.m},
        "caps": {"det_dimension_cap": resolution.DET_DIMENSION_CAP},
        "matrix_rows": matrix.rows,
        "matrix_cols": matrix.cols,
        "minors": [("-" if sign < 0 else "") + ex.monomial_str(exp) for sign, exp in minors],
        "minor_ideal_equals_symbolic_power": verified,
    }
    return report, 0 if verified else 1
