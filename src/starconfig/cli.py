"""Command-line surface: structured reports, their rendering, and dispatch.

Every command builds a plain-dict report and renders it as text, json, or csv
(csv for grid scans only).  Reports are byte-deterministic: identical inputs
produce identical output regardless of the --jobs hint, which is validated
but deliberately not echoed.

Exit codes: 0 computed/verified, 1 theorem check failed (witness printed),
2 usage error, 3 resource cap exceeded.

Environment variables override default caps: STARCONFIG_ENUM_CAP (symbolic
power enumeration), STARCONFIG_DEGREE_CAP (h-vector degree cap),
STARCONFIG_POWER_CAP (ordinary-power exponent cap in containment commands).

Each command imports the library modules it runs when it runs, and calls
them as module attributes, so a process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from math import gcd

from .errors import ResourceCapError, TheoremViolation, UsageError


def _positive_int(text: str) -> int:
    """A cap value: a positive integer, else a usage error (exit 2).

    The argparse type of every cap flag, and the parser of the cap
    environment variables.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _env_cap(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name} {exc}") from None


def _frac_str(q) -> str | None:
    """A Fraction as "num/den", None as None."""
    return None if q is None else f"{q.numerator}/{q.denominator}"


def _ideal_summary(ideal, list_gens: bool = True) -> dict:
    """Arity, generator count, alpha/omega and optionally the generators of a MonomialIdeal."""
    from . import exponents as ex

    out = {
        "arity": ideal.arity,
        "generator_count": len(ideal.gens),
    }
    if not ideal.is_zero:
        out["alpha"] = ex.alpha(ideal)
        out["omega"] = ex.omega(ideal)
    if list_gens:
        out["generators"] = [ex.monomial_str(g) for g in ideal.gens]
        out["exponents"] = [list(g) for g in ideal.gens]
    return out


# ---------------------------------------------------------------------------
# command implementations: each returns (report_dict, exit_code)


def _cmd_skeleton(args) -> tuple[dict, int]:
    from . import exponents as ex, hilbert, star

    cfg = star.StarConfig(args.s, args.c)
    # first, so that the closed form's work check refuses a huge skeleton before it is built
    hv = hilbert.symbolic_h_vector(cfg, 1, d_cap=args.degree_cap)
    ideal = star.skeleton_ideal(cfg)
    generic = hilbert.generic_hvector(args.s, args.c)
    report = {
        "command": "skeleton",
        "params": {"s": args.s, "c": args.c},
        "caps": {"degree_cap": args.degree_cap},
        "ideal": _ideal_summary(ideal),
        "h_vector": list(hv.entries),
        "generic_h_vector": list(generic.entries),
        "h_vector_matches_generic": hv.entries == generic.entries,
        "degree": hv.total(),
        "alpha": ex.alpha(ideal),
    }
    return report, 0 if report["h_vector_matches_generic"] else 1


def _cmd_symbolic(args) -> tuple[dict, int]:
    from . import exponents as ex, star

    cfg = star.StarConfig(args.s, args.c)
    cap = star.DEFAULT_ENUM_CAP if args.enum_cap is None else args.enum_cap
    ideal = star.symbolic_power(cfg, args.ell, enum_cap=cap)
    a, o = ex.alpha(ideal), ex.omega(ideal)
    a_formula = star.alpha_symbolic_formula(cfg, args.ell)
    o_formula = star.omega_symbolic_formula(cfg, args.ell)
    report = {
        "command": "symbolic",
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"enum_cap": cap},
        "ideal": _ideal_summary(ideal, list_gens=len(ideal.gens) <= args.max_listed),
        "alpha": a,
        "omega": o,
        "alpha_formula": a_formula,
        "omega_formula": o_formula,
        "formulas_match": a == a_formula and o == o_formula,
    }
    return report, 0 if report["formulas_match"] else 1


def _cmd_hvector(args) -> tuple[dict, int]:
    from . import hilbert, star

    cfg = star.StarConfig(args.s, args.c)
    hv = hilbert.symbolic_h_vector(cfg, args.ell, d_cap=args.degree_cap)
    report = {
        "command": "hvector",
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"degree_cap": args.degree_cap},
        "h_vector": list(hv.entries),
        "degree": hv.total(),
    }
    if args.ell == 2:
        formula = hilbert.ss_hvector_formula(args.s, args.c)
        report["formula"] = list(formula.entries)
        report["matches_formula"] = hv.entries == formula.entries
        return report, 0 if report["matches_formula"] else 1
    return report, 0


def _cmd_betti(args) -> tuple[dict, int]:
    from . import hilbert, resolution, star

    shape = resolution.ss_resolution(args.s, args.c)
    numerator = hilbert.symbolic_numerator(star.StarConfig(args.s, args.c), 2)
    euler_ok = resolution.shape_numerator(shape) == numerator
    report = {
        "command": "betti",
        "params": {"s": args.s, "c": args.c},
        "caps": {},
        "modules": [
            {"index": i + 1, "terms": [{"twist": t, "rank": r} for t, r in pairs]}
            for i, pairs in enumerate(shape.modules)
        ],
        "euler_check": euler_ok,
    }
    return report, 0 if euler_ok else 1


def _cmd_hb(args) -> tuple[dict, int]:
    from . import resolution

    matrix = resolution.hb_matrix(args.s, args.m)
    minors = resolution.maximal_minors(matrix)
    verified = resolution.verify_hb(args.s, args.m, minors)
    report = {
        "command": "hb",
        "params": {"s": args.s, "m": args.m},
        "caps": {"det_dimension_cap": resolution.DET_DIMENSION_CAP},
        "matrix_rows": matrix.rows,
        "matrix_cols": matrix.cols,
        "minors": [str(p) for p in minors],
        "minor_ideal_equals_symbolic_power": verified,
    }
    return report, 0 if verified else 1


def _cmd_decomp(args) -> tuple[dict, int]:
    from . import decomp

    s_cap = decomp.DECOMP_S_CAP if args.s_cap is None else args.s_cap
    l_cap = decomp.DECOMP_L_CAP if args.l_cap is None else args.l_cap
    power_ok = decomp.verify_power_decomposition(args.s, args.c, args.ell, s_cap=s_cap, l_cap=l_cap)
    sat_ok = decomp.verify_saturation(args.s, args.c, args.ell, s_cap=s_cap, l_cap=l_cap)
    report = {
        "command": "decomp",
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"s_cap": s_cap, "l_cap": l_cap},
        "power_decomposition": power_ok,
        "saturation_identity": sat_ok,
    }
    return report, 0 if power_ok and sat_ok else 1


def _cmd_containment(args) -> tuple[dict, int]:
    from . import decomp

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


def _cmd_scan(args) -> tuple[dict, int]:
    from . import decomp

    rep = decomp.resurgence_scan(args.s, args.c, args.mmax, args.rmax, r_cap=args.power_cap)
    report = {
        "command": "scan",
        "params": {"s": args.s, "c": args.c, "m_max": args.mmax, "r_max": args.rmax},
        "caps": {"power_cap": args.power_cap},
        "entries": [
            {"m": m, "r": r, "contained": contained} for m, r, contained in rep.entries
        ],
        "empirical_sup": _frac_str(rep.empirical_sup),
        "lower_bound": _frac_str(rep.rho),  # the bound c(s-c+1)/s is the resurgence itself
        "rho_exact": _frac_str(rep.rho),
        "criterion_mismatches": [list(p) for p in rep.criterion_mismatches],
    }
    return report, 0


def _cmd_matroid(args) -> tuple[dict, int]:
    from . import exponents as ex, star

    cfg = star.StarConfig(args.s, args.c)
    complex_ = star.skeleton_complex(cfg)
    matroid_ok = star.is_matroid(complex_)
    sr_ok = ex.equals(star.stanley_reisner_ideal(complex_), star.skeleton_ideal(cfg))
    report = {
        "command": "matroid",
        "params": {"s": args.s, "c": args.c},
        "caps": {"vertex_cap": star.MATROID_VERTEX_CAP},
        "facet_count": len(complex_.facets),
        "is_matroid": matroid_ok,
        "stanley_reisner_matches_skeleton": sr_ok,
    }
    return report, 0 if matroid_ok and sr_ok else 1


def _cmd_wk(args) -> tuple[dict, int]:
    from . import exponents as ex, hilbert, star

    s, ell = args.s, args.ell
    star.check_wk(s, ell)  # before anything is listed, so a huge s is refused
    if args.k is not None and not 0 <= args.k < s:
        raise UsageError(f"need 0 <= k < s, got k={args.k}")
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
        "command": "wk",
        "params": {"s": s, "ell": ell, "k": args.k},
        "caps": {},
        "steps": steps,
        "all_steps_verified": all_ok,
    }
    return report, 0 if all_ok else 1


def _cmd_export(args) -> tuple[dict, int]:
    from . import export

    forms = export.parse_forms(args.forms) if args.forms else export.coordinate_forms(args.s)
    script = export.export_cas(args.s, args.c, args.ell, args.target, forms)
    report = {
        "command": "export",
        "params": {"s": args.s, "c": args.c, "ell": args.ell, "target": args.target},
        "caps": {},
        "script": script,
    }
    return report, 0


# ---------------------------------------------------------------------------
# rendering


def _render_text(report: dict) -> str:
    if "script" in report:
        return report["script"]
    buf = io.StringIO()

    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            if not value:
                return
            buf.write(f"{pad}{key}:\n")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            buf.write(f"{pad}{key}:\n")
            for item in value:
                flat = "  ".join(f"{k}={_scalar(v)}" for k, v in item.items())
                buf.write(f"{pad}  {flat}\n")
        else:
            buf.write(f"{pad}{key}: {_scalar(value)}\n")

    for key, value in report.items():
        emit(key, value)
    return buf.getvalue()


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return "(" + ", ".join(f"{k}={_scalar(v)}" for k, v in value.items()) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def _render_csv(report: dict) -> str:
    if report.get("command") != "scan":
        raise UsageError("csv output is only defined for the scan command")
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "r", "contained", "ratio_num", "ratio_den"])
    for entry in report["entries"]:
        m, r = entry["m"], entry["r"]
        g = gcd(m, r)  # m/r in lowest terms
        writer.writerow([m, r, str(entry["contained"]).lower(), m // g, r // g])
    return buf.getvalue()


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starconfig",
        description="Exact computations for star configurations in the monomial model.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", help="write the report to this path instead of stdout")
    common.add_argument("--jobs", type=int, default=1, help="parallelism hint; does not affect output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, *required):
        """A subcommand taking --s and then the named required integer flags."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.add_argument("--s", type=int, required=True, help="number of hyperplanes/variables")
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    p = add("skeleton", "skeleton ideal: generators, h-vector, degree, alpha", "c")
    p.add_argument("--degree-cap", type=_positive_int, default=_env_cap("STARCONFIG_DEGREE_CAP"))

    p = add("symbolic", "symbolic power: generators, alpha/omega vs closed forms", "c", "ell")
    p.add_argument("--enum-cap", type=_positive_int, default=_env_cap("STARCONFIG_ENUM_CAP"))
    p.add_argument("--max-listed", type=int, default=64, help="list generators only up to this count")

    p = add("hvector", "h-vector of the skeleton (--ell 1) or a symbolic power", "c")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--degree-cap", type=_positive_int, default=_env_cap("STARCONFIG_DEGREE_CAP"))

    add("betti", "resolution shape of the symbolic square plus the Euler check", "c")
    add("hb", "determinantal matrix, its maximal minors, and the minor-ideal check", "m")

    p = add("decomp", "power decomposition and saturation identity", "c", "ell")
    # None means decomp's default caps, read in _cmd_decomp so that parsing imports no library module
    p.add_argument("--s-cap", type=_positive_int)
    p.add_argument("--l-cap", type=_positive_int)

    p = add("containment", "single symbolic-vs-ordinary power containment", "c", "m", "r")
    p.add_argument("--power-cap", type=_positive_int, default=_env_cap("STARCONFIG_POWER_CAP"))

    p = add("scan", "containment grid with the empirical resurgence supremum", "c", "mmax", "rmax")
    p.add_argument("--power-cap", type=_positive_int, default=_env_cap("STARCONFIG_POWER_CAP"))

    add("matroid", "matroid property of the skeleton complex and the Stanley-Reisner check", "c")

    p = add("wk", "basic-double-link chain checks between symbolic powers (codimension 2)", "ell")
    p.add_argument("--k", type=int, default=None, help="single step; default checks every step")

    p = add("export", "emit a Macaulay2 or Singular script for the general-forms check", "c", "ell")
    p.add_argument("--target", choices=("m2-syntax", "singular-syntax"), required=True)
    p.add_argument(
        "--forms",
        help="semicolon-separated linear forms, each a comma-separated coefficient list; "
        "defaults to the s coordinate hyperplanes",
    )

    return parser


_COMMANDS = {
    "skeleton": _cmd_skeleton,
    "symbolic": _cmd_symbolic,
    "hvector": _cmd_hvector,
    "betti": _cmd_betti,
    "hb": _cmd_hb,
    "decomp": _cmd_decomp,
    "containment": _cmd_containment,
    "scan": _cmd_scan,
    "matroid": _cmd_matroid,
    "wk": _cmd_wk,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        report, code = _COMMANDS[args.command](args)
        if code == 1:
            report["failure_reason"] = "a verified identity did not hold; see the report fields"
        text = render(report, args.format)
    except UsageError as exc:
        _emit_error(args, "usage", str(exc))
        return 2
    except ResourceCapError as exc:
        _emit_error(args, "resource-cap", str(exc))
        return 3
    except (MemoryError, RecursionError) as exc:
        # an exhausted resource that no cap foresaw; exit 1 would claim a failed identity
        _emit_error(args, "resource-cap", f"{type(exc).__name__}: the computation ran out of resources")
        return 3
    except TheoremViolation as exc:
        _emit_error(args, "theorem-violation", str(exc))
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _emit_error(args, kind: str, message: str) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = {"error": {"kind": kind, "reason": message}}
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")


if __name__ == "__main__":
    raise SystemExit(main())
