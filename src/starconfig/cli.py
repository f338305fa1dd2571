"""Command-line surface: structured reports and computer-algebra script export.

Every command builds a plain-dict report and renders it as text, json, or csv
(csv for grid scans only).  Reports are byte-deterministic: identical inputs
produce identical output regardless of the --jobs hint, which is validated
but deliberately not echoed.

Exit codes: 0 computed/verified, 1 theorem check failed (witness printed),
2 usage error, 3 resource cap exceeded.

Environment variables override default caps: STARCONFIG_ENUM_CAP (symbolic
power enumeration), STARCONFIG_DEGREE_CAP (h-vector degree cap),
STARCONFIG_POWER_CAP (ordinary-power exponent cap in containment commands).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

from . import decomp, exponents as ex, hilbert, resolution, star
from .errors import ResourceCapError, TheoremViolation, UsageError

monomial_str = ex.monomial_str


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


def _frac_str(q: Fraction | None) -> str | None:
    return None if q is None else f"{q.numerator}/{q.denominator}"


def _ideal_summary(ideal: ex.MonomialIdeal, list_gens: bool = True) -> dict:
    out = {
        "arity": ideal.arity,
        "generator_count": len(ideal.gens),
    }
    if not ideal.is_zero:
        out["alpha"] = ex.alpha(ideal)
        out["omega"] = ex.omega(ideal)
    if list_gens:
        out["generators"] = [monomial_str(g) for g in ideal.gens]
        out["exponents"] = [list(g) for g in ideal.gens]
    return out


# ---------------------------------------------------------------------------
# command implementations: each returns (report_dict, exit_code)


def _cmd_skeleton(args) -> tuple[dict, int]:
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
    power_ok = decomp.verify_power_decomposition(
        args.s, args.c, args.ell, s_cap=args.s_cap, l_cap=args.l_cap
    )
    sat_ok = decomp.verify_saturation(args.s, args.c, args.ell, s_cap=args.s_cap, l_cap=args.l_cap)
    report = {
        "command": "decomp",
        "params": {"s": args.s, "c": args.c, "ell": args.ell},
        "caps": {"s_cap": args.s_cap, "l_cap": args.l_cap},
        "power_decomposition": power_ok,
        "saturation_identity": sat_ok,
    }
    return report, 0 if power_ok and sat_ok else 1


def _cmd_containment(args) -> tuple[dict, int]:
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
    rep = decomp.resurgence_scan(args.s, args.c, args.mmax, args.rmax, r_cap=args.power_cap)
    report = {
        "command": "scan",
        "params": {"s": args.s, "c": args.c, "m_max": args.mmax, "r_max": args.rmax},
        "caps": {"power_cap": args.power_cap},
        "entries": [
            {"m": m, "r": r, "contained": contained} for m, r, contained in rep.entries
        ],
        "empirical_sup": _frac_str(rep.empirical_sup),
        "lower_bound": _frac_str(rep.lower_bound),
        "rho_exact": _frac_str(rep.rho),
        "criterion_mismatches": [list(p) for p in rep.criterion_mismatches],
    }
    return report, 0


def _cmd_matroid(args) -> tuple[dict, int]:
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
    if args.forms:
        forms = parse_forms(args.forms)
    else:
        # monomial model: the s coordinate hyperplanes of P^{s-1}
        forms = [tuple(Fraction(1 if j == i else 0) for j in range(args.s)) for i in range(args.s)]
    script = export_cas(args.s, args.c, args.ell, args.target, forms)
    report = {
        "command": "export",
        "params": {"s": args.s, "c": args.c, "ell": args.ell, "target": args.target},
        "caps": {},
        "script": script,
    }
    return report, 0


# ---------------------------------------------------------------------------
# CAS export


def parse_forms(text: str) -> list[tuple[Fraction, ...]]:
    """Parse ``a,b,c;d,e,f;...`` into coefficient tuples (exact rationals)."""
    forms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError("empty linear form in --forms")
        try:
            coeffs = tuple(Fraction(p.strip()) for p in chunk.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed coefficient in {chunk!r}: {exc}") from None
        forms.append(coeffs)
    widths = {len(f) for f in forms}
    if len(widths) != 1:
        raise UsageError(f"linear forms have inconsistent lengths {sorted(widths)}")
    if all(all(x == 0 for x in f) for f in forms):
        raise UsageError("all forms are zero")
    return forms


def _pairwise_dependent(forms: list[tuple[Fraction, ...]]) -> list[tuple[int, int]]:
    # a pair is dependent iff its 2 x (n+1) matrix has rank < 2: all its 2x2 minors vanish
    return [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(forms), 2)
        if all(a[p] * b[q] == a[q] * b[p] for p, q in combinations(range(len(a)), 2))
    ]


def _coeff_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _form_str(coeffs: tuple[Fraction, ...]) -> str:
    parts = []
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        if a == 1:
            parts.append(f"x{i}")
        else:
            parts.append(f"({_coeff_str(a)})*x{i}")
    return " + ".join(parts) if parts else "0"


def export_cas(
    s: int, c: int, ell: int, target: str, forms: list[tuple[Fraction, ...]]
) -> str:
    """Emit a script for an external computer-algebra system.

    The script builds the codimension-c configuration ideal of the given
    hyperplanes over the rationals, its ell-th power, and the conjectured
    intersection of symbolic powers, and prints whether they are equal.
    The number of variables is the length of the coefficient tuples; the
    forms must number s > n.
    """
    if target not in ("m2-syntax", "singular-syntax"):
        raise UsageError(f"unknown export target {target!r}")
    if len(forms) != s:
        raise UsageError(f"expected {s} linear forms, got {len(forms)}")
    star.check_ell(ell)
    n = len(forms[0]) - 1
    if n < 1:
        raise UsageError("forms must have at least 2 coefficients")
    if s <= n:
        raise UsageError(f"the configuration needs s > n, got s={s}, n={n}")
    star.StarConfig(s, c)  # range validation for c
    if c > n:
        raise UsageError(f"codimension c={c} exceeds the ambient dimension n={n}")
    listed = sum(comb(s, k) for k in range(c, n + 1))
    if listed > star.DEFAULT_ENUM_CAP:
        raise ResourceCapError(f"the script lists {listed} subsets of forms, cap is {star.DEFAULT_ENUM_CAP}")
    m_exp = (s - c + 1) * ell
    m2 = target == "m2-syntax"
    comment = "--" if m2 else "//"
    variables = [f"x{i}" for i in range(n + 1)]
    lines = [
        f"{comment} codimension {c} configuration of {s} hyperplanes in P^{n}",
        f"{comment} checks the power decomposition for l = {ell}",
        *(
            f"{comment} WARNING: forms {i} and {j} are proportional; the arrangement does not meet properly"
            for i, j in _pairwise_dependent(forms)
        ),
        f"R = QQ[{','.join(variables)}];" if m2 else f"ring R = 0, ({','.join(variables)}), dp;",
        *(f"{'' if m2 else 'poly '}L{i} = {_form_str(f)};" for i, f in enumerate(forms)),
    ]
    terms = ", ".join(f"T{j}" for j in range(n - c + 1))

    def subsets(size):
        return [", ".join(f"L{i}" for i in sub) for sub in combinations(range(s), size)]

    if m2:
        lines.append(f"Ipow = (intersect({', '.join(f'ideal({g})' for g in subsets(c))}))^{ell};")
        for j in range(n - c + 1):
            powers = ", ".join(f"(ideal({g}))^{(j + 1) * ell}" for g in subsets(c + j))
            lines.append(f"T{j} = intersect({powers});")
        lines += [
            f"Mpow = (ideal({', '.join(variables)}))^{m_exp};",
            f"RHS = intersect({terms}, Mpow);",
            "print(Ipow == RHS);",
        ]
    else:
        components = subsets(c)
        lines += [f"ideal C{k} = {g};" for k, g in enumerate(components)]
        lines.append(f"ideal I = intersect({', '.join(f'C{k}' for k in range(len(components)))});")
        lines.append(f"ideal Ipow = I^{ell};")
        for j in range(n - c + 1):
            primes = subsets(c + j)
            lines += [f"ideal P{j}_{k} = {g};" for k, g in enumerate(primes)]
            powers = ", ".join(f"P{j}_{k}^{(j + 1) * ell}" for k in range(len(primes)))
            lines.append(f"ideal T{j} = intersect({powers});")
        lines += [
            f"ideal M = {', '.join(variables)};",
            f"ideal RHS = intersect({terms}, M^{m_exp});",
            "ideal sIpow = std(Ipow);",
            "ideal sRHS = std(RHS);",
            "int equal = (size(reduce(Ipow, sRHS)) == 0) && (size(reduce(RHS, sIpow)) == 0);",
            'printf("%s", equal);',
            "exit;",
        ]
    return "\n".join(lines) + "\n"


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "r", "contained", "ratio_num", "ratio_den"])
    for entry in report["entries"]:
        ratio = Fraction(entry["m"], entry["r"])
        writer.writerow(
            [entry["m"], entry["r"], str(entry["contained"]).lower(), ratio.numerator, ratio.denominator]
        )
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
    p.add_argument("--s-cap", type=_positive_int, default=decomp.DECOMP_S_CAP)
    p.add_argument("--l-cap", type=_positive_int, default=decomp.DECOMP_L_CAP)

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
