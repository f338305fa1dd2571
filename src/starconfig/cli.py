"""Command-line surface: structured reports, their rendering, and dispatch.

Every command builds a plain-dict report and renders it as text, json, or csv
(csv for grid scans only).  Reports are byte-deterministic: identical inputs
produce identical output regardless of the --jobs hint, which is validated
but deliberately not echoed.

Exit codes: 0 computed/verified, 1 theorem check failed (witness printed),
2 usage error, 3 resource cap exceeded.

Environment variables override default caps: STARCONFIG_ENUM_CAP (symbolic
power enumeration), STARCONFIG_DEGREE_CAP (h-vector degree, no default),
STARCONFIG_POWER_CAP (ordinary-power exponent cap in containment commands).

The parser holds only the subcommand named on the command line, and each
command's report builder lives in its own module of starconfig.commands,
imported when it runs, so a process compiles and builds only what its
command needs.
"""

from __future__ import annotations

import argparse
import importlib
import io
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
        import json

        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


_DEGREE_CAP = ("--degree-cap", "STARCONFIG_DEGREE_CAP")
_POWER_CAP = ("--power-cap", "STARCONFIG_POWER_CAP")

# command -> (help, the required integer flags after --s, further flags), in --help order.  A
# further flag is (name, add_argument keywords), or (name, variable) for a positive-int cap whose
# default the environment variable gives.  starconfig.commands.<command>.run builds the report.
COMMANDS = {
    "skeleton": ("skeleton ideal: generators, h-vector, degree, alpha", ("c",), (_DEGREE_CAP,)),
    "symbolic": ("symbolic power: generators, alpha/omega vs closed forms", ("c", "ell"), (
        ("--enum-cap", "STARCONFIG_ENUM_CAP"),
        ("--max-listed", {"type": int, "default": 64, "help": "list generators only up to this count"}))),
    "hvector": ("h-vector of the skeleton (--ell 1) or a symbolic power", ("c",), (
        ("--ell", {"type": int, "default": 1}), _DEGREE_CAP)),
    "betti": ("resolution shape of the symbolic square plus the Euler check", ("c",), ()),
    "hb": ("determinantal matrix, its maximal minors, and the minor-ideal check", ("m",), ()),
    # no default: None means decomp's default caps, read when the command runs, not at parsing
    "decomp": ("power decomposition and saturation identity", ("c", "ell"), (
        ("--s-cap", {"type": _positive_int}), ("--l-cap", {"type": _positive_int}))),
    "containment": ("single symbolic-vs-ordinary power containment", ("c", "m", "r"), (_POWER_CAP,)),
    "scan": ("containment grid with the empirical resurgence supremum", ("c", "mmax", "rmax"), (_POWER_CAP,)),
    "matroid": ("matroid property of the skeleton complex and the Stanley-Reisner check", ("c",), ()),
    "wk": ("basic-double-link chain checks between symbolic powers (codimension 2)", ("ell",), (
        ("--k", {"type": int, "default": None, "help": "single step; default checks every step"}),)),
    "export": ("emit a Macaulay2 or Singular script for the general-forms check", ("c", "ell"), (
        ("--target", {"choices": ("m2-syntax", "singular-syntax"), "required": True}),
        ("--forms", {"help": "semicolon-separated linear forms, each a comma-separated coefficient list; "
                     "defaults to the s coordinate hyperplanes"}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command alone.

    The one-command parser names every command in its usage line, so its
    --help and error output are those of the full parser; it reads only that
    command's cap environment variables.
    """
    parser = argparse.ArgumentParser(
        prog="starconfig",
        description="Exact computations for star configurations in the monomial model.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", help="write the report to this path instead of stdout")
    common.add_argument("--jobs", type=int, default=1, help="parallelism hint; does not affect output")
    names = COMMANDS if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help, required, options = COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help)
        p.add_argument("--s", type=int, required=True, help="number of hyperplanes/variables")
        for flag in required:
            p.add_argument(f"--{flag}", type=int, required=True)
        for flag, kwargs in options:
            if isinstance(kwargs, str):  # a cap flag and its environment variable
                kwargs = {"type": _positive_int, "default": _env_cap(kwargs)}
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    try:
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        command = importlib.import_module(f".commands.{args.command}", __package__)
        report, code = command.run(args)
        if code == 1:
            report["failure_reason"] = "a verified identity did not hold; see the report fields"
        text = render(report, args.format)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write the report: {exc}") from None
        else:
            sys.stdout.write(text)
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
    return code


def _emit_error(args, kind: str, message: str) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        import json

        payload = {"error": {"kind": kind, "reason": message}}
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")


if __name__ == "__main__":
    raise SystemExit(main())
