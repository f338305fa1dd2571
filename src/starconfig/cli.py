"""Command-line surface: structured reports, their rendering, and dispatch.

Every command builds a plain-dict report and renders it as text, json
(json.dumps, imported only for it), or csv (scan only, checked at parsing,
and written by starconfig.commands.scan).  Reports are byte-deterministic:
identical inputs produce identical output regardless of the --jobs hint,
which is validated but deliberately not echoed.

Exit codes: 0 computed/verified (and -h/--help), 1 theorem check failed
(witness printed), 2 usage error, 3 resource cap exceeded.  A report that
cannot be written (an unwritable --output, a closed stdout) is a usage error.
An error line that cannot be written (a closed or broken stderr) is dropped,
and the refusal keeps its exit code.  main returns the code; entry, the
process entry point, ends the process.

parse reads the command line straight from the COMMANDS table: the command
word first, then `--flag value` or `--flag=value`, a flag abbreviated to any
unambiguous prefix, the last of repeated flags winning.  Help is generated
from the same table, which parse passes to starconfig.usage (so `-m` never
runs this module twice), and every parse error is a UsageError, printed as any
other (`error (usage): ...`, or JSON under --format json).  Each command's
report builder lives in its own module of starconfig.commands, imported when
it runs, so a process compiles and builds only what its command needs.
"""

from __future__ import annotations

import importlib
import io
import os
import sys
from types import SimpleNamespace

from .errors import ResourceCapError, TheoremViolation, UsageError


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        if sum(map(str.isdigit, text)) > 4300:  # past Python's int-from-str limit, and too long to echo
            raise UsageError("has more than 4300 digits") from None
        raise UsageError(f"must be an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    """A positive integer, else a usage error (exit 2): the type of every cap flag and of --jobs."""
    value = _int(text)
    if value < 1:
        raise UsageError(f"must be positive, got {value}")
    return value


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


def render(report: dict, fmt: str) -> str:
    """The report as json or text; csv comes from the command's own module."""
    if fmt == "json":
        import json

        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return _render_text(report)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# every cap flag; no default: None means the command's own default cap, or none
_CAP = {"type": _positive_int, "help": "positive cap"}

# command -> (help, the required integer flags after --s, further flags), in --help order.  A
# further flag is (name, keywords: type, default, choices, required, help).
# starconfig.commands.<command>.run builds the report.
COMMANDS = {
    "skeleton": ("skeleton ideal: generators, h-vector, degree, alpha", ("c",), (("--degree-cap", _CAP),)),
    "symbolic": ("symbolic power: generators, alpha/omega vs closed forms", ("c", "ell"), (("--enum-cap", _CAP),)),
    "hvector": ("h-vector of the skeleton (--ell 1) or a symbolic power", ("c",), (
        ("--ell", {"type": int, "default": 1}), ("--degree-cap", _CAP))),
    "betti": ("resolution shape of the symbolic square plus the Euler check", ("c",), ()),
    "hb": ("determinantal matrix, its maximal minors, and the minor-ideal check", ("m",), ()),
    "decomp": ("power decomposition and saturation identity", ("c", "ell"), (("--s-cap", _CAP),)),
    "containment": ("single symbolic-vs-ordinary power containment", ("c", "m", "r"), (("--power-cap", _CAP),)),
    "scan": ("containment grid with the empirical resurgence supremum", ("c", "mmax", "rmax"), (("--power-cap", _CAP),)),
    "matroid": ("matroid property of the skeleton complex and the Stanley-Reisner check", ("c",), ()),
    "wk": ("basic-double-link chain checks between symbolic powers (codimension 2)", ("ell",), (
        ("--k", {"type": int, "default": None, "help": "single step; default checks every step"}),)),
    "export": ("emit a Macaulay2 or Singular script for the general-forms check", ("c", "ell"), (
        ("--target", {"choices": ("m2-syntax", "singular-syntax"), "required": True}),
        ("--forms", {"help": "semicolon-separated linear forms, each a comma-separated coefficient list; "
                     "defaults to the s coordinate hyperplanes"}))),
}


# the flags that every command takes after its own, in the same form
_COMMON = (
    ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    ("--output", {"help": "write the report to this path instead of stdout"}),
    ("--jobs", {"type": _positive_int, "default": 1, "help": "parallelism hint; does not affect output"}),
)


def _flags(command: str) -> dict[str, dict]:
    """The command's flags and their keywords, in --help order."""
    _, required, options = COMMANDS[command]
    flags = {"--s": {"type": int, "required": True, "help": "number of hyperplanes/variables"}}
    flags.update((f"--{name}", {"type": int, "required": True}) for name in required)
    flags.update(options + _COMMON)
    return flags


def parse(argv: list[str], args: SimpleNamespace) -> str | None:
    """Set args from the command line by the COMMANDS table; the help text if -h or --help (or --he) is given.

    Only the named command's flags are built, after the help check.  A token
    after a flag is its value unless it starts with --, so -1 is a value.
    Every problem goes into one UsageError, raised after args.format is set,
    so that it is printed in that format.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if any(token == "-h" or len(token) > 2 and "--help".startswith(token) for token in argv):
        from .usage import usage

        return usage(command, COMMANDS, _flags)
    if command is None:
        raise UsageError(f"the first argument names a command, one of {', '.join(COMMANDS)}")
    flags, given, problems = _flags(command), {}, []
    tokens, i = argv[1:], 0
    while i < len(tokens):
        name, has_value, value = tokens[i].partition("=")
        i += 1
        if not has_value:  # the next token is the value, unless it is a flag
            value = tokens[i] if i < len(tokens) and not tokens[i].startswith("--") else None
            i += value is not None
        # the flag named in full, else every flag that the name abbreviates
        matches = [name] if name in flags else [f for f in flags if len(name) > 2 and f.startswith(name)]
        if len(matches) == 1:
            given[matches[0]] = value  # a repeated flag: the last value wins
        else:
            problems.append(f"{name} could be {' or '.join(matches)}" if matches else f"unexpected argument {name!r}")
    for flag, spec in flags.items():
        text, kind = given.get(flag), spec.get("type", str)
        try:
            if text is None and (flag in given or spec.get("required")):
                raise UsageError("needs a value")
            value = spec.get("default") if text is None else (_int if kind is int else kind)(text)
            if value not in spec.get("choices", (value,)):
                raise UsageError(f"must be one of {', '.join(spec['choices'])}, got {text!r}")
            setattr(args, flag[2:].replace("-", "_"), value)
        except UsageError as exc:
            problems.append(f"{flag} {exc}")
    if args.format == "csv" and command != "scan":
        problems.append("csv output is only defined for the scan command")
    if problems:
        raise UsageError("; ".join(problems))
    args.command = command
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; never ends the process (entry does)."""
    argv = sys.argv[1:] if argv is None else argv
    args = SimpleNamespace(format="text")
    try:
        help_text = parse(argv, args)
        if help_text is not None:
            _write(help_text, None)
            return 0
        command = importlib.import_module(f".commands.{args.command}", __package__)
        report, code = command.run(args)
        report = {"command": args.command, **report}
        if code == 1:
            report["failure_reason"] = "a verified identity did not hold; see the report fields"
        _write(command.render_csv(report) if args.format == "csv" else render(report, args.format), args.output)
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


def entry() -> None:
    """The process entry point, of `python -m starconfig.cli` and of the `starconfig` script; never returns.

    It runs main, flushes stdout and stderr, and ends the process with
    os._exit, which skips the interpreter's teardown: about 10 ms per process
    (Python 3.11, shared 2-CPU x86-64 host), most of it finalizing the
    modules that site's .pth imports loaded.
    Nothing needs that teardown: main has written and flushed the report
    or closed the --output file, and the package starts no thread, registers
    no atexit handler and leaves no temporary file.  A flush that fails
    again after main has reported the failed write is ignored, so that no
    "Exception ignored" noise follows the one error line.
    """
    code = main()
    for name in ("stdout", "stderr"):
        try:
            _send(name, "")  # only the flush
        except OSError:
            pass
    os._exit(code)


def _send(name: str, text: str) -> None:
    """Write text to sys.stdout or sys.stderr (name), flushed; OSError when the stream is closed or broken."""
    stream = getattr(sys, name)
    if stream is None:  # None when the process started with that descriptor closed
        raise OSError(f"{name} is closed")
    stream.write(text)
    stream.flush()


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, else to stdout; a failed write is a usage error (exit 2)."""
    try:
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        else:
            _send("stdout", text)
    except OSError as exc:
        raise UsageError(f"cannot write the report: {exc}") from None


def _emit_error(args: SimpleNamespace, kind: str, message: str) -> None:
    error = {"error": {"kind": kind, "reason": message}}
    text = render(error, "json") if args.format == "json" else f"error ({kind}): {message}\n"
    try:
        _send("stderr", text)
    except OSError:  # a closed or broken stderr: the exit code still tells the refusal
        pass


if __name__ == "__main__":
    entry()
