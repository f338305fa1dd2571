"""The benchmark's workloads: fixed lists of CLI invocations and their output checks.

Every answer is exact, so every case carries a check of its output.  A check
takes (exit code, stdout bytes, stderr text) and returns None when the output
is right, or a one-line reason when it is not.

Workloads, and why each was chosen:

* containment-grid: symbolic-in-ordinary-power containment.  Builds I^r with
  power/multiply and then calls contains, the mechanism that polymatroid
  membership would replace.  Never reaches the Hilbert numerator recursion.
* hilbert-series: h-vectors, Betti shapes and a skeleton.  Drives the pivot
  recursion for the Hilbert numerator and symbolic-power enumeration, and
  never calls contains.  Carries one known runaway (see RUNAWAY_DEADLINE_S).
* verify-suite: many short processes.  The golden invocations, the identity
  verifiers (decomp, hb, wk, matroid, symbolic) and four refusals.  Uses
  exponents through intersect, colon and saturate, and is dominated by
  interpreter start plus import.
"""

from __future__ import annotations

import importlib.util
import json
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_CASES_FILE = ROOT / "tests" / "cli_cases.py"

# Wall-clock limit for one invocation; a case that reaches it is killed.
DEFAULT_DEADLINE_S = 60.0

Check = Callable[[int, bytes, str], "str | None"]


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    check: Check
    deadline_s: float = DEFAULT_DEADLINE_S
    # A known runaway: it runs in every pass under its deadline and its wall
    # time counts in pass_s, but a deadline miss is reported by name as the
    # known defect instead of as a failed operation.  Any other wrong outcome
    # (bad output, wrong exit code) still fails.
    runaway: bool = False


def _exit_zero(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def _text_fields(out: bytes) -> dict[str, str]:
    """Top-level `key: value` lines of a text report."""
    fields = {}
    for line in out.decode().splitlines():
        if line and not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def expect_text(**expected: str) -> Check:
    """Exit 0 and each named top-level field of the text report has the given value."""

    def check(code: int, out: bytes, err: str) -> str | None:
        bad = _exit_zero(code)
        if bad:
            return bad
        fields = _text_fields(out)
        for key, value in expected.items():
            if fields.get(key) != value:
                return f"{key} is {fields.get(key)!r}, expected {value!r}"
        return None

    return check


def expect_json(**expected) -> Check:
    """Exit 0 and each named key of the JSON report has the given value."""

    def check(code: int, out: bytes, err: str) -> str | None:
        bad = _exit_zero(code)
        if bad:
            return bad
        try:
            report = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        for key, value in expected.items():
            if report.get(key) != value:
                return f"{key} is {report.get(key)!r}, expected {value!r}"
        return None

    return check


def expect_refusal(code_expected: int, kind: str) -> Check:
    """Exit with the given code and an `error (<kind>)` line on stderr, nothing on stdout."""

    def check(code: int, out: bytes, err: str) -> str | None:
        if code != code_expected:
            return f"exit code {code}, expected {code_expected}"
        if out:
            return "a refusal printed a report on stdout"
        if not re.match(rf"error \({re.escape(kind)}\): ", err):
            return f"stderr does not start with 'error ({kind}): '"
        return None

    return check


def expect_bytes(path: Path) -> Check:
    """Exit 0 and stdout equal, byte for byte, to a golden file."""

    def check(code: int, out: bytes, err: str) -> str | None:
        bad = _exit_zero(code)
        if bad:
            return bad
        if out != path.read_bytes():
            return f"stdout differs from golden file {path.name}"
        return None

    return check


def expect_degree(s: int, c: int, ell: int) -> Check:
    """An hvector text report whose degree is C(s,c) * C(ell+c-1, c)."""
    return expect_text(degree=str(comb(s, c) * comb(ell + c - 1, c)))


def cli(command: str, check: Check, **options) -> Case:
    """A case named by its command line, e.g. `hvector --s 8 --c 4 --ell 6`."""
    return Case(command, tuple(command.split()), check, **options)


def golden_cases() -> list[Case]:
    """The golden invocations of the test suite, compared with tests/golden byte for byte."""
    spec = importlib.util.spec_from_file_location("_bench_cli_cases", GOLDEN_CASES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        Case(f"golden:{name}", tuple(argv), expect_bytes(GOLDEN_DIR / name))
        for name, argv in sorted(module.GOLDEN_COMMANDS.items())
    ]


# betti --s 14 --c 7 runs past any reasonable wait (no cap fires).  Killed at
# 5 s, it is the Hilbert-series done-when number: a fix shows as a pass_s gain
# on hilbert-series, and its outcome then has to be a checked answer or an
# exit-3 refusal.
RUNAWAY_DEADLINE_S = 5.0


def _betti_14_7(code: int, out: bytes, err: str) -> str | None:
    if code == 3:
        return expect_refusal(3, "resource-cap")(code, out, err)
    return expect_text(euler_check="true")(code, out, err)


def containment_grid() -> list[Case]:
    return [
        cli("scan --s 5 --c 3 --mmax 20 --rmax 8 --power-cap 8 --format json",
            expect_json(criterion_mismatches=[[3, 2], [12, 7]], empirical_sup="12/7",
                        rho_exact="9/5")),
        cli("scan --s 6 --c 4 --mmax 12 --rmax 4 --power-cap 4 --format json",
            expect_json(criterion_mismatches=[[3, 2], [7, 4]], empirical_sup="7/4",
                        rho_exact="2/1")),
        # Not contained: x^(3,4,4,4,4) has its two smallest exponents summing
        # to 7, yet sum(min(a_i, 5)) = 19 < 5 * (5 - 2 + 1), so it is not in I^5.
        cli("containment --s 5 --c 2 --m 7 --r 5", expect_text(contained="false")),
    ]


def hilbert_series() -> list[Case]:
    return [
        cli("hvector --s 8 --c 4 --ell 6", expect_degree(8, 4, 6)),
        cli("hvector --s 7 --c 3 --ell 5", expect_degree(7, 3, 5)),
        cli("betti --s 10 --c 5", expect_text(euler_check="true")),
        cli("skeleton --s 9 --c 4 --format json",
            expect_json(degree=comb(9, 4), h_vector_matches_generic=True)),
        cli("betti --s 14 --c 7", _betti_14_7, deadline_s=RUNAWAY_DEADLINE_S, runaway=True),
    ]


def verify_suite() -> list[Case]:
    return golden_cases() + [
        cli("decomp --s 5 --c 3 --ell 3",
            expect_text(power_decomposition="true", saturation_identity="true")),
        cli("decomp --s 5 --c 2 --ell 3",
            expect_text(power_decomposition="true", saturation_identity="true")),
        cli("hb --s 4 --m 7", expect_text(minor_ideal_equals_symbolic_power="true")),
        cli("hb --s 5 --m 6", expect_text(minor_ideal_equals_symbolic_power="true")),
        cli("wk --s 5 --ell 1", expect_text(all_steps_verified="true")),
        cli("wk --s 4 --ell 3", expect_text(all_steps_verified="true")),
        cli("matroid --s 10 --c 5",
            expect_text(is_matroid="true", stanley_reisner_matches_skeleton="true")),
        cli("symbolic --s 6 --c 3 --ell 6", expect_text(formulas_match="true")),
        # refusals: a usage error exits 2, a resource cap exits 3
        cli("hb --s 2 --m 1", expect_refusal(2, "usage")),
        cli("scan --s 5 --c 3 --mmax 20 --rmax 8", expect_refusal(3, "resource-cap")),
        cli("decomp --s 6 --c 2 --ell 2", expect_refusal(3, "resource-cap")),
        cli("hb --s 5 --m 8", expect_refusal(3, "resource-cap")),
    ]


WORKLOADS: dict[str, Callable[[], list[Case]]] = {
    "containment-grid": containment_grid,
    "hilbert-series": hilbert_series,
    "verify-suite": verify_suite,
}
