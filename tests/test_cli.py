"""CLI dispatch, exit codes, determinism, and golden files."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cli_cases import GOLDEN_COMMANDS
from starconfig import cli, decomp, export, resolution, shapes, star

GOLDEN = Path(__file__).parent / "golden"
HUGE = str(10**3000)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_skeleton_json_round_trip(capsys):
    code, out, _ = run(capsys, ["skeleton", "--s", "7", "--c", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["h_vector"] == [1, 3, 6, 10, 15]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out


def test_symbolic_command(capsys):
    code, out, _ = run(capsys, ["symbolic", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == 4 and report["omega"] == 6
    assert report["formulas_match"]


def test_hvector_command(capsys):
    code, out, _ = run(capsys, ["hvector", "--s", "7", "--c", "3", "--ell", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["h_vector"] == [1, 3, 6, 10, 15, 21, 21, 21, 21, 21]
    assert report["matches_formula"]


def test_betti_command(capsys):
    code, out, _ = run(capsys, ["betti", "--s", "7", "--c", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    twists = {
        (term["twist"], term["rank"])
        for module in report["modules"]
        for term in module["terms"]
    }
    assert twists == {(-6, 7), (-10, 21), (-7, 6), (-11, 42), (-12, 21)}
    assert report["euler_check"]


def test_hb_command(capsys):
    code, out, _ = run(capsys, ["hb", "--s", "4", "--m", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["matrix_rows"] == 5 and report["matrix_cols"] == 4
    assert report["minor_ideal_equals_symbolic_power"]


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_hb_computes_the_minors_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, resolution, "maximal_minors")
    code, _, _ = run(capsys, ["hb", "--s", "4", "--m", "3"])
    assert code == 0 and len(calls) == 1


def test_hb_refuses_s_below_3_before_any_matrix(capsys, monkeypatch):
    # verify_hb compares the minors with the codimension-2 skeleton, which needs s >= 3
    calls = [count_calls(monkeypatch, resolution, name) for name in ("hb_matrix", "maximal_minors")]
    for s, m in [(2, 2), (2, 3), (2, 7), (1, 4)]:
        code, out, err = run(capsys, ["hb", "--s", str(s), "--m", str(m)])
        assert (code, out, err) == (2, "", f"error (usage): codimension-2 configurations need s >= 3, got {s}\n")
    assert calls == [[], []]
    # m is checked first, by hb_matrix before it builds anything, so an m below 2 keeps its line for every s
    for s, m in [(2, 1), (1, 1)]:
        code, out, err = run(capsys, ["hb", "--s", str(s), "--m", str(m)])
        assert (code, out, err) == (2, "", "error (usage): the matrix is defined for m >= 2, got m=1\n")
    assert calls == [[(2, 1), (1, 1)], []]


def test_betti_refuses_c_1_before_the_closed_form(capsys, monkeypatch):
    calls = count_calls(monkeypatch, shapes, "symbolic_numerator")
    for s in (5, 1000000):
        start = time.perf_counter()
        code, out, err = run(capsys, ["betti", "--s", str(s), "--c", "1"])
        assert (code, out, err) == (2, "", f"error (usage): need 2 <= c <= s-1, got c=1, s={s}\n")
        assert time.perf_counter() - start < 0.5
    assert calls == []


def test_betti_refuses_before_listing_the_shape(capsys, monkeypatch):
    calls = count_calls(monkeypatch, shapes, "ss_resolution")
    code, out, err = run(capsys, ["betti", "--s", "3000", "--c", "1500"])
    assert code == 3 and out == "" and "resource-cap" in err
    assert calls == []


def test_export_refuses_before_building_the_forms(capsys, monkeypatch):
    calls = count_calls(monkeypatch, export, "coordinate_forms")
    # (100000, 99999) lists only C(s, s-1) = s subsets, but s^2 coefficients of the default forms
    for s, c in [(3000, 1), (100000, 99999)]:
        start = time.perf_counter()
        code, out, err = run(capsys, ["export", "--s", str(s), "--c", str(c), "--ell", "1", "--target", "m2-syntax"])
        assert code == 3 and out == "" and "resource-cap" in err
        assert time.perf_counter() - start < 1
    assert calls == []


def test_decomp_command(capsys):
    code, out, _ = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["power_decomposition"] and report["saturation_identity"]
    # 406,351 tuples, but with d*ell = 2 the sweep keeps at most 54 prefix states per position
    start = time.monotonic()
    code, out, _ = run(capsys, ["decomp", "--s", "900", "--c", "899", "--ell", "1", "--s-cap", "900", "--format", "json"])
    report = json.loads(out)
    assert code == 0 and report["power_decomposition"] and report["saturation_identity"]
    assert time.monotonic() - start < 5


def test_containment_command(capsys):
    code, out, _ = run(capsys, ["containment", "--s", "4", "--c", "2", "--m", "3", "--r", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["contained"] is True
    assert report["criterion_agrees"] is True


@pytest.mark.parametrize(
    "argv, rho",
    [
        # past the symbolic_shapes entry cap the old shape test stopped at; the alpha rule enumerates nothing
        (["scan", "--s", "12", "--c", "5", "--mmax", "60", "--rmax", "30", "--power-cap", "30"], (10, 3)),
        (["scan", "--s", "6", "--c", "3", "--mmax", "6", "--rmax", "3"], (2, 1)),
    ],
)
def test_scan_reports_rho_for_every_codimension(capsys, argv, rho):
    start = time.monotonic()
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0 and time.monotonic() - start < 5
    report = json.loads(out)
    assert report["rho_exact"] == report["lower_bound"] == f"{rho[0]}/{rho[1]}"
    num, den = map(int, report["empirical_sup"].split("/"))
    assert num * rho[1] < rho[0] * den  # the supremum is not attained


def test_matroid_command(capsys):
    code, out, _ = run(capsys, ["matroid", "--s", "6", "--c", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["is_matroid"] and report["stanley_reisner_matches_skeleton"]


def test_matroid_builds_the_faces_once(capsys, monkeypatch):
    faces = star._face_masks
    faces.cache_clear()
    calls = count_calls(monkeypatch, star, "_face_masks")
    code, out, _ = run(capsys, ["matroid", "--s", "6", "--c", "3"])
    assert code == 0 and "stanley_reisner_matches_skeleton: true" in out
    # both checks read the face set; the cache under the counted name builds it once
    assert len(calls) == 2 and faces.cache_info().misses == 1


def test_wk_command(capsys):
    code, out, _ = run(capsys, ["wk", "--s", "4", "--ell", "1", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["all_steps_verified"]
    assert len(report["steps"]) == 4


@pytest.mark.parametrize("k", [None, 0, 2, 4])
def test_wk_builds_each_ideal_once(capsys, monkeypatch, k):
    calls = count_calls(monkeypatch, star, "wk_ideal")
    code, out, _ = run(capsys, ["wk", "--s", "5", "--ell", "1"] + ([] if k is None else ["--k", str(k)]))
    assert code == 0 and "all_steps_verified: true" in out
    assert sorted(call[2] for call in calls) == (list(range(6)) if k is None else [k, k + 1])


def test_wk_checks_each_degree_against_the_built_ideal(capsys, monkeypatch):
    # a constant shift keeps the closed form's degree step true, so only the built W_k's h-vector catches it
    closed_form = star.wk_degree
    monkeypatch.setattr(star, "wk_degree", lambda s, ell, k: closed_form(s, ell, k) + 1)
    code, out, _ = run(capsys, ["wk", "--s", "5", "--ell", "1"])
    assert code == 1 and "all_steps_verified: false\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--s", "0"],
        ["--s", "-3"],
        ["--s", "5", "--k", "5"],
        ["--s", "5", "--k", "-1"],
        # k is checked before the (ell+3)^s cap, which both of these s pass
        ["--s", "30", "--k", "30"],
        ["--s", "50", "--k", "-1"],
    ],
)
def test_wk_bad_parameters_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, ["wk", "--ell", "1"] + argv)
    assert code == 2 and out == ""


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["skeleton", "--s", "4", "--c", "4"])
    assert code == 2
    assert "usage" in err


def test_unknown_flag_exit_code(capsys):
    code, _, _ = run(capsys, ["skeleton", "--s", "4", "--c", "2", "--bogus"])
    assert code == 2


def test_betti_14_7_is_checked(capsys):
    code, out, _ = run(capsys, ["betti", "--s", "14", "--c", "7"])
    assert code == 0
    assert "euler_check: true\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["hvector", "--s", "400", "--c", "200", "--ell", "400"],
        # few coefficients, but each about 3000 bits long
        ["hvector", "--s", "3000", "--c", "1500"],
        ["hvector", "--s", str(10**400), "--c", "2"],
        ["hvector", "--s", "4", "--c", "2", "--ell", str(10**400)],
        ["skeleton", "--s", str(10**400), "--c", "2"],
        # few shapes, but about 2.4e11 arrangements to list
        ["symbolic", "--s", "40", "--c", "20", "--ell", "2"],
        # about 9.7 million skeleton generators
        ["skeleton", "--s", "26", "--c", "13"],
        # few generators by count, but each of 3000 or 2000 entries
        ["skeleton", "--s", "3000", "--c", "3"],
        ["skeleton", "--s", "2000", "--c", "1999"],
        # about 6.1e8 subsets of forms in the script
        ["export", "--s", "30", "--c", "15", "--ell", "1", "--target", "m2-syntax"],
        # 36 million coefficients of the default forms: the count stops there, before any binomial
        ["export", "--s", "6000", "--c", "1", "--ell", "1", "--target", "m2-syntax"],
        ["export", "--s", str(10**400), "--c", "1", "--ell", "1", "--target", "m2-syntax"],
        # past the vertex cap, refused before the 10.4 million or C(100000, 2) facets are listed
        ["matroid", "--s", "26", "--c", "13"],
        ["matroid", "--s", "100000", "--c", "2"],
        # (ell+3)^s is evaluated with at most 64 factors, and no list of s steps is built
        ["wk", "--s", str(10**400), "--ell", "1"],
        # the closed-form numerator's work check runs before the resolution shape is listed
        ["betti", "--s", "20000", "--c", "10000"],
        ["betti", "--s", "3000", "--c", "1500"],
        # the minor dimension is known from (s, m), so no grid of this size is allocated
        ["hb", "--s", "200", "--m", "200"],
        ["hb", "--s", "3", "--m", "20000"],
        # 300,000 cells, each a report entry
        ["scan", "--s", "4", "--c", "2", "--mmax", "1000", "--rmax", "300", "--power-cap", "300"],
        # counts past Python's 4,300-digit int-to-str limit are worded as more than the cap
        ["hvector", "--s", HUGE, "--c", "2", "--ell", HUGE],
        ["hvector", "--s", HUGE, "--c", "2", "--ell", HUGE, "--degree-cap", "1"],
        ["hb", "--s", HUGE, "--m", HUGE],
        ["export", "--s", HUGE, "--c", "1", "--ell", "1", "--target", "m2-syntax"],
        ["scan", "--s", "4", "--c", "2", "--mmax", HUGE, "--rmax", HUGE],
        ["decomp", "--s", "100000", "--c", "2", "--ell", "1", "--s-cap", "100000"],
        ["symbolic", "--s", "20000", "--c", "10000", "--ell", "20000"],
        ["wk", "--s", "3", "--ell", "9" * 4300],
        ["hb", "--s", "4", "--m", "9" * 4300],
        ["betti", "--s", "9" * 4300, "--c", "2"],
        ["decomp", "--s", "4", "--c", "2", "--ell", "9" * 4300],
        # the binomials compared with the cap stop once past it, before a million-factor product
        ["symbolic", "--s", "3000000", "--c", "1500000", "--ell", "3000000"],
        ["decomp", "--s", "1000000", "--c", "2", "--ell", "1", "--s-cap", "1000000"],
    ],
)
def test_huge_hvector_is_refused_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error (resource-cap): ") and err.count("\n") == 1
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "argv, line",
    [
        # one argv per cap refusal, each worded through errors.check_cap
        ("symbolic --s 3000000 --c 1500000 --ell 3000000",
         "symbolic power shape candidates hold more than 5000000 entries, cap is 5000000"),
        ("symbolic --s 40 --c 20 --ell 2", "symbolic power generators need 9786506808000 entries, cap is 5000000"),
        ("hvector --s 4 --c 2 --ell 3 --degree-cap 1", "h-vector has degree 8, cap is 1"),
        ("hvector --s 400 --c 200 --ell 400",
         "closed-form Hilbert numerator is estimated at 48161000 word operations, cap is 5000000"),
        # past 2^64 a count is worded `more than <cap>`, which must still read as one bound
        ("hvector --s 99999999999999999999 --c 3",
         "closed-form Hilbert numerator is estimated at more than 5000000 word operations, cap is 5000000"),
        ("hvector --s 5 --c 3 --ell 99999999999999999999",
         "closed-form Hilbert numerator is estimated at more than 5000000 word operations, cap is 5000000"),
        ("decomp --s 100000 --c 2 --ell 1 --s-cap 100000",
         "decomposition check scans more than 5000000 exponent tuples, cap is 5000000"),
        ("scan --s 4 --c 2 --mmax 1000 --rmax 300 --power-cap 300", "the scan has 300000 cells, cap is 100000"),
        ("export --s 30 --c 15 --ell 1 --target m2-syntax",
         "the script's form coefficients and subset entries reach 18649350, cap is 5000000"),
        ("export --s 10000000000 --c 2 --ell 1 --target m2-syntax",
         "the script's form coefficients and subset entries reach more than 5000000, cap is 5000000"),
        ("hb --s 5 --m 8", "minor dimension 20, cap is 16"),
        pytest.param(f"hb --s {HUGE} --m {HUGE}", "minor dimension more than 16, cap is 16", id="hb --s HUGE --m HUGE"),
        ("containment --s 5 --c 3 --m 2 --r 7", "power exponent r for s=5 is 7, cap is 5"),
        ("matroid --s 17 --c 2", "face-set checks take a complex on 17 vertices, cap is 16"),
        ("decomp --s 6 --c 2 --ell 2", "decomposition check runs on 6 variables, cap is 5"),
        ("decomp --s 5 --c 2 --ell 14", "decomposition check scans 5949147 exponent tuples, cap is 5000000"),
        pytest.param(f"decomp --s 4 --c 2 --ell {'9' * 4300}",
                     "decomposition check scans more than 5000000 exponent tuples, cap is 5000000",
                     id="decomp --s 4 --c 2 --ell 9*4300"),
        ("wk --s 12 --ell 1", "W_k chain checks scale with (ell+3)^s = 16777216, cap is 5000000"),
        ("wk --s 3 --ell 99999999999999999999",
         "W_k chain checks scale with (ell+3)^s = more than 5000000, cap is 5000000"),
    ],
)
def test_count_cap_refusals_are_worded_alike(capsys, argv, line):
    assert run(capsys, argv.split()) == (3, "", f"error (resource-cap): {line}\n")


@pytest.mark.parametrize("command", ["skeleton", "hvector"])
def test_degree_cap_bounds_the_h_vector(capsys, command):
    # K(t) has degree 20, but the h-vector [1, 19] has degree 1; no degree cap applies by default
    code, out, _ = run(capsys, [command, "--s", "20", "--c", "19", "--format", "json"])
    assert code == 0
    assert json.loads(out)["h_vector"] == [1, 19]


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic", "--s", "4", "--c", "2", "--ell", "2", "--enum-cap", "0"],
        ["symbolic", "--s", "4", "--c", "2", "--ell", "2", "--enum-cap", "-1"],
        ["hvector", "--s", "4", "--c", "2", "--degree-cap", "-1"],
        ["containment", "--s", "4", "--c", "2", "--m", "3", "--r", "2", "--power-cap", "0"],
    ],
)
def test_nonpositive_cap_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp", "--s", "6", "--c", "9", "--ell", "2"],
        ["decomp", "--s", "6", "--c", "2", "--ell", "0"],
        ["containment", "--s", "5", "--c", "9", "--m", "2", "--r", "20"],
        ["scan", "--s", "5", "--c", "9", "--mmax", "1000", "--rmax", "1000"],
        ["betti", "--s", "1000000", "--c", "1"],
    ],
)
def test_malformed_input_is_rejected_before_a_cap_refuses_it(capsys, argv):
    # each is also past a cap (s, ell, r or the cell count); the malformed (s, c) or ell decides
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error (usage): ")


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, ["containment", "--s", "5", "--c", "3", "--m", "2", "--r", "7"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_exhausted_resource_is_exit_3(capsys, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(decomp, "decomp_verdicts", boom)
    code, out, err = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2"])
    assert code == 3 and out == ""
    assert err.startswith(f"error (resource-cap): {exc.__name__}")


def test_theorem_violation_exit_code(capsys, monkeypatch):
    from starconfig.errors import TheoremViolation

    def boom(*args, **kwargs):
        raise TheoremViolation("witness: fabricated for the exit-code path")

    monkeypatch.setattr(decomp, "decomp_verdicts", boom)
    code, _, err = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2"])
    assert code == 1
    assert "witness" in err


def test_failed_check_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(decomp, "decomp_verdicts", lambda *a, **k: (False, True))
    code, out, _ = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["failure_reason"]


def test_csv_only_for_scan(capsys, monkeypatch):
    # refused at parsing, before the command computes anything: matroid --s 16 --c 8 ran 1.4 s first
    calls = [count_calls(monkeypatch, shapes, "symbolic_h_vector"), count_calls(monkeypatch, star, "skeleton_complex")]
    for argv in (["skeleton", "--s", "4", "--c", "2"], ["matroid", "--s", "16", "--c", "8"]):
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, out, err) == (2, "", "error (usage): csv output is only defined for the scan command\n")
    assert calls == [[], []]


@pytest.mark.parametrize("value", ["bananas", "1"])
def test_caps_are_set_only_by_their_flags(capsys, monkeypatch, value):
    # the former STARCONFIG_* cap overrides, malformed or tiny, change nothing
    argvs = [
        ["--help"],
        [],
        ["containment", "--s", "5", "--c", "3", "--m", "2", "--r", "7"],
        ["symbolic", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"],
        ["hvector", "--s", "4", "--c", "2"],
    ]
    names = ("STARCONFIG_ENUM_CAP", "STARCONFIG_DEGREE_CAP", "STARCONFIG_POWER_CAP")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    unset = [run(capsys, argv) for argv in argvs]
    for name in names:
        monkeypatch.setenv(name, value)
    assert [run(capsys, argv) for argv in argvs] == unset
    assert unset[0][0] == 0 and unset[1][0] == 2
    assert unset[2] == (3, "", "error (resource-cap): power exponent r for s=5 is 7, cap is 5\n")
    assert unset[3][0] == 0 and json.loads(unset[3][1])["caps"] == {"enum_cap": 5000000}
    assert unset[4][0] == 0


def _sample_argv(command):
    """Valid flags for a command: --s and its required integer flags, plus --target for export."""
    _, required, _ = cli.COMMANDS[command]
    argv = [command, "--s", "4"] + [arg for flag in required for arg in (f"--{flag}", "2")]
    return argv + (["--target", "m2-syntax"] if command == "export" else [])


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command):
    # help goes to stdout with exit 0; a parse error is one usage line on stderr with exit 2
    argvs = [
        [command, "--help"],
        [command],  # missing required flags
        [command, "--s", "four"],
        _sample_argv(command) + ["surplus"],
        _sample_argv(command) + ["--format", "yaml"],
    ]
    code, out, err = run(capsys, argvs[0])
    assert code == 0 and out.startswith(f"usage: starconfig {command} ") and err == ""
    assert all(flag in out for flag in cli._flags(command))
    for argv in argvs[1:]:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error (usage): ") and err.count("\n") == 1, argv


def test_top_level_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"], ["--he"], ["skeleton", "--s", "4", "-h"]):
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "" and out.startswith("usage: starconfig ")
    code, out, _ = run(capsys, ["--help"])
    assert all(f"  {name} " in out for name in cli.COMMANDS)


def report_of(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0 and err == "", err
    return json.loads(out)


def test_flag_forms(capsys):
    spaced = report_of(capsys, ["containment", "--s", "5", "--c", "2", "--m", "7", "--r", "5"])
    assert report_of(capsys, ["containment", "--s=5", "--c=2", "--m=7", "--r=5"]) == spaced
    # an unambiguous prefix names its flag, and a repeated flag keeps its last value
    assert report_of(capsys, ["containment", "--s", "9", "--c", "2", "--m", "7", "--r", "5", "--s", "5"]) == spaced
    code, out, _ = run(capsys, ["skeleton", "--s", "4", "--c", "2", "--form", "json", "--out", os.devnull])
    assert code == 0 and out == ""
    assert report_of(capsys, ["symbolic", "--s", "4", "--c", "2", "--ell", "2", "--enum", "99"])["caps"] == {"enum_cap": 99}


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["export", "--s", "4", "--c", "2", "--ell", "2", "--target", "m2-syntax", "--form", "x"],
         "--form could be --forms or --format"),
        (["skeleton", "--s", "4", "--c"], "--c needs a value"),
        (["skeleton", "--s", "--c", "2"], "--s needs a value"),
        (["skeleton", "--c", "2"], "--s needs a value"),
        (["skeleton", "--s", "4", "--c", "2", "--bogus", "1"], "unexpected argument '--bogus'"),
        (["skeleton", "--s", "4", "--c", "2", "surplus"], "unexpected argument 'surplus'"),
        (["skeleton", "--s", "4", "--c", "2", "--"], "unexpected argument '--'"),
        (["bogus", "--s", "4"], "the first argument names a command, one of " + ", ".join(cli.COMMANDS)),
        ([], "the first argument names a command, one of " + ", ".join(cli.COMMANDS)),
        (["skeleton", "--s", "4", "--c", "two"], "--c must be an integer, got 'two'"),
        (["export", "--s", "4", "--c", "2", "--ell", "2", "--target", "cocoa"],
         "--target must be one of m2-syntax, singular-syntax, got 'cocoa'"),
        # a negative number is a value, which the command itself rejects
        (["hvector", "--s", "4", "--c", "2", "--ell", "-1"], "need ell >= 1, got -1"),
        # every problem is named, in one line
        (["skeleton", "--s", "x", "surplus"], "unexpected argument 'surplus'; --s must be an integer, got 'x'; --c needs a value"),
        (["skeleton", "--s", "x", "--c", "2", "--jobs", "0"], "--s must be an integer, got 'x'; --jobs must be positive, got 0"),
        # ell is bounded by the scan's tuple count alone
        (["decomp", "--s", "4", "--c", "2", "--ell", "2", "--l-cap", "3"], "unexpected argument '--l-cap'"),
        # an empty value is a value: empty forms, and a path that cannot be opened
        (["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms="], "empty linear form in --forms"),
        (["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", ""], "empty linear form in --forms"),
        (["skeleton", "--s", "4", "--c", "2", "--output", ""], "cannot write the report: [Errno 2] No such file or directory: ''"),
        # past Python's 4,300-digit int-from-str limit, a value is refused by its digits, not as a non-integer
        pytest.param(["skeleton", "--s", "9" * 4301, "--c", "2"], "--s has more than 4300 digits", id="skeleton --s 9*4301"),
        pytest.param(["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", f"1,{'9' * 4301};0,1"],
                     f"malformed coefficient in '1,{'9' * 4301}': more than 4300 digits", id="export --forms 1,9*4301;0,1"),
    ],
)
def test_parse_errors(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error (usage): {reason}\n")
    if argv:  # under --format json, the same reason as the JSON error object
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert code == 2 and out == ""
        if argv[0] in cli.COMMANDS:
            assert json.loads(err) == {"error": {"kind": "usage", "reason": reason}}


@pytest.mark.parametrize(
    "argv, reason, limit",
    [
        pytest.param(["skeleton", "--s", "9" * 700, "--c", "2"], "--s has more than 640 digits", 640, id="skeleton --s 9*700"),
        pytest.param(["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", f"1,{'9' * 700};0,1"],
                     f"malformed coefficient in '1,{'9' * 700}': more than 640 digits", 640, id="export --forms 1,9*700;0,1"),
        # a written exponent past the limit: Fraction would build 10^700, which the script could not print
        pytest.param(["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", "1e700,0;0,1"],
                     "malformed coefficient in '1e700,0': more than 640 digits", 640, id="export --forms 1e700,0;0,1"),
        # a raised or disabled limit leaves a coefficient's bound at 4300: 10^99999999 would take hours to print
        pytest.param(["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", "1e99999999,0;0,1"],
                     "malformed coefficient in '1e99999999,0': more than 4300 digits", 10**8,
                     id="export --forms 1e99999999,0;0,1 at limit 10^8"),
        pytest.param(["export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", "1e5000,0;0,1"],
                     "malformed coefficient in '1e5000,0': more than 4300 digits", 0, id="export --forms 1e5000,0;0,1 at limit 0"),
    ],
)
def test_parse_errors_at_the_interpreter_digit_limit(capsys, argv, reason, limit):
    # the limit is read from the interpreter (PYTHONINTMAXSTRDIGITS, or sys.set_int_max_str_digits), not assumed
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        test_parse_errors(capsys, argv, reason)
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, fmt):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, GOLDEN_COMMANDS["scan_4_2.json"] + ["--format", fmt, "--output", str(target)])
    assert code == 2 and out == "" and not target.exists()
    reason = json.loads(err)["error"]["reason"] if fmt == "json" else err.removeprefix("error (usage): ")
    assert "No such file or directory" in reason and "\n" not in reason.strip()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["skeleton", "--s", "4", "--c", "2", "--format", "json", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["degree"] == 6


def test_jobs_flag_does_not_change_output(capsys):
    outputs = set()
    for jobs in ("1", "4"):
        code, out, _ = run(capsys, ["scan", "--s", "4", "--c", "3", "--mmax", "4", "--rmax", "3", "--format", "json", "--jobs", jobs])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    # --jobs is checked as a cap flag is, at parsing
    assert run(capsys, ["skeleton", "--s", "4", "--c", "2", "--jobs", "0"]) == (2, "", "error (usage): --jobs must be positive, got 0\n")


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, ["hvector", "--s", "5", "--c", "2", "--ell", "3", "--format", "json"])
    second = run(capsys, ["hvector", "--s", "5", "--c", "2", "--ell", "3", "--format", "json"])
    assert first == second


# each command's flags for one --format json run: json.dumps writes a float, NaN or Infinity without complaint
JSON_RUNS = {
    "skeleton": "--s 5 --c 2",
    "symbolic": "--s 4 --c 2 --ell 2",
    "hvector": "--s 6 --c 3 --ell 2",
    "betti": "--s 7 --c 3",
    "hb": "--s 4 --m 3",
    "decomp": "--s 4 --c 2 --ell 2",
    "containment": "--s 5 --c 2 --m 7 --r 5",
    "scan": "--s 4 --c 2 --mmax 8 --rmax 5",
    "matroid": "--s 6 --c 3",
    "wk": "--s 5 --ell 2",
    "export": "--s 4 --c 2 --ell 2 --target m2-syntax",
}


def exact_json(text: str):
    """text parsed as JSON, failing on any number that is not an integer."""

    def inexact(token):
        raise AssertionError(f"a report holds the inexact number {token}")

    return json.loads(text, parse_float=inexact, parse_constant=inexact)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_json_reports_hold_only_exact_numbers(capsys, command):
    code, out, _ = run(capsys, [command, *JSON_RUNS[command].split(), "--format", "json"])
    assert code == 0 and exact_json(out)["command"] == command


def test_json_error_object_holds_only_exact_numbers(capsys):
    code, out, err = run(capsys, ["hb", "--s", "2", "--m", "1", "--format", "json"])
    assert (code, out) == (2, "") and exact_json(err)["error"]["kind"] == "usage"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name, capsys):
    code, out, _ = run(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    expected = (GOLDEN / name).read_text()
    assert out == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_through_output(name, tmp_path, capsys):
    # _write's file branch, for every renderer: json, text, csv and the export scripts
    target = tmp_path / name
    assert run(capsys, GOLDEN_COMMANDS[name] + ["--output", str(target)]) == (0, "", "")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


# a fresh `python -m starconfig.cli` process, which ends through cli.entry, its os._exit included
def child(argv, python_flags=(), **popen):
    # without PYTHONUNBUFFERED stdout is block-buffered, so only a flush before os._exit delivers it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.Popen([sys.executable, *python_flags, "-m", "starconfig.cli", *argv], env=env, **popen)


def finish(proc):
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out, (err or b"").decode()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_process_prints_the_golden(name):
    assert finish(child(GOLDEN_COMMANDS[name])) == (0, (GOLDEN / name).read_bytes(), "")


def test_process_writes_the_golden_to_output(tmp_path):
    target = tmp_path / "report.json"
    code, out, err = finish(child(GOLDEN_COMMANDS["skeleton_7_3.json"] + ["--output", str(target)]))
    assert (code, out, err) == (0, b"", "")
    assert target.read_bytes() == (GOLDEN / "skeleton_7_3.json").read_bytes()


@pytest.mark.parametrize(
    "argv, code, kind",
    [(["hb", "--s", "2", "--m", "1"], 2, "usage"), (["decomp", "--s", "6", "--c", "2", "--ell", "2"], 3, "resource-cap")],
)
def test_process_refusal_exit_codes(argv, code, kind):
    got, out, err = finish(child(argv))
    assert got == code and out == b""
    assert err.startswith(f"error ({kind}): ") and err.count("\n") == 1


# an exception that escaped main would end the child with exit 1, the code of a failed identity
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_process_without_a_stderr_descriptor_keeps_the_usage_exit_code(fmt):
    # sys.stderr is None in a process started with descriptor 2 closed
    proc = child(["hb", "--s", "2", "--m", "1", "--format", fmt], stderr=None, preexec_fn=lambda: os.close(2))
    assert finish(proc) == (2, b"", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_process_with_a_broken_stderr_pipe_keeps_the_refusal_exit_code(fmt):
    proc = child(["decomp", "--s", "6", "--c", "2", "--ell", "2", "--format", fmt])
    proc.stderr.close()  # long before the child has started the interpreter and written its error
    assert finish(proc) == (3, b"", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_process_with_a_broken_stdout_pipe_exits_2(fmt):
    # 214 KB of report, more than a pipe holds, so the write fails even if the child outruns the close
    proc = child(["skeleton", "--s", "14", "--c", "7", "--format", fmt])
    proc.stdout.close()
    code, _, err = finish(proc)
    reason = json.loads(err)["error"]["reason"] if fmt == "json" else err.removeprefix("error (usage): ")
    assert code == 2 and reason.rstrip("\n") == "cannot write the report: [Errno 32] Broken pipe"
    assert "Traceback" not in err and "Exception ignored" not in err


# ratios are int pairs and csv rows are f-strings; json (with its own submodules) is loaded only
# for --format json, and only export's --forms reads Fractions
JSON_MODULES = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}
RATIONALS = {"fractions", "decimal", "numbers"}


def load_bench_workloads():
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclass needs its module registered
    spec.loader.exec_module(module)
    return module


# README's table: what each command compiles besides the package, errors, record, config, the commands
# package and its own module (cli.py itself runs as __main__ under -m, so starconfig.cli is not loaded)
COMPILES = {
    "hvector": {"shapes"}, "betti": {"shapes"},
    "skeleton": {"shapes", "star", "exponents"},
    "symbolic": {"star", "exponents"}, "matroid": {"star", "exponents"},
    "wk": {"star", "exponents", "hilbert", "shapes"},
    "hb": {"resolution", "star", "exponents"},
    "decomp": {"decomp"}, "containment": {"decomp"}, "scan": {"decomp"},
    "export": {"export"},
}
# the bench's refusals, two of them also as JSON error objects: hb refuses m < 2 and its minor dimension in
# resolution, before star builds anything
REFUSALS = {
    "hb --s 2 --m 1": (2, {"resolution"}),
    "hb --s 2 --m 1 --format json": (2, {"resolution"}),
    "scan --s 5 --c 3 --mmax 20 --rmax 8": (3, COMPILES["scan"]),
    "decomp --s 6 --c 2 --ell 2": (3, COMPILES["decomp"]),
    "decomp --s 6 --c 2 --ell 2 --format json": (3, COMPILES["decomp"]),
    "hb --s 5 --m 8": (3, {"resolution"}),
}
# help is written by starconfig.usage alone: under -m the CLI module runs as __main__, and importing it
# again as starconfig.cli would compile and run it twice
HELP_CASES = ["--help"] + [f"{command} --help" for command in cli.COMMANDS]
# no starconfig module defers its annotations, so no process imports __future__
NEVER_LOADED = {"numpy", "dataclasses", "inspect", "argparse", "gettext", "locale", "csv", "__future__"}
# every argv of the benchmark, text runs of scan and skeleton (which the bench prints as JSON or csv) and
# of hvector and hb at other sizes, the refusals as JSON error objects, and help
MODULE_CASES = sorted({" ".join(case.argv) for cases in load_bench_workloads().WORKLOADS.values() for case in cases()} | {
    "scan --s 4 --c 2 --mmax 8 --rmax 5", "hvector --s 6 --c 3 --ell 2", "hb --s 4 --m 3", "skeleton --s 5 --c 2",
    *REFUSALS, *HELP_CASES,
})


@functools.cache
def loaded_modules(*python_args) -> tuple[int, set[str], str]:
    """The exit code of a `python -v` child, the modules it imported (from its `import '<name>'` lines) and its stdout.

    The -v log lists the submodules that importlib.import_module loads, which Python's import-time
    profile leaves out: the package's __getattr__ on a `from .. import X` probe, and cli.main's command module.
    A child is run once per argv and shared by the tests that read it.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-v", *python_args], env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}, proc.stdout


def test_cli_import_leaves_numpy_out():
    code, modules, _ = loaded_modules("-c", "import starconfig.cli")
    assert code == 0 and {m for m in modules if m.startswith("starconfig")} == {"starconfig", "starconfig.cli", "starconfig.errors"}
    assert not modules & (NEVER_LOADED | JSON_MODULES | RATIONALS)


@pytest.mark.parametrize("command_line", MODULE_CASES)
def test_process_loads_exactly_its_modules(capsys, command_line):
    argv = command_line.split()
    code, modules, out = loaded_modules("-m", "starconfig.cli", *argv)
    if command_line in HELP_CASES:
        expected_code, expected = 0, {"starconfig", "starconfig.errors", "starconfig.usage"}
        assert out == run(capsys, argv)[1]
    else:
        expected_code, library = REFUSALS.get(command_line, (0, COMPILES[argv[0]]))
        expected = {"starconfig"} | {f"starconfig.{m}" for m in {"errors", "record", "config", "commands", f"commands.{argv[0]}"} | library}
    assert code == expected_code
    assert {m for m in modules if m.startswith("starconfig")} == expected
    allowed = (JSON_MODULES if "json" in argv else set()) | (RATIONALS if "--forms" in argv else set())
    assert not modules & (NEVER_LOADED | JSON_MODULES | RATIONALS) - allowed


# the goldens, bench/workloads.py's containment-grid, and a usage error and a cap refusal written as JSON
# error objects; each child is one of MODULE_CASES, so its run is shared with the module pin above
PROCESS_CASES = [(argv, 0) for argv in GOLDEN_COMMANDS.values()] + [
    ("scan --s 5 --c 3 --mmax 20 --rmax 8 --power-cap 8 --format json".split(), 0),
    ("scan --s 6 --c 4 --mmax 12 --rmax 4 --power-cap 4 --format json".split(), 0),
    ("containment --s 5 --c 2 --m 7 --r 5".split(), 0),
    ("hb --s 2 --m 1 --format json".split(), 2),
    ("decomp --s 6 --c 2 --ell 2 --format json".split(), 3),
]


@pytest.mark.parametrize("argv, code", PROCESS_CASES, ids=[" ".join(argv) for argv, _ in PROCESS_CASES])
def test_process_loads_no_serializer_or_rational_module(argv, code):
    got, modules, _ = loaded_modules("-m", "starconfig.cli", *argv)
    assert got == code
    allowed = (JSON_MODULES if "json" in argv else set()) | (RATIONALS if "--forms" in argv else set())
    assert not modules & (JSON_MODULES | RATIONALS | {"csv"}) - allowed


@pytest.mark.parametrize("argv", [["skeleton", "--s", "4", "--c", "2"], ["--help"]])
def test_process_without_a_stdout_descriptor_exits_2(argv):
    # sys.stdout is None in a process started with descriptor 1 closed
    code, _, err = finish(child(argv, stdout=None, preexec_fn=lambda: os.close(1)))
    assert (code, err) == (2, "error (usage): cannot write the report: stdout is closed\n")


def test_export_warns_on_proportional_forms(capsys):
    code, out, _ = run(capsys, [
        "export", "--s", "3", "--c", "1", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,0;2,0,0;0,1,0",
    ])
    assert code == 0
    assert "WARNING" in out and "0 and 1" in out


COEFFICIENTS = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairwise_dependent_matches_the_minor_test(data):
    width = data.draw(st.integers(1, 4))
    forms = []
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["fresh", "zero", "scaled", "coordinate"]))
        if kind == "zero":
            forms.append((Fraction(0),) * width)
        elif kind == "scaled" and forms:
            scale = data.draw(COEFFICIENTS.filter(bool))
            forms.append(tuple(scale * x for x in data.draw(st.sampled_from(forms))))
        elif kind == "coordinate":  # an int form, as the default export builds them
            k = data.draw(st.integers(0, width - 1))
            forms.append(tuple(int(j == k) for j in range(width)))
        else:
            forms.append(tuple(data.draw(st.lists(COEFFICIENTS, min_size=width, max_size=width))))
    assert export._pairwise_dependent(forms) == oracles.pairwise_dependent_by_minors(forms)


def test_export_of_many_coordinate_forms_is_fast(capsys):
    # the pairwise minor test took about 8 s here: C(160, 2) pairs of C(160, 2) minors each
    start = time.monotonic()
    code, out, _ = run(capsys, ["export", "--s", "160", "--c", "159", "--ell", "1", "--target", "m2-syntax"])
    assert code == 0 and time.monotonic() - start < 1
    assert "L159 = x159;" in out and "WARNING" not in out


def test_export_malformed_forms(capsys):
    code, _, err = run(capsys, [
        "export", "--s", "3", "--c", "2", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,zebra;0,1,0;0,0,1",
    ])
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("coeff", ["1e5000", "1e100000000", pytest.param("0." + "9" * 4300, id="0.9*4300"),
                                   pytest.param("1e" + "1" * 4301, id="1e1*4301")])
def test_export_refuses_a_coefficient_past_the_digit_limit(capsys, coeff):
    # refused from its digits and written exponent, before Fraction builds 10^exponent or the script prints it
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "export", "--s", "2", "--c", "1", "--ell", "1", "--target", "m2-syntax", "--forms", f"{coeff},0;0,1",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error (usage): ") and "more than 4300 digits" in err and err.count("\n") == 1
    assert time.perf_counter() - start < 5


def test_export_parses_short_exponents_and_fractions():
    assert export.parse_forms("1e2,1/2;0,1") == [(Fraction(100), Fraction(1, 2)), (Fraction(0), Fraction(1))]


@pytest.mark.parametrize(
    "flags, forms, line",
    [
        (["--s", "2", "--c", "1"], "1,0;;0,1", "empty linear form in --forms"),
        (["--s", "2", "--c", "1"], "1,0;0,1,0", "linear forms have inconsistent lengths [2, 3]"),
        (["--s", "2", "--c", "1"], "0,0;0,0", "all forms are zero"),
        (["--s", "3", "--c", "1"], "1;2;3", "forms must have at least 2 coefficients"),
        (["--s", "3", "--c", "1"], "1,0,0,0;0,1,0,0;0,0,1,0", "the configuration needs s > n, got s=3, n=3"),
        (["--s", "3", "--c", "2"], "1,0;0,1;1,1", "codimension c=2 exceeds the ambient dimension n=1"),
    ],
)
def test_export_refuses_malformed_forms(capsys, flags, forms, line):
    argv = ["export", *flags, "--ell", "1", "--target", "m2-syntax", "--forms", forms]
    assert run(capsys, argv) == (2, "", f"error (usage): {line}\n")


def test_export_form_count_mismatch(capsys):
    code, _, err = run(capsys, [
        "export", "--s", "4", "--c", "2", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,0;0,1,0",
    ])
    assert code == 2
    assert "expected 4" in err
