"""CLI dispatch, exit codes, determinism, and golden files."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cli_cases import GOLDEN_COMMANDS
from starconfig import cli, decomp, resolution, star

GOLDEN = Path(__file__).parent / "golden"


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


def test_decomp_command(capsys):
    code, out, _ = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["power_decomposition"] and report["saturation_identity"]


def test_containment_command(capsys):
    code, out, _ = run(capsys, ["containment", "--s", "4", "--c", "2", "--m", "3", "--r", "2", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["contained"] is True
    assert report["criterion_agrees"] is True


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


@pytest.mark.parametrize("argv", [["--s", "0"], ["--s", "-3"], ["--s", "5", "--k", "5"], ["--s", "5", "--k", "-1"]])
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
        # (ell+3)^s is never evaluated, and no list of s steps is built
        ["wk", "--s", str(10**400), "--ell", "1"],
    ],
)
def test_huge_hvector_is_refused_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "resource-cap" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("command", ["skeleton", "hvector"])
def test_degree_cap_bounds_the_h_vector(capsys, command):
    # K(t) has degree 20, but the h-vector [1, 19] has degree 1, under the cap of 12
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


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, ["containment", "--s", "5", "--c", "3", "--m", "2", "--r", "7"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_exhausted_resource_is_exit_3(capsys, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(decomp, "verify_power_decomposition", boom)
    code, out, err = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2"])
    assert code == 3 and out == ""
    assert err.startswith(f"error (resource-cap): {exc.__name__}")


# what a CLI process must not load: on importing the CLI, and over a whole hvector run
IMPORT_LEAVES_OUT = ("numpy", "dataclasses", "inspect", "fractions", "starconfig.decomp", "starconfig.resolution")
HVECTOR_LEAVES_OUT = ("dataclasses", "inspect", "fractions", "starconfig.decomp")


def test_cli_import_leaves_numpy_out():
    # a fresh interpreter: this one may have imported these modules for other reasons
    src = Path(cli.__file__).resolve().parent.parent
    probe = (
        "import os, sys, starconfig.cli\n"
        f"print(sorted(set({IMPORT_LEAVES_OUT!r}) & set(sys.modules)))\n"
        "code = starconfig.cli.main(['hvector', '--s', '6', '--c', '3', '--ell', '2', '--output', os.devnull])\n"
        f"print(code, sorted(set({HVECTOR_LEAVES_OUT!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n0 []\n"


def test_theorem_violation_exit_code(capsys, monkeypatch):
    from starconfig.errors import TheoremViolation

    def boom(*args, **kwargs):
        raise TheoremViolation("witness: fabricated for the exit-code path")

    monkeypatch.setattr(decomp, "verify_power_decomposition", boom)
    code, _, err = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2"])
    assert code == 1
    assert "witness" in err


def test_failed_check_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(decomp, "verify_power_decomposition", lambda *a, **k: False)
    code, out, _ = run(capsys, ["decomp", "--s", "4", "--c", "2", "--ell", "2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["failure_reason"]


def test_csv_only_for_scan(capsys):
    code, _, err = run(capsys, ["skeleton", "--s", "4", "--c", "2", "--format", "csv"])
    assert code == 2
    assert "csv" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("STARCONFIG_POWER_CAP", "7")
    code, _, _ = run(capsys, ["containment", "--s", "5", "--c", "3", "--m", "2", "--r", "7"])
    assert code == 0
    monkeypatch.setenv("STARCONFIG_POWER_CAP", "bananas")
    code, _, err = run(capsys, ["containment", "--s", "5", "--c", "3", "--m", "2", "--r", "2"])
    assert code == 2


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
    code, _, err = run(capsys, ["skeleton", "--s", "4", "--c", "2", "--jobs", "0"])
    assert code == 2


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, ["hvector", "--s", "5", "--c", "2", "--ell", "3", "--format", "json"])
    second = run(capsys, ["hvector", "--s", "5", "--c", "2", "--ell", "3", "--format", "json"])
    assert first == second


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden(name, capsys):
    code, out, _ = run(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    expected = (GOLDEN / name).read_text()
    assert out == expected


def test_export_warns_on_proportional_forms(capsys):
    code, out, _ = run(capsys, [
        "export", "--s", "3", "--c", "1", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,0;2,0,0;0,1,0",
    ])
    assert code == 0
    assert "WARNING" in out and "0 and 1" in out


def test_export_malformed_forms(capsys):
    code, _, err = run(capsys, [
        "export", "--s", "3", "--c", "2", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,zebra;0,1,0;0,0,1",
    ])
    assert code == 2
    assert "malformed" in err


def test_export_form_count_mismatch(capsys):
    code, _, err = run(capsys, [
        "export", "--s", "4", "--c", "2", "--ell", "1", "--target", "m2-syntax",
        "--forms", "1,0,0;0,1,0",
    ])
    assert code == 2
    assert "expected 4" in err
