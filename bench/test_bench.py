"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py

They run traced passes of the real workloads, so they take about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from traced_cli import cache_counts  # noqa: E402
from workloads import WORKLOADS, cli, expect_bytes, expect_refusal, expect_text  # noqa: E402

EXACT_COUNTS = (
    "exponents.contains.pairs",
    "hilbert.numerator.nodes",
    "star.symbolic_power.shapes",
    "exponents.minimalize.gens_in",
)


def traced_totals(workload: str, seed: int) -> dict[str, float]:
    # the runaway is killed at its deadline and contributes no spans
    cases = [c for c in WORKLOADS[workload]() if not c.runaway]
    p = run.run_pass(cases, random.Random(seed), True, float("inf"))
    assert not [o.error for o in p.outcomes if o.failed]
    return run.layer_totals(p)


@pytest.fixture(scope="module")
def totals():
    return {
        (workload, seed): traced_totals(workload, seed)
        for workload in ("containment-grid", "hilbert-series")
        for seed in (1, 2)
    }


def test_exact_counts_repeat(totals):
    for workload in ("containment-grid", "hilbert-series"):
        first, second = totals[(workload, 1)], totals[(workload, 2)]
        assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    grid, series = totals[("containment-grid", 1)], totals[("hilbert-series", 1)]
    assert grid["exponents.contains.pairs"] > 0 and series["hilbert.numerator.nodes"] > 0


def test_each_workload_bypasses_the_other_mechanism(totals):
    assert totals[("containment-grid", 1)]["hilbert.numerator.nodes"] == 0
    assert totals[("hilbert-series", 1)]["exponents.contains.calls"] == 0


def test_cache_readers_report_zero_for_missing_functions():
    assert cache_counts(None) == (0, 0)
    assert cache_counts(len) == (0, 0)


def test_checks_reject_wrong_outputs(tmp_path):
    golden = tmp_path / "golden.txt"
    golden.write_bytes(b"a: 1\n")
    assert expect_bytes(golden)(0, b"a: 1\n", "") is None
    assert expect_bytes(golden)(0, b"a: 2\n", "") is not None
    assert expect_bytes(golden)(1, b"a: 1\n", "") is not None
    assert expect_text(degree="8820")(0, b"command: hvector\ndegree: 8820\n", "") is None
    assert expect_text(degree="8820")(0, b"degree: 8821\n", "") is not None
    refusal = expect_refusal(3, "resource-cap")
    assert refusal(3, b"", "error (resource-cap): too big\n") is None
    assert refusal(2, b"", "error (resource-cap): too big\n") is not None
    assert refusal(3, b"", "error (usage): bad\n") is not None


def test_scaling_leaves_deadline_time_alone():
    case = cli("hb --s 4 --m 7", expect_text())
    ran = run.Outcome(case, wall_s=2.0, cpu_s=3.0, rss_mb=1.0, killed=False, error=None)
    killed = run.Outcome(case, wall_s=5.0, cpu_s=4.0, rss_mb=1.0, killed=True, error="killed")
    p = run.Pass([ran, killed])
    assert p.scaled(1.5) == (2.0 * 1.5 + 5.0, 3.0 * 1.5 + 4.0)


def test_samples_between_cases_check_the_reference():
    between = run.BetweenCases(hard_stop=float("inf"))
    between.tick()
    between.tick()  # within REFERENCE_PERIOD_S of the first: no second sample
    assert len(between.reference) == len(between.setup) == 1 and between.factor > 0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "cpu_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
