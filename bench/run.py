"""End-to-end and per-layer benchmark of the starconfig CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One process drives a closed loop:
each pass runs the workload's fixed list of `python -m starconfig.cli ...`
invocations one at a time, each in a fresh child process (cold lru_caches,
numpy imported every time, as a user pays it), and checks every output.  The
seed only shuffles the case order within each pass.  Passes repeat until the
next one would end after --seconds.

--trace 0 reports the end-to-end metrics, with the host's speed taken out
(see below):
  setup_s      wall time of a fresh `python -c "import starconfig.cli"`,
               median over the run's samples
  pass_s       wall time of one pass's children, start to exit, summed;
               mean over passes
  cpu_s        user + system CPU of the pass's children (os.wait4 rusage),
               mean over passes
  peak_rss_mb  largest ru_maxrss of any child in the pass, median over passes

The host's cores are shared, and the speed of the same code shifts by up to
1.5x with the load of other tenants, in stretches of seconds to minutes, in
CPU time as well as in wall time.  So between the cases of a pass, outside
its time, and at most every REFERENCE_PERIOD_S, a run times
bench/reference.py, a fixed computation that never imports starconfig, in a
fresh child, and takes one setup_s sample.  It multiplies setup_s, pass_s and
cpu_s by REFERENCE_S / (the reference's mean wall time in the run), so they
read as on a host where the reference takes REFERENCE_S.  A case killed at
its deadline keeps its unscaled time, since the deadline does not depend on
the host.  The lines before the result give the raw samples and the factor.

--trace 1 alternates untraced passes with traced ones, whose children run
bench/traced_cli.py to wrap each module's public functions in spans, and
reports per-layer totals per pass plus the tracing overhead (traced minus
untraced mean pass_s).

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give per-case times, the cases
that failed, and the known runaway's outcome.  Exits 2 without a result when
the checkout lacks the sources the benchmark runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median, median_low
from time import perf_counter

import reference
from traced_cli import TRACE_MARKER
from workloads import GOLDEN_CASES_FILE, GOLDEN_DIR, ROOT, WORKLOADS, Case

BENCH_DIR = Path(__file__).resolve().parent

SRC = ROOT / "src"
REFERENCE_ARGV = [sys.executable, str(BENCH_DIR / "reference.py")]
# The reference's median wall time on the 2-CPU host the benchmark was
# written on (Python 3.11, numpy 2.4); the scaled metrics read as on that host.
REFERENCE_S = 0.45
REFERENCE_PERIOD_S = 2.0
# No child may run past this many seconds after the benchmark started, so that
# a run ends in bounded time even when every case hangs.
HARD_STOP_S = 150.0
SETUP_DEADLINE_S = 10.0

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER: list[tuple[str, str]] = [
    ("exponents.contains.calls", "count"),
    ("exponents.contains.self_s", "s"),
    ("exponents.contains.pairs", "count"),
    ("exponents.member.calls", "count"),
    ("exponents.member.self_s", "s"),
    ("exponents.power.calls", "count"),
    ("exponents.power.gens_out", "count"),
    ("exponents.multiply.self_s", "s"),
    ("exponents.minimalize.calls", "count"),
    ("exponents.minimalize.self_s", "s"),
    ("exponents.minimalize.gens_in", "count"),
    ("exponents.minimalize.gens_out", "count"),
    ("exponents.minimalize.kept_ratio", "ratio"),
    ("exponents.intersect.calls", "count"),
    ("exponents.intersect.self_s", "s"),
    ("exponents.colon.calls", "count"),
    ("exponents.colon.self_s", "s"),
    ("exponents.colon_ideal.calls", "count"),
    ("exponents.saturate.calls", "count"),
    ("exponents.saturate.self_s", "s"),
    ("star.symbolic_power.calls", "count"),
    ("star.symbolic_power.self_s", "s"),
    ("star.symbolic_power.shapes", "count"),
    ("star.symbolic_power.gens_out", "count"),
    ("star.wk_ideal.self_s", "s"),
    ("star.is_matroid.self_s", "s"),
    ("star.stanley_reisner_ideal.self_s", "s"),
    ("hilbert.h_vector.calls", "count"),
    ("hilbert.h_vector.self_s", "s"),
    ("hilbert.numerator.nodes", "count"),
    ("hilbert.numerator.hits", "count"),
    ("hilbert.hilbert_function.self_s", "s"),
    ("hilbert.series_numerator.self_s", "s"),
    ("resolution.maximal_minors.self_s", "s"),
    ("resolution.verify_hb.self_s", "s"),
    ("resolution.euler_check.self_s", "s"),
    ("decomp.symbolic_in_power.calls", "count"),
    ("decomp.symbolic_in_power.self_s", "s"),
    ("decomp.skeleton_power.misses", "count"),
    ("decomp.verify_power_decomposition.self_s", "s"),
    ("decomp.verify_saturation.self_s", "s"),
    ("decomp.rhs_decomposition.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.killed", "count"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Outcome:
    case: Case
    wall_s: float
    cpu_s: float
    rss_mb: float
    killed: bool
    error: str | None  # why the output check failed, None when it passed
    trace: dict | None = None

    @property
    def runaway_miss(self) -> bool:
        return self.killed and self.case.runaway

    @property
    def failed(self) -> bool:
        return self.error is not None and not self.runaway_miss


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The children's wall time, start to exit; samples taken between cases are not in it."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    def scaled(self, factor: float) -> tuple[float, float]:
        """(wall_s, cpu_s) with the time of cases that ran to exit multiplied by factor."""
        killed = [o for o in self.outcomes if o.killed]
        killed_wall = sum(o.wall_s for o in killed)
        killed_cpu = sum(o.cpu_s for o in killed)
        return (
            (self.wall_s - killed_wall) * factor + killed_wall,
            (self.cpu_s - killed_cpu) * factor + killed_cpu,
        )


@dataclass
class BetweenCases:
    """Reference and setup samples, one of each at most every REFERENCE_PERIOD_S.

    See the module docstring.  They are taken between the cases of a pass,
    outside its time, so they follow the host over the same stretch as it.
    """

    hard_stop: float
    reference: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    last: float = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self.last < REFERENCE_PERIOD_S:
            return
        deadline_s = min(SETUP_DEADLINE_S, self.hard_stop - perf_counter())
        wall_s, _, code, out, err, _ = run_child(REFERENCE_ARGV, deadline_s)
        if code != 0 or out.decode().strip() != reference.EXPECTED:
            raise RuntimeError(f"bench/reference.py failed: {err.decode(errors='replace')}")
        self.reference.append(wall_s)
        self.setup.append(setup_sample(self.hard_stop))
        self.last = perf_counter()

    @property
    def factor(self) -> float:
        return REFERENCE_S / mean(self.reference)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], deadline_s: float) -> tuple[float, object, int, bytes, bytes, bool]:
    """Run one child to exit or deadline; (wall_s, rusage, exit code, stdout, stderr, killed)."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            timeout = None if killed else start + deadline_s - perf_counter()
            if timeout is not None and timeout <= 0:
                proc.kill()
                killed = True
                continue
            for key, _ in sel.select(timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    # reap with wait4 to read this child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()])
    err = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return wall_s, usage, proc.returncode, out, err, killed


def run_case(case: Case, traced: bool, hard_stop: float) -> Outcome:
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *case.argv]
    else:
        argv = [sys.executable, "-m", "starconfig.cli", *case.argv]
    deadline_s = min(case.deadline_s, hard_stop - perf_counter())
    wall_s, usage, code, out, err_bytes, killed = run_child(argv, deadline_s)
    err = err_bytes.decode(errors="replace")
    trace = None
    if traced and (cut := err.rfind("\n" + TRACE_MARKER)) >= 0:
        trace = json.loads(err[cut + 1 + len(TRACE_MARKER):])
        err = err[:cut]
    if killed:
        error = f"killed at its {deadline_s:.3g} s deadline"
    elif traced and trace is None:
        error = "the traced child wrote no trace"
    else:
        error = case.check(code, out, err)
    return Outcome(
        case=case,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        killed=killed,
        error=error,
        trace=trace,
    )


def run_pass(cases: list[Case], rng: random.Random, traced: bool, hard_stop: float,
             between: BetweenCases | None = None) -> Pass:
    order = list(cases)
    rng.shuffle(order)
    result = Pass()
    for case in order:
        if between is not None:
            between.tick()
        result.outcomes.append(run_case(case, traced, hard_stop))
    return result


def setup_sample(hard_stop: float) -> float:
    deadline_s = min(SETUP_DEADLINE_S, hard_stop - perf_counter())
    wall_s, _, code, _, err, _ = run_child([sys.executable, "-c", "import starconfig.cli"], deadline_s)
    if code != 0:
        raise RuntimeError(f"import starconfig.cli failed: {err.decode(errors='replace')}")
    return wall_s


def layer_totals(p: Pass) -> dict[str, float]:
    """Sum the traces of one traced pass into the per-layer metrics."""
    totals: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for o in p.outcomes:
        if o.trace is None:
            continue
        for span, rec in o.trace["spans"].items():
            for q in ("calls", "self_s"):
                totals[f"{span}.{q}"] = totals.get(f"{span}.{q}", 0) + rec[q]
        for key, value in o.trace["counts"].items():
            if not key.endswith("_max"):
                totals[key] = totals.get(key, 0) + value
    gens_in = totals.get("exponents.minimalize.gens_in", 0)
    totals["exponents.minimalize.kept_ratio"] = (
        totals.get("exponents.minimalize.gens_out", 0) / gens_in if gens_in else 0.0
    )
    totals["trace.killed"] = sum(o.killed for o in p.outcomes)
    return totals


def case_lines(cases: list[Case], passes: list[Pass]) -> list[str]:
    """Per case, in workload order: wall and CPU medians over the passes, and peak RSS."""
    lines = []
    for case in cases:
        outs = [o for p in passes for o in p.outcomes if o.case is case]
        walls = [o.wall_s for o in outs]
        lines.append(
            f"case {case.name!r}: wall median {median(walls):.3f} s "
            f"(min {min(walls):.3f}, max {max(walls):.3f}, n={len(walls)}), "
            f"cpu median {median([o.cpu_s for o in outs]):.3f} s, "
            f"rss max {max(o.rss_mb for o in outs):.1f} MiB"
        )
    return lines


def trace_lines(p: Pass) -> list[str]:
    """Per case: the largest spans by self and by inclusive time, and the work counts."""
    lines = []
    for o in sorted(p.outcomes, key=lambda o: o.case.name):
        if o.trace is None:
            lines.append(f"traced case {o.case.name!r}: no spans ({o.error})")
            continue
        spans = o.trace["spans"]
        by_self = sorted(spans, key=lambda n: -spans[n]["self_s"])[:3]
        by_outer = sorted((n for n in spans if n != "cli.main"), key=lambda n: -spans[n]["outer_s"])[:3]
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(o.trace["counts"].items()) if not k.endswith("_s")
        )
        top_self = ", ".join(f"{n} {spans[n]['self_s']:.3f} s" for n in by_self)
        top_outer = ", ".join(f"{n} {spans[n]['outer_s']:.3f} s" for n in by_outer)
        lines.append(
            f"traced case {o.case.name!r}: wall {o.wall_s:.3f} s; self: {top_self}; "
            f"inclusive: {top_outer}; {counts}"
        )
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "starconfig" / "cli.py", GOLDEN_CASES_FILE, GOLDEN_DIR) if not p.exists()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)

    hard_stop = perf_counter() + HARD_STOP_S
    setup_sample(hard_stop)  # discarded: the first import may compile bytecode
    between = None if args.trace else BetweenCases(hard_stop)

    start = perf_counter()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    longest = 0.0  # the longest round so far, samples between cases included
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(cases, rng, False, hard_stop, between))
        if args.trace:
            traced.append(run_pass(cases, rng, True, hard_stop))
        longest = max(longest, perf_counter() - round_start)
        if perf_counter() + longest > start + args.seconds:
            break

    all_passes = untraced + traced
    outcomes = [o for p in all_passes for o in p.outcomes]
    failed = [o for o in outcomes if o.failed]
    runaway = [o for o in outcomes if o.case.runaway]

    for line in case_lines(cases, untraced):
        print(line)
    for o in failed:
        print(f"FAILED {o.case.name!r}: {o.error}")
    for name in sorted({o.case.name for o in runaway}):
        outs = [o for o in runaway if o.case.name == name]
        misses = sum(o.runaway_miss for o in outs)
        print(f"known runaway {name!r}: killed at its deadline in {misses} of {len(outs)} runs")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_frac {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")

    if args.trace:
        per_pass = [layer_totals(p) for p in traced]
        # median_low keeps a count an integer
        values = {name: median_low([t[name] for t in per_pass]) for name, _ in PER_LAYER}
        values["trace.untraced_pass_s"] = mean([p.wall_s for p in untraced])
        values["trace.traced_pass_s"] = mean([p.wall_s for p in traced])
        values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
        for line in trace_lines(traced[-1]):
            print(line)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        samples = {
            "setup (s)": between.setup,
            "pass wall (s)": [p.wall_s for p in untraced],
            "pass cpu (s)": [p.cpu_s for p in untraced],
            "pass peak rss (MiB)": [p.peak_rss_mb for p in untraced],
            "reference (s)": between.reference,
        }
        for name, values in samples.items():
            print(f"{name} samples: " + " ".join(f"{v:.4f}" for v in values)
                  + f"; median {median(values):.4f}, mean {mean(values):.4f}")
        factor = between.factor
        print(f"host factor {factor:.4f} (REFERENCE_S {REFERENCE_S} / reference mean)")
        scaled = [p.scaled(factor) for p in untraced]
        metrics = {
            "setup_s": {"value": median(between.setup) * factor, "unit": "s"},
            "pass_s": {"value": mean(wall for wall, _ in scaled), "unit": "s"},
            "cpu_s": {"value": mean(cpu for _, cpu in scaled), "unit": "s"},
            "peak_rss_mb": {"value": median(samples["pass peak rss (MiB)"]), "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
