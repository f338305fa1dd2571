"""Run one starconfig CLI invocation with the library's public functions wrapped in spans.

    python bench/traced_cli.py <cli arguments...>

The wrappers replace module attributes, so calls made inside a module through
its globals (power -> multiply -> minimalize, and the exponents calls inside
the private Hilbert numerator recursion) are seen too.  The invocation's
stdout and exit code are those of the CLI; after the CLI's own stderr, one
last stderr line holds the trace as JSON behind TRACE_MARKER.

Per wrapped function the trace holds the call count, self time (duration
minus the time covered by child spans) and the time of outermost calls.  It
also holds exact counts of work (generator pairs, shapes, recursion nodes)
and `cli.import_s`, the time to import starconfig.cli in this process.
"""

from __future__ import annotations

import inspect
import json
import sys
from math import comb
from time import perf_counter

TRACE_MARKER = "BENCH-TRACE "


def cache_counts(fn) -> tuple[int, int]:
    """(misses, hits) of an lru_cache'd function; (0, 0) when it is gone (None) or uncached."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.misses, stats.hits


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for one process, aggregated per function name."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time covered by child spans]
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, outer_s, depth]
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name: str, fn, before=None, after=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            state = None if before is None else before(args, kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            record[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                record[3] -= 1
                record[0] += 1
                record[1] += duration - frame[1]
                if record[3] == 0:
                    record[2] += duration
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": r[0], "self_s": r[1], "outer_s": r[2]}
                for name, r in self.spans.items()
                if r[0]
            },
            "counts": self.counts,
        }


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Work counters for the functions whose sizes matter, keyed by span name."""
    symbolic_power = modules["star"].symbolic_power  # the original, read before install
    symbolic_cached = hasattr(symbolic_power, "cache_info")

    def minimalize_after(args, kwargs, result, _):
        tracer.add("exponents.minimalize.gens_in", len(_arg(args, kwargs, 1, "tuples")))
        tracer.add("exponents.minimalize.gens_out", len(result.gens))

    def contains_after(args, kwargs, result, _):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        tracer.add("exponents.contains.pairs", len(a.gens) * len(b.gens))

    def power_after(args, kwargs, result, _):
        tracer.add("exponents.power.gens_out", len(result.gens))
        tracer.peak("exponents.power.gens_out_max", len(result.gens))

    def symbolic_before(args, kwargs):
        return cache_counts(symbolic_power)[0]

    def symbolic_after(args, kwargs, result, misses_before):
        # only calls that enumerated (cache misses) scan the shapes
        if not symbolic_cached or cache_counts(symbolic_power)[0] > misses_before:
            cfg, ell = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "ell")
            tracer.add("star.symbolic_power.shapes", comb(ell + cfg.s, cfg.s))
        tracer.add("star.symbolic_power.gens_out", len(result.gens))

    return {
        "exponents.minimalize": (None, minimalize_after),
        "exponents.contains": (None, contains_after),
        "exponents.power": (None, power_after),
        "star.symbolic_power": (symbolic_before, symbolic_after),
    }


def public_functions(module):
    """Public functions defined in the module itself, including lru_cache'd ones."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer, modules: dict) -> None:
    hooks = _hooks(tracer, modules)
    for short, module in modules.items():
        for name, fn in list(public_functions(module)):
            span = f"{short}.{name}"
            before, after = hooks.get(span, (None, None))
            setattr(module, name, tracer.wrap(span, fn, before, after))


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import starconfig.cli  # timed: every invocation pays it
    from starconfig import decomp, exponents, hilbert, resolution, star

    import_s = perf_counter() - t0
    modules = {
        "exponents": exponents,
        "star": star,
        "hilbert": hilbert,
        "resolution": resolution,
        "decomp": decomp,
        "cli": starconfig.cli,
    }
    tracer = Tracer()
    install(tracer, modules)
    try:
        return modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["counts"]["cli.import_s"] = import_s
        nodes, hits = cache_counts(getattr(hilbert, "_numerator", None))
        report["counts"]["hilbert.numerator.nodes"] = nodes
        report["counts"]["hilbert.numerator.hits"] = hits
        report["counts"]["decomp.skeleton_power.misses"] = cache_counts(getattr(decomp, "_skeleton_power", None))[0]
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(report) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
