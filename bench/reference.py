"""A fixed reference computation that measures how fast the host is right now.

    python3 bench/reference.py

The host's cores are shared with other tenants, and the speed of the same
code shifts by up to 1.5x in stretches of seconds to minutes.  bench/run.py
runs this program in a fresh child between the cases of a run and scales
the run's times by how long it took, so that the reported figures follow the
program and not the host.  It never imports starconfig, so a change to
the program cannot change it.

Its parts mirror what a starconfig invocation spends time on: interpreter
start and the numpy import, a pure-Python divisibility scan over exponent
tuples (as in minimalize and member), and a broadcast numpy comparison (as in
the batched contains).  It prints one line, `<kept> <hits>`, which bench/run.py
checks against EXPECTED so that a broken reference cannot pass unnoticed.
"""

from __future__ import annotations

import random

EXPECTED = "231 3045"


def kept_generators(count: int, arity: int, seed: int) -> int:
    """How many of `count` random exponent tuples, taken by degree, no kept one divides."""
    rng = random.Random(seed)
    tuples = sorted((tuple(rng.randrange(6) for _ in range(arity)) for _ in range(count)), key=sum)
    kept: list[tuple[int, ...]] = []
    for t in tuples:
        if not any(all(x <= y for x, y in zip(g, t)) for g in kept):
            kept.append(t)
    return len(kept)


def batched_hits(rows: int, cols: int, arity: int, seed: int) -> int:
    """How many of `cols` random tuples one of `rows` random tuples divides, by broadcasting."""
    import numpy as np  # here, so that bench/run.py can read EXPECTED without numpy

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 6, size=(rows, arity))
    b = rng.integers(0, 6, size=(cols, arity))
    return int((a[:, None, :] <= b[None, :, :]).all(axis=2).any(axis=0).sum())


if __name__ == "__main__":
    print(kept_generators(8000, 8, 1), batched_hits(600, 4000, 8, 1))
