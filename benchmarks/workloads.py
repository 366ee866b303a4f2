"""Seeded argv generators for the three benchmark workloads.

Each generator draws one CLI invocation from a ``random.Random``; the stream
for a (workload, seed, phase) triple is the same on every run and platform.
The input ranges follow the CLI defaults and the paper's operating points.
They are not narrowed to avoid known false failures: manual noise strengths
at large squeezing still reach the ``step N CM is not physical`` exit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def distribute_argv(rng: random.Random) -> list[str]:
    """One ``distribute`` run; a quarter each add manual x, excess or recovery."""
    e2t = _log_uniform(rng, 1.1, 1e6)
    argv = ["distribute", "--e2t", repr(e2t), "--format", "json"]
    kind = rng.randrange(4)
    if kind == 1:
        threshold = (e2t - 1.0) / 2.0
        argv += ["--x", repr(rng.uniform(1.0, 4.0) * threshold)]
    elif kind == 2:
        argv += ["--excess", repr(rng.uniform(0.0, 200.0))]
    elif kind == 3:
        argv.append("--with-recovery")
    return argv


def sweep_argv(rng: random.Random) -> list[str]:
    """A 40-point sweep from [1.1, 10] to [1e3, 1e6]."""
    start = rng.uniform(1.1, 10.0)
    stop = _log_uniform(rng, 1e3, 1e6)
    return [
        "sweep", "--e2t-start", repr(start), "--e2t-stop", repr(stop),
        "--points", "40", "--format", "csv",
    ]


def mc_validate_argv(rng: random.Random) -> list[str]:
    """A Monte Carlo validation at the CLI default of 1e6 samples."""
    e2t = _log_uniform(rng, 1.1, 100.0)
    return [
        "mc-validate", "--e2t", repr(e2t), "--samples", "1000000",
        "--seed", str(rng.randrange(2**31)), "--format", "json",
    ]


GENERATORS: dict[str, Callable[[random.Random], list[str]]] = {
    "distribute": distribute_argv,
    "sweep": sweep_argv,
    "mc-validate": mc_validate_argv,
}


def argv_stream(workload: str, seed: int, phase: str = "timed") -> Iterator[list[str]]:
    """Endless argv sequence for one workload, determined by ``seed`` and ``phase``."""
    rng = random.Random(f"{workload}:{seed}:{phase}")
    generate = GENERATORS[workload]
    while True:
        yield generate(rng)
