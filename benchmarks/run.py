"""End-to-end and per-layer benchmark of the sepdist CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload distribute --seed 1 --seconds 30 --trace 0

The load generator is this one process with one client in a closed loop: it
calls ``sepdist.cli.main(argv)`` in-process with argv drawn from ``--seed``,
captures stdout and stderr, checks them with ``oracle.py`` (which shares no
code with sepdist) and then starts the next call.  The clock of the timed
phase runs only while sepdist does, so checking costs the program nothing.
BLAS threads are capped at the number of usable cores.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs the argv sequence untraced for half the time,
then the same sequence traced by ``spans.py`` for the other half, then (on
``mc-validate``) its first call under ``tracemalloc``, and reports the
per-layer metrics.  Spans are written to ``.bench_out/`` in the checkout.

The last line of stdout is the result object; the line before it records the
environment and the failed calls with their argv and stderr.  An op fails on
an undocumented exit code, unparseable output, or disagreement with the
oracle; ``correct`` is false only when a call printed a result that the
oracle rejects.  The one exception is sepdist's known false "step N CM is
not physical" exit on a state the oracle confirms physical: it is not
counted as failed but listed apart, with its argv and stderr, and it
lowers ``ok_op_ratio`` like a failure would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("distribute", "sweep", "mc-validate")

#: Fresh interpreters timed for ``setup_s``, after an untimed one that
#: compiles the bytecode, all before the timed phase.
SETUP_SAMPLES = 9
#: Equal slices of the timed phase; ``ops_per_s`` is the median of their rates.
SLICES = 9
WARMUP_OPS = 2
#: ``op_ms.p90`` is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
MAX_FAILURES_LISTED = 20

_SETUP_CODE = (
    "import os, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "os.sched_setaffinity(0, {int(sys.argv[2])})\n"
    "start = time.perf_counter()\n"
    "import sepdist.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass
class Op:
    """One checked CLI call; stdout is kept only as its size."""

    argv: list[str]
    code: int
    ms: float
    output_bytes: int
    stderr: str
    failure: str | None
    defect: str | None
    printed: bool

    @property
    def ok(self) -> bool:
        """The call returned a report that the oracle accepts."""
        return self.failure is None and self.defect is None


def _cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _import_seconds() -> float:
    """Time to import ``sepdist.cli`` in a fresh interpreter.

    The interpreter pins itself to one CPU before the import: unpinned, the
    scheduler moves it between CPUs during the import, and on a two-core
    virtual machine that alone made the import 40% slower and tied its time
    to whether the other core happened to be busy.
    """
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(cpu)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``cli.main(argv)``; return exit code, stdout, stderr and milliseconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error is an op outcome: exit 1 with a traceback
            code = 1
            traceback.print_exc(file=err)
    ms = (time.perf_counter_ns() - start) / 1e6
    return code, out.getvalue(), err.getvalue(), ms


def _closed_loop(cli, argvs, check, seconds: float, tracer=None) -> tuple[list[Op], float]:
    """Call and check until ``seconds`` of calling have passed; return ops and that time."""
    from oracle import known_false_rejection

    ops: list[Op] = []
    busy_s = 0.0
    while not ops or busy_s < seconds:
        argv = next(argvs)
        if tracer is not None:
            tracer.op = len(ops)
        start = time.perf_counter()
        code, stdout, stderr, ms = _call(cli, argv)
        busy_s += time.perf_counter() - start
        failure = check(argv, code, stdout)
        defect = None if failure is None else known_false_rejection(argv, code, stdout, stderr)
        if defect is not None:
            failure = None
        ops.append(Op(argv, code, ms, len(stdout.encode()), stderr, failure, defect, bool(stdout)))
    return ops, busy_s


def _environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "generator_processes": 1,
        "generator_clients": 1,
        "generator_python_threads": threading.active_count(),
        "generator_os_threads": len(os.listdir("/proc/self/task")),
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_alloc_mb(cli, argv: list[str]) -> float:
    """``tracemalloc`` peak of one call, in MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        _call(cli, argv)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _per_layer(traced: list[Op], tracer, untraced_p50: float, peak_alloc_mb: float) -> dict:
    """Per-op averages over the traced ops that returned an accepted report."""
    from spans import SpanTotals

    ok = [(i, op) for i, op in enumerate(traced) if op.ok]
    totals = SpanTotals(tracer, {i for i, _ in ok})
    n = max(1, len(ok))

    def count(name):
        return totals.count[name] / n

    def incl(name):
        return totals.inclusive_ms[name] / n

    def own(name):
        return totals.self_ms[name] / n

    def layer(name):
        return totals.layer_self_ms[name] / n

    mc_ops = [op for _, op in ok if op.argv[0] == "mc-validate"]
    # Normals are counted over every traced call, so shots are too.
    shots = sum(
        int(op.argv[op.argv.index("--samples") + 1]) for op in traced if "--samples" in op.argv
    )
    traced_p50 = statistics.median(op.ms for op in traced)
    sym, st, mc = "symplectic.", "states.", "montecarlo."
    values = {
        "symplectic.invariant_calls": (count(sym + "symplectic_invariants"), "count"),
        "symplectic.spectrum_calls": (count(sym + "symplectic_eigenvalues"), "count"),
        "symplectic.invariants_self_ms": (own(sym + "symplectic_invariants"), "ms"),
        "symplectic.spectrum_self_ms": (own(sym + "symplectic_eigenvalues"), "ms"),
        "symplectic.form_self_ms": (own(sym + "symplectic_form"), "ms"),
        "symplectic.verdict_busy_ms": (incl(sym + "ppt_verdict") + incl(sym + "sigma_verdict"), "ms"),
        "symplectic.cm_constructions": (count(sym + "CovarianceMatrix.__post_init__"), "count"),
        "symplectic.cm_construct_ms": (incl(sym + "CovarianceMatrix.__post_init__"), "ms"),
        "states.self_ms": (layer("states"), "ms"),
        "states.transform_validations": (count(st + "SymplecticTransform.__post_init__"), "count"),
        "states.noise_model_ms": (incl(st + "displacement_noise_model"), "ms"),
        "protocol.runs_per_op": (count("protocol.run_distribution_protocol"), "count"),
        "protocol.self_ms": (layer("protocol"), "ms"),
        "montecarlo.simulate_self_ms": (own(mc + "simulate_protocol"), "ms"),
        "montecarlo.cholesky_ms": (incl(mc + "psd_cholesky"), "ms"),
        "montecarlo.estimate_ms": (incl(mc + "estimate_cm"), "ms"),
        "montecarlo.compare_ms": (incl(mc + "compare_estimate"), "ms"),
        "montecarlo.peak_alloc_mb": (peak_alloc_mb, "MB"),
        "montecarlo.normals_per_shot": (tracer.normals / shots if shots else 0.0, "count"),
        # A statistical miss (exit 2 with a consistent report) is an outcome, not a failure.
        "montecarlo.pass_ratio": (
            sum(op.code == 0 for op in mc_ops) / len(mc_ops) if mc_ops else 0.0, "ratio"
        ),
        "cli.self_ms": (layer("cli"), "ms"),
        "cli.output_bytes": (sum(op.output_bytes for _, op in ok) / n, "bytes"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def _measure_end_to_end(cli, argvs, check, seconds: float, setup_s: float) -> tuple[list[Op], dict]:
    """Timed phase in equal slices, with nothing run between them.

    Throughput is a median over the slices, so a stretch of slow machine
    time moves it less than it moves a single total.  Import timings are
    made before the warm-up: run between slices, each left the next op with
    cold caches, and on ``sweep`` that was one op in four.
    """
    ops: list[Op] = []
    rates = []
    for _ in range(SLICES):
        chunk, busy_s = _closed_loop(cli, argvs, check, seconds / SLICES)
        ops += chunk
        rates.append(sum(op.ok for op in chunk) / busy_s)
    ok = sum(op.ok for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return ops, {
        "setup_s": _metric(setup_s, "s"),
        "op_ms.p50": _metric(statistics.median(op.ms for op in ops), "ms"),
        "ops_per_s": _metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ok_op_ratio": _metric(ok / len(ops), "ratio"),
    }


def _measure_layers(cli, make_argvs, check, seconds: float, spans_path: Path) -> tuple[list[Op], dict]:
    """Half the time untraced, the same argv sequence traced, then one
    ``mc-validate`` call under tracemalloc; other workloads make no Monte Carlo call."""
    from spans import Tracer

    ops, _ = _closed_loop(cli, make_argvs(), check, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = _closed_loop(cli, make_argvs(), check, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    argv = next(make_argvs())
    peak_alloc_mb = _peak_alloc_mb(cli, argv) if argv[0] == "mc-validate" else 0.0
    tracer.write(spans_path)
    untraced_p50 = statistics.median(op.ms for op in ops)
    return ops + traced, _per_layer(traced, tracer, untraced_p50, peak_alloc_mb)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sepdist" / "cli.py").is_file():
        print(f"run.py: no sepdist sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    nproc = _cap_blas_threads()
    _import_seconds()
    if not args.trace:
        setup_s = statistics.median(_import_seconds() for _ in range(SETUP_SAMPLES))
    sys.path.insert(0, str(SRC))
    from oracle import CHECKS
    from sepdist import cli
    from workloads import argv_stream

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported sepdist from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    check = CHECKS[args.workload]
    warmup = argv_stream(args.workload, args.seed, "warmup")
    for _ in range(WARMUP_OPS):
        _call(cli, next(warmup))

    info = {"workload": args.workload, "seed": args.seed, "environment": _environment(nproc)}
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
        ops, metrics = _measure_layers(
            cli, lambda: argv_stream(args.workload, args.seed), check, args.seconds, spans_path
        )
    else:
        ops, metrics = _measure_end_to_end(
            cli, argv_stream(args.workload, args.seed), check, args.seconds, setup_s
        )
        if len(ops) >= P90_MIN_OPS:
            info["op_ms.p90"] = statistics.quantiles([op.ms for op in ops], n=10)[-1]

    failures = [op for op in ops if op.failure is not None]
    defects = [op for op in ops if op.defect is not None]
    info["ops"] = len(ops)
    info["failed_op_ratio"] = len(failures) / len(ops)
    info["known_defect_ratio"] = len(defects) / len(ops)
    for key, listed in (("failures", failures), ("known_defects", defects)):
        info[key] = [
            {"argv": op.argv, "exit": op.code, "reason": op.failure or op.defect, "stderr": op.stderr.strip()}
            for op in listed[:MAX_FAILURES_LISTED]
        ]
    result = {
        "correct": not any(op.printed for op in failures),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
