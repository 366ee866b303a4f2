"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest benchmarks/selftest.py``.
The file name keeps these tests out of the package's own test suite.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sepdist import cli, symplectic  # noqa: E402

DISTRIBUTE = ["distribute", "--e2t", "2", "--format", "json"]
SWEEP = ["sweep", "--e2t-start", "1.1", "--e2t-stop", "1e6", "--points", "40", "--format", "csv"]
MC_VALIDATE = ["mc-validate", "--e2t", "2", "--samples", "20000", "--seed", "5", "--format", "json"]


def _cli(argv):
    code, stdout, _, _ = run._call(cli, argv)
    return code, stdout


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_argv_sequence(workload):
    def take(seed, phase="timed"):
        return list(itertools.islice(workloads.argv_stream(workload, seed, phase), 50))

    assert take(7) == take(7)
    assert take(7) != take(8)
    assert take(7) != take(7, "warmup")


def test_closed_forms_match_beam_splitters():
    bs_ac, bs_bc = oracle.beam_splitter(3, 0, 2), oracle.beam_splitter(3, 1, 2)
    for e2t, x, excess in ((2.0, 0.5, 0.0), (1e4, 2.5e4, 150.0)):
        step1, step2, step3 = oracle.protocol_cms(e2t, x, excess)
        atol = 1e-12 * np.abs(step1).max()
        np.testing.assert_allclose(bs_ac @ step1 @ bs_ac.T, step2, rtol=0, atol=atol)
        np.testing.assert_allclose(bs_bc @ step2 @ bs_bc.T, step3, rtol=0, atol=atol)


def test_oracle_spectrum_of_two_mode_squeezed_vacuum():
    c, s = np.cosh(1.0), np.sinh(1.0)
    z = np.diag([1.0, -1.0])
    cm = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    np.testing.assert_allclose(oracle.symplectic_spectrum(cm), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(oracle.pt_spectrum(cm, 1), [np.exp(-1.0), np.exp(1.0)], rtol=1e-12)


def test_oracle_flags_wrong_nu_in_captured_distribute_output():
    code, stdout = _cli(DISTRIBUTE)
    assert oracle.CHECKS["distribute"](DISTRIBUTE, code, stdout) is None
    report = json.loads(stdout)
    report["entanglement"]["nu"] *= 1.0 + 1e-9
    reason = oracle.CHECKS["distribute"](DISTRIBUTE, code, json.dumps(report))
    assert reason is not None and reason.startswith("nu:")


def test_oracle_flags_wrong_sweep_row():
    code, stdout = _cli(SWEEP)
    assert oracle.CHECKS["sweep"](SWEEP, code, stdout) is None
    rows = list(csv.reader(io.StringIO(stdout)))
    rows[5][2] = repr(float(rows[5][2]) * (1.0 + 1e-9))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    reason = oracle.CHECKS["sweep"](SWEEP, code, buffer.getvalue())
    assert reason is not None and reason.startswith("row 4 ") and "tau3" in reason


def test_oracle_checks_mc_verdict_against_deviations():
    code, stdout = _cli(MC_VALIDATE)
    assert oracle.CHECKS["mc-validate"](MC_VALIDATE, code, stdout) is None
    report = json.loads(stdout)
    assert oracle.CHECKS["mc-validate"](MC_VALIDATE, 2 - code, stdout) is not None
    report["comparisons"][0]["max_deviation_sigma"] = report["sigma"] + 1.0
    assert oracle.CHECKS["mc-validate"](MC_VALIDATE, code, json.dumps(report)) is not None


def test_oracle_fails_error_exits_and_unparseable_output():
    assert oracle.CHECKS["distribute"](DISTRIBUTE, 2, "") == "exit 2 on a physical input"
    for workload, argv in (("distribute", DISTRIBUTE), ("sweep", SWEEP), ("mc-validate", MC_VALIDATE)):
        for stdout in ("{}", "not json", "e2t,x\n1.0,oops\n"):
            assert oracle.CHECKS[workload](argv, 0, stdout).startswith(("unparseable", "expected"))


def test_known_false_rejection_is_named_only_when_the_oracle_finds_the_state_physical():
    argv = ["distribute", "--e2t", "2", "--x", "1e9", "--format", "json"]
    code, stdout, stderr, _ = run._call(cli, argv)
    assert oracle.CHECKS["distribute"](argv, code, stdout) == "exit 2 on a physical input"
    assert oracle.known_false_rejection(argv, code, stdout, stderr) is not None
    # A state that really is unphysical, another message, or another exit
    # code is not the known defect.
    unphysical = ["distribute", "--e2t", "2", "--x", "-0.4", "--format", "json"]
    assert oracle.known_false_rejection(unphysical, code, stdout, stderr) is None
    other = "sepdist: consistency failure: final state differs from closed form by 1e-3"
    assert oracle.known_false_rejection(argv, code, stdout, other) is None
    assert oracle.known_false_rejection(argv, 1, stdout, stderr) is None


def test_traced_run_reproduces_known_counts():
    original = symplectic.symplectic_invariants
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate((DISTRIBUTE, SWEEP, MC_VALIDATE)):
            tracer.op = op
            assert _cli(argv)[0] == 0
    finally:
        tracer.uninstall()
    assert symplectic.symplectic_invariants is original
    distribute, sweep, mc = (spans.SpanTotals(tracer, {op}) for op in range(3))
    assert distribute.count["symplectic.symplectic_invariants"] == 17
    assert distribute.count["symplectic.CovarianceMatrix.__post_init__"] > 0
    assert sweep.count["protocol.run_distribution_protocol"] == 40
    assert tracer.normals == 12 * 20000
    # Self times of one op add up to the time of its root span.
    root = distribute.inclusive_ms["cli.main"]
    assert sum(distribute.layer_self_ms.values()) == pytest.approx(root, rel=1e-9)


def _result(args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_reported_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    done = _result(["--workload", "distribute", "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _result(["--workload", "distribute", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
