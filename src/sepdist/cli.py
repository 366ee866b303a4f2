"""Command-line front end: protocol runs, sweeps, Monte Carlo validation, regression table.

Exit codes: 0 on success, 2 when an internal consistency or validation check
fails, 64 for usage errors and for inputs whose computation overflows double
precision.  Output formats: human-readable text (6
significant digits), JSON and CSV (full double precision); see docs/formats.md
for the field-level contract.

Each command handler validates its own flags and returns one `Output` that
holds its result in all three forms; `main` renders the requested one and
writes it to stdout or `--output`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .montecarlo import compare_estimate, simulate_protocol
from .protocol import (
    ConsistencyError,
    ProtocolParams,
    ProtocolReport,
    RecoveryReport,
    run_distribution_protocol,
    run_recovery_protocol,
    sweep,
)

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_CONSISTENCY", "EXIT_USAGE"]

EXIT_OK = 0
EXIT_CONSISTENCY = 2
EXIT_USAGE = 64

SWEEP_CSV_HEADER = ("e2t", "x", "tau3", "omega3", "sigma", "nu", "log_negativity")

#: Reference values reproduced by the `regression` subcommand:
#: (case, quantity, expected, tolerance).
REGRESSION_ROWS = (
    ("e2t=2", "nu", 0.6589, 5e-4),
    ("e2t=2", "log_negativity", 0.6019, 1e-3),
    ("e2t=2", "sigma_check", 1.0, 1e-9),
    ("e2t=10", "nu", 0.3968, 5e-4),
    ("e2t=10", "log_negativity", 1.3334, 1e-3),
    ("e2t=2 excess=200", "log_negativity", 0.5851, 1e-3),
    ("e2t=1e6 (asymptote proxy)", "nu", 1.0 / 3.0, 1e-3),
    ("e2t=1e6 (asymptote proxy)", "log_negativity", 1.584962500721156, 2e-3),
    ("recovery e2t=2", "nu_ac", 0.5, 1e-12),
    ("recovery e2t=2", "purity_det", 2.25, 1e-10),
)


class Output(NamedTuple):
    """One command's result, built once in every output form.

    `record` is the JSON payload documented in docs/formats.md, `header` and
    `rows` are the CSV table, `text` is the human-readable report; `passed`
    selects exit code 0 or 2.
    """

    passed: bool
    record: dict
    header: tuple[str, ...]
    rows: list[tuple]
    text: str


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the documented usage exit code is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def db_to_e2t(db: float) -> float:
    """Squeezing in dB to e^{2t}: e2t = 10^(db/10)."""
    return 10.0 ** (db / 10.0)


def e2t_to_db(e2t: float) -> float:
    """e^{2t} to squeezing in dB: db = 10 log10(e2t)."""
    return 10.0 * math.log10(e2t)


def _add_squeezing_flags(parser, required=True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--e2t", type=float, help="squeezing as e^{2t} (> 0)")
    group.add_argument(
        "--squeezing-db", type=float, help="squeezing in dB; e2t = 10^(dB/10)"
    )


def _add_common_flags(parser):
    parser.add_argument("--x", default="auto", help="noise strength (>= 0) or 'auto' (default)")
    parser.add_argument(
        "--excess", type=float, default=0.0, help="antisqueezed-quadrature noise excess (default 0)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
    )
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sepdist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribute", help="run the three-step distribution protocol")
    _add_squeezing_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--with-recovery",
        action="store_true",
        help="append the unit-gain recovery section to the report",
    )

    p = sub.add_parser("recover", help="run the gain-based recovery branch")
    _add_squeezing_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--gain",
        default="identity",
        help="electronic gain: 'identity' or four comma-separated reals g11,g12,g21,g22",
    )

    p = sub.add_parser("sweep", help="run the protocol over a geometric e^{2t} grid")
    p.add_argument("--e2t-start", type=float, default=1.1)
    p.add_argument("--e2t-stop", type=float, default=1e6)
    p.add_argument("--points", type=int, default=40)
    _add_common_flags(p)

    p = sub.add_parser("mc-validate", help="validate the analytic CMs by Monte Carlo")
    _add_squeezing_flags(p)
    _add_common_flags(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--sigma", type=float, default=3.0, help="per-entry standard-error budget")

    p = sub.add_parser("regression", help="recompute the built-in reference values")
    p.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
    )
    p.add_argument("--output", default=None)
    return parser


def _squeezing_t(args) -> float:
    try:
        e2t = args.e2t if args.e2t is not None else db_to_e2t(args.squeezing_db)
    except OverflowError:  # 10^(dB/10) beyond the largest double
        e2t = math.inf
    if not math.isfinite(e2t) or e2t <= 0.0:
        raise ValueError("e2t must be a finite positive number")
    if e2t < 1.0:
        raise ValueError("e2t must be >= 1 (antisqueezing is out of range)")
    return 0.5 * math.log(e2t)


def _parse_x(raw) -> float | str:
    if raw == "auto":
        return "auto"
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"--x must be 'auto' or a number, got {raw!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise ValueError("--x must be >= 0")
    return value


def _parse_excess(value: float) -> float:
    if not math.isfinite(value) or value < 0.0:
        raise ValueError("--excess must be >= 0")
    return value


def _params(args) -> ProtocolParams:
    """Validate the squeezing flag, --x and --excess, in that order."""
    t = _squeezing_t(args)
    x = _parse_x(args.x)
    return ProtocolParams(t=t, x=x, excess=_parse_excess(args.excess))


def _parse_gain(raw: str) -> np.ndarray:
    if raw == "identity":
        return np.eye(2)
    parts = raw.split(",")
    if len(parts) != 4:
        raise ValueError("--gain must be 'identity' or four comma-separated reals")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError("--gain entries must be numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError("--gain entries must be finite")
    return np.array(values).reshape(2, 2)


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _cm_payload(matrix: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(matrix)]


def _params_payload(params: ProtocolParams) -> dict:
    return {
        "t": params.t,
        "e2t": params.e2t,
        "squeezing_db": e2t_to_db(params.e2t),
        "x_policy": "auto" if params.x == "auto" else "manual",
        "x": params.resolved_x,
        "excess": params.excess,
    }


def _verdict_payload(step: int, verdict) -> dict:
    return {
        "step": step,
        "bipartition": verdict.bipartition,
        "criterion": verdict.criterion,
        "status": verdict.status,
        "witness": float(verdict.witness),
        "tolerance": verdict.tolerance,
    }


def _recovery_payload(recovery: RecoveryReport) -> dict:
    return {
        "gain": _cm_payload(recovery.gain),
        "cm": _cm_payload(recovery.cm.matrix),
        "nu_ac": recovery.nu_ac,
        "log_negativity": recovery.log_negativity,
        "purity_det": recovery.purity_det,
    }


def report_payload(report: ProtocolReport) -> dict:
    """JSON payload for a distribution report (the serialization contract)."""
    verdicts = []
    for step in report.steps:
        verdicts.extend(_verdict_payload(step.index, v) for v in step.verdicts)
    verdicts.append(_verdict_payload(3, report.carrier_sigma_verdict))
    verdicts.append(_verdict_payload(3, report.final_ab_verdict))
    return {
        "params": _params_payload(report.params),
        "steps": [
            {"index": s.index, "label": s.label, "cm": _cm_payload(s.cm.matrix)}
            for s in report.steps
        ],
        "verdicts": verdicts,
        "entanglement": {
            "construction_separable": report.construction_separable,
            "carrier_threshold": report.carrier_threshold,
            "carrier_separable": report.carrier_separable,
            "tau3": report.carrier_ppt_min,
            "omega3": report.sender_ppt_min,
            "sigma": report.carrier_sigma,
            "nu": report.nu,
            "log_negativity": report.log_negativity,
            "note": report.note,
        },
        "recovery": _recovery_payload(report.recovery) if report.recovery else None,
    }


def _report_text(report: ProtocolReport) -> str:
    params = report.params
    policy = " (auto)" if params.x == "auto" else ""
    lines = [
        f"distribution run: e2t={_fmt(params.e2t)}  t={_fmt(params.t)}  "
        f"x={_fmt(params.resolved_x)}{policy}  excess={_fmt(params.excess)}",
        f"carrier threshold x_sep={_fmt(report.carrier_threshold)}  "
        f"carrier separable: {'yes' if report.carrier_separable else 'NO'}",
    ]
    for step in report.steps:
        lines.append(f"step {step.index}: {step.label}")
        for verdict in step.verdicts:
            lines.append(
                f"  {verdict.bipartition:<7} {verdict.status:<10} witness={_fmt(verdict.witness)}"
            )
    lines.append(
        f"mixed-state PT minima: carrier={_fmt(report.carrier_ppt_min)}  "
        f"sender={_fmt(report.sender_ppt_min)}"
    )
    sv = report.carrier_sigma_verdict
    lines.append(f"carrier sigma after step 3: {_fmt(report.carrier_sigma)} -> {sv.status}")
    lines.append(
        f"final A-B: nu={_fmt(report.nu)}  log_negativity={_fmt(report.log_negativity)} ebits"
        f" [{report.final_ab_verdict.status}]"
    )
    if report.note:
        lines.append(f"note: {report.note}")
    if report.recovery:
        rec = report.recovery
        lines.append(
            f"recovery (unit gain): nu_ac={_fmt(rec.nu_ac)}  "
            f"log_negativity={_fmt(rec.log_negativity)}  purity_det={_fmt(rec.purity_det)}"
        )
    return "\n".join(lines)


def _cmd_distribute(args) -> Output:
    report = run_distribution_protocol(_params(args), include_recovery=args.with_recovery)
    record = report_payload(report)
    params, ent = record["params"], record["entanglement"]
    row = (params["e2t"], params["x"], *(ent[name] for name in SWEEP_CSV_HEADER[2:]))
    return Output(True, record, SWEEP_CSV_HEADER, [row], _report_text(report))


def _cmd_recover(args) -> Output:
    params = _params(args)
    report = run_recovery_protocol(params, _parse_gain(args.gain))
    record = {"params": _params_payload(params), "recovery": _recovery_payload(report)}
    rec = record["recovery"]
    header = ("e2t", "x", "g11", "g12", "g21", "g22", "nu_ac", "log_negativity", "purity_det")
    row = (
        record["params"]["e2t"],
        record["params"]["x"],
        *rec["gain"][0],
        *rec["gain"][1],
        rec["nu_ac"],
        rec["log_negativity"],
        rec["purity_det"],
    )
    text = "\n".join(
        [
            f"recovery run: e2t={_fmt(params.e2t)}  x={_fmt(params.resolved_x)}  "
            f"excess={_fmt(params.excess)}",
            f"gain = {np.array2string(report.gain, precision=6)}",
            f"nu_ac = {_fmt(report.nu_ac)}  (input two-mode value e^-2t = {_fmt(math.exp(-2 * params.t))})",
            f"log_negativity = {_fmt(report.log_negativity)} ebits",
            f"purity determinant = {_fmt(report.purity_det)}",
        ]
    )
    return Output(True, record, header, [row], text)


def _cmd_sweep(args) -> Output:
    x = _parse_x(args.x)
    excess = _parse_excess(args.excess)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    for value, name in ((args.e2t_start, "--e2t-start"), (args.e2t_stop, "--e2t-stop")):
        if not math.isfinite(value) or value < 1.0:
            raise ValueError(f"{name} must be >= 1")
    if args.points == 1:
        e2t_grid = np.array([args.e2t_start])
    else:
        e2t_grid = np.geomspace(args.e2t_start, args.e2t_stop, args.points)
    result = sweep(0.5 * np.log(e2t_grid), x_policy=x, excess=excess)
    rows = [(r.e2t, r.x, r.tau3, r.omega3, r.sigma, r.nu, r.log_negativity) for r in result.rows]
    record = {
        "rows": [dict(zip(SWEEP_CSV_HEADER, row)) for row in rows],
        "diagnostics": {
            "nu_strictly_decreasing": result.nu_strictly_decreasing,
            "final_nu": result.final_nu,
            "final_log_negativity": result.final_log_negativity,
        },
    }
    lines = ["  ".join(f"{h:>13}" for h in SWEEP_CSV_HEADER)]
    lines.extend("  ".join(f"{_fmt(v):>13}" for v in row) for row in rows)
    lines.append(
        f"nu strictly decreasing: {'yes' if result.nu_strictly_decreasing else 'NO'}"
        f"  final nu={_fmt(result.final_nu)}"
    )
    return Output(True, record, SWEEP_CSV_HEADER, rows, "\n".join(lines))


def _comparison_payload(name: str, comparison) -> dict:
    flagged = [[int(j), int(k)] for j, k in zip(*np.nonzero(comparison.flagged))]
    return {
        "target": name,
        "passed": comparison.passed,
        "max_deviation_sigma": float(comparison.deviations.max()),
        "flagged_entries": flagged,
    }


def _cmd_mc_validate(args) -> Output:
    params = _params(args)
    if args.samples < 1000:
        raise ValueError("--samples must be >= 1000")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if not math.isfinite(args.sigma) or args.sigma <= 0.0:
        raise ValueError("--sigma must be > 0")
    analytic = run_distribution_protocol(params, include_recovery=True)
    simulated = simulate_protocol(params, count=args.samples, seed=args.seed)
    final = compare_estimate(simulated.final, analytic.steps[2].cm, args.sigma)
    recovered = compare_estimate(simulated.recovered, analytic.recovery.cm, args.sigma)
    comparisons = (
        ("final", "final (3-mode)", final),
        ("recovered", "recovered (2-mode)", recovered),
    )
    passed = all(cmp_.passed for _, _, cmp_ in comparisons)
    record = {
        "params": _params_payload(params),
        "samples": args.samples,
        "seed": args.seed,
        "sigma": args.sigma,
        "comparisons": [_comparison_payload(name, cmp_) for name, _, cmp_ in comparisons],
        "passed": passed,
        "note": "21 (final) + 10 (recovered) independent entries share the per-entry budget;"
        " a fixed seed makes the outcome reproducible",
    }
    header = ("target", "entry_row", "entry_col", "deviation_sigma", "passed")
    rows = []
    lines = [
        f"mc validation: e2t={_fmt(params.e2t)}  x={_fmt(params.resolved_x)}  "
        f"samples={args.samples}  seed={args.seed}  budget={_fmt(args.sigma)} sigma"
    ]
    for name, label, cmp_ in comparisons:
        dim = cmp_.deviations.shape[0]
        rows.extend(
            (name, j, k, float(cmp_.deviations[j, k]), not bool(cmp_.flagged[j, k]))
            for j in range(dim)
            for k in range(j, dim)
        )
        status = "PASS" if cmp_.passed else "FAIL"
        lines.append(
            f"  {label:<18} max deviation {_fmt(cmp_.deviations.max())} sigma  [{status}]"
        )
        for j, k in zip(*np.nonzero(cmp_.flagged)):
            if j <= k:
                lines.append(
                    f"    entry ({j},{k}): {_fmt(cmp_.deviations[j, k])} sigma over budget"
                )
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return Output(passed, record, header, rows, "\n".join(lines))


def _regression_computed() -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], float] = {}

    report = run_distribution_protocol(ProtocolParams(t=0.5 * math.log(2.0)))
    values[("e2t=2", "nu")] = report.nu
    values[("e2t=2", "log_negativity")] = report.log_negativity
    values[("e2t=2", "sigma_check")] = report.carrier_sigma

    report = run_distribution_protocol(ProtocolParams(t=0.5 * math.log(10.0)))
    values[("e2t=10", "nu")] = report.nu
    values[("e2t=10", "log_negativity")] = report.log_negativity

    report = run_distribution_protocol(ProtocolParams(t=0.5 * math.log(2.0), excess=200.0))
    values[("e2t=2 excess=200", "log_negativity")] = report.log_negativity

    report = run_distribution_protocol(ProtocolParams(t=0.5 * math.log(1e6)))
    values[("e2t=1e6 (asymptote proxy)", "nu")] = report.nu
    values[("e2t=1e6 (asymptote proxy)", "log_negativity")] = report.log_negativity

    recovery = run_recovery_protocol(ProtocolParams(t=0.5 * math.log(2.0)))
    values[("recovery e2t=2", "nu_ac")] = recovery.nu_ac
    values[("recovery e2t=2", "purity_det")] = recovery.purity_det
    return values


def _cmd_regression(args) -> Output:
    computed = _regression_computed()
    header = ("case", "quantity", "expected", "computed", "abs_error", "tolerance", "passed")
    rows = []
    for case, quantity, expected, tolerance in REGRESSION_ROWS:
        value = computed[(case, quantity)]
        error = abs(value - expected)
        rows.append((case, quantity, expected, value, error, tolerance, error <= tolerance))
    passed = all(row[-1] for row in rows)
    lines = [
        f"{'case':<28} {'quantity':<16} {'expected':>12} {'computed':>12} {'tol':>8}  status"
    ]
    lines.extend(
        f"{case:<28} {quantity:<16} {_fmt(expected):>12} "
        f"{_fmt(value):>12} {_fmt(tolerance):>8}  {'PASS' if ok else 'FAIL'}"
        for case, quantity, expected, value, _, tolerance, ok in rows
    )
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    record = {"rows": [dict(zip(header, row)) for row in rows], "passed": passed}
    return Output(passed, record, header, rows, "\n".join(lines))


_HANDLERS = {
    "distribute": _cmd_distribute,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "mc-validate": _cmd_mc_validate,
    "regression": _cmd_regression,
}


def _render(fmt: str, output: Output) -> str:
    """The command's result in the requested format, ending in a newline."""
    if fmt == "json":
        return json.dumps(output.record, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(output.header)
        for row in output.rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        return buffer.getvalue()
    return output.text + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        # Overflow, an invalid operation or a division by zero means the
        # inputs reach beyond double precision; underflow to zero is benign.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            output = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"sepdist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"sepdist: error: inputs out of the double-precision range ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"sepdist: consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    text = _render(args.fmt, output)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"sepdist: error: cannot write --output {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if output.passed else EXIT_CONSISTENCY


if __name__ == "__main__":
    raise SystemExit(main())
