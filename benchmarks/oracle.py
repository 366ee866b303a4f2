"""Output oracle for the sepdist benchmark, independent of sepdist.

Nothing here imports sepdist or its tests.  Symplectic eigenvalues come from
the numpy ``eigvals`` route: the eigenvalues of Omega @ cm are +-i s_j, so the
moduli of their imaginary parts, one per pair, are the spectrum.  The
protocol's covariance matrices (CMs) are rebuilt here from the physics of the
three steps: two squeezed modes and a vacuum, a rank-2 correlated
displacement, and two balanced beam splitters.

Each function in ``CHECKS`` takes the argv the benchmark sent and the
captured exit code and stdout, and returns ``None`` when the output agrees
with the oracle or a one-line reason when it does not.
``known_false_rejection`` then tells sepdist's known false physicality
rejection apart from other error exits.

Tolerances scale with the largest symplectic eigenvalue s_max of the matrix
under test: entry rounding moves every symplectic eigenvalue by about
eps * s_max, and ``RESOLUTION_SAFETY`` is the allowance on top of that for the
two independent computations being compared.  It is fixed, not fitted to
the workloads.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re

import numpy as np

EPS = float(np.finfo(float).eps)

#: Allowance, in units of eps * s_max, for the difference between two
#: backward-stable spectrum computations on the same matrix.
RESOLUTION_SAFETY = 1000.0

#: Entrywise agreement of reported CMs with the rebuilt ones, in units of
#: eps * (largest entry); a handful of roundings per entry in 6x6 products.
CM_SAFETY = 64.0

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I = np.eye(2)


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), _J)


def symplectic_spectrum(cm: np.ndarray) -> np.ndarray:
    """Ascending symplectic eigenvalues of ``cm`` via eigvals of Omega @ cm."""
    n = cm.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(omega(n) @ cm).imag))
    return moduli[1::2]


def partial_transpose(cm: np.ndarray, mode: int) -> np.ndarray:
    signs = np.ones(cm.shape[0])
    signs[2 * mode + 1] = -1.0
    return cm * np.outer(signs, signs)


def pt_spectrum(cm: np.ndarray, mode: int) -> np.ndarray:
    return symplectic_spectrum(partial_transpose(cm, mode))


def resolution(s_max: float) -> float:
    return RESOLUTION_SAFETY * EPS * max(1.0, s_max)


def reduce_modes(cm: np.ndarray, modes) -> np.ndarray:
    rows = [q for m in modes for q in (2 * m, 2 * m + 1)]
    return cm[np.ix_(rows, rows)]


def beam_splitter(n_modes: int, i: int, j: int) -> np.ndarray:
    """Balanced splitter sending mode i to (i + j)/sqrt 2 and mode j to (i - j)/sqrt 2."""
    h = 1.0 / math.sqrt(2.0)
    s = np.eye(2 * n_modes)
    for (r, c), sign in (((i, i), 1.0), ((i, j), 1.0), ((j, i), 1.0), ((j, j), -1.0)):
        s[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = sign * h * _I
    return s


def _mixing_frame_noise() -> np.ndarray:
    # Unit-strength displacement covariance in the frame after the A-C
    # splitter: a Gram sum of two dyads that cancels the outer modes'
    # two-mode squeezing correlations.
    d1 = np.array([0.0, -1.0, 0.0, 2.0, 0.0, -1.0])
    d2 = np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])
    return np.outer(d1, d1) + np.outer(d2, d2)


def protocol_cms(e2t: float, x: float, excess: float) -> tuple[np.ndarray, ...]:
    """CMs after steps 1, 2 and 3, step 2 and 3 in closed block form."""
    wide, narrow = e2t + excess, 1.0 / e2t
    bs_ac = beam_splitter(3, 0, 2)
    step1 = np.diag([wide, narrow, 1.0, 1.0, narrow, wide])
    step1 = step1 + x * (bs_ac.T @ _mixing_frame_noise() @ bs_ac)
    # Balanced mixing of the two squeezed modes gives a two-mode squeezed
    # pair with cosh/sinh blocks; the excess spreads evenly over both.
    a = (e2t + narrow) / 2.0 + excess / 2.0 + x
    b = (e2t - narrow) / 2.0 + excess / 2.0 - x
    step2 = np.block(
        [
            [a * _I, 2.0 * x * _Z, b * _Z],
            [2.0 * x * _Z, (1.0 + 4.0 * x) * _I, -2.0 * x * _I],
            [b * _Z, -2.0 * x * _I, a * _I],
        ]
    )
    r2 = math.sqrt(2.0)
    step3 = np.block(
        [
            [a * _I, (2.0 * x + b) / r2 * _Z, (2.0 * x - b) / r2 * _Z],
            [(2.0 * x + b) / r2 * _Z, (1.0 + a) / 2.0 * _I, (1.0 + 4.0 * x - a) / 2.0 * _I],
            [(2.0 * x - b) / r2 * _Z, (1.0 + 4.0 * x - a) / 2.0 * _I, (1.0 + 8.0 * x + a) / 2.0 * _I],
        ]
    )
    return step1, step2, step3


def _flags(argv: list[str]) -> dict[str, str | bool]:
    flags: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags[name] = argv[i + 1]
            i += 2
        else:
            flags[name] = True
            i += 1
    return flags


def _close(label: str, got: float, want: float, atol: float) -> str | None:
    if not abs(got - want) <= atol:
        return f"{label}: reported {got!r}, oracle {want!r} (atol {atol:.2e})"
    return None


def _cm_close(label: str, got, want: np.ndarray) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape}, expected {want.shape}"
    atol = CM_SAFETY * EPS * max(1.0, float(np.abs(want).max()))
    defect = float(np.abs(got - want).max())
    if not defect <= atol:
        return f"{label}: entries differ by {defect:.2e} (atol {atol:.2e})"
    return None


def _pt_min_close(label: str, got: float, cm: np.ndarray, mode: int) -> str | None:
    spectrum = pt_spectrum(cm, mode)
    return _close(label, got, float(spectrum[0]), resolution(float(spectrum[-1])))


def _log_negativity_close(label: str, got: float, nu: float, s_max: float) -> str | None:
    band = resolution(s_max)
    if nu < 1.0 - band:
        return _close(label, got, -math.log2(nu), band / (nu * math.log(2.0)))
    if nu > 1.0 + band:
        return _close(label, got, 0.0, 0.0)
    return None


def _resolved_x(flags, e2t: float) -> float:
    return float(flags["x"]) if "x" in flags else (e2t - 1.0) / 2.0


def check_distribute(argv: list[str], code: int, stdout: str) -> str | None:
    """Check ``distribute --format json`` against the oracle.

    Every generated input is a physical state by construction, so the only
    correct outcome is exit 0 with a report.
    """
    if code != 0:
        return f"exit {code} on a physical input"
    report = json.loads(stdout)
    params, ent = report["params"], report["entanglement"]
    cms = [np.array(step["cm"], dtype=float) for step in report["steps"]]
    flags = _flags(argv)
    e2t = float(flags["e2t"])
    excess = float(flags.get("excess", 0.0))
    x = _resolved_x(flags, e2t)
    want = protocol_cms(e2t, x, excess)
    problems = [
        _close("e2t", params["e2t"], e2t, 1e-12 * e2t),
        _close("x", params["x"], x, 1e-12 * max(1.0, x)),
        _close("excess", params["excess"], excess, 0.0),
    ]
    if len(cms) != 3:
        return f"expected 3 steps, got {len(cms)}"
    problems += [_cm_close(f"step {i + 1} cm", cms[i], want[i]) for i in range(3)]
    problems.append(_pt_min_close("tau3", ent["tau3"], cms[1], 2))
    problems.append(_pt_min_close("omega3", ent["omega3"], cms[1], 0))
    pair = reduce_modes(cms[2], (0, 1))
    pair_spectrum = pt_spectrum(pair, 1)
    problems.append(_pt_min_close("nu", ent["nu"], pair, 1))
    problems.append(
        _log_negativity_close("log_negativity", ent["log_negativity"], ent["nu"], pair_spectrum[-1])
    )
    if flags.get("with-recovery"):
        recovery = report["recovery"]
        if recovery is None:
            return "recovery section missing"
        rec_cm = np.array(recovery["cm"], dtype=float)
        problems.append(_pt_min_close("nu_ac", recovery["nu_ac"], rec_cm, 1))
        # Unit gain cancels the carrier noise and restores e^{-2t}.
        atol = resolution(pt_spectrum(rec_cm, 1)[-1])
        problems.append(_close("nu_ac closed form", recovery["nu_ac"], 1.0 / e2t, atol))
    elif report.get("recovery") is not None:
        problems.append("recovery section present without --with-recovery")
    return next((p for p in problems if p), None)


def _sweep_grid(start: float, stop: float, points: int) -> np.ndarray:
    """The geometric e^{2t} grid the sweep promises."""
    return np.array([start]) if points == 1 else np.geomspace(start, stop, points)


def _sigma_close(label: str, got: float, cm: np.ndarray, mode: int) -> str | None:
    # Product of (s_j^2 - 1) over the PT spectrum; its first-order rounding
    # resolution is sum_j 2 s_j u prod_{k != j} |s_k^2 - 1|.
    spectrum = pt_spectrum(cm, mode)
    factors = spectrum**2 - 1.0
    u = resolution(float(spectrum[-1]))
    atol = sum(
        2.0 * spectrum[j] * u * float(np.prod(np.abs(np.delete(factors, j))))
        for j in range(spectrum.size)
    )
    return _close(label, got, float(np.prod(factors)), atol)


def check_sweep(argv: list[str], code: int, stdout: str) -> str | None:
    """Check ``sweep --format csv`` rows against CMs rebuilt in closed form."""
    if code != 0:
        return f"exit {code} on a physical grid"
    flags = _flags(argv)
    grid = _sweep_grid(float(flags["e2t-start"]), float(flags["e2t-stop"]), int(flags["points"]))
    values = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(stdout))]
    if len(values) != grid.size:
        return f"expected {grid.size} rows, got {len(values)}"
    for i, (row, e2t) in enumerate(zip(values, grid)):
        if set(row) != {"e2t", "x", "tau3", "omega3", "sigma", "nu", "log_negativity"}:
            return f"row {i}: columns {sorted(row)}"
        x = (e2t - 1.0) / 2.0
        _, step2, step3 = protocol_cms(e2t, x, 0.0)
        pair = reduce_modes(step3, (0, 1))
        pair_s_max = pt_spectrum(pair, 1)[-1]
        problems = (
            _close("e2t", row["e2t"], e2t, 1e-12 * e2t),
            _close("x", row["x"], x, 1e-12 * max(1.0, x)),
            _pt_min_close("tau3", row["tau3"], step2, 2),
            _pt_min_close("omega3", row["omega3"], step2, 0),
            _sigma_close("sigma", row["sigma"], step3, 2),
            _pt_min_close("nu", row["nu"], pair, 1),
            _log_negativity_close("log_negativity", row["log_negativity"], row["nu"], pair_s_max),
        )
        problem = next((p for p in problems if p), None)
        if problem:
            return f"row {i} (e2t={e2t!r}): {problem}"
    return None


def check_mc_validate(argv: list[str], code: int, stdout: str) -> str | None:
    """Check that ``mc-validate`` verdicts agree with the reported deviations.

    A statistical miss (a deviation over budget) is a correct outcome with
    exit 2; only a verdict or exit code that contradicts the numbers fails.
    """
    if code not in (0, 2) or not stdout:
        return f"exit {code} without a report"
    flags = _flags(argv)
    report = json.loads(stdout)
    sigma, comparisons, overall = float(report["sigma"]), report["comparisons"], report["passed"]
    targets = [c["target"] for c in comparisons]
    if targets != ["final", "recovered"]:
        return f"comparison targets {targets}"
    if sigma != float(flags.get("sigma", 3.0)) or report["samples"] != int(flags["samples"]):
        return "echoed sigma or samples differ from the request"
    for c in comparisons:
        within = c["max_deviation_sigma"] <= sigma
        if c["passed"] is not within:
            return f"{c['target']}: passed={c['passed']} but max deviation {c['max_deviation_sigma']!r}"
        if bool(c["flagged_entries"]) is within:
            return f"{c['target']}: flagged entries disagree with passed={c['passed']}"
    if overall is not all(c["passed"] for c in comparisons):
        return f"overall passed={overall} disagrees with the comparisons"
    if code != (0 if overall else 2):
        return f"exit {code} with passed={overall}"
    return None


#: The stderr line of sepdist's physicality rejection, naming the step.
_NOT_PHYSICAL = re.compile(r"sepdist: consistency failure: step ([123]) CM is not physical")


def _is_physical(cm: np.ndarray) -> bool:
    spectrum = symplectic_spectrum(cm)
    return bool(spectrum[0] >= 1.0 - resolution(float(spectrum[-1])))


def known_false_rejection(argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """Name the known false physicality rejection, or return ``None``.

    sepdist tests physicality with a fixed tolerance of 1e-9 while rounding
    grows with eps * s_max, so at large e^{2t} or x it exits 2 with "step N
    CM is not physical" on states that are physical by construction.  That
    outcome is this known defect only when nothing was printed, stderr is
    exactly that line, and the oracle finds the rebuilt step-N CM physical
    for every e^{2t} the request covers.  Anything else stays a failed op.
    """
    match = _NOT_PHYSICAL.fullmatch(stderr.strip())
    if code != 2 or stdout or match is None or argv[0] not in ("distribute", "sweep"):
        return None
    step = int(match.group(1))
    flags = _flags(argv)
    if argv[0] == "distribute":
        grid = [float(flags["e2t"])]
    else:
        grid = _sweep_grid(float(flags["e2t-start"]), float(flags["e2t-stop"]), int(flags["points"]))
    excess = float(flags.get("excess", 0.0))
    for e2t in grid:
        if not _is_physical(protocol_cms(e2t, _resolved_x(flags, e2t), excess)[step - 1]):
            return None
    return f"false rejection: step {step} CM is physical"


def _parse_guarded(check):
    # Output that lacks a field or holds a non-number is a failed op, not a
    # crash of the benchmark.
    @functools.wraps(check)
    def guarded(argv: list[str], code: int, stdout: str) -> str | None:
        try:
            return check(argv, code, stdout)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unparseable output: {exc!r}"

    return guarded


CHECKS = {
    "distribute": _parse_guarded(check_distribute),
    "sweep": _parse_guarded(check_sweep),
    "mc-validate": _parse_guarded(check_mc_validate),
}
