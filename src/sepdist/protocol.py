"""End-to-end pipelines for entanglement distribution with a separable carrier.

The distribution protocol runs in three steps on modes A (sender), B
(receiver) and C (carrier):

1. Locally prepare a momentum-squeezed mode A, a position-squeezed mode C and
   a vacuum mode B, then apply random correlated displacements.  The result
   is fully separable by construction (product state plus PSD noise).
2. Mix A and C on a balanced beam splitter.  A becomes entangled with (BC),
   while B stays separable from (AC) and, for noise at or above the
   threshold, C stays separable from (AB).
3. Send C to the receiver, who mixes it with B on a second balanced beam
   splitter.  A and B end up entangled even though the transmitted mode C was
   separable from the rest throughout.

The recovery variant replaces step 3 by a classical feed-forward displacement
of C with an electronic gain matrix; unit gain restores the full two-mode
squeezing entanglement between A and C.

A single run and a sweep share one batched core: the three step CMs of N
runs are built as (N, 6, 6) stacks, cross-checked against their closed forms
and checked physical together, and their spectra come from two stacked
kernel calls, 13 spectra per run (3 steps, their 9 single-mode partial
transposes, and the final A-B transpose).  A single run is the case N = 1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    apply_symplectic,
    balanced_beam_splitter,
    direct_sum,
    displacement_noise_model,
    reduce_modes,
    squeezed_vacuum_cm,
)
from .symplectic import (
    SEPARABILITY_TOL,
    CovarianceMatrix,
    SeparabilityVerdict,
    _eigenvalue_resolution,
    _ppt_classified,
    _sigma_classified,
    _symmetrised,
    log_negativity,
    ppt_verdict,
    symplectic_eigenvalues,
)

__all__ = [
    "MODE_SENDER",
    "MODE_RECEIVER",
    "MODE_CARRIER",
    "ConsistencyError",
    "ProtocolParams",
    "StepReport",
    "RecoveryReport",
    "ProtocolReport",
    "SweepRow",
    "SweepResult",
    "separability_threshold",
    "carrier_ppt_eigenvalue",
    "sender_ppt_eigenvalue",
    "run_distribution_protocol",
    "run_recovery_protocol",
    "receiver_output_equivalence",
    "sweep",
]

MODE_SENDER, MODE_RECEIVER, MODE_CARRIER = 0, 1, 2

_STEP_LABELS = (
    "local preparation",
    "sender beam splitter",
    "receiver beam splitter",
)

_NO_ENTANGLEMENT_NOTE = "no distillable Gaussian entanglement witnessed by PPT"


class ConsistencyError(RuntimeError):
    """An internal cross-check of the pipeline failed; results are not trustworthy."""


@dataclass(frozen=True)
class ProtocolParams:
    """Run parameters: squeezing t >= 0, noise strength x (or "auto"), noise excess.

    x = "auto" resolves to the separability threshold (e^{2t} - 1)/2, the
    operating point at which the carrier is exactly marginally separable.
    """

    t: float
    x: float | str = "auto"
    excess: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError("squeezing parameter t must be a finite nonnegative real")
        if isinstance(self.x, str):
            if self.x != "auto":
                raise ValueError("x must be a nonnegative real or 'auto'")
        elif not np.isfinite(self.x) or self.x < 0.0:
            raise ValueError("x must be a nonnegative real or 'auto'")
        if not np.isfinite(self.excess) or self.excess < 0.0:
            raise ValueError("noise excess must be a finite nonnegative real")

    @property
    def e2t(self) -> float:
        return math.exp(2.0 * self.t)

    @property
    def resolved_x(self) -> float:
        return separability_threshold(self.t) if self.x == "auto" else float(self.x)


@dataclass(frozen=True)
class StepReport:
    """State and separability verdicts after one protocol step."""

    index: int
    label: str
    cm: CovarianceMatrix
    verdicts: tuple[SeparabilityVerdict, ...]


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of the feed-forward recovery branch."""

    gain: np.ndarray
    cm: CovarianceMatrix
    nu_ac: float
    log_negativity: float
    purity_det: float


@dataclass(frozen=True)
class ProtocolReport:
    """Step-indexed record of a full distribution run.

    `carrier_ppt_min` and `sender_ppt_min` are the lowest partial-transpose
    eigenvalues of the mixed state for the C-(AB) and A-(BC) splits, measured
    on the actual CM (they match the closed forms whenever excess = 0).
    `log_negativity` quantifies witnessed A-B entanglement and is exactly 0
    when the final verdict is not "entangled"; `note` records that convention
    when it applies.
    """

    params: ProtocolParams
    steps: tuple[StepReport, ...]
    construction_separable: bool
    carrier_threshold: float
    carrier_separable: bool
    carrier_ppt_min: float
    sender_ppt_min: float
    carrier_sigma: float
    carrier_sigma_verdict: SeparabilityVerdict
    final_ab: CovarianceMatrix
    final_ab_verdict: SeparabilityVerdict
    nu: float
    log_negativity: float
    note: str | None
    recovery: RecoveryReport | None


@dataclass(frozen=True)
class SweepRow:
    e2t: float
    x: float
    tau3: float
    omega3: float
    sigma: float
    nu: float
    log_negativity: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    nu_strictly_decreasing: bool
    final_nu: float
    final_log_negativity: float


def separability_threshold(t: float) -> float:
    """Minimum noise strength (e^{2t} - 1)/2 that makes the carrier separable."""
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("squeezing parameter t must be >= 0")
    return math.expm1(2.0 * t) / 2.0


def carrier_ppt_eigenvalue(t: float, x: float) -> float:
    """Closed-form threshold eigenvalue for the C-(AB) split of the mixed state.

    Algebraically equal to (sqrt((1 + 6x + m)^2 - 32x^2) - (1 + 2x - m)) / 2
    with m = e^{-2t}, but evaluated in a rationalized form that stays accurate
    at large squeezing where the direct subtraction cancels.

    This is the root of the PT characteristic cubic that crosses 1 exactly at
    the separability threshold.  The transposed spectrum also contains a
    spectator root at e^{2t}, so the returned value is the *lowest* eigenvalue
    whenever it does not exceed e^{2t}: everywhere for e^{2t} >= 2, and up to
    well above the threshold otherwise.  It saturates at 1 + 2 e^{-2t} as
    x grows.
    """
    _check_t_x(t, x)
    m = math.exp(-2.0 * t)
    root8 = 4.0 * math.sqrt(2.0)
    radicand = (1.0 + (6.0 - root8) * x + m) * (1.0 + (6.0 + root8) * x + m)
    numerator = 2.0 * (2.0 * x + m + 4.0 * m * x)
    return numerator / (math.sqrt(radicand) + 1.0 + 2.0 * x - m)


def sender_ppt_eigenvalue(t: float, x: float) -> float:
    """Closed-form lowest PT eigenvalue for the A-(BC) split of the mixed state.

    Below 1 for any t > 0 and x > 0, certifying that the sender's mode is
    entangled with the pair (BC) before the carrier travels.  Shares the
    rationalized numerator of `carrier_ppt_eigenvalue`.
    """
    _check_t_x(t, x)
    m = math.exp(-2.0 * t)
    u = 1.0 + 6.0 * x + m
    d = 1.0 + 2.0 * x - m
    numerator = 2.0 * (2.0 * x + m + 4.0 * m * x)
    return numerator / (u + math.sqrt(d * d + 32.0 * x * x))


def _check_t_x(t: float, x: float) -> None:
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("squeezing parameter t must be >= 0")
    if x < 0.0 or not np.isfinite(x):
        raise ValueError("noise strength x must be >= 0")


def _mixed_state_blocks(t, x, excess):
    # Diagonal and coupling scalars of the post-splitter state; excess spreads
    # evenly over both quadratures after balanced mixing.  Elementwise.
    a = np.cosh(2.0 * t) + excess / 2.0 + x
    b = np.sinh(2.0 * t) + excess / 2.0 - x
    return a, b


def _block_form(coefficients: list[list]) -> np.ndarray:
    # The three-mode CM whose 2x2 block (j, k) is coefficients[j][k] times the
    # identity, or times SIGMA_Z where it couples mode A to another mode: the
    # partial transpose at A of the all-identity block form.  Elementwise over
    # the coefficients' common shape (...); returns shape (..., 6, 6).
    c = np.stack(np.broadcast_arrays(*(v for row in coefficients for v in row)), axis=-1)
    c = c.reshape(c.shape[:-1] + (3, 3))
    identity_blocks = c[..., :, None, :, None] * np.eye(2)[:, None, :]
    sender_flip = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    return identity_blocks.reshape(c.shape[:-2] + (6, 6)) * np.outer(sender_flip, sender_flip)


def _mixed_state_explicit(t, x, excess) -> np.ndarray:
    a, b = _mixed_state_blocks(t, x, excess)
    return _block_form(
        [
            [a, 2.0 * x, b],
            [2.0 * x, 1.0 + 4.0 * x, -2.0 * x],
            [b, -2.0 * x, a],
        ]
    )


def _final_state_explicit(t, x, excess) -> np.ndarray:
    a, b = _mixed_state_blocks(t, x, excess)
    s2 = math.sqrt(2.0)
    return _block_form(
        [
            [a, (2.0 * x + b) / s2, (2.0 * x - b) / s2],
            [(2.0 * x + b) / s2, (1.0 + a) / 2.0, (1.0 + 4.0 * x - a) / 2.0],
            [(2.0 * x - b) / s2, (1.0 + 4.0 * x - a) / 2.0, (1.0 + 8.0 * x + a) / 2.0],
        ]
    )


def _gated_log_negativity(nu: float, verdict: SeparabilityVerdict) -> tuple[float, str | None]:
    # Report nonzero entanglement only when the PPT verdict actually
    # witnesses it; keeps boundary runs (e.g. t = 0) at exactly zero.
    if verdict.entangled:
        return log_negativity(nu), None
    return 0.0, _NO_ENTANGLEMENT_NOTE


@functools.cache
def _pipeline() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant matrices of the distribution pipeline, built on first use.

    The local-frame noise base, the sender and receiver beam splitters, the
    sign patterns of the partial transposes at modes A, B and C, and that of
    the final two-mode (A, B) state transposed at B.
    """
    base = displacement_noise_model(0.0).base
    splitter_ac = balanced_beam_splitter(3, MODE_SENDER, MODE_CARRIER).matrix
    splitter_bc = balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER).matrix
    signs = np.ones((3, 6))
    signs[[0, 1, 2], [1, 3, 5]] = -1.0
    flips = signs[:, :, None] * signs[:, None, :]
    flips.flags.writeable = False
    return base, splitter_ac, splitter_bc, flips, flips[MODE_RECEIVER, :4, :4]


class _Batch(NamedTuple):
    """States and spectra of N distribution runs that passed every check."""

    steps: np.ndarray  # (N, 3, 6, 6): the CM after each step
    spectra: np.ndarray  # (N, 3, 3, 3): step, transposed mode, PT spectrum
    final_ab: np.ndarray  # (N, 2): spectrum of the (A, B) state transposed at B

    def outputs(self, i: int, tol: float) -> tuple[SeparabilityVerdict, SeparabilityVerdict]:
        """Run i's carrier sigma verdict after step 3 and its final A-B PPT verdict."""
        return (
            _sigma_classified(self.spectra[i, 2, MODE_CARRIER], MODE_CARRIER, tol),
            _ppt_classified(self.final_ab[i], MODE_RECEIVER, tol),
        )


#: A vectorized check: failure mask over the runs, and the message of run i.
_Check = tuple[np.ndarray, Callable[[int], str]]


def _matrix_check(label: str, got: np.ndarray, want: np.ndarray) -> _Check:
    scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
    defect = np.abs(got - want).max(axis=(-2, -1))
    return defect > 1e-10 * scale, lambda i: f"{label} differs from closed form by {defect[i]:.2e}"


def _value_check(
    label: str, got: np.ndarray, want: np.ndarray, atol: np.ndarray, active: np.ndarray
) -> _Check:
    return active & (np.abs(got - want) > atol), lambda i: (
        f"{label}: {float(got[i])!r} vs {float(want[i])!r} (atol {atol[i]:.1e})"
    )


def _distribution_batch(runs: Sequence[ProtocolParams], tol: float) -> _Batch:
    """Steps 1-3 of every run as stacks, checked, with their spectra.

    Each stack is built with the same floating-point operations as the
    single-CM constructors (squeezed diagonals, plus x times the noise base,
    S cm S^T, symmetrised) and validated like a CovarianceMatrix.  One kernel
    call takes the spectra of the 3 step CMs and their 9 single-mode partial
    transposes; a second takes the final A-B transpose.  The step-2 carrier
    and sender spectra serve both the closed-form cross-checks and the
    verdicts.  A failing check raises ConsistencyError for the first failing
    run, on its first failing check in the order: mixed state, final state,
    step 1/2/3 physical, carrier threshold root, carrier PT eigenvalue,
    sender PT eigenvalue.
    """
    base, splitter_ac, splitter_bc, flips, ab_flip = _pipeline()
    n = len(runs)
    t = np.array([run.t for run in runs])
    x = np.array([run.resolved_x for run in runs])
    excess = np.array([run.excess for run in runs])

    wide = np.exp(2.0 * t) + excess
    narrow = np.exp(-2.0 * t)
    product = np.zeros((n, 6, 6))
    diagonal = np.arange(6)
    ones = np.ones(n)
    product[:, diagonal, diagonal] = np.stack([wide, narrow, ones, ones, narrow, wide], axis=-1)
    step1 = _symmetrised(product + x[:, None, None] * base)
    step2 = _symmetrised(splitter_ac @ step1 @ splitter_ac.T)
    step3 = _symmetrised(splitter_bc @ step2 @ splitter_bc.T)
    steps = np.stack([step1, step2, step3], axis=1)

    transposed = (steps[:, :, None] * flips).reshape(n, 9, 6, 6)
    spectra = symplectic_eigenvalues(np.concatenate([steps, transposed], axis=1))
    own, pt = spectra[:, :3], spectra[:, 3:].reshape(n, 3, 3, 3)
    physical = own[..., 0] >= 1.0 - np.maximum(tol, _eigenvalue_resolution(own[..., -1]))

    carrier, sender = pt[:, 1, MODE_CARRIER], pt[:, 1, MODE_SENDER]
    carrier_closed = np.array([carrier_ppt_eigenvalue(run.t, run.resolved_x) for run in runs])
    sender_closed = np.array([sender_ppt_eigenvalue(run.t, run.resolved_x) for run in runs])
    e2t = np.array([run.e2t for run in runs])
    carrier_atol = _eigenvalue_resolution(carrier[:, -1])
    exact = excess == 0.0
    checks: list[_Check] = [
        _matrix_check("mixed state", step2, _mixed_state_explicit(t, x, excess)),
        _matrix_check("final state", step3, _final_state_explicit(t, x, excess)),
        *(
            (~physical[:, k], lambda i, label=label: f"{label} CM is not physical")
            for k, label in enumerate(("step 1", "step 2", "step 3"))
        ),
        _value_check(
            "carrier threshold root",
            np.abs(carrier - carrier_closed[:, None]).min(axis=1),
            np.zeros(n),
            carrier_atol,
            exact,
        ),
        # The transposed carrier spectrum carries a spectator root at e^{2t};
        # the minimum is whichever of it and the threshold root is smaller.
        _value_check(
            "carrier PT eigenvalue",
            carrier[:, 0],
            np.minimum(carrier_closed, e2t),
            carrier_atol,
            exact,
        ),
        _value_check(
            "sender PT eigenvalue",
            sender[:, 0],
            sender_closed,
            _eigenvalue_resolution(sender[:, -1]),
            exact,
        ),
    ]
    failed = np.array([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        raise ConsistencyError(checks[int(np.argmax(failed[:, i]))][1](i))

    final_ab = symplectic_eigenvalues(steps[:, 2, :4, :4] * ab_flip)
    return _Batch(steps, pt, final_ab)


def run_distribution_protocol(
    params: ProtocolParams,
    include_recovery: bool = False,
    gain: np.ndarray | None = None,
    tol: float = SEPARABILITY_TOL,
) -> ProtocolReport:
    """Run the three-step distribution pipeline and collect all verdicts.

    Every stored CM is verified physical and the beam-splitter outputs are
    cross-checked entrywise against their closed block forms; any mismatch
    raises ConsistencyError since it can only come from an implementation
    defect.  This is the batched core of `sweep` with one run.
    """
    batch = _distribution_batch((params,), tol)
    steps = tuple(
        StepReport(
            index=k + 1,
            label=_STEP_LABELS[k],
            cm=CovarianceMatrix(batch.steps[0, k]),
            verdicts=tuple(_ppt_classified(batch.spectra[0, k, m], m, tol) for m in range(3)),
        )
        for k in range(3)
    )
    carrier_sigma_verdict, final_ab_verdict = batch.outputs(0, tol)
    nu = final_ab_verdict.witness
    en, note = _gated_log_negativity(nu, final_ab_verdict)

    carrier_step2 = steps[1].verdicts[MODE_CARRIER]
    recovery = run_recovery_protocol(params, gain) if include_recovery else None
    return ProtocolReport(
        params=params,
        steps=steps,
        construction_separable=True,
        carrier_threshold=separability_threshold(params.t),
        carrier_separable=not carrier_step2.entangled,
        carrier_ppt_min=float(batch.spectra[0, 1, MODE_CARRIER, 0]),
        sender_ppt_min=float(batch.spectra[0, 1, MODE_SENDER, 0]),
        carrier_sigma=carrier_sigma_verdict.witness,
        carrier_sigma_verdict=carrier_sigma_verdict,
        final_ab=CovarianceMatrix(batch.steps[0, 2, :4, :4]),
        final_ab_verdict=final_ab_verdict,
        nu=nu,
        log_negativity=en,
        note=note,
        recovery=recovery,
    )


def run_recovery_protocol(
    params: ProtocolParams, gain: np.ndarray | None = None, tol: float = SEPARABILITY_TOL
) -> RecoveryReport:
    """Recovery branch: displace the carrier with an electronic gain matrix.

    The sender's side is unchanged (squeezed modes, correlated displacements,
    balanced mixing); the receiver applies his communicated displacement to
    the carrier directly, scaled by `gain`.  The two-mode CM of (A, C) is
    assembled from the transformed quadratures:

        A_out = (A + displacement_A + C + displacement_C) / sqrt(2)
        C_out = (A + displacement_A - C - displacement_C) / sqrt(2) + G @ displacement_B

    so the quantum part mixes on the splitter while the classical part also
    picks up the gain-scaled middle-mode displacement.  Unit gain cancels the
    carrier's noise block and restores the input two-mode squeezing
    eigenvalue e^{-2t}; purity is not restored, which shows up in the
    determinant.
    """
    if gain is None:
        gain = np.eye(2)
    gain = np.array(gain, dtype=float)
    if gain.shape != (2, 2) or not np.all(np.isfinite(gain)):
        raise ValueError("gain must be a finite 2x2 real matrix")
    x = params.resolved_x
    quantum = direct_sum(
        squeezed_vacuum_cm(params.t, "momentum", params.excess),
        squeezed_vacuum_cm(params.t, "position", params.excess),
    )
    mixer = balanced_beam_splitter(2, 0, 1).matrix
    h = 1.0 / math.sqrt(2.0)
    classical = np.zeros((4, 6))
    classical[0:2, 0:2] = h * np.eye(2)
    classical[0:2, 4:6] = h * np.eye(2)
    classical[2:4, 0:2] = h * np.eye(2)
    classical[2:4, 4:6] = -h * np.eye(2)
    classical[2:4, 2:4] = gain
    noise = displacement_noise_model(x).matrix()
    cm = CovarianceMatrix(mixer @ quantum.matrix @ mixer.T + classical @ noise @ classical.T)
    verdict = ppt_verdict(cm, 1, tol)
    en, _ = _gated_log_negativity(verdict.witness, verdict)
    return RecoveryReport(
        gain=gain,
        cm=cm,
        nu_ac=verdict.witness,
        log_negativity=en,
        purity_det=float(np.linalg.det(cm.matrix)),
    )


def receiver_output_equivalence(params: ProtocolParams, tol: float = 1e-10) -> bool:
    """Check that the receiver's output equals optimal recovery mixed with vacuum.

    Builds the reduced (A, B) state twice: once from the full distribution
    pipeline, once by taking the unit-gain recovered pair (A, C), appending a
    vacuum mode and splitting the recovered mode on a balanced beam splitter.
    Returns True when the two CMs agree entrywise within `tol` (relative to
    the largest entry).
    """
    report = run_distribution_protocol(params)
    direct = reduce_modes(report.steps[2].cm, (MODE_SENDER, MODE_RECEIVER))

    recovered = run_recovery_protocol(params, gain=np.eye(2)).cm
    embedded = np.eye(6)
    embedded[0:2, 0:2] = recovered.matrix[0:2, 0:2]
    embedded[0:2, 4:6] = recovered.matrix[0:2, 2:4]
    embedded[4:6, 0:2] = recovered.matrix[2:4, 0:2]
    embedded[4:6, 4:6] = recovered.matrix[2:4, 2:4]
    mixed = apply_symplectic(
        CovarianceMatrix(embedded), balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER)
    )
    via_recovery = reduce_modes(mixed, (MODE_SENDER, MODE_RECEIVER))

    scale = max(1.0, float(np.abs(direct.matrix).max()))
    return float(np.abs(direct.matrix - via_recovery.matrix).max()) <= tol * scale


def sweep(
    t_grid: np.ndarray, x_policy: float | str = "auto", excess: float = 0.0
) -> SweepResult:
    """All grid points as one batch of protocol runs, with monotonicity diagnostics.

    Rows are ordered by the grid and equal, field for field, the reports of
    single runs at the same points; `nu_strictly_decreasing` reports whether
    the final PT eigenvalue strictly decreases along the grid.
    """
    t_values = [float(t) for t in np.atleast_1d(np.asarray(t_grid, dtype=float))]
    if not t_values:
        raise ValueError("sweep grid must be nonempty")
    runs = tuple(ProtocolParams(t=t, x=x_policy, excess=excess) for t in t_values)
    batch = _distribution_batch(runs, SEPARABILITY_TOL)
    rows = []
    for i, run in enumerate(runs):
        carrier_sigma_verdict, final_ab_verdict = batch.outputs(i, SEPARABILITY_TOL)
        en, _ = _gated_log_negativity(final_ab_verdict.witness, final_ab_verdict)
        rows.append(
            SweepRow(
                e2t=run.e2t,
                x=run.resolved_x,
                tau3=float(batch.spectra[i, 1, MODE_CARRIER, 0]),
                omega3=float(batch.spectra[i, 1, MODE_SENDER, 0]),
                sigma=carrier_sigma_verdict.witness,
                nu=final_ab_verdict.witness,
                log_negativity=en,
            )
        )
    nus = [row.nu for row in rows]
    decreasing = all(second < first for first, second in zip(nus, nus[1:]))
    return SweepResult(
        rows=tuple(rows),
        nu_strictly_decreasing=decreasing,
        final_nu=rows[-1].nu,
        final_log_negativity=rows[-1].log_negativity,
    )
