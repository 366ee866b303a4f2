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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    add_classical_noise,
    apply_symplectic,
    balanced_beam_splitter,
    direct_sum,
    displacement_noise_model,
    reduce_modes,
    squeezed_vacuum_cm,
    vacuum_cm,
)
from .symplectic import (
    SEPARABILITY_TOL,
    SIGMA_Z,
    CovarianceMatrix,
    SeparabilityVerdict,
    _eigenvalue_resolution,
    is_physical,
    log_negativity,
    partial_transpose,
    ppt_verdict,
    sigma_verdict,
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


def _mixed_state_blocks(t: float, x: float, excess: float) -> tuple[float, float]:
    # Diagonal and coupling scalars of the post-splitter state; excess spreads
    # evenly over both quadratures after balanced mixing.
    a = math.cosh(2.0 * t) + excess / 2.0 + x
    b = math.sinh(2.0 * t) + excess / 2.0 - x
    return a, b


def _mixed_state_explicit(t: float, x: float, excess: float) -> np.ndarray:
    a, b = _mixed_state_blocks(t, x, excess)
    eye2 = np.eye(2)
    return np.block(
        [
            [a * eye2, 2.0 * x * SIGMA_Z, b * SIGMA_Z],
            [2.0 * x * SIGMA_Z, (1.0 + 4.0 * x) * eye2, -2.0 * x * eye2],
            [b * SIGMA_Z, -2.0 * x * eye2, a * eye2],
        ]
    )


def _final_state_explicit(t: float, x: float, excess: float) -> np.ndarray:
    a, b = _mixed_state_blocks(t, x, excess)
    s2 = math.sqrt(2.0)
    eye2 = np.eye(2)
    return np.block(
        [
            [a * eye2, (2.0 * x + b) / s2 * SIGMA_Z, (2.0 * x - b) / s2 * SIGMA_Z],
            [(2.0 * x + b) / s2 * SIGMA_Z, (1.0 + a) / 2.0 * eye2, (1.0 + 4.0 * x - a) / 2.0 * eye2],
            [(2.0 * x - b) / s2 * SIGMA_Z, (1.0 + 4.0 * x - a) / 2.0 * eye2, (1.0 + 8.0 * x + a) / 2.0 * eye2],
        ]
    )


def _input_product(params: ProtocolParams) -> CovarianceMatrix:
    mode_a = squeezed_vacuum_cm(params.t, "momentum", params.excess)
    mode_b = vacuum_cm(1)
    mode_c = squeezed_vacuum_cm(params.t, "position", params.excess)
    return direct_sum(mode_a, mode_b, mode_c)


def _gated_log_negativity(nu: float, verdict: SeparabilityVerdict) -> tuple[float, str | None]:
    # Report nonzero entanglement only when the PPT verdict actually
    # witnesses it; keeps boundary runs (e.g. t = 0) at exactly zero.
    if verdict.entangled:
        return log_negativity(nu), None
    return 0.0, _NO_ENTANGLEMENT_NOTE


def _cross_check(label: str, got: float, want: float, atol: float) -> None:
    if abs(got - want) > atol:
        raise ConsistencyError(f"{label}: {got!r} vs {want!r} (atol {atol:.1e})")


def _matrix_cross_check(label: str, got: np.ndarray, want: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(want).max()))
    defect = float(np.abs(got - want).max())
    if defect > 1e-10 * scale:
        raise ConsistencyError(f"{label} differs from closed form by {defect:.2e}")


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
    defect.
    """
    x = params.resolved_x
    noise = displacement_noise_model(x)
    step1 = add_classical_noise(_input_product(params), noise)
    splitter_ac = balanced_beam_splitter(3, MODE_SENDER, MODE_CARRIER)
    step2 = apply_symplectic(step1, splitter_ac)
    splitter_bc = balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER)
    step3 = apply_symplectic(step2, splitter_bc)

    _matrix_cross_check("mixed state", step2.matrix, _mixed_state_explicit(params.t, x, params.excess))
    _matrix_cross_check("final state", step3.matrix, _final_state_explicit(params.t, x, params.excess))
    for label, cm in (("step 1", step1), ("step 2", step2), ("step 3", step3)):
        if not is_physical(cm, tol):
            raise ConsistencyError(f"{label} CM is not physical")

    carrier_spectrum = symplectic_eigenvalues(partial_transpose(step2, MODE_CARRIER))
    sender_spectrum = symplectic_eigenvalues(partial_transpose(step2, MODE_SENDER))
    carrier_ppt_min = float(carrier_spectrum[0])
    sender_ppt_min = float(sender_spectrum[0])
    if params.excess == 0.0:
        carrier_atol = _eigenvalue_resolution(float(carrier_spectrum[-1]))
        carrier_closed = carrier_ppt_eigenvalue(params.t, x)
        _cross_check(
            "carrier threshold root",
            float(np.abs(carrier_spectrum - carrier_closed).min()),
            0.0,
            carrier_atol,
        )
        # The transposed carrier spectrum carries a spectator root at e^{2t};
        # the minimum is whichever of it and the threshold root is smaller.
        _cross_check(
            "carrier PT eigenvalue",
            carrier_ppt_min,
            min(carrier_closed, params.e2t),
            carrier_atol,
        )
        _cross_check(
            "sender PT eigenvalue",
            sender_ppt_min,
            sender_ppt_eigenvalue(params.t, x),
            _eigenvalue_resolution(float(sender_spectrum[-1])),
        )

    steps = tuple(
        StepReport(
            index=i + 1,
            label=_STEP_LABELS[i],
            cm=cm,
            verdicts=tuple(ppt_verdict(cm, mode, tol) for mode in range(3)),
        )
        for i, cm in enumerate((step1, step2, step3))
    )

    carrier_sigma_verdict = sigma_verdict(step3, MODE_CARRIER, tol)
    final_ab = reduce_modes(step3, (MODE_SENDER, MODE_RECEIVER))
    final_ab_verdict = ppt_verdict(final_ab, 1, tol)
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
        carrier_ppt_min=carrier_ppt_min,
        sender_ppt_min=sender_ppt_min,
        carrier_sigma=carrier_sigma_verdict.witness,
        carrier_sigma_verdict=carrier_sigma_verdict,
        final_ab=final_ab,
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
    """One protocol run per grid point, with monotonicity diagnostics.

    Rows are ordered by the grid; `nu_strictly_decreasing` reports whether the
    final PT eigenvalue strictly decreases along it.
    """
    t_values = [float(t) for t in np.atleast_1d(np.asarray(t_grid, dtype=float))]
    if not t_values:
        raise ValueError("sweep grid must be nonempty")
    rows = []
    for t in t_values:
        report = run_distribution_protocol(ProtocolParams(t=t, x=x_policy, excess=excess))
        rows.append(
            SweepRow(
                e2t=report.params.e2t,
                x=report.params.resolved_x,
                tau3=report.carrier_ppt_min,
                omega3=report.sender_ppt_min,
                sigma=report.carrier_sigma,
                nu=report.nu,
                log_negativity=report.log_negativity,
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
