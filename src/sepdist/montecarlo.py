"""Shot-based Monte Carlo oracle for the analytic covariance pipeline.

Quadratures are drawn from the Gaussian Wigner function of each input state;
because CMs here are twice the ordinary covariance (vacuum CM = identity but
vacuum variance = 1/2 per quadrature), sampling always uses cm / 2 and
estimates multiply the sample covariance back by 2.  Classical displacements
are drawn the same way from the correlated-noise model.  Fixed seeds make
every sample stream bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import MODE_CARRIER, MODE_RECEIVER, MODE_SENDER, ProtocolParams
from .states import (
    balanced_beam_splitter,
    direct_sum,
    displacement_noise_model,
    squeezed_vacuum_cm,
    vacuum_cm,
)
from .symplectic import CovarianceMatrix, is_physical

__all__ = [
    "EnsembleEstimate",
    "SimulationResult",
    "ComparisonReport",
    "psd_cholesky",
    "sample_gaussian_state",
    "estimate_cm",
    "simulate_protocol",
    "compare_estimate",
]

@dataclass(frozen=True)
class EnsembleEstimate:
    """Sampled CM estimate with per-entry standard errors.

    The estimate is twice the (symmetric by construction) sample covariance;
    standard errors use the Gaussian fourth-moment formula
    se_jk = sqrt((cm_jj cm_kk + cm_jk^2) / n) and shrink as n^{-1/2}.
    """

    n_samples: int
    cm: np.ndarray
    std_error: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    """CM estimates for the distribution output and the unit-gain recovery output."""

    final: EnsembleEstimate
    recovered: EnsembleEstimate


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise deviation of an estimate from a reference, in standard errors."""

    sigma_multiplier: float
    deviations: np.ndarray
    flagged: np.ndarray
    passed: bool


def psd_cholesky(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Lower-triangular L with L @ L.T = matrix for PSD, possibly singular input.

    Standard outer-product Cholesky with a zero-pivot tolerance: a pivot
    within `tol` (scaled by the largest diagonal entry) zeroes its column,
    which is exact for PSD matrices.  Pivots below -tol raise ValueError.
    """
    mat = np.asarray(matrix, dtype=float)
    n = mat.shape[0]
    low = np.zeros((n, n))
    scale = max(1.0, float(np.abs(np.diag(mat)).max()))
    for j in range(n):
        pivot = mat[j, j] - low[j, :j] @ low[j, :j]
        if pivot > tol * scale:
            low[j, j] = math.sqrt(pivot)
            for i in range(j + 1, n):
                low[i, j] = (mat[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
        elif pivot < -tol * scale:
            raise ValueError("matrix is not positive semidefinite")
    return low


def _sample(rng: np.random.Generator, covariance: np.ndarray, count: int) -> np.ndarray:
    factor = psd_cholesky(covariance)
    return rng.standard_normal((count, covariance.shape[0])) @ factor.T


def sample_gaussian_state(cm: CovarianceMatrix, count: int, seed: int) -> np.ndarray:
    """Draw `count` quadrature vectors from the state's Wigner function.

    Ordinary covariance of the returned samples is cm / 2 (vacuum variance
    1/2 per quadrature).  The same seed reproduces the stream bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_physical(cm):
        raise ValueError("cannot sample an unphysical covariance matrix")
    return _sample(np.random.default_rng(seed), cm.matrix / 2.0, count)


def estimate_cm(samples: np.ndarray) -> EnsembleEstimate:
    """CM estimate (2x sample covariance) with per-entry standard errors."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two sample vectors")
    n = samples.shape[0]
    cm = 2.0 * np.cov(samples, rowvar=False, ddof=1)
    diag = np.diag(cm)
    std_error = np.sqrt((np.outer(diag, diag) + cm * cm) / n)
    return EnsembleEstimate(n_samples=n, cm=cm, std_error=std_error)


def simulate_protocol(
    params: ProtocolParams,
    count: int,
    seed: int,
    gain: np.ndarray | None = None,
) -> SimulationResult:
    """Shot-by-shot simulation of the distribution run and its recovery branch.

    Per shot: draw squeezed/vacuum quadratures and correlated classical
    displacements, displace, mix sender and carrier, then (a) mix carrier and
    receiver for the distribution output and (b) apply the gain-scaled
    receiver displacement to the carrier for the recovery output.  Both
    outputs are estimated from the same shots.
    """
    if count < 1000:
        raise ValueError("count must be >= 1000 for meaningful estimates")
    if gain is None:
        gain = np.eye(2)
    gain = np.array(gain, dtype=float)
    if gain.shape != (2, 2) or not np.all(np.isfinite(gain)):
        raise ValueError("gain must be a finite 2x2 real matrix")

    rng = np.random.default_rng(seed)
    product = direct_sum(
        squeezed_vacuum_cm(params.t, "momentum", params.excess),
        vacuum_cm(1),
        squeezed_vacuum_cm(params.t, "position", params.excess),
    )
    noise = displacement_noise_model(params.resolved_x).matrix()

    quantum = _sample(rng, product.matrix / 2.0, count)
    displacements = _sample(rng, noise / 2.0, count)
    displaced = quantum + displacements
    mixed_ac = displaced @ balanced_beam_splitter(3, MODE_SENDER, MODE_CARRIER).matrix.T
    final = mixed_ac @ balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER).matrix.T
    recovered = np.hstack(
        [
            mixed_ac[:, 0:2],
            mixed_ac[:, 4:6] + displacements[:, 2:4] @ gain.T,
        ]
    )
    return SimulationResult(final=estimate_cm(final), recovered=estimate_cm(recovered))


def compare_estimate(
    estimate: EnsembleEstimate,
    reference: CovarianceMatrix | np.ndarray,
    sigma_multiplier: float = 3.0,
) -> ComparisonReport:
    """Flag estimate entries further than `sigma_multiplier` standard errors from the reference.

    The summary passes only when no entry is flagged.  With 21 independent
    entries in a symmetric 6x6 CM a 3-sigma budget leaves a few percent
    false-alarm probability per fresh seed; fixed seeds make the outcome
    reproducible.
    """
    ref = reference.matrix if isinstance(reference, CovarianceMatrix) else np.asarray(reference)
    if ref.shape != estimate.cm.shape:
        raise ValueError("estimate and reference dimensions do not match")
    deviations = np.abs(estimate.cm - ref) / estimate.std_error
    flagged = deviations > sigma_multiplier
    return ComparisonReport(
        sigma_multiplier=sigma_multiplier,
        deviations=deviations,
        flagged=flagged,
        passed=not bool(flagged.any()),
    )
