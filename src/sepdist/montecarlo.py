"""Shot-based Monte Carlo oracle for the analytic covariance pipeline.

Quadratures are drawn from the Gaussian Wigner function of each input state;
because CMs here are twice the ordinary covariance (vacuum CM = identity but
vacuum variance = 1/2 per quadrature), sampling always uses cm / 2 and
estimates multiply the sample covariance back by 2.  Classical displacements
are drawn the same way from the correlated-noise model.  Fixed seeds make
every sample stream bit-reproducible.

`simulate_protocol` draws only rank-many normals per shot (6 for the product
state, rank 2 for the correlated displacements, none without noise) and
streams them in chunks of CHUNK shots, merging each chunk's centred moments
into a running total.  Every output quadrature is a fixed linear map of the
shot's normals, so the outputs' sample covariance follows from the normals'
one; memory is O(CHUNK) whatever the shot count.
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

# Shots per draw in `simulate_protocol`: 4 MB of normals at 8 per shot.
CHUNK = 1 << 16


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


def sample_gaussian_state(cm: CovarianceMatrix, count: int, seed: int) -> np.ndarray:
    """Draw `count` quadrature vectors from the state's Wigner function.

    Ordinary covariance of the returned samples is cm / 2 (vacuum variance
    1/2 per quadrature).  The same seed reproduces the stream bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_physical(cm):
        raise ValueError("cannot sample an unphysical covariance matrix")
    factor = psd_cholesky(cm.matrix / 2.0)
    return np.random.default_rng(seed).standard_normal((count, factor.shape[0])) @ factor.T


def _estimate(covariance: np.ndarray, n: int) -> EnsembleEstimate:
    """Estimate from an ordinary sample covariance of `n` shots.

    The CM is twice the symmetrised covariance, so it is exactly symmetric.
    """
    cm = covariance + covariance.T
    diag = np.diag(cm)
    std_error = np.sqrt((np.outer(diag, diag) + cm * cm) / n)
    return EnsembleEstimate(n_samples=n, cm=cm, std_error=std_error)


def estimate_cm(samples: np.ndarray) -> EnsembleEstimate:
    """CM estimate (2x sample covariance) with per-entry standard errors."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two sample vectors")
    return _estimate(np.cov(samples, rowvar=False, ddof=1), samples.shape[0])


def _normal_covariance(rng: np.random.Generator, width: int, count: int) -> np.ndarray:
    """Sample covariance (ddof 1) of `count` standard-normal vectors of length `width`.

    Draws CHUNK vectors at a time and merges each chunk's mean and centred
    scatter into the running ones with the pairwise update of Chan, Golub
    and LeVeque, so memory does not grow with `count`.
    """
    n = 0
    mean = np.zeros(width)
    scatter = np.zeros((width, width))
    for start in range(0, count, CHUNK):
        z = rng.standard_normal((min(CHUNK, count - start), width))
        m = z.shape[0]
        chunk_mean = z.mean(axis=0)
        z -= chunk_mean
        delta = chunk_mean - mean
        scatter += z.T @ z + np.outer(delta, delta) * (n * m / (n + m))
        mean += delta * (m / (n + m))
        n += m
    return scatter / (count - 1)


def _nonzero_columns(factor: np.ndarray) -> np.ndarray:
    return factor[:, np.any(factor != 0.0, axis=0)]


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

    Each shot draws one normal per nonzero column of the input factors: 6
    for the product state and rank(noise) for the displacements (2 for x > 0,
    0 for x = 0).  Its 10 output quadratures (6 final, 4 recovered) are a
    fixed linear map A of those normals, so the outputs' sample covariance
    is A S Aᵀ with S the normals' sample covariance, accumulated in chunks
    of CHUNK shots; memory is O(CHUNK), not O(count).
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

    # Each stage array maps one shot's normals (quantum columns first, then
    # noise) to that stage's quadratures.
    quantum = _nonzero_columns(psd_cholesky(product.matrix / 2.0))
    classical = _nonzero_columns(psd_cholesky(noise / 2.0))
    displacements = np.hstack([np.zeros((6, quantum.shape[1])), classical])
    displaced = np.hstack([quantum, classical])
    mixed_ac = balanced_beam_splitter(3, MODE_SENDER, MODE_CARRIER).matrix @ displaced
    final = balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER).matrix @ mixed_ac
    recovered = np.vstack([mixed_ac[0:2], mixed_ac[4:6] + gain @ displacements[2:4]])
    outputs = np.vstack([final, recovered])

    covariance = outputs @ _normal_covariance(rng, outputs.shape[1], count) @ outputs.T
    return SimulationResult(
        final=_estimate(covariance[:6, :6], count),
        recovered=_estimate(covariance[6:, 6:], count),
    )


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
