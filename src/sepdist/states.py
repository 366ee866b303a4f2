"""Gaussian state constructors, beam splitters, and classical correlated noise.

Everything stays in covariance-matrix form with zero mean vectors; random
displacements enter only through their second moments (a positive
semidefinite matrix added to a CM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .symplectic import (
    SIGMA_Z,
    SYMMETRY_TOL,
    CovarianceMatrix,
    symplectic_form,
)

__all__ = [
    "SymplecticTransform",
    "NoiseModel",
    "vacuum_cm",
    "squeezed_vacuum_cm",
    "two_mode_squeezed_cm",
    "direct_sum",
    "balanced_beam_splitter",
    "apply_symplectic",
    "correlated_noise_matrix",
    "displacement_noise_model",
    "add_classical_noise",
    "reduce_modes",
]

_PSD_TOL = 1e-10

# Rank-2 dyad directions for the correlated classical noise; their Gram sum
# erases two-mode squeezing correlations between the outer modes while the
# middle mode stays separable from the pair.
_DYAD_1 = np.array([0.0, -1.0, 0.0, 2.0, 0.0, -1.0])
_DYAD_2 = np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])


@dataclass(frozen=True)
class SymplecticTransform:
    """Real linear map on quadratures that preserves the symplectic form."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("symplectic transform must be 2n x 2n")
        omega = symplectic_form(m.shape[0] // 2)
        defect = float(np.abs(m @ omega @ m.T - omega).max())
        if defect > SYMMETRY_TOL * max(1.0, float(np.abs(m).max()) ** 2):
            raise ValueError(f"matrix does not preserve the symplectic form (defect {defect:.2e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class NoiseModel:
    """Classical correlated noise: strength times a unit positive semidefinite base."""

    strength: float
    base: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.strength) or self.strength < 0.0:
            raise ValueError("noise strength must be a nonnegative real")
        base = np.array(self.base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError("noise base must be square")
        if np.abs(base - base.T).max() > SYMMETRY_TOL * max(1.0, np.abs(base).max()):
            raise ValueError("noise base must be symmetric")
        if float(np.linalg.eigvalsh(base).min()) < -_PSD_TOL:
            raise ValueError("noise base must be positive semidefinite")
        base = (base + base.T) / 2.0
        base.flags.writeable = False
        object.__setattr__(self, "base", base)

    def matrix(self) -> np.ndarray:
        """Effective noise contribution strength * base."""
        return self.strength * self.base


def vacuum_cm(n_modes: int) -> CovarianceMatrix:
    """Vacuum covariance matrix: the 2n x 2n identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return CovarianceMatrix(np.eye(2 * n_modes))


def squeezed_vacuum_cm(
    t: float, orientation: str = "momentum", excess: float = 0.0
) -> CovarianceMatrix:
    """Single-mode squeezed vacuum, diag(e^{2t} + excess, e^{-2t}) or the swap.

    `orientation` selects the reduced-noise quadrature: "momentum" squeezes p,
    "position" squeezes x.  `excess` is added classical noise on the
    antisqueezed quadrature only, in vacuum units; with excess = 0 the state
    is pure (determinant 1).
    """
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("squeezing parameter t must be >= 0")
    if excess < 0.0 or not np.isfinite(excess):
        raise ValueError("noise excess must be >= 0")
    wide = np.exp(2.0 * t) + excess
    narrow = np.exp(-2.0 * t)
    if orientation == "momentum":
        return CovarianceMatrix(np.diag([wide, narrow]))
    if orientation == "position":
        return CovarianceMatrix(np.diag([narrow, wide]))
    raise ValueError("orientation must be 'momentum' or 'position'")


def two_mode_squeezed_cm(t: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum: cosh(2t) on the diagonal blocks, sinh(2t) sigma_z off them."""
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("squeezing parameter t must be >= 0")
    ch = np.cosh(2.0 * t) * np.eye(2)
    sh = np.sinh(2.0 * t) * SIGMA_Z
    return CovarianceMatrix(np.block([[ch, sh], [sh, ch]]))


def direct_sum(*cms: CovarianceMatrix) -> CovarianceMatrix:
    """Block-diagonal product state of the given CMs."""
    if not cms:
        raise ValueError("direct_sum needs at least one CM")
    dims = [cm.matrix.shape[0] for cm in cms]
    out = np.zeros((sum(dims), sum(dims)))
    offset = 0
    for cm, dim in zip(cms, dims):
        out[offset : offset + dim, offset : offset + dim] = cm.matrix
        offset += dim
    return CovarianceMatrix(out)


def balanced_beam_splitter(n_modes: int, mode_i: int, mode_j: int) -> SymplecticTransform:
    """Balanced (50:50) beam splitter between two modes of an n-mode system.

    Sends mode_i to (i + j)/sqrt(2) and mode_j to (i - j)/sqrt(2); the matrix
    is symplectic, orthogonal, and its own inverse.
    """
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    for mode in (mode_i, mode_j):
        if not 0 <= mode < n_modes:
            raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    h = 1.0 / np.sqrt(2.0)
    eye2 = np.eye(2)
    m = np.eye(2 * n_modes)
    si, sj = 2 * mode_i, 2 * mode_j
    m[si : si + 2, si : si + 2] = h * eye2
    m[si : si + 2, sj : sj + 2] = h * eye2
    m[sj : sj + 2, si : si + 2] = h * eye2
    m[sj : sj + 2, sj : sj + 2] = -h * eye2
    return SymplecticTransform(m)


def apply_symplectic(cm: CovarianceMatrix, transform: SymplecticTransform) -> CovarianceMatrix:
    """Congruence S cm S^T; preserves the symplectic spectrum."""
    if transform.matrix.shape[0] != cm.matrix.shape[0]:
        raise ValueError("transform and CM dimensions do not match")
    return CovarianceMatrix(transform.matrix @ cm.matrix @ transform.matrix.T)


def correlated_noise_matrix() -> np.ndarray:
    """Rank-2 PSD noise pattern for the three-mode mixing frame (Gram sum of two dyads)."""
    return np.outer(_DYAD_1, _DYAD_1) + np.outer(_DYAD_2, _DYAD_2)


def _local_frame_noise_base() -> np.ndarray:
    """The same noise expressed in the local product frame, as explicit blocks."""
    s2 = np.sqrt(2.0)
    eye2 = np.eye(2)
    zero = np.zeros((2, 2))
    return np.block(
        [
            [eye2 - SIGMA_Z, s2 * (SIGMA_Z - eye2), zero],
            [s2 * (SIGMA_Z - eye2), 4.0 * eye2, s2 * (SIGMA_Z + eye2)],
            [zero, s2 * (SIGMA_Z + eye2), SIGMA_Z + eye2],
        ]
    )


def displacement_noise_model(x: float) -> NoiseModel:
    """Correlated-displacement covariance for the local preparation step.

    The base equals the mixing-frame noise conjugated into the local frame by
    the first beam splitter, written out as explicit blocks.
    """
    if x < 0.0 or not np.isfinite(x):
        raise ValueError("noise strength x must be >= 0")
    return NoiseModel(strength=x, base=_local_frame_noise_base())


def add_classical_noise(cm: CovarianceMatrix, noise: NoiseModel) -> CovarianceMatrix:
    """Add random-displacement second moments to a CM.

    A PSD addition can only raise symplectic eigenvalues, so a physical input
    stays physical.
    """
    if noise.base.shape[0] != cm.matrix.shape[0]:
        raise ValueError("noise and CM dimensions do not match")
    return CovarianceMatrix(cm.matrix + noise.matrix())


def reduce_modes(cm: CovarianceMatrix, keep: Iterable[int]) -> CovarianceMatrix:
    """Principal submatrix on the kept modes (the reduced state's CM)."""
    modes = sorted(set(int(k) for k in keep))
    if not modes:
        raise ValueError("must keep at least one mode")
    for mode in modes:
        if not 0 <= mode < cm.n_modes:
            raise ValueError(f"mode index {mode} out of range for {cm.n_modes} modes")
    rows = [q for mode in modes for q in (2 * mode, 2 * mode + 1)]
    return CovarianceMatrix(cm.matrix[np.ix_(rows, rows)])
