"""Shared test oracles: independent eigensolver route and random CM generators.

The production code computes symplectic spectra with a symmetric eigensolver
on the Hermitian matrix sqrt(cm) (i form) sqrt(cm); the oracle here goes
through numpy's general eigensolver on (form @ cm) with its own copy of the
form, so the two routes share no code.
"""

import numpy as np
import pytest

from sepdist.symplectic import CovarianceMatrix


def oracle_symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Moduli of the eigenvalues of (form @ cm), one per +-i pair, ascending."""
    form = np.kron(np.eye(cm.n_modes), [[0.0, -1.0], [1.0, 0.0]])
    eigenvalues = np.linalg.eigvals(form @ cm.matrix)
    moduli = np.sort(np.abs(eigenvalues.imag))
    return moduli[1::2]


def random_symplectic(n_modes: int, rng: np.random.Generator, rounds: int = 3) -> np.ndarray:
    """Random symplectic matrix from rotations, squeezers and pairwise mixers."""
    eye2 = np.eye(2)
    total = np.eye(2 * n_modes)
    for _ in range(rounds):
        for i in range(n_modes):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            r = rng.uniform(-0.6, 0.6)
            rotation = np.array(
                [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            )
            squeezer = np.diag([np.exp(r), np.exp(-r)])
            local = np.eye(2 * n_modes)
            local[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation @ squeezer
            total = local @ total
        for i in range(n_modes):
            for j in range(i + 1, n_modes):
                theta = rng.uniform(0.0, 2.0 * np.pi)
                c, s = np.cos(theta), np.sin(theta)
                mixer = np.eye(2 * n_modes)
                mixer[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = c * eye2
                mixer[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = s * eye2
                mixer[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = -s * eye2
                mixer[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = c * eye2
                total = mixer @ total
    return total


def random_cm(
    n_modes: int,
    rng: np.random.Generator,
    s_min: float = 1.0,
    s_max: float = 3.0,
    min_gap: float = 0.05,
) -> tuple[CovarianceMatrix, np.ndarray]:
    """Random physical CM with known symplectic spectrum.

    Eigenvalues are kept `min_gap` apart; clustered spectra are intrinsically
    ill-conditioned for any root finder and are exercised separately.
    """
    while True:
        spectrum = np.sort(rng.uniform(s_min, s_max, n_modes))
        if n_modes == 1 or np.all(np.diff(spectrum) >= min_gap):
            break
    diag = np.diag(np.repeat(spectrum, 2))
    transform = random_symplectic(n_modes, rng)
    matrix = transform @ diag @ transform.T
    return CovarianceMatrix((matrix + matrix.T) / 2.0), spectrum


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
