"""Core symplectic algebra and separability criteria."""

import math

import numpy as np
import pytest

from sepdist.states import two_mode_squeezed_cm
from sepdist.symplectic import (
    CovarianceMatrix,
    SpectrumError,
    is_physical,
    log_negativity,
    partial_transpose,
    ppt_lower_eigenvalue,
    ppt_verdict,
    separability_product,
    sigma_verdict,
    symplectic_eigenvalues,
    symplectic_form,
)

from conftest import oracle_symplectic_eigenvalues, random_cm

T_3DB = 0.5 * math.log(2.0)


def mixed_state_cm(e2t: float, x: float) -> CovarianceMatrix:
    """Post-splitter three-mode state, built from its explicit block form."""
    t = 0.5 * math.log(e2t)
    a = math.cosh(2.0 * t) + x
    b = math.sinh(2.0 * t) - x
    eye2, sz = np.eye(2), np.diag([1.0, -1.0])
    return CovarianceMatrix(
        np.block(
            [
                [a * eye2, 2 * x * sz, b * sz],
                [2 * x * sz, (1 + 4 * x) * eye2, -2 * x * eye2],
                [b * sz, -2 * x * eye2, a * eye2],
            ]
        )
    )


def final_state_cm(e2t: float, x: float) -> CovarianceMatrix:
    t = 0.5 * math.log(e2t)
    a = math.cosh(2.0 * t) + x
    b = math.sinh(2.0 * t) - x
    s2 = math.sqrt(2.0)
    eye2, sz = np.eye(2), np.diag([1.0, -1.0])
    return CovarianceMatrix(
        np.block(
            [
                [a * eye2, (2 * x + b) / s2 * sz, (2 * x - b) / s2 * sz],
                [(2 * x + b) / s2 * sz, (1 + a) / 2 * eye2, (1 + 4 * x - a) / 2 * eye2],
                [(2 * x - b) / s2 * sz, (1 + 4 * x - a) / 2 * eye2, (1 + 8 * x + a) / 2 * eye2],
            ]
        )
    )


def squared_spectrum_invariants(cm: CovarianceMatrix) -> np.ndarray:
    """Elementary symmetric functions (i1, i2, ...) of the squared symplectic spectrum."""
    coefficients = np.poly(symplectic_eigenvalues(cm) ** 2)[1:]
    return coefficients * (-1.0) ** np.arange(1, coefficients.size + 1)


class TestSymplecticForm:
    def test_single_mode_block(self):
        form = symplectic_form(1)
        np.testing.assert_array_equal(form, [[0.0, -1.0], [1.0, 0.0]])

    def test_three_modes_is_direct_sum(self):
        form = symplectic_form(3)
        expected = np.zeros((6, 6))
        for k in range(3):
            expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[0, -1], [1, 0]]
        np.testing.assert_array_equal(form, expected)

    def test_cached_and_readonly(self):
        assert symplectic_form(3) is symplectic_form(3)
        with pytest.raises(ValueError):
            symplectic_form(3)[0, 1] = 2.0

    def test_squares_to_minus_identity(self):
        m = symplectic_form(2)
        np.testing.assert_allclose(m @ m, -np.eye(4), atol=1e-15)
        assert np.abs(m + m.T).max() == 0.0

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(bad)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_non_finite(self):
        bad = np.eye(2)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    def test_matrix_is_readonly(self):
        cm = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0

    def test_block_access(self):
        cm = mixed_state_cm(2.0, 0.5)
        np.testing.assert_allclose(cm.block(0, 1), 1.0 * np.diag([1.0, -1.0]))


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        cm = CovarianceMatrix(np.eye(6))
        np.testing.assert_array_equal(partial_transpose(cm, 1).matrix, np.eye(6))

    def test_involution(self, rng):
        cm, _ = random_cm(3, rng)
        twice = partial_transpose(partial_transpose(cm, 2), 2)
        np.testing.assert_array_equal(twice.matrix, cm.matrix)

    def test_preserves_symmetry_and_determinant(self, rng):
        cm, _ = random_cm(3, rng)
        pt = partial_transpose(cm, 0)
        assert np.abs(pt.matrix - pt.matrix.T).max() == 0.0
        np.testing.assert_allclose(
            np.linalg.det(pt.matrix), np.linalg.det(cm.matrix), rtol=1e-12
        )

    def test_two_mode_squeezed_coupling_sign(self):
        # Transposing the second mode turns the sinh(2t) sigma_z coupling into
        # sinh(2t) times the identity: +0.75 on both diagonals at e2t = 2.
        cm = two_mode_squeezed_cm(T_3DB)
        flipped = partial_transpose(cm, 1)
        np.testing.assert_allclose(flipped.matrix[0:2, 2:4], 0.75 * np.eye(2), atol=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            partial_transpose(CovarianceMatrix(np.eye(4)), 2)


class TestIsPhysical:
    def test_vacuum_is_physical(self):
        assert is_physical(CovarianceMatrix(np.eye(6)), tol=1e-9)

    def test_below_vacuum_noise_is_not(self):
        assert not is_physical(CovarianceMatrix(np.diag([0.5, 0.5])), tol=1e-9)

    def test_mixed_state_is_physical(self):
        # Spectrum is (1, sqrt(6)-1, sqrt(6)+1), verified against the oracle.
        cm = mixed_state_cm(2.0, 0.5)
        assert is_physical(cm)
        expected = np.array([1.0, math.sqrt(6.0) - 1.0, math.sqrt(6.0) + 1.0])
        np.testing.assert_allclose(symplectic_eigenvalues(cm), expected, atol=1e-12)
        np.testing.assert_allclose(oracle_symplectic_eigenvalues(cm), expected, atol=1e-9)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(
            symplectic_eigenvalues(CovarianceMatrix(np.eye(6))), [1.0, 1.0, 1.0]
        )

    def test_single_mode(self):
        cm = CovarianceMatrix(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(symplectic_eigenvalues(cm), [1.0])

    def test_two_mode_squeezed_pt_lower(self):
        # The transposed two-mode squeezed vacuum has lower eigenvalue e^{-2t}.
        cm = partial_transpose(two_mode_squeezed_cm(T_3DB), 1)
        np.testing.assert_allclose(symplectic_eigenvalues(cm)[0], 0.5, atol=1e-14)

    def test_mixed_state_carrier_transpose(self):
        cm = partial_transpose(mixed_state_cm(2.0, 0.5), 2)
        np.testing.assert_allclose(symplectic_eigenvalues(cm), [1.0, 2.0, 2.5], atol=1e-12)

    def test_mixed_state_sender_transpose(self):
        cm = partial_transpose(mixed_state_cm(2.0, 0.5), 0)
        low = (4.5 - math.sqrt(10.25)) / 2.0
        high = (4.5 + math.sqrt(10.25)) / 2.0
        np.testing.assert_allclose(symplectic_eigenvalues(cm), [low, 2.0, high], atol=1e-12)

    def test_matches_oracle_on_random_cms(self, rng):
        for n_modes in (1, 2, 3, 4):
            for _ in range(40):
                cm, spectrum = random_cm(n_modes, rng)
                got = symplectic_eigenvalues(cm)
                np.testing.assert_allclose(got, spectrum, atol=1e-10)
                np.testing.assert_allclose(
                    got, oracle_symplectic_eigenvalues(cm), atol=1e-8
                )

    def test_degenerate_spectrum(self, rng):
        from conftest import random_symplectic

        diag = np.diag([1.5, 1.5, 1.5, 1.5, 1.5, 1.5])
        s = random_symplectic(3, rng)
        cm = CovarianceMatrix(s @ diag @ s.T)
        np.testing.assert_allclose(symplectic_eigenvalues(cm), [1.5] * 3, atol=1e-7)

    def test_unphysical_input_raises(self):
        # Negative-determinant single mode has no real symplectic spectrum.
        with pytest.raises(SpectrumError):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([1.0, -1.0])))


class TestInvariants:
    """Elementary symmetric functions of the squared spectrum (local symplectic invariants)."""

    def test_final_state_carrier_invariants(self):
        # Frozen from direct principal-minor evaluation at e2t=2, x=0.5.
        cm = partial_transpose(final_state_cm(2.0, 0.5), 2)
        np.testing.assert_allclose(
            squared_spectrum_invariants(cm), [14.5625, 37.5625, 25.0], atol=1e-10
        )

    def test_i3_equals_determinant(self, rng):
        for _ in range(25):
            cm, _ = random_cm(3, rng)
            i3 = squared_spectrum_invariants(partial_transpose(cm, 1))[-1]
            np.testing.assert_allclose(i3, np.linalg.det(cm.matrix), rtol=1e-9)

    def test_elementary_symmetric_reconstruction(self, rng):
        # Newton's identities on M = form @ cm, whose eigenvalues are +-i s_j:
        # i1 = -tr(M^2)/2, i2 = (i1^2 - tr(M^4)/2)/2, i3 = det(cm).
        for _ in range(25):
            cm, _ = random_cm(3, rng)
            m = symplectic_form(3) @ cm.matrix
            m2 = m @ m
            i1 = -np.trace(m2) / 2.0
            i2 = (i1 * i1 - np.trace(m2 @ m2) / 2.0) / 2.0
            np.testing.assert_allclose(
                squared_spectrum_invariants(cm), [i1, i2, np.linalg.det(cm.matrix)], rtol=1e-9
            )


class TestSeparabilityProduct:
    def test_vacuum_sits_on_boundary(self):
        for mode in range(3):
            assert abs(separability_product(CovarianceMatrix(np.eye(6)), mode)) < 1e-12

    def test_final_state_carrier_value(self):
        sigma = separability_product(final_state_cm(2.0, 0.5), 2)
        np.testing.assert_allclose(sigma, 1.0, atol=1e-9)

    def test_mixed_state_sender_is_negative(self):
        sigma = separability_product(mixed_state_cm(2.0, 0.5), 0)
        np.testing.assert_allclose(sigma, -24.0, atol=1e-9)
        assert sigma < 0.0


class TestPptLowerEigenvalue:
    def test_two_mode_vacuum(self):
        assert ppt_lower_eigenvalue(CovarianceMatrix(np.eye(4)), 1) == pytest.approx(1.0)

    def test_distribution_values(self):
        # Frozen full-precision values for the reduced sender-receiver states.
        from sepdist.states import reduce_modes

        ab = reduce_modes(final_state_cm(2.0, 0.5), (0, 1))
        np.testing.assert_allclose(ppt_lower_eigenvalue(ab, 1), 0.65894798157494, atol=1e-12)
        ab10 = reduce_modes(final_state_cm(10.0, 4.5), (0, 1))
        np.testing.assert_allclose(ppt_lower_eigenvalue(ab10, 1), 0.3967921775490101, atol=1e-12)

    def test_transposed_mode_is_symmetric(self, rng):
        cm, _ = random_cm(2, rng)
        assert ppt_lower_eigenvalue(cm, 0) == pytest.approx(
            ppt_lower_eigenvalue(cm, 1), abs=1e-12
        )

    def test_agrees_with_general_routine(self, rng):
        for _ in range(100):
            cm, _ = random_cm(2, rng)
            lower = ppt_lower_eigenvalue(cm, 1)
            general = oracle_symplectic_eigenvalues(partial_transpose(cm, 1))[0]
            assert abs(lower - general) <= 1e-10

    def test_three_modes_rejected(self):
        with pytest.raises(ValueError):
            ppt_lower_eigenvalue(CovarianceMatrix(np.eye(6)), 0)


class TestLogNegativity:
    def test_reference_points(self):
        assert log_negativity(0.65894798157494) == pytest.approx(0.6017635138512223, abs=1e-12)
        assert log_negativity(0.65894798157494) == pytest.approx(0.6019, abs=1e-3)
        assert log_negativity(1.0 / 3.0) == pytest.approx(math.log2(3.0), abs=1e-14)
        assert log_negativity(1.0 / 3.0) == pytest.approx(1.585, abs=1e-3)

    def test_clamped_at_separability(self):
        assert log_negativity(1.0) == 0.0
        assert log_negativity(1.7) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_negativity(0.0)
        with pytest.raises(ValueError):
            log_negativity(-0.3)


class TestVerdicts:
    def test_three_way_classification(self):
        cm = mixed_state_cm(2.0, 0.5)
        sender = ppt_verdict(cm, 0)
        receiver = ppt_verdict(cm, 1)
        carrier = ppt_verdict(cm, 2)
        assert sender.status == "entangled" and sender.bipartition == "A-(BC)"
        # Receiver and carrier witnesses sit exactly at 1 here: PPT holds with
        # saturation, reported as boundary rather than silently rounded.
        assert receiver.status == "boundary" and receiver.bipartition == "B-(AC)"
        assert carrier.status == "boundary" and carrier.bipartition == "C-(AB)"
        assert not receiver.entangled and not carrier.entangled

    def test_separable_above_threshold(self):
        cm = mixed_state_cm(2.0, 0.8)
        assert ppt_verdict(cm, 2).status == "separable"

    def test_sigma_verdict_statuses(self):
        final = final_state_cm(2.0, 0.5)
        verdict = sigma_verdict(final, 2)
        assert verdict.status == "separable"
        assert verdict.criterion == "sigma"
        vacuum = sigma_verdict(CovarianceMatrix(np.eye(6)), 0)
        assert vacuum.status == "boundary"

    def test_product_states_never_read_entangled(self, rng):
        from sepdist.states import direct_sum

        for _ in range(10):
            single, _ = random_cm(1, rng, s_min=1.05)
            pair, _ = random_cm(2, rng, s_min=1.05)
            product = direct_sum(single, pair)
            verdict = ppt_verdict(product, 0)
            assert verdict.status == "separable"
        # Pure product states saturate the bound but must not read entangled.
        pure = CovarianceMatrix(np.diag([2.0, 0.5, 1.0, 1.0, 0.5, 2.0]))
        assert not ppt_verdict(pure, 0).entangled
