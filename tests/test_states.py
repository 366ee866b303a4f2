"""State constructors, beam splitters, and the correlated-noise models."""

import math

import numpy as np
import pytest

from sepdist.states import (
    NoiseModel,
    add_classical_noise,
    apply_symplectic,
    balanced_beam_splitter,
    correlated_noise_matrix,
    direct_sum,
    displacement_noise_model,
    reduce_modes,
    squeezed_vacuum_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
)
from sepdist.symplectic import (
    CovarianceMatrix,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
)

from conftest import random_cm
from test_symplectic import mixed_state_cm

T_3DB = 0.5 * math.log(2.0)


class TestVacuum:
    def test_identity(self):
        np.testing.assert_array_equal(vacuum_cm(1).matrix, np.eye(2))
        np.testing.assert_array_equal(vacuum_cm(3).matrix, np.eye(6))

    def test_spectrum_all_ones(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum_cm(3)), [1.0] * 3)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_cm(0)


class TestSqueezedVacuum:
    def test_no_squeezing_is_vacuum(self):
        np.testing.assert_array_equal(squeezed_vacuum_cm(0.0).matrix, np.eye(2))

    def test_momentum_squeezed(self):
        cm = squeezed_vacuum_cm(T_3DB, "momentum")
        np.testing.assert_allclose(cm.matrix, np.diag([2.0, 0.5]), atol=1e-15)

    def test_position_squeezed(self):
        cm = squeezed_vacuum_cm(T_3DB, "position")
        np.testing.assert_allclose(cm.matrix, np.diag([0.5, 2.0]), atol=1e-15)

    def test_excess_hits_antisqueezed_quadrature_only(self):
        cm = squeezed_vacuum_cm(T_3DB, "momentum", excess=200.0)
        np.testing.assert_allclose(cm.matrix, np.diag([202.0, 0.5]), atol=1e-13)

    def test_pure_state_has_unit_determinant(self):
        for t in (0.0, 0.3, 1.7):
            cm = squeezed_vacuum_cm(t, "position")
            np.testing.assert_allclose(np.linalg.det(cm.matrix), 1.0, rtol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_cm(-0.1)
        with pytest.raises(ValueError):
            squeezed_vacuum_cm(0.1, "diagonal")
        with pytest.raises(ValueError):
            squeezed_vacuum_cm(0.1, excess=-1.0)


class TestTwoModeSqueezed:
    def test_no_squeezing(self):
        np.testing.assert_array_equal(two_mode_squeezed_cm(0.0).matrix, np.eye(4))

    def test_hyperbolic_blocks(self):
        cm = two_mode_squeezed_cm(T_3DB)
        np.testing.assert_allclose(cm.block(0, 0), 1.25 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(cm.block(0, 1), 0.75 * np.diag([1.0, -1.0]), atol=1e-15)

    def test_entangled_for_positive_squeezing(self):
        for t in (0.2, T_3DB, 1.5):
            lower = symplectic_eigenvalues(partial_transpose(two_mode_squeezed_cm(t), 1))[0]
            np.testing.assert_allclose(lower, math.exp(-2.0 * t), atol=1e-12)
            assert lower < 1.0


class TestBeamSplitter:
    def test_sender_carrier_pattern(self):
        h = 1.0 / math.sqrt(2.0)
        eye2 = np.eye(2)
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = h * eye2
        expected[0:2, 4:6] = h * eye2
        expected[2:4, 2:4] = eye2
        expected[4:6, 0:2] = h * eye2
        expected[4:6, 4:6] = -h * eye2
        np.testing.assert_allclose(balanced_beam_splitter(3, 0, 2).matrix, expected)

    def test_receiver_carrier_pattern(self):
        h = 1.0 / math.sqrt(2.0)
        eye2 = np.eye(2)
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = eye2
        expected[2:4, 2:4] = h * eye2
        expected[2:4, 4:6] = h * eye2
        expected[4:6, 2:4] = h * eye2
        expected[4:6, 4:6] = -h * eye2
        np.testing.assert_allclose(balanced_beam_splitter(3, 1, 2).matrix, expected)

    def test_self_inverse_and_orthogonal(self):
        for n, i, j in ((2, 0, 1), (3, 0, 2), (3, 1, 2)):
            m = balanced_beam_splitter(n, i, j).matrix
            np.testing.assert_allclose(m @ m, np.eye(2 * n), atol=1e-15)
            np.testing.assert_allclose(m @ m.T, np.eye(2 * n), atol=1e-15)

    def test_symplectic_condition(self):
        for n, i, j in ((2, 0, 1), (3, 0, 1), (3, 0, 2), (3, 1, 2)):
            m = balanced_beam_splitter(n, i, j).matrix
            omega = symplectic_form(n)
            assert np.abs(m @ omega @ m.T - omega).max() <= 1e-12

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            balanced_beam_splitter(3, 1, 1)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            balanced_beam_splitter(2, 0, 2)


class TestApplySymplectic:
    def test_vacuum_invariant(self):
        splitter = balanced_beam_splitter(3, 0, 2)
        out = apply_symplectic(vacuum_cm(3), splitter)
        np.testing.assert_allclose(out.matrix, np.eye(6), atol=1e-15)

    def test_preserves_symplectic_spectrum(self, rng):
        cm, spectrum = random_cm(3, rng)
        out = apply_symplectic(cm, balanced_beam_splitter(3, 1, 2))
        np.testing.assert_allclose(symplectic_eigenvalues(out), spectrum, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_symplectic(vacuum_cm(2), balanced_beam_splitter(3, 0, 1))


class TestCorrelatedNoise:
    def test_rank_two(self):
        assert np.linalg.matrix_rank(correlated_noise_matrix()) == 2

    def test_receiver_position_entry(self):
        np.testing.assert_allclose(correlated_noise_matrix()[2, 2], 4.0)

    def test_positive_semidefinite(self):
        eigenvalues = np.linalg.eigvalsh(correlated_noise_matrix())
        assert eigenvalues.min() >= -1e-12

    def test_block_pattern(self):
        p = correlated_noise_matrix()
        sz = np.diag([1.0, -1.0])
        np.testing.assert_allclose(p[0:2, 0:2], np.eye(2))
        np.testing.assert_allclose(p[0:2, 2:4], 2.0 * sz)
        np.testing.assert_allclose(p[0:2, 4:6], -sz)
        np.testing.assert_allclose(p[2:4, 2:4], 4.0 * np.eye(2))
        np.testing.assert_allclose(p[2:4, 4:6], -2.0 * np.eye(2))
        np.testing.assert_allclose(p[4:6, 4:6], np.eye(2))


class TestDisplacementNoiseModel:
    def test_zero_strength(self):
        model = displacement_noise_model(0.0)
        np.testing.assert_array_equal(model.matrix(), np.zeros((6, 6)))

    def test_receiver_block_scales_with_strength(self):
        model = displacement_noise_model(0.5)
        np.testing.assert_allclose(model.matrix()[2:4, 2:4], 2.0 * np.eye(2), atol=1e-14)

    def test_equals_conjugated_mixing_noise(self):
        splitter = balanced_beam_splitter(3, 0, 2).matrix
        conjugated = splitter.T @ correlated_noise_matrix() @ splitter
        np.testing.assert_allclose(displacement_noise_model(1.0).matrix(), conjugated, atol=1e-12)

    def test_psd_for_any_strength(self):
        for x in (0.0, 0.3, 4.5, 100.0):
            eigenvalues = np.linalg.eigvalsh(displacement_noise_model(x).matrix())
            assert eigenvalues.min() >= -1e-10

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            displacement_noise_model(-0.5)


class TestNoiseModel:
    def test_non_psd_base_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            NoiseModel(strength=1.0, base=np.diag([1.0, -1.0]))

    def test_asymmetric_base_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            NoiseModel(strength=1.0, base=bad)


class TestAddClassicalNoise:
    def test_zero_strength_is_identity_operation(self, rng):
        cm, _ = random_cm(3, rng)
        noise = NoiseModel(strength=0.0, base=correlated_noise_matrix())
        np.testing.assert_array_equal(add_classical_noise(cm, noise).matrix, cm.matrix)

    def test_reproduces_mixed_state(self):
        # Product two-mode squeezing between A and C plus the noise pattern
        # equals the explicit mixed-state block form with a = cosh + x, b = sinh - x.
        ch, sh = np.cosh(2 * T_3DB), np.sinh(2 * T_3DB)
        eye2, sz = np.eye(2), np.diag([1.0, -1.0])
        base = np.zeros((6, 6))
        base[0:2, 0:2] = ch * eye2
        base[2:4, 2:4] = eye2
        base[4:6, 4:6] = ch * eye2
        base[0:2, 4:6] = sh * sz
        base[4:6, 0:2] = sh * sz
        noisy = add_classical_noise(
            CovarianceMatrix(base), NoiseModel(strength=0.5, base=correlated_noise_matrix())
        )
        np.testing.assert_allclose(noisy.matrix, mixed_state_cm(2.0, 0.5).matrix, atol=1e-14)

    def test_never_decreases_symplectic_eigenvalues(self, rng):
        noise = displacement_noise_model(0.7)
        for _ in range(10):
            cm, _ = random_cm(3, rng)
            before = symplectic_eigenvalues(cm)
            after = symplectic_eigenvalues(add_classical_noise(cm, noise))
            assert np.all(after >= before - 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            add_classical_noise(vacuum_cm(2), displacement_noise_model(1.0))


class TestReduceModes:
    def test_keep_all_is_identity(self, rng):
        cm, _ = random_cm(3, rng)
        np.testing.assert_array_equal(reduce_modes(cm, (0, 1, 2)).matrix, cm.matrix)

    def test_final_state_sender_receiver_block(self):
        from test_symplectic import final_state_cm

        reduced = reduce_modes(final_state_cm(2.0, 0.5), (0, 1))
        a = np.cosh(2 * T_3DB) + 0.5
        coupling = (2 * 0.5 + np.sinh(2 * T_3DB) - 0.5) / math.sqrt(2.0)
        np.testing.assert_allclose(reduced.block(0, 0), a * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(
            reduced.block(0, 1), coupling * np.diag([1.0, -1.0]), atol=1e-14
        )
        np.testing.assert_allclose(reduced.block(1, 1), (1 + a) / 2 * np.eye(2), atol=1e-14)

    def test_reduction_of_product_gives_factor(self, rng):
        single, _ = random_cm(1, rng)
        pair, _ = random_cm(2, rng)
        product = direct_sum(single, pair)
        np.testing.assert_array_equal(reduce_modes(product, (0,)).matrix, single.matrix)
        np.testing.assert_array_equal(reduce_modes(product, (1, 2)).matrix, pair.matrix)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            reduce_modes(vacuum_cm(2), ())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reduce_modes(vacuum_cm(2), (0, 5))
