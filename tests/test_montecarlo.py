"""Monte Carlo oracle: sampling conventions, estimates, and comparisons."""

import math

import numpy as np
import pytest

from sepdist.montecarlo import (
    CHUNK,
    compare_estimate,
    estimate_cm,
    psd_cholesky,
    sample_gaussian_state,
    simulate_protocol,
)
from sepdist.protocol import (
    MODE_CARRIER,
    MODE_RECEIVER,
    MODE_SENDER,
    ProtocolParams,
    run_distribution_protocol,
    run_recovery_protocol,
)
from sepdist.states import (
    balanced_beam_splitter,
    direct_sum,
    displacement_noise_model,
    squeezed_vacuum_cm,
    vacuum_cm,
)
from sepdist.symplectic import CovarianceMatrix, ppt_lower_eigenvalue

from conftest import random_cm

T_3DB = 0.5 * math.log(2.0)


def per_shot_outputs(params, count, seed, gain):
    """Final and recovered quadratures of every shot, built stage by stage.

    Draws the same normals as `simulate_protocol` in one call (quantum
    columns first, then one per nonzero noise factor column) and keeps every
    stage for all shots, as a reference for the streamed moments.
    """
    product = direct_sum(
        squeezed_vacuum_cm(params.t, "momentum", params.excess),
        vacuum_cm(1),
        squeezed_vacuum_cm(params.t, "position", params.excess),
    )
    quantum_factor = psd_cholesky(product.matrix / 2.0)
    noise_factor = psd_cholesky(displacement_noise_model(params.resolved_x).matrix() / 2.0)
    noise_factor = noise_factor[:, np.any(noise_factor != 0.0, axis=0)]
    normals = np.random.default_rng(seed).standard_normal((count, 6 + noise_factor.shape[1]))
    quantum = normals[:, :6] @ quantum_factor.T
    displacements = normals[:, 6:] @ noise_factor.T
    displaced = quantum + displacements
    mixed_ac = displaced @ balanced_beam_splitter(3, MODE_SENDER, MODE_CARRIER).matrix.T
    final = mixed_ac @ balanced_beam_splitter(3, MODE_RECEIVER, MODE_CARRIER).matrix.T
    recovered = np.hstack(
        [mixed_ac[:, 0:2], mixed_ac[:, 4:6] + displacements[:, 2:4] @ gain.T]
    )
    return final, recovered


class _CountingGenerator:
    """A numpy Generator that records the size of every standard-normal draw."""

    def __init__(self, generator, drawn):
        self._generator = generator
        self._drawn = drawn

    def standard_normal(self, *args, **kwargs):
        out = self._generator.standard_normal(*args, **kwargs)
        self._drawn.append(out.size)
        return out


class TestPsdCholesky:
    def test_full_rank_reconstruction(self, rng):
        cm, _ = random_cm(3, rng)
        factor = psd_cholesky(cm.matrix)
        np.testing.assert_allclose(factor @ factor.T, cm.matrix, atol=1e-12)
        assert np.abs(np.triu(factor, 1)).max() == 0.0

    def test_rank_deficient_noise(self):
        noise = displacement_noise_model(0.5).matrix() / 2.0
        factor = psd_cholesky(noise)
        np.testing.assert_allclose(factor @ factor.T, noise, atol=1e-12)
        assert np.linalg.matrix_rank(factor) == 2

    def test_zero_matrix(self):
        factor = psd_cholesky(np.zeros((4, 4)))
        np.testing.assert_array_equal(factor, np.zeros((4, 4)))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            psd_cholesky(np.diag([1.0, -1.0]))


class TestSampleGaussianState:
    def test_vacuum_variance_convention(self):
        # CM units are twice the ordinary variance: vacuum samples at 0.5.
        samples = sample_gaussian_state(vacuum_cm(1), 400_000, seed=7)
        var = samples.var(axis=0, ddof=1)
        se = math.sqrt(2.0 / 400_000) * 0.5
        np.testing.assert_allclose(var, [0.5, 0.5], atol=4 * se)

    def test_squeezed_variances(self):
        cm = squeezed_vacuum_cm(T_3DB, "momentum")
        samples = sample_gaussian_state(cm, 400_000, seed=8)
        var = samples.var(axis=0, ddof=1)
        assert abs(var[0] - 1.0) < 4 * math.sqrt(2.0 / 400_000) * 1.0
        assert abs(var[1] - 0.25) < 4 * math.sqrt(2.0 / 400_000) * 0.25

    def test_fixed_seed_is_bit_reproducible(self):
        cm = squeezed_vacuum_cm(0.4, "position")
        first = sample_gaussian_state(cm, 1000, seed=123)
        second = sample_gaussian_state(cm, 1000, seed=123)
        np.testing.assert_array_equal(first, second)
        third = sample_gaussian_state(cm, 1000, seed=124)
        assert not np.array_equal(first, third)

    def test_unphysical_cm_rejected(self):
        with pytest.raises(ValueError):
            sample_gaussian_state(CovarianceMatrix(np.diag([0.5, 0.5])), 100, seed=1)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            sample_gaussian_state(vacuum_cm(1), 0, seed=1)


class TestEstimateCm:
    def test_round_trip_recovers_cm(self, rng):
        # Convention self-consistency: sampling then estimating returns the CM.
        cm, _ = random_cm(2, rng, s_min=1.1)
        samples = sample_gaussian_state(cm, 200_000, seed=11)
        estimate = estimate_cm(samples)
        comparison = compare_estimate(estimate, cm, sigma_multiplier=4.0)
        assert comparison.passed

    def test_standard_errors_shrink_as_sqrt_n(self):
        cm = vacuum_cm(2)
        small = estimate_cm(sample_gaussian_state(cm, 10_000, seed=3))
        large = estimate_cm(sample_gaussian_state(cm, 40_000, seed=3))
        ratio = small.std_error / large.std_error
        np.testing.assert_allclose(ratio, np.full((4, 4), 2.0), rtol=0.2)

    def test_estimate_is_symmetric(self):
        samples = sample_gaussian_state(vacuum_cm(3), 5000, seed=5)
        estimate = estimate_cm(samples)
        np.testing.assert_array_equal(estimate.cm, estimate.cm.T)


class TestCompareEstimate:
    def test_vacuum_estimate_passes(self):
        estimate = estimate_cm(sample_gaussian_state(vacuum_cm(3), 1_000_000, seed=21))
        assert compare_estimate(estimate, np.eye(6), 3.0).passed

    def test_perturbed_reference_flags_exactly_that_entry(self):
        estimate = estimate_cm(sample_gaussian_state(vacuum_cm(3), 1_000_000, seed=22))
        reference = np.eye(6)
        reference[0, 1] += 10.0 * estimate.std_error[0, 1]
        reference[1, 0] = reference[0, 1]
        report = compare_estimate(estimate, reference, 3.0)
        assert not report.passed
        flagged = {(int(j), int(k)) for j, k in zip(*np.nonzero(report.flagged))}
        assert flagged == {(0, 1), (1, 0)}

    def test_dimension_mismatch_rejected(self):
        estimate = estimate_cm(sample_gaussian_state(vacuum_cm(2), 2000, seed=1))
        with pytest.raises(ValueError):
            compare_estimate(estimate, np.eye(6), 3.0)


class TestSimulateProtocol:
    def test_final_cm_matches_analytic_within_error(self):
        params = ProtocolParams(t=T_3DB)
        analytic = run_distribution_protocol(params)
        result = simulate_protocol(params, count=100_000, seed=42)
        comparison = compare_estimate(result.final, analytic.steps[2].cm, 4.0)
        assert comparison.passed

    def test_recovery_cm_matches_analytic_within_error(self):
        params = ProtocolParams(t=T_3DB)
        reference = run_recovery_protocol(params).cm
        result = simulate_protocol(params, count=100_000, seed=42)
        comparison = compare_estimate(result.recovered, reference, 4.0)
        assert comparison.passed

    def test_estimated_eigenvalues_near_targets(self):
        params = ProtocolParams(t=T_3DB)
        result = simulate_protocol(params, count=1_000_000, seed=42)
        final_ab = CovarianceMatrix(result.final.cm[0:4, 0:4])
        assert abs(ppt_lower_eigenvalue(final_ab, 1) - 0.6589) < 0.01
        recovered = CovarianceMatrix(result.recovered.cm)
        assert abs(ppt_lower_eigenvalue(recovered, 1) - 0.5) < 0.01

    def test_receiver_output_decomposition(self):
        # The receiver's output CM block is (recovered carrier block + vacuum)/2;
        # both sides are estimated from the same shots, so they differ only by
        # sampling noise of the cross terms.
        params = ProtocolParams(t=T_3DB)
        result = simulate_protocol(params, count=200_000, seed=9)
        lhs = result.final.cm[2:4, 2:4]
        rhs = (result.recovered.cm[2:4, 2:4] + np.eye(2)) / 2.0
        budget = 3.0 * np.sqrt(result.final.std_error[2:4, 2:4] ** 2
                               + result.recovered.std_error[2:4, 2:4] ** 2 / 4.0)
        assert np.all(np.abs(lhs - rhs) <= budget + 1e-12)

    def test_classical_noise_alone_cannot_fake_entanglement(self):
        # Zero squeezing, strong correlated noise: batch-averaged PT minimum
        # must not sit below 1 by more than its standard error budget.
        params = ProtocolParams(t=0.0, x=0.7)
        values = []
        for batch in range(10):
            result = simulate_protocol(params, count=50_000, seed=1000 + batch)
            final_ab = CovarianceMatrix(result.final.cm[0:4, 0:4])
            values.append(ppt_lower_eigenvalue(final_ab, 1))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert mean >= 1.0 - 3.0 * se

    def test_shot_arithmetic_consistency(self):
        # Neither the receiver-side mixing nor the recovery displacement acts
        # on the sender, so both outputs carry the same sender quadratures shot
        # by shot and their sender blocks agree to rounding.
        result = simulate_protocol(ProtocolParams(t=0.4), count=1200, seed=3)
        np.testing.assert_allclose(
            result.final.cm[0:2, 0:2], result.recovered.cm[0:2, 0:2], rtol=1e-12
        )

    def test_deterministic_given_seed(self):
        params = ProtocolParams(t=0.2)
        a = simulate_protocol(params, count=2000, seed=77)
        b = simulate_protocol(params, count=2000, seed=77)
        np.testing.assert_array_equal(a.final.cm, b.final.cm)
        np.testing.assert_array_equal(a.recovered.cm, b.recovered.cm)

    def test_small_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_protocol(ProtocolParams(t=0.2), count=999, seed=1)

    @pytest.mark.parametrize("x", ["auto", 0.0])
    def test_streamed_moments_equal_per_shot_covariance(self, x):
        # Two full chunks and a partial one, so the merge sees unequal chunk sizes.
        count = 2 * CHUNK + 1234
        params = ProtocolParams(t=T_3DB, x=x)
        gain = np.array([[0.7, 0.2], [-0.3, 1.4]])
        result = simulate_protocol(params, count=count, seed=11, gain=gain)
        final, recovered = per_shot_outputs(params, count, 11, gain)
        np.testing.assert_allclose(result.final.cm, 2.0 * np.cov(final, rowvar=False), rtol=1e-10)
        np.testing.assert_allclose(
            result.recovered.cm, 2.0 * np.cov(recovered, rowvar=False), rtol=1e-10
        )
        for estimate in (result.final, result.recovered):
            assert estimate.n_samples == count
            np.testing.assert_array_equal(estimate.cm, estimate.cm.T)

    @pytest.mark.parametrize(("x", "per_shot"), [("auto", 8), (0.0, 6)])
    def test_draws_rank_many_normals_per_shot(self, monkeypatch, x, per_shot):
        # 6 for the full-rank product state plus rank(noise): 2 for x > 0, 0 for x = 0.
        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda *a, **k: _CountingGenerator(default_rng(*a, **k), drawn)
        )
        simulate_protocol(ProtocolParams(t=T_3DB, x=x), count=3000, seed=1)
        assert sum(drawn) == per_shot * 3000

    def test_pass_rate_over_many_seeds(self):
        # Per fresh seed the 3-sigma budget over 21 + 10 entries passes about
        # 92% of the time; fewer than 30 of 40 has probability ~2e-4.  A
        # reference entry 6 standard errors off must be caught on every seed.
        params = ProtocolParams(t=T_3DB)
        analytic = run_distribution_protocol(params, include_recovery=True)
        passed = 0
        for seed in range(40):
            result = simulate_protocol(params, count=20_000, seed=seed)
            passed += (
                compare_estimate(result.final, analytic.steps[2].cm, 3.0).passed
                and compare_estimate(result.recovered, analytic.recovery.cm, 3.0).passed
            )
            shifted = analytic.steps[2].cm.matrix.copy()
            shifted[0, 0] += 6.0 * result.final.std_error[0, 0]
            assert not compare_estimate(result.final, shifted, 3.0).passed
        assert passed >= 30

    def test_bad_gain_rejected(self):
        with pytest.raises(ValueError):
            simulate_protocol(ProtocolParams(t=0.2), count=2000, seed=1, gain=np.eye(3))
