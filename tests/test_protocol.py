"""Distribution and recovery pipelines, closed forms, and sweeps."""

import math

import numpy as np
import pytest

from sepdist.protocol import (
    ConsistencyError,
    ProtocolParams,
    carrier_ppt_eigenvalue,
    receiver_output_equivalence,
    run_distribution_protocol,
    run_recovery_protocol,
    sender_ppt_eigenvalue,
    separability_threshold,
    sweep,
)
from sepdist.states import reduce_modes
from sepdist.symplectic import (
    is_physical,
    partial_transpose,
    ppt_lower_eigenvalue,
    symplectic_eigenvalues,
)

from test_symplectic import final_state_cm, mixed_state_cm

T_3DB = 0.5 * math.log(2.0)
T_10DB = 0.5 * math.log(10.0)

# Full-precision regression pins, frozen from the closed formulas evaluated
# with exact block matrices; the quoted 4-digit values are asserted at their
# own looser tolerances in the acceptance suite.
NU_3DB = 0.65894798157494
EN_3DB = 0.6017635138512223
NU_10DB = 0.3967921775490101
EN_10DB = 1.3335445104994985
EN_EXCESS_200 = 0.58516052339267


class TestSeparabilityThreshold:
    def test_reference_points(self):
        assert separability_threshold(0.0) == 0.0
        assert separability_threshold(T_3DB) == pytest.approx(0.5, abs=1e-15)
        assert separability_threshold(T_10DB) == pytest.approx(4.5, abs=1e-14)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            separability_threshold(-0.2)


class TestCarrierPptEigenvalue:
    def test_equals_one_at_threshold(self):
        for t in np.linspace(0.14, 7.0, 50):
            value = carrier_ppt_eigenvalue(t, separability_threshold(t))
            assert abs(value - 1.0) <= 1e-10

    def test_matches_direct_formula(self):
        # (sqrt(12.25) - 1.5) / 2 = 1 at the 3 dB operating point.
        assert carrier_ppt_eigenvalue(T_3DB, 0.5) == pytest.approx(
            (math.sqrt(12.25) - 1.5) / 2.0, abs=1e-14
        )

    def test_no_noise_reduces_to_squeezing_eigenvalue(self):
        for t in (0.1, T_3DB, 2.0):
            assert carrier_ppt_eigenvalue(t, 0.0) == pytest.approx(
                math.exp(-2.0 * t), abs=1e-14
            )

    def test_matches_general_routine_above_3db(self, rng):
        # For e^{2t} >= 2 the threshold root sits below the e^{2t} spectator
        # root for every x, so it is the lowest PT eigenvalue outright.
        for _ in range(30):
            t = rng.uniform(0.35, 1.5)
            x = separability_threshold(t) + rng.uniform(0.0, 2.0)
            measured = symplectic_eigenvalues(
                partial_transpose(mixed_state_cm(math.exp(2 * t), x), 2)
            )[0]
            assert abs(carrier_ppt_eigenvalue(t, x) - measured) <= 1e-10

    def test_branch_structure_on_wide_grid(self, rng):
        # Globally the closed value is a root of the PT cubic and the true
        # minimum is min(closed, e^{2t}).
        for _ in range(30):
            t = rng.uniform(0.0, 1.5)
            x = rng.uniform(0.0, 3.0)
            spectrum = symplectic_eigenvalues(
                partial_transpose(mixed_state_cm(math.exp(2 * t), x), 2)
            )
            closed = carrier_ppt_eigenvalue(t, x)
            assert np.abs(spectrum - closed).min() <= 1e-10
            assert abs(spectrum[0] - min(closed, math.exp(2 * t))) <= 1e-10


class TestSenderPptEigenvalue:
    def test_reference_point(self):
        assert sender_ppt_eigenvalue(T_3DB, 0.5) == pytest.approx(
            (4.5 - math.sqrt(10.25)) / 2.0, abs=1e-14
        )

    def test_boundary_at_zero_squeezing(self):
        for x in (0.1, 0.5, 3.0):
            assert sender_ppt_eigenvalue(0.0, x) == pytest.approx(1.0, abs=1e-12)

    def test_no_noise_reduces_to_squeezing_eigenvalue(self):
        assert sender_ppt_eigenvalue(T_3DB, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_witnesses_entanglement_for_positive_parameters(self):
        for t in (0.05, 0.5, 2.0):
            for x in (0.1, 1.0, 10.0):
                assert sender_ppt_eigenvalue(t, x) < 1.0

    def test_matches_general_routine(self, rng):
        for _ in range(30):
            t = rng.uniform(0.05, 1.5)
            x = rng.uniform(0.0, 3.0)
            measured = symplectic_eigenvalues(
                partial_transpose(mixed_state_cm(math.exp(2 * t), x), 0)
            )[0]
            assert abs(sender_ppt_eigenvalue(t, x) - measured) <= 1e-10


class TestProtocolParams:
    def test_auto_resolves_to_threshold(self):
        params = ProtocolParams(t=T_3DB, x="auto")
        assert params.resolved_x == pytest.approx(0.5, abs=1e-15)

    def test_manual_noise(self):
        assert ProtocolParams(t=0.3, x=1.25).resolved_x == 1.25

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(t=-1.0)
        with pytest.raises(ValueError):
            ProtocolParams(t=0.1, x="fast")
        with pytest.raises(ValueError):
            ProtocolParams(t=0.1, x=-0.5)
        with pytest.raises(ValueError):
            ProtocolParams(t=0.1, excess=-2.0)


class TestDistributionRun:
    def test_3db_operating_point(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB))
        assert report.nu == pytest.approx(NU_3DB, abs=1e-12)
        assert report.log_negativity == pytest.approx(EN_3DB, abs=1e-12)
        assert report.carrier_sigma == pytest.approx(1.0, abs=1e-9)
        assert report.carrier_separable
        assert report.construction_separable
        assert report.note is None

    def test_10db_operating_point(self):
        report = run_distribution_protocol(ProtocolParams(t=T_10DB))
        assert report.nu == pytest.approx(NU_10DB, abs=1e-12)
        assert report.log_negativity == pytest.approx(EN_10DB, abs=1e-12)

    def test_noise_excess_robustness(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB, excess=200.0))
        assert report.log_negativity == pytest.approx(EN_EXCESS_200, abs=1e-11)
        assert report.carrier_separable

    def test_step_matrices_match_block_forms(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB))
        np.testing.assert_allclose(
            report.steps[1].cm.matrix, mixed_state_cm(2.0, 0.5).matrix, atol=1e-13
        )
        np.testing.assert_allclose(
            report.steps[2].cm.matrix, final_state_cm(2.0, 0.5).matrix, atol=1e-13
        )

    def test_verdict_pattern_at_threshold(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB))
        step1, step2, step3 = report.steps
        # Step 1 is fully separable by construction; every PPT witness sits at
        # or above 1, so nothing may read entangled.
        assert all(not v.entangled for v in step1.verdicts)
        sender, receiver, carrier = step2.verdicts
        assert sender.status == "entangled"
        assert not receiver.entangled
        assert carrier.status in ("boundary", "separable")
        assert report.carrier_sigma_verdict.status == "separable"
        assert report.final_ab_verdict.status == "entangled"
        assert step3.verdicts[2].status == "separable"

    def test_below_threshold_carrier_not_separable(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB, x=0.2))
        assert not report.carrier_separable
        assert report.steps[1].verdicts[2].status == "entangled"

    def test_above_threshold_distribution_still_succeeds(self):
        for extra in (0.3, 1.0, 5.0):
            params = ProtocolParams(t=T_3DB, x=0.5 + extra)
            report = run_distribution_protocol(params)
            assert report.steps[1].verdicts[2].status == "separable"
            assert report.nu < 1.0

    def test_all_step_cms_physical(self):
        report = run_distribution_protocol(ProtocolParams(t=T_10DB, excess=3.0))
        for step in report.steps:
            assert is_physical(step.cm)

    def test_verdict_pattern_along_threshold_curve(self, rng):
        # At x = x_sep for any t > 0: sender entangled with the pair, receiver
        # and carrier not entangled (carrier exactly at the boundary), final
        # carrier split certified separable by a strictly positive product.
        for _ in range(8):
            t = rng.uniform(0.1, 2.0)
            report = run_distribution_protocol(ProtocolParams(t=t))
            sender, receiver, carrier = report.steps[1].verdicts
            assert sender.status == "entangled"
            assert not receiver.entangled
            assert carrier.status in ("boundary", "separable")
            assert report.carrier_sigma_verdict.status == "separable"
            assert report.carrier_sigma > 0.0

    def test_distribution_succeeds_for_any_noise_above_threshold(self, rng):
        for _ in range(8):
            t = rng.uniform(0.1, 2.0)
            x = separability_threshold(t) * rng.uniform(1.0, 3.0)
            report = run_distribution_protocol(ProtocolParams(t=t, x=x))
            assert report.nu < 1.0
            assert not report.steps[1].verdicts[2].entangled

    def test_reported_nu_matches_stored_reduced_state(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB))
        again = ppt_lower_eigenvalue(report.final_ab, 1)
        assert abs(report.nu - again) <= 1e-10
        np.testing.assert_array_equal(
            report.final_ab.matrix, reduce_modes(report.steps[2].cm, (0, 1)).matrix
        )

    def test_zero_squeezing_yields_no_entanglement(self):
        for x in (0.0, 0.3, 0.7, 2.0):
            report = run_distribution_protocol(ProtocolParams(t=0.0, x=x))
            assert report.log_negativity == 0.0
            assert report.note is not None
            for step in report.steps:
                assert all(not v.entangled for v in step.verdicts)
            assert not report.final_ab_verdict.entangled

    def test_includes_recovery_when_requested(self):
        report = run_distribution_protocol(ProtocolParams(t=T_3DB), include_recovery=True)
        assert report.recovery is not None
        assert report.recovery.nu_ac == pytest.approx(0.5, abs=1e-12)


class TestRecovery:
    def test_unit_gain_restores_input_eigenvalue(self):
        for e2t in (2.0, 10.0):
            t = 0.5 * math.log(e2t)
            result = run_recovery_protocol(ProtocolParams(t=t))
            assert abs(result.nu_ac - math.exp(-2.0 * t)) <= 1e-12

    def test_unit_gain_purity_determinant(self):
        for e2t, expected in ((2.0, 2.25), (10.0, 3.61)):
            t = 0.5 * math.log(e2t)
            result = run_recovery_protocol(ProtocolParams(t=t))
            assert abs(result.purity_det - expected) <= 1e-10

    def test_unit_gain_block_structure(self):
        result = run_recovery_protocol(ProtocolParams(t=T_3DB))
        a = math.cosh(2 * T_3DB) + 0.5
        coupling = math.sinh(2 * T_3DB) - 0.5 + 1.0
        sz = np.diag([1.0, -1.0])
        np.testing.assert_allclose(result.cm.block(0, 0), a * np.eye(2), atol=1e-13)
        np.testing.assert_allclose(result.cm.block(1, 1), a * np.eye(2), atol=1e-13)
        np.testing.assert_allclose(result.cm.block(0, 1), coupling * sz, atol=1e-13)

    def test_general_gain_block_structure(self, rng):
        # Independent oracle: closed blocks A = a 1, coupling = sz (b 1 + 2x G^T),
        # C = a 1 + 4x G G^T - 2x (G + G^T), derived from the transformed quadratures.
        t, x = 0.7, 2.1
        a = math.cosh(2 * t) + x
        b = math.sinh(2 * t) - x
        sz = np.diag([1.0, -1.0])
        for _ in range(10):
            gain = rng.uniform(-1.5, 1.5, (2, 2))
            result = run_recovery_protocol(ProtocolParams(t=t, x=x), gain)
            np.testing.assert_allclose(result.cm.block(0, 0), a * np.eye(2), atol=1e-12)
            np.testing.assert_allclose(
                result.cm.block(0, 1), sz @ (b * np.eye(2) + 2 * x * gain.T), atol=1e-12
            )
            np.testing.assert_allclose(
                result.cm.block(1, 1),
                a * np.eye(2) + 4 * x * gain @ gain.T - 2 * x * (gain + gain.T),
                atol=1e-12,
            )

    def test_zero_gain_keeps_residual_correlations(self):
        result = run_recovery_protocol(ProtocolParams(t=T_3DB), np.zeros((2, 2)))
        b = math.sinh(2 * T_3DB) - 0.5
        a = math.cosh(2 * T_3DB) + 0.5
        np.testing.assert_allclose(result.cm.block(0, 1), b * np.diag([1.0, -1.0]), atol=1e-13)
        np.testing.assert_allclose(result.cm.block(1, 1), a * np.eye(2), atol=1e-13)
        assert result.nu_ac >= math.exp(-2.0 * T_3DB)

    def test_zero_squeezing_unit_gain(self):
        result = run_recovery_protocol(ProtocolParams(t=0.0, x=1.0))
        assert result.nu_ac == pytest.approx(1.0, abs=1e-12)
        assert result.log_negativity == 0.0

    def test_recovery_with_excess_still_restores_eigenvalue(self):
        result = run_recovery_protocol(ProtocolParams(t=T_3DB, excess=200.0))
        assert result.nu_ac == pytest.approx(0.5, abs=1e-10)

    def test_recovery_beats_distribution(self):
        # Feed-forward recovery always witnesses at least as much entanglement
        # as the beam-splitter path, which mixes in an extra vacuum unit.
        for e2t in (1.5, 2.0, 4.0, 10.0, 100.0):
            t = 0.5 * math.log(e2t)
            report = run_distribution_protocol(ProtocolParams(t=t), include_recovery=True)
            assert report.recovery.log_negativity >= report.log_negativity

    def test_bad_gain_rejected(self):
        with pytest.raises(ValueError):
            run_recovery_protocol(ProtocolParams(t=0.1), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            run_recovery_protocol(ProtocolParams(t=0.1), np.full((2, 2), np.nan))


class TestReceiverOutputEquivalence:
    def test_reference_points(self):
        assert receiver_output_equivalence(ProtocolParams(t=T_3DB))
        assert receiver_output_equivalence(ProtocolParams(t=T_10DB))

    def test_zero_squeezing(self):
        assert receiver_output_equivalence(ProtocolParams(t=0.0, x=0.8))

    def test_random_grid(self, rng):
        for _ in range(10):
            t = rng.uniform(0.05, 1.5)
            x = separability_threshold(t) + rng.uniform(0.0, 2.0)
            assert receiver_output_equivalence(ProtocolParams(t=t, x=x), tol=1e-10)


class TestSweep:
    def test_single_point_matches_single_run(self):
        result = sweep(np.array([T_3DB]))
        row = result.rows[0]
        report = run_distribution_protocol(ProtocolParams(t=T_3DB))
        assert row.nu == pytest.approx(report.nu, abs=1e-14)
        assert row.log_negativity == pytest.approx(report.log_negativity, abs=1e-14)
        assert row.tau3 == pytest.approx(report.carrier_ppt_min, abs=1e-14)
        assert row.x == pytest.approx(0.5, abs=1e-14)

    def test_monotone_decrease_and_asymptote(self):
        e2t_grid = np.geomspace(1.1, 1e6, 40)
        result = sweep(0.5 * np.log(e2t_grid))
        assert result.nu_strictly_decreasing
        assert abs(result.final_nu - 1.0 / 3.0) <= 1e-3
        assert abs(result.final_log_negativity - math.log2(3.0)) <= 2e-3

    def test_sigma_positive_along_threshold_sweep(self):
        result = sweep(0.5 * np.log(np.geomspace(1.2, 100.0, 8)))
        for row in result.rows:
            assert row.sigma > 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(np.array([]))


class TestBatchParity:
    """A sweep is one batch; each row equals the single run at its grid point."""

    @pytest.mark.parametrize(
        "t_grid, x_policy, excess",
        [
            (0.5 * np.log(np.geomspace(1.1, 1e6, 40)), "auto", 0.0),
            (0.5 * np.log(np.geomspace(1.1, 1e3, 7)), 0.5, 10.0),
            (np.array([T_3DB]), "auto", 0.0),
        ],
        ids=["auto-40", "manual-excess", "single"],
    )
    def test_rows_equal_single_runs(self, t_grid, x_policy, excess):
        result = sweep(t_grid, x_policy=x_policy, excess=excess)
        assert len(result.rows) == len(t_grid)
        for t, row in zip(t_grid, result.rows):
            params = ProtocolParams(t=float(t), x=x_policy, excess=excess)
            report = run_distribution_protocol(params)
            assert row.e2t == report.params.e2t
            assert row.x == report.params.resolved_x
            assert row.tau3 == report.carrier_ppt_min
            assert row.omega3 == report.sender_ppt_min
            assert row.sigma == report.carrier_sigma
            assert row.nu == report.nu
            assert row.log_negativity == report.log_negativity

    def test_failing_point_raises_its_error(self):
        # e2t = 1e4 with x = 0 is the known false rejection of a physical
        # state; the batch reports it as the single run there does.
        t_grid = 0.5 * np.log(np.array([2.0, 10.0, 1e4, 20.0]))
        with pytest.raises(ConsistencyError, match="^step 2 CM is not physical$"):
            sweep(t_grid, x_policy=0.0)
        with pytest.raises(ConsistencyError, match="^step 2 CM is not physical$"):
            run_distribution_protocol(ProtocolParams(t=float(t_grid[2]), x=0.0))

    def test_corrupted_closed_form_fails_the_sweep(self, monkeypatch):
        import sepdist.protocol as protocol_module

        original = protocol_module._mixed_state_explicit
        monkeypatch.setattr(
            protocol_module,
            "_mixed_state_explicit",
            lambda t, x, excess: original(t, x, excess) + 1e-6,
        )
        with pytest.raises(ConsistencyError, match="^mixed state differs from closed form"):
            sweep(0.5 * np.log(np.geomspace(1.1, 10.0, 5)))

    def test_thirteen_spectra_per_point(self, monkeypatch):
        import sepdist.protocol as protocol_module
        import sepdist.symplectic as symplectic_module

        original = symplectic_module.symplectic_eigenvalues
        received = []

        def counting(cm):
            shape = cm.matrix.shape if hasattr(cm, "matrix") else np.shape(cm)
            received.append(int(np.prod(shape[:-2])))
            return original(cm)

        for module in (symplectic_module, protocol_module):
            monkeypatch.setattr(module, "symplectic_eigenvalues", counting)
        sweep(0.5 * np.log(np.geomspace(1.1, 1e6, 40)))
        assert sum(received) == 13 * 40
        received.clear()
        run_distribution_protocol(ProtocolParams(t=T_3DB))
        assert sum(received) == 13


class TestConsistencyGuards:
    def test_cross_check_trips_on_corrupted_closed_form(self, monkeypatch):
        import sepdist.protocol as protocol_module

        original = protocol_module._mixed_state_explicit
        monkeypatch.setattr(
            protocol_module,
            "_mixed_state_explicit",
            lambda t, x, excess: original(t, x, excess) + 1e-6,
        )
        with pytest.raises(ConsistencyError):
            run_distribution_protocol(ProtocolParams(t=T_3DB))
