"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math

import numpy as np

from sepdist.montecarlo import compare_estimate, simulate_protocol
from sepdist.protocol import (
    ProtocolParams,
    receiver_output_equivalence,
    run_distribution_protocol,
    run_recovery_protocol,
    separability_threshold,
    carrier_ppt_eigenvalue,
    sweep,
)
from sepdist.states import balanced_beam_splitter
from sepdist.symplectic import (
    partial_transpose,
    ppt_lower_eigenvalue,
    symplectic_eigenvalues,
    symplectic_form,
)

from conftest import random_cm

T_3DB = 0.5 * math.log(2.0)
T_10DB = 0.5 * math.log(10.0)


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_01_3db_operating_point():
    report = run_distribution_protocol(ProtocolParams(t=T_3DB, x="auto"))
    assert abs(report.nu - 0.6589) <= 5e-4
    assert abs(report.log_negativity - 0.6019) <= 1e-3
    _report(1, "nu and log negativity at e2t=2, x=x_sep")


def test_criterion_02_10db_operating_point():
    report = run_distribution_protocol(ProtocolParams(t=T_10DB, x=4.5))
    assert abs(report.nu - 0.3968) <= 5e-4
    assert abs(report.log_negativity - 1.3334) <= 1e-3
    _report(2, "nu and log negativity at e2t=10, x=4.5")


def test_criterion_03_threshold_identity():
    for t in np.linspace(0.14, 7.0, 50):
        value = carrier_ppt_eigenvalue(float(t), separability_threshold(float(t)))
        assert abs(value - 1.0) <= 1e-10
    _report(3, "threshold eigenvalue equals 1 for 50 t in (0, 7]")


def test_criterion_04_carrier_sigma_after_step3():
    report = run_distribution_protocol(ProtocolParams(t=T_3DB, x=0.5))
    assert abs(report.carrier_sigma - 1.0) <= 1e-9
    _report(4, "sigma criterion equals 1 at e2t=2, x=0.5")


def test_criterion_05_asymptote_and_monotonicity():
    e2t_grid = np.geomspace(1.1, 1e6, 40)
    result = sweep(0.5 * np.log(e2t_grid), x_policy="auto")
    assert result.nu_strictly_decreasing
    assert abs(result.final_nu - 1.0 / 3.0) <= 1e-3
    assert abs(result.final_log_negativity - 1.585) <= 2e-3
    _report(5, "nu decreases to 1/3, log negativity to 1.585")


def test_criterion_06_recovery_optimality_values():
    for e2t in (2.0, 10.0):
        t = 0.5 * math.log(e2t)
        x = separability_threshold(t)
        result = run_recovery_protocol(ProtocolParams(t=t, x="auto"))
        assert abs(result.nu_ac - math.exp(-2.0 * t)) <= 1e-12
        expected_det = (1.0 + 2.0 * x * math.exp(-2.0 * t)) ** 2
        assert abs(result.purity_det - expected_det) <= 1e-10
    _report(6, "unit gain restores e^{-2t} and the purity determinant")


def test_criterion_07_noise_excess_robustness():
    report = run_distribution_protocol(ProtocolParams(t=T_3DB, x=0.5, excess=200.0))
    assert abs(report.log_negativity - 0.5851) <= 1e-3
    _report(7, "log negativity at 200 vacuum units of excess")


def test_criterion_08_receiver_equivalence_random_grid():
    rng = np.random.default_rng(314159)
    for _ in range(10):
        t = float(rng.uniform(0.05, 1.5))
        x = separability_threshold(t) + float(rng.uniform(0.0, 2.0))
        assert receiver_output_equivalence(ProtocolParams(t=t, x=x), tol=1e-10)
    _report(8, "receiver output equals optimal recovery mixed with vacuum")


def test_criterion_09_monte_carlo_oracle():
    params = ProtocolParams(t=T_3DB, x="auto")
    analytic = run_distribution_protocol(params, include_recovery=True)
    simulated = simulate_protocol(params, count=1_000_000, seed=42)
    assert compare_estimate(simulated.final, analytic.steps[2].cm, 3.0).passed
    assert compare_estimate(simulated.recovered, analytic.recovery.cm, 3.0).passed
    _report(9, "MC estimates match analytic CMs within 3 standard errors")


def test_criterion_10_structural_properties():
    omega3 = symplectic_form(3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s = balanced_beam_splitter(3, i, j).matrix
        assert np.abs(s @ omega3 @ s.T - omega3).max() <= 1e-12
    omega2 = symplectic_form(2)
    s = balanced_beam_splitter(2, 0, 1).matrix
    assert np.abs(s @ omega2 @ s.T - omega2).max() <= 1e-12

    rng = np.random.default_rng(271828)
    for _ in range(100):
        cm, _ = random_cm(3, rng)
        pt_product = float(np.prod(symplectic_eigenvalues(partial_transpose(cm, 1)) ** 2))
        det = float(np.linalg.det(cm.matrix))
        assert abs(pt_product - det) <= 1e-9 * max(1.0, abs(det))
        twice = partial_transpose(partial_transpose(cm, 2), 2)
        assert np.array_equal(twice.matrix, cm.matrix)
    for _ in range(100):
        cm, _ = random_cm(2, rng)
        closed = ppt_lower_eigenvalue(cm, 1)
        general = symplectic_eigenvalues(partial_transpose(cm, 1))[0]
        assert abs(closed - general) <= 1e-10
    _report(10, "symplectic, determinant, two-mode and involution properties")


def test_criterion_11_classical_noise_negative_control():
    for x in (0.0, 0.3, 0.7, 2.0):
        report = run_distribution_protocol(ProtocolParams(t=0.0, x=x))
        assert report.log_negativity == 0.0
        for step in report.steps:
            for verdict in step.verdicts:
                assert verdict.status in ("separable", "boundary")
        assert report.final_ab_verdict.status in ("separable", "boundary")
        sigma_status = report.carrier_sigma_verdict.status
        assert sigma_status in ("separable", "boundary")
    _report(11, "no squeezing: no bipartition entangled, log negativity 0")
