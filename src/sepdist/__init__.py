"""Gaussian continuous-variable entanglement distribution with a separable carrier.

Covariance-matrix toolkit (symplectic spectra, PPT and sigma-product
separability criteria), the three-step distribution protocol and its
gain-based recovery variant, a shot-based Monte Carlo oracle, and a CLI.
"""

from .montecarlo import (
    ComparisonReport,
    EnsembleEstimate,
    SimulationResult,
    compare_estimate,
    estimate_cm,
    psd_cholesky,
    sample_gaussian_state,
    simulate_protocol,
)
from .protocol import (
    ConsistencyError,
    ProtocolParams,
    ProtocolReport,
    RecoveryReport,
    StepReport,
    SweepResult,
    SweepRow,
    carrier_ppt_eigenvalue,
    receiver_output_equivalence,
    run_distribution_protocol,
    run_recovery_protocol,
    sender_ppt_eigenvalue,
    separability_threshold,
    sweep,
)
from .states import (
    NoiseModel,
    SymplecticTransform,
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
from .symplectic import (
    CovarianceMatrix,
    SeparabilityVerdict,
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

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symplectic
    "CovarianceMatrix",
    "SeparabilityVerdict",
    "SpectrumError",
    "is_physical",
    "log_negativity",
    "partial_transpose",
    "ppt_lower_eigenvalue",
    "ppt_verdict",
    "separability_product",
    "sigma_verdict",
    "symplectic_eigenvalues",
    "symplectic_form",
    # states
    "NoiseModel",
    "SymplecticTransform",
    "add_classical_noise",
    "apply_symplectic",
    "balanced_beam_splitter",
    "correlated_noise_matrix",
    "direct_sum",
    "displacement_noise_model",
    "reduce_modes",
    "squeezed_vacuum_cm",
    "two_mode_squeezed_cm",
    "vacuum_cm",
    # protocol
    "ConsistencyError",
    "ProtocolParams",
    "ProtocolReport",
    "RecoveryReport",
    "StepReport",
    "SweepResult",
    "SweepRow",
    "carrier_ppt_eigenvalue",
    "receiver_output_equivalence",
    "run_distribution_protocol",
    "run_recovery_protocol",
    "sender_ppt_eigenvalue",
    "separability_threshold",
    "sweep",
    # montecarlo
    "ComparisonReport",
    "EnsembleEstimate",
    "SimulationResult",
    "compare_estimate",
    "estimate_cm",
    "psd_cholesky",
    "sample_gaussian_state",
    "simulate_protocol",
]
