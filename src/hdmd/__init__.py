"""Hermitian dynamic mode decomposition for self-adjoint Koopman operators.

Builds structure-preserving (Hermitian) DMD approximations from snapshot
data, computes atomic spectral measures of observables, and provides
finite-section convergence diagnostics plus a 2-D harmonic-oscillator
benchmark with closed-form oracles.
"""

__version__ = "0.1.0"

from .quadrature import QuadratureRule, monte_carlo, tensor_trapezoid
from .dictionary import (
    DEFAULT_RANK_TOLERANCE,
    Dictionary,
    FeatureMatrices,
    evaluate_function_samples,
    evaluate_snapshots,
    gaussian_grid_dictionary,
)
from .dmd import (
    GramPair,
    KoopmanEig,
    KoopmanMatrix,
    assemble_gram_pair,
    edmd,
    eigendecompose,
    hermitian_dmd,
    symmetric_procrustes,
)
from .spectral import (
    AtomicMeasure,
    ObservableCoefficients,
    cluster_table,
    project_observable,
    spectral_measure,
)
from .probes import (
    FiniteSections,
    ProbeResult,
    free_jacobi,
    moment_convergence_probe,
    resolvent_convergence_probe,
    weak_convergence_probe,
)
from .schrodinger import (
    ExactEigenpair,
    HarmonicOscillatorProblem,
    exact_spectrum,
    exact_spike_weights,
    generate_snapshots,
    reference_observable,
    separable_snapshots,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config

__all__ = [
    "AtomicMeasure",
    "ConfigError",
    "DEFAULT_RANK_TOLERANCE",
    "Dictionary",
    "ExactEigenpair",
    "ExperimentConfig",
    "FeatureMatrices",
    "FiniteSections",
    "GramPair",
    "HarmonicOscillatorProblem",
    "KoopmanEig",
    "KoopmanMatrix",
    "ObservableCoefficients",
    "ProbeResult",
    "QuadratureRule",
    "assemble_gram_pair",
    "cluster_table",
    "default_config",
    "edmd",
    "eigendecompose",
    "evaluate_function_samples",
    "evaluate_snapshots",
    "exact_spectrum",
    "exact_spike_weights",
    "free_jacobi",
    "gaussian_grid_dictionary",
    "generate_snapshots",
    "hermitian_dmd",
    "load_config",
    "moment_convergence_probe",
    "monte_carlo",
    "project_observable",
    "reference_observable",
    "resolvent_convergence_probe",
    "separable_snapshots",
    "spectral_measure",
    "symmetric_procrustes",
    "tensor_trapezoid",
    "weak_convergence_probe",
]
