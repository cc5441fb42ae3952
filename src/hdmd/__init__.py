"""Hermitian dynamic mode decomposition for self-adjoint Koopman operators.

Builds structure-preserving (Hermitian) DMD approximations from snapshot
data, computes atomic spectral measures of observables, and provides
finite-section convergence diagnostics plus a 2-D harmonic-oscillator
benchmark with closed-form oracles.

The package namespace holds the dense benchmark pipeline; every other name
is imported from its own module.
"""

__version__ = "0.1.0"

from .quadrature import tensor_trapezoid
from .dictionary import evaluate_function_samples
from .dmd import assemble_gram_pair, eigendecompose, hermitian_dmd
from .spectral import project_observable, spectral_measure
from .schrodinger import (
    HarmonicOscillatorProblem,
    exact_spectrum,
    exact_spike_weights,
    generate_snapshots,
    reference_observable,
)
