"""Atomic spectral measures of Hermitian DMD operators.

Projecting an observable g onto the dictionary span via weighted least
squares gives coefficients

    g_c = (W^{1/2} Psi_X)^+ W^{1/2} (g(x^(1)), ..., g(x^(M)))^T
        = G^+ Psi_X^* W g_samples,

computed with the same spectral-cutoff pseudoinverse as the operators in
`hdmd.dmd` so that g_c always lies in the retained eigenspace of G.  Given
eigenpairs (lambda_j, v_j) with v_i^* G v_j = delta_ij, the spectral measure
of the observable is the atomic measure

    mu = sum_j c_j delta_{lambda_j},    c_j = |v_j^* G g_c|^2.

Because the weights are squared moduli of G-orthonormal expansion
coefficients, the total mass equals g_c^* G g_c (discrete Parseval), and any
unitary re-mixing inside a degenerate eigenvalue cluster leaves cluster
sums unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dictionary import FeatureMatrices
from .dmd import GramPair, KoopmanEig, assemble_gram_pair
from .matio import format_float
from .quadrature import QuadratureRule


@dataclass(frozen=True)
class ObservableCoefficients:
    """Least-squares expansion of an observable in the dictionary."""

    coeffs: np.ndarray
    gram: GramPair

    def mass(self) -> float:
        """g_c^* G g_c, the squared G-norm of the projected observable."""
        return float(np.real(self.coeffs.conj() @ self.gram.g @ self.coeffs))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses c_j * delta_{lambda_j}, locations ascending."""

    locations: np.ndarray
    weights: np.ndarray
    total_mass: float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float).ravel()
        wts = np.asarray(self.weights, dtype=float).ravel()
        if loc.shape != wts.shape:
            raise ValueError(f"locations/weights length mismatch: {loc.shape} vs {wts.shape}")
        if np.any(wts < 0):
            raise ValueError("atom weights must be nonnegative")
        if np.any(np.diff(loc) < 0):
            raise ValueError("atom locations must be sorted ascending")
        recomputed = float(np.sum(wts))
        if abs(recomputed - self.total_mass) > 1e-12 * max(1.0, abs(recomputed)):
            raise ValueError(
                f"total_mass {self.total_mass} inconsistent with sum of weights {recomputed}"
            )
        loc.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)

    @property
    def atom_count(self) -> int:
        return self.locations.shape[0]

    def to_csv(self, path) -> None:
        lines = ["lambda,weight"]
        for lam, w in zip(self.locations, self.weights):
            lines.append(f"{format_float(lam)},{format_float(w)}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_atoms(cls, locations, weights) -> "AtomicMeasure":
        loc = np.asarray(locations, dtype=float).ravel()
        wts = np.asarray(weights, dtype=float).ravel()
        order = np.argsort(loc, kind="stable")
        return cls(locations=loc[order], weights=wts[order], total_mass=float(np.sum(wts)))


def project_observable(
    samples,
    features: FeatureMatrices,
    quad: QuadratureRule,
    pair: Optional[GramPair] = None,
) -> ObservableCoefficients:
    """Weighted least-squares fit of sampled observable values to the dictionary.

    Passing an existing GramPair (assembled from the same features and rule)
    avoids re-assembly and guarantees the same truncation policy.
    """
    vals = np.asarray(samples, dtype=complex).ravel()
    if vals.shape[0] != features.snapshot_count:
        raise ValueError(
            f"sample count {vals.shape[0]} != snapshot count {features.snapshot_count}"
        )
    if pair is None:
        pair = assemble_gram_pair(features, quad)
    elif pair.size != features.dictionary_size:
        raise ValueError("GramPair size does not match the feature matrices")
    rhs = features.psi_x.conj().T @ (quad.weights * vals)
    return ObservableCoefficients(coeffs=pair.solve(rhs), gram=pair)


def spectral_measure(eig: KoopmanEig, obs: ObservableCoefficients) -> AtomicMeasure:
    """Atoms (lambda_j, |v_j^* G f|^2) of the observable's spectral measure."""
    if eig.gram is not obs.gram:
        raise ValueError("eigenpairs and observable coefficients use different GramPairs")
    gf = eig.gram.g @ obs.coeffs
    weights = np.abs(eig.eigenvectors.conj().T @ gf) ** 2
    return AtomicMeasure.from_atoms(eig.eigenvalues, weights)


def integrate(measure: AtomicMeasure, test_fn: Callable[[float], float]) -> float:
    """sum_j c_j * test_fn(lambda_j) for a bounded continuous test function."""
    vals = np.array([float(test_fn(lam)) for lam in measure.locations])
    return float(np.dot(measure.weights, vals))


def _validate_references(reference_locations, radius: float) -> np.ndarray:
    refs = np.asarray(reference_locations, dtype=float).ravel()
    if refs.size == 0:
        raise ValueError("need at least one reference location")
    if np.unique(refs).size != refs.size:
        raise ValueError("reference locations must be distinct")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if refs.size > 1:
        min_gap = float(np.min(np.diff(np.sort(refs))))
        if not radius < 0.5 * min_gap:
            raise ValueError(
                f"radius {radius} must be below half the minimum reference gap ({0.5 * min_gap})"
            )
    return refs


def cluster_table(
    measure: AtomicMeasure,
    reference_locations: Sequence[float],
    radius: float,
    weighted_mean: bool = True,
):
    """Per-reference summary rows (reference, location, weight, atom_count).

    The cluster of a reference E collects atoms with |lambda - E| <= radius;
    its location is their weight-averaged mean (plain mean with
    weighted_mean=False) and its weight the plain sum.  Empty clusters give
    (E, nan, 0.0, 0).  Also returns the boolean mask of atoms matched by any
    reference.  Requires distinct references and radius below half the
    minimum reference gap, so clusters cannot overlap.
    """
    refs = _validate_references(reference_locations, radius)
    locs, wts = measure.locations, measure.weights
    matched = np.zeros(locs.shape[0], dtype=bool)
    rows = []
    for ref in refs:
        mask = np.abs(locs - ref) <= radius
        count = int(np.count_nonzero(mask))
        if count == 0:
            rows.append((float(ref), float("nan"), 0.0, 0))
            continue
        matched |= mask
        cw = float(np.sum(wts[mask]))
        if weighted_mean and cw > 0:
            loc = float(np.dot(wts[mask], locs[mask]) / cw)
        else:
            loc = float(np.mean(locs[mask]))
        rows.append((float(ref), loc, cw, count))
    return rows, matched
