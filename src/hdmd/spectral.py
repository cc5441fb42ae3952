"""Atomic spectral measures of Hermitian DMD operators, from an observable's moments.

An observable g sampled at the snapshots enters only through its moments
m = Psi_X^* W g_samples.  Its weighted least-squares expansion in the
dictionary is g_c = G^+ m, with the same spectral-cutoff pseudoinverse as the
operators in `hdmd.dmd`, so g_c lies in the retained eigenspace of G.  Given
eigenpairs (lambda_j, v_j) with v_i^* G v_j = delta_ij, the spectral measure
of the observable is the atomic measure

    mu = sum_j c_j delta_{lambda_j},    c_j = |v_j^* m|^2 = |v_j^* G g_c|^2

Because the weights are squared moduli of G-orthonormal expansion
coefficients, the total mass equals g_c^* G g_c = `GramPair.observable_mass(m)`
(discrete Parseval), and any unitary re-mixing inside a degenerate eigenvalue
cluster leaves cluster sums unchanged.  Neither weights nor mass multiply G
back onto G^+ m, which loses accuracy along tiny retained eigenvalues of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dictionary import FeatureMatrices
from .dmd import GramPair, KoopmanEig
from .quadrature import QuadratureRule


@dataclass(frozen=True)
class ObservableCoefficients:
    """An observable's moments m = Psi_X^* W g and the GramPair its expansion g_c = G^+ m uses."""

    moments: np.ndarray
    gram: GramPair

    def mass(self) -> float:
        """g_c^* G g_c, the squared G-norm of the projected observable (`GramPair.observable_mass`)."""
        return self.gram.observable_mass(self.moments)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses c_j * delta_{lambda_j}, locations ascending; total_mass is sum_j c_j."""

    locations: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float).ravel()
        wts = np.asarray(self.weights, dtype=float).ravel()
        if loc.shape != wts.shape:
            raise ValueError(f"locations/weights length mismatch: {loc.shape} vs {wts.shape}")
        if not np.all(wts >= 0):  # so NaN fails, as it does not fail `wts < 0`
            raise ValueError("atom weights must be nonnegative")
        if not np.all(np.diff(loc) >= 0):
            raise ValueError("atom locations must be sorted ascending")
        loc.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "total_mass", float(np.sum(wts)))


def project_observable(
    samples,
    features: FeatureMatrices,
    quad: QuadratureRule,
    pair: GramPair,
) -> ObservableCoefficients:
    """Weighted least-squares fit of sampled observable values to the dictionary.

    `pair` is the GramPair assembled from the same features and rule, so the
    expansion uses the operators' truncation.
    """
    vals = np.asarray(samples, dtype=complex).ravel()
    if vals.shape[0] != features.snapshot_count:
        raise ValueError(
            f"sample count {vals.shape[0]} != snapshot count {features.snapshot_count}"
        )
    if pair.size != features.dictionary_size:
        raise ValueError("GramPair size does not match the feature matrices")
    return ObservableCoefficients(moments=features.psi_x.conj().T @ (quad.weights * vals), gram=pair)


def spectral_measure(eig: KoopmanEig, obs: ObservableCoefficients) -> AtomicMeasure:
    """Atoms (lambda_j, |v_j^* m|^2) of the observable's spectral measure, from its moments m."""
    if eig.gram is not obs.gram:
        raise ValueError("eigenpairs and observable coefficients use different GramPairs")
    return AtomicMeasure(eig.eigenvalues, eig.weights(obs.moments))


def cluster_table(
    measure: AtomicMeasure,
    reference_locations: Sequence[float],
    radius: float,
):
    """Per-reference summary rows (reference, location, weight, atom_count).

    The cluster of a reference E collects atoms with |lambda - E| <= radius;
    its location is their weight-averaged mean and its weight the plain sum.
    A cluster weighing at most eps * total_mass (eps the float64 epsilon)
    holds only roundoff, so its location is the plain mean of its atoms.
    Empty clusters give (E, nan, 0.0, 0).  Also returns the boolean mask of
    atoms matched by any reference.  Requires distinct references and radius
    below half the minimum reference gap, so clusters cannot overlap.
    """
    refs = np.asarray(reference_locations, dtype=float).ravel()
    if refs.size == 0:
        raise ValueError("need at least one reference location")
    # sorted gaps, not np.unique: that would import numpy.ma inside the first call
    order = np.argsort(refs, kind="stable")
    edges = np.concatenate(([np.nan], refs[order], [np.nan]))  # NaN past both ends: |lambda - NaN| <= radius is false
    gaps = np.diff(edges[1:-1])
    if (gaps == 0).any():
        raise ValueError("reference locations must be distinct")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if gaps.size and not radius < 0.5 * float(gaps.min()):
        raise ValueError(
            f"radius {radius} must be below half the minimum reference gap ({0.5 * float(gaps.min())})"
        )
    # one pass: the gap bound leaves each atom only its neighbours in edges to match, tested as |lambda - E| <= radius
    sides = np.add.outer(np.searchsorted(edges[1:-1], measure.locations), (0, 1))
    hits = np.flatnonzero(np.abs(measure.locations[:, None] - edges[sides]) <= radius)  # atom by atom
    labels = order[sides.ravel()[hits] - 1]  # the caller's index of each matched reference
    members = (hits // 2)[np.argsort(labels, kind="stable")]  # cluster by cluster, each in atom order
    matched = np.bincount(members, minlength=measure.locations.shape[0]) > 0
    locs, wts = measure.locations[members], measure.weights[members]  # so each cluster is one contiguous slice
    light = np.finfo(float).eps * measure.total_mass
    rows, start = [], 0
    for ref, end in zip(refs.tolist(), np.cumsum(np.bincount(labels, minlength=refs.size)).tolist()):
        lam, w, count = locs[start:end], wts[start:end], end - start
        cw = float(np.add.reduce(w)) if count else 0.0  # np.sum's and np.mean's arithmetic, without their overhead
        loc = float("nan") if not count else np.dot(w, lam) / cw if cw > light else np.add.reduce(lam) / count
        rows.append((ref, float(loc), cw, count))
        start = end
    return rows, matched
