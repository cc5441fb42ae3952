"""Quadrature rules that discretize L2 inner products over the state space.

A rule is a set of nodes x^(m) in R^d with strictly positive weights w_m,
representing the discrete measure

    omega_M = sum_m w_m * delta_{x^(m)},

so that integrals become weighted sums:  int f d(omega_M) = sum_m w_m f(x^(m)).
The weight matrix W = diag(w_1, ..., w_M) used downstream is never formed
explicitly; weights are kept as a vector.

Tensor-product rules also expose their 1-D factors (`trapezoid_axes`), which
separable problems use to assemble inner products without the M-point grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

Box = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (M, d) and positive weights (M,) of a discrete measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # views (ravel gives one for weights): freezing them leaves the caller's arrays writeable
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float)).view()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError(
                f"node/weight count mismatch: {nodes.shape[0]} vs {weights.shape[0]}"
            )
        if weights.size < 1:
            raise ValueError("a quadrature rule needs at least one node")
        if not np.all(weights > 0):
            raise ValueError("all quadrature weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def _check_box(domain: Box) -> list[tuple[float, float]]:
    box = [(float(a), float(b)) for a, b in domain]
    if not box:
        raise ValueError("domain box must have at least one axis")
    for k, (a, b) in enumerate(box):
        if not b > a:
            raise ValueError(f"axis {k}: box [{a}, {b}] is empty or inverted")
    return box


def trapezoid_axes(domain: Box, points_per_axis: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-axis 1-D trapezoid rules (nodes, weights) on an axis-aligned box.

    Each axis uses n >= 2 equispaced points including both endpoints;
    interior weights equal the spacing h, boundary weights h/2.
    """
    box = _check_box(domain)
    counts = [int(n) for n in points_per_axis]
    if len(counts) != len(box):
        raise ValueError(f"got {len(counts)} point counts for a {len(box)}-axis box")
    rules = []
    for k, ((a, b), n) in enumerate(zip(box, counts)):
        if n < 2:
            raise ValueError(f"axis {k}: trapezoid rule needs at least 2 points, got {n}")
        w = np.full(n, (b - a) / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        rules.append((np.linspace(a, b, n), w))
    return rules


def grid_nodes(axes) -> np.ndarray:
    """Tensor grid (M, d) of the 1-D coordinate arrays in axes, row-major with the last axis fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def tensor_trapezoid(domain: Box, points_per_axis: Sequence[int]) -> QuadratureRule:
    """Tensor product of the `trapezoid_axes` rules.

    Tensor weights are products of the 1-D factors, so the total mass is
    the box volume (up to roundoff).  Nodes are `grid_nodes` of the axes.
    """
    axes, axis_weights = zip(*trapezoid_axes(domain, points_per_axis))
    return QuadratureRule(nodes=grid_nodes(axes), weights=reduce(np.multiply.outer, axis_weights).ravel())


def monte_carlo(samples, total_mass: float) -> QuadratureRule:
    """Equal-weight rule over sample points; each weight is total_mass / M."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one sample point")
    if not total_mass > 0:
        raise ValueError(f"total_mass must be positive, got {total_mass}")
    weights = np.full(pts.shape[0], float(total_mass) / pts.shape[0])
    return QuadratureRule(nodes=pts, weights=weights)
