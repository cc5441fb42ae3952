"""2-D harmonic-oscillator benchmark with closed-form snapshot data.

The Hamiltonian

    H u = -1/2 Laplacian(u) + V u,    V(x, y) = (x^2 + y^2) / 2,

is self-adjoint, and pairs (u, H u) play the role of snapshot data for a
dictionary of Gaussian bumps u = c exp(-a |p - center|^2).  For such bumps
H u has the closed form

    H u = u * sum_k (a - 2 a^2 d_k^2 + x_k^2 / 2),    d = p - center,

(in 2-D, Laplacian(u) = u * (4 a^2 r^2 - 4 a)), so no PDE solver or
numerical differentiation enters the data: the only approximation left in
the pipeline is quadrature plus the dictionary itself.

Bumps, multiplier and the trapezoid rule all separate over axes, so
`separable_snapshots` assembles G, A and Psi_X^* W f from 1-D factors; the
dense `generate_snapshots` stays as the general route and the oracle.

Exact eigenpairs are phi_{m,n}(x, y) = H_m(x) H_n(y) exp(-(x^2+y^2)/2) with
energies E = m + n + 1, using physicists' Hermite polynomials H_m.  The
L2(R^2) normalization constant is (2^{m+n} m! n! pi)^{-1/2}.  Spike-weight
oracles integrate |<f, phi_hat>|^2 with high-resolution Gauss-Legendre
tensor quadrature, fully independent of the DMD pipeline.

Default configuration: domain (-5, 5)^2, 20 x 20 Gaussian centers on
[-4, 4]^2 (endpoints included), width 3, amplitude 1 + i.  Accuracy of
reproduced eigenvalues and spike weights is sensitive to the center-grid
convention; see README for notes on alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial, pi, sqrt
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dictionary import DEFAULT_RANK_TOLERANCE, FeatureMatrices, gaussian_centers
from .dmd import GramPair
from .quadrature import QuadratureRule, trapezoid_axes
from .spectral import AtomicMeasure

Box = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class GaussianDictionarySpec:
    """Parameters of the Gaussian-bump dictionary grid."""

    centers_box: tuple[tuple[float, float], ...] = ((-4.0, 4.0), (-4.0, 4.0))
    per_axis: int = 20
    width: float = 3.0
    amplitude: complex = 1 + 1j

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")

    @property
    def size(self) -> int:
        return self.per_axis ** len(self.centers_box)


@dataclass(frozen=True)
class HarmonicOscillatorProblem:
    """Benchmark problem: harmonic potential on a truncated square domain."""

    domain: tuple[tuple[float, float], ...] = ((-5.0, 5.0), (-5.0, 5.0))
    dictionary_spec: GaussianDictionarySpec = field(default_factory=GaussianDictionarySpec)


def _axis_multiplier(a: float, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One axis's term of (H u) / u for u = exp(-a |p - c|^2), with d = x - c.

    -1/2 d^2/dx^2 exp(-a d^2) = (a - 2 a^2 d^2) exp(-a d^2), plus the axis's
    share x^2 / 2 of the potential; the full multiplier is the sum over axes.
    """
    return a - 2 * a**2 * d**2 + 0.5 * x**2


def generate_snapshots(
    problem: HarmonicOscillatorProblem,
    quad: QuadratureRule,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> FeatureMatrices:
    """Feature matrices (Psi_X, Psi_Y) with Psi_Y = H applied to each Gaussian.

    Rows are dictionary evaluations at the quadrature nodes; the y-side is
    produced analytically at the same nodes (the data relate through H, so
    nothing is time-stepped).  This is the dense route, for any rule.
    """
    nodes = quad.nodes
    lo = np.array([a for a, _ in problem.domain])
    hi = np.array([b for _, b in problem.domain])
    if nodes.shape[1] != len(problem.domain):
        raise ValueError(f"nodes are {nodes.shape[1]}-D but the domain is {len(problem.domain)}-D")
    if np.any(nodes < lo[None, :]) or np.any(nodes > hi[None, :]):
        raise ValueError("quadrature nodes must lie inside the problem domain")

    spec = problem.dictionary_spec
    centers = gaussian_centers(spec.centers_box, spec.per_axis)
    a = float(spec.width)
    psi_x = np.empty((nodes.shape[0], centers.shape[0]), dtype=complex)
    psi_y = np.empty_like(psi_x)
    block = 4096
    for start in range(0, nodes.shape[0], block):
        sl = slice(start, start + block)
        d = nodes[sl, None, :] - centers[None, :, :]
        psi_x[sl] = complex(spec.amplitude) * np.exp(-a * np.sum(d**2, axis=2))
        psi_y[sl] = psi_x[sl] * np.sum(_axis_multiplier(a, d, nodes[sl, None, :]), axis=2)
    return FeatureMatrices(psi_x=psi_x, psi_y=psi_y, rank_tolerance_used=rank_tolerance)


@dataclass(frozen=True)
class SeparableSnapshots:
    """Per-axis factors of the benchmark data on a tensor trapezoid grid.

    Axis k has nodes x, weights w, bumps E = exp(-a (x - c)^2) and multiplier
    terms h.  With G1 = E^T W E and H1 = E^T W (E o h) per axis,
    G = |amp|^2 (x)_k G1_k and A = |amp|^2 sum_k (G1 (x) .. H1_k .. (x) G1),
    both real; Psi_X^* W f = conj(amp) vec(E_1^T W_1 F W_2 E_2).
    """

    amplitude: complex
    axes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    bumps: tuple[np.ndarray, ...]
    multipliers: tuple[np.ndarray, ...]

    @property
    def nodes(self) -> np.ndarray:
        """Grid nodes (M, d), row-major with the last axis fastest, like the centers."""
        return np.column_stack([g.ravel() for g in np.meshgrid(*self.axes, indexing="ij")])

    def gram_pair(self, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> GramPair:
        g1 = [e.T @ (w[:, None] * e) for e, w in zip(self.bumps, self.weights)]
        h1 = [e.T @ (w[:, None] * e * h) for e, w, h in zip(self.bumps, self.weights, self.multipliers)]
        scale = abs(self.amplitude) ** 2
        g = scale * reduce(np.kron, g1)
        a = scale * sum(reduce(np.kron, g1[:k] + [h1[k]] + g1[k + 1 :]) for k in range(len(g1)))
        return GramPair.from_matrices(g, a, rank_tolerance)

    def moments(self, samples) -> np.ndarray:
        """Psi_X^* W f for samples of f at `nodes`, contracted axis by axis."""
        t = np.asarray(samples).reshape([x.shape[0] for x in self.axes])
        for k, (e, w) in enumerate(zip(self.bumps, self.weights)):
            t = np.moveaxis(np.tensordot(t, w[:, None] * e, axes=([k], [0])), -1, k)
        return np.conj(self.amplitude) * t.ravel()


def separable_snapshots(problem: HarmonicOscillatorProblem, points_per_axis) -> SeparableSnapshots:
    """Factors for the tensor trapezoid rule with points_per_axis on problem.domain."""
    spec = problem.dictionary_spec
    a = float(spec.width)
    axes, weights = zip(*trapezoid_axes(problem.domain, points_per_axis))
    boxes = zip(axes, spec.centers_box, strict=True)
    d = [x[:, None] - gaussian_centers([box], spec.per_axis)[None, :, 0] for x, box in boxes]
    return SeparableSnapshots(
        amplitude=complex(spec.amplitude),
        axes=axes,
        weights=weights,
        bumps=tuple(np.exp(-a * dk**2) for dk in d),
        multipliers=tuple(_axis_multiplier(a, dk, x[:, None]) for dk, x in zip(d, axes)),
    )


def hermite_polynomial(m: int, x):
    """Physicists' Hermite polynomial H_m via the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{m+1} = 2x H_m - 2m H_{m-1}; stable for the degree
    range used here (m up to a few dozen).
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    xs = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xs)
    if m == 0:
        return h_prev if xs.ndim else float(h_prev)
    h = 2 * xs
    for k in range(1, m):
        h, h_prev = 2 * xs * h - 2 * k * h_prev, h
    return h if xs.ndim else float(h)


def _normalized_hermite_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..m_max of hhat_m(x) = H_m(x) e^{-x^2/2} / sqrt(2^m m! sqrt(pi))."""
    table = np.empty((m_max + 1, x.shape[0]))
    h_prev = np.ones_like(x)
    table[0] = h_prev
    if m_max >= 1:
        h = 2 * x
        table[1] = h
        for k in range(1, m_max):
            h, h_prev = 2 * x * h - 2 * k * h_prev, h
            table[k + 1] = h
    envelope = np.exp(-0.5 * x**2)
    for m in range(m_max + 1):
        table[m] = table[m] * envelope / sqrt(2.0**m * factorial(m) * sqrt(pi))
    return table


@dataclass(frozen=True)
class ExactEigenpair:
    """Closed-form eigenpair phi_{m,n} with energy m + n + 1."""

    m: int
    n: int

    @property
    def energy(self) -> float:
        return float(self.m + self.n + 1)

    @property
    def normalization(self) -> float:
        """L2(R^2) normalization constant (2^{m+n} m! n! pi)^{-1/2}."""
        return 1.0 / sqrt(2.0 ** (self.m + self.n) * factorial(self.m) * factorial(self.n) * pi)

    def eigenfunction(self, points) -> np.ndarray:
        """Unnormalized H_m(x) H_n(y) exp(-(x^2+y^2)/2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        return (
            hermite_polynomial(self.m, x)
            * hermite_polynomial(self.n, y)
            * np.exp(-0.5 * (x**2 + y**2))
        )

    def normalized_eigenfunction(self, points) -> np.ndarray:
        return self.normalization * self.eigenfunction(points)


def exact_spectrum(max_energy: int) -> list[ExactEigenpair]:
    """All (m, n) with m + n + 1 <= max_energy, sorted by energy then (m, n).

    The eigenvalue E occurs with multiplicity E.
    """
    if max_energy < 1:
        raise ValueError(f"max_energy must be >= 1, got {max_energy}")
    pairs = [
        ExactEigenpair(m=m, n=e - 1 - m)
        for e in range(1, max_energy + 1)
        for m in range(e)
    ]
    return pairs


def spectrum_to_csv(pairs: Sequence[ExactEigenpair], path) -> None:
    lines = ["m,n,energy"]
    for p in pairs:
        lines.append(f"{p.m},{p.n},{p.energy}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_observable(points) -> np.ndarray:
    """f(x, y) = sin(pi x / 5) sin(pi y / 5), odd in both coordinates.

    Its squared L2 norm over (-5, 5)^2 is 25 (5 per axis).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.sin(pi * pts[:, 0] / 5.0) * np.sin(pi * pts[:, 1] / 5.0)


def exact_spike_weights(
    max_energy: int,
    observable: Optional[Callable] = None,
    quad_resolution: int = 400,
    domain: Box = ((-5.0, 5.0), (-5.0, 5.0)),
) -> AtomicMeasure:
    """Oracle spike weights sum_{m+n+1=E} |<f, phi_hat_{m,n}>|^2 for E <= max_energy.

    Inner products use a Gauss-Legendre tensor grid with quad_resolution
    points per axis, entirely independent of the DMD pipeline.  The default
    resolution leaves the weights converged far below 1e-4 for the built-in
    observable (doubling the resolution moves them at roundoff level only).
    """
    if max_energy < 1:
        raise ValueError(f"max_energy must be >= 1, got {max_energy}")
    if quad_resolution < 2:
        raise ValueError("quad_resolution must be >= 2")
    f = reference_observable if observable is None else observable

    (ax, bx), (ay, by) = domain
    base_x, base_w = np.polynomial.legendre.leggauss(quad_resolution)
    gx = 0.5 * (bx - ax) * base_x + 0.5 * (bx + ax)
    wx = 0.5 * (bx - ax) * base_w
    gy = 0.5 * (by - ay) * base_x + 0.5 * (by + ay)
    wy = 0.5 * (by - ay) * base_w

    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    fvals = np.asarray(f(grid), dtype=float).reshape(quad_resolution, quad_resolution)

    m_max = max_energy - 1
    hx = _normalized_hermite_table(m_max, gx)
    hy = _normalized_hermite_table(m_max, gy)
    # inner products <f, phi_hat_{m,n}> for all (m, n) at once
    inner = (hx * wx[None, :]) @ fvals @ (hy * wy[None, :]).T

    energies = np.arange(1, max_energy + 1, dtype=float)
    weights = np.zeros(max_energy)
    for e in range(1, max_energy + 1):
        for m in range(e):
            weights[e - 1] += inner[m, e - 1 - m] ** 2
    return AtomicMeasure.from_atoms(energies, weights)
