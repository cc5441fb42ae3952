"""2-D harmonic-oscillator benchmark with closed-form snapshot data.

The Hamiltonian

    H u = -1/2 Laplacian(u) + V u,    V(x, y) = (x^2 + y^2) / 2,

is self-adjoint, and pairs (u, H u) play the role of snapshot data for a
dictionary of Gaussian bumps u = c exp(-a |p - center|^2) (the problem's
`Dictionary`, the type `hdmd custom` uses too).  For such bumps
H u has the closed form

    H u = u * sum_k (a - 2 a^2 d_k^2 + x_k^2 / 2),    d = p - center,

(in 2-D, Laplacian(u) = u * (4 a^2 r^2 - 4 a)), so no PDE solver or
numerical differentiation enters the data: the only approximation left in
the pipeline is quadrature plus the dictionary itself.

Bumps, multiplier and the trapezoid rule all separate over axes, so
`separable_snapshots` keeps 1-D factors and solves the Hermitian DMD one
axis at a time (`KroneckerEig`); no N x N matrix is formed.  The reference
observable is a product of one factor per axis too, so its spectral measure
is the convolution of the per-axis ones: atoms at sums of eigenvalues with
products of weights, and no array of the grid's size M.  Other observables
take the dense `generate_snapshots` (`Dictionary.rows` times the row-wise
Kronecker sum of the per-axis multipliers), the general route and oracle.

Exact eigenpairs are phi_{m,n}(x, y) = H_m(x) H_n(y) exp(-(x^2+y^2)/2) with
energies E = m + n + 1, using physicists' Hermite polynomials H_m.  The
L2(R^2) normalization constant is (2^{m+n} m! n! pi)^{-1/2}.  The spike-weight
oracle convolves the squared Hermite coefficients of the reference factor on each
axis (Gauss-Legendre quadrature), fully independent of the DMD pipeline.

Default configuration: domain (-5, 5)^2, 20 x 20 Gaussian centers on
[-4, 4]^2 (endpoints included), width 3, amplitude 1 + i.  Accuracy of
reproduced eigenvalues and spike weights is sensitive to the center-grid
convention; see README for notes on alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from math import pi, prod, sqrt

import numpy as np

from .dictionary import DEFAULT_RANK_TOLERANCE, Dictionary, FeatureMatrices, gaussian_grid_dictionary, rowwise_kron
from .dmd import GramPair, KoopmanEig, KoopmanMatrix, eigendecompose, hermitian_dmd
from .quadrature import QuadratureRule, trapezoid_axes
from .spectral import AtomicMeasure


@dataclass(frozen=True)
class HarmonicOscillatorProblem:
    """Benchmark problem: harmonic potential on a truncated square domain, Gaussian dictionary."""

    domain: tuple[tuple[float, float], ...] = ((-5.0, 5.0), (-5.0, 5.0))
    dictionary: Dictionary = field(
        default_factory=lambda: gaussian_grid_dictionary(((-4.0, 4.0), (-4.0, 4.0)), 20, 3.0, 1 + 1j)
    )


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
    lo, hi = np.array(problem.domain, dtype=float).T
    if nodes.shape[1] != len(problem.domain):
        raise ValueError(f"nodes are {nodes.shape[1]}-D but the domain is {len(problem.domain)}-D")
    if np.any(nodes < lo[None, :]) or np.any(nodes > hi[None, :]):
        raise ValueError("quadrature nodes must lie inside the problem domain")

    dictionary = problem.dictionary
    axes = zip(nodes.T, dictionary.axis_centers, strict=True)
    terms = [_axis_multiplier(dictionary.width, x[:, None] - c, x[:, None]) for x, c in axes]
    psi_x = dictionary.amplitude * dictionary.rows(nodes)
    psi_y = psi_x * rowwise_kron(terms, np.add)
    return FeatureMatrices(psi_x=psi_x, psi_y=psi_y, rank_tolerance_used=rank_tolerance)


@dataclass(frozen=True)
class KroneckerEig:
    """Hermitian DMD of the separable data, solved one axis at a time.

    With s = |amp|^2, G = s (x)_k G1_k and B = (A + A^*)/2 = s sum_k
    (G1 (x) .. S1_k .. (x) G1), S1 = (H1 + H1^T)/2.  Each axis k runs the 1-D
    pipeline with its own cutoff, giving K_k and G1_k-orthonormal eigenpairs
    S1_k u = mu G1_k u.  Then B v = lambda G v has lambda = sum_k mu_k and
    v = (x)_k u_k / |amp|: the eigenpairs of K = K_x (x) Pi_y + Pi_x (x) K_y
    (Pi_k projects onto axis k's retained directions), which is G^+ B for
    G^+ = (x)_k G1_k^+ / s.  `eigenvalues` ascend (a stable sort of the
    row-major sums); `order` holds the flat index of each.  A product
    observable's weights and mass are products of each axis's 1-D ones.
    `hermiticity_residual`, a max over axes, bounded K's own in every trial with exactly Hermitian G1_k (empirical).
    `operators` and `axes` hold one solve per distinct axis, expanded by `index` (axis k is entry index[k]; a square
    grid has (0, 0)).  Equal axes make mu_i + mu_j, i != j, two equal-bit atoms, formatted once.
    """

    scale: float
    operators: tuple[KoopmanMatrix, ...]
    axes: tuple[KoopmanEig, ...]
    index: tuple[int, ...]
    eigenvalues: np.ndarray
    order: np.ndarray

    @property
    def axis_retained_ranks(self) -> tuple[int, ...]:
        return tuple(self.axes[i].gram.retained_rank for i in self.index)

    @property
    def retained_rank(self) -> int:
        return prod(self.axis_retained_ranks)

    @property
    def g_eigen_floor(self) -> float:
        """s prod_k floor_k: every retained eigenvalue s prod_k g_k of G lies above it."""
        return self.scale * prod(self.axes[i].gram.g_eigen_floor for i in self.index)

    @property
    def condition_number(self) -> float:
        """Largest over smallest retained eigenvalue of G, the product of the axes'."""
        return prod(self.axes[i].gram.condition_number for i in self.index)

    def weights(self, moments) -> np.ndarray:
        """Weights, in eigenvalue order, of the product observable with moments m_k per distinct axis.

        The full moments are m = conj(amp) (x)_k m_k and v = (x)_k u_k / |amp|, so
        |v^* m|^2 = prod_k |u_k^* m_k|^2: the outer product of each axis's
        `KoopmanEig.weights`, raveled row-major like the eigenvalue sums.
        """
        weights = [e.weights(m) for e, m in zip(self.axes, moments, strict=True)]
        return reduce(np.multiply.outer, [weights[i] for i in self.index]).ravel()[self.order]

    def observable_mass(self, moments) -> float:
        """g_c^* G g_c for g_c = G^+ m: with G^+ = (x)_k G1_k^+ / s, the product of each
        axis's `GramPair.observable_mass`, so the weights' sum is checked against it (Parseval)."""
        masses = [e.gram.observable_mass(m) for e, m in zip(self.axes, moments, strict=True)]
        return prod(masses[i] for i in self.index)

    def hermiticity_residual(self) -> float:
        """The axes' largest `KoopmanMatrix.hermiticity_residual`, or NaN if any is NaN: the gate's bound on K's own."""
        return float(np.max([op.hermiticity_residual() for op in self.operators]))


@dataclass(frozen=True)
class SeparableSnapshots:
    """Per-axis factors of the benchmark data on a tensor trapezoid grid.

    Each distinct axis holds its nodes x, bumps E = exp(-a (x - c)^2), weighted
    bumps W E (W the trapezoid weights) and multiplier terms h, once; axis k is
    entry index[k] (a square grid has (0, 0)).  With G1 = (W E)^T E and
    H1 = (W E)^T (E o h) per axis, G = |amp|^2 (x)_k G1_k and
    A = |amp|^2 sum_k (G1 (x) .. H1_k .. (x) G1), both real; for a product
    observable f = prod_k f(x_k), Psi_X^* W f = conj(amp) (x)_k m_k with
    per-axis moments m_k = (W_k E_k)^T f(x_k).
    """

    amplitude: complex
    axes: tuple[np.ndarray, ...]
    bumps: tuple[np.ndarray, ...]
    weighted_bumps: tuple[np.ndarray, ...]
    multipliers: tuple[np.ndarray, ...]
    index: tuple[int, ...]

    def kronecker_eig(self, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> KroneckerEig:
        """G1, H1 of each distinct axis through `GramPair.from_matrices` and `hermitian_dmd`; rank
        deficiency is left to the caller to report (see `retained_rank`, `axis_retained_ranks`)."""
        operators = tuple(hermitian_dmd(GramPair.from_matrices(we.T @ e, we.T @ (e * h), rank_tolerance))
                          for e, we, h in zip(self.bumps, self.weighted_bumps, self.multipliers))
        axes = tuple(map(eigendecompose, operators))
        sums = reduce(np.add.outer, [axes[i].eigenvalues for i in self.index]).ravel()
        order = np.argsort(sums, kind="stable")
        return KroneckerEig(abs(self.amplitude) ** 2, operators, axes, self.index, sums[order], order)

    def moments(self, factor) -> tuple[np.ndarray, ...]:
        """Moments m = (W E)^T f(x) of the product observable f = prod_k f(x_k) per distinct axis, given the
        factor f as a function of the nodes x; `KroneckerEig.weights` and `observable_mass` take them as they are."""
        return tuple(we.T @ factor(x) for x, we in zip(self.axes, self.weighted_bumps))


def separable_snapshots(problem: HarmonicOscillatorProblem, points_per_axis) -> SeparableSnapshots:
    """Factors for the tensor trapezoid rule with points_per_axis on problem.domain.  An axis with the interval,
    count and centers of an earlier one (bitwise equal nodes and centers) is that axis's distinct entry."""
    dictionary, built, index = problem.dictionary, {}, []
    for (x, w), c in zip(trapezoid_axes(problem.domain, points_per_axis), dictionary.axis_centers, strict=True):
        if (key := (x.tobytes(), c.tobytes())) not in built:  # the nodes fix the weights
            [e] = replace(dictionary, axis_centers=(c,)).axis_bumps((x,))
            built[key] = x, e, w[:, None] * e, _axis_multiplier(dictionary.width, x[:, None] - c, x[:, None])
        index.append(list(built).index(key))
    return SeparableSnapshots(dictionary.amplitude, *zip(*built.values()), tuple(index))


def _normalized_hermite_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..m_max of hhat_m(x) = H_m(x) e^{-x^2/2} / sqrt(2^m m! sqrt(pi)), finite for every m."""
    table = np.zeros((m_max + 1, x.shape[0]))
    table[0] = pi**-0.25 * np.exp(-0.5 * x**2)
    for k in range(m_max):  # no 2^m m! is formed; at k = 0 the zero last row stands in for hhat_{-1}
        table[k + 1] = sqrt(2 / (k + 1)) * x * table[k] - sqrt(k / (k + 1)) * table[k - 1]
    return table


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] in O(n) memory (Hale & Townsend, 2013): Newton's
    method on P_n from Tricomi's guesses, with P_n and P_{n-1} by the recurrence; w = 2 (1 - x^2) / (n P_{n-1})^2."""
    x = np.cos(pi * (4 * np.arange(n, 0, -1) - 1) / (4 * n + 2))
    step = np.inf
    while True:
        q, p = np.ones(n), x
        for k in range(2, n + 1):
            q, p = p, ((2 * k - 1) * x * p - (k - 1) * q) / k
        if np.max(np.abs(step)) <= 1e-15:  # the last step was at roundoff: x is final and q = P_{n-1}(x)
            break
        step = (x * x - 1) * p / (n * (x * p - q))  # P_n / P_n'
        x = x - step
    w = 2 * (1 - x) * (1 + x) / (n * q) ** 2
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2  # symmetric about 0


@dataclass(frozen=True)
class ExactEigenpair:
    """Closed-form eigenpair phi_{m,n} with energy m + n + 1."""

    m: int
    n: int

    @property
    def energy(self) -> float:
        return float(self.m + self.n + 1)


def exact_spectrum(max_energy: int) -> list[ExactEigenpair]:
    """All (m, n) with m + n + 1 <= max_energy, sorted by energy then (m, n).

    The eigenvalue E occurs with multiplicity E.
    """
    if max_energy < 1:
        raise ValueError(f"max_energy must be >= 1, got {max_energy}")
    return [ExactEigenpair(m=m, n=e - 1 - m) for e in range(1, max_energy + 1) for m in range(e)]


def reference_factor(x) -> np.ndarray:
    """sin(pi x / 5), the reference observable's factor on each axis."""
    return np.sin(pi * np.asarray(x, dtype=float) / 5.0)


def reference_observable(points) -> np.ndarray:
    """f(x, y) = sin(pi x / 5) sin(pi y / 5), the product of `reference_factor` over the axes.

    Odd in both coordinates; its squared L2 norm over (-5, 5)^2 is 25 (5 per axis).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return reduce(np.multiply, map(reference_factor, pts.T))


def exact_spike_weights(max_energy: int, *, quad_resolution: int = 400) -> AtomicMeasure:
    """Oracle spike weights sum_{m+n+1=E} |<f, phi_hat_{m,n}>|^2 of the reference observable, for E <= max_energy.

    f and every phi_hat_{m,n} are products over the axes, so <f, phi_hat_{m,n}> = c_m c_n with
    c = <`reference_factor`, hhat> on each axis, and the weights are the convolution of the axes' c^2.
    Each c is a Gauss-Legendre sum (`_gauss_legendre`) with quad_resolution points on the axis of the
    problem's domain, entirely independent of the DMD pipeline; memory stays O(max_energy quad_resolution).
    The default resolution leaves the weights converged far below 1e-4 (doubling it moves them at roundoff).
    """
    if max_energy < 1:
        raise ValueError(f"max_energy must be >= 1, got {max_energy}")
    if quad_resolution < 2:
        raise ValueError("quad_resolution must be >= 2")
    base_x, base_w = _gauss_legendre(quad_resolution)
    squares = []  # c^2 on each axis
    for a, b in HarmonicOscillatorProblem.domain:
        x, w = 0.5 * (b - a) * base_x + 0.5 * (b + a), 0.5 * (b - a) * base_w
        squares.append((_normalized_hermite_table(max_energy - 1, x) @ (w * reference_factor(x))) ** 2)
    return AtomicMeasure(np.arange(1, max_energy + 1, dtype=float), reduce(np.convolve, squares)[:max_energy])
