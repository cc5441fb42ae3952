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
`separable_snapshots` keeps 1-D factors, contracts Psi_X^* W f axis by axis
and solves the Hermitian DMD one axis at a time (`KroneckerEig`); no N x N
matrix is formed.  The dense `generate_snapshots` stays as the general
route and the oracle.

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
from itertools import product
from math import factorial, pi, prod, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .dictionary import DEFAULT_RANK_TOLERANCE, FeatureMatrices, gaussian_centers
from .dmd import GramPair, KoopmanEig, KoopmanMatrix, eigendecompose, hermitian_dmd
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


def _along_axes(t: np.ndarray, mats) -> np.ndarray:
    """Apply mats[k] to axis k of tensor t: out[.., i, ..] = sum_j mats[k][i, j] t[.., j, ..]."""
    for k, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [k])), 0, k)
    return t


def _kron_sum_norm(terms) -> float:
    """||sum_t (x)_k terms[t][k]||_F from per-axis inner products, using
    <(x)_k X_k, (x)_k Y_k>_F = prod_k <X_k, Y_k>_F; no Kronecker product is formed."""
    inner = 1.0
    for factors in zip(*terms):
        flat = np.array([f.ravel() for f in factors])
        inner = inner * (flat.conj() @ flat.T)
    return sqrt(max(float(np.real(np.sum(inner))), 0.0))


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
    row-major sums); `order` holds the flat index of each.
    """

    scale: float
    operators: tuple[KoopmanMatrix, ...]
    axes: tuple[KoopmanEig, ...]
    eigenvalues: np.ndarray
    order: np.ndarray

    @property
    def axis_retained_ranks(self) -> tuple[int, ...]:
        return tuple(e.gram.retained_rank for e in self.axes)

    @property
    def retained_rank(self) -> int:
        return prod(self.axis_retained_ranks)

    @property
    def g_eigen_floor(self) -> float:
        """s prod_k floor_k: every retained eigenvalue s prod_k g_k of G lies above it."""
        return self.scale * prod(e.gram.g_eigen_floor for e in self.axes)

    @property
    def condition_number(self) -> float:
        """Largest over smallest retained eigenvalue of G, the product of the axes'."""
        return prod(e.gram.condition_number for e in self.axes)

    def _tensor(self, moments) -> np.ndarray:
        return np.asarray(moments).reshape([e.gram.size for e in self.axes])

    def measure(self, moments) -> AtomicMeasure:
        """Atoms (lambda, |v^* G g_c|^2) of the observable with moments m = Psi_X^* W f.

        g_c = G^+ m lies in the retained space, so v^* G g_c = v^* m =
        ((x)_k u_k)^* m / |amp|; complex moments keep their imaginary part.
        """
        t = _along_axes(self._tensor(moments), [e.eigenvectors.conj().T for e in self.axes])
        weights = np.abs(t.ravel()[self.order]) ** 2 / self.scale
        return AtomicMeasure.from_atoms(self.eigenvalues, weights)

    def observable_mass(self, moments) -> float:
        """g_c^* G g_c = ||(x)_k Lambda_k^{-1/2} Q_k^* m||^2 / s for g_c = G^+ m.

        Uses each axis's retained Gram eigenpairs (Q_k, Lambda_k), not the DMD
        eigenvectors, so the weights' sum is checked against it (Parseval).
        Applying G to G^+ m instead would lose accuracy along tiny retained g.
        """
        whiten = [(e.gram.basis / np.sqrt(e.gram.basis_eigenvalues)).conj().T for e in self.axes]
        return float(np.sum(np.abs(_along_axes(self._tensor(moments), whiten)) ** 2)) / self.scale

    def hermiticity_residual(self) -> float:
        """||G K - K^* G||_F / max(1, ||G K||_F) for the Kronecker-sum K, from 1-D factors.

        G K = s sum_k (x)_l T_kl with T_kk = G1_k K_k and T_kl = G1_l Pi_l.
        With T = S + D split into Hermitian and anti-Hermitian parts,
        (x)_l T_l - (x)_l T_l^* = 2 sum over odd-sized sets J of axes of
        (x)_l (D_l if l in J else S_l), so the difference is summed from
        small terms instead of cancelled from large ones.
        """
        own = [  # (G1_k K_k, G1_k Pi_k) per axis
            (op.source.g @ op.k, op.source.g @ op.source.basis @ op.source.basis.conj().T) for op in self.operators
        ]
        gk = [[pair[l != k] for l, pair in enumerate(own)] for k in range(len(own))]
        diff = []
        for factors in gk:
            parts = [(0.5 * (t + t.conj().T), 0.5 * (t - t.conj().T)) for t in factors]
            for flips in product((0, 1), repeat=len(parts)):
                if sum(flips) % 2:
                    diff.append([part[f] for part, f in zip(parts, flips)])
        return 2 * self.scale * _kron_sum_norm(diff) / max(1.0, self.scale * _kron_sum_norm(gk))


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

    def kronecker_eig(self, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> KroneckerEig:
        """G1, H1 of each axis through `GramPair.from_matrices` and `hermitian_dmd`."""
        operators = []
        for e, w, h in zip(self.bumps, self.weights, self.multipliers):
            ew = w[:, None] * e
            pair = GramPair.from_matrices(ew.T @ e, ew.T @ (e * h), rank_tolerance)
            operators.append(hermitian_dmd(pair))
        axes = tuple(eigendecompose(op) for op in operators)
        sums = reduce(np.add.outer, [e.eigenvalues for e in axes]).ravel()
        order = np.argsort(sums, kind="stable")
        return KroneckerEig(abs(self.amplitude) ** 2, tuple(operators), axes, sums[order], order)

    def moments(self, samples) -> np.ndarray:
        """Psi_X^* W f for samples of f at `nodes`, contracted axis by axis."""
        t = np.asarray(samples).reshape([x.shape[0] for x in self.axes])
        t = _along_axes(t, [(w[:, None] * e).T for e, w in zip(self.bumps, self.weights)])
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
