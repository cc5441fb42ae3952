"""Tests for the harmonic-oscillator benchmark and its closed-form oracles."""

from dataclasses import replace
from functools import reduce
from math import factorial, pi, sqrt

import numpy as np
import pytest

from hdmd.dictionary import evaluate_function_samples, gaussian_centers
from hdmd.dmd import KoopmanMatrix, assemble_gram_pair, eigendecompose, hermitian_dmd
from hdmd.quadrature import QuadratureRule, tensor_trapezoid
from hdmd.schrodinger import (
    ExactEigenpair,
    GaussianDictionarySpec,
    HarmonicOscillatorProblem,
    _axis_multiplier,
    _normalized_hermite_table,
    exact_spectrum,
    exact_spike_weights,
    generate_snapshots,
    reference_observable,
    separable_snapshots,
)
from hdmd.spectral import cluster_table, project_observable, spectral_measure


def gaussian(center, width, amplitude, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r2 = np.sum((pts - np.asarray(center)[None, :]) ** 2, axis=1)
    return amplitude * np.exp(-width * r2)


def hamiltonian_by_finite_differences(u, pts, h=1e-4):
    """-1/2 Laplacian(u) + V u via central differences of a callable u."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    lap = (
        u(pts + ex) + u(pts - ex) + u(pts + ey) + u(pts - ey) - 4.0 * u(pts)
    ) / h**2
    return -0.5 * lap + 0.5 * np.sum(pts**2, axis=1) * u(pts)


def hamiltonian_closed_form(center, width, amplitude, pts):
    """H u for a Gaussian u through the shared per-axis multiplier."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = pts - np.asarray(center)[None, :]
    return gaussian(center, width, amplitude, pts) * np.sum(_axis_multiplier(width, d, pts), axis=1)


# ------------------------------------------------------------------
# the Hamiltonian multiplier
# ------------------------------------------------------------------


def test_hamiltonian_gaussian_at_center_origin():
    # r = 0 and V(0) = 0 leave only the 2a term
    assert hamiltonian_closed_form([0.0, 0.0], 3.0, 1.0, [0.0, 0.0])[0] == pytest.approx(6.0)


def test_hamiltonian_gaussian_at_offset_center():
    val = hamiltonian_closed_form([1.0, 0.0], 3.0, 1 + 1j, [1.0, 0.0])[0]
    assert val == pytest.approx((1 + 1j) * 6.5)


def test_hamiltonian_gaussian_matches_finite_differences(rng):
    for _ in range(20):
        center = rng.uniform(-4, 4, size=2)
        point = rng.uniform(-5, 5, size=(1, 2))
        amp = complex(rng.normal(), rng.normal())
        closed = hamiltonian_closed_form(center, 3.0, amp, point)[0]
        fd = hamiltonian_by_finite_differences(
            lambda p: gaussian(center, 3.0, amp, p), point
        )[0]
        assert abs(fd - closed) <= 1e-6 * max(abs(closed), 1e-12)


def test_hamiltonian_gaussian_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        GaussianDictionarySpec(width=-1.0)


# ------------------------------------------------------------------
# generate_snapshots
# ------------------------------------------------------------------


def test_snapshots_single_gaussian_at_its_center():
    spec = GaussianDictionarySpec(centers_box=((1.0, 1.0), (0.0, 0.0)), per_axis=1,
                                  width=3.0, amplitude=1 + 1j)
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    quad = QuadratureRule(nodes=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    fm = generate_snapshots(problem, quad)
    assert fm.psi_x[0, 0] == 1 + 1j
    assert fm.psi_y[0, 0] == pytest.approx((1 + 1j) * (6.0 + 0.5))


def test_snapshots_full_benchmark_dimensions():
    problem = HarmonicOscillatorProblem()
    quad = tensor_trapezoid(problem.domain, (300, 300))
    fm = generate_snapshots(problem, quad)
    assert fm.psi_x.shape == (90000, 400)
    assert fm.psi_y.shape == (90000, 400)


def test_snapshots_match_finite_difference_hamiltonian(rng):
    spec = GaussianDictionarySpec(per_axis=4)
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    nodes = rng.uniform(-4.5, 4.5, size=(10, 2))
    quad = QuadratureRule(nodes=nodes, weights=np.ones(10))
    fm = generate_snapshots(problem, quad)
    centers = gaussian_centers(spec.centers_box, spec.per_axis)
    for j in (0, 7, 15):
        fd = hamiltonian_by_finite_differences(
            lambda p: gaussian(centers[j], spec.width, spec.amplitude, p), nodes
        )
        scale = np.maximum(np.abs(fm.psi_y[:, j]), 1e-12)
        assert np.all(np.abs(fd - fm.psi_y[:, j]) / scale <= 1e-6)


def test_snapshots_reject_nodes_outside_domain():
    problem = HarmonicOscillatorProblem()
    quad = QuadratureRule(nodes=np.array([[6.0, 0.0]]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="inside the problem domain"):
        generate_snapshots(problem, quad)


# ------------------------------------------------------------------
# separable_snapshots against the dense route
# ------------------------------------------------------------------


def nonseparable_observable(pts):
    return np.cos(pts[:, 0] * pts[:, 1]) + 1j * pts[:, 0] * np.exp(-0.1 * pts[:, 1] ** 2)


def relative_error(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


SEPARABLE_CASES = [
    ((75, 75), GaussianDictionarySpec()),
    ((40, 55), GaussianDictionarySpec()),
    ((50, 45), GaussianDictionarySpec(centers_box=((-3.0, 4.5), (-1.0, 2.0)), per_axis=8)),
    ((30, 30), GaussianDictionarySpec(per_axis=1)),
    ((50, 50), GaussianDictionarySpec(per_axis=10, amplitude=0.3 - 2.1j)),
    ((60, 60), GaussianDictionarySpec(per_axis=40)),
]
SEPARABLE_IDS = ["75sq-defaults", "40x55", "asymmetric-box", "per-axis-1", "amplitude-phase", "60sq-40sq-deficient"]


def axis_matrices(snapshots):
    """Per-axis G1 = E^T W E and H1 = E^T W (E o h), formed in the test."""
    g1 = [e.T @ (w[:, None] * e) for e, w in zip(snapshots.bumps, snapshots.weights)]
    h1 = [e.T @ (w[:, None] * e * h) for e, w, h in zip(snapshots.bumps, snapshots.weights, snapshots.multipliers)]
    return g1, h1


def kron_all(mats):
    return reduce(np.kron, mats)


@pytest.mark.parametrize("grid, spec", SEPARABLE_CASES, ids=SEPARABLE_IDS)
def test_separable_matches_dense(grid, spec):
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    quad = tensor_trapezoid(problem.domain, grid)
    features = generate_snapshots(problem, quad)
    dense = assemble_gram_pair(features, quad)
    snapshots = separable_snapshots(problem, grid)
    g1, h1 = axis_matrices(snapshots)
    scale = abs(spec.amplitude) ** 2
    g = scale * kron_all(g1)
    a = scale * (np.kron(h1[0], g1[1]) + np.kron(g1[0], h1[1]))
    samples = evaluate_function_samples(quad.nodes, nonseparable_observable)

    assert np.array_equal(snapshots.nodes, quad.nodes)
    assert relative_error(g, dense.g) <= 1e-13
    assert relative_error(a, dense.a) <= 1e-13
    moments = features.psi_x.conj().T @ (quad.weights * samples)
    assert relative_error(snapshots.moments(samples), moments) <= 1e-13


# ------------------------------------------------------------------
# the Kronecker-sum eigensolve against the dense route
# ------------------------------------------------------------------


@pytest.mark.parametrize("grid, spec", SEPARABLE_CASES, ids=SEPARABLE_IDS)
def test_kronecker_eig_matches_dense(grid, spec):
    """Eigenvalues, heavy cluster sums and observable mass agree with the dense pipeline.

    At full rank both routes solve the same pencil.  In the rank-deficient
    case the per-axis cutoff keeps a rectangle of pairs (36^2 = 1296) that
    contains the 2-D floor's staircase (1046), so by min-max each Ritz value
    can only fall and the projected mass can only grow; both stay close.
    """
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    quad = tensor_trapezoid(problem.domain, grid)
    features = generate_snapshots(problem, quad)
    pair = assemble_gram_pair(features, quad)
    dense_eig = eigendecompose(hermitian_dmd(pair))
    samples = evaluate_function_samples(quad.nodes, nonseparable_observable)
    observable = project_observable(samples, features, quad, pair=pair)
    dense_measure = spectral_measure(dense_eig, observable)

    snapshots = separable_snapshots(problem, grid)
    eig = snapshots.kronecker_eig()
    moments = snapshots.moments(samples)
    measure = eig.measure(moments)
    mass = eig.observable_mass(moments)

    assert eig.retained_rank == np.prod(eig.axis_retained_ranks) == eig.eigenvalues.size
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert measure.total_mass == pytest.approx(mass, rel=1e-10)
    refs = np.arange(1.0, 13.0)
    rows, _ = cluster_table(measure, refs, 0.4)
    dense_rows, _ = cluster_table(dense_measure, refs, 0.4)
    heavy = [(row[2], dense[2]) for row, dense in zip(rows, dense_rows) if dense[2] > 1e-6]
    assert heavy
    count = min(100, dense_eig.eigenvalues.size)
    gaps = eig.eigenvalues[:count] - dense_eig.eigenvalues[:count]
    if pair.rank_deficient:
        assert eig.retained_rank > pair.retained_rank
        assert np.max(gaps) <= 1e-12 and np.max(np.abs(gaps)) <= 1e-3
        assert mass >= observable.mass() * (1 - 1e-12)
        assert mass == pytest.approx(observable.mass(), rel=2e-3)
        for weight, dense_weight in heavy:
            assert weight == pytest.approx(dense_weight, rel=1e-6)
    else:
        assert eig.retained_rank == pair.retained_rank == spec.size
        assert np.max(np.abs(gaps)) <= 1e-11
        assert mass == pytest.approx(observable.mass(), rel=1e-13)
        for weight, dense_weight in heavy:
            assert weight == pytest.approx(dense_weight, rel=1e-11)


def test_kronecker_weights_keep_imaginary_part_of_complex_observable():
    """Per-atom weights equal |v^* G g_c|^2 for v = (u_x (x) u_y) / |amp| formed densely."""
    spec = GaussianDictionarySpec(per_axis=10, amplitude=0.3 - 2.1j)
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    snapshots = separable_snapshots(problem, (50, 50))
    eig = snapshots.kronecker_eig()
    samples = evaluate_function_samples(snapshots.nodes, nonseparable_observable)
    assert np.linalg.norm(samples.imag) > 0.5 * np.linalg.norm(samples.real)
    moments = snapshots.moments(samples)
    measure = eig.measure(moments)

    g1, _ = axis_matrices(snapshots)
    g = abs(spec.amplitude) ** 2 * kron_all(g1)
    coeffs = np.linalg.solve(g, moments)  # full rank here
    vectors = kron_all([e.eigenvectors for e in eig.axes])[:, eig.order] / abs(spec.amplitude)
    projections = vectors.conj().T @ (g @ coeffs)
    # a weight that dropped the imaginary part (or squared without the modulus) would be visibly off
    assert np.linalg.norm(projections.imag) > 0.3 * np.linalg.norm(projections)
    expected = np.abs(projections) ** 2
    assert np.max(np.abs(measure.weights - expected)) <= 1e-12 * measure.total_mass
    assert np.real(np.vdot(coeffs, g @ coeffs)) == pytest.approx(eig.observable_mass(moments), rel=1e-12)


@pytest.mark.parametrize("grid, spec", SEPARABLE_CASES, ids=SEPARABLE_IDS)
def test_kronecker_axes_are_gram_orthonormal(grid, spec):
    # U^T G1 U = I up to roundoff amplified by cond(G1), through ||U||^2 ~ 1 / min retained g
    eig = separable_snapshots(HarmonicOscillatorProblem(dictionary_spec=spec), grid).kronecker_eig()
    for axis in eig.axes:
        assert axis.orthonormality_residual() <= 1e-16 * axis.gram.condition_number + 1e-12
    assert eig.condition_number == pytest.approx(np.prod([a.gram.condition_number for a in eig.axes]))
    kept = np.multiply.outer(*[a.gram.basis_eigenvalues for a in eig.axes]) * abs(spec.amplitude) ** 2
    assert np.min(kept) > eig.g_eigen_floor


def dense_hermiticity_residual(eig):
    """||G K - K^* G||_F / max(1, ||G K||_F) with G and the Kronecker-sum K formed explicitly."""
    g = eig.scale * kron_all([op.source.g for op in eig.operators])
    projectors = [op.source.basis @ op.source.basis.conj().T for op in eig.operators]
    k = sum(
        kron_all([op.k if l == j else p for l, (op, p) in enumerate(zip(eig.operators, projectors))])
        for j in range(len(eig.operators))
    )
    gk = g @ k
    return np.linalg.norm(gk - gk.conj().T) / max(1.0, np.linalg.norm(gk))


@pytest.mark.parametrize("dimension", [2, 3])
def test_kronecker_hermiticity_residual_matches_dense_formula(dimension, rng):
    box = ((-4.0, 4.0),) * dimension
    spec = GaussianDictionarySpec(centers_box=box, per_axis=5, width=1.0, amplitude=0.3 - 2.1j)
    problem = HarmonicOscillatorProblem(domain=((-5.0, 5.0),) * dimension, dictionary_spec=spec)
    eig = separable_snapshots(problem, (30,) * dimension).kronecker_eig()
    assert eig.hermiticity_residual() <= 1e-13
    assert dense_hermiticity_residual(eig) <= 1e-13

    # deliberately non-symmetric K_k and G1_k on every axis, so the residual is not
    # roundoff and every factor of every term (all odd sets of axes) contributes
    skewed = tuple(
        KoopmanMatrix(
            k=op.k + 0.3 * rng.normal(size=op.k.shape),
            kind=op.kind,
            source=replace(op.source, g=op.source.g + 0.3 * rng.normal(size=op.k.shape)),
        )
        for op in eig.operators
    )
    broken = replace(eig, operators=skewed)
    expected = dense_hermiticity_residual(broken)
    assert expected > 1e-5
    assert broken.hermiticity_residual() == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------------
# the Hermite table behind the spike-weight oracle
# ------------------------------------------------------------------


def hermite(m: int, x) -> np.ndarray:
    """Physicists' H_m(x), recovered from row m of the normalized table."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return _normalized_hermite_table(m, xs)[m] * sqrt(2.0**m * factorial(m) * sqrt(pi)) * np.exp(0.5 * xs**2)


def test_hermite_base_cases():
    assert hermite(0, 1.7)[0] == pytest.approx(1.0, rel=1e-15)
    assert hermite(1, 0.5)[0] == pytest.approx(1.0)
    assert hermite(2, 1.0)[0] == pytest.approx(2.0)  # 4x^2 - 2


def hermite_series_oracle(m: int, x: float) -> float:
    # explicit coefficient sum: H_m(x) = m! sum_k (-1)^k / (k! (m-2k)!) (2x)^{m-2k}
    total = 0.0
    for k in range(m // 2 + 1):
        total += (-1) ** k / (factorial(k) * factorial(m - 2 * k)) * (2 * x) ** (m - 2 * k)
    return factorial(m) * total


@pytest.mark.parametrize("m", [3, 5, 8, 12])
def test_hermite_matches_series_oracle(m):
    for x in (-2.3, 0.0, 0.7, 4.9):
        assert hermite(m, x)[0] == pytest.approx(hermite_series_oracle(m, x), rel=1e-12, abs=1e-12)


def test_hermite_vectorized():
    xs = np.linspace(-2, 2, 7)
    vec = _normalized_hermite_table(5, xs)
    pointwise = np.column_stack([_normalized_hermite_table(5, np.array([x])) for x in xs])
    assert np.allclose(vec, pointwise, rtol=1e-15)


# ------------------------------------------------------------------
# exact_spectrum
# ------------------------------------------------------------------


def test_spectrum_first_six_energies():
    pairs = exact_spectrum(3)
    assert [p.energy for p in pairs] == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    assert [(p.m, p.n) for p in pairs[:3]] == [(0, 0), (0, 1), (1, 0)]


def test_spectrum_single_ground_state():
    pairs = exact_spectrum(1)
    assert len(pairs) == 1 and (pairs[0].m, pairs[0].n, pairs[0].energy) == (0, 0, 1.0)


def test_spectrum_triangular_count():
    assert len(exact_spectrum(10)) == 55


def test_spectrum_multiplicity_pattern():
    pairs = exact_spectrum(7)
    energies = np.array([p.energy for p in pairs])
    for e in range(1, 8):
        assert np.count_nonzero(energies == e) == e


# ------------------------------------------------------------------
# eigenfunctions
# ------------------------------------------------------------------


def five_point_hamiltonian(u, pts, h=3e-3):
    """Fourth-order FD Hamiltonian: balances truncation against cancellation."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))

    def second_derivative(axis):
        e = np.zeros(2)
        e[axis] = h
        return (
            -u(pts + 2 * e) + 16 * u(pts + e) - 30 * u(pts)
            + 16 * u(pts - e) - u(pts - 2 * e)
        ) / (12 * h**2)

    lap = second_derivative(0) + second_derivative(1)
    return -0.5 * lap + 0.5 * np.sum(pts**2, axis=1) * u(pts)


def eigenfunction(pair):
    """phi_{m,n} at (M, 2) points, L2-normalized, from the Hermite table."""
    return lambda pts: (
        _normalized_hermite_table(pair.m, pts[:, 0])[pair.m] * _normalized_hermite_table(pair.n, pts[:, 1])[pair.n]
    )


def test_eigenfunctions_satisfy_eigenvalue_equation(rng):
    pts = rng.uniform(-3, 3, size=(100, 2))
    for pair in exact_spectrum(5):
        vals = eigenfunction(pair)(pts)
        h_vals = five_point_hamiltonian(eigenfunction(pair), pts)
        residual = np.abs(h_vals - pair.energy * vals)
        assert np.max(residual) <= 1e-8 * np.max(np.abs(vals))


def test_eigenfunction_normalization_constant():
    pair = ExactEigenpair(m=2, n=3)
    assert pair.normalization == pytest.approx(1.0 / sqrt(2.0**5 * 2 * 6 * pi), rel=1e-15)
    # the table's rows carry the same constant, split over the axes
    pts = np.array([[0.3, -1.1]])
    unnormalized = hermite(2, 0.3) * hermite(3, -1.1) * np.exp(-0.5 * np.sum(pts**2))
    assert eigenfunction(pair)(pts) == pytest.approx(pair.normalization * unnormalized, rel=1e-13)


def test_eigenfunctions_orthonormal_under_quadrature():
    # separable check on the 300-point-per-axis trapezoid grid; the floor is
    # domain truncation, not quadrature: H_4 levels keep ~3e-8 of off-diagonal
    # inner product beyond |x| = 5 (the quadrature itself is accurate to 3e-9)
    axis_rule = tensor_trapezoid([(-5.0, 5.0)], [300])
    x = axis_rule.nodes[:, 0]
    w = axis_rule.weights
    pairs = exact_spectrum(5)
    tables = _normalized_hermite_table(4, x)
    for pa in pairs:
        for pb in pairs:
            inner_x = float(np.dot(w, tables[pa.m] * tables[pb.m]))
            inner_y = float(np.dot(w, tables[pa.n] * tables[pb.n]))
            inner = inner_x * inner_y
            if (pa.m, pa.n) == (pb.m, pb.n):
                assert abs(inner - 1.0) <= 5e-7
            elif max(pa.m, pa.n, pb.m, pb.n) <= 3:
                assert abs(inner) <= 1e-8
            else:
                assert abs(inner) <= 5e-8


# ------------------------------------------------------------------
# reference observable and spike-weight oracle
# ------------------------------------------------------------------


def test_observable_peak_value():
    assert reference_observable(np.array([[2.5, 2.5]]))[0] == pytest.approx(1.0)


def test_observable_vanishes_on_axes(rng):
    ys = rng.uniform(-5, 5, size=7)
    pts = np.column_stack([np.zeros(7), ys])
    assert np.allclose(reference_observable(pts), 0.0, atol=1e-16)


def test_observable_squared_norm_is_25():
    quad = tensor_trapezoid([(-5, 5), (-5, 5)], [200, 200])
    vals = reference_observable(quad.nodes)
    norm2 = float(np.dot(quad.weights, vals**2))
    assert norm2 == pytest.approx(25.0, rel=1e-8)


def test_spike_weights_parity_selection():
    mu = exact_spike_weights(12)
    even = mu.weights[1::2]  # energies 2, 4, 6, ...
    assert np.all(even <= 1e-10)


def test_spike_weights_reference_values():
    mu = exact_spike_weights(11)
    by_energy = dict(zip(mu.locations, mu.weights))
    assert by_energy[3.0] == pytest.approx(3.56, abs=0.01)
    assert by_energy[11.0] == pytest.approx(2.86, abs=0.01)


def test_spike_weights_total_approaches_norm_from_below():
    totals = [exact_spike_weights(e).total_mass for e in (11, 15, 21)]
    assert np.all(np.diff(totals) > 0)
    assert totals[-1] < 25.0
    assert totals[-1] > 24.9


def test_spike_weights_resolution_converged():
    coarse = exact_spike_weights(11, quad_resolution=200)
    fine = exact_spike_weights(11, quad_resolution=400)
    assert np.max(np.abs(coarse.weights - fine.weights)) <= 1e-8


def test_spike_weights_custom_observable_matches_projection_parity():
    # even-even observable puts no mass on even-energy levels' complement
    def g(pts):
        return np.cos(pi * pts[:, 0] / 10.0) * np.cos(pi * pts[:, 1] / 10.0)

    mu = exact_spike_weights(8, observable=g)
    odd_even_levels = mu.weights[1::2]  # E = 2, 4, ... hold odd/even mixed states
    assert np.all(odd_even_levels <= 1e-10)


def test_spike_weights_validation():
    with pytest.raises(ValueError, match="max_energy"):
        exact_spike_weights(0)
    with pytest.raises(ValueError, match="quad_resolution"):
        exact_spike_weights(3, quad_resolution=1)
