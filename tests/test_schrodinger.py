"""Tests for the harmonic-oscillator benchmark and its closed-form oracles."""

import tracemalloc
from dataclasses import replace
from functools import reduce
from math import factorial, pi, sqrt

import numpy as np
import pytest

import hdmd.schrodinger
from hdmd.cli import HERMITICITY_LIMIT
from hdmd.dictionary import Dictionary, gaussian_grid_dictionary
from hdmd.dmd import GramPair, KoopmanMatrix, assemble_gram_pair, eigendecompose, hermitian_dmd
from hdmd.quadrature import QuadratureRule, grid_nodes, tensor_trapezoid, trapezoid_axes
from hdmd.schrodinger import (
    ExactEigenpair,
    HarmonicOscillatorProblem,
    KroneckerEig,
    SeparableSnapshots,
    _axis_multiplier,
    _gauss_legendre,
    _normalized_hermite_table,
    exact_spectrum,
    exact_spike_weights,
    generate_snapshots,
    reference_factor,
    reference_observable,
    separable_snapshots,
)
from hdmd.spectral import AtomicMeasure, cluster_table, project_observable, spectral_measure


def expand(values, index):
    """values[index[k]] for every axis k: per-distinct-axis values expanded to one entry per axis."""
    return [values[i] for i in index]


def gaussians(centers_box=((-4.0, 4.0), (-4.0, 4.0)), per_axis=20, width=3.0, amplitude=1 + 1j):
    """The Gaussian grid dictionary, by default the benchmark's."""
    return gaussian_grid_dictionary(centers_box, per_axis, width, amplitude)


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


# ------------------------------------------------------------------
# generate_snapshots
# ------------------------------------------------------------------


def test_snapshots_single_gaussian_at_its_center():
    dictionary = gaussians(centers_box=((1.0, 1.0), (0.0, 0.0)), per_axis=1, width=3.0, amplitude=1 + 1j)
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
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
    dictionary = gaussians(per_axis=4)
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
    nodes = rng.uniform(-4.5, 4.5, size=(10, 2))
    quad = QuadratureRule(nodes=nodes, weights=np.ones(10))
    fm = generate_snapshots(problem, quad)
    centers = grid_nodes(dictionary.axis_centers)
    for j in (0, 7, 15):
        fd = hamiltonian_by_finite_differences(
            lambda p: gaussian(centers[j], dictionary.width, dictionary.amplitude, p), nodes
        )
        scale = np.maximum(np.abs(fm.psi_y[:, j]), 1e-12)
        assert np.all(np.abs(fd - fm.psi_y[:, j]) / scale <= 1e-6)


def test_snapshots_reject_nodes_outside_domain():
    problem = HarmonicOscillatorProblem()
    quad = QuadratureRule(nodes=np.array([[6.0, 0.0]]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="inside the problem domain"):
        generate_snapshots(problem, quad)


ONE_FORMULA_CASES = [((70, 70), gaussians()), ((50, 45), gaussians(((-3.0, 4.5), (-1.0, 2.0)), 8, 1.3, 0.3 - 2.1j))]


@pytest.mark.parametrize("grid, dictionary", ONE_FORMULA_CASES, ids=["defaults-two-blocks", "asymmetric"])
def test_dense_psi_x_is_amplitude_times_dictionary_rows(grid, dictionary):
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
    quad = tensor_trapezoid(problem.domain, grid)
    features = generate_snapshots(problem, quad)
    assert np.array_equal(features.psi_x, dictionary.amplitude * dictionary.rows(quad.nodes))


@pytest.mark.parametrize("grid, dictionary", ONE_FORMULA_CASES, ids=["defaults-two-blocks", "asymmetric"])
def test_separable_bumps_are_the_dictionary_rows_factors(grid, dictionary):
    snapshots = separable_snapshots(HarmonicOscillatorProblem(dictionary=dictionary), grid)
    bumps, axes = expand(snapshots.bumps, snapshots.index), expand(snapshots.axes, snapshots.index)
    # on a tensor grid, the Khatri-Rao product of the rows' factors is the Kronecker product of the axes'
    assert np.array_equal(np.kron(*bumps), dictionary.rows(grid_nodes(axes)))


# ------------------------------------------------------------------
# separable_snapshots against the dense route
# ------------------------------------------------------------------


def product_factor(x):
    """The factor on each axis of a complex product observable, f(x, y) = f(x) f(y).

    e^{ix}(1 + x) e^{-x^2/10}'s real and imaginary parts are not proportional, so a weight that
    dropped the imaginary part would be off.  It is not odd, so a bump centred at 0 (the
    per_axis = 1 case) has a nonzero moment.
    """
    return np.exp(1j * x) * (1 + x) * np.exp(-0.1 * x**2)


def product_samples(quad):
    """The product observable sampled at the rule's (M, 2) nodes, for the dense route."""
    return reduce(np.multiply, map(product_factor, quad.nodes.T))


def dense_moments(features, quad, samples):
    """Psi_X^* W f from the materialized features and samples at the rule's nodes."""
    return features.psi_x.conj().T @ (quad.weights * samples)


def full_moments(snapshots, axis_moments):
    """conj(amp) (x)_k m_k, the moment vector Psi_X^* W f the per-distinct-axis moments stand for."""
    return np.conj(snapshots.amplitude) * kron_all(expand(axis_moments, snapshots.index))


def relative_error(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


SEPARABLE_CASES = [
    ((75, 75), gaussians()),
    ((40, 55), gaussians()),
    ((50, 45), gaussians(centers_box=((-3.0, 4.5), (-1.0, 2.0)), per_axis=8)),
    ((30, 30), gaussians(per_axis=1)),
    ((50, 50), gaussians(per_axis=10, amplitude=0.3 - 2.1j)),
    ((60, 60), gaussians(per_axis=40)),
]
SEPARABLE_IDS = ["75sq-defaults", "40x55", "asymmetric-box", "per-axis-1", "amplitude-phase", "60sq-40sq-deficient"]


def axis_matrices(snapshots):
    """G1 = E^T W E and H1 = E^T W (E o h) of every axis, formed in the test from the stored W E."""
    g1 = [we.T @ e for e, we in zip(snapshots.bumps, snapshots.weighted_bumps)]
    h1 = [we.T @ (e * h) for e, we, h in zip(snapshots.bumps, snapshots.weighted_bumps, snapshots.multipliers)]
    return expand(g1, snapshots.index), expand(h1, snapshots.index)


def kron_all(mats):
    return reduce(np.kron, mats)


@pytest.fixture(scope="module", params=SEPARABLE_CASES, ids=SEPARABLE_IDS)
def dense_case(request):
    """(problem, grid, quad, features, pair) of the dense route for one case, built once for
    every test that compares with it; the features and GramPair are frozen, so sharing is safe."""
    grid, dictionary = request.param
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
    quad = tensor_trapezoid(problem.domain, grid)
    features = generate_snapshots(problem, quad)
    return problem, grid, quad, features, assemble_gram_pair(features, quad)


def test_separable_matches_dense(dense_case):
    problem, grid, quad, features, dense = dense_case
    snapshots = separable_snapshots(problem, grid)
    # the stored W E is the trapezoid weights times the bumps, on every axis
    bumps, weighted = expand(snapshots.bumps, snapshots.index), expand(snapshots.weighted_bumps, snapshots.index)
    for (_, w), e, we in zip(trapezoid_axes(problem.domain, grid), bumps, weighted, strict=True):
        assert np.array_equal(we, w[:, None] * e)
    g1, h1 = axis_matrices(snapshots)
    scale = abs(problem.dictionary.amplitude) ** 2
    g = scale * kron_all(g1)
    a = scale * (np.kron(h1[0], g1[1]) + np.kron(g1[0], h1[1]))

    assert relative_error(g, dense.g) <= 1e-13
    assert relative_error(a, dense.a) <= 1e-13
    moments = dense_moments(features, quad, product_samples(quad))
    axis_moments = snapshots.moments(product_factor)
    shapes = [m.shape for m in expand(axis_moments, snapshots.index)]
    assert shapes == [(c.size,) for c in problem.dictionary.axis_centers]
    assert relative_error(full_moments(snapshots, axis_moments), moments) <= 1e-13


# ------------------------------------------------------------------
# the Kronecker-sum eigensolve against the dense route
# ------------------------------------------------------------------


def test_kronecker_eig_matches_dense(dense_case):
    """Eigenvalues, heavy cluster sums and observable mass agree with the dense pipeline.

    At full rank both routes solve the same pencil.  In the rank-deficient
    case the per-axis cutoff keeps a rectangle of pairs (36^2 = 1296) that
    contains the 2-D floor's staircase (1046), so by min-max each Ritz value
    can only fall and the projected mass can only grow; both stay close.
    """
    problem, grid, quad, features, pair = dense_case
    dense_eig = eigendecompose(hermitian_dmd(pair))
    observable = project_observable(product_samples(quad), features, quad, pair=pair)
    dense_measure = spectral_measure(dense_eig, observable)

    snapshots = separable_snapshots(problem, grid)
    eig = snapshots.kronecker_eig()
    axis_moments = snapshots.moments(product_factor)
    measure = AtomicMeasure(eig.eigenvalues, eig.weights(axis_moments))
    mass = eig.observable_mass(axis_moments)

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
        assert eig.retained_rank == pair.retained_rank == problem.dictionary.size
        assert np.max(np.abs(gaps)) <= 1e-11
        assert mass == pytest.approx(observable.mass(), rel=1e-13)
        for weight, dense_weight in heavy:
            assert weight == pytest.approx(dense_weight, rel=1e-11)


def test_kronecker_weights_keep_imaginary_part_of_complex_observable():
    """Per-atom weights equal |v^* G g_c|^2 for v = (u_x (x) u_y) / |amp| formed densely."""
    dictionary = gaussians(per_axis=10, amplitude=0.3 - 2.1j)
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
    snapshots = separable_snapshots(problem, (50, 50))
    eig = snapshots.kronecker_eig()
    factor = product_factor(snapshots.axes[0])
    assert np.linalg.norm(factor.imag) > 0.5 * np.linalg.norm(factor.real)
    axis_moments = snapshots.moments(product_factor)
    moments = full_moments(snapshots, axis_moments)
    weights = eig.weights(axis_moments)

    g1, _ = axis_matrices(snapshots)
    g = abs(dictionary.amplitude) ** 2 * kron_all(g1)
    coeffs = np.linalg.solve(g, moments)  # full rank here
    vectors = kron_all([e.eigenvectors for e in expand(eig.axes, eig.index)])[:, eig.order] / abs(dictionary.amplitude)
    projections = vectors.conj().T @ (g @ coeffs)
    # a weight that dropped the imaginary part (or squared without the modulus) would be visibly off
    assert np.linalg.norm(projections.imag) > 0.3 * np.linalg.norm(projections)
    expected = np.abs(projections) ** 2
    assert np.max(np.abs(weights - expected)) <= 1e-12 * weights.sum()
    assert np.real(np.vdot(coeffs, g @ coeffs)) == pytest.approx(eig.observable_mass(axis_moments), rel=1e-12)


@pytest.mark.parametrize("grid, dictionary", SEPARABLE_CASES, ids=SEPARABLE_IDS)
def test_kronecker_axes_are_gram_orthonormal(grid, dictionary):
    # U^T G1 U = I up to roundoff amplified by cond(G1), through ||U||^2 ~ 1 / min retained g
    eig = separable_snapshots(HarmonicOscillatorProblem(dictionary=dictionary), grid).kronecker_eig()
    for axis in eig.axes:
        vgv = axis.eigenvectors.conj().T @ axis.gram.g @ axis.eigenvectors
        assert np.max(np.abs(vgv - np.eye(vgv.shape[0]))) <= 1e-16 * axis.gram.condition_number + 1e-12
    axes = expand(eig.axes, eig.index)
    assert eig.condition_number == pytest.approx(np.prod([a.gram.condition_number for a in axes]))
    kept = np.multiply.outer(*[a.gram.basis_eigenvalues for a in axes]) * abs(dictionary.amplitude) ** 2
    assert np.min(kept) > eig.g_eigen_floor


def record_axis_solves(monkeypatch):
    """Count `Dictionary.axis_bumps` calls made by `separable_snapshots`, and `GramPair.from_matrices` and
    `eigendecompose` calls made by `kronecker_eig`."""
    calls = {"axis_bumps": 0, "from_matrices": 0, "eigendecompose": 0}
    from_matrices, axis_bumps = GramPair.from_matrices, Dictionary.axis_bumps

    def recorded_axis_bumps(self, coordinates):
        calls["axis_bumps"] += 1
        return axis_bumps(self, coordinates)

    def recorded_from_matrices(cls, g, a, rank_tolerance):
        calls["from_matrices"] += 1
        return from_matrices(g, a, rank_tolerance)

    def recorded_eigendecompose(k):
        calls["eigendecompose"] += 1
        return eigendecompose(k)

    monkeypatch.setattr(Dictionary, "axis_bumps", recorded_axis_bumps)
    monkeypatch.setattr(GramPair, "from_matrices", classmethod(recorded_from_matrices))
    monkeypatch.setattr(hdmd.schrodinger, "eigendecompose", recorded_eigendecompose)
    return calls


def separately_solved(snapshots):
    """The KroneckerEig of snapshots with every axis solved on its own, as a 1-D problem, whether or not it
    equals another axis: the per-axis operators and eigenpairs, then the stable sort of the row-major sums."""
    names = ("axes", "bumps", "weighted_bumps", "multipliers")
    one_axis = [replace(snapshots, index=(0,), **{name: (getattr(snapshots, name)[i],) for name in names})
                .kronecker_eig() for i in snapshots.index]
    axes = tuple(eig.axes[0] for eig in one_axis)
    sums = reduce(np.add.outer, [e.eigenvalues for e in axes]).ravel()
    order = np.argsort(sums, kind="stable")
    operators = tuple(eig.operators[0] for eig in one_axis)
    return KroneckerEig(one_axis[0].scale, operators, axes, tuple(range(len(axes))), sums[order], order)


@pytest.mark.parametrize(
    "grid, dictionary, index",
    [
        ((60, 60), gaussians(), (0, 0)),
        ((60, 75), gaussians(), (0, 1)),
        ((50, 50), gaussians(centers_box=((-3.0, 4.5), (-1.0, 2.0)), per_axis=8), (0, 1)),  # equal counts, unequal axes
    ],
    ids=["60sq", "60x75", "square-grid-asymmetric-box"],
)
def test_equal_axes_share_one_solve(monkeypatch, grid, dictionary, index):
    calls = record_axis_solves(monkeypatch)
    snapshots = separable_snapshots(HarmonicOscillatorProblem(dictionary=dictionary), grid)
    eig = snapshots.kronecker_eig()
    solves = len(set(index))
    assert snapshots.index == eig.index == index
    assert calls == {"axis_bumps": solves, "from_matrices": solves, "eigendecompose": solves}
    assert len(snapshots.bumps) == len(eig.axes) == len(eig.operators) == solves
    monkeypatch.undo()
    # the shared solve is bit for bit the separate ones, in every output the CLI reads
    reference = separately_solved(snapshots)
    moments = snapshots.moments(reference_factor)
    assert np.array_equal(eig.eigenvalues, reference.eigenvalues)
    assert np.array_equal(eig.order, reference.order)
    assert np.array_equal(eig.weights(moments), reference.weights(expand(moments, index)))
    assert eig.observable_mass(moments) == reference.observable_mass(expand(moments, index))
    assert eig.hermiticity_residual() == reference.hermiticity_residual()
    assert eig.axis_retained_ranks == reference.axis_retained_ranks


def test_equal_axes_as_distinct_arrays_match_the_shared_build_bit_for_bit():
    # separable_snapshots gives equal axes one entry, index (0, 0); copies of its arrays as two entries, index
    # (0, 1), are solved, gated and weighed once per axis instead, with the same bits in every output the CLI reads
    shared = separable_snapshots(HarmonicOscillatorProblem(), (60, 60))
    assert shared.index == (0, 0)
    names = ("axes", "bumps", "weighted_bumps", "multipliers")
    distinct = replace(shared, index=(0, 1), **{name: tuple(a.copy() for a in expand(getattr(shared, name), (0, 0)))
                                                for name in names})
    outputs = []
    for snapshots, solves in ((shared, 1), (distinct, 2)):
        eig = snapshots.kronecker_eig()
        moments = snapshots.moments(reference_factor)
        assert len(eig.operators) == len(eig.axes) == len(moments) == solves
        outputs.append((eig.eigenvalues, eig.weights(moments), eig.hermiticity_residual(), eig.observable_mass(moments)))
    (values, weights, residual, mass), (values_d, weights_d, residual_d, mass_d) = outputs
    assert values.tobytes() == values_d.tobytes() and weights.tobytes() == weights_d.tobytes()
    assert repr(residual) == repr(residual_d) and repr(mass) == repr(mass_d)


def dense_hermiticity_residual(eig):
    """||G K - K^* G||_F / ||G K||_F with G and the Kronecker-sum K formed explicitly."""
    operators = expand(eig.operators, eig.index)
    g = eig.scale * kron_all([op.source.g for op in operators])
    projectors = [op.source.basis @ op.source.basis.conj().T for op in operators]
    k = sum(
        kron_all([op.k if l == j else p for l, (op, p) in enumerate(zip(operators, projectors))])
        for j in range(len(operators))
    )
    gk = g @ k
    return np.linalg.norm(gk - gk.conj().T) / np.linalg.norm(gk)


@pytest.mark.parametrize("dimension", [2, 3])
def test_kronecker_hermiticity_residual_bounds_dense_formula(dimension, rng, monkeypatch):
    box = ((-4.0, 4.0),) * dimension
    dictionary = gaussians(centers_box=box, per_axis=5, width=1.0, amplitude=0.3 - 2.1j)
    problem = HarmonicOscillatorProblem(domain=((-5.0, 5.0),) * dimension, dictionary=dictionary)
    calls = record_axis_solves(monkeypatch)
    shared = separable_snapshots(problem, (30,) * dimension).kronecker_eig()
    assert shared.index == (0,) * dimension and calls == {"axis_bumps": 1, "from_matrices": 1, "eigendecompose": 1}
    monkeypatch.undo()
    assert shared.hermiticity_residual() <= 1e-13
    assert dense_hermiticity_residual(shared) <= 1e-13
    # every axis its own entry, so each can be skewed apart from the others
    eig = replace(shared, operators=tuple(expand(shared.operators, shared.index)),
                  axes=tuple(expand(shared.axes, shared.index)), index=tuple(range(dimension)))

    def skewed(scales, skew_gram: bool):
        """eig with a deliberately non-symmetric K_k on every axis k, of size scales[k], and G1_k too if skew_gram."""
        noise = [scale * rng.normal(size=(2,) + op.k.shape) for scale, op in zip(scales, eig.operators, strict=True)]
        return replace(eig, operators=tuple(
            KoopmanMatrix(
                k=op.k + dk,
                source=replace(op.source, g=op.source.g + dg) if skew_gram else op.source,
                compressed_b=op.compressed_b,
            )
            for op, (dk, dg) in zip(eig.operators, noise)
        ))

    # G1_k exactly Hermitian, as GramPair.from_matrices stores it: the per-axis gate is the stricter one;
    # the skew falls tenfold from one axis to the next, so a gate that read the wrong axis would be seen
    broken = skewed([0.3 / 10**k for k in range(dimension)], False)
    assert broken.hermiticity_residual() >= dense_hermiticity_residual(broken) > 1e-5
    # a skewed G1_k, which the pipeline cannot produce: the per-axis max misses G1_l Pi_l's skew and may
    # fall below the dense residual, but both are far above the gate's limit, so the verdict is the same
    broken = skewed([0.3] * dimension, True)
    assert min(broken.hermiticity_residual(), dense_hermiticity_residual(broken)) > HERMITICITY_LIMIT


@pytest.mark.parametrize("nan_axis", [0, 1])
def test_kronecker_hermiticity_residual_keeps_a_nan_axis(nan_axis):
    # Python's max keeps its first argument against a later NaN: the gate must see a NaN on any axis
    eig = separable_snapshots(HarmonicOscillatorProblem(), (30, 40)).kronecker_eig()
    operators = list(eig.operators)
    operators[nan_axis] = replace(operators[nan_axis], k=np.full_like(operators[nan_axis].k, np.nan))
    assert np.isnan(replace(eig, operators=tuple(operators)).hermiticity_residual())


def squared_residuals(snapshots, eig):
    """ResDMD's res(lambda)^2 = v^* L v - lambda^2 (Colbrook & Townsend, CPAM 2024), L = Psi_Y^* W Psi_Y, in
    eigenvalue order.  L separates like G and A, and for v = (x)_k u_k / |amp| the cross terms cancel against
    lambda^2, so res^2 is the outer sum of each axis's l - mu^2, with l = u^T L1 u and L1 = (E o h)^T W (E o h)."""
    terms = []
    for e, we, h, axis in zip(snapshots.bumps, snapshots.weighted_bumps, snapshots.multipliers, eig.axes):
        u = axis.eigenvectors
        terms.append(np.sum(u * (((we * h).T @ (e * h)) @ u), axis=0) - axis.eigenvalues**2)
    return reduce(np.add.outer, expand(terms, eig.index)).ravel()[eig.order]


def test_separated_residual_is_the_dense_one():
    # ||W^(1/2) (Psi_Y v - lambda Psi_X v)||^2 with the features and v = (u_x (x) u_y) / |amp| formed densely
    dictionary = gaussians(per_axis=5, width=1.0, amplitude=0.3 - 2.1j)
    problem = HarmonicOscillatorProblem(dictionary=dictionary)
    snapshots = separable_snapshots(problem, (30, 40))
    eig = snapshots.kronecker_eig()
    quad = tensor_trapezoid(problem.domain, (30, 40))
    features = generate_snapshots(problem, quad)
    vectors = kron_all([e.eigenvectors for e in expand(eig.axes, eig.index)])[:, eig.order] / abs(dictionary.amplitude)
    rows = features.psi_y @ vectors - (features.psi_x @ vectors) * eig.eigenvalues
    dense = quad.weights @ np.abs(rows) ** 2
    assert np.max(np.abs(squared_residuals(snapshots, eig) - dense)) <= 1e-10 * np.max(dense)


@pytest.mark.parametrize(
    "grid, per_axis",
    [((75, 75), 20), ((300, 300), 20), ((300, 300), 30), ((300, 300), 40), ((60, 60), 40), ((40, 55), 20)],
)
def test_residual_certifies_every_eigenvalue(grid, per_axis):
    # H is self-adjoint with spectrum {1, 2, ...}, so dist(lambda, spectrum) <= res(lambda) for every computed pair,
    # and the four lowest levels' 10 eigenvalues are certified below 1e-2 (3.7e-3 at most in these runs).  The
    # 15 x 15 grid, whose quadrature misses the bumps, breaks the bound and is left out.
    snapshots = separable_snapshots(HarmonicOscillatorProblem(dictionary=gaussians(per_axis=per_axis)), grid)
    eig = snapshots.kronecker_eig()
    residuals = np.sqrt(squared_residuals(snapshots, eig))
    distances = np.abs(eig.eigenvalues - np.maximum(1.0, np.rint(eig.eigenvalues)))
    assert np.all(distances <= residuals)
    assert np.all(residuals[:10] < 1e-2)


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


def test_hermite_table_stays_finite_and_orthonormal_far_beyond_m_150():
    # 2^m m! overflows a double from m = 151 on; the table must not depend on it.  The
    # trapezoid rule on [-30, 30] with step 0.02 integrates these products to roundoff:
    # they decay to ~1e-150 at the ends and their bandwidth (~49) is far below pi / 0.02
    xs = np.linspace(-30.0, 30.0, 3001)
    table = _normalized_hermite_table(300, xs)
    assert np.all(np.isfinite(table))
    gram = (table * (xs[1] - xs[0])) @ table.T
    assert np.max(np.abs(gram - np.eye(301))) <= 1e-12


# ------------------------------------------------------------------
# the Gauss-Legendre rule behind the spike-weight oracle
# ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10, 51, 400])
def test_gauss_legendre_matches_numpy(n):
    # numpy's own outermost weight at n = 400 is 5.7e-10 from a 40-digit reference,
    # and this rule's 9.5e-10, so weights are compared to 1e-9 relative
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights / ref_weights - 1)) <= 1e-9
    assert abs(weights.sum() - 2.0) <= 1e-13


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
    # the table's rows carry the L2(R^2) constant (2^{m+n} m! n! pi)^{-1/2}, split over the axes
    pair = ExactEigenpair(m=2, n=3)
    normalization = 1.0 / sqrt(2.0 ** (pair.m + pair.n) * factorial(pair.m) * factorial(pair.n) * pi)
    pts = np.array([[0.3, -1.1]])
    unnormalized = hermite(2, 0.3) * hermite(3, -1.1) * np.exp(-0.5 * np.sum(pts**2))
    assert eigenfunction(pair)(pts) == pytest.approx(normalization * unnormalized, rel=1e-13)


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


def test_observable_is_the_product_of_its_axis_factors():
    # the CLI takes the moments from the factors, the spike oracle samples the observable
    x, y = np.linspace(-5.0, 5.0, 31), np.linspace(-5.0, 5.0, 17)
    product = np.multiply.outer(reference_factor(x), reference_factor(y)).ravel()
    assert np.array_equal(reference_observable(grid_nodes((x, y))), product)


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


@pytest.mark.parametrize(("coarse_q", "fine_q", "tol"), [(200, 400, 1e-8), (400, 800, 1e-12)])
def test_spike_weights_resolution_converged(coarse_q, fine_q, tol):
    coarse = exact_spike_weights(11, quad_resolution=coarse_q)
    fine = exact_spike_weights(11, quad_resolution=fine_q)
    assert np.max(np.abs(coarse.weights - fine.weights)) <= tol


def dense_spike_weights(max_energy, observable, quad_resolution):
    """The oracle as one dense pass: numpy's leggauss (a Q x Q eigensolve), f on the
    full Q^2 grid and the Hermite table scaled by 1 / sqrt(2^m m! sqrt(pi)) (m <= 150)."""
    base_x, base_w = np.polynomial.legendre.leggauss(quad_resolution)
    (gx, wx), (gy, wy) = [
        (0.5 * (b - a) * base_x + 0.5 * (b + a), 0.5 * (b - a) * base_w) for a, b in HarmonicOscillatorProblem.domain
    ]
    fvals = np.asarray(observable(grid_nodes((gx, gy)))).reshape(quad_resolution, quad_resolution)

    def table(x):
        rows = [np.ones_like(x), 2 * x]
        for k in range(1, max_energy - 1):
            rows.append(2 * x * rows[k] - 2 * k * rows[k - 1])
        norms = np.array([sqrt(2.0**m * factorial(m) * sqrt(pi)) for m in range(max_energy)])
        return np.array(rows[:max_energy]) * np.exp(-0.5 * x**2) / norms[:, None]

    inner = (table(gx) * wx) @ fvals @ (table(gy) * wy).T
    return np.array([sum(abs(inner[m, e - 1 - m]) ** 2 for m in range(e)) for e in range(1, max_energy + 1)])


@pytest.mark.parametrize(
    ("max_energy", "quad_resolution"), [(12, 400), (12, 333)], ids=["reference", "reference-333"]
)
def test_spike_weights_match_the_dense_one_pass_formula(max_energy, quad_resolution):
    dense = dense_spike_weights(max_energy, reference_observable, quad_resolution)
    mu = exact_spike_weights(max_energy, quad_resolution=quad_resolution)
    assert np.max(np.abs(mu.weights - dense)) <= 1e-12 * np.max(dense)


@pytest.mark.parametrize("quad_resolution", [400, 2000])
def test_spike_weights_memory_stays_flat_in_the_resolution(quad_resolution):
    # the dense pass holds Q^2 nodes and values and a Q x Q companion matrix: 6.1 MiB at Q = 400;
    # one axis at a time holds a max_energy x Q Hermite table: 0.29 MiB at Q = 2000
    tracemalloc.start()
    try:
        exact_spike_weights(12, quad_resolution=quad_resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
    assert peak <= 0.5 * 2**20


def test_spike_weights_keep_mass_beyond_energy_171():
    # at E >= 152 the table's rows m >= 151 once vanished, and at E >= 172 they raised OverflowError
    mu = exact_spike_weights(200)
    assert np.all(np.isfinite(mu.weights))
    assert exact_spike_weights(171).total_mass < mu.total_mass < 25.0


def test_spike_weights_validation():
    with pytest.raises(ValueError, match="max_energy"):
        exact_spike_weights(0)
    with pytest.raises(ValueError, match="quad_resolution"):
        exact_spike_weights(3, quad_resolution=1)
    with pytest.raises(TypeError):  # the oracle is the reference observable's only; the resolution is keyword-only
        exact_spike_weights(3, reference_observable)
