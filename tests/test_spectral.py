"""Tests for observable projection, atomic measures, and clustering."""

import numpy as np
import pytest

import hdmd
from hdmd.dmd import KoopmanEig, assemble_gram_pair, eigendecompose, hermitian_dmd
from hdmd.spectral import (
    AtomicMeasure,
    cluster_table,
    integrate,
    project_observable,
    spectral_measure,
)

from test_dmd import make_pair, random_instance


def small_system(rng, m=30, n=6):
    """Random full-rank instance with a Hermitian correlation matrix."""
    psi_x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = rng.uniform(0.5, 1.5, size=m)
    g = psi_x.conj().T @ (w[:, None] * psi_x)
    k_true = np.linalg.solve(0.5 * (g + g.conj().T), 0.5 * (h + h.conj().T))
    pair, fm, quad = make_pair(psi_x, psi_x @ k_true, weights=w)
    return pair, fm, quad


# ------------------------------------------------------------------
# project_observable
# ------------------------------------------------------------------


def test_project_recovers_in_span_observable(rng):
    pair, fm, quad = random_instance(rng, m=25, n=5)
    samples = fm.psi_x[:, 0]  # g = psi_1 exactly
    obs = project_observable(samples, fm, quad, pair=pair)
    expected = np.zeros(5, dtype=complex)
    expected[0] = 1.0
    assert np.linalg.norm(obs.coeffs - expected) <= 1e-10


def test_project_zero_samples(rng):
    pair, fm, quad = random_instance(rng, m=20, n=4)
    obs = project_observable(np.zeros(20), fm, quad, pair=pair)
    assert np.array_equal(obs.coeffs, np.zeros(4, dtype=complex))


def test_project_without_pair_assembles_one(rng):
    _, fm, quad = random_instance(rng, m=20, n=4)
    obs = project_observable(fm.psi_x[:, 1], fm, quad)
    assert obs.gram.size == 4
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1.0
    assert np.linalg.norm(obs.coeffs - expected) <= 1e-10


def test_project_benchmark_mass_grows_toward_norm():
    # ||f||^2 over (-5,5)^2 is 25; dictionary refinement approaches it from below
    problem_masses = []
    quad = hdmd.tensor_trapezoid([(-5, 5), (-5, 5)], [50, 50])
    samples = hdmd.evaluate_function_samples(quad.nodes, hdmd.reference_observable)
    for per_axis in (6, 10, 14):
        spec = hdmd.GaussianDictionarySpec(per_axis=per_axis)
        problem = hdmd.HarmonicOscillatorProblem(dictionary_spec=spec)
        features = hdmd.generate_snapshots(problem, quad)
        pair = assemble_gram_pair(features, quad)
        obs = project_observable(samples, features, quad, pair=pair)
        problem_masses.append(obs.mass())
    assert np.all(np.diff(problem_masses) > 0)
    assert problem_masses[-1] > 24.0
    assert all(m <= 25.0 * (1 + 1e-12) for m in problem_masses)


def test_project_length_mismatch(rng):
    pair, fm, quad = random_instance(rng, m=20, n=4)
    with pytest.raises(ValueError, match="sample count"):
        project_observable(np.zeros(19), fm, quad, pair=pair)


# ------------------------------------------------------------------
# spectral_measure
# ------------------------------------------------------------------


def test_measure_single_atom_for_eigenvector(rng):
    pair, _, _ = small_system(rng)
    eig = eigendecompose(hermitian_dmd(pair))
    obs = hdmd.ObservableCoefficients(coeffs=eig.eigenvectors[:, 0], gram=pair)
    mu = spectral_measure(eig, obs)
    j = int(np.argmin(np.abs(mu.locations - eig.eigenvalues[0])))
    assert mu.weights[j] == pytest.approx(1.0, abs=1e-10)
    rest = np.delete(mu.weights, j)
    assert np.all(rest <= 1e-10)


def test_measure_mass_equals_g_norm(rng):
    for _ in range(5):
        pair, fm, quad = small_system(rng)
        eig = eigendecompose(hermitian_dmd(pair))
        samples = fm.psi_x @ (rng.normal(size=6) + 1j * rng.normal(size=6))
        obs = project_observable(samples, fm, quad, pair=pair)
        mu = spectral_measure(eig, obs)
        assert mu.total_mass == pytest.approx(obs.mass(), rel=1e-10)


def test_measure_weights_are_nonnegative(rng):
    pair, fm, quad = small_system(rng)
    eig = eigendecompose(hermitian_dmd(pair))
    obs = project_observable(fm.psi_x[:, 2], fm, quad, pair=pair)
    mu = spectral_measure(eig, obs)
    assert np.all(mu.weights >= 0)


def test_measure_requires_shared_gram(rng):
    pair1, fm, quad = small_system(rng)
    pair2, _, _ = small_system(rng)
    eig = eigendecompose(hermitian_dmd(pair1))
    obs = hdmd.ObservableCoefficients(coeffs=np.ones(6, dtype=complex), gram=pair2)
    with pytest.raises(ValueError, match="different GramPairs"):
        spectral_measure(eig, obs)


def test_measure_invariant_under_degenerate_remixing(rng):
    # planted degenerate triple: weights within the cluster may move, sums may not
    psi_x = rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6))
    w = rng.uniform(0.5, 1.5, size=40)
    pair, fm, quad = make_pair(psi_x, psi_x, weights=w)
    lam, q = np.linalg.eigh(pair.g)
    whiten = q / np.sqrt(lam)
    u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    vecs = whiten @ u  # G-orthonormal basis
    d = np.array([1.0, 2.0, 2.0, 2.0, 5.0, 6.0])

    rot = np.eye(6, dtype=complex)
    rot[1:4, 1:4] = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    eig_a = KoopmanEig(eigenvalues=d, eigenvectors=vecs, gram=pair)
    eig_b = KoopmanEig(eigenvalues=d, eigenvectors=vecs @ rot, gram=pair)

    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    obs = hdmd.ObservableCoefficients(coeffs=f, gram=pair)
    mu_a = spectral_measure(eig_a, obs)
    mu_b = spectral_measure(eig_b, obs)
    assert mu_a.total_mass == pytest.approx(mu_b.total_mass, rel=1e-10)
    cluster_a = np.sum(mu_a.weights[np.abs(mu_a.locations - 2.0) < 0.1])
    cluster_b = np.sum(mu_b.weights[np.abs(mu_b.locations - 2.0) < 0.1])
    assert cluster_a == pytest.approx(cluster_b, rel=1e-10)


# ------------------------------------------------------------------
# integrate
# ------------------------------------------------------------------


def test_integrate_constant_gives_mass():
    mu = AtomicMeasure.from_atoms([0.5, 1.5], [0.25, 0.75])
    assert integrate(mu, lambda lam: 1.0) == pytest.approx(mu.total_mass, rel=1e-15)


def test_integrate_identity_example():
    mu = AtomicMeasure.from_atoms([1.0, 3.0], [0.5, 0.5])
    assert integrate(mu, lambda lam: lam) == pytest.approx(2.0, rel=1e-15)


def test_integrate_resolvent_matches_dense_oracle(rng):
    # measure built from an n x n Hermitian matrix with identity Gram
    n = 30
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    pair, fm, quad = make_pair(np.eye(n, dtype=complex), h)
    eig = eigendecompose(hermitian_dmd(pair))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    obs = project_observable(v, fm, quad, pair=pair)
    mu = spectral_measure(eig, obs)

    got = integrate(mu, lambda lam: lam / (lam * lam + 1.0))  # Re 1/(lam - i)
    oracle = np.real(np.vdot(v, np.linalg.solve(h - 1j * np.eye(n), v)))
    assert got == pytest.approx(oracle, rel=1e-10)


# ------------------------------------------------------------------
# cluster_table
# ------------------------------------------------------------------


def test_cluster_symmetric_pair():
    mu = AtomicMeasure.from_atoms([2.99, 3.01], [1.0, 1.0])
    rows, matched = cluster_table(mu, [3.0], radius=0.1)
    [(_, loc, weight, count)] = rows
    assert count == 2
    assert loc == pytest.approx(3.0, abs=1e-12)
    assert weight == pytest.approx(2.0, rel=1e-15)
    assert np.all(matched)


def test_cluster_leaves_unmatched_atoms_alone():
    mu = AtomicMeasure.from_atoms([1.0, 7.0], [0.3, 0.7])
    rows, matched = cluster_table(mu, [4.0], radius=0.5)
    assert rows[0][2:] == (0.0, 0)
    assert not np.any(matched)


def test_cluster_preserves_total_mass(rng):
    locs = np.sort(rng.uniform(0, 10, size=40))
    wts = rng.uniform(0, 1, size=40)
    mu = AtomicMeasure.from_atoms(locs, wts)
    rows, matched = cluster_table(mu, [2.0, 5.0, 8.0], radius=1.0)
    clustered = sum(weight for _, _, weight, _ in rows)
    assert clustered + np.sum(mu.weights[~matched]) == pytest.approx(mu.total_mass, rel=1e-12)


def test_cluster_weighted_vs_plain_mean():
    mu = AtomicMeasure.from_atoms([2.8, 3.2], [3.0, 1.0])
    weighted, _ = cluster_table(mu, [3.0], radius=0.4)
    plain, _ = cluster_table(mu, [3.0], radius=0.4, weighted_mean=False)
    assert weighted[0][1] == pytest.approx(2.9, rel=1e-12)
    assert plain[0][1] == pytest.approx(3.0, rel=1e-12)


def test_cluster_radius_gap_validation():
    mu = AtomicMeasure.from_atoms([1.0], [1.0])
    with pytest.raises(ValueError, match="half the minimum reference gap"):
        cluster_table(mu, [1.0, 2.0], radius=0.5)
    with pytest.raises(ValueError, match="distinct"):
        cluster_table(mu, [1.0, 1.0], radius=0.1)
    with pytest.raises(ValueError, match="radius"):
        cluster_table(mu, [1.0], radius=0.0)


def test_cluster_table_reports_empty_clusters():
    mu = AtomicMeasure.from_atoms([1.0, 5.02], [0.5, 0.5])
    rows, matched = cluster_table(mu, [3.0, 5.0], radius=0.4)
    assert rows[0][3] == 0 and np.isnan(rows[0][1]) and rows[0][2] == 0.0
    assert rows[1][3] == 1 and rows[1][1] == pytest.approx(5.02)
    assert np.array_equal(matched, [False, True])


# ------------------------------------------------------------------
# AtomicMeasure container
# ------------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        AtomicMeasure(locations=np.array([1.0]), weights=np.array([-0.5]), total_mass=-0.5)
    with pytest.raises(ValueError, match="sorted"):
        AtomicMeasure(locations=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]), total_mass=2.0)
    with pytest.raises(ValueError, match="total_mass"):
        AtomicMeasure(locations=np.array([1.0]), weights=np.array([1.0]), total_mass=2.0)


def test_measure_serialization(tmp_path):
    mu = AtomicMeasure.from_atoms([3.0, 1.0], [0.25, 0.5])
    csv_path = tmp_path / "measure.csv"
    mu.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,weight"
    assert lines[1] == "1.0,0.5"  # sorted ascending
