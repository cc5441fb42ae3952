"""Tests for observable projection, atomic measures, and clustering."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import hdmd
from hdmd.dictionary import gaussian_grid_dictionary
from hdmd.dmd import GramPair, KoopmanEig, assemble_gram_pair, eigendecompose, hermitian_dmd
from hdmd.matio import write_csv
from hdmd.spectral import (
    AtomicMeasure,
    ObservableCoefficients,
    cluster_table,
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


def expansion(obs):
    """Least-squares coefficients g_c = G^+ m = Q Lambda^{-1} Q^* m over the retained eigenpairs of G."""
    q, lam = obs.gram.basis, obs.gram.basis_eigenvalues
    return q @ ((q.conj().T @ obs.moments) / lam)


# ------------------------------------------------------------------
# project_observable
# ------------------------------------------------------------------


def test_project_recovers_in_span_observable(rng):
    pair, fm, quad = random_instance(rng, m=25, n=5)
    samples = fm.psi_x[:, 0]  # g = psi_1 exactly
    obs = project_observable(samples, fm, quad, pair=pair)
    expected = np.zeros(5, dtype=complex)
    expected[0] = 1.0
    assert np.linalg.norm(expansion(obs) - expected) <= 1e-10


def test_project_zero_samples(rng):
    pair, fm, quad = random_instance(rng, m=20, n=4)
    obs = project_observable(np.zeros(20), fm, quad, pair=pair)
    assert np.array_equal(expansion(obs), np.zeros(4, dtype=complex))


def test_project_benchmark_mass_grows_toward_norm():
    # ||f||^2 over (-5,5)^2 is 25; dictionary refinement approaches it from below
    problem_masses = []
    quad = hdmd.tensor_trapezoid([(-5, 5), (-5, 5)], [50, 50])
    samples = hdmd.evaluate_function_samples(quad.nodes, hdmd.reference_observable)
    for per_axis in (6, 10, 14):
        dictionary = gaussian_grid_dictionary([(-4, 4), (-4, 4)], per_axis, 3.0, 1 + 1j)
        problem = hdmd.HarmonicOscillatorProblem(dictionary=dictionary)
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
    obs = ObservableCoefficients(moments=pair.g @ eig.eigenvectors[:, 0], gram=pair)
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


def test_mass_is_accurate_on_ill_conditioned_gram(rng):
    # G = Q diag(lambda) Q^T with lambda spanning 1e-20..1; g_c = G^+ m is dominated
    # by the tiny directions, where g_c^* (G g_c) in floating point is off by orders
    n = 8
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.logspace(-20, 0, n)
    g = (q * lam) @ q.T
    pair = GramPair(g=g, a=g, g_eigen_floor=0.0, basis=q, basis_eigenvalues=lam)
    moments = rng.normal(size=n)
    obs = ObservableCoefficients(moments=moments, gram=pair)

    exact = float(sum(
        sum(Fraction(q[j, i]) * Fraction(moments[j]) for j in range(n)) ** 2 / Fraction(lam[i])
        for i in range(n)
    ))  # sum_i (q_i^T m)^2 / lambda_i in rational arithmetic
    assert obs.mass() == pytest.approx(exact, rel=1e-12)
    coeffs = expansion(obs)
    assert abs(coeffs @ g @ coeffs - exact) > 1e-3 * exact


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
    obs = ObservableCoefficients(moments=np.ones(6, dtype=complex), gram=pair2)
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

    m = rng.normal(size=6) + 1j * rng.normal(size=6)
    obs = ObservableCoefficients(moments=m, gram=pair)
    mu_a = spectral_measure(eig_a, obs)
    mu_b = spectral_measure(eig_b, obs)
    assert mu_a.total_mass == pytest.approx(mu_b.total_mass, rel=1e-10)
    cluster_a = np.sum(mu_a.weights[np.abs(mu_a.locations - 2.0) < 0.1])
    cluster_b = np.sum(mu_b.weights[np.abs(mu_b.locations - 2.0) < 0.1])
    assert cluster_a == pytest.approx(cluster_b, rel=1e-10)


def oscillating_observable(points):
    return np.cos(2 * points[:, 0]) + 1j * np.cos(3 * points[:, 1])


@pytest.mark.parametrize("per_axis, rank", [(20, 400), (30, 856)], ids=["full-rank", "truncated"])
def test_eig_weights_from_moments_match_projected_measure(per_axis, rank):
    """spectral_measure and ObservableCoefficients.mass are |v^* m|^2 and sum_i |q_i^* m|^2 / lambda_i.

    Dense oscillator data on a 40^2 trapezoid grid.  With 30^2 bumps G is cut
    to rank 856 (cond 9e11); there weights taken as |v^* G G^+ m|^2 summed to
    the mass only to about 5e-10, while the moments keep Parseval at roundoff.
    """
    dictionary = gaussian_grid_dictionary(((-4.0, 4.0), (-4.0, 4.0)), per_axis, 3.0, 1 + 1j)
    problem = hdmd.HarmonicOscillatorProblem(dictionary=dictionary)
    quad = hdmd.tensor_trapezoid(problem.domain, (40, 40))
    features = hdmd.generate_snapshots(problem, quad)
    pair = assemble_gram_pair(features, quad)
    assert pair.retained_rank == rank
    eig = eigendecompose(hermitian_dmd(pair))
    samples = hdmd.evaluate_function_samples(quad.nodes, oscillating_observable)
    moments = features.psi_x.conj().T @ (quad.weights * samples)
    reference = project_observable(samples, features, quad, pair=pair)

    weights = eig.weights(moments)
    mass = pair.observable_mass(moments)
    assert np.linalg.norm((eig.eigenvectors.conj().T @ moments).imag) > 0.3 * np.sqrt(weights.sum())
    assert mass == reference.mass()
    assert weights.sum() == pytest.approx(mass, rel=1e-10)
    measure = spectral_measure(eig, reference)
    assert np.array_equal(measure.weights, weights)
    assert measure.total_mass == pytest.approx(reference.mass(), rel=1e-12)


# ------------------------------------------------------------------
# cluster_table
# ------------------------------------------------------------------


def test_cluster_symmetric_pair():
    mu = AtomicMeasure([2.99, 3.01], [1.0, 1.0])
    rows, matched = cluster_table(mu, [3.0], radius=0.1)
    [(_, loc, weight, count)] = rows
    assert count == 2
    assert loc == pytest.approx(3.0, abs=1e-12)
    assert weight == pytest.approx(2.0, rel=1e-15)
    assert np.all(matched)


def test_cluster_leaves_unmatched_atoms_alone():
    mu = AtomicMeasure([1.0, 7.0], [0.3, 0.7])
    rows, matched = cluster_table(mu, [4.0], radius=0.5)
    assert rows[0][2:] == (0.0, 0)
    assert not np.any(matched)


def test_cluster_preserves_total_mass(rng):
    locs = np.sort(rng.uniform(0, 10, size=40))
    wts = rng.uniform(0, 1, size=40)
    mu = AtomicMeasure(locs, wts)
    rows, matched = cluster_table(mu, [2.0, 5.0, 8.0], radius=1.0)
    clustered = sum(weight for _, _, weight, _ in rows)
    assert clustered + np.sum(mu.weights[~matched]) == pytest.approx(mu.total_mass, rel=1e-12)


def test_cluster_weighted_vs_plain_mean():
    # the location is the weighted mean 2.9, not the plain mean 3.0; all-zero weights fall back to the plain mean
    weighted, _ = cluster_table(AtomicMeasure([2.8, 3.2], [3.0, 1.0]), [3.0], radius=0.4)
    plain, _ = cluster_table(AtomicMeasure([2.8, 3.1], [0.0, 0.0]), [3.0], radius=0.4)
    assert weighted[0][1] == pytest.approx(2.9, rel=1e-12)
    assert plain[0][1] == pytest.approx(2.95, rel=1e-12)


def test_cluster_location_ignores_roundoff_weights():
    # a cluster weighing at most eps * total_mass holds roundoff, not mass: its location is the plain mean
    mu = AtomicMeasure([1.0, 2.8, 3.1], [1.0, 3e-30, 1e-30])
    rows, _ = cluster_table(mu, [1.0, 3.0], radius=0.4)
    assert rows[0][1] == 1.0
    assert rows[1][1] == pytest.approx(2.95, rel=1e-12)
    assert rows[1][2] == pytest.approx(4e-30, rel=1e-12)


def test_cluster_radius_gap_validation():
    mu = AtomicMeasure([1.0], [1.0])
    with pytest.raises(ValueError, match="half the minimum reference gap"):
        cluster_table(mu, [1.0, 2.0], radius=0.5)
    with pytest.raises(ValueError, match="distinct"):
        cluster_table(mu, [1.0, 1.0], radius=0.1)
    with pytest.raises(ValueError, match="radius"):
        cluster_table(mu, [1.0], radius=0.0)


def test_cluster_table_imports_nothing_at_first_call():
    # np.unique imports numpy.ma (~10 ms of disk reads) the first time it runs,
    # which landed inside the first `hdmd schrodinger` call of a process
    code = (
        "import sys, hdmd.spectral as s\n"
        "before = set(sys.modules)\n"
        "s.cluster_table(s.AtomicMeasure([1.0, 2.1], [1.0, 1.0]), [1.0, 2.0], 0.4)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(hdmd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cluster_table_reports_empty_clusters():
    mu = AtomicMeasure([1.0, 5.02], [0.5, 0.5])
    rows, matched = cluster_table(mu, [3.0, 5.0], radius=0.4)
    assert rows[0][3] == 0 and np.isnan(rows[0][1]) and rows[0][2] == 0.0
    assert rows[1][3] == 1 and rows[1][1] == pytest.approx(5.02)
    assert np.array_equal(matched, [False, True])


def mask_oracle(measure, references, radius):
    """cluster_table's definition, one |lambda - E| <= radius mask over every atom per reference, in the
    caller's order: the plain sum, the weighted mean, or np.mean for a cluster of at most eps * total mass."""
    locs, wts = measure.locations, measure.weights
    matched = np.zeros(locs.shape, dtype=bool)
    rows = []
    for ref in np.asarray(references, dtype=float):
        mask = np.abs(locs - ref) <= radius
        matched |= mask
        count = int(np.count_nonzero(mask))
        if count == 0:
            rows.append((float(ref), float("nan"), 0.0, 0))
            continue
        weight = float(np.sum(wts[mask]))
        heavy = weight > np.finfo(float).eps * measure.total_mass
        location = np.dot(wts[mask], locs[mask]) / weight if heavy else np.mean(locs[mask])
        rows.append((float(ref), float(location), weight, count))
    return rows, matched


def edge_atoms(references, radius):
    """Atoms at E - radius and E + radius, one ulp either side of each, and E itself, for every reference E."""
    edges = [e + s * radius for e in references for s in (-1, 1)]
    return sorted([*references, *edges, *np.nextafter(edges, np.inf), *np.nextafter(edges, -np.inf)])


@pytest.mark.parametrize(
    "locations, weights, references, radius",
    [
        (edge_atoms([1.0, 2.0, 3.0], 0.25), None, [1.0, 2.0, 3.0], 0.25),  # E +- radius exact in binary
        (edge_atoms([1.0, 2.0, 3.0], 0.3), None, [3.0, 1.0, 2.0], 0.3),  # rounded, and the references unsorted
        (edge_atoms([-7.5, 0.1, 1e3], 0.05), None, [1e3, 0.1, 42.0, -7.5], 0.05),  # 42 is an empty cluster
        ([0.9, 1.0, 1.1, 2.95, 3.05], [1.0, 2.0, 1.0, 3e-30, 1e-30], [3.0, 1.0], 0.2),  # a light cluster
        ([0.9, 1.0, 1.1], [0.0, 0.0, 0.0], [1.0, 5.0], 0.2),  # zero total mass: every cluster is light
        ([], [], [2.0, 1.0], 0.1),  # an empty measure
        ([1.0, 2.0], [1.0, 1.0], [7.0], 1e300),  # one reference, and no gap bounds the radius
    ],
    ids=["exact-edges", "rounded-edges-unsorted", "wide-range-empty", "light", "zero-mass", "empty-measure", "one-ref"],
)
def test_cluster_table_matches_the_mask_oracle_bit_for_bit(rng, locations, weights, references, radius):
    if weights is None:
        weights = rng.uniform(0.0, 1.0, len(locations))
    measure = AtomicMeasure(locations, weights)
    rows, matched = cluster_table(measure, references, radius)
    oracle_rows, oracle_matched = mask_oracle(measure, references, radius)
    assert repr(rows) == repr(oracle_rows)  # shortest round-trip text: equal bits and equal types
    assert matched.dtype == bool and np.array_equal(matched, oracle_matched)


def test_cluster_table_matches_the_mask_oracle_on_random_spectra(rng):
    # Kronecker-like spectra: runs of near-equal atoms around each reference, clusters of 1 to 200 atoms
    for _ in range(50):
        references = rng.permutation(np.arange(1.0, rng.integers(2, 15)))
        radius = rng.uniform(0.01, 0.49)
        centers = rng.choice(references, size=rng.integers(0, 400))
        stray = rng.uniform(0.0, references.max() + 1.0, size=rng.integers(0, 50))
        locs = np.sort(np.concatenate([centers + rng.uniform(-1.5, 1.5, centers.size) * radius, stray]))
        weights = rng.uniform(0.0, 1.0, locs.size) * rng.choice([1.0, 1e-30], size=locs.size)
        measure = AtomicMeasure(locs, weights)
        rows, matched = cluster_table(measure, references, radius)
        oracle_rows, oracle_matched = mask_oracle(measure, references, radius)
        assert repr(rows) == repr(oracle_rows)
        assert np.array_equal(matched, oracle_matched)


# ------------------------------------------------------------------
# AtomicMeasure container
# ------------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        AtomicMeasure(locations=np.array([1.0]), weights=np.array([-0.5]))
    with pytest.raises(ValueError, match="sorted"):
        AtomicMeasure(locations=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]))
    # NaN fails both checks: every comparison with it is false, so a `< 0` test would let it through
    with pytest.raises(ValueError, match="sorted"):
        AtomicMeasure(locations=[1.0, np.nan, 0.5], weights=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        AtomicMeasure(locations=[0.0, 1.0], weights=[np.nan, 1.0])


def test_measure_total_mass_is_the_sum_of_weights(rng):
    loc, w = np.sort(rng.uniform(0, 10, size=25)), rng.uniform(0, 1, size=25)
    assert AtomicMeasure(loc, w).total_mass == float(np.sum(w))
    with pytest.raises(TypeError):
        AtomicMeasure(loc, w, total_mass=float(np.sum(w)))


def test_measure_serialization(tmp_path):
    mu = AtomicMeasure([1.0, 3.0], [0.5, 0.25])
    csv_path = tmp_path / "measure.csv"
    write_csv(csv_path, "lambda,weight", mu.locations, mu.weights)  # as the CLI writes measure.csv
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,weight"
    assert lines[1:] == ["1.0,0.5", "3.0,0.25"]
