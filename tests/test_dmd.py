"""Tests for Gram assembly, EDMD, Hermitian DMD, Procrustes, and eigensolves."""

import tracemalloc
from dataclasses import replace
from math import pi

import numpy as np
import pytest

from hdmd.dictionary import FeatureMatrices, evaluate_snapshots, gaussian_grid_dictionary
from hdmd.dmd import (
    GramPair,
    KoopmanMatrix,
    assemble_gram_pair,
    block_rows,
    edmd,
    eigendecompose,
    hermitian_dmd,
    symmetric_procrustes,
)
from hdmd.quadrature import QuadratureRule, grid_nodes, monte_carlo, tensor_trapezoid
from hdmd.spectral import AtomicMeasure


def make_pair(psi_x, psi_y, weights=None, tol=1e-12):
    psi_x = np.asarray(psi_x, dtype=complex)
    m = psi_x.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    quad = QuadratureRule(nodes=np.zeros((m, 1)), weights=w)
    fm = FeatureMatrices(psi_x=psi_x, psi_y=psi_y, rank_tolerance_used=tol)
    return assemble_gram_pair(fm, quad), fm, quad


def random_instance(rng, m=24, n=6, complex_data=True):
    def mat():
        if complex_data:
            return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        return rng.normal(size=(m, n)).astype(complex)

    weights = rng.uniform(0.5, 2.0, size=m)
    return make_pair(mat(), mat(), weights=weights)


def g_inverse_sqrt(g):
    lam, q = np.linalg.eigh(g)
    return (q / np.sqrt(lam)) @ q.conj().T, (q * np.sqrt(lam)) @ q.conj().T


def frobenius_objective(pair, quad, fm, k):
    g_m12, _ = g_inverse_sqrt(pair.g)
    w12 = np.sqrt(quad.weights)[:, None]
    return np.linalg.norm(w12 * fm.psi_y @ g_m12 - w12 * fm.psi_x @ k @ g_m12)


# ------------------------------------------------------------------
# assemble_gram_pair
# ------------------------------------------------------------------


def test_assemble_constant_dictionary_totals():
    ones = np.ones((5, 1), dtype=complex)
    quad = monte_carlo(np.zeros((5, 2)), total_mass=100.0)
    fm = FeatureMatrices(psi_x=ones, psi_y=ones)
    pair = assemble_gram_pair(fm, quad)
    assert pair.g[0, 0] == pytest.approx(100.0, rel=1e-12)
    assert pair.a[0, 0] == pytest.approx(100.0, rel=1e-12)


def test_assemble_orthonormal_columns_give_identity(rng):
    q, _ = np.linalg.qr(rng.normal(size=(30, 5)) + 1j * rng.normal(size=(30, 5)))
    pair, _, _ = make_pair(q, q)
    assert np.allclose(pair.g, np.eye(5), atol=1e-12)
    assert pair.retained_rank == 5


def test_assemble_gaussian_diagonal_matches_gaussian_integral():
    # int_{R^2} |c|^2 e^{-2 a r^2} = pi/(2a) |c|^2; domain truncation negligible
    d = gaussian_grid_dictionary([(0, 0), (0, 0)], 1, width=3.0, amplitude=1 + 1j)
    quad = tensor_trapezoid([(-5, 5), (-5, 5)], [200, 200])
    psi = d.amplitude * d.rows(quad.nodes)
    fm = FeatureMatrices(psi_x=psi, psi_y=psi)
    pair = assemble_gram_pair(fm, quad)
    assert pair.g[0, 0].real == pytest.approx(pi / 6.0 * 2.0, rel=1e-8)


def test_assemble_symmetrizes_gram(rng):
    pair, _, _ = random_instance(rng)
    assert np.array_equal(pair.g, pair.g.conj().T)


def test_assemble_rejects_row_mismatch(rng):
    fm = FeatureMatrices(psi_x=np.ones((4, 2)), psi_y=np.ones((4, 2)))
    quad = monte_carlo(np.zeros((5, 1)), total_mass=1.0)
    with pytest.raises(ValueError, match="quadrature nodes"):
        assemble_gram_pair(fm, quad)


def test_from_matrices_accepts_real_gram_and_edmd_matches_pinv(rng):
    x = rng.normal(size=(12, 5))
    g = x.T @ x
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    pair = GramPair.from_matrices(g, a, 1e-12)
    assert pair.g.dtype == np.float64 and pair.retained_rank == 5
    assert pair.condition_number == pytest.approx(np.linalg.cond(g), rel=1e-10)
    assert np.linalg.norm(edmd(pair) - np.linalg.pinv(g) @ a) <= 1e-10


def test_from_matrices_leaves_caller_a_writeable(rng):
    g, a = np.eye(3), rng.normal(size=(3, 3))
    pair = GramPair.from_matrices(g, a, 1e-12)
    assert g.flags.writeable and a.flags.writeable
    assert not pair.a.flags.writeable and not pair.g.flags.writeable
    assert np.array_equal(pair.a, a)


@pytest.mark.parametrize("complex_gram", [False, True], ids=["real", "complex"])
def test_from_matrices_stores_an_exactly_hermitian_g(rng, complex_gram):
    # the Kronecker route's per-axis Hermiticity gate bounds the dense residual only for an exactly Hermitian G1
    shape = (5, 5)
    g = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_gram else 0.0)
    g = g @ g.conj().T + 0.3 * rng.normal(size=shape)
    assert not np.array_equal(g, g.conj().T)
    pair = GramPair.from_matrices(g, rng.normal(size=shape), 1e-12)
    assert pair.g.dtype == g.dtype and np.array_equal(pair.g, pair.g.conj().T)


def test_from_matrices_keeps_an_exactly_symmetric_g_without_a_copy(rng, monkeypatch):
    # custom's gathered G is exactly symmetric, and (G + G^T)/2 would be the same bits: no N x N copy is made
    n = 400
    g = rng.normal(size=(n + 20, n))
    g = g.T @ g
    g, a = np.triu(g) + np.triu(g, 1).T, rng.normal(size=(n, n))
    at_eigh, eigh = [], np.linalg.eigh

    def recorded_eigh(m):
        at_eigh.append((tracemalloc.get_traced_memory()[0], np.shares_memory(m, g)))
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = GramPair.from_matrices(g, a, 1e-12)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    [(held, shared)] = at_eigh
    assert shared and held - before < g.nbytes / 8  # the caller's G goes to eigh as it is
    assert peak < 2.5 * g.nbytes  # eigh's eigenvectors and the retained basis, not a third N x N array
    assert np.shares_memory(pair.g, g) and not pair.g.flags.writeable and g.flags.writeable


def complex_oracle_pair(box, per_axis, width, amp, x, y, w, tol=1e-12):
    """Psi = amp * exp(-width sum_k (x_k - c_k)^2) materialized in complex, then Psi^* W Psi."""
    centers = grid_nodes(gaussian_grid_dictionary(box, per_axis, width, amp).axis_centers)

    def psi(p):
        return amp * np.exp(-width * np.sum((p[:, None, :] - centers[None, :, :]) ** 2, axis=2))

    px, py = psi(x), psi(y)
    return GramPair.from_matrices(px.conj().T @ (w[:, None] * px), px.conj().T @ (w[:, None] * py), tol)


def streamed_pair(box, per_axis, width, amp, x, y, w, tol=1e-12):
    dictionary = gaussian_grid_dictionary(box, per_axis, width, amp)
    features = evaluate_snapshots(dictionary, x, y, rank_tolerance=tol)
    return assemble_gram_pair(features, QuadratureRule(nodes=x, weights=w))


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize(
    "dim, per_axis, amp, m",
    [
        (1, 9, 1 + 1j, 500),
        (2, 6, 0.3 - 2.1j, 7282),  # one row past the first block: block_rows(36) = 7281
        (3, 4, 0.3 - 2.1j, 1500),
        (2, 1, 0.3 - 2.1j, 64),
    ],
)
def test_streamed_real_assembly_matches_complex_oracle(rng, dim, per_axis, amp, m):
    box = [(-2.0, 2.0), (-1.5, 2.5), (-2.0, 1.0)][:dim]
    x = rng.uniform(-3, 3, size=(m, dim))
    y = 0.9 * x + 0.2 * np.sin(x[:, ::-1])
    w = rng.uniform(0.5, 2.0, size=m) / m
    pair = streamed_pair(box, per_axis, 1.0, amp, x, y, w)
    oracle = complex_oracle_pair(box, per_axis, 1.0, amp, x, y, w)
    assert pair.g.dtype == pair.a.dtype == np.float64
    assert relative_gap(pair.g, oracle.g) <= 1e-13
    assert relative_gap(pair.a, oracle.a) <= 1e-13
    assert pair.retained_rank == oracle.retained_rank == per_axis**dim


def test_real_feature_matrices_assemble_real(rng):
    psi_x, psi_y = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
    quad = monte_carlo(np.zeros((30, 1)), total_mass=2.0)
    pair = assemble_gram_pair(FeatureMatrices(psi_x=psi_x, psi_y=psi_y), quad)
    assert pair.g.dtype == pair.a.dtype == np.float64
    complex_pair, _, _ = make_pair(psi_x, psi_y, weights=quad.weights)
    assert np.allclose(pair.g, complex_pair.g, rtol=1e-14, atol=0)
    assert np.allclose(pair.a, complex_pair.a, rtol=1e-14, atol=0)


def gram_pair_before_cutoff(monkeypatch, features, quad):
    """G and A exactly as `assemble_gram_pair` hands them to `GramPair.from_matrices`."""
    seen = []
    from_matrices = GramPair.from_matrices.__func__

    def spy(cls, g, a, rank_tolerance):
        seen.append((g.copy(), a.copy()))
        return from_matrices(cls, g, a, rank_tolerance)

    monkeypatch.setattr(GramPair, "from_matrices", classmethod(spy))
    assemble_gram_pair(features, quad)
    return seen[0]


def test_real_rows_assemble_bitwise_symmetric_gram(rng, monkeypatch):
    dictionary = gaussian_grid_dictionary([(-2.0, 2.0), (-1.5, 2.5)], 7, 1.0, 0.3 - 2.1j)
    for n in (dictionary.size, 9):  # streamed rows, then dense ones
        m = 2 * block_rows(n) + 809  # three blocks, the last one partial
        x = rng.uniform(-3, 3, size=(m, 2))
        quad = QuadratureRule(nodes=x, weights=rng.uniform(0.1, 3.0, size=m))
        if n == dictionary.size:
            features = evaluate_snapshots(dictionary, x, np.cos(x))
        else:
            features = FeatureMatrices(psi_x=rng.normal(size=(m, n)), psi_y=rng.normal(size=(m, n)))
        g, a = gram_pair_before_cutoff(monkeypatch, features, quad)
        assert g.dtype == a.dtype == np.float64
        assert np.array_equal(g, g.T)


def test_midpoint_gram_agrees_with_direct_sum_on_the_same_rows(rng, monkeypatch):
    dictionary = gaussian_grid_dictionary([(-2.0, 2.0), (-1.5, 2.5)], 7, 1.0, 0.3 - 2.1j)
    m = block_rows(dictionary.size) + 1234  # two blocks, the last one partial
    x = rng.uniform(-3, 3, size=(m, 2))
    quad = QuadratureRule(nodes=x, weights=rng.uniform(0.05, 5.0, size=m) / m)
    streamed = evaluate_snapshots(dictionary, x, np.cos(x))
    dense = FeatureMatrices(*streamed.block(slice(None)))  # the same real rows, G summed directly
    g, a = gram_pair_before_cutoff(monkeypatch, streamed, quad)
    g_dense, a_dense = (streamed.scale * mat for mat in gram_pair_before_cutoff(monkeypatch, dense, quad))
    assert np.abs(g - g_dense).max() <= 1e-13 * np.abs(g_dense).max()
    assert np.abs(a - a_dense).max() <= 1e-13 * np.abs(a_dense).max()


def test_assembly_matches_dense_weighted_oracle_across_blocks(rng):
    m = 2 * block_rows(6**2) + 1234  # three blocks, the last one partial
    w = rng.uniform(0.05, 5.0, size=m) / m  # non-uniform positive weights
    box = [(-2.0, 2.0), (-1.5, 2.5)]
    x = rng.uniform(-3, 3, size=(m, 2))
    y = 0.9 * x + 0.2 * np.sin(x[:, ::-1])
    pair = streamed_pair(box, 6, 1.0, 0.3 - 2.1j, x, y, w)
    oracle = complex_oracle_pair(box, 6, 1.0, 0.3 - 2.1j, x, y, w)
    assert relative_gap(pair.g, oracle.g) <= 1e-13
    assert relative_gap(pair.a, oracle.a) <= 1e-13

    m = 2 * block_rows(8) + 1234  # dense complex rows: three blocks of their own size
    w = rng.uniform(0.05, 5.0, size=m) / m
    psi_x = rng.normal(size=(m, 8)) + 1j * rng.normal(size=(m, 8))
    psi_y = rng.normal(size=(m, 8)) + 1j * rng.normal(size=(m, 8))
    pair = assemble_gram_pair(FeatureMatrices(psi_x=psi_x, psi_y=psi_y), QuadratureRule(np.zeros((m, 1)), w))
    g = psi_x.conj().T @ (w[:, None] * psi_x)
    assert relative_gap(pair.g, 0.5 * (g + g.conj().T)) <= 1e-13
    assert relative_gap(pair.a, psi_x.conj().T @ (w[:, None] * psi_y)) <= 1e-13


def test_block_rows_hold_at_most_two_mib_or_one_n_by_n_matrix():
    assert [block_rows(n) for n in (1, 20, 225, 400, 512, 1600)] == [2**18, 13107, 1165, 655, 512, 1600]


def test_streamed_assembly_holds_one_pair_of_row_blocks(rng):
    n = 15**2
    rows = max(n, 2**18 // n)  # 1165 rows: at most max(2 MiB, N x N) of float64 a block
    m = 10 * rows + 100  # eleven blocks, the last one partial
    x = rng.uniform(-4, 4, size=(m, 2))
    features = evaluate_snapshots(gaussian_grid_dictionary([(-4.0, 4.0)] * 2, 15, 0.5, 1.0), x, x[:, ::-1])
    quad = monte_carlo(x, total_mass=1.0)
    tracemalloc.start()
    try:
        assemble_gram_pair(features, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one X and one Y block live beside A at a time (about 4.2 MB); a block kept while the
    # next is built adds two more; G's midpoint bumps come after the blocks and are smaller;
    # A, its product, G's gather, copies and eigh stay below 12 N x N.  A pair of
    # 4096-row blocks alone (14.7 MB) is above the bound (11.1 MB)
    assert peak < 8 * (3 * rows * n + 12 * n * n)


# ------------------------------------------------------------------
# edmd
# ------------------------------------------------------------------


def test_edmd_identity_gram_returns_a(rng):
    q, _ = np.linalg.qr(rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4)))
    target = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pair, _, _ = make_pair(q, q @ target)
    assert np.allclose(edmd(pair), target, atol=1e-12)


def test_edmd_diagonal_solve():
    psi_x = np.array([[np.sqrt(2.0), 0.0], [0.0, 1.0]], dtype=complex)
    # A = psi_x^* psi_y must equal [[2, 0], [0, 3]]
    psi_y = np.array([[2.0 / np.sqrt(2.0), 0.0], [0.0, 3.0]], dtype=complex)
    pair, _, _ = make_pair(psi_x, psi_y)
    assert np.allclose(pair.g, np.diag([2.0, 1.0]), atol=1e-14)
    assert np.allclose(edmd(pair), np.diag([1.0, 3.0]), atol=1e-12)


def test_edmd_matches_dense_pseudoinverse_oracle(rng):
    for _ in range(5):
        pair, fm, quad = random_instance(rng, m=25, n=5)
        g_dense = fm.psi_x.conj().T @ (quad.weights[:, None] * fm.psi_x)
        a_dense = fm.psi_x.conj().T @ (quad.weights[:, None] * fm.psi_y)
        oracle = np.linalg.pinv(0.5 * (g_dense + g_dense.conj().T)) @ a_dense
        assert np.linalg.norm(edmd(pair) - oracle) <= 1e-10


# ------------------------------------------------------------------
# hermitian_dmd
# ------------------------------------------------------------------


def test_hermitian_dmd_symmetrizes_with_identity_gram(rng):
    q, _ = np.linalg.qr(rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))
    target = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pair, _, _ = make_pair(q, q @ target)
    k = hermitian_dmd(pair)
    assert k.compressed_b is not None
    assert np.allclose(k.k, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


def test_hermitian_dmd_keeps_hermitian_a(rng):
    q, _ = np.linalg.qr(rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3)))
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (h + h.conj().T)
    pair, _, _ = make_pair(q, q @ h)
    assert np.allclose(hermitian_dmd(pair).k, h, atol=1e-12)


def test_hermitian_dmd_matches_procrustes_whitening_oracle(rng):
    for _ in range(5):
        pair, fm, quad = random_instance(rng, m=40, n=6)
        g_m12, g_12 = g_inverse_sqrt(pair.g)
        w12 = np.sqrt(quad.weights)[:, None]
        x = w12 * fm.psi_x @ g_m12
        y = w12 * fm.psi_y @ g_m12
        oracle = g_m12 @ symmetric_procrustes(x, y) @ g_12
        assert np.linalg.norm(hermitian_dmd(pair).k - oracle) <= 1e-8


def test_hermitian_dmd_residual_invariant(rng):
    for i in range(20):
        pair, _, _ = random_instance(rng, m=18, n=5, complex_data=(i % 2 == 0))
        assert hermitian_dmd(pair).hermiticity_residual() <= 1e-10


def test_hermitian_dmd_residual_invariant_rank_deficient(rng):
    base = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    psi_x = np.column_stack([base, base @ rng.normal(size=(4, 2))])  # rank 4 of 6
    psi_y = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
    pair, _, _ = make_pair(psi_x, psi_y)
    assert pair.rank_deficient
    assert hermitian_dmd(pair).hermiticity_residual() <= 1e-10


def skewed_operator(g_scale):
    """A K that is not G-Hermitian (residual 2^-30 sqrt(2/5)) for G = g_scale I, so ||G K||_F is sqrt(5) g_scale."""
    k = np.array([[1.0, 2.0**-30], [0.0, 2.0]])
    g = g_scale * np.eye(2)
    return KoopmanMatrix(k, GramPair.from_matrices(g, g @ k, 1e-12), None)


def test_hermiticity_residual_keeps_its_value_in_the_normal_range():
    assert skewed_operator(1.0).hermiticity_residual() == skewed_operator(2.0**500).hermiticity_residual() > 1e-10


def test_hermiticity_residual_is_nan_when_the_norm_of_g_k_underflows():
    # the squares of G K's entries, 2^-1080 and 2^-1078, underflow to 0: ||G K||_F = 0, and a ratio would read 0
    assert np.isnan(skewed_operator(2.0**-540).hermiticity_residual())


def test_hermiticity_residual_is_nan_when_the_norm_of_g_k_overflows():
    # only ||G K||_F overflows (to inf; the difference's entries are 2^485), and a ratio would read 0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.isnan(skewed_operator(2.0**515).hermiticity_residual())


def test_hermitian_dmd_objective_beats_random_perturbations(rng):
    pair, fm, quad = random_instance(rng, m=20, n=6)
    k = hermitian_dmd(pair).k
    base = frobenius_objective(pair, quad, fm, k)
    g_inv = np.linalg.inv(pair.g)
    for eps in (1e-2, 1e-4):
        for _ in range(500):
            s = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            s = 0.5 * (s + s.conj().T)
            delta = g_inv @ s  # G delta = delta^* G by construction
            perturbed = frobenius_objective(pair, quad, fm, k + eps * delta)
            assert base <= perturbed + 1e-12


def test_hermitian_dmd_recovers_planted_operator(rng):
    psi_x = rng.normal(size=(30, 5)) + 1j * rng.normal(size=(30, 5))
    w = rng.uniform(0.5, 1.5, size=30)
    g = psi_x.conj().T @ (w[:, None] * psi_x)
    g = 0.5 * (g + g.conj().T)
    s = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s = 0.5 * (s + s.conj().T)
    k_true = np.linalg.solve(g, s)  # G-Hermitian: G K = S = K^* G
    pair, _, _ = make_pair(psi_x, psi_x @ k_true, weights=w)
    assert np.linalg.norm(hermitian_dmd(pair).k - k_true) <= 1e-8


def test_edmd_and_hermitian_agree_for_g_symmetric_a(rng):
    q, _ = np.linalg.qr(rng.normal(size=(25, 4)) + 1j * rng.normal(size=(25, 4)))
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (h + h.conj().T)
    pair, _, _ = make_pair(q, q @ h)
    assert np.linalg.norm(edmd(pair) - hermitian_dmd(pair).k) <= 1e-8


# ------------------------------------------------------------------
# symmetric_procrustes
# ------------------------------------------------------------------


def test_procrustes_orthonormal_closed_form(rng):
    x, _ = np.linalg.qr(rng.normal(size=(15, 4)) + 1j * rng.normal(size=(15, 4)))
    y = rng.normal(size=(15, 4)) + 1j * rng.normal(size=(15, 4))
    xy = x.conj().T @ y
    closed = 0.5 * (xy + xy.conj().T)
    assert np.linalg.norm(symmetric_procrustes(x, y) - closed) <= 1e-12


def test_procrustes_self_target_is_identity(rng):
    x, _ = np.linalg.qr(rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3)))
    assert np.allclose(symmetric_procrustes(x, x), np.eye(3), atol=1e-12)


def _hermitian_2x2(params):
    a, d, re, im = params
    return np.array([[a, re + 1j * im], [re - 1j * im, d]], dtype=complex)


def test_procrustes_2x2_matches_brute_force(rng):
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    solution = symmetric_procrustes(x, y)
    solver_obj = np.linalg.norm(y - x @ solution)

    # randomized search with shrinking radius around the best point so far
    center = np.zeros(4)
    scale = 3.0
    best = np.linalg.norm(y - x @ _hermitian_2x2(center))
    for _ in range(14):
        cand = center[None, :] + scale * rng.uniform(-1, 1, size=(4000, 4))
        objs = np.array([np.linalg.norm(y - x @ _hermitian_2x2(p)) for p in cand])
        i = int(np.argmin(objs))
        if objs[i] < best:
            best, center = objs[i], cand[i]
        scale *= 0.5

    assert solver_obj <= best + 1e-9  # brute force never beats the solver
    assert best - solver_obj <= 1e-4  # and gets close to it


def test_procrustes_wide_matrix_handles_zero_singular_pairs(rng):
    x = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    y = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    m = symmetric_procrustes(x, y)
    assert m.shape == (5, 5)
    assert np.linalg.norm(m - m.conj().T) <= 1e-12
    assert np.linalg.norm(y - x @ m) <= np.linalg.norm(y)  # beats the zero matrix


def test_procrustes_rejections():
    with pytest.raises(ValueError, match="nonzero"):
        symmetric_procrustes(np.zeros((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="shapes differ"):
        symmetric_procrustes(np.ones((3, 2)), np.ones((2, 2)))


# ------------------------------------------------------------------
# eigendecompose
# ------------------------------------------------------------------


def test_eigendecompose_diagonal_case(rng):
    q, _ = np.linalg.qr(rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3)))
    pair, _, _ = make_pair(q, q @ np.diag([1.0, 2.0, 3.0]).astype(complex))
    eig = eigendecompose(hermitian_dmd(pair))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(np.abs(eig.eigenvectors.conj().T @ pair.g @ eig.eigenvectors), np.eye(3), atol=1e-10)


def test_eigendecompose_defining_residual(rng):
    for _ in range(10):
        pair, _, _ = random_instance(rng, m=30, n=6)
        eig = eigendecompose(hermitian_dmd(pair))
        b = 0.5 * (pair.a + pair.a.conj().T)
        for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
            gv = pair.g @ v
            assert np.linalg.norm(b @ v - lam * gv) <= 1e-8 * np.linalg.norm(gv)


def test_eigendecompose_orthonormality_and_order(rng):
    pair, _, _ = random_instance(rng, m=40, n=8)
    eig = eigendecompose(hermitian_dmd(pair))
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert np.all(np.abs(eig.eigenvalues.imag) == 0) if np.iscomplexobj(eig.eigenvalues) else True
    vgv = eig.eigenvectors.conj().T @ eig.gram.g @ eig.eigenvectors
    assert np.max(np.abs(vgv - np.eye(vgv.shape[0]))) <= 1e-8


def test_eigendecompose_rank_deficient_orthonormal_on_retained(rng):
    base = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    psi_x = np.column_stack([base, base[:, :2]])  # rank 4 of 6
    psi_y = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
    pair, _, _ = make_pair(psi_x, psi_y)
    eig = eigendecompose(hermitian_dmd(pair))
    assert eig.eigenvalues.shape[0] == pair.retained_rank == 4
    vgv = eig.eigenvectors.conj().T @ eig.gram.g @ eig.eigenvectors
    assert np.max(np.abs(vgv - np.eye(vgv.shape[0]))) <= 1e-8


def test_weights_and_mass_do_not_depend_on_eigenvector_phases(rng):
    # each weight is |v_j^* m|^2, so eigendecompose can leave every eigenvector's phase as eigh gives it
    pair, fm, quad = random_instance(rng, m=30, n=6)
    eig = eigendecompose(hermitian_dmd(pair))
    moments = fm.psi_x.conj().T @ (quad.weights * fm.psi_y[:, 0])
    phases = np.exp(2j * pi * rng.uniform(size=eig.eigenvalues.size))
    base = eig.weights(moments)
    turned = replace(eig, eigenvectors=eig.eigenvectors * phases).weights(moments)
    assert np.allclose(turned, base, rtol=1e-13, atol=0)
    mass = AtomicMeasure(eig.eigenvalues, turned).total_mass
    assert mass == pytest.approx(AtomicMeasure(eig.eigenvalues, base).total_mass, rel=1e-13)


def test_real_snapshot_weights_keep_their_bits_under_eigenvector_sign_flips(rng):
    # custom's rows are real, so its eigenvectors are real and a phase could only flip a sign
    dictionary = gaussian_grid_dictionary(((-2.0, 2.0),) * 2, 4, 1.0, 1 + 1j)
    x = rng.uniform(-2.0, 2.0, size=(200, 2))
    features = evaluate_snapshots(dictionary, x, x[:, ::-1], rank_tolerance=1e-12)
    pair = assemble_gram_pair(features, monte_carlo(x, total_mass=1.0))
    eig = eigendecompose(hermitian_dmd(pair))
    assert eig.eigenvectors.dtype == np.float64
    signs = np.where(rng.uniform(size=eig.eigenvalues.size) < 0.5, -1.0, 1.0)
    assert np.any(signs < 0)
    moments = pair.g[:, 0]
    flipped = replace(eig, eigenvectors=eig.eigenvectors * signs).weights(moments)
    assert np.array_equal(flipped, eig.weights(moments))
