"""Tests for the finite-section convergence probes."""

import re
import tracemalloc
from math import e, erfc, exp, pi, prod, sqrt

import numpy as np
import pytest
from test_config_cli import traced_peak

import hdmd.cli as cli
from hdmd.probes import (
    FiniteSections,
    FreeJacobiSections,
    free_jacobi,
    moment_convergence_probe,
    resolvent_convergence_probe,
    weak_convergence_probe,
)

N_REF = 400
SIZES = [2, 4, 8, 16, 100]


def first_basis_vector(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def path_graph_walk_count(k: int, start: int = 0, end: int = 0, vertices: int = 64) -> int:
    """Number of length-k walks between two vertices of the path graph.

    Independent oracle for (L^k)_{11} of the free Jacobi matrix: dynamic
    programming over exact integer counts.
    """
    counts = [0] * vertices
    counts[start] = 1
    for _ in range(k):
        nxt = [0] * vertices
        for i, c in enumerate(counts):
            if not c:
                continue
            if i > 0:
                nxt[i - 1] += c
            if i < vertices - 1:
                nxt[i + 1] += c
        counts = nxt
    return counts[end]


# ------------------------------------------------------------------
# trivial references
# ------------------------------------------------------------------


def test_diagonal_reference_gives_zero_gaps(rng):
    diag = np.diag(np.arange(N_REF, dtype=float))
    v = first_basis_vector(N_REF)
    res = resolvent_convergence_probe(diag, v, 1j, SIZES)
    assert all(gap == 0.0 for _, gap in res.gaps("resolvent"))
    mom = moment_convergence_probe(diag, v, 4, SIZES)
    assert all(gap == 0.0 for _, _, gap in mom.rows)
    weak = weak_convergence_probe(diag, v, [lambda lam: lam / (lam * lam + 1.0)], SIZES)
    assert all(gap <= 1e-15 for _, _, gap in weak.rows)


def test_resolvent_zero_error_for_invariant_subspace():
    # L diagonal, v = e_1: P_1 is already invariant
    diag = np.diag(np.linspace(-2, 2, 50))
    res = resolvent_convergence_probe(diag, first_basis_vector(50), 2j, [1, 5, 20])
    assert all(gap == 0.0 for _, gap in res.gaps("resolvent"))


def test_block_diagonal_reference_zero_gaps_past_block_size(rng):
    b1 = rng.normal(size=(5, 5))
    b1 = 0.5 * (b1 + b1.T)
    b2 = rng.normal(size=(45, 45))
    b2 = 0.5 * (b2 + b2.T)
    ref = np.block([[b1, np.zeros((5, 45))], [np.zeros((45, 5)), b2]])
    v = np.zeros(50)
    v[:5] = rng.normal(size=5)
    v /= np.linalg.norm(v)

    sizes = [5, 10, 25]
    res = resolvent_convergence_probe(ref, v, 1j, sizes)
    assert all(gap <= 1e-12 for _, gap in res.gaps("resolvent"))
    mom = moment_convergence_probe(ref, v, 5, sizes)
    assert all(gap <= 1e-10 for _, _, gap in mom.rows)
    weak = weak_convergence_probe(ref, v, [lambda lam: 1.0 / (lam * lam + 1.0)], sizes)
    assert all(gap <= 1e-12 for _, _, gap in weak.rows)


# ------------------------------------------------------------------
# free Jacobi reference
# ------------------------------------------------------------------


def test_free_jacobi_structure():
    mat = free_jacobi(5)
    assert np.array_equal(np.diag(mat), np.zeros(5))
    assert np.array_equal(np.diag(mat, 1), np.ones(4))
    assert np.array_equal(mat, mat.T)


def test_free_jacobi_moments_match_walk_counts():
    # Catalan numbers 1, 1, 2, 5, 14 at even orders, zero at odd orders
    assert [path_graph_walk_count(k) for k in range(9)] == [1, 0, 1, 0, 2, 0, 5, 0, 14]

    ref = free_jacobi(N_REF)
    v = first_basis_vector(N_REF)
    u = v.copy()
    for k in range(9):
        assert np.vdot(v, u) == pytest.approx(path_graph_walk_count(k), abs=1e-12)
        u = ref @ u


def test_free_jacobi_moment_gaps_vanish_once_sections_cover_walks():
    ref = free_jacobi(N_REF)
    v = first_basis_vector(N_REF)
    k_max = 6
    probe = moment_convergence_probe(ref, v, k_max, SIZES)
    for n, key, gap in probe.rows:
        k = int(key.split("=")[1])
        if n > k:
            assert gap <= 1e-10, (n, key, gap)


def test_moment_probe_real_reference_matches_complex_reference():
    # the gaps are exact walk counts, so real and complex arithmetic agree bitwise
    ref = free_jacobi(N_REF)
    v = first_basis_vector(N_REF)
    real = moment_convergence_probe(ref, v, 8, SIZES)
    complex_ref = moment_convergence_probe(ref.astype(complex), v.astype(complex), 8, SIZES)
    assert real.rows == complex_ref.rows and real.floors == complex_ref.floors


def test_free_jacobi_resolvent_errors_decrease():
    ref = free_jacobi(N_REF)
    v = first_basis_vector(N_REF)
    probe = resolvent_convergence_probe(ref, v, 1j, SIZES)
    errors = [gap for _, gap in probe.gaps("resolvent")]
    assert errors[0] > 1e-1  # coarse sections genuinely miss the resolvent
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt <= 1.1 * prev
    assert errors[-1] <= 1e-2


def test_weak_probe_constant_function_tracks_projection_mass(rng):
    ref = free_jacobi(N_REF)
    v = rng.normal(size=N_REF)
    v /= np.linalg.norm(v)
    sizes = [10, 50, 200]
    probe = weak_convergence_probe(ref, v, [lambda lam: 1.0], sizes)
    for n, _, gap in probe.rows:
        expected = abs(np.sum(v[:n] ** 2) - 1.0)
        assert gap == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_weak_probe_calls_each_test_function_once_per_section(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(lam):
            calls.append((fn.__name__, lam.shape))
            return fn(lam)

        wrapper.__name__ = fn.__name__  # the row keys stay the same
        return wrapper

    monkeypatch.setattr(cli, "PROBE_TEST_FNS", tuple(counted(fn) for fn in cli.PROBE_TEST_FNS))
    assert cli.main(["probes", "--out", str(tmp_path / "out")]) == 0
    distinct = default_section_sizes()
    assert len(distinct) == 8
    names = [fn.__name__ for fn in cli.PROBE_TEST_FNS]
    # one array call per distinct section: 8 at the defaults
    assert sorted(calls) == sorted((name, (n,)) for name in names for n in distinct)


@pytest.mark.parametrize("sizes", [None, [2, 4, 8, 64]], ids=["defaults", "128"])
def test_every_weak_row_key_moves_on_free_jacobi(tmp_path, sizes):
    # every section's measure has mass 1, is even and lies in (-2, 2), so f = 1, Re 1/(x - i) and a bump on [4, 6]
    # gapped at most 4.4e-16 in both cases: a key whose gaps stay at roundoff shows nothing
    if sizes is None:  # what `hdmd probes` writes
        assert cli.main(["probes", "--out", str(tmp_path / "out")]) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "weak_free_jacobi.csv").read_text().splitlines()[1:]]
    else:  # the library at a smaller reference, n_ref = 128
        rows = weak_convergence_probe(FreeJacobiSections(128), first_basis_vector(128), cli.PROBE_TEST_FNS, sizes).rows
    largest = {}
    for _, key, gap in rows:
        if not key.endswith("|floor"):
            largest[key] = max(largest.get(key, 0.0), float(gap))
    assert largest and all(gap > 1e-12 for gap in largest.values()), largest


@pytest.mark.parametrize(
    "fn, got",
    [
        (lambda lam: lam[:-1], "float64 of shape (31,)"),
        (lambda lam: np.stack([lam, lam]), "float64 of shape (2, 32)"),
        (lambda lam: [1.0, 2.0], "float64 of shape (2,)"),
        (lambda lam: 1.0 / (lam - 1j), "complex128 of shape (32,)"),
        (lambda lam: 1j, "complex128 of shape ()"),
    ],
    ids=["short", "stacked", "list", "complex", "complex-scalar"],
)
def test_weak_probe_rejects_wrong_shape_or_complex_values(fn, got):
    def good(lam):
        return lam

    ref = free_jacobi(32)
    with pytest.raises(ValueError, match=r"test function fn1 .*" + re.escape(got)):
        weak_convergence_probe(ref, first_basis_vector(32), [good, fn], [4, 8])


def test_weak_probe_matches_manual_dense_oracle(rng):
    ref = free_jacobi(120)
    v = rng.normal(size=120)
    v /= np.linalg.norm(v)

    def f(lam):
        return (lam - 1.0) / ((lam - 1.0) ** 2 + 1.0)

    n = 30
    probe = weak_convergence_probe(ref, v, [f], [n])

    def manual(mat, vec):
        evals, evecs = np.linalg.eigh(mat)
        c = np.abs(evecs.T @ vec) ** 2
        return float(np.sum(c * np.array([f(t) for t in evals])))

    expected = abs(manual(ref[:n, :n], v[:n]) - manual(ref, v))
    assert probe.rows[0][2] == pytest.approx(expected, rel=1e-12, abs=1e-15)


# ------------------------------------------------------------------
# Hermite reference: an unbounded operator with exact targets
# ------------------------------------------------------------------


def hermite_jacobi(n):
    """The position operator x in the Hermite-function basis: zero diagonal, off-diagonals sqrt(k/2), k = 1..n-1.

    It is unbounded and essentially self-adjoint; its spectral measure with respect to e_0 is the Gaussian
    e^{-x^2}/sqrt(pi) dx, continuous on all of R, and the n-section's measure is the n-point Gauss-Hermite rule.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


def test_hermite_sections_converge_to_the_gaussian_measure():
    # every section misses the measure, and the targets are closed forms, so a broken probe cannot read 0
    sections = FiniteSections(hermite_jacobi(256))
    sizes = range(2, 129)
    stieltjes = []
    for n in sizes:
        lam, evecs = sections.eigh(n)
        weights = evecs[0] ** 2  # the n-section's measure: atoms lam, weights |V^* e_0|^2
        for k in range(min(2 * n - 1, 16) + 1):
            # Gauss-Hermite is exact through degree 2n - 1: (k - 1)!! / 2^(k/2) for even k, 0 for odd k
            exact = 0.0 if k % 2 else prod(range(k - 1, 0, -2)) / 2.0 ** (k / 2)
            assert abs(weights @ lam**k - exact) <= 1e-12 * (weights @ np.abs(lam) ** k), (n, k)
        if n == 16:
            assert abs(weights @ np.cos(lam) - exp(-0.25)) < 1e-10
        stieltjes.append(abs(weights @ (1.0 / (1.0 + lam * lam)) - sqrt(pi) * e * erfc(1.0)))
    assert all(nxt < prev for prev, nxt in zip(stieltjes, stieltjes[1:]))
    assert stieltjes[0] > 1e-2 and stieltjes[-1] < 1e-12

    probe = resolvent_convergence_probe(sections, first_basis_vector(256), 1j, sizes)
    errors = [gap for _, gap in probe.gaps("resolvent")]
    assert errors[0] > 1e-1 and all(nxt < prev for prev, nxt in zip(errors, errors[1:]))


# ------------------------------------------------------------------
# shared section eigendecompositions
# ------------------------------------------------------------------


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (x + x.conj().T)


@pytest.mark.parametrize("n_ref, sizes", [(1, [1]), (7, [1, 3, 7]), (40, [1, 2, 13, 39, 40])])
def test_resolvent_matches_dense_solve_oracle(rng, n_ref, sizes):
    ref = random_hermitian(rng, n_ref)
    v = rng.normal(size=n_ref) + 1j * rng.normal(size=n_ref)
    z = 0.3 + 0.7j

    def solve_padded(n):
        out = np.zeros(n_ref, dtype=complex)
        out[:n] = np.linalg.solve(ref[:n, :n] - z * np.eye(n), v[:n])
        return out

    truth = solve_padded(n_ref)
    scale = np.linalg.norm(truth)
    probe = resolvent_convergence_probe(ref, v, z, sizes)
    for n, gap in probe.gaps("resolvent"):
        assert abs(gap - np.linalg.norm(solve_padded(n) - truth)) <= 1e-12 * scale, n
    oracle_floor = np.linalg.norm(solve_padded(n_ref // 2) - truth)
    assert abs(probe.floors["resolvent"] - oracle_floor) <= 1e-12 * scale


def test_probes_accept_a_shared_holder_with_identical_results(rng):
    ref = random_hermitian(rng, 30)
    v = rng.normal(size=30)
    sections = FiniteSections(ref)
    sizes = [2, 5, 20]
    assert resolvent_convergence_probe(sections, v, 1j, sizes) == resolvent_convergence_probe(ref, v, 1j, sizes)
    assert moment_convergence_probe(sections, v, 4, sizes) == moment_convergence_probe(ref, v, 4, sizes)
    fns = [lambda lam: 1.0 / (lam * lam + 1.0)]
    assert weak_convergence_probe(sections, v, fns, sizes) == weak_convergence_probe(ref, v, fns, sizes)


def test_finite_sections_leave_caller_matrix_writeable():
    ref = free_jacobi(6)
    sections = FiniteSections(ref)
    assert ref.flags.writeable
    assert not sections.matrix.flags.writeable
    assert sections.size == 6
    assert sections.eigh(3) is sections.eigh(3)
    with pytest.raises(ValueError, match="square"):
        FiniteSections(np.zeros((2, 3)))


def default_section_sizes():
    """The sizes `hdmd probes` decomposes: the probe sizes, the floor at n_ref / 2, n_ref."""
    return sorted({*cli.PROBE_SIZES, cli.PROBE_N_REF // 2, cli.PROBE_N_REF})


def test_probes_cli_uses_closed_forms_without_eigh(tmp_path, monkeypatch):
    requested = []

    def recording(name, eigenvalues):
        def wrapper(self, n):
            requested.append((name, n))
            return eigenvalues(self, n)

        return wrapper

    def no_dense(*args, **kwargs):
        raise AssertionError("hdmd probes decomposed a dense section")

    monkeypatch.setattr(FreeJacobiSections, "eigenvalues", recording("free_jacobi", FreeJacobiSections.eigenvalues))
    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    monkeypatch.setattr(FiniteSections, "__init__", no_dense)
    assert cli.main(["probes", "--out", str(tmp_path / "out")]) == 0
    distinct = default_section_sizes()
    assert len(distinct) == 8
    assert sorted(set(requested)) == [("free_jacobi", n) for n in distinct]  # every section, in closed form


def unit(x):
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("n", sorted({1, 2, 3, *default_section_sizes()}))
def test_closed_form_sections_match_eigh(n, rng):
    sections, matrix = FreeJacobiSections(n), free_jacobi(n)
    ref_evals, ref_evecs = np.linalg.eigh(matrix)
    evals = sections.eigenvalues(n)
    assert np.max(np.abs(evals - ref_evals)) <= 1e-13
    for x in [unit(rng.normal(size=n)), unit(rng.normal(size=n) + 1j * rng.normal(size=n))]:
        coeffs = sections.to_eigenbasis(x)
        ref_coeffs = ref_evecs.T @ x
        # eigenvector signs are arbitrary; |V^* x|^2 and the resolvent are not
        assert np.max(np.abs(np.abs(coeffs) ** 2 - np.abs(ref_coeffs) ** 2)) <= 1e-12
        resolvent = sections.from_eigenbasis(coeffs / (evals - 1j))
        ref_resolvent = ref_evecs @ (ref_coeffs / (ref_evals - 1j))
        assert np.max(np.abs(resolvent - ref_resolvent)) <= 1e-12
        assert np.max(np.abs(sections.from_eigenbasis(coeffs) - x)) <= 1e-13
        assert np.array_equal(sections.matvec(x), matrix @ x)


def test_probes_cli_traced_peak_stays_under_ceiling(tmp_path):
    # one 2000 x 2000 float64 is 32 MB, so no n x n array at the default n_ref fits under the ceiling
    code, peak = traced_peak(["probes", "--out", str(tmp_path / "out")])
    assert code == 0
    assert peak < 4e6


@pytest.mark.parametrize("n_ref", [2000, 20000])
def test_probes_trace_memory_linear_in_n_ref(n_ref):
    # the three probes at the CLI's sizes and k, the largest size scaled with n_ref, trace about 15 words per
    # n_ref (the free-Jacobi resolvent's complex DST-I buffers); one n_ref x n_ref array would be n_ref words
    # per n_ref, so 24 words and 64 KB bound the closed forms and refuse any dense section
    sizes = [*cli.PROBE_SIZES[:-1], n_ref * 2 // 5]

    def run():
        sections, v = FreeJacobiSections(n_ref), first_basis_vector(n_ref)
        resolvent_convergence_probe(sections, v, 1j, sizes)
        moment_convergence_probe(sections, v, cli.PROBE_MAX_MOMENT, sizes)
        weak_convergence_probe(sections, v, cli.PROBE_TEST_FNS, sizes)

    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (24 * n_ref + 8192)


# ------------------------------------------------------------------
# floors, validation, serialization
# ------------------------------------------------------------------


def test_resolvent_floor_equals_half_reference_probe():
    ref = free_jacobi(64)
    v = first_basis_vector(64)
    probe = resolvent_convergence_probe(ref, v, 1j, [8, 32, 64])
    floor_by_rows = dict(probe.gaps("resolvent"))[32]
    assert probe.floors["resolvent"] == pytest.approx(floor_by_rows, rel=1e-12, abs=1e-15)


def test_probe_validation():
    ref = free_jacobi(32)
    v = first_basis_vector(32)
    with pytest.raises(ValueError, match="imaginary"):
        resolvent_convergence_probe(ref, v, 1.0, [4])
    with pytest.raises(ValueError, match="exceeds reference"):
        resolvent_convergence_probe(ref, v, 1j, [64])
    with pytest.raises(ValueError, match="increasing"):
        resolvent_convergence_probe(ref, v, 1j, [8, 8])
    with pytest.raises(ValueError, match="square"):
        resolvent_convergence_probe(np.zeros((3, 4)), np.zeros(3), 1j, [2])
    with pytest.raises(ValueError, match="max_moment"):
        moment_convergence_probe(ref, v, -1, [4])
    with pytest.raises(ValueError, match="test function"):
        weak_convergence_probe(ref, v, [], [4])


def test_moment_probe_is_finite_up_to_k_1023():
    # the free-Jacobi moments grow like 2^k, so k = 1023 is the largest whose moments a float holds:
    # every gap and floor there must still be a number
    probe = moment_convergence_probe(FreeJacobiSections(64), first_basis_vector(64), 1023, [2, 4, 8, 16, 32])
    assert len(probe.rows) == 1024 * 5 and len(probe.floors) == 1024
    gaps = [gap for _, _, gap in probe.rows] + list(probe.floors.values())
    assert np.all(np.isfinite(gaps))


def test_probe_csv_layout(tmp_path):
    assert cli.main(["probes", "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "moments_free_jacobi.csv").read_text().splitlines()
    assert lines[0] == "n,key,gap"
    assert len(lines) == 1 + 6 * 9 + 9  # header + rows for six sizes and k = 0..8 + one floor row per key
    assert [ln.split(",")[:2] for ln in lines[1:4]] == [["2", "k=0"], ["2", "k=1"], ["2", "k=2"]]
    # the floors close the table, at n = n_ref // 2
    assert [ln.split(",")[:2] for ln in lines[55:]] == [["1000", f"k={k}|floor"] for k in range(9)]
    # every gap is a difference of closed-walk counts: the section's path graph against the reference's
    walks = {n: [path_graph_walk_count(k, vertices=n) for k in range(9)] for n in default_section_sizes()}
    expected = [abs(walks[n][k] - walks[2000][k]) for n in [*cli.PROBE_SIZES, 1000] for k in range(9)]
    assert [float(ln.split(",")[2]) for ln in lines[1:]] == expected
