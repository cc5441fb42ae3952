"""Property-based checks of the streamed real Gram assembly, the Hermitian pipeline and the CSV writer (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdmd.dictionary import FeatureMatrices
from hdmd.dmd import assemble_gram_pair, eigendecompose, hermitian_dmd
from hdmd.matio import write_csv
from hdmd.quadrature import QuadratureRule
from hdmd.spectral import project_observable, spectral_measure
from test_dmd import complex_oracle_pair, relative_gap, streamed_pair

BOX = [(-2.0, 2.0), (-1.0, 3.0), (-2.5, 1.5)]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=3)
per_axes = st.integers(min_value=1, max_value=4)


def snapshots(seed, dim, m):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, size=(m, dim))
    y = np.cos(x) + 0.5 * x[:, ::-1]
    return rng, x, y, rng.uniform(0.1, 1.0, size=m)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, dim=dims, per_axis=per_axes, m=st.integers(min_value=1, max_value=200))
def test_streamed_pair_is_invariant_under_row_permutation(seed, dim, per_axis, m):
    rng, x, y, w = snapshots(seed, dim, m)
    perm = rng.permutation(m)
    pair = streamed_pair(BOX[:dim], per_axis, 1.0, 1 + 1j, x, y, w)
    permuted = streamed_pair(BOX[:dim], per_axis, 1.0, 1 + 1j, x[perm], y[perm], w[perm])
    assert relative_gap(permuted.g, pair.g) <= 1e-13
    assert relative_gap(permuted.a, pair.a) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    dim=dims,
    per_axis=per_axes,
    amp_re=st.floats(min_value=-3.0, max_value=3.0),
    amp_im=st.floats(min_value=-3.0, max_value=3.0),
    width=st.floats(min_value=0.05, max_value=5.0),
)
def test_streamed_pair_matches_complex_oracle(seed, dim, per_axis, amp_re, amp_im, width):
    amp = complex(amp_re, amp_im)
    if abs(amp) < 1e-3:
        amp = 1.0 + amp
    _, x, y, w = snapshots(seed, dim, 150)
    pair = streamed_pair(BOX[:dim], per_axis, width, amp, x, y, w)
    oracle = complex_oracle_pair(BOX[:dim], per_axis, width, amp, x, y, w)
    assert relative_gap(pair.g, oracle.g) <= 1e-13
    assert relative_gap(pair.a, oracle.a) <= 1e-13


def real_features(seed, n, extra, rank_tolerance=1e-12):
    """Random real Psi_X (columns scaled over two decades), Psi_Y, positive weights; M = n + extra."""
    rng = np.random.default_rng(seed)
    m = n + extra
    psi_x = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    psi_y = psi_x @ rng.normal(size=(n, n)) / np.sqrt(n) + 0.1 * rng.normal(size=(m, n))
    quad = QuadratureRule(nodes=rng.uniform(-1, 1, size=(m, 1)), weights=rng.uniform(0.1, 1.0, size=m))
    return rng, FeatureMatrices(psi_x=psi_x, psi_y=psi_y, rank_tolerance_used=rank_tolerance), quad


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=12), extra=st.integers(min_value=0, max_value=40))
def test_hermitian_pipeline_invariants_on_random_real_features(seed, n, extra):
    rng, features, quad = real_features(seed, n, extra)
    pair = assemble_gram_pair(features, quad)
    assume(np.linalg.cond(pair.g) <= 1e6)
    k = hermitian_dmd(pair)
    eig = eigendecompose(k)
    assert k.hermiticity_residual() <= 1e-10
    vgv = eig.eigenvectors.conj().T @ eig.gram.g @ eig.eigenvectors
    assert np.max(np.abs(vgv - np.eye(vgv.shape[0]))) <= 1e-8
    observable = project_observable(rng.normal(size=quad.size), features, quad, pair=pair)
    assert spectral_measure(eig, observable).total_mass == pytest.approx(observable.mass(), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=40),
    exponents=st.lists(st.floats(min_value=-12.0, max_value=-0.5), min_size=2, max_size=5),
)
def test_raising_rank_tolerance_never_raises_retained_rank(seed, n, extra, exponents):
    _, features, quad = real_features(seed, n, extra)
    assume(np.linalg.cond(assemble_gram_pair(features, quad).g) <= 1e6)
    ranks = []
    for exponent in sorted(exponents):
        _, features, quad = real_features(seed, n, extra, rank_tolerance=10.0**exponent)
        pair = assemble_gram_pair(features, quad)
        assert eigendecompose(hermitian_dmd(pair)).eigenvalues.shape == (pair.retained_rank,)
        ranks.append(pair.retained_rank)
    assert all(later <= earlier for earlier, later in zip(ranks, ranks[1:]))


# values whose text a reused cell could get wrong: both zeros, NaN, the infinities, subnormals and their neighbours
EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, np.nextafter(0.0, 1.0) * 3, 1.0,
               np.nextafter(1.0, 2.0), -1.0, 0.1]
cell_values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(cell_values, min_size=1, max_size=6),
    runs=st.lists(st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=4)),
                  min_size=1, max_size=30),
)
def test_write_csv_text_equals_per_value_formatting(tmp_path_factory, pool, runs):
    # runs of repeated draws from a small pool, so equal values follow each other and also recur later
    values = np.array([pool[i % len(pool)] for i, count in runs for _ in range(count)], dtype=float)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, "a,b", values, values[::-1])
    cells = [["" if v != v else repr(v) for v in column.tolist()] for column in (values, values[::-1])]
    assert path.read_text() == "\n".join(["a,b", *map(",".join, zip(*cells))]) + "\n"
