"""Tests for dictionaries and feature-matrix evaluation."""

import numpy as np
import pytest

from hdmd.dictionary import (
    FeatureMatrices,
    evaluate_function_samples,
    evaluate_snapshots,
    gaussian_centers,
    gaussian_grid_dictionary,
)


def test_gaussian_benchmark_dictionary_size():
    d = gaussian_grid_dictionary([(-4, 4), (-4, 4)], 20, width=3.0, amplitude=1 + 1j)
    assert d.size == 400
    assert d.dimension == 2
    centers = gaussian_centers([(-4, 4), (-4, 4)], 20)
    assert centers.shape == (400, 2)
    assert centers[0, 0] == -4.0 and centers[-1, 1] == 4.0  # endpoints included


def test_single_gaussian_centered_at_origin():
    d = gaussian_grid_dictionary([(0, 0), (0, 0)], 1, width=1.0, amplitude=1.0)
    assert d.size == 1
    assert d.rows(np.array([0.0, 0.0]))[0, 0] == 1.0


def test_gaussian_value_at_own_center():
    amp = 2.0 - 0.5j
    d = gaussian_grid_dictionary([(-4, 4), (-4, 4)], 3, width=3.0, amplitude=amp)
    centers = gaussian_centers([(-4, 4), (-4, 4)], 3)
    vals = d.amplitude * d.rows(centers)
    for j in range(centers.shape[0]):
        assert vals[j, j] == amp  # every per-axis exponent is exactly zero


def test_gaussian_bounded_by_amplitude(rng):
    amp = 1 + 1j
    d = gaussian_grid_dictionary([(-4, 4), (-4, 4)], 5, width=3.0, amplitude=amp)
    pts = rng.uniform(-5, 5, size=(200, 2))
    vals = d.amplitude * d.rows(pts)
    assert np.all(np.abs(vals) <= abs(amp) + 1e-15)
    centers = gaussian_centers([(-4, 4), (-4, 4)], 5)
    off_center = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) > 1e-12
    assert np.all(np.abs(vals[off_center]) < abs(amp))


def test_gaussian_rejects_bad_width():
    with pytest.raises(ValueError, match="width"):
        gaussian_grid_dictionary([(-1, 1)], 2, width=0.0, amplitude=1.0)
    with pytest.raises(ValueError, match="per_axis"):
        gaussian_grid_dictionary([(-1, 1)], 0, width=1.0, amplitude=1.0)


def test_identity_map_gives_equal_matrices(rng):
    d = gaussian_grid_dictionary([(-2, 2), (-2, 2)], 4, width=1.0, amplitude=1 + 1j)
    nodes = rng.uniform(-3, 3, size=(50, 2))
    psi_x, psi_y = evaluate_snapshots(d, nodes, nodes).block(slice(None))
    assert np.array_equal(psi_x, psi_y)


def test_block_rows_match_pointwise_rows_bitwise(rng):
    d = gaussian_grid_dictionary([(-4, 4), (-4, 4)], 6, width=3.0, amplitude=1 + 1j)
    pts = rng.uniform(-5, 5, size=(37, 2))
    block = d.rows(pts)
    for m in (0, 11, 36):
        assert np.array_equal(block[m], d.rows(pts[m])[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_scale_enters_each_row(rng, dim):
    d = gaussian_grid_dictionary([(-2.0, 2.0)] * dim, 4, width=1.0, amplitude=1 + 1j)
    pts = rng.uniform(-3, 3, size=(50, dim))
    scale = np.sqrt(rng.uniform(0.01, 4.0, size=50))
    want = scale[:, None] * d.rows(pts)
    np.testing.assert_allclose(d.rows(pts, scale), want, rtol=1e-15, atol=0)
    assert np.array_equal(d.rows(pts, 1.0), d.rows(pts))


def test_reevaluation_is_bitwise_reproducible(rng):
    d = gaussian_grid_dictionary([(-4, 4), (-4, 4)], 6, width=3.0, amplitude=1 + 1j)
    pts = rng.uniform(-5, 5, size=(64, 2))
    x1, y1 = evaluate_snapshots(d, pts, -pts).block(slice(None))
    x2, y2 = evaluate_snapshots(d, pts, -pts).block(slice(None))
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_snapshot_dimension_mismatch():
    d = gaussian_grid_dictionary([(-1, 1)], 3, width=1.0, amplitude=1.0)
    nodes_2d = np.zeros((4, 2))
    with pytest.raises(ValueError, match="dimension"):
        evaluate_snapshots(d, nodes_2d, nodes_2d)
    with pytest.raises(ValueError, match="counts differ"):
        evaluate_snapshots(d, np.zeros((4, 1)), np.zeros((3, 1)))


def test_function_samples_zero():
    pts = np.zeros((5, 2))
    vals = evaluate_function_samples(pts, lambda p: 0.0)
    assert np.array_equal(vals, np.zeros(5, dtype=complex))


def test_function_samples_analytic_point():
    # sin(pi x / 5) sin(pi y / 5) at (2.5, 2.5) is exactly sin(pi/2)^2 = 1
    def f(p):
        return np.sin(np.pi * p[0] / 5) * np.sin(np.pi * p[1] / 5)

    vals = evaluate_function_samples(np.array([[2.5, 2.5]]), f)
    assert vals[0] == pytest.approx(1.0, rel=1e-15)


def test_function_samples_vectorized_matches_scalar(rng):
    pts = rng.uniform(-5, 5, size=(20, 2))

    def vec(p):
        return np.sin(p[:, 0]) * np.cos(p[:, 1])

    def scalar(p):
        return np.sin(p[0]) * np.cos(p[1])

    assert np.allclose(
        evaluate_function_samples(pts, vec), evaluate_function_samples(pts, scalar), rtol=0, atol=0
    )


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="shapes differ"):
        FeatureMatrices(psi_x=np.ones((3, 2)), psi_y=np.ones((2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        FeatureMatrices(psi_x=np.ones((2, 2)), psi_y=np.ones((2, 2)), rank_tolerance_used=-1.0)


def test_feature_matrices_leave_caller_arrays_writeable():
    for dtype in (float, complex):
        a = np.ones((2, 2), dtype=dtype)
        features = FeatureMatrices(psi_x=a, psi_y=a)
        assert a.flags.writeable
        assert not features.psi_x.flags.writeable and not features.psi_y.flags.writeable


def test_feature_matrices_keep_real_input_real():
    real = FeatureMatrices(psi_x=np.ones((3, 2)), psi_y=np.zeros((3, 2)))
    assert real.psi_x.dtype == real.psi_y.dtype == np.float64
    mixed = FeatureMatrices(psi_x=np.ones((3, 2)), psi_y=np.ones((3, 2), dtype=complex))
    assert mixed.psi_x.dtype == mixed.psi_y.dtype == np.complex128


@pytest.mark.parametrize("dim, per_axis", [(1, 7), (2, 5), (3, 3), (2, 1)])
def test_rows_are_gaussians_at_gaussian_centers(rng, dim, per_axis):
    """Khatri-Rao rows follow the `gaussian_centers` order (last axis fastest)."""
    box = [(-2.0, 1.0), (-1.0, 3.0), (0.0, 2.0)][:dim]
    d = gaussian_grid_dictionary(box, per_axis, width=1.3, amplitude=2 - 1j)
    pts = rng.uniform(-3, 3, size=(40, dim))
    centers = gaussian_centers(box, per_axis)
    expected = np.exp(-1.3 * np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2))
    rows = d.rows(pts)
    assert rows.dtype == np.float64 and d.size == centers.shape[0]
    assert np.allclose(rows, expected, rtol=1e-13, atol=0)  # |exponent| * eps, up to ~70 here
