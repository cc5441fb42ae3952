"""Tests for quadrature rules."""

import math

import numpy as np
import pytest

from hdmd.quadrature import QuadratureRule, grid_nodes, monte_carlo, tensor_trapezoid


def test_trapezoid_1d_endpoints():
    rule = tensor_trapezoid([(0.0, 1.0)], [2])
    assert np.array_equal(rule.nodes.ravel(), [0.0, 1.0])
    assert np.array_equal(rule.weights, [0.5, 0.5])


def test_trapezoid_total_weight_is_area():
    rule = tensor_trapezoid([(-5.0, 5.0), (-5.0, 5.0)], [3, 3])
    assert np.sum(rule.weights) == pytest.approx(100.0, rel=1e-12)


def test_trapezoid_benchmark_grid_size():
    rule = tensor_trapezoid([(-5.0, 5.0), (-5.0, 5.0)], [300, 300])
    assert rule.size == 90000
    assert rule.nodes.shape == (90000, 2)
    assert np.sum(rule.weights) == pytest.approx(100.0, rel=1e-12)


def test_trapezoid_node_ordering_last_axis_fastest():
    rule = tensor_trapezoid([(0.0, 1.0), (0.0, 2.0)], [2, 3])
    expected = [
        [0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
        [1.0, 0.0], [1.0, 1.0], [1.0, 2.0],
    ]
    assert np.allclose(rule.nodes, expected)


def test_grid_nodes_row_major_last_axis_fastest():
    axes = (np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0]), np.array([-1.0, -2.0]))
    nodes = grid_nodes(axes)
    assert nodes.shape == (12, 3)
    for flat, (i, j, k) in enumerate(np.ndindex(2, 3, 2)):
        assert np.array_equal(nodes[flat], [axes[0][i], axes[1][j], axes[2][k]])
    assert np.array_equal(grid_nodes((axes[1],)), axes[1][:, None])


def test_trapezoid_exact_for_multilinear(rng):
    # degree <= 1 per axis is integrated exactly
    for _ in range(10):
        a0, a1, a2, a3 = rng.normal(size=4)
        (ax, bx), (ay, by) = (-1.3, 2.7), (0.4, 1.9)
        rule = tensor_trapezoid([(ax, bx), (ay, by)], [4, 5])
        vals = (
            a0
            + a1 * rule.nodes[:, 0]
            + a2 * rule.nodes[:, 1]
            + a3 * rule.nodes[:, 0] * rule.nodes[:, 1]
        )
        approx = float(np.dot(rule.weights, vals))

        def ix(p, lo, hi):
            return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

        exact = (
            a0 * ix(0, ax, bx) * ix(0, ay, by)
            + a1 * ix(1, ax, bx) * ix(0, ay, by)
            + a2 * ix(0, ax, bx) * ix(1, ay, by)
            + a3 * ix(1, ax, bx) * ix(1, ay, by)
        )
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_trapezoid_error_decays_quadratically():
    # e^{-x^2} on [0, 2]; doubling the resolution divides the error by ~4
    exact = 0.5 * math.sqrt(math.pi) * math.erf(2.0)

    def err(n):
        rule = tensor_trapezoid([(0.0, 2.0)], [n])
        return abs(float(np.dot(rule.weights, np.exp(-rule.nodes[:, 0] ** 2))) - exact)

    errors = [err(n) for n in (17, 33, 65)]
    assert errors[0] / errors[1] > 3.8
    assert errors[1] / errors[2] > 3.8


def test_trapezoid_rejections():
    with pytest.raises(ValueError, match="empty or inverted"):
        tensor_trapezoid([(1.0, 1.0)], [3])
    with pytest.raises(ValueError, match="empty or inverted"):
        tensor_trapezoid([(2.0, -2.0)], [3])
    with pytest.raises(ValueError, match="at least 2 points"):
        tensor_trapezoid([(0.0, 1.0)], [1])
    with pytest.raises(ValueError, match="point counts"):
        tensor_trapezoid([(0.0, 1.0), (0.0, 1.0)], [3])
    with pytest.raises(ValueError, match="at least one axis"):
        tensor_trapezoid([], [])


def test_monte_carlo_equal_weights(rng):
    rule = monte_carlo(rng.uniform(size=(4, 2)), total_mass=1.0)
    assert np.array_equal(rule.weights, np.full(4, 0.25))


def test_monte_carlo_single_sample():
    rule = monte_carlo([[0.3, 0.4]], total_mass=2.0)
    assert rule.size == 1
    assert rule.weights[0] == 2.0


def test_monte_carlo_preserves_mass(rng):
    samples = rng.uniform(-5, 5, size=(1000, 2))
    rule = monte_carlo(samples, total_mass=100.0)
    assert np.sum(rule.weights) == pytest.approx(100.0, rel=1e-12)


def test_monte_carlo_rejections():
    with pytest.raises(ValueError, match="at least one sample"):
        monte_carlo(np.empty((0, 2)), total_mass=1.0)
    with pytest.raises(ValueError, match="total_mass"):
        monte_carlo([[0.0, 0.0]], total_mass=0.0)


def test_rule_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        QuadratureRule(nodes=[[0.0], [1.0]], weights=[1.0, 0.0])
    with pytest.raises(ValueError, match="mismatch"):
        QuadratureRule(nodes=[[0.0], [1.0]], weights=[1.0])


def test_rule_is_immutable():
    rule = tensor_trapezoid([(0.0, 1.0)], [3])
    with pytest.raises(ValueError):
        rule.nodes[0, 0] = 5.0


def test_rule_leaves_caller_arrays_writeable():
    nodes, weights = np.zeros((3, 2)), np.ones(3)
    rule = QuadratureRule(nodes=nodes, weights=weights)
    assert nodes.flags.writeable and weights.flags.writeable
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
    nodes[0, 0] = 1.0  # the caller may still write its own array

