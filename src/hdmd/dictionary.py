"""Dictionaries of observables and their evaluation on snapshot data.

A dictionary is a feature map Psi: R^d -> C^{1xN} collecting N observables
psi_1, ..., psi_N.  Evaluating it at snapshot inputs {x^(m)} and outputs
{y^(m)} gives the feature matrices

    Psi_X[m, :] = Psi(x^(m)),    Psi_Y[m, :] = Psi(y^(m)),

both M x N.  The Gaussian grid dictionary is one complex amplitude times
real tensor-product bumps, so `evaluate_snapshots` never materializes them:
Gram assembly asks for one block of real rows at a time, each row sqrt(w_m)
times the Khatri-Rao product of d per-axis factors, and applies |amp|^2 once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

# Relative spectral cutoff applied to the Gram matrix downstream; carried on
# the features so one pipeline setting reaches every consumer.
DEFAULT_RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Dictionary:
    """Bumps amplitude * exp(-width |x - c_j|^2), c_j on the axis_centers grid, last axis fastest."""

    axis_centers: tuple[np.ndarray, ...]
    width: float
    amplitude: complex

    @property
    def size(self) -> int:
        return prod(c.shape[0] for c in self.axis_centers)

    @property
    def dimension(self) -> int:
        return len(self.axis_centers)

    def rows(self, points, row_scale=1.0) -> np.ndarray:
        """Real rows s_m exp(-width |x_m - c_j|^2) at (M, d) points, without the amplitude.

        Each row is the row-wise Kronecker (Khatri-Rao) product of the per-axis
        bumps exp(-width (x_k - c)^2): d * per_axis exponentials per point; the
        scalar or (M,) row_scale s enters with the first axis's factor.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        axes = zip(pts.T, self.axis_centers, strict=True)
        bumps = (np.exp(-self.width * (x[:, None] - c) ** 2) for x, c in axes)
        first = np.reshape(row_scale, (-1, 1))
        return reduce(lambda p, e: (p[:, :, None] * e[:, None, :]).reshape(len(pts), -1), bumps, first)


@dataclass(frozen=True)
class FeatureMatrices:
    """Materialized evaluations at snapshot inputs (psi_x) and outputs (psi_y); real stays real."""

    psi_x: np.ndarray
    psi_y: np.ndarray
    rank_tolerance_used: float = DEFAULT_RANK_TOLERANCE

    def __post_init__(self):
        px, py = np.atleast_2d(np.asarray(self.psi_x), np.asarray(self.psi_y))
        dtype = np.result_type(px, py, float)
        # views, so freezing them below leaves the caller's arrays writeable
        px, py = px.astype(dtype, copy=False).view(), py.astype(dtype, copy=False).view()
        if px.shape != py.shape:
            raise ValueError(f"psi_x and psi_y shapes differ: {px.shape} vs {py.shape}")
        if self.rank_tolerance_used < 0:
            raise ValueError("rank_tolerance_used must be nonnegative")
        px.setflags(write=False)
        py.setflags(write=False)
        object.__setattr__(self, "psi_x", px)
        object.__setattr__(self, "psi_y", py)

    @property
    def snapshot_count(self) -> int:
        return self.psi_x.shape[0]

    @property
    def dictionary_size(self) -> int:
        return self.psi_x.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.psi_x.dtype

    scale = 1.0  # the rows are Psi itself

    def block(self, rows: slice, row_scale=1.0) -> tuple[np.ndarray, np.ndarray]:
        s = np.reshape(row_scale, (-1, 1))
        return s * self.psi_x[rows], s * self.psi_y[rows]


@dataclass(frozen=True)
class SnapshotFeatures:
    """Psi_X = amp R_X, Psi_Y = amp R_Y; `block` evaluates the real rows R of a slice of snapshots."""

    dictionary: Dictionary
    x: np.ndarray
    y: np.ndarray
    rank_tolerance_used: float = DEFAULT_RANK_TOLERANCE
    dtype = np.dtype(float)  # the rows are real; the amplitude enters only through scale

    @property
    def snapshot_count(self) -> int:
        return self.x.shape[0]

    @property
    def dictionary_size(self) -> int:
        return self.dictionary.size

    @property
    def scale(self) -> float:
        return abs(self.dictionary.amplitude) ** 2

    def block(self, rows: slice, row_scale=1.0) -> tuple[np.ndarray, np.ndarray]:
        return self.dictionary.rows(self.x[rows], row_scale), self.dictionary.rows(self.y[rows], row_scale)


def gaussian_centers(centers_box, per_axis: int) -> np.ndarray:
    """Uniform tensor grid of centers, endpoints included when per_axis >= 2.

    With per_axis == 1 the single center sits at the box midpoint.  Ordering
    is row-major with the last axis fastest, matching the quadrature grids.
    """
    if per_axis < 1:
        raise ValueError(f"per_axis must be >= 1, got {per_axis}")
    axes = []
    for a, b in centers_box:
        a, b = float(a), float(b)
        if b < a:
            raise ValueError(f"center box [{a}, {b}] is inverted")
        axes.append(np.array([0.5 * (a + b)]) if per_axis == 1 else np.linspace(a, b, per_axis))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def gaussian_grid_dictionary(centers_box, per_axis: int, width: float, amplitude: complex) -> Dictionary:
    """Dictionary of N = per_axis^d Gaussian bumps on the `gaussian_centers` grid.

    Each observable is psi_j(x) = amplitude * exp(-width * |x - c_j|^2).
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    axes = tuple(gaussian_centers([box], per_axis)[:, 0] for box in centers_box)
    return Dictionary(axis_centers=axes, width=float(width), amplitude=complex(amplitude))


def evaluate_snapshots(
    dictionary: Dictionary,
    x_nodes,
    y_nodes,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> SnapshotFeatures:
    """Bind snapshot input/output points to the dictionary for blockwise evaluation."""
    x = np.atleast_2d(np.asarray(x_nodes, dtype=float))
    y = np.atleast_2d(np.asarray(y_nodes, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"snapshot counts differ: {x.shape[0]} inputs vs {y.shape[0]} outputs")
    if x.shape[1] != dictionary.dimension or y.shape[1] != dictionary.dimension:
        raise ValueError(
            f"snapshot dimension {x.shape[1]}/{y.shape[1]} does not match "
            f"dictionary domain dimension {dictionary.dimension}"
        )
    return SnapshotFeatures(dictionary, x, y, rank_tolerance)


def evaluate_function_samples(points, g) -> np.ndarray:
    """Sample a scalar observable at quadrature nodes: entry m is g(x^(m)).

    `g` may be vectorized over an (M, d) array or accept single points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        vals = np.asarray(g(pts))
        if vals.shape == (pts.shape[0],):
            return vals.astype(complex)
    except Exception:
        pass
    return np.array([complex(g(p)) for p in pts], dtype=complex)
