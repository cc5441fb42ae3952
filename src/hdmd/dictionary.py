"""Dictionaries of observables and their evaluation on snapshot data.

A dictionary is a feature map Psi: R^d -> C^{1xN} collecting N observables
psi_1, ..., psi_N.  Evaluating it at snapshot inputs {x^(m)} and outputs
{y^(m)} gives the feature matrices

    Psi_X[m, :] = Psi(x^(m)),    Psi_Y[m, :] = Psi(y^(m)),

both M x N.  The Gaussian grid dictionary is one complex amplitude times
real tensor-product bumps, so `evaluate_snapshots` never materializes them:
Gram assembly asks for one block of real rows at a time, each row sqrt(w_m)
times the Khatri-Rao product of d per-axis factors, and applies |amp|^2 once.
G needs no rows (`SnapshotFeatures.gram`: moments of bumps at the centers'
midpoints).  `Dictionary.axis_bumps` is the one place a bump exp(-a (x_k - c)^2)
is evaluated, for `custom` and for both routes of `hdmd.schrodinger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Relative spectral cutoff applied to the Gram matrix downstream; carried on
# the features so one pipeline setting reaches every consumer.
DEFAULT_RANK_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)  # compared by identity: field-wise == on arrays would raise
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

    def axis_bumps(self, coordinates) -> tuple[np.ndarray, ...]:
        """Per-axis factors exp(-width (x_k - c)^2), (len(x_k), n_k), for one coordinate array per axis."""
        squares = ((x[:, None] - c) ** 2 for x, c in zip(coordinates, self.axis_centers, strict=True))
        return tuple(np.exp(np.multiply(s, -self.width, out=s), out=s) for s in squares)  # one array per axis

    def rows(self, points, row_scale=1.0, out=None) -> np.ndarray:
        """Real rows s_m exp(-width |x_m - c_j|^2) at (M, d) points, without the amplitude, into out if given.

        Each row is the row-wise Kronecker (Khatri-Rao) product of the per-axis
        bumps: d * per_axis exponentials per point; the scalar or (M,)
        row_scale s enters with the first axis's factor.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return rowwise_kron((np.reshape(row_scale, (-1, 1)),) + self.axis_bumps(pts.T), out=out)


def rowwise_kron(factors, combine=np.multiply, out=None) -> np.ndarray:
    """Row-wise Kronecker product (Khatri-Rao; sum with combine=np.add) of (M, n_k) factors, last fastest;
    the last combination is written into out, a C-contiguous (M, prod n_k) array, if one is given."""
    p, *rest = factors
    for i, e in enumerate(rest, 1):
        into = None if out is None or i < len(rest) else out.reshape(len(e), p.shape[1], e.shape[1])
        p = combine(p[:, :, None], e[:, None, :], out=into).reshape(len(e), -1)
    return p


def refuse_zero_gram(g: np.ndarray) -> None:
    if not np.any(g):
        raise ValueError("Gram matrix is zero: no dictionary function is nonzero at any snapshot; "
                         "check dict_width, dict_box_min and dict_box_max against the snapshots")


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

    def block(self, rows: slice, row_scale=1.0, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
        s = np.reshape(row_scale, (-1, 1))
        return np.multiply(s, self.psi_x[rows], out=out[0]), np.multiply(s, self.psi_y[rows], out=out[1])

    def gram(self, weights, block_rows: int) -> np.ndarray:
        """Psi_X^* W Psi_X summed over blocks of block_rows rows of W^(1/2) Psi_X."""
        starts = range(0, self.snapshot_count, block_rows)
        blocks = (np.sqrt(weights[s : s + block_rows, None]) * self.psi_x[s : s + block_rows] for s in starts)
        return sum(b.conj().T @ b for b in blocks)  # a view for real rows: one symmetric rank-k update each


@dataclass(frozen=True)
class SnapshotFeatures:
    """Psi_X = amp R_X, Psi_Y = amp R_Y; `block` evaluates the real rows R of a slice of snapshots, `gram` none."""

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

    def block(self, rows: slice, row_scale=1.0, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self.dictionary.rows(p[rows], row_scale, o) for p, o in zip((self.x, self.y), out))

    def gram(self, weights, block_rows: int) -> np.ndarray:
        """R_X^T W R_X in M (2n - 1)^d products, not M N^2, for centers uniformly spaced on every axis.

        Two bumps on one axis multiply to one at their midpoint mu = (c_i + c_l) / 2, a function of i + l:
        exp(-a (x - c_i)^2) exp(-a (x - c_l)^2) = exp(-a (c_i - c_l)^2 / 2) exp(-2a (x - mu)^2).  So
        G[i, l] = prod_k exp(-a (c_{i_k} - c_{l_k})^2 / 2) S[i + l] with the moments of the midpoint bumps
        S[s] = sum_m w_m prod_k exp(-2a (x_km - mu_{s_k})^2), summed over blocks of block_rows snapshots.
        """
        dic, mids = self.dictionary, []
        sizes = [c.size for c in dic.axis_centers]
        for k, c in enumerate(dic.axis_centers):
            if np.abs(c - np.linspace(c[0], c[-1], c.size)).max() > 1e-12 * np.abs(c).max():
                raise ValueError(f"axis {k}: dictionary centers are not uniformly spaced; the Gram needs them to be")
            mids.append(0.5 * (c[np.arange(2 * c.size - 1) // 2] + c[np.arange(1, 2 * c.size) // 2]))
        halves, table = Dictionary(tuple(mids), 2 * dic.width, 1.0), 0.0
        for s in range(0, self.snapshot_count, block_rows):
            *lead, last = halves.axis_bumps(self.x[s : s + block_rows].T)
            table = table + rowwise_kron((weights[s : s + block_rows, None], *lead)).T @ last
            del lead, last  # else this block's bumps live on while the next ones are evaluated
        refuse_zero_gram(table)  # a zero table gives a zero G: refused before G's N x N gather
        g = sliding_window_view(np.reshape(table, [2 * n - 1 for n in sizes]), sizes).copy()  # the one gather
        decays = Dictionary(dic.axis_centers, dic.width / 2, 1.0).axis_bumps(dic.axis_centers)
        for k, decay in enumerate(decays):  # in place, and the same products for G[i, l] and G[l, i]
            g *= decay.reshape([n if j % dic.dimension == k else 1 for j, n in enumerate(sizes * 2)])
        return g.reshape(dic.size, dic.size)


def gaussian_grid_dictionary(centers_box, per_axis: int, width: float, amplitude: complex) -> Dictionary:
    """Dictionary of N = per_axis^d Gaussian bumps on a uniform tensor grid of centers.

    Each observable is psi_j(x) = amplitude * exp(-width * |x - c_j|^2).  Each
    axis has per_axis centers, endpoints included when per_axis >= 2; with
    per_axis == 1 the single center sits at the box midpoint.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    if amplitude == 0:
        raise ValueError(f"amplitude must be nonzero, got {amplitude}")
    if per_axis < 1:
        raise ValueError(f"per_axis must be >= 1, got {per_axis}")
    axes = []
    for a, b in centers_box:
        a, b = float(a), float(b)
        if b < a:
            raise ValueError(f"center box [{a}, {b}] is inverted")
        axes.append(np.array([0.5 * (a + b)]) if per_axis == 1 else np.linspace(a, b, per_axis))
    return Dictionary(axis_centers=tuple(axes), width=float(width), amplitude=complex(amplitude))


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

    `g` takes the (M, d) array of nodes and returns their M values in one call.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(g(pts))
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"observable must return {pts.shape[0]} values, one per point, got shape {vals.shape}")
    return vals.astype(complex)
