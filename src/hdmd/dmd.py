"""Gram/correlation assembly, EDMD, and Hermitian DMD operators.

From feature matrices and quadrature weights we form

    G = Psi_X^* W Psi_X     (Hermitian PSD Gram matrix),
    A = Psi_X^* W Psi_Y     (correlation with the propagated dictionary),

whose entries are discrete approximations of <psi_k, psi_j> and
<K psi_k, psi_j>.  The unconstrained least-squares (EDMD) operator is
K = G^+ A.  Constraining K to be self-adjoint in the G-inner-product
(G K = K^* G) yields the Hermitian DMD operator

    K = G^{-1} (A + A^*) / 2,

the minimizer of || W^{1/2} Psi_Y G^{-1/2} - W^{1/2} Psi_X K G^{-1/2} ||_F
over G-Hermitian K, equivalent to a symmetric Procrustes problem whose
general solution (Higham, 1988) is also provided here.

Ill-conditioned G is handled by one spectral cutoff: eigenvalues of G below
rel_tol * lambda_max are discarded and all subsequent algebra is restricted
to the retained eigenspace.  This avoids explicit G^{-1/2}, which is
unstable for ill-conditioned G.  Under truncation the Hermitian solve
compresses (A + A^*)/2 onto the retained subspace as well, which is what
keeps G K = K^* G true at roundoff level; at full rank this reduces to the
plain formula above.

Assembly sums over snapshots in fixed 4096-row blocks in the rows' dtype, so
the real rows of `hdmd custom` (evaluated a block at a time, never as an
M x N matrix) give real G and A.  G and A from any other source (the
separable factors in `hdmd.schrodinger`) enter through `GramPair.from_matrices`,
the one place where the cutoff is applied.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionary import FeatureMatrices, SnapshotFeatures
from .quadrature import QuadratureRule

logger = logging.getLogger("hdmd")

_BLOCK_ROWS = 4096


class KoopmanKind(enum.Enum):
    EDMD = "edmd"
    HERMITIAN_DMD = "hermitian_dmd"


@dataclass(frozen=True)
class GramPair:
    """G and A plus the retained eigenspace of G.

    basis (N x r) holds orthonormal eigenvectors of G for the retained
    eigenvalues basis_eigenvalues (ascending, all > g_eigen_floor where
    g_eigen_floor = rel_tol * lambda_max).  retained_rank == r.  G and A may
    be real or complex.
    """

    g: np.ndarray
    a: np.ndarray
    g_eigen_floor: float
    retained_rank: int
    basis: np.ndarray
    basis_eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return self.g.shape[0]

    @property
    def rank_deficient(self) -> bool:
        return self.retained_rank < self.size

    @property
    def condition_number(self) -> float:
        """Largest over smallest retained eigenvalue of G."""
        return float(self.basis_eigenvalues[-1] / self.basis_eigenvalues[0])

    def hermitian_part_of_a(self) -> np.ndarray:
        return 0.5 * (self.a + self.a.conj().T)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G^+ rhs with the spectral-cutoff pseudoinverse (vector or matrix rhs)."""
        q, lam = self.basis, self.basis_eigenvalues
        return q @ ((q.conj().T @ rhs) / lam.reshape((-1,) + (1,) * (np.ndim(rhs) - 1)))

    @classmethod
    def from_matrices(cls, g: np.ndarray, a: np.ndarray, rank_tolerance: float) -> "GramPair":
        """Symmetrize G as (G + G^*)/2, eigendecompose it once and apply the cutoff.

        Eigenvalues at or below rank_tolerance * lambda_max are dropped and the
        retained eigenspace is cached for every downstream solve.  Rank
        deficiency is left to the caller to report (see `rank_deficient`).
        """
        g = 0.5 * (g + g.conj().T)
        a = np.asarray(a).view()  # freezing a view leaves the caller's a writeable
        eigvals, eigvecs = np.linalg.eigh(g)
        floor = float(rank_tolerance) * max(eigvals[-1], 0.0)
        keep = eigvals > floor
        rank = int(np.count_nonzero(keep))
        if rank == 0:
            raise ValueError("Gram matrix has no eigenvalue above the truncation floor")
        for arr in (g, a):
            arr.setflags(write=False)
        return cls(g, a, float(floor), rank, basis=eigvecs[:, keep], basis_eigenvalues=eigvals[keep])


@dataclass(frozen=True)
class KoopmanMatrix:
    """Operator matrix K; Hermitian DMD also keeps Q^* B Q for `eigendecompose`."""

    k: np.ndarray
    kind: KoopmanKind
    source: GramPair
    compressed_b: Optional[np.ndarray] = None

    def hermiticity_residual(self) -> float:
        """||G K - K^* G||_F / max(1, ||G K||_F)."""
        gk = self.source.g @ self.k
        return float(np.linalg.norm(gk - gk.conj().T) / max(1.0, np.linalg.norm(gk)))


@dataclass(frozen=True)
class KoopmanEig:
    """Real eigenvalues (ascending) with G-orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gram: GramPair

    def orthonormality_residual(self) -> float:
        vgv = self.eigenvectors.conj().T @ self.gram.g @ self.eigenvectors
        return float(np.max(np.abs(vgv - np.eye(vgv.shape[0]))))


def assemble_gram_pair(features: FeatureMatrices | SnapshotFeatures, quad: QuadratureRule) -> GramPair:
    """Form G = Psi_X^* W Psi_X and A = Psi_X^* W Psi_Y as weighted snapshot sums.

    The weights are positive, so blocks arrive as rows of W^(1/2) Psi; they are
    summed in features.dtype and scaled once by features.scale.
    The cutoff is features.rank_tolerance_used; see `GramPair.from_matrices`.
    Effective rank deficiency is reported as a warning, not a failure.
    """
    if features.snapshot_count != quad.size:
        raise ValueError(
            f"feature rows ({features.snapshot_count}) != quadrature nodes ({quad.size})"
        )
    root_w, n = np.sqrt(quad.weights), features.dictionary_size
    g = np.zeros((n, n), dtype=features.dtype)
    a = np.zeros_like(g)
    for start in range(0, quad.size, _BLOCK_ROWS):
        sl = slice(start, start + _BLOCK_ROWS)
        bx, by = features.block(sl, root_w[sl])  # rows of W^(1/2) Psi_X, W^(1/2) Psi_Y
        xh = bx.conj().T  # a view for real rows, so bx.T @ bx runs as one symmetric rank-k update
        g += xh @ bx
        a += xh @ by
    pair = GramPair.from_matrices(features.scale * g, features.scale * a, features.rank_tolerance_used)
    if pair.rank_deficient:
        msg = "Gram matrix numerically rank deficient: retained %d of %d directions (floor %.3e)"
        logger.warning(msg, pair.retained_rank, n, pair.g_eigen_floor)
    return pair


def edmd(pair: GramPair) -> KoopmanMatrix:
    """Unconstrained least-squares operator K = G^+ A (spectral-cutoff pseudoinverse)."""
    return KoopmanMatrix(k=pair.solve(pair.a), kind=KoopmanKind.EDMD, source=pair)


def hermitian_dmd(pair: GramPair) -> KoopmanMatrix:
    """G-Hermitian operator solving G K = (A + A^*)/2 on the retained subspace.

    With Q, Lambda the retained eigenpairs of G and B = (A + A^*)/2,

        K = Q Lambda^{-1} (Q^* B Q) Q^*,

    which equals G^{-1} B at full rank and satisfies G K = K^* G to roundoff
    in every case.
    """
    q, lam = pair.basis, pair.basis_eigenvalues
    b_proj = q.conj().T @ pair.hermitian_part_of_a() @ q
    b_proj = 0.5 * (b_proj + b_proj.conj().T)
    k = q @ (b_proj / lam[:, None]) @ q.conj().T
    return KoopmanMatrix(k=k, kind=KoopmanKind.HERMITIAN_DMD, source=pair, compressed_b=b_proj)


def symmetric_procrustes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hermitian M minimizing ||Y - X M||_F (Higham's SVD formula).

    With X = U Sigma V^*, C = U^* Y V and singular values sigma_i (padded
    with zeros past rank), the minimizer is M = V Upsilon V^* where

        Upsilon_ij = (sigma_i C_ij + sigma_j conj(C_ji)) / (sigma_i^2 + sigma_j^2)

    and Upsilon_ij = 0 whenever sigma_i^2 + sigma_j^2 = 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    if x.shape != y.shape:
        raise ValueError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    if not np.any(x):
        raise ValueError("x must be nonzero")
    n = x.shape[1]
    # tall case: economy SVD already gives the full N x N right factor;
    # wide case: full SVD, with sigma and C zero-padded past rank
    u, s, vh = np.linalg.svd(x, full_matrices=x.shape[0] < n)
    v = vh.conj().T
    sig = np.zeros(n)
    sig[: s.shape[0]] = s
    c = np.zeros((n, n), dtype=complex)
    c_rows = u.conj().T @ y @ v
    take = min(c_rows.shape[0], n)
    c[:take, :] = c_rows[:take, :]
    denom = sig[:, None] ** 2 + sig[None, :] ** 2
    numer = sig[:, None] * c + sig[None, :] * c.conj().T
    ups = np.divide(numer, denom, out=np.zeros_like(c), where=denom > 0)
    m = v @ ups @ v.conj().T
    return 0.5 * (m + m.conj().T)


def eigendecompose(k: KoopmanMatrix) -> KoopmanEig:
    """Eigenpairs of the generalized problem ((A+A^*)/2) v = lambda G v.

    Restricted to the retained eigenspace of G: with Q, Lambda retained and
    B = (A+A^*)/2, the Hermitian whitened matrix
    Lambda^{-1/2} Q^* B Q Lambda^{-1/2} is diagonalized and eigenvectors are
    mapped back through Q Lambda^{-1/2}, which makes them G-orthonormal by
    construction.  Eigenvalues are real ascending; each eigenvector's phase
    is fixed so its largest-modulus entry is real positive.
    """
    if k.kind is not KoopmanKind.HERMITIAN_DMD:
        raise ValueError(f"eigendecompose requires a Hermitian DMD operator, got kind={k.kind.value}")
    pair = k.source
    rootlam = np.sqrt(pair.basis_eigenvalues)
    b_w = k.compressed_b / rootlam[:, None] / rootlam[None, :]
    theta, u = np.linalg.eigh(0.5 * (b_w + b_w.conj().T))
    vectors = pair.basis @ (u / rootlam[:, None])

    # phase convention: largest-modulus entry real positive
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phase = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    vectors = vectors / phase[None, :]

    return KoopmanEig(eigenvalues=theta, eigenvectors=vectors, gram=pair)
