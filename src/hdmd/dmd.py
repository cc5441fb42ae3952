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

Assembly sums A over snapshots in blocks of `block_rows(N)` rows in the rows'
dtype, so the real rows of `hdmd custom` (never an M x N matrix) give a real A.
Each feature type supplies its own G (`hdmd custom`'s in closed form, with
no N x N product per block).  G and A from any other source (the separable
factors in `hdmd.schrodinger`) enter through `GramPair.from_matrices`, the
one place where the cutoff is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import FeatureMatrices, SnapshotFeatures, refuse_zero_gram
from .quadrature import QuadratureRule

_BLOCK_WORDS = 2**18  # 2 MiB of float64


def block_rows(n: int) -> int:
    """Snapshot rows per block for a dictionary of size n: at most max(2 MiB, one n x n matrix) of float64
    a block, and never fewer than n rows, so each block's n x n product-and-add stays small beside its GEMM.
    It depends on n alone, so for a given dictionary it fixes the summation order of G and A, and their bits."""
    return max(n, _BLOCK_WORDS // n)


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
    basis: np.ndarray
    basis_eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return self.g.shape[0]

    @property
    def retained_rank(self) -> int:
        return self.basis.shape[1]

    @property
    def rank_deficient(self) -> bool:
        return self.retained_rank < self.size

    @property
    def condition_number(self) -> float:
        """Largest over smallest retained eigenvalue of G."""
        return float(self.basis_eigenvalues[-1] / self.basis_eigenvalues[0])

    def observable_mass(self, moments) -> float:
        """g_c^* G g_c = sum_i |q_i^* m|^2 / lambda_i for g_c = G^+ m, over the retained eigenpairs (Q, Lambda).

        It does not use the DMD eigenvectors, so the weights' sum is checked
        against it (Parseval); applying G to G^+ m instead would lose accuracy
        along tiny retained eigenvalues of an ill-conditioned G.
        """
        return float(np.sum(np.abs(self.basis.conj().T @ moments) ** 2 / self.basis_eigenvalues))

    @classmethod
    def from_matrices(cls, g: np.ndarray, a: np.ndarray, rank_tolerance: float) -> "GramPair":
        """Symmetrize G as (G + G^*)/2 unless it is exactly Hermitian, eigendecompose it once and apply the cutoff.

        Eigenvalues at or below rank_tolerance * lambda_max are dropped and the
        retained eigenspace is cached for every downstream solve.  Rank
        deficiency is left to the caller to report (see `rank_deficient`).
        """
        refuse_zero_gram(g)  # before eigh, which would take as long as for any other G
        g = np.asarray(g).view()  # kept if exactly Hermitian (custom's G): no second N x N array lives through eigh
        if not np.array_equal(g, g.conj().T):
            g = g + g.conj().T  # one N x N temporary, halved in place: the caller's g stays as it is
            g *= 0.5
        a = np.asarray(a).view()  # freezing a view leaves the caller's a writeable
        eigvals, eigvecs = np.linalg.eigh(g)
        floor = float(rank_tolerance) * max(eigvals[-1], 0.0)
        keep = eigvals > floor
        if not np.any(keep):
            raise ValueError("Gram matrix has no eigenvalue above the truncation floor")
        for arr in (g, a):
            arr.setflags(write=False)
        return cls(g, a, float(floor), basis=eigvecs[:, keep], basis_eigenvalues=eigvals[keep])


@dataclass(frozen=True)
class KoopmanMatrix:
    """Hermitian DMD operator K with Q^* B Q, which `eigendecompose` diagonalizes."""

    k: np.ndarray
    source: GramPair
    compressed_b: np.ndarray

    def hermiticity_residual(self) -> float:
        """||G K - K^* G||_F / ||G K||_F: relative, so the dictionary amplitude cancels.  0 when G K = 0, and NaN
        when G K is nonzero but ||G K||_F under- or overflows (the ratio would read 0 and pass the gate)."""
        gk = self.source.g @ self.k
        rows = max(1, _BLOCK_WORDS // len(gk))  # the difference by row panels: no second N x N array beside G K
        diff = [np.linalg.norm(gk[s : s + rows] - gk[:, s : s + rows].conj().T) for s in range(0, len(gk), rows)]
        if 0 < (norm := np.linalg.norm(gk)) < np.inf:
            return float(np.linalg.norm(diff) / norm)
        return float("nan") if np.any(gk) else 0.0


@dataclass(frozen=True)
class KoopmanEig:
    """Real eigenvalues (ascending) with G-orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gram: GramPair

    def weights(self, moments) -> np.ndarray:
        """Weights |v_j^* m|^2, in eigenvalue order, of the observable with moments m = Psi_X^* W f.

        They equal |v_j^* G g_c|^2 for g_c = G^+ m, since each v_j lies in the
        retained space, where G G^+ is the identity; no N x N product is needed.
        """
        return np.abs(self.eigenvectors.conj().T @ moments) ** 2


def assemble_gram_pair(features: FeatureMatrices | SnapshotFeatures, quad: QuadratureRule) -> GramPair:
    """Form G = Psi_X^* W Psi_X and A = Psi_X^* W Psi_Y as weighted snapshot sums.

    The weights are positive, so blocks arrive as rows of W^(1/2) Psi; A is
    summed over them in features.dtype, G comes first from features.gram, and
    both are scaled once, in place, by features.scale.
    The cutoff is features.rank_tolerance_used; see `GramPair.from_matrices`.
    """
    if features.snapshot_count != quad.size:
        raise ValueError(
            f"feature rows ({features.snapshot_count}) != quadrature nodes ({quad.size})"
        )
    root_w, n = np.sqrt(quad.weights), features.dictionary_size
    rows = block_rows(n)
    g = features.gram(quad.weights, rows)
    refuse_zero_gram(g)  # before the A loop, which would sum its blocks as long as for any other G
    a = np.zeros((n, n), dtype=features.dtype)
    buffers = np.empty((2, min(rows, quad.size), n), features.dtype)  # reused: fresh blocks fault in pages again
    for start in range(0, quad.size, rows):
        sl = slice(start, start + rows)
        bx, by = features.block(sl, root_w[sl], buffers[:, : root_w[sl].size])  # W^(1/2) Psi_X, W^(1/2) Psi_Y
        a += bx.conj().T @ by
    del buffers, bx, by
    g *= features.scale  # in place: scaled copies would be two more N x N arrays, live during eigh(G)
    a *= features.scale
    return GramPair.from_matrices(g, a, features.rank_tolerance_used)


def edmd(pair: GramPair) -> np.ndarray:
    """Unconstrained least-squares operator K = G^+ A = Q Lambda^{-1} Q^* A (spectral-cutoff pseudoinverse)."""
    q, lam = pair.basis, pair.basis_eigenvalues
    return q @ ((q.conj().T @ pair.a) / lam[:, None])


def hermitian_dmd(pair: GramPair) -> KoopmanMatrix:
    """G-Hermitian operator solving G K = (A + A^*)/2 on the retained subspace.

    With Q, Lambda the retained eigenpairs of G and B = (A + A^*)/2,

        K = Q Lambda^{-1} (Q^* B Q) Q^*,

    which equals G^{-1} B at full rank and satisfies G K = K^* G to roundoff
    in every case.
    """
    q, lam = pair.basis, pair.basis_eigenvalues
    b_proj = q.conj().T @ (0.5 * (pair.a + pair.a.conj().T)) @ q
    b_proj = 0.5 * (b_proj + b_proj.conj().T)
    k = q @ (b_proj / lam[:, None]) @ q.conj().T
    return KoopmanMatrix(k=k, source=pair, compressed_b=b_proj)


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
    construction.  Eigenvalues are real ascending.
    """
    pair = k.source
    rootlam = np.sqrt(pair.basis_eigenvalues)
    b_w = k.compressed_b / rootlam[:, None]
    b_w /= rootlam  # in place here and below, with the bits of the out-of-place forms: no copy lives beside it
    b_w += b_w.conj().T
    b_w *= 0.5
    theta, u = np.linalg.eigh(b_w)
    u /= rootlam[:, None]
    return KoopmanEig(eigenvalues=theta, eigenvectors=pair.basis @ u, gram=pair)
