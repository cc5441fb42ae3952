"""Finite-section convergence diagnostics against dense matrix references.

A large Hermitian reference matrix L (n_ref x n_ref) stands in for an
operator; P_n is the projection onto the first n coordinates.  Three probes
quantify how fast the leading principal sections P_n L P_n^* recover
operator-level quantities as n grows:

  * resolvent:  || P_n^* [P_n (L - z) P_n^*]^{-1} P_n v - (L - z)^{-1} v ||_2
  * moments:    | <P_n^* (P_n L P_n^*)^k P_n v, v> - <L^k v, v> |
  * weak:       | int f d mu_{v,n} - int f d mu_v | for test functions f,
                where mu_{v,n} is the spectral measure of the n x n section
                with respect to P_n v.

Each section is eigendecomposed once, L_n = V diag(lambda) V^*, in a
`FiniteSections` holder that the resolvent and weak probes share: the
resolvent is V (lambda - z)^{-1} V^* P_n v and the weak probe's measure has
atoms lambda with weights |V^* P_n v|^2.  The decomposition is eigh of the
section unless the holder is given the reference's closed form
(`free_jacobi_eigh`, `diagonal_eigh`).  The moment probe keeps exact
repeated matvecs, so walk-count moments stay exact integers.

The reference is itself a truncation of the operator it models, so each
probe also reports a resolution floor: the same gap evaluated at
n = n_ref / 2, i.e. how much the answer still moves between half and full
reference resolution.  Sequence entries below the floor measure the
reference, not the section method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class ProbeResult:
    """Rows (n, key, gap) plus per-key resolution floors at n = n_ref // 2."""

    rows: tuple[tuple[int, str, float], ...]
    floors: dict[str, float]

    def gaps(self, key: str) -> list[tuple[int, float]]:
        return [(n, gap) for n, k, gap in self.rows if k == key]


def free_jacobi(n: int) -> np.ndarray:
    """Discrete half-line Laplacian without diagonal: ones on the off-diagonals.

    The spectral measure with respect to e_1 is the semicircle on [-2, 2];
    (L^k)_{11} counts length-k walks on the path graph returning to the
    first vertex (Catalan numbers for even k).
    """
    mat = np.zeros((n, n))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = 1.0
    mat[idx + 1, idx] = 1.0
    return mat


def free_jacobi_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigh of free_jacobi(n): lambda_k = 2 cos(k pi/(n+1)) ascending,
    V_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)), j, k = 1..n, built in one n x n array.

    jk is reduced mod 2(n+1), exactly in floats, so every sine argument is below 2 pi.
    """
    k = np.arange(n, 0, -1, dtype=float)
    evecs = np.outer(np.arange(1.0, n + 1), k)
    np.remainder(evecs, 2 * (n + 1), out=evecs)
    evecs *= np.pi / (n + 1)
    np.sin(evecs, out=evecs)
    evecs *= np.sqrt(2.0 / (n + 1))
    return 2.0 * np.cos(k * np.pi / (n + 1)), evecs


def diagonal_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigh of diag(0, 1, ..., n-1): the diagonal and the identity."""
    return np.arange(n, dtype=float), np.eye(n)


class FiniteSections:
    """A square reference matrix with its leading-section eigendecompositions.

    Keeps a read-only view of the matrix (the caller's array stays writeable)
    and computes decompose(n), by default eigh(matrix[:n, :n]), once per n on
    first use.  The cache assumes the matrix stays unchanged meanwhile.
    """

    def __init__(self, matrix, decompose: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None) -> None:
        mat = np.atleast_2d(np.asarray(matrix)).view()
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"reference must be square, got {mat.shape}")
        mat.setflags(write=False)
        self.matrix = mat
        self._decompose = decompose or (lambda n: np.linalg.eigh(mat[:n, :n]))
        self._eigh: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def eigh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors of the n x n section."""
        if n not in self._eigh:
            self._eigh[n] = self._decompose(n)
        return self._eigh[n]


def _check_reference(reference, v, truncation_sizes):
    if not isinstance(reference, FiniteSections):
        reference = FiniteSections(reference)
    n_ref = reference.size
    vec = np.asarray(v).ravel()
    if vec.shape[0] != n_ref:
        raise ValueError(f"vector length {vec.shape[0]} != reference size {n_ref}")
    sizes = [int(n) for n in truncation_sizes]
    if not sizes:
        raise ValueError("need at least one truncation size")
    if any(n < 1 for n in sizes):
        raise ValueError("truncation sizes must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    if sizes[-1] > n_ref:
        raise ValueError(f"largest truncation {sizes[-1]} exceeds reference size {n_ref}")
    return reference, vec, sizes


def resolvent_convergence_probe(
    reference,
    v,
    z: complex,
    truncation_sizes: Sequence[int],
) -> ProbeResult:
    """Section-resolvent error against the resolvent of the full reference."""
    sections, vec, sizes = _check_reference(reference, v, truncation_sizes)
    if np.imag(z) == 0:
        raise ValueError("z must have nonzero imaginary part")
    n_ref = sections.size
    zc = complex(z)

    def section_solution(n: int) -> np.ndarray:
        evals, evecs = sections.eigh(n)
        w = (evecs.conj().T @ vec[:n]) / (evals - zc)
        out = np.zeros(n_ref, dtype=complex)
        out[:n] = evecs @ w.real + 1j * (evecs @ w.imag)  # a real V is never cast to complex
        return out

    truth = section_solution(n_ref)
    rows = tuple(
        (n, "resolvent", float(np.linalg.norm(section_solution(n) - truth))) for n in sizes
    )
    floor = float(np.linalg.norm(section_solution(n_ref // 2) - truth))
    return ProbeResult(rows=rows, floors={"resolvent": floor})


def _section_moments(mat: np.ndarray, vec: np.ndarray, k_max: int) -> np.ndarray:
    """<M^k v, v> for k = 0..k_max via repeated matvec."""
    moments = np.empty(k_max + 1)
    u = vec.astype(np.result_type(mat, vec, float))  # a real reference stays real
    for k in range(k_max + 1):
        moments[k] = np.real(np.vdot(vec, u))
        if k < k_max:
            u = mat @ u
    return moments


def moment_convergence_probe(
    reference,
    v,
    max_moment: int,
    truncation_sizes: Sequence[int],
) -> ProbeResult:
    """Gaps |<P_n^*(P_n L P_n^*)^k P_n v, v> - <L^k v, v>| for k = 0..max_moment."""
    sections, vec, sizes = _check_reference(reference, v, truncation_sizes)
    if max_moment < 0:
        raise ValueError("max_moment must be >= 0")
    ref, n_ref = sections.matrix, sections.size
    truth = _section_moments(ref, vec, max_moment)

    def gaps_at(n: int) -> np.ndarray:
        return np.abs(_section_moments(ref[:n, :n], vec[:n], max_moment) - truth)

    rows = []
    for n in sizes:
        for k, gap in enumerate(gaps_at(n)):
            rows.append((n, f"k={k}", float(gap)))
    floors = {f"k={k}": float(g) for k, g in enumerate(gaps_at(n_ref // 2))}
    return ProbeResult(rows=tuple(rows), floors=floors)


def _fn_keys(test_fns: Sequence[Callable[[float], float]]) -> list[str]:
    keys = []
    for i, fn in enumerate(test_fns):
        name = getattr(fn, "__name__", "")
        keys.append(name if name and name != "<lambda>" else f"fn{i}")
    if len(set(keys)) != len(keys):
        keys = [f"fn{i}:{k}" for i, k in enumerate(keys)]
    return keys


def weak_convergence_probe(
    reference,
    v,
    test_fns: Sequence[Callable[[float], float]],
    truncation_sizes: Sequence[int],
) -> ProbeResult:
    """Gaps |int f d mu_{v,n} - int f d mu_v| from the sections' eigendecompositions."""
    sections, vec, sizes = _check_reference(reference, v, truncation_sizes)
    if not test_fns:
        raise ValueError("need at least one test function")
    keys = _fn_keys(test_fns)
    n_ref = sections.size

    def integrals(n: int) -> np.ndarray:
        evals, evecs = sections.eigh(n)
        coeffs = np.abs(evecs.conj().T @ vec[:n]) ** 2
        fvals = np.array([[float(fn(lam)) for lam in evals] for fn in test_fns])
        return fvals @ coeffs

    truth = integrals(n_ref)
    rows = []
    for n in sizes:
        for key, gap in zip(keys, np.abs(integrals(n) - truth)):
            rows.append((n, key, float(gap)))
    floors = dict(zip(keys, np.abs(integrals(n_ref // 2) - truth)))
    floors = {k: float(g) for k, g in floors.items()}
    return ProbeResult(rows=tuple(rows), floors=floors)
