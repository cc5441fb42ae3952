"""Finite-section convergence diagnostics against large Hermitian references.

A large Hermitian reference L (n_ref x n_ref) stands in for an
operator; P_n is the projection onto the first n coordinates.  Three probes
quantify how fast the leading principal sections P_n L P_n^* recover
operator-level quantities as n grows:

  * resolvent:  || P_n^* [P_n (L - z) P_n^*]^{-1} P_n v - (L - z)^{-1} v ||_2
  * moments:    | <P_n^* (P_n L P_n^*)^k P_n v, v> - <L^k v, v> |
  * weak:       | int f d mu_{v,n} - int f d mu_v | for test functions f,
                where mu_{v,n} is the spectral measure of the n x n section
                with respect to P_n v.

The probes see a reference only through a `Sections` holder, which gives
for each section L_n = V diag(lambda) V^* its ascending eigenvalues, the
transforms x -> V^* x and w -> V w, and the matvec u -> L_n u.  The
resolvent is V (lambda - z)^{-1} V^* P_n v, the weak probe's measure has
atoms lambda with weights |V^* P_n v|^2, and the moment probe keeps exact
repeated matvecs, so walk-count moments stay exact integers.  A plain
matrix goes into `FiniteSections`, which eigendecomposes each section once;
`FreeJacobiSections` and `DiagonalSections` give the built-in references in
closed form (a DST-I, the identity) and form no n x n array.

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


class Sections:
    """Leading sections L_n = V_n diag(lambda) V_n^* of a size x size Hermitian reference.

    The probes use only these four operations; each vector argument has the
    section's length n.
    """

    def __init__(self, size: int) -> None:
        self.size = size

    def eigenvalues(self, n: int) -> np.ndarray:
        """Ascending eigenvalues lambda of L_n."""
        raise NotImplementedError

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V_n^* x."""
        raise NotImplementedError

    def from_eigenbasis(self, w: np.ndarray) -> np.ndarray:
        """V_n w."""
        raise NotImplementedError

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """L_n u."""
        raise NotImplementedError


class FiniteSections(Sections):
    """A square reference matrix with its leading-section eigendecompositions.

    Keeps a read-only view of the matrix (the caller's array stays writeable)
    and computes eigh(matrix[:n, :n]) once per n on first use.  The cache
    assumes the matrix stays unchanged meanwhile.
    """

    def __init__(self, matrix) -> None:
        mat = np.atleast_2d(np.asarray(matrix)).view()
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"reference must be square, got {mat.shape}")
        mat.setflags(write=False)
        super().__init__(mat.shape[0])
        self.matrix = mat
        self._eigh: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def eigh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors of the n x n section."""
        if n not in self._eigh:
            self._eigh[n] = np.linalg.eigh(self.matrix[:n, :n])
        return self._eigh[n]

    def eigenvalues(self, n: int) -> np.ndarray:
        return self.eigh(n)[0]

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        return self.eigh(x.shape[0])[1].conj().T @ x

    def from_eigenbasis(self, w: np.ndarray) -> np.ndarray:
        evecs = self.eigh(w.shape[0])[1]
        return evecs @ w.real + 1j * (evecs @ w.imag)  # a real V is never cast to complex

    def matvec(self, u: np.ndarray) -> np.ndarray:
        n = u.shape[0]
        return self.matrix[:n, :n] @ u


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I, y_k = sqrt(2/(n+1)) sum_j x_j sin(jk pi/(n+1)), j, k = 1..n.

    The FFT of the length-2(n+1) odd extension (0, x, 0, -x reversed) is
    -2i times the sine sum at frequencies 1..n.
    """
    n = x.shape[0]
    ext = np.zeros(2 * (n + 1), dtype=np.result_type(x, float))
    ext[1 : n + 1] = x
    ext[n + 2 :] = -x[::-1]
    scale = np.sqrt(0.5 / (n + 1))  # sqrt(2/(n+1)) / 2
    if np.iscomplexobj(ext):
        return np.fft.fft(ext)[1 : n + 1] * (1j * scale)
    return np.fft.rfft(ext)[1 : n + 1].imag * -scale


class FreeJacobiSections(Sections):
    """The sections of free_jacobi(size) in closed form, without forming a matrix.

    lambda_k = 2 cos(k pi/(n+1)) and V_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)),
    j, k = 1..n.  V is symmetric and orthogonal, so both transforms are a
    DST-I; ascending lambda is k = n..1, a reversal of V's columns.
    """

    def eigenvalues(self, n: int) -> np.ndarray:
        return 2.0 * np.cos(np.arange(n, 0, -1, dtype=float) * np.pi / (n + 1))

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        return _dst1(x)[::-1]

    def from_eigenbasis(self, w: np.ndarray) -> np.ndarray:
        return _dst1(w[::-1])

    def matvec(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[1:] = u[:-1]
        out[:-1] += u[1:]
        return out


class DiagonalSections(Sections):
    """The sections of diag(0, 1, ..., size - 1) in closed form: lambda = 0..n-1 and V = I."""

    def eigenvalues(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=float)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        return x

    def from_eigenbasis(self, w: np.ndarray) -> np.ndarray:
        return w

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return np.arange(u.shape[0]) * u


def _check_reference(reference, v, truncation_sizes):
    if not isinstance(reference, Sections):
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
        w = sections.to_eigenbasis(vec[:n]) / (sections.eigenvalues(n) - zc)
        out = np.zeros(n_ref, dtype=complex)
        out[:n] = sections.from_eigenbasis(w)
        return out

    truth = section_solution(n_ref)
    rows = tuple(
        (n, "resolvent", float(np.linalg.norm(section_solution(n) - truth))) for n in sizes
    )
    floor = float(np.linalg.norm(section_solution(n_ref // 2) - truth))
    return ProbeResult(rows=rows, floors={"resolvent": floor})


def _section_moments(matvec: Callable[[np.ndarray], np.ndarray], vec: np.ndarray, k_max: int) -> np.ndarray:
    """<M^k v, v> for k = 0..k_max via repeated matvec."""
    moments = np.empty(k_max + 1)
    u = vec.astype(np.result_type(vec, float))
    for k in range(k_max + 1):
        moments[k] = np.real(np.vdot(vec, u))
        if k < k_max:
            u = matvec(u)
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
    n_ref = sections.size
    truth = _section_moments(sections.matvec, vec, max_moment)

    def gaps_at(n: int) -> np.ndarray:
        return np.abs(_section_moments(sections.matvec, vec[:n], max_moment) - truth)

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
        coeffs = np.abs(sections.to_eigenbasis(vec[:n])) ** 2
        lams = sections.eigenvalues(n).tolist()  # Python floats: each call is cheaper than on numpy scalars
        fvals = np.array([np.fromiter(map(fn, lams), float, n) for fn in test_fns])
        return fvals @ coeffs

    truth = integrals(n_ref)
    rows = []
    for n in sizes:
        for key, gap in zip(keys, np.abs(integrals(n) - truth)):
            rows.append((n, key, float(gap)))
    floors = dict(zip(keys, np.abs(integrals(n_ref // 2) - truth)))
    floors = {k: float(g) for k, g in floors.items()}
    return ProbeResult(rows=tuple(rows), floors=floors)
