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

The probes see a reference through one of two holders, each giving for
a section L_n = V diag(lambda) V^* its ascending eigenvalues, the
transforms x -> V^* x and w -> V w, and the matvec u -> L_n u.  The
resolvent is V (lambda - z)^{-1} V^* P_n v, the weak probe's measure has
atoms lambda with weights |V^* P_n v|^2, and the moment probe keeps exact
repeated matvecs, so walk-count moments stay exact integers.  A plain
matrix goes into `FiniteSections`, which eigendecomposes each section once;
`FreeJacobiSections` gives the built-in reference in closed form (a DST-I)
and forms no n x n array.  A weak test function maps the array of a
section's eigenvalues to an array of values (or one scalar), so it is
called once per section.

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


class FiniteSections:
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
        self.size = mat.shape[0]
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


@dataclass(frozen=True)
class FreeJacobiSections:
    """The sections of free_jacobi(size) in closed form, without forming a matrix.

    lambda_k = 2 cos(k pi/(n+1)) and V_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)),
    j, k = 1..n.  V is symmetric and orthogonal, so both transforms are a
    DST-I; ascending lambda is k = n..1, a reversal of V's columns.
    """

    size: int

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


def _check_reference(reference, v, truncation_sizes):
    if not isinstance(reference, (FiniteSections, FreeJacobiSections)):
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


def _table(keys: Sequence[str], sizes: Sequence[int], n_ref: int, section, gap=np.abs) -> ProbeResult:
    """Rows (n, key, gap) for n in sizes and floors at n = n_ref // 2 from the per-key
    gaps gap(section(n) - section(n_ref)); section is evaluated once per distinct n."""
    truth = section(n_ref)
    gaps = {n: gap((truth if n == n_ref else section(n)) - truth) for n in dict.fromkeys([*sizes, n_ref // 2])}
    rows = tuple((n, key, float(g)) for n in sizes for key, g in zip(keys, gaps[n]))
    return ProbeResult(rows=rows, floors={key: float(g) for key, g in zip(keys, gaps[n_ref // 2])})


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

    def section_solution(n: int) -> np.ndarray:
        w = sections.to_eigenbasis(vec[:n]) / (sections.eigenvalues(n) - z)
        out = np.zeros(n_ref, dtype=complex)
        out[:n] = sections.from_eigenbasis(w)
        return out

    return _table(["resolvent"], sizes, n_ref, section_solution, lambda diff: [np.linalg.norm(diff)])


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
    keys = [f"k={k}" for k in range(max_moment + 1)]
    return _table(keys, sizes, sections.size, lambda n: _section_moments(sections.matvec, vec[:n], max_moment))


def _fn_keys(test_fns: Sequence[Callable[[np.ndarray], np.ndarray]]) -> list[str]:
    names = [getattr(fn, "__name__", "") for fn in test_fns]
    keys = [name if name not in ("", "<lambda>") else f"fn{i}" for i, name in enumerate(names)]
    return keys if len(set(keys)) == len(keys) else [f"fn{i}:{k}" for i, k in enumerate(keys)]


def weak_convergence_probe(
    reference,
    v,
    test_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
    truncation_sizes: Sequence[int],
) -> ProbeResult:
    """Gaps |int f d mu_{v,n} - int f d mu_v|; each f maps a section's eigenvalue
    array to as many real values, or to one real scalar, which broadcasts."""
    sections, vec, sizes = _check_reference(reference, v, truncation_sizes)
    if not test_fns:
        raise ValueError("need at least one test function")
    keys = _fn_keys(test_fns)

    def integrals(n: int) -> np.ndarray:
        coeffs = np.abs(sections.to_eigenbasis(vec[:n])) ** 2
        lams = sections.eigenvalues(n)
        fvals = np.empty((len(test_fns), n))
        for row, key, fn in zip(fvals, keys, test_fns):
            vals = np.asarray(fn(lams))
            if np.iscomplexobj(vals) or vals.shape not in ((), lams.shape):
                got = f"{vals.dtype} of shape {vals.shape}"
                raise ValueError(f"test function {key} returned {got}, not real values of shape {lams.shape} or ()")
            row[:] = vals
        return fvals @ coeffs

    return _table(keys, sizes, sections.size, integrals)
