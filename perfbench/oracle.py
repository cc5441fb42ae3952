"""Closed-form checks of hdmd's artifacts, and a self-test that they can fail.

Each check reads one call's output directory and returns a Verdict: the
errors it measured and a list of failed conditions.  The expected values
come from closed forms computed here, not from columns the program wrote.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Callable

import numpy as np

HERMITICITY_LIMIT = 1e-8
MASS_GAP_LIMIT = 1e-9  # |total_mass - observable_mass| / observable_mass
SWAP_LIMIT = 1e-8  # eigenvalues at +-1 and max |K_edmd - P_swap|
EIG_COUNT = 50


@dataclass
class Verdict:
    values: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _rows(path: Path, columns=None) -> np.ndarray:
    """Data rows of a numeric CSV with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=columns)


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def oscillator_energies(count: int) -> np.ndarray:
    """The lowest `count` energies m + n + 1 of the 2-D oscillator; E has multiplicity E."""
    energies: list[float] = []
    e = 1
    while len(energies) < count:
        energies += [float(e)] * e
        e += 1
    return np.array(energies[:count])


def check_oscillator(out: Path, spikes: np.ndarray, eig_ceiling: float, spike_ceiling: float) -> Verdict:
    """Hermiticity, Parseval mass, eigenvalues and spike weights of `hdmd schrodinger`.

    `spikes[E - 1]` is the exact spike weight at energy E.
    """
    v = Verdict()
    summary = _summary(out)
    residual = summary["hermiticity_residual"]
    mass_gap = abs(summary["total_mass"] - summary["observable_mass"]) / summary["observable_mass"]
    computed = _rows(out / "eigenvalues.csv")[:EIG_COUNT, 1]
    clustered = _rows(out / "clustered.csv", (0, 2))  # an empty cluster has no location
    references = clustered[:, 0].astype(int)
    v.values = {
        "hermiticity_residual": residual,
        "mass_gap": mass_gap,
        "eig_err_50": float(np.max(np.abs(computed - oscillator_energies(computed.size)))),
        "spike_err": float(np.max(np.abs(clustered[:, 1] - spikes[references - 1]))),
    }
    v.require(residual <= HERMITICITY_LIMIT, f"hermiticity residual {residual:.3g} > {HERMITICITY_LIMIT}")
    v.require(mass_gap <= MASS_GAP_LIMIT, f"mass gap {mass_gap:.3g} > {MASS_GAP_LIMIT}")
    v.require(computed.size == EIG_COUNT, f"{computed.size} eigenvalues, expected at least {EIG_COUNT}")
    v.require(
        list(references) == list(range(1, spikes.size + 1)),
        f"clustered references {list(references)} are not 1..{spikes.size}",
    )
    v.require(v.values["eig_err_50"] <= eig_ceiling, f"eig_err_50 {v.values['eig_err_50']:.3g} > {eig_ceiling}")
    v.require(v.values["spike_err"] <= spike_ceiling, f"spike_err {v.values['spike_err']:.3g} > {spike_ceiling}")
    return v


def swap_permutation(per_axis: int) -> np.ndarray:
    """Koopman matrix of the coordinate swap on a per_axis^2 tensor grid of bumps."""
    n = per_axis * per_axis
    i, j = np.divmod(np.arange(n), per_axis)
    perm = np.zeros((n, n))
    perm[np.arange(n), j * per_axis + i] = 1.0
    return perm


def check_swap(out: Path) -> Verdict:
    """The swap is an involution: K_edmd is its permutation matrix, eigenvalues are +-1."""
    v = Verdict()
    summary = _summary(out)
    per_axis = isqrt(summary["dictionary_size"])
    eig = _rows(out / "eigenvalues.csv")[:, 1]
    data = _rows(out / "koopman_edmd.csv")
    k_edmd = data[:, 0::2] + 1j * data[:, 1::2]
    plus = int(np.count_nonzero(np.abs(eig - 1.0) <= SWAP_LIMIT))
    minus = int(np.count_nonzero(np.abs(eig + 1.0) <= SWAP_LIMIT))
    want_plus, want_minus = per_axis * (per_axis + 1) // 2, per_axis * (per_axis - 1) // 2
    residual = summary["hermiticity_residual"]
    v.values = {
        "hermiticity_residual": residual,
        "swap_err": float(np.max(np.abs(k_edmd - swap_permutation(per_axis)))),
        "eig_plus_one": plus,
        "eig_minus_one": minus,
    }
    v.require(per_axis * per_axis == summary["dictionary_size"], "dictionary is not a square grid")
    v.require(residual <= HERMITICITY_LIMIT, f"hermiticity residual {residual:.3g} > {HERMITICITY_LIMIT}")
    v.require(plus == want_plus, f"{plus} eigenvalues at +1, expected {want_plus}")
    v.require(minus == want_minus, f"{minus} eigenvalues at -1, expected {want_minus}")
    v.require(v.values["swap_err"] <= SWAP_LIMIT, f"max|K_edmd - P_swap| {v.values['swap_err']:.3g} > {SWAP_LIMIT}")
    return v


def walk_count(n: int, k: int) -> int:
    """Walks of length k from vertex 1 back to vertex 1 on the path graph 1..n."""
    n = min(n, k // 2 + 1)  # a walk of length k never passes vertex k/2 + 1
    counts = [1] + [0] * (n - 1)
    for _ in range(k):
        counts = [(counts[i - 1] if i else 0) + (counts[i + 1] if i + 1 < n else 0) for i in range(n)]
    return counts[0]


def _gap_rows(path: Path) -> list[tuple[int, str, float]]:
    """(n, key, gap) rows of a probe CSV, without the resolution-floor rows."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        n, key, gap = line.split(",")
        if not key.endswith("|floor"):
            rows.append((int(n), key, float(gap)))
    return rows


def check_probes(out: Path) -> Verdict:
    """Free-Jacobi moment gaps are walk counts; its resolvent gaps fall with n."""
    v = Verdict()
    n_ref = _summary(out)["n_ref"]
    moments = _gap_rows(out / "moments_free_jacobi.csv")
    mismatches = []
    for n, key, gap in moments:
        k = int(key.removeprefix("k="))
        expected = walk_count(n_ref, k) - walk_count(n, k)
        if abs(gap - expected) > 1e-9:
            mismatches.append(f"n={n} {key}: gap {gap} != {expected}")
    resolvent = [gap for _, _, gap in sorted(_gap_rows(out / "resolvent_free_jacobi.csv"))]
    falling = all(b < a for a, b in zip(resolvent, resolvent[1:]))
    v.values = {"moment_rows": len(moments), "moment_mismatches": len(mismatches)}
    v.require(len(moments) > 0, "no free-Jacobi moment rows")
    v.require(not mismatches, "moment gaps differ from walk counts: " + "; ".join(mismatches[:3]))
    v.require(len(resolvent) > 1 and falling, f"resolvent gaps do not fall with n: {resolvent}")
    return v


# --- self-test: each corruption must make its workload's check fail -------------


def _edit_cell(row: int, col: int, change: Callable[[float], float]) -> Callable[[str], str]:
    """Text transform changing one numeric cell of data row `row` (0 = first after the header)."""

    def edit(text: str) -> str:
        lines = text.splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = repr(change(float(cells[col])))
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return edit


def _edit_summary(key: str, change: Callable[[float], float]) -> Callable[[str], str]:
    def edit(text: str) -> str:
        payload = json.loads(text)
        payload[key] = change(payload[key])
        return json.dumps(payload)

    return edit


# (name, file, transform) per oracle kind
CORRUPTIONS = {
    "oscillator": (
        ("eigenvalue 20 shifted by 0.5", "eigenvalues.csv", _edit_cell(20, 1, lambda x: x + 0.5)),
        ("spike weight at E=5 raised by 0.5", "clustered.csv", _edit_cell(4, 2, lambda x: x + 0.5)),
        ("hermiticity residual 1e-6", "summary.json", _edit_summary("hermiticity_residual", lambda x: 1e-6)),
        ("total mass off by 1e-6", "summary.json", _edit_summary("total_mass", lambda x: x * (1 + 1e-6))),
    ),
    "swap": (
        ("one eigenvalue sign flipped", "eigenvalues.csv", _edit_cell(0, 1, lambda x: -x)),
        ("K_edmd[0, 0] off by 1e-6", "koopman_edmd.csv", _edit_cell(0, 0, lambda x: x + 1e-6)),
        ("hermiticity residual 1e-6", "summary.json", _edit_summary("hermiticity_residual", lambda x: 1e-6)),
    ),
    "probes": (
        ("moment gap n=2 k=6 off by one", "moments_free_jacobi.csv", _edit_cell(6, 2, lambda x: x + 1)),
        ("resolvent gap at n=16 raised", "resolvent_free_jacobi.csv", _edit_cell(3, 2, lambda x: x * 1e3)),
    ),
}


def self_test(kind: str, check: Callable[[Path], Verdict], out: Path, scratch: Path) -> dict[str, bool]:
    """Apply each corruption to a copy of `out`; map its name to whether `check` caught it."""
    caught = {}
    for name, filename, transform in CORRUPTIONS[kind]:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(out, scratch)
        target = scratch / filename
        target.write_text(transform(target.read_text()))
        try:
            caught[name] = bool(check(scratch).failures)
        except (ValueError, KeyError, IndexError):
            caught[name] = True  # the corrupted artifact no longer parses
    shutil.rmtree(scratch, ignore_errors=True)
    return caught
