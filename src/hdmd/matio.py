"""Complex-matrix serialization as CSV (re/im column pairs).

CSV layout
    One header row ``c0_re,c0_im,c1_re,c1_im,...`` followed by one row per
    matrix row.  Floats are written with ``repr`` so values round-trip
    bitwise through the text format.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    """Shortest decimal text that round-trips to the same float64."""
    return repr(float(x))


def write_complex_csv(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix))
    pairs = np.empty((m.shape[0], 2 * m.shape[1]))
    pairs[:, 0::2], pairs[:, 1::2] = m.real, m.imag
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(m.shape[1]))
    # repr is format_float's text, so values still round-trip bitwise
    lines = [header] + [",".join(map(repr, row.tolist())) for row in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_complex_csv(path) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"{path}: empty CSV")
    lines = text.splitlines()
    header = lines[0].split(",")
    if len(header) % 2 != 0:
        raise ValueError(f"{path}: expected an even number of re/im columns, got {len(header)}")
    ncols = len(header) // 2
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2 * ncols:
            raise ValueError(f"{path}: line {lineno}: expected {2 * ncols} fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(ncols)])
    return np.array(rows, dtype=complex)

