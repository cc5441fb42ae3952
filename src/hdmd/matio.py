"""Artifact writing (`write_artifact`) and complex-matrix CSV serialization (re/im column pairs).

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


def write_artifact(path, text: str) -> None:
    """Write text to path as a new file: truncating a just-written file instead
    makes ext4 flush its data first, about 60 ms per CSV of a reused --out."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text)


def write_complex_csv(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix))
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(m.shape[1]))
    # repr is format_float's text, so values still round-trip bitwise
    if m.dtype.kind in "biuf" and m.size:  # every imaginary cell is 0.0: format only the real ones
        rows = [",0.0,".join(map(repr, row)) + ",0.0" for row in m.astype(float).tolist()]
    else:
        pairs = np.empty((m.shape[0], 2 * m.shape[1]))
        pairs[:, 0::2], pairs[:, 1::2] = m.real, m.imag
        rows = [",".join(map(repr, row)) for row in pairs.tolist()]
    write_artifact(path, "\n".join([header] + rows) + "\n")
