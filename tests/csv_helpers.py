"""CSV reader for the re/im-pair matrix CSV that `hdmd.matio.write_complex_csv` writes (`custom`'s koopman_edmd.csv);
koopman_hermitian.npy is read with `np.load`."""

from math import isfinite
from pathlib import Path

import numpy as np


def read_complex_csv(path) -> np.ndarray:
    """Matrix from re/im column pairs; names the file and line of a bad or non-finite cell."""
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
        if not all(map(isfinite, vals)):
            raise ValueError(f"{path}: line {lineno}: non-finite value in {line!r}")
        rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(ncols)])
    return np.array(rows, dtype=complex)
