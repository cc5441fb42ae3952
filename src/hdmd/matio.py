"""The text format of every artifact: columnar CSVs, complex-matrix CSVs and summary.json.

Each CSV is one header row, then one row per line.  Floats are written with
``repr``, so values round-trip bitwise through the text format.  A complex
matrix's header is ``c0_re,c0_im,c1_re,c1_im,...``, one row per matrix row.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np


def write_artifact(path, text: str) -> None:
    """Write text to path as a new file: truncating a just-written file instead
    makes ext4 flush its data first, about 60 ms per CSV of a reused --out."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text(text)


# iterators, not lists: lists of every cell raised the peak RSS of `custom` on 20,000 snapshots 96.6 -> 100.4 MB
def _cells(column):
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return ("" if v != v else repr(v) for v in values.tolist())  # v != v only for NaN
    return map(str, values.tolist())


def write_csv(path, header: str, *columns) -> None:
    """Write the columns side by side under `header`; the shortest column ends the table.

    Float columns are written with repr and an empty cell for NaN, int and
    str columns with str.
    """
    rows = zip(*map(_cells, columns))
    write_artifact(path, "\n".join([header, *map(",".join, rows)]) + "\n")


def write_complex_csv(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix))
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(m.shape[1]))
    # row-wise: formatting K as columns and zipping them costs a warm custom call about 9%
    if m.dtype.kind in "biuf" and m.size:  # every imaginary cell is 0.0: format only the real ones
        rows = [",0.0,".join(map(repr, row)) + ",0.0" for row in m.astype(float).tolist()]
    else:
        pairs = np.empty((m.shape[0], 2 * m.shape[1]))
        pairs[:, 0::2], pairs[:, 1::2] = m.real, m.imag
        rows = [",".join(map(repr, row)) for row in pairs.tolist()]
    write_artifact(path, "\n".join([header] + rows) + "\n")


def write_summary(path, experiment: str, config, started: float, **keys) -> dict:
    """Write summary.json: schema, experiment, the config's fields (tuples as lists), the
    route's keys and the runtime_seconds since perf_counter() read `started`; returns the payload."""
    summary = {"schema": 1, "experiment": experiment, "config": asdict(config), **keys}
    summary["runtime_seconds"] = time.perf_counter() - started
    write_artifact(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
