"""The on-disk format of every artifact: columnar CSVs, the K matrices and summary.json.

Each CSV is one header row, then one row per line.  Floats are written with
``repr``, so values round-trip bitwise through the text.  A run of bit-equal floats in a column is
formatted once: the Kronecker route's equal axes share one solve, so each mu_i + mu_j, i != j, is two
atoms of equal bits.  K_edmd's CSV keeps a complex matrix's header ``c0_re,c0_im,c1_re,...`` and has
``0.0`` in every imaginary cell; K_herm is ``.npy``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from itertools import chain

import numpy as np


def write_artifact(path, content) -> None:
    """Write an ndarray (as .npy) or an iterable of strings to path as a new file, opened once in binary: truncating
    a just-written file instead makes ext4 flush its data first, about 60 ms per CSV of a reused --out."""
    with suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "wb") as f:
        if isinstance(content, np.ndarray):
            np.save(f, content, allow_pickle=False)  # bitwise, and no text to format
        else:
            f.writelines(map(str.encode, content))  # one write for a single string, as write_csv passes


# an iterator, not a list: the cells of a column are not held beside the rows' text
def _cells(column):
    values = np.asarray(column)
    kind, values = values.dtype.kind, values.tolist()  # the array is not held while the cells are made
    if kind != "f":
        yield from values if kind == "O" else map(str, values)  # an object column holds `float_text`'s str
        return
    last = text = None
    for v in values:
        if v != last or not v:  # equal nonzero floats have equal bits; a zero is formatted again for -0.0's sign
            last, text = v, "" if v != v else repr(v)  # v != v only for NaN, which equals nothing, not even last
        yield text


def float_text(column) -> np.ndarray:
    """`write_csv`'s cells of a float column as an array of str, which `write_csv` writes as they
    are: a column that several CSVs share is formatted once."""
    return np.fromiter(_cells(np.asarray(column, dtype=float)), dtype=object)


def write_csv(path, header: str, *columns) -> None:
    """Write the columns side by side under `header`; the shortest column ends the table.

    Float columns are written with repr and an empty cell for NaN, int and
    str columns with str.
    """
    rows = zip(*map(_cells, columns))
    write_artifact(path, ["\n".join([header, *map(",".join, rows), ""])])  # ends in a newline, with no second copy


def write_complex_csv(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix)).astype(float, casting="safe", copy=False)  # a complex matrix raises
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(m.shape[1]))
    # row by row, so only one row's text is held; as columns zipped, a warm custom call costs about 9% more
    lines = (",0.0,".join(map(repr, row.tolist())) + ",0.0\n" for row in m)  # only the real cells are formatted
    write_artifact(path, chain([header + "\n"], lines))


def write_summary(path, experiment: str, config, started: float, **keys) -> dict:
    """Write summary.json: schema, experiment, the config's fields (tuples as lists), the
    route's keys and the runtime_seconds since perf_counter() read `started`; returns the payload."""
    summary = {"schema": 1, "experiment": experiment, "config": dict(vars(config)), **keys}
    summary["runtime_seconds"] = time.perf_counter() - started
    write_artifact(path, [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    return summary
