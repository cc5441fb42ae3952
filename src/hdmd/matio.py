"""Complex-matrix serialization: CSV (re/im column pairs) and a binary layout.

CSV layout
    One header row ``c0_re,c0_im,c1_re,c1_im,...`` followed by one row per
    matrix row.  Floats are written with ``repr`` so values round-trip
    bitwise through the text format.

Binary layout (little-endian throughout)
    bytes 0..4   magic ``b"HDMD1"``
    bytes 5..12  u64 number of rows
    bytes 13..20 u64 number of columns
    then rows*cols (re, im) f64 pairs in row-major order.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_MAGIC = b"HDMD1"


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


def write_complex_binary(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    payload = np.empty((m.shape[0], 2 * m.shape[1]), dtype="<f8")
    payload[:, 0::2] = m.real
    payload[:, 1::2] = m.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(payload.tobytes())


def read_complex_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 16:
        raise ValueError(f"{path}: truncated header")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic bytes {raw[:len(_MAGIC)]!r}")
    rows, cols = struct.unpack_from("<QQ", raw, len(_MAGIC))
    expected = len(_MAGIC) + 16 + rows * cols * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f8", offset=len(_MAGIC) + 16)
    pairs = flat.reshape(rows, 2 * cols) if cols else flat.reshape(rows, 0)
    return (pairs[:, 0::2] + 1j * pairs[:, 1::2]).astype(complex)
