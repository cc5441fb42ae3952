"""Tests for complex-matrix CSV serialization and the tests' CSV reader."""

import numpy as np
import pytest
from csv_helpers import read_complex_csv

from hdmd.matio import format_float, write_complex_csv


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (5, 7)])
def test_csv_round_trip_bitwise(rng, shape, tmp_path):
    m = random_complex(rng, shape)
    path = tmp_path / "m.csv"
    write_complex_csv(m, path)
    assert np.array_equal(read_complex_csv(path), m)


def test_csv_text_matches_per_entry_formatting(rng, tmp_path):
    """The vectorized writer emits the same bytes as formatting each entry with format_float."""
    m = random_complex(rng, (4, 5)) * np.logspace(-300, 300, 5)
    m[0, :4] = [-0.0, np.inf, complex(0.0, np.nan), 1e-320j]
    lines = [",".join(f"c{j}_re,c{j}_im" for j in range(5))]
    lines += [",".join(f"{format_float(v.real)},{format_float(v.imag)}" for v in row) for row in m]
    write_complex_csv(m, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == "\n".join(lines) + "\n"
    write_complex_csv(m.real, tmp_path / "real.csv")
    write_complex_csv(m.real.astype(complex), tmp_path / "cast.csv")
    assert (tmp_path / "real.csv").read_bytes() == (tmp_path / "cast.csv").read_bytes()


def test_csv_header_names_columns(tmp_path):
    write_complex_csv(np.zeros((1, 2), dtype=complex), tmp_path / "m.csv")
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "c0_re,c0_im,c1_re,c1_im"


def test_csv_rejects_odd_columns(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="even number"):
        read_complex_csv(tmp_path / "bad.csv")


def test_csv_rejects_ragged_rows(tmp_path):
    (tmp_path / "bad.csv").write_text("c0_re,c0_im\n1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_complex_csv(tmp_path / "bad.csv")


def test_csv_rejects_empty(tmp_path):
    (tmp_path / "bad.csv").write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_complex_csv(tmp_path / "bad.csv")



@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_with_file_and_line(tmp_path, bad):
    (tmp_path / "bad.csv").write_text(f"c0_re,c0_im\n1.0,2.0\n3.0,{bad}\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
        read_complex_csv(tmp_path / "bad.csv")
