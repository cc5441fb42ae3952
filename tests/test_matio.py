"""Tests for artifact writing (columnar CSVs, a real matrix's re/im-pair CSV, .npy arrays) and the refusal of a damaged matrix CSV."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdmd.cli as cli
import hdmd.matio
from hdmd.cli import read_points_csv
from hdmd.matio import float_text, write_artifact, write_complex_csv, write_csv


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (5, 7)])
def test_csv_round_trip_bitwise(rng, shape, tmp_path):
    m = rng.normal(size=shape) * np.logspace(-300, 300, shape[1])
    path = tmp_path / "m.csv"
    write_complex_csv(m, path)
    columns = read_points_csv(path)  # re/im pairs: the real entries, then zeros
    assert np.array_equal(columns[:, 0::2], m) and not np.any(columns[:, 1::2])


def test_csv_text_matches_per_entry_formatting(rng, tmp_path):
    """The writer emits the bytes of formatting each real entry with repr, and 0.0 for its imaginary part."""
    m = rng.normal(size=(4, 5)) * np.logspace(-300, 300, 5)
    m[0, :4] = [-0.0, np.inf, np.nan, 1e-320]
    lines = [",".join(f"c{j}_re,c{j}_im" for j in range(5))]
    lines += [",".join(f"{float(v)!r},0.0" for v in row) for row in m]
    write_complex_csv(m, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == "\n".join(lines) + "\n"
    write_complex_csv(np.arange(6).reshape(2, 3), tmp_path / "int.csv")  # an int matrix is written as floats
    write_complex_csv(np.arange(6.0).reshape(2, 3), tmp_path / "float.csv")
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


def test_csv_refuses_a_complex_matrix(tmp_path):
    with pytest.raises(TypeError, match="complex"):
        write_complex_csv(np.ones((2, 2), dtype=complex), tmp_path / "m.csv")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "columns, body",
    [
        # measure.csv: floats in shortest round-trip form
        (([0.1, -0.0, 1e-320], [1 / 3, np.inf, 2.5e300]), ["0.1,0.3333333333333333", "-0.0,inf", "1e-320,2.5e+300"]),
        # a probe CSV: int, str and float columns
        (([4, 16], ["k=0", "k=0|floor"], [0.0, 1.5]), ["4,k=0,0.0", "16,k=0|floor,1.5"]),
        # clustered.csv: an empty cluster has an empty location cell and atom_count 0
        (([1.0, 2.0], [1.25, np.nan], [0.5, 0.0], [2, 0]), ["1.0,1.25,0.5,2", "2.0,,0.0,0"]),
        # eigenvalues.csv: the shortest column ends the table
        ((np.arange(3), [0.5, 1.5], [1.0, 2.0, 2.0, 3.0]), ["0,0.5,1.0", "1,1.5,2.0"]),
        # a float column formatted once for two CSVs is written as the floats themselves would be
        ((float_text([0.1, np.nan, 1e-320]), [1 / 3, 0.0, 2.5e300]),
         ["0.1,0.3333333333333333", ",0.0", "1e-320,2.5e+300"]),
    ],
    ids=["floats", "int-str-float", "empty-cluster", "shortest-column", "float-text"],
)
def test_write_csv_layout(tmp_path, columns, body):
    write_csv(tmp_path / "t.csv", "h", *columns)
    assert (tmp_path / "t.csv").read_text() == "\n".join(["h", *body]) + "\n"


def test_write_csv_floats_round_trip_bitwise(rng, tmp_path):
    values = rng.normal(size=50) * np.logspace(-300, 300, 50)
    write_csv(tmp_path / "t.csv", "x", values)
    assert np.array_equal(np.loadtxt(tmp_path / "t.csv", skiprows=1), values)


def test_csv_header_names_columns(tmp_path):
    write_complex_csv(np.zeros((1, 2)), tmp_path / "m.csv")
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "c0_re,c0_im,c1_re,c1_im"


# a damaged koopman_edmd.csv, as the tests read it with read_points_csv: refused, naming the file and line
def test_csv_rejects_ragged_rows(tmp_path):
    write_complex_csv(np.eye(2), tmp_path / "bad.csv")
    with open(tmp_path / "bad.csv", "a") as f:
        f.write("1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 4: expected 4 columns, got 1"):
        read_points_csv(tmp_path / "bad.csv")


def test_csv_rejects_empty(tmp_path):
    (tmp_path / "bad.csv").write_text("")
    with pytest.raises(ValueError, match=r"bad\.csv: empty"):
        read_points_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_with_file_and_line(tmp_path, bad):
    write_complex_csv(np.eye(2), tmp_path / "bad.csv")
    lines = (tmp_path / "bad.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + f",{bad}"
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: non-finite"):
        read_points_csv(tmp_path / "bad.csv")


def test_write_artifact_replaces_the_file_instead_of_truncating_it(tmp_path):
    # a hard link to the old file keeps the old text only if the writer made a new file
    path, link = tmp_path / "a.csv", tmp_path / "link.csv"
    write_artifact(path, ["a\n", "b\n"])
    link.hardlink_to(path)
    write_artifact(path, (line for line in ["c\n", "d\n"]))
    assert path.read_text() == "c\nd\n"
    assert link.read_text() == "a\nb\n"


def test_write_artifact_replaces_an_array_file_instead_of_truncating_it(rng, tmp_path):
    # as for text: the old .npy survives under a hard link only if the writer made a new file
    path, link = tmp_path / "k.npy", tmp_path / "link.npy"
    old, new = rng.normal(size=(3, 3)), rng.normal(size=(5, 7)) * np.logspace(-300, 300, 7)
    new[0, :4] = [-0.0, np.inf, np.nan, 1e-320]
    write_artifact(path, old)
    link.hardlink_to(path)
    write_artifact(path, new)
    loaded = np.load(path)  # bitwise, with its dtype and shape
    assert loaded.dtype == np.float64 and loaded.shape == (5, 7) and loaded.tobytes() == new.tobytes()
    assert np.load(link).tobytes() == old.tobytes()


def cli_runs(tmp_path):
    """argv (without --out) of a small run per subcommand; custom's covers K_edmd's CSV and K_herm's .npy."""
    x = np.random.default_rng(11).uniform(-5.0, 5.0, size=(300, 2))
    for name, points in (("x.csv", x), ("y.csv", 0.9 * x[:, ::-1])):
        (tmp_path / name).write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
    config = tmp_path / "small.cfg"
    config.write_text("schema = 1\ndict_per_axis = 4\nrank_tolerance = 1e-8\n")
    return {
        "schrodinger": ["schrodinger"],
        "probes": ["probes"],
        "custom": ["custom", "--config", str(config), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")],
    }


@pytest.mark.parametrize("command", ["schrodinger", "probes", "custom"])
def test_a_reused_out_gets_new_files(tmp_path, command):
    # each artifact of a second run into the same --out is a new file (a new inode), and the first run's
    # file, kept alive under a hard link so its inode cannot be reused, still holds the first run's bytes
    argv = cli_runs(tmp_path)[command] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    (tmp_path / "old").mkdir()
    old = {}
    for path in (tmp_path / "out").iterdir():
        os.link(path, tmp_path / "old" / path.name)
        old[path.name] = os.stat(path).st_ino, path.read_bytes()
    assert cli.main(argv) == 0
    assert sorted(old) == sorted(path.name for path in (tmp_path / "out").iterdir())
    for name, (inode, data) in old.items():
        assert os.stat(tmp_path / "out" / name).st_ino != inode, name
        assert (tmp_path / "old" / name).read_bytes() == data, name


@pytest.mark.parametrize("command", ["schrodinger", "custom"])
def test_artifacts_are_the_bytes_of_a_text_mode_write(tmp_path, monkeypatch, command):
    # every text artifact (the CSVs, K_edmd's CSV, summary.json) holds the bytes that writing its strings to a
    # file opened in text mode gives; an array artifact (K_herm) loads back with the bits it was written with
    written = {}
    write_artifact = hdmd.matio.write_artifact

    def recording(path, content):
        content = content if isinstance(content, np.ndarray) else list(content)
        written[Path(path).name] = content
        write_artifact(path, content)

    monkeypatch.setattr(hdmd.matio, "write_artifact", recording)
    monkeypatch.setattr(cli, "write_artifact", recording)
    assert cli.main(cli_runs(tmp_path)[command] + ["--out", str(tmp_path / "out")]) == 0
    names = {"eigenvalues.csv", "measure.csv", "summary.json"}
    assert set(written) == names | ({"clustered.csv"} if command == "schrodinger" else {
        "koopman_edmd.csv", "koopman_hermitian.npy"})
    for name, content in written.items():
        data = (tmp_path / "out" / name).read_bytes()
        if isinstance(content, np.ndarray):
            loaded = np.load(tmp_path / "out" / name)
            assert loaded.dtype == content.dtype and loaded.shape == content.shape
            assert loaded.tobytes() == content.tobytes()
            continue
        with open(tmp_path / "text", "w") as f:
            f.writelines(content)
        assert data == (tmp_path / "text").read_bytes(), name


def test_complex_csv_holds_one_row_of_text_at_a_time(rng, tmp_path):
    m = rng.normal(size=(600, 600))
    tracemalloc.start()
    try:
        write_complex_csv(m, tmp_path / "m.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole text as one string (or a list of its rows) would be more than the file itself
    assert peak < (tmp_path / "m.csv").stat().st_size / 10
