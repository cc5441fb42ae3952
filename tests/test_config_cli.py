"""Tests for the config format and the command-line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from csv_helpers import read_complex_csv

import hdmd.cli as cli
from hdmd.config import ConfigError, default_config, load_config, validate
from hdmd.dictionary import FeatureMatrices, gaussian_centers
from hdmd.dmd import assemble_gram_pair, edmd, eigendecompose, hermitian_dmd
from hdmd.quadrature import monte_carlo
from hdmd.spectral import cluster_table, project_observable, spectral_measure


def write_config(tmp_path, body: str, name="exp.cfg"):
    path = tmp_path / name
    path.write_text("schema = 1\n" + body)
    return path


def write_points(path, pts):
    lines = ["x1,x2"] + [",".join(repr(float(c)) for c in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")


def symmetric_grid_points():
    g = np.linspace(-4.8, 4.8, 21)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def traced_peak(argv) -> tuple[int, int]:
    """Exit code and tracemalloc peak of one cli.main call."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


# ------------------------------------------------------------------
# config parsing
# ------------------------------------------------------------------


def test_defaults_mirror_benchmark():
    c = default_config()
    assert c.grid == (75, 75)
    assert c.dict_per_axis == 20
    assert c.dict_width == 3.0
    assert c.dict_amplitude == 1 + 1j
    assert c.rank_tolerance == 1e-12
    assert c.cluster_radius == 0.4


def test_minimal_file_equals_defaults(tmp_path):
    path = write_config(tmp_path, "")
    assert load_config(path) == default_config()


def test_full_round_trip(tmp_path):
    path = write_config(
        tmp_path,
        "experiment = probes\n"
        "grid = 40 50\n"
        "# a comment\n"
        "dict_per_axis = 5\n"
        "dict_width = 1.5\n"
        "rank_tolerance = 1e-10\n"
        "probe_sizes = 2 4 8\n"
        "probe_n_ref = 64\n"
        "seed = 7\n",
    )
    c = load_config(path)
    assert c.experiment == "probes"
    assert c.grid == (40, 50)
    assert c.dict_per_axis == 5
    assert c.probe_sizes == (2, 4, 8)
    assert c.seed == 7


def test_single_grid_count_broadcasts(tmp_path):
    c = load_config(write_config(tmp_path, "grid = 60\n"))
    assert c.grid == (60, 60)


def test_unknown_key_rejected_with_line(tmp_path):
    path = write_config(tmp_path, "grid = 40 40\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match=r"line 3.*not_a_key"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_missing_schema_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("grid = 40 40\n")
    with pytest.raises(ConfigError, match="schema"):
        load_config(path)


def test_wrong_schema_version_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("schema = 2\n")
    with pytest.raises(ConfigError, match="unsupported schema"):
        load_config(path)


def test_unparseable_value_names_key(tmp_path):
    path = write_config(tmp_path, "dict_width = wide\n")
    with pytest.raises(ConfigError, match="dict_width"):
        load_config(path)


def test_validation_names_field(tmp_path):
    with pytest.raises(ConfigError, match="dict_width"):
        load_config(write_config(tmp_path, "dict_width = -3\n"))
    with pytest.raises(ConfigError, match="cluster_radius"):
        load_config(write_config(tmp_path, "cluster_radius = 0.6\n"))
    with pytest.raises(ConfigError, match="probe_sizes"):
        load_config(write_config(tmp_path, "probe_sizes = 8 4\n"))
    with pytest.raises(ConfigError, match="experiment"):
        load_config(write_config(tmp_path, "experiment = nope\n"))


def test_validate_is_idempotent():
    c = validate(default_config())
    assert validate(c) == c


# ------------------------------------------------------------------
# schrodinger subcommand
# ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schro")
    cfg = tmp / "exp.cfg"
    cfg.write_text(
        "schema = 1\ngrid = 40 40\ndict_per_axis = 10\nenergy_cutoff = 4\n"
    )
    out = tmp / "out"
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)])
    return code, out, cfg


def test_schrodinger_exit_code_and_artifacts(small_run):
    code, out, _ = small_run
    assert code == 0
    for name in ("eigenvalues.csv", "measure.csv", "clustered.csv", "summary.json"):
        assert (out / name).exists()


def test_schrodinger_summary_contents(small_run):
    _, out, _ = small_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hermiticity_residual"] <= 1e-10
    assert summary["dictionary_size"] == 100
    assert summary["total_mass"] == pytest.approx(summary["observable_mass"], rel=1e-10)
    assert summary["runtime_seconds"] > 0
    assert summary["retained_rank"] == 100
    assert summary["axis_retained_ranks"] == [10, 10]
    assert summary["g_eigen_floor"] > 0
    assert summary["gram_condition_number"] >= 1.0


def test_schrodinger_ground_state_recovery(small_run):
    # dictionary-limited accuracy at N=100: empirically the ground state
    # lands within 0.1 of the exact energy 1 on the 40x40 grid
    _, out, _ = small_run
    rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
    first = rows[0].split(",")
    assert abs(float(first[1]) - 1.0) <= 0.1
    assert float(first[2]) == 1.0


def test_schrodinger_deterministic_output(small_run, tmp_path):
    _, out, cfg = small_run
    out2 = tmp_path / "again"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("eigenvalues.csv", "measure.csv", "clustered.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_schrodinger_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema = 1\ndict_width = -3\n")
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dict_width" in capsys.readouterr().err


def test_schrodinger_fails_loudly_on_hermiticity_breach(tmp_path, monkeypatch):
    # a residual above 1e-8 cannot arise from honest data; force one
    import hdmd.schrodinger

    monkeypatch.setattr(hdmd.schrodinger.KroneckerEig, "hermiticity_residual", lambda self: 1e-3)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("schema = 1\ngrid = 20 20\ndict_per_axis = 3\nenergy_cutoff = 2\n")
    out = tmp_path / "out"
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hermiticity_residual"] == 1e-3  # reported even on failure


def read_clusters(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(float(r[0]), float(r[1]) if r[1] else float("nan"), float(r[2])) for r in rows]


def test_schrodinger_separable_path_matches_dense_pipeline(bench75, tmp_path):
    """The CLI's Kronecker-sum route reproduces the dense 75x75 pipeline.

    Compared: the first 100 eigenvalues, and the weight and location of every
    cluster heavier than 1e-6.  Not compared: zero-mass clusters and the
    per-atom weights in measure.csv, which inside an exactly degenerate
    eigenspace depend on the eigenbasis LAPACK picks there; cluster sums do
    not.
    """
    out = tmp_path / "out"
    assert cli.main(["schrodinger", "--out", str(out)]) == 0
    computed = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(computed[:100] - bench75["eig"].eigenvalues[:100])) <= 1e-12

    clusters = read_clusters(out / "clustered.csv")
    dense, _ = cluster_table(bench75["measure"], [c[0] for c in clusters], default_config().cluster_radius)
    heavy = 0
    for (ref, loc, weight), (_, dense_loc, dense_weight, _) in zip(clusters, dense):
        assert (weight > 1e-6) == (dense_weight > 1e-6), ref
        if dense_weight > 1e-6:
            heavy += 1
            assert weight == pytest.approx(dense_weight, rel=1e-10)
            assert loc == pytest.approx(dense_loc, rel=1e-10)
    assert heavy >= 5


# ------------------------------------------------------------------
# probes subcommand
# ------------------------------------------------------------------


def test_probes_artifacts_and_trivial_reference(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("schema = 1\nprobe_n_ref = 128\nprobe_sizes = 2 4 8 64\nprobe_max_moment = 4\n")
    out = tmp_path / "out"
    assert cli.main(["probes", "--config", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "resolvent_free_jacobi.csv", "moments_free_jacobi.csv", "weak_free_jacobi.csv",
        "resolvent_diagonal.csv", "moments_diagonal.csv", "weak_diagonal.csv",
        "summary.json",
    }
    for line in (out / "resolvent_diagonal.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[2]) == 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_ref"] == 128
    assert "resolution_floors" in summary


# ------------------------------------------------------------------
# custom subcommand
# ------------------------------------------------------------------


def test_custom_planted_reflection_recovery(tmp_path):
    # y = -x permutes the symmetric Gaussian center grid, so the planted
    # operator is the (G-Hermitian) permutation matrix
    pts = symmetric_grid_points()
    write_points(tmp_path / "x.csv", pts)
    write_points(tmp_path / "y.csv", -pts)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schema = 1\ndict_per_axis = 4\n")
    out = tmp_path / "out"
    code = cli.main([
        "custom", "--config", str(cfg), "--out", str(out),
        str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
    ])
    assert code == 0

    recovered = read_complex_csv(out / "koopman_hermitian.csv")
    centers = gaussian_centers([(-4, 4), (-4, 4)], 4)
    planted = np.zeros((16, 16))
    for j, c in enumerate(centers):
        planted[int(np.argmin(np.sum((centers + c) ** 2, axis=1))), j] = 1.0
    assert np.max(np.abs(recovered - planted)) <= 1e-8

    edmd_matrix = read_complex_csv(out / "koopman_edmd.csv")
    assert np.max(np.abs(edmd_matrix - planted)) <= 1e-8


def test_custom_identity_data_single_eigenvalue_one(tmp_path, rng):
    pts = rng.uniform(-4, 4, size=(60, 2))
    write_points(tmp_path / "x.csv", pts)
    write_points(tmp_path / "y.csv", pts)  # y = x
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schema = 1\ndict_per_axis = 1\n")  # single-function dictionary
    out = tmp_path / "out"
    assert cli.main([
        "custom", "--config", str(cfg), "--out", str(out),
        str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
    ]) == 0
    rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_custom_empty_file_exits_2(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("")
    (tmp_path / "y.csv").write_text("x1,x2\n0.0,0.0\n")
    code = cli.main(["custom", "--out", str(tmp_path / "o"),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_custom_parse_error_reports_line(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("x1,x2\n0.0,0.0\n0.0,oops\n")
    (tmp_path / "y.csv").write_text("x1,x2\n0.0,0.0\n0.0,0.0\n")
    code = cli.main(["custom", "--out", str(tmp_path / "o"),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_custom_non_finite_value_exits_2(tmp_path, capsys, bad):
    (tmp_path / "x.csv").write_text(f"x1,x2\n0.0,0.0\n{bad},1.0\n")
    (tmp_path / "y.csv").write_text("x1,x2\n0.0,0.0\n0.0,1.0\n")
    out = tmp_path / "o"
    code = cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "x.csv" in err and "line 3" in err and "non-finite" in err
    assert not out.exists()


def swap_points(seed=11, half=10_000):
    """Seeded points uniform in [-5, 5]^2 plus their coordinate swaps (M = 2 * half)."""
    points = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(half, 2))
    return np.vstack([points, points[:, ::-1]])


def line_parser_only(monkeypatch):
    """Make the loadtxt pass fail, so `read_points_csv` falls through to its line parser."""

    def reject(*args, **kwargs):
        raise ValueError("loadtxt disabled")

    monkeypatch.setattr(np, "loadtxt", reject)


def test_read_points_fast_path_equals_line_parser_bitwise(tmp_path, monkeypatch):
    write_points(tmp_path / "x.csv", swap_points())
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    fast = cli.read_points_csv(tmp_path / "x.csv")
    assert calls == [1]
    line_parser_only(monkeypatch)
    parsed = cli.read_points_csv(tmp_path / "x.csv")
    assert fast.dtype == parsed.dtype == np.float64 and fast.shape == parsed.shape == (20_000, 2)
    assert fast.tobytes() == parsed.tobytes()


@pytest.mark.parametrize(
    "text, rows",
    [
        ("x1,x2\n1.0,2.0\n   \n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),  # whitespace-only line skipped
        ("x1,x2\n1_0,2.0\n", [[10.0, 2.0]]),  # float() accepts digit separators
        ("x1,x2\r\n1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]]),  # CRLF
        ("t\n0.5\n-1.5\n", [[0.5], [-1.5]]),  # one column
    ],
)
def test_read_points_accepts_what_the_line_parser_accepts(tmp_path, monkeypatch, text, rows):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.read_points_csv(path)
    assert not caught
    assert got.dtype == np.float64 and got.tobytes() == np.array(rows).tobytes() and got.shape == np.shape(rows)
    line_parser_only(monkeypatch)
    assert cli.read_points_csv(path).tobytes() == got.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty snapshot file"),
        ("\n1.0,2.0\n", "empty snapshot file"),  # a blank header is not skipped
        ("x1,x2\n", "no data rows"),
        ("x1,x2\n\n  \n", "no data rows"),
        ("x1,x2\n1.0,2.0\n# note\n3.0,4.0\n", "line 3: expected 2 columns, got 1"),
        ("x1,x2\n1.0,2.0\n3.0\n", "line 3: expected 2 columns, got 1"),
        ("x1,x2\n1.0,2.0\n3.0,\n", "line 3: non-numeric value in '3.0,'"),
        ("x1,x2\n1.0,2.0\nnan,1.0\n", "line 3: non-finite value in 'nan,1.0'"),
        ("x1,x2\ninf,1.0\n", "line 2: non-finite value in 'inf,1.0'"),
        ("x1,x2\n1.0,-inf\n", "line 2: non-finite value in '1.0,-inf'"),
        ("x1,x2\r\n1.0,2.0\r\n1.0,x\r\n", "line 3: non-numeric value in '1.0,x'"),
    ],
)
def test_custom_bad_snapshot_file_message_names_file_and_line(tmp_path, capsys, text, message):
    (tmp_path / "x.csv").write_bytes(text.encode())
    write_points(tmp_path / "y.csv", np.zeros((2, 2)))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert not caught
    assert code == 2
    assert capsys.readouterr().err == f"hdmd: {tmp_path / 'x.csv'}: {message}\n"
    assert not out.exists()


def test_custom_reports_gram_spectrum(tmp_path):
    pts = symmetric_grid_points()
    write_points(tmp_path / "x.csv", pts)
    write_points(tmp_path / "y.csv", -pts)
    cfg = write_config(tmp_path, "dict_per_axis = 4\n")
    out = tmp_path / "out"
    assert cli.main(["custom", "--config", str(cfg), "--out", str(out),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["retained_rank"] == 16
    assert 0 < summary["g_eigen_floor"] < 1e-12
    assert 1.0 <= summary["gram_condition_number"] < 1e12


@pytest.mark.parametrize(
    "error", [np.linalg.LinAlgError("Eigenvalues did not converge"), MemoryError()]
)
def test_numerical_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    import hdmd.schrodinger

    monkeypatch.setattr(hdmd.schrodinger, "hermitian_dmd", fail)  # the per-axis solve
    cfg = write_config(tmp_path, "grid = 20 20\ndict_per_axis = 3\nenergy_cutoff = 2\n")
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and type(error).__name__ in err


def test_custom_shape_mismatch_exits_2(tmp_path, capsys):
    write_points(tmp_path / "x.csv", np.zeros((3, 2)))
    write_points(tmp_path / "y.csv", np.zeros((4, 2)))
    code = cli.main(["custom", "--out", str(tmp_path / "o"),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    assert "differ" in capsys.readouterr().err


def complex_swap_pipeline(x, y):
    """The custom pipeline with Psi_X, Psi_Y materialized in complex (the pre-streaming route)."""
    config = default_config()
    centers = gaussian_centers(config.dictionary_box(2), config.dict_per_axis)
    psi = [np.empty((x.shape[0], centers.shape[0]), dtype=complex) for _ in range(2)]
    for start in range(0, x.shape[0], 4096):
        for out, pts in zip(psi, (x, y)):
            d2 = np.sum((pts[start : start + 4096, None, :] - centers[None, :, :]) ** 2, axis=2)
            out[start : start + 4096] = config.dict_amplitude * np.exp(-config.dict_width * d2)
    features = FeatureMatrices(psi_x=psi[0], psi_y=psi[1], rank_tolerance_used=config.rank_tolerance)
    quad = monte_carlo(x, total_mass=1.0)
    pair = assemble_gram_pair(features, quad)
    eig = eigendecompose(hermitian_dmd(pair))
    measure = spectral_measure(eig, project_observable(psi[0][:, 0], features, quad, pair=pair))
    return edmd(pair).k, hermitian_dmd(pair).k, eig.eigenvalues, measure


def cluster_masses(locations, weights):
    return [float(np.sum(weights[np.abs(locations - s) <= 1e-6])) for s in (1.0, -1.0)]


def test_custom_streamed_swap_matches_complex_pipeline_without_mxn_arrays(tmp_path):
    # the coordinate swap on 10,000 seeded points plus their swaps (M = 20,000, N = 400)
    x = swap_points()
    y = x[:, ::-1]
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", y)
    argv = ["custom", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), "--out"]

    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    # one complex 20,000 x 400 matrix alone is 128 MB, one 4096-row real block 13 MB;
    # the streamed run stays far below the first and has no room for an extra block
    assert peak < 64e6
    assert cli.main(argv + [str(tmp_path / "again")]) == 0
    for name in ("eigenvalues.csv", "measure.csv", "koopman_edmd.csv", "koopman_hermitian.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    out = tmp_path / "out"
    k_edmd, k_herm, eigenvalues, measure = complex_swap_pipeline(x, y)
    streamed_edmd = read_complex_csv(out / "koopman_edmd.csv")
    streamed_herm = read_complex_csv(out / "koopman_hermitian.csv")
    assert np.all(streamed_edmd.imag == 0) and np.all(streamed_herm.imag == 0)
    assert np.max(np.abs(streamed_edmd - k_edmd)) <= 1e-9
    assert np.max(np.abs(streamed_herm - k_herm)) <= 1e-9
    streamed_eigs = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(streamed_eigs - eigenvalues)) <= 1e-9
    assert np.count_nonzero(np.abs(streamed_eigs - 1) <= 1e-8) == 210
    assert np.count_nonzero(np.abs(streamed_eigs + 1) <= 1e-8) == 190
    # per-atom weights inside the 210- and 190-fold eigenspaces depend on the
    # eigenbasis chosen there, so only the mass of each cluster is compared
    atoms = np.loadtxt(out / "measure.csv", delimiter=",", skiprows=1)
    streamed = cluster_masses(atoms[:, 0], atoms[:, 1])
    oracle = cluster_masses(measure.locations, measure.weights)
    assert streamed == pytest.approx(oracle, rel=1e-9, abs=1e-15)


def test_custom_measure_mass_is_norm_of_first_function(tmp_path, rng):
    # the measure is taken against psi_0, whose coefficients are e_0: total mass = psi_0^* W psi_0
    x = rng.uniform(-4, 4, size=(300, 2))
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", 0.8 * x + 0.3 * np.sin(x[:, ::-1]))
    cfg = write_config(tmp_path, "dict_per_axis = 3\n")
    out = tmp_path / "out"
    assert cli.main(["custom", "--config", str(cfg), "--out", str(out),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 0
    config = default_config()
    c0 = gaussian_centers(config.dictionary_box(2), 3)[0]
    psi0 = config.dict_amplitude * np.exp(-config.dict_width * np.sum((x - c0) ** 2, axis=1))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_mass"] == pytest.approx(np.mean(np.abs(psi0) ** 2), rel=1e-10)


def test_custom_refuses_dictionary_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must refuse before the dictionary is built")

    monkeypatch.setattr(cli, "gaussian_grid_dictionary", unreachable)
    # 4 columns with the default dict_per_axis = 20 give N = 20^4 = 160,000
    (tmp_path / "x.csv").write_text("a,b,c,d\n0.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.0\n")
    (tmp_path / "y.csv").write_text("a,b,c,d\n0.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n")
    out = tmp_path / "o"
    code = cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "N = 160000" in err and "1525.9 GiB" in err and "physical memory" in err
    assert not out.exists()


def test_schrodinger_refuses_dictionary_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must refuse before the factors are built")

    monkeypatch.setattr(cli, "separable_snapshots", unreachable)
    # N = 10^12: the per-axis 10^6 x 10^6 matrices alone are 8 TB each
    cfg = write_config(tmp_path, "dict_per_axis = 1000000\n")
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "N = 1000000000000 on the 75 x 75 grid" in err and "physical memory" in err


def test_schrodinger_runs_dictionary_of_ten_thousand(tmp_path):
    # N = 100^2 = 10^4; a dense N x N float64 alone would be 800 MB
    cfg = write_config(tmp_path, "dict_per_axis = 100\n")
    out = tmp_path / "o"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dictionary_size"] == 10_000
    ranks = summary["axis_retained_ranks"]
    assert summary["retained_rank"] == ranks[0] * ranks[1] < 10_000
    assert summary["total_mass"] == pytest.approx(summary["observable_mass"], rel=1e-9)


def test_schrodinger_forms_no_n_by_n_array(tmp_path):
    # oscillator_wide: grid 60^2, 40^2 bumps, N = 1600; one N x N float64 is 20 MB
    cfg = write_config(tmp_path, "grid = 60 60\ndict_per_axis = 40\n")
    argv = ["schrodinger", "--config", str(cfg), "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0  # imports and caches outside the trace
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak < 4e6


@pytest.mark.parametrize(
    "grid, per_axis", [((60, 60), 40), ((40, 40), 200), ((600, 500), 10)], ids=["60sq-40", "40sq-200", "600x500-10"]
)
def test_schrodinger_size_estimate_covers_what_it_allocates(tmp_path, grid, per_axis):
    # the guard's estimate bounds the traced peak from above without overstating it tenfold
    cfg = write_config(tmp_path, f"grid = {grid[0]} {grid[1]}\ndict_per_axis = {per_axis}\n")
    argv = ["schrodinger", "--config", str(cfg), "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak <= cli._kronecker_bytes(grid, per_axis) <= 10 * peak


def test_console_entry_point_runs():
    # the child imports the same hdmd as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hdmd.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    # argparse --version exits 0 and prints the version string
    assert proc.returncode == 0
    assert "hdmd" in proc.stdout
