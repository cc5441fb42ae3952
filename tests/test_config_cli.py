"""Tests for the config format and the command-line front end."""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import hdmd.cli as cli
import hdmd.dictionary
import hdmd.matio
import hdmd.schrodinger
from hdmd.config import ConfigError, ExperimentConfig, default_config, load_config, validate
from hdmd.dictionary import FeatureMatrices, SnapshotFeatures, evaluate_snapshots, gaussian_grid_dictionary
from hdmd.dmd import assemble_gram_pair, edmd, eigendecompose, hermitian_dmd
from hdmd.quadrature import grid_nodes, monte_carlo
from hdmd.schrodinger import HarmonicOscillatorProblem, separable_snapshots
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
        "grid = 40 50\n"
        "# a comment\n"
        "dict_per_axis = 5\n"
        "dict_width = 1.5\n"
        "rank_tolerance = 1e-10\n"
        "cluster_radius = 0.3\n"
        "output_dir = elsewhere\n"
        "energy_cutoff = 9\n",
    )
    c = load_config(path)
    assert c.grid == (40, 50)
    assert c.dict_per_axis == 5
    assert c.dict_width == 1.5
    assert c.rank_tolerance == 1e-10
    assert c.cluster_radius == 0.3
    assert c.output_dir == "elsewhere"
    assert c.energy_cutoff == 9


def test_single_grid_count_broadcasts(tmp_path):
    c = load_config(write_config(tmp_path, "grid = 60\n"))
    assert c.grid == (60, 60)


def test_unknown_key_rejected_with_line(tmp_path):
    path = write_config(tmp_path, "grid = 40 40\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match=r"line 3.*not_a_key"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, "grid = 40 40\ngrid = 50 50\n")
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
    with pytest.raises(ConfigError, match="dict_per_axis"):
        load_config(write_config(tmp_path, "dict_per_axis = 0\n"))
    with pytest.raises(ConfigError, match="energy_cutoff"):
        load_config(write_config(tmp_path, "energy_cutoff = 0\n"))


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "infinity"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_exits_2_naming_key_and_line(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, f"grid = 20 20\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"line 3.*{key}.*finite"):
        load_config(cfg)
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_validate_rejects_non_finite_float_of_config_built_in_code(key, value):
    with pytest.raises(ConfigError, match=rf"^config error: {key} must be a finite number, got"):
        validate(replace(ExperimentConfig(), **{key: value}))


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


@pytest.mark.parametrize("amplitude", ["0", "1e-200", "1e200", "1e-77", "1e78"])
@pytest.mark.parametrize("command", ["schrodinger", "custom"])
def test_amplitude_whose_square_is_not_a_normal_float_exits_2_naming_key(tmp_path, capsys, command, amplitude):
    # |amp|^2 is 0 or underflows to 0 (G = 0, and the mass would divide by it) or overflows to inf,
    # or |amp|^4 does, so ||G K||_F would and the Hermiticity residual could read 0 (1e-77 and 1e78);
    # and the check itself must not raise
    cfg = write_config(tmp_path, f"grid = 20 20\ndict_amplitude_re = {amplitude}\ndict_amplitude_im = 0\n")
    write_points(tmp_path / "x.csv", symmetric_grid_points())
    snapshots = [str(tmp_path / "x.csv")] * 2 if command == "custom" else []
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *snapshots]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dict_amplitude_re" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, keys, message",
    [
        ("dict_box_min = -1e308\ndict_box_max = 1e308\n", ("dict_box_max", "dict_box_min"), "overflows a float"),
        ("rank_tolerance = 1\n", ("rank_tolerance",), "must be below 1"),
        ("rank_tolerance = 1e300\n", ("rank_tolerance",), "must be below 1"),
        ("rank_tolerance = 0\n", ("rank_tolerance",), "must be at least float64 epsilon"),
        ("rank_tolerance = 1e-300\n", ("rank_tolerance",), "must be at least float64 epsilon"),
    ],
    ids=["box-overflow", "tol-1", "tol-1e300", "tol-0", "tol-1e-300"],
)
@pytest.mark.parametrize("command", ["schrodinger", "custom"])
def test_config_no_run_can_use_exits_2_naming_keys_without_warnings(tmp_path, capsys, command, body, keys, message):
    # the box's width overflows to inf (every center and bump becomes inf or nan), and a cutoff
    # rank_tolerance * max eig(G) at or above the largest eigenvalue drops every direction; one below
    # eps * max eig(G) resolves nothing, and cond(G) can overflow to inf
    cfg = write_config(tmp_path, "grid = 20 20\n" + body)
    write_points(tmp_path / "x.csv", symmetric_grid_points())
    snapshots = [str(tmp_path / "x.csv")] * 2 if command == "custom" else []
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(cfg), "--out", str(out), *snapshots])
    assert not caught
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("hdmd: config error: ") and err.count("\n") == 1 and message in err
    assert all(key in err for key in keys)
    assert not out.exists()


def test_schrodinger_arithmetic_overflow_exits_1_with_one_line(tmp_path, capsys):
    # width^2 in the Hamiltonian multiplier overflows a Python float
    cfg = write_config(tmp_path, "grid = 20 20\ndict_width = 1e300\n")
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("hdmd: numerical failure: OverflowError")


@pytest.mark.parametrize("command", ["schrodinger", "probes", "custom"])
def test_empty_output_dir_exits_2_naming_the_key_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # Path("") is the current directory, where a run would have written its artifacts
    cfg = write_config(tmp_path, "output_dir =\n")
    write_points(tmp_path / "x.csv", symmetric_grid_points())
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli.main([command, "--config", str(cfg), *[str(tmp_path / "x.csv")] * 2 * (command == "custom")]) == 2
    err = capsys.readouterr().err
    assert err == "hdmd: config error: output_dir must not be empty: it would name the current directory\n"
    assert not any(cwd.iterdir())


def test_schrodinger_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema = 1\ndict_width = -3\n")
    code = cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dict_width" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["seed = 7", "experiment = probes", "probe_n_ref = 2000", "probe_sizes = 2 4", "probe_max_moment = 8"]
)
def test_dropped_keys_exit_2_as_unknown_naming_line(tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"schema = 1\ngrid = 20 20\n{line}\n")
    key = line.split()[0]
    for command in ("schrodinger", "probes"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"hdmd: config error (line 3): unknown key {key!r}\n"
        assert not (tmp_path / "o").exists()


def test_problem_default_dictionary_is_the_cli_default():
    """HarmonicOscillatorProblem's default and the dictionary cli builds from default_config() agree."""
    built = cli._dictionary(default_config(), 2)
    default = HarmonicOscillatorProblem().dictionary
    assert (default.width, default.amplitude) == (built.width, built.amplitude)
    assert len(default.axis_centers) == len(built.axis_centers) == 2
    for ours, theirs in zip(default.axis_centers, built.axis_centers):
        assert np.array_equal(ours, theirs)


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


def test_schrodinger_fails_on_nan_hermiticity_residual(tmp_path, monkeypatch, caplog):
    # NaN compares False with every limit, so the gate must not read "residual > limit"
    import hdmd.schrodinger

    monkeypatch.setattr(hdmd.schrodinger.KroneckerEig, "hermiticity_residual", lambda self: float("nan"))
    cfg = write_config(tmp_path, "grid = 20 20\ndict_per_axis = 3\nenergy_cutoff = 2\n")
    out = tmp_path / "out"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 1
    assert "hermiticity residual nan" in caplog.text


@pytest.mark.parametrize("grid, code", [(15, 0), (20, 1)])
def test_schrodinger_gate_verdict_on_coarse_grids_with_the_real_residual(tmp_path, caplog, grid, code):
    # with the default dictionary, cond(G) ~ 1e21 at 20^2 puts the residual near 2e-8; at 15^2 it is ~3e-12
    cfg = write_config(tmp_path, f"grid = {grid} {grid}\n")
    out = tmp_path / "out"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == code
    residual = json.loads((out / "summary.json").read_text())["hermiticity_residual"]
    assert (residual > cli.HERMITICITY_LIMIT) == bool(code)
    assert ("cond(G) = " in caplog.text) == bool(code)


def test_schrodinger_eigenvalues_csv_lists_every_computed_eigenvalue(tmp_path):
    # 40^2 narrow bumps retain 1600 eigenvalues, more than the 1378 exact
    # energies of levels 1..energy_cutoff + 40 that once sized the exact column
    cfg = write_config(tmp_path, "grid = 300 300\ndict_per_axis = 40\ndict_width = 8.0\n")
    out = tmp_path / "out"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 0
    measure = np.loadtxt(out / "measure.csv", delimiter=",", skiprows=1)
    table = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1)
    assert len(measure) == len(table) == 1600
    assert np.array_equal(table[:, 0], np.arange(1600))
    assert np.array_equal(table[:, 1], measure[:, 0])
    levels = np.arange(1, 58)  # 57 levels hold 1653 energies, 56 only 1596
    assert np.array_equal(table[:, 2], np.repeat(levels, levels)[:1600])


def test_schrodinger_clustered_csv_writes_empty_clusters(tmp_path):
    # 3^2 bumps give 9 eigenvalues, so most of the 12 reference energies get no atom
    cfg = write_config(tmp_path, "grid = 20 20\ndict_per_axis = 3\n")
    out = tmp_path / "out"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "clustered.csv").read_text().splitlines()
    assert lines[0] == "reference,location,weight,atom_count"
    assert len(lines) == 13 and "1.0,,0.0,0" in lines and "12.0,,0.0,0" in lines


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


def test_probes_artifacts(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["probes", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"resolvent_free_jacobi.csv", "moments_free_jacobi.csv", "weak_free_jacobi.csv", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_ref"] == 2000 and summary["truncation_sizes"] == [2, 4, 8, 16, 32, 800]
    assert not any(key.startswith("probe_") for key in summary["config"])
    floors = summary["resolution_floors"]
    assert floors.keys() == {"free_jacobi"} and floors["free_jacobi"].keys() == {"resolvent", "moments", "weak"}


def strict_json(path):
    """A summary.json parsed as strict JSON: NaN, Infinity and -Infinity raise."""

    def reject(constant):
        raise ValueError(f"{path}: non-finite {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def non_finite_cells(path) -> list[tuple[int, str]]:
    """(line, column) of each CSV cell that is empty (a NaN as written) or a non-finite float; text cells
    such as probe keys are skipped, and so is the empty location of an empty cluster in clustered.csv."""
    header, *lines = path.read_text().splitlines()
    bad = []
    for lineno, line in enumerate(lines, start=2):
        empty_cluster = path.name == "clustered.csv" and line.endswith(",0")
        for column, cell in zip(header.split(","), line.split(",")):
            try:
                finite = np.isfinite(float(cell))
            except ValueError:
                finite = bool(cell) or (empty_cluster and column == "location")
            if not finite:
                bad.append((lineno, column))
    return bad


def test_runs_that_exit_0_write_no_nan_or_infinity(tmp_path):
    points = swap_points(half=250)
    write_points(tmp_path / "x.csv", points)
    write_points(tmp_path / "y.csv", points[:, ::-1])
    runs = {
        "schrodinger": ([], ""),
        "custom": ([str(tmp_path / "x.csv"), str(tmp_path / "y.csv")], "rank_tolerance = 1e-9\n"),
        "probes": ([], ""),
    }
    for command, (snapshots, body) in runs.items():
        out = tmp_path / command
        cfg = write_config(tmp_path, body, name=f"{command}.cfg")
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *snapshots]) == 0
        strict_json(out / "summary.json")
        for path in out.glob("*.csv"):
            assert non_finite_cells(path) == [], path.name
        assert all(np.isfinite(np.load(path)).all() for path in out.glob("*.npy"))


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

    recovered = np.load(out / "koopman_hermitian.npy")
    centers = grid_nodes(gaussian_grid_dictionary([(-4, 4), (-4, 4)], 4, 1.0, 1.0).axis_centers)
    planted = np.zeros((16, 16))
    for j, c in enumerate(centers):
        planted[int(np.argmin(np.sum((centers + c) ** 2, axis=1))), j] = 1.0
    assert np.max(np.abs(recovered - planted)) <= 1e-8

    edmd_columns = cli.read_points_csv(out / "koopman_edmd.csv")  # re/im pairs
    assert not np.any(edmd_columns[:, 1::2])
    assert np.max(np.abs(edmd_columns[:, 0::2] - planted)) <= 1e-8


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


def test_custom_undecodable_snapshot_file_names_file(tmp_path, capsys):
    (tmp_path / "x.csv").write_bytes(b"x1,x2\n1.0,\xff\n")
    write_points(tmp_path / "y.csv", np.zeros((1, 2)))
    code = cli.main(["custom", "--out", str(tmp_path / "o"), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hdmd: {tmp_path / 'x.csv'}: line 2: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1


def test_undecodable_config_names_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"schema = 1\n# \xff\n")
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hdmd: config error: {cfg}: line 2: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    with pytest.raises(ConfigError, match="exp.cfg: line 2"):
        load_config(cfg)


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
    "error",
    [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        MemoryError(),
        OverflowError("Numerical result out of range"),
        ZeroDivisionError("float division by zero"),
    ],
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


def test_custom_hermitian_npy_is_the_in_process_matrix_bitwise(tmp_path, rng):
    x = rng.uniform(-4, 4, size=(500, 2))
    y = 0.8 * x + 0.3 * np.sin(x[:, ::-1])
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", y)
    cfg = write_config(tmp_path, "dict_per_axis = 5\nrank_tolerance = 1e-9\n")
    out = tmp_path / "out"
    assert cli.main(["custom", "--config", str(cfg), "--out", str(out),
                     str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 0
    config = load_config(cfg)
    x_pts, y_pts = cli.read_points_csv(tmp_path / "x.csv"), cli.read_points_csv(tmp_path / "y.csv")
    features = evaluate_snapshots(cli._dictionary(config, 2), x_pts, y_pts, rank_tolerance=config.rank_tolerance)
    k = hermitian_dmd(assemble_gram_pair(features, monte_carlo(x_pts, total_mass=1.0))).k
    written = np.load(out / "koopman_hermitian.npy")
    assert written.dtype == k.dtype == np.float64 and written.shape == k.shape == (25, 25)
    assert written.tobytes() == k.tobytes()


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
    centers = grid_nodes(cli._dictionary(config, 2).axis_centers)
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
    return edmd(pair), hermitian_dmd(pair).k, eig.eigenvalues, measure


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
    # one complex 20,000 x 400 matrix alone is 128 MB, a pair of 655-row real blocks 4.2 MB (of
    # 4096-row ones 26 MB); the peak, about 9.9 MB, is eigendecompose's temporaries beside G, A and Q
    assert peak < 11e6
    assert cli.main(argv + [str(tmp_path / "again")]) == 0
    for name in ("eigenvalues.csv", "measure.csv", "koopman_edmd.csv", "koopman_hermitian.npy"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    out = tmp_path / "out"
    k_edmd, k_herm, eigenvalues, measure = complex_swap_pipeline(x, y)
    edmd_columns = cli.read_points_csv(out / "koopman_edmd.csv")  # re/im pairs
    streamed_edmd = edmd_columns[:, 0::2]
    streamed_herm = np.load(out / "koopman_hermitian.npy")
    assert not np.any(edmd_columns[:, 1::2]) and streamed_herm.dtype == np.float64
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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_mass"] == pytest.approx(summary["observable_mass"], rel=1e-9)  # Parseval


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
    c0 = grid_nodes(cli._dictionary(replace(config, dict_per_axis=3), 2).axis_centers)[0]
    psi0 = config.dict_amplitude * np.exp(-config.dict_width * np.sum((x - c0) ** 2, axis=1))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_mass"] == pytest.approx(np.mean(np.abs(psi0) ** 2), rel=1e-10)


def test_custom_gate_names_condition_rank_and_tolerance(tmp_path, caplog):
    """Full-rank swap data that fails the 1e-8 Hermiticity gate at the default cutoff.

    cond(G) = 5.8e11 is admitted by rank_tolerance = 1e-12, and K is
    G-Hermitian only to about cond(G) times roundoff; a larger
    rank_tolerance drops the smallest directions and passes.
    """
    x = np.random.default_rng(11).uniform(-5.0, 5.0, size=(500, 2))
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", x[:, ::-1])
    inputs = [str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]
    with caplog.at_level(logging.ERROR, logger="hdmd"):
        assert cli.main(["custom", "--out", str(tmp_path / "out"), *inputs]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())  # written before the gate
    assert summary["retained_rank"] == 400
    assert summary["hermiticity_residual"] > 1e-8
    [message] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert f"cond(G) = {summary['gram_condition_number']:.3e}" in message
    assert "retained rank 400 of 400" in message and "rank_tolerance 1e-12" in message
    assert "raising rank_tolerance trades rank for G-Hermiticity" in message

    cfg = write_config(tmp_path, "rank_tolerance = 1e-9\n")
    assert cli.main(["custom", "--config", str(cfg), "--out", str(tmp_path / "cut"), *inputs]) == 0
    cut = json.loads((tmp_path / "cut" / "summary.json").read_text())
    assert cut["retained_rank"] < 400 and cut["hermiticity_residual"] <= 1e-8


def test_custom_gate_verdict_does_not_depend_on_the_dictionary_amplitude(tmp_path):
    # K, its eigenpairs and cond(G) = 1.1e11 do not move with the amplitude, though ||G K|| scales with |amp|^2
    x = np.random.default_rng(0).uniform(-5.0, 5.0, size=(200, 2))
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", x[:, ::-1])
    residuals = []
    for re, im in [(1.0, 1.0), (1e-3, 0.0), (1e-76, 0.0), (1e77, 0.0)]:  # the last two lie just inside the bounds
        cfg = write_config(tmp_path, f"dict_amplitude_re = {re}\ndict_amplitude_im = {im}\n")
        out = tmp_path / f"out-{re}"
        assert cli.main(["custom", "--config", str(cfg), "--out", str(out),
                         str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 1
        residuals.append(json.loads((out / "summary.json").read_text())["hermiticity_residual"])
    assert min(residuals) > 1e-8 and max(residuals) < 10 * min(residuals)


def test_custom_zero_operator_passes_the_gate_with_residual_zero(tmp_path):
    # every output lies far outside the dictionary's support, so A = 0, K = 0 and G K = 0
    x = np.random.default_rng(1).uniform(-5.0, 5.0, size=(300, 2))
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", x + 100.0)
    out = tmp_path / "out"
    assert cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 0
    assert not np.any(np.load(out / "koopman_hermitian.npy"))
    assert json.loads((out / "summary.json").read_text())["hermiticity_residual"] == 0.0


def test_schrodinger_and_custom_report_alike(tmp_path, caplog, monkeypatch):
    """Both routes write the same common summary keys and log the same closing line."""
    monkeypatch.setenv("HDMD_LOG", "info")
    pts = symmetric_grid_points()
    write_points(tmp_path / "x.csv", pts)
    write_points(tmp_path / "y.csv", -pts)
    cfg = write_config(tmp_path, "grid = 20 20\ndict_per_axis = 4\nenergy_cutoff = 2\n")
    runs = {
        "schrodinger": ["schrodinger"],
        "custom": ["custom", str(tmp_path / "x.csv"), str(tmp_path / "y.csv")],
    }
    route_keys = {"schrodinger": {"grid", "axis_retained_ranks"}, "custom": {"snapshot_count", "snapshot_dimension"}}
    common = []
    for name, argv in runs.items():
        caplog.clear()
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        done = [r.getMessage() for r in caplog.records if r.getMessage().startswith("done in ")]
        assert len(done) == 1 and ", total mass " in done[0]
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert route_keys[name] <= summary.keys()
        common.append(summary.keys() - route_keys[name])
    assert common[0] == common[1]
    assert {"retained_rank", "g_eigen_floor", "gram_condition_number", "hermiticity_residual",
            "total_mass", "observable_mass", "runtime_seconds"} <= common[0]


def test_rank_deficiency_is_warned_once_by_the_cli_and_never_by_the_library(tmp_path, caplog):
    """A truncated Gram spectrum gives one WARNING naming the retained count, the total and the floor."""
    two = np.array([[0.5, -1.0], [2.0, 1.5]])  # 2 snapshots for 400 dictionary functions
    for name, pts in (("two", two), ("full", swap_points(half=1000))):
        write_points(tmp_path / f"{name}_x.csv", pts)
        write_points(tmp_path / f"{name}_y.csv", pts[:, ::-1])
    wide = write_config(tmp_path, "grid = 60 60\ndict_per_axis = 40\n", name="wide.cfg")  # oscillator_wide's run
    runs = {  # argv, number of warnings
        "wide": (["schrodinger", "--config", str(wide)], 1),
        "two": (["custom", str(tmp_path / "two_x.csv"), str(tmp_path / "two_y.csv")], 1),
        "default": (["schrodinger"], 0),
        "full": (["custom", str(tmp_path / "full_x.csv"), str(tmp_path / "full_y.csv")], 0),
    }
    summaries = {}
    for name, (argv, count) in runs.items():
        caplog.clear()
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        summary = summaries[name] = json.loads((tmp_path / name / "summary.json").read_text())
        message = (f"Gram matrix numerically rank deficient: retained {summary['retained_rank']} of "
                   f"{summary['dictionary_size']} directions (floor {summary['g_eigen_floor']:.3e})")
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [message] * count, name
    assert (summaries["wide"]["retained_rank"], summaries["wide"]["axis_retained_ranks"]) == (1296, [36, 36])
    assert (summaries["two"]["retained_rank"], summaries["full"]["retained_rank"]) == (2, 400)

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hdmd"):
        config = load_config(wide)
        dictionary = cli._dictionary(config, 2)
        eig = separable_snapshots(HarmonicOscillatorProblem(dictionary=dictionary), config.grid).kronecker_eig()
        features = evaluate_snapshots(dictionary, two, two[:, ::-1], config.rank_tolerance)
        pair = assemble_gram_pair(features, monte_carlo(two, total_mass=1.0))
    assert eig.retained_rank == 1296 and pair.rank_deficient
    assert not caplog.records


@pytest.mark.parametrize("command", ["schrodinger", "custom"])
def test_zero_gram_exits_2_naming_dictionary_keys_without_eigh(tmp_path, capsys, monkeypatch, command):
    # every bump underflows at every snapshot: bumps too narrow to reach a grid node (schrodinger),
    # or snapshots in [20, 30]^2, far from every center in [-4, 4]^2 (custom)
    zero_eighs = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        zero_eighs.append(not np.any(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    blocks = []  # custom's G comes before A, so a zero G is refused before any row block of A
    block = SnapshotFeatures.block
    monkeypatch.setattr(SnapshotFeatures, "block", lambda self, *args: blocks.append(args) or block(self, *args))
    gathers = []  # custom's midpoint table is refused before G's N x N gather
    gather = hdmd.dictionary.sliding_window_view
    monkeypatch.setattr(hdmd.dictionary, "sliding_window_view", lambda *args: gathers.append(args) or gather(*args))
    pts = np.random.default_rng(5).uniform(20.0, 30.0, size=(2000, 2))
    write_points(tmp_path / "x.csv", pts)
    write_points(tmp_path / "y.csv", pts[:, ::-1])
    cfg = write_config(tmp_path, "grid = 20 20\n" + ("dict_width = 1e9\n" if command == "schrodinger" else ""))
    snapshots = [str(tmp_path / "x.csv"), str(tmp_path / "y.csv")] if command == "custom" else []
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *snapshots]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hdmd: Gram matrix is zero: no dictionary function is nonzero at any snapshot")
    assert err.count("\n") == 1 and all(key in err for key in ("dict_width", "dict_box_min", "dict_box_max"))
    assert not any(zero_eighs) and not blocks and not gathers
    assert not out.exists()


@pytest.mark.parametrize("name, level", [("basic_format", logging.WARNING), ("root", logging.WARNING),
                                         ("", logging.WARNING), ("info", logging.INFO), ("Debug", logging.DEBUG)])
def test_hdmd_log_accepts_only_level_names(tmp_path, monkeypatch, name, level):
    # logging's module attributes include non-levels such as BASIC_FORMAT; those fall back to warning
    monkeypatch.setenv("HDMD_LOG", name)
    monkeypatch.setattr(logging.getLogger("hdmd"), "level", logging.NOTSET)
    assert cli.main(["probes", "--out", str(tmp_path / "out")]) == 0
    assert logging.getLogger("hdmd").level == level


def test_custom_refuses_dictionary_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must refuse before the dictionary is built")

    monkeypatch.setattr(cli, "gaussian_grid_dictionary", unreachable)
    # 4 columns with the default dict_per_axis = 20 give N = 20^4 = 160,000: 12 N x N float64 arrays
    (tmp_path / "x.csv").write_text("a,b,c,d\n0.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.0\n")
    (tmp_path / "y.csv").write_text("a,b,c,d\n0.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n")
    out = tmp_path / "o"
    code = cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "N = 160000 on 2 snapshots" in err and "2288.8 GiB" in err and "physical memory" in err
    assert not out.exists()


def test_custom_refuses_a_wide_snapshot_file_with_a_short_message(tmp_path, capsys):
    # 200 columns give N = 20^200: the estimate in GiB overflows a float, and N in full has 261 digits
    header = ",".join(f"c{j}" for j in range(200))
    for name, shift in (("x.csv", 0.0), ("y.csv", 1.0)):
        (tmp_path / name).write_text("\n".join([header, *(",".join([repr(i + shift)] * 200) for i in range(3))]) + "\n")
    out = tmp_path / "o"
    assert cli.main(["custom", "--out", str(out), str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hdmd: dictionary size N = 1.61e+260 on 3 snapshots needs about ")
    assert err.count("\n") == 1 and "physical memory" in err
    assert max(map(len, re.findall(r"\d+", err))) <= 20
    assert not out.exists()


def test_short_numbers_stay_short_at_any_size():
    assert [cli._short(160000), cli._short(2457600000000, 2**30)] == ["160000", "2288.8"]
    assert [cli._short(10**15), cli._short(20**4000)] == ["1.00e+15", "1.32e+5204"]  # str() refuses 20^4000
    assert cli._short(20**400 * 2**30, 2**30) == "2.58e+520"  # a float division would overflow


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


def test_schrodinger_refuses_energy_cutoff_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must refuse before the factors are built")

    monkeypatch.setattr(cli, "separable_snapshots", unreachable)
    # each reference energy becomes a cluster row and a CSV line: at 10^12 they would take hundreds of TB
    cfg = write_config(tmp_path, "energy_cutoff = 1000000000000\n")
    out = tmp_path / "o"
    assert cli.main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "energy_cutoff = 1000000000000 needs about" in err and "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, body",
    [("schrodinger", "energy_cutoff = {}"), ("schrodinger", "grid = 75 {}")],
    ids=["energy_cutoff", "grid"],
)
def test_memory_guard_message_stays_short_for_a_huge_config_value(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body.format(10**400) + "\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hdmd: ") and err.count("\n") == 1 and "1.00e+400" in err and "physical memory" in err
    assert max(map(len, re.findall(r"\d+", err))) <= 20
    assert not out.exists()


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


@pytest.mark.parametrize(
    "body, flags, eighs, axes", [("", ["--full-grid"], 2, 1), ("grid = 40 55\n", [], 4, 2)], ids=["full-grid", "40x55"]
)
def test_schrodinger_builds_and_solves_each_distinct_axis_once(tmp_path, monkeypatch, body, flags, eighs, axes):
    # equal axes share one axis's factors (one bump table, one multiplier) and one solve: eigh(G1) and the
    # whitened eigh per distinct axis; a 300^2 grid has one distinct axis, a 40 x 55 grid two
    counts = {"eigh": 0, "bump tables": 0, "multipliers": 0}

    def counted(key, fn, size=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += size(result)
            return result
        return wrapper

    dictionary = hdmd.dictionary.Dictionary
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(dictionary, "axis_bumps", counted("bump tables", dictionary.axis_bumps, len))
    monkeypatch.setattr(hdmd.schrodinger, "_axis_multiplier", counted("multipliers", hdmd.schrodinger._axis_multiplier))
    argv = ["schrodinger", "--config", str(write_config(tmp_path, body)), *flags, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert counts == {"eigh": eighs, "bump tables": axes, "multipliers": axes}


def test_schrodinger_forms_no_n_by_n_array(tmp_path):
    # oscillator_wide: grid 60^2, 40^2 bumps, N = 1600; one N x N float64 is 20 MB
    cfg = write_config(tmp_path, "grid = 60 60\ndict_per_axis = 40\n")
    argv = ["schrodinger", "--config", str(cfg), "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0  # imports and caches outside the trace
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak < 4e6


@pytest.mark.parametrize(
    "body, flags, bound", [("", ["--full-grid"], 720e3), ("grid = 1200 1200\n", [], 2e6)], ids=["full-grid", "1200sq"]
)
def test_schrodinger_forms_nothing_of_grid_size(tmp_path, body, flags, bound):
    # the observable's moments come from per-axis factors: at 300^2 the peak stays below one float64
    # vector of M = 90,000 (720 KB), and at 1200^2 (M = 1,440,000) below 2 MB
    argv = ["schrodinger", "--config", str(write_config(tmp_path, body)), *flags, "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak < bound


@pytest.mark.parametrize(
    "grid, per_axis, cutoff",
    [((60, 60), 40, 12), ((40, 40), 200, 12), ((600, 500), 10, 12), ((75, 75), 20, 100_000)],
    ids=["60sq-40", "40sq-200", "600x500-10", "cutoff-1e5"],
)
def test_schrodinger_size_estimate_covers_what_it_allocates(tmp_path, grid, per_axis, cutoff):
    # the guard's estimate bounds the traced peak from above without overstating it tenfold
    cfg = write_config(tmp_path, f"grid = {grid[0]} {grid[1]}\ndict_per_axis = {per_axis}\nenergy_cutoff = {cutoff}\n")
    argv = ["schrodinger", "--config", str(cfg), "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak <= cli._kronecker_bytes(grid, per_axis, cutoff) <= 10 * peak


@pytest.mark.parametrize(
    "command, body, calls",
    [("schrodinger", "", 484), ("schrodinger", "grid = 60 60\ndict_per_axis = 40\n", 1419), ("probes", "", 77)],
    ids=["schrodinger-defaults", "schrodinger-60-40", "probes-defaults"],
)
def test_csv_writer_formats_each_run_of_equal_floats_once(tmp_path, monkeypatch, command, body, calls):
    # the Kronecker spectrum repeats each mu_i + mu_j, i != j, bit for bit, and so do its weights: a run of
    # equal cells is formatted once (1236 and 3924 repr calls when every cell was); probes' cells are all distinct
    count = [0]

    def counted_repr(value):
        count[0] += 1
        return repr(value)

    monkeypatch.setattr(hdmd.matio, "repr", counted_repr, raising=False)
    assert cli.main([command, "--config", str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == 0
    assert count[0] == calls


@pytest.mark.parametrize("snapshots, dim, per_axis", [(20000, 2, 20), (100000, 1, 20)], ids=["2d-400", "1d-20"])
def test_custom_size_estimate_covers_what_it_allocates(tmp_path, snapshots, dim, per_axis):
    # the row blocks set the peak at N = 400, the snapshots' points and weights at N = 20
    x = np.random.default_rng(11).uniform(-5.0, 5.0, size=(snapshots, dim))
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", 0.9 * x[:, ::-1])
    cfg = write_config(tmp_path, f"dict_per_axis = {per_axis}\nrank_tolerance = 1e-8\n")
    argv = ["custom", "--config", str(cfg), str(tmp_path / "x.csv"), str(tmp_path / "y.csv"), "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(argv + [str(tmp_path / "out")])
    assert code == 0
    assert peak <= cli._custom_bytes(snapshots, dim, per_axis) <= 10 * peak


def child_env():
    """The environment of a child that imports the same hdmd as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_with_threads(argv, out, threads: int) -> None:
    """One `python -m hdmd.cli` child whose BLAS and OpenMP pools have `threads` threads."""
    env = {**child_env(), "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    cmd = [sys.executable, "-m", "hdmd.cli", *map(str, argv), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


THREAD_COUNTS = (1, 2)
needs_two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < max(THREAD_COUNTS),
    reason=f"comparing {THREAD_COUNTS} BLAS threads needs {max(THREAD_COUNTS)} cores; fewer cannot show a difference",
)


@needs_two_cores
@pytest.mark.parametrize(
    "command, body",
    [
        ("schrodinger", ""),
        ("schrodinger", "grid = 60 60\ndict_per_axis = 40\n"),
        ("probes", ""),
    ],
    ids=["schrodinger-defaults", "schrodinger-60-40", "probes"],
)
def test_separable_and_probe_artifacts_are_bitwise_thread_invariant(tmp_path, command, body):
    cfg = write_config(tmp_path, body)
    outs = [tmp_path / f"threads-{t}" for t in THREAD_COUNTS]
    for threads, out in zip(THREAD_COUNTS, outs):
        run_with_threads([command, "--config", cfg], out, threads)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        one, two = ((out / name).read_bytes() for out in outs)
        if name == "summary.json":
            one, two = ({k: v for k, v in json.loads(t).items() if k != "runtime_seconds"} for t in (one, two))
        assert one == two, name


@needs_two_cores
def test_custom_results_agree_across_thread_counts_to_stated_tolerances(tmp_path):
    # custom's GEMMs and eigh sum in an order that follows the thread count, so its bits may differ
    x = swap_points()
    write_points(tmp_path / "x.csv", x)
    write_points(tmp_path / "y.csv", x[:, ::-1])
    outs = [tmp_path / f"threads-{t}" for t in THREAD_COUNTS]
    for threads, out in zip(THREAD_COUNTS, outs):
        run_with_threads(["custom", tmp_path / "x.csv", tmp_path / "y.csv"], out, threads)
    eigs, atoms = ([np.loadtxt(out / name, delimiter=",", skiprows=1) for out in outs]
                   for name in ("eigenvalues.csv", "measure.csv"))
    assert np.max(np.abs(eigs[0][:, 1] - eigs[1][:, 1])) <= 1e-9
    totals = [json.loads((out / "summary.json").read_text())["total_mass"] for out in outs]
    assert totals[0] == pytest.approx(totals[1], rel=1e-13)
    # psi_0's center lies on the diagonal, so it is swap-even and the -1 cluster holds only roundoff (~1e-30):
    # both clusters are compared relative to the total
    one, two = (cluster_masses(a[:, 0], a[:, 1]) for a in atoms)
    assert np.max(np.abs(np.subtract(one, two))) <= 1e-13 * totals[0]


def test_import_and_probes_load_neither_fft_nor_scipy(tmp_path):
    # numpy.fft is imported on first use by the probes, outside every run's import time
    code = (
        "import sys, hdmd, hdmd.cli\n"
        "loaded = lambda name: any(m == name or m.startswith(name + '.') for m in sys.modules)\n"
        "print(loaded('numpy.fft'), loaded('scipy'))\n"
        "assert hdmd.cli.main(['probes', '--out', sys.argv[1]]) == 0\n"
        "print(loaded('scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_import_and_plain_runs_load_no_argparse_and_help_still_does(tmp_path):
    # a plain argv is read without argparse, whose import (with gettext's locale) and parser build took a one-shot
    # run 2-3 ms on a 2-core Xeon VM; help needs argparse, which is imported then
    code = (
        "import contextlib, io, sys, hdmd.cli\n"
        "parsing = ('argparse', 'gettext', 'locale')\n"
        "assert hdmd.cli.main(['schrodinger', '--out', sys.argv[1]]) == 0\n"
        "print(*[name in sys.modules for name in parsing])\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    try:\n"
        "        hdmd.cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code, file=sys.stderr)\n"
        "assert out.getvalue() == hdmd.cli._build_parser().format_help(), out.getvalue()\n"
        "print('argparse' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]
    assert proc.stderr.split() == ["0"]


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "hdmd.cli", "--version"], capture_output=True, text=True, env=child_env())
    # argparse --version exits 0 and prints the version string
    assert proc.returncode == 0
    assert "hdmd" in proc.stdout


def test_the_parser_is_built_once_per_process_on_the_first_call(tmp_path):
    # a child counts ArgumentParser constructions: none at import or for plain runs, which skip argparse; the root
    # and its three subparsers for the first argv that needs argparse, help or refused alike; none for any later
    # call, whether refused, plain or abbreviated
    code = (
        "import argparse, contextlib, io, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import hdmd.cli\n"
        "counts = [len(built)]\n"
        "def call(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            code = hdmd.cli.main(list(argv))\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    counts.append(len(built) - sum(counts))\n"
        "    return code\n"
        "first, second, refused, *parsed = sys.argv[1:]\n"
        "assert call('schrodinger', '--out', first) == 0\n"
        "assert call('schrodinger', '--out', second) == 0\n"
        "assert call(*parsed) == 2 * int(refused)\n"
        "assert call('bogus') == 2\n"
        "assert call('schrodinger', '--out', first) == 0\n"
        "assert call('schrodinger', '--ou', second) == 0\n"
        "print(*counts)\n"
    )
    for refused, parsed in ((0, ["--help"]), (1, ["custom", "x.csv"])):
        argv = [sys.executable, "-c", code, str(tmp_path / "first"), str(tmp_path / "second"), str(refused), *parsed]
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0", "4", "0", "0", "0"], parsed


# help and version exit 0 on stdout; the rest are argparse's errors, exit 2 with a usage line on stderr; an empty
# path would name the current directory, so argparse refuses it, naming the argument
ARGPARSE_CASES = [
    ["--help"], ["schrodinger", "--help"], ["custom", "--help"], ["--version"],
    [], ["bogus"], ["schrodinger", "--nope"], ["custom", "x.csv"],
    ["probes", "--out", ""], ["schrodinger", "--out="], ["schrodinger", "--config", ""], ["custom", "", "y.csv"],
]
EMPTY_PATH_ARGUMENTS = ["--out", "--out", "--config", "x_csv"]


def main_output(argv) -> tuple[int, bytes, bytes]:
    """cli.main(argv) in process: its exit code (argparse's SystemExit included), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_argparse_text_and_exit_codes_are_those_of_a_fresh_process(tmp_path, monkeypatch):
    # argparse wraps its text to COLUMNS, so the child and this process get the same width
    monkeypatch.setenv("COLUMNS", "80")
    env = {**child_env(), "COLUMNS": "80"}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    fresh = []
    for argv in ARGPARSE_CASES:
        proc = subprocess.run([sys.executable, "-m", "hdmd.cli", *argv], capture_output=True, env=env, cwd=cwd)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2]
    assert all(err.startswith(b"usage: hdmd") for code, _, err in fresh if code)
    for (_, _, err), argument in zip(fresh[-4:], EMPTY_PATH_ARGUMENTS, strict=True):
        assert err.endswith(f"error: argument {argument}: invalid path value: ''\n".encode()), err
    assert main_output(["schrodinger", "--out", str(tmp_path / "before")])[:2] == (0, b"")
    assert [main_output(argv) for argv in ARGPARSE_CASES] == fresh  # after a valid run
    assert main_output(["bogus"])[0] == 2
    assert [main_output(argv) for argv in ARGPARSE_CASES] == fresh  # after an error exit
    assert main_output(["schrodinger", "--out", str(tmp_path / "after")])[:2] == (0, b"")
    assert not any(cwd.iterdir())  # no empty path wrote into the current directory
