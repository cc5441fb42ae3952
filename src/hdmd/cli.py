"""Command-line front end: wires configs to experiments, emits CSV/JSON artifacts.

Subcommands
    schrodinger   harmonic-oscillator benchmark (eigenvalues, raw and
                  clustered spectral measures, summary)
    probes        finite-section diagnostics for the built-in free-Jacobi
                  and diagonal references
    custom        EDMD + Hermitian DMD on user-supplied snapshot CSVs

Common flags: ``--config PATH`` (key-value file, see `hdmd.config`) and
``--out DIR``.  ``schrodinger`` additionally takes ``--full-grid`` to run
the 300 x 300 snapshot grid instead of the reduced default.  Verbosity
comes from the ``HDMD_LOG`` environment variable (debug/info/warning).
Bad input exits 2 and a numerical failure exits 1, each with one line on
stderr.

All CSV artifacts are deterministic for a fixed config and seed: plot data
is CSV only, floats are written in shortest round-trip form, and runtime
appears only in summary.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from math import isfinite, isnan, prod
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_as_dict,
    default_config,
    load_config,
)
from .dictionary import evaluate_function_samples, gaussian_grid_dictionary, evaluate_snapshots
from .dmd import assemble_gram_pair, edmd, eigendecompose, hermitian_dmd
from .matio import format_float, write_complex_csv
from .probes import (
    FiniteSections,
    diagonal_eigh,
    free_jacobi,
    free_jacobi_eigh,
    moment_convergence_probe,
    resolvent_convergence_probe,
    weak_convergence_probe,
)
from .quadrature import monte_carlo
from .schrodinger import (
    GaussianDictionarySpec,
    HarmonicOscillatorProblem,
    reference_observable,
    separable_snapshots,
)
from .spectral import ObservableCoefficients, cluster_table, spectral_measure

logger = logging.getLogger("hdmd")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

HERMITICITY_LIMIT = 1e-8
FULL_GRID_POINTS = 300


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_eigenvalues_csv(path: Path, computed: np.ndarray, exact=None) -> None:
    if exact is None:
        lines = ["index,computed"]
        for i, lam in enumerate(computed):
            lines.append(f"{i},{format_float(lam)}")
    else:
        lines = ["index,computed,exact"]
        for i, (lam, e) in enumerate(zip(computed, exact)):
            lines.append(f"{i},{format_float(lam)},{format_float(e)}")
    _write_lines(path, lines)


def _write_clustered_csv(path: Path, rows) -> None:
    lines = ["reference,location,weight,atom_count"]
    for ref, loc, weight, count in rows:
        loc_txt = "" if isnan(loc) else format_float(loc)
        lines.append(f"{format_float(ref)},{loc_txt},{format_float(weight)},{count}")
    _write_lines(path, lines)


def _write_summary(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_points_csv(path) -> np.ndarray:
    """Read snapshot coordinates: one header line, then rows of floats."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}: empty snapshot file")
    pts = None  # one loadtxt pass reads a well-formed file; the line parser names what it rejects
    if any(lines[1:]):  # loadtxt only warns on a file without data lines
        try:
            pts = np.loadtxt(lines, delimiter=",", skiprows=1, ndmin=2, comments=None)
        except ValueError:
            pass
    if pts is not None and pts.size and np.isfinite(pts).all():
        return pts
    rows = []
    width = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value in {line!r}") from None
        if not all(map(isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: non-finite value in {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _check_fits(estimate: int, what: str, arrays: str) -> None:
    """Refuse a run whose estimated work arrays exceed physical memory; runs before any exists."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if estimate > physical:
        raise ValueError(
            f"{what} needs about {estimate / 2**30:.1f} GiB of {arrays}, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )


def _kronecker_bytes(grid, per_axis: int) -> int:
    """About what `schrodinger` allocates: M_k x n_k factors and n_k x n_k matrices
    per axis, O(N) spectra, weights and CSV lines, O(M) grid nodes and samples."""
    size, snapshots = per_axis ** len(grid), prod(grid)
    words = 8 * per_axis * sum(grid) + 40 * per_axis**2 * len(grid) + 32 * size
    return 8 * (words + (2 * len(grid) + 8) * snapshots)


def run_schrodinger(config: ExperimentConfig, out_dir: Path, full_grid: bool = False) -> int:
    """Benchmark pipeline; writes eigenvalues.csv, measure.csv, clustered.csv, summary.json."""
    t0 = time.perf_counter()
    grid = (FULL_GRID_POINTS, FULL_GRID_POINTS) if full_grid else config.grid
    spec = GaussianDictionarySpec(
        centers_box=config.dictionary_box(2),
        per_axis=config.dict_per_axis,
        width=config.dict_width,
        amplitude=config.dict_amplitude,
    )
    grid_text = " x ".join(map(str, grid))
    needs = f"dictionary size N = {spec.size} on the {grid_text} grid"
    _check_fits(_kronecker_bytes(grid, spec.per_axis), needs, "per-axis factors, spectra and grid samples")
    problem = HarmonicOscillatorProblem(dictionary_spec=spec)
    snapshots = separable_snapshots(problem, grid)
    logger.info("grid %s (%d nodes), dictionary size %d", grid, prod(grid), spec.size)

    eig = snapshots.kronecker_eig(config.rank_tolerance)
    residual = eig.hermiticity_residual()
    moments = snapshots.moments(evaluate_function_samples(snapshots.nodes, reference_observable))
    measure = eig.measure(moments)

    # the distinct exact energies; exact_spectrum lists energy E with multiplicity E
    references = [float(e) for e in range(1, config.energy_cutoff + 1)]
    rows, _ = cluster_table(measure, references, config.cluster_radius)

    levels = np.arange(1, config.energy_cutoff + 41)
    exact = np.repeat(levels.astype(float), levels)
    count = min(eig.eigenvalues.shape[0], exact.shape[0])

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_eigenvalues_csv(out_dir / "eigenvalues.csv", eig.eigenvalues[:count], exact[:count])
    measure.to_csv(out_dir / "measure.csv")
    _write_clustered_csv(out_dir / "clustered.csv", rows)
    summary = {
        "schema": 1,
        "experiment": "schrodinger",
        "config": config_as_dict(config),
        "grid": list(grid),
        "dictionary_size": spec.size,
        "retained_rank": eig.retained_rank,
        "axis_retained_ranks": list(eig.axis_retained_ranks),
        "g_eigen_floor": eig.g_eigen_floor,
        "gram_condition_number": eig.condition_number,
        "hermiticity_residual": residual,
        "total_mass": measure.total_mass,
        "observable_mass": eig.observable_mass(moments),
        "runtime_seconds": time.perf_counter() - t0,
        "seed": config.seed,
    }
    _write_summary(out_dir / "summary.json", summary)

    if residual > HERMITICITY_LIMIT:
        logger.error("hermiticity residual %.3e exceeds %.1e", residual, HERMITICITY_LIMIT)
        return EXIT_NUMERICAL
    logger.info("done in %.2fs, total mass %.6f", summary["runtime_seconds"], measure.total_mass)
    return EXIT_OK


# weak-probe test functions; their names become the CSV row keys
def constant(lam: float) -> float:
    return 1.0


def resolvent_re(lam: float) -> float:
    # Re 1/(lam - i)
    return lam / (lam * lam + 1.0)


def resolvent_re_shifted(lam: float) -> float:
    # Re 1/(lam - (1 + i)); asymmetric, so symmetric spectra give nonzero values
    return (lam - 1.0) / ((lam - 1.0) ** 2 + 1.0)


def bump_off_spectrum(lam: float) -> float:
    # smooth bump supported on [4, 6], disjoint from the references' spectra
    t = lam - 5.0
    return float(np.exp(-1.0 / (1.0 - t * t))) if abs(t) < 1.0 else 0.0


PROBE_TEST_FNS = (constant, resolvent_re, resolvent_re_shifted, bump_off_spectrum)


def run_probes(config: ExperimentConfig, out_dir: Path) -> int:
    """Finite-section probes for the free-Jacobi and diagonal references."""
    t0 = time.perf_counter()
    n_ref = config.probe_n_ref
    sizes = list(config.probe_sizes)
    # built one at a time: each holder caches its sections' eigenvectors,
    # taken from the reference's closed-form eigendecomposition
    references = {
        "free_jacobi": (lambda: free_jacobi(n_ref), free_jacobi_eigh),
        "diagonal": (lambda: np.diag(np.arange(n_ref, dtype=float)), diagonal_eigh),
    }
    v = np.zeros(n_ref)
    v[0] = 1.0

    out_dir.mkdir(parents=True, exist_ok=True)
    floors = {}
    for name, (build, decompose) in references.items():
        sections = FiniteSections(build(), decompose)
        res = resolvent_convergence_probe(sections, v, 1j, sizes)
        mom = moment_convergence_probe(sections, v, config.probe_max_moment, sizes)
        weak = weak_convergence_probe(sections, v, PROBE_TEST_FNS, sizes)
        del sections  # release the cached eigenvectors before the next reference
        res.to_csv(out_dir / f"resolvent_{name}.csv")
        mom.to_csv(out_dir / f"moments_{name}.csv")
        weak.to_csv(out_dir / f"weak_{name}.csv")
        floors[name] = {
            "resolvent": res.floors,
            "moments": mom.floors,
            "weak": weak.floors,
        }
        logger.info("probes for %s reference done", name)

    summary = {
        "schema": 1,
        "experiment": "probes",
        "config": config_as_dict(config),
        "n_ref": n_ref,
        "truncation_sizes": sizes,
        "resolution_floors": floors,
        "runtime_seconds": time.perf_counter() - t0,
        "seed": config.seed,
    }
    _write_summary(out_dir / "summary.json", summary)
    return EXIT_OK


def run_custom(config: ExperimentConfig, x_path, y_path, out_dir: Path) -> int:
    """EDMD + Hermitian DMD on snapshot coordinate files (equal-weight rule).

    The spectral measure is taken with respect to the first dictionary
    function.  Artifacts: eigenvalues.csv, measure.csv, koopman_edmd.csv,
    koopman_hermitian.csv, summary.json.
    """
    t0 = time.perf_counter()
    x_pts = read_points_csv(x_path)
    y_pts = read_points_csv(y_path)
    if x_pts.shape != y_pts.shape:
        raise ValueError(
            f"snapshot shapes differ: {x_path} is {x_pts.shape}, {y_path} is {y_pts.shape}"
        )
    dim = x_pts.shape[1]
    size = config.dict_per_axis**dim
    _check_fits(8 * size**2 * 8, f"dictionary size N = {size}", "N x N work arrays")
    dictionary = gaussian_grid_dictionary(
        config.dictionary_box(dim),
        config.dict_per_axis,
        config.dict_width,
        config.dict_amplitude,
    )
    quad = monte_carlo(x_pts, total_mass=1.0)
    features = evaluate_snapshots(dictionary, x_pts, y_pts, rank_tolerance=config.rank_tolerance)
    pair = assemble_gram_pair(features, quad)
    k_edmd = edmd(pair)
    k_herm = hermitian_dmd(pair)
    residual = k_herm.hermiticity_residual()
    eig = eigendecompose(k_herm)
    # the observable is psi_0, so Psi_X^* W psi_0 = G e_0 exactly
    observable = ObservableCoefficients(coeffs=pair.solve(pair.g[:, 0]), gram=pair)
    measure = spectral_measure(eig, observable)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_eigenvalues_csv(out_dir / "eigenvalues.csv", eig.eigenvalues)
    measure.to_csv(out_dir / "measure.csv")
    write_complex_csv(k_edmd.k, out_dir / "koopman_edmd.csv")
    write_complex_csv(k_herm.k, out_dir / "koopman_hermitian.csv")
    summary = {
        "schema": 1,
        "experiment": "custom-snapshots",
        "config": config_as_dict(config),
        "snapshot_count": int(x_pts.shape[0]),
        "snapshot_dimension": dim,
        "dictionary_size": dictionary.size,
        "retained_rank": pair.retained_rank,
        "g_eigen_floor": pair.g_eigen_floor,
        "gram_condition_number": pair.condition_number,
        "hermiticity_residual": residual,
        "total_mass": measure.total_mass,
        "runtime_seconds": time.perf_counter() - t0,
        "seed": config.seed,
    }
    _write_summary(out_dir / "summary.json", summary)

    if residual > HERMITICITY_LIMIT:
        logger.error("hermiticity residual %.3e exceeds %.1e", residual, HERMITICITY_LIMIT)
        return EXIT_NUMERICAL
    return EXIT_OK


def _configure_logging() -> None:
    level_name = os.environ.get("HDMD_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdmd",
        description="Hermitian DMD experiments: spectra and spectral measures of "
        "self-adjoint Koopman operators.",
    )
    parser.add_argument("--version", action="version", version=f"hdmd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")

    p_s = sub.add_parser("schrodinger", help="harmonic-oscillator benchmark")
    common(p_s)
    p_s.add_argument(
        "--full-grid",
        action="store_true",
        help=f"use the full {FULL_GRID_POINTS}x{FULL_GRID_POINTS} snapshot grid",
    )

    p_p = sub.add_parser("probes", help="finite-section convergence diagnostics")
    common(p_p)

    p_c = sub.add_parser("custom", help="pipeline on user snapshot CSVs")
    common(p_c)
    p_c.add_argument("x_csv", type=Path, help="snapshot inputs (header + coordinate rows)")
    p_c.add_argument("y_csv", type=Path, help="snapshot outputs, same shape")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        out_dir = Path(args.out) if args.out else Path(config.output_dir)
        if args.command == "schrodinger":
            return run_schrodinger(config, out_dir, full_grid=args.full_grid)
        if args.command == "probes":
            return run_probes(config, out_dir)
        return run_custom(config, args.x_csv, args.y_csv, out_dir)
    except (np.linalg.LinAlgError, MemoryError) as exc:  # LinAlgError is a ValueError
        print(f"hdmd: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"hdmd: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
