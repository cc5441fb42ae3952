"""Command-line front end: wires configs to experiments, emits CSV/JSON artifacts.

Subcommands
    schrodinger   harmonic-oscillator benchmark (eigenvalues, raw and
                  clustered spectral measures, summary)
    probes        finite-section diagnostics for the built-in free-Jacobi
                  reference
    custom        EDMD + Hermitian DMD on user-supplied snapshot CSVs

Common flags: ``--config PATH`` (key-value file, see `hdmd.config`) and
``--out DIR``.  ``schrodinger`` additionally takes ``--full-grid`` to run
the 300 x 300 snapshot grid instead of the reduced default.  Verbosity
comes from the ``HDMD_LOG`` environment variable (debug/info/warning).
Bad input exits 2 and a numerical failure exits 1, each with one line on
stderr.

All artifacts are deterministic for a fixed config and input: plot data is
CSV only, with floats in shortest round-trip form, custom's Hermitian K is
koopman_hermitian.npy (bitwise), and runtime appears only in summary.json.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from functools import cache
from math import isfinite, isqrt, prod
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, default_config, load_config, undecodable
from .dictionary import Dictionary, gaussian_grid_dictionary, evaluate_snapshots
from .dmd import assemble_gram_pair, block_rows, edmd, eigendecompose, hermitian_dmd
from .matio import float_text, write_artifact, write_complex_csv, write_csv, write_summary
from .probes import (
    FreeJacobiSections,
    moment_convergence_probe,
    resolvent_convergence_probe,
    weak_convergence_probe,
)
from .quadrature import monte_carlo
from .schrodinger import (
    HarmonicOscillatorProblem,
    reference_factor,
    separable_snapshots,
)
from .spectral import AtomicMeasure, cluster_table

logger = logging.getLogger("hdmd")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

HERMITICITY_LIMIT = 1e-8
# K is G-Hermitian only to about eps * cond(G): eigh's backward error in G, amplified by ||K|| ~ 1 / min g
HERMITICITY_MESSAGE = (
    "hermiticity residual %.3e exceeds %.1e: cond(G) = %.3e at retained rank %d of %d "
    "(rank_tolerance %g); raising rank_tolerance trades rank for G-Hermiticity"
)
FULL_GRID_POINTS = 300


def _report(
    out_dir: Path, t0: float, config: ExperimentConfig, experiment: str, dictionary: Dictionary,
    spectrum, residual: float, measure: AtomicMeasure, observable_mass: float, exact=None, **route_keys,
) -> int:
    """Warn of a truncated Gram spectrum, write eigenvalues.csv, measure.csv, summary.json, apply the Hermiticity gate.

    `spectrum` is the retained Gram spectrum (a GramPair or a KroneckerEig)
    and the measure's atoms are the computed eigenvalues; eigenvalues.csv
    pairs them with `exact`, if given, while both last.  summary.json is
    written before the gate, so a failed run still reports its residual.
    """
    if spectrum.retained_rank < dictionary.size:
        logger.warning("Gram matrix numerically rank deficient: retained %d of %d directions (floor %.3e)",
                       spectrum.retained_rank, dictionary.size, spectrum.g_eigen_floor)
    computed = float_text(measure.locations)  # both files' first float column
    columns = [computed] if exact is None else [computed, exact]
    header = ",".join(["index", "computed", "exact"][: len(columns) + 1])
    write_csv(out_dir / "eigenvalues.csv", header, np.arange(computed.size), *columns)
    write_csv(out_dir / "measure.csv", "lambda,weight", computed, measure.weights)
    summary = write_summary(
        out_dir / "summary.json", experiment, config, t0,
        dictionary_size=dictionary.size,
        **route_keys,
        retained_rank=spectrum.retained_rank,
        g_eigen_floor=spectrum.g_eigen_floor,
        gram_condition_number=spectrum.condition_number,
        hermiticity_residual=residual,
        total_mass=measure.total_mass,
        observable_mass=observable_mass,
    )
    if not residual <= HERMITICITY_LIMIT:  # a NaN residual fails too
        logger.error(HERMITICITY_MESSAGE, residual, HERMITICITY_LIMIT, spectrum.condition_number,
                     spectrum.retained_rank, dictionary.size, config.rank_tolerance)
        return EXIT_NUMERICAL
    logger.info("done in %.2fs, total mass %.6f", summary["runtime_seconds"], measure.total_mass)
    return EXIT_OK


def _dictionary(config: ExperimentConfig, dimension: int) -> Dictionary:
    """The configured Gaussian grid dictionary on `dimension` axes, for every subcommand."""
    box = ((config.dict_box_min, config.dict_box_max),) * dimension
    return gaussian_grid_dictionary(box, config.dict_per_axis, config.dict_width, config.dict_amplitude)


def read_points_csv(path) -> np.ndarray:
    """Read snapshot coordinates: one header line, then rows of floats; np.loadtxt parses them from the file."""
    try:
        with open(path) as f:  # a blank header is not skipped, and loadtxt warns on a file without data lines
            has_data = f.readline().strip() and any(map(str.strip, f))
        pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None) if has_data else None
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except ValueError:  # a malformed or undecodable line: the text is read only now, and the parser names it
        pts = None
    if pts is not None and pts.size and np.isfinite(pts).all():
        return pts
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(undecodable(path, exc)) from None
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}: empty snapshot file")
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


def _short(x: int, unit: int = 1) -> str:
    """x / unit below 10^15, in full for unit 1 and to one place otherwise, else as 1.23e+130 through a Decimal,
    which takes any int, where float division overflows past 1.8e308 and str() refuses ints past 4300 digits."""
    if x < 10**15 * unit:
        return str(x) if unit == 1 else f"{x / unit:.1f}"
    from decimal import Decimal  # here, not at the top: importing it would cost every run about 2 ms
    return f"{Decimal(x) / unit:.3g}"


def _check_fits(estimate: int, what: str, arrays: str) -> None:
    """Refuse a run whose estimated work arrays exceed physical memory; runs before any exists."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if estimate > physical:
        raise ValueError(
            f"{what} needs about {_short(estimate, 2**30)} GiB of {arrays}, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )


def _kronecker_bytes(grid, per_axis: int, references: int) -> int:
    """About what `schrodinger` allocates: M_k x n_k factors and their temporaries per axis, n_k x n_k matrices
    per distinct grid count (equal axes share one solve), O(N) spectra and weights, 48 words per reference energy
    (its cluster row and CSV text, about 370 bytes traced) and 64 KB of other text; nothing grows with M."""
    words = 8 * per_axis * sum(grid) + 16 * per_axis**2 * len(set(grid)) + 32 * per_axis ** len(grid)
    return 8 * (words + 48 * references + 8192)


def _probe_bytes(n_ref: int, moment_rows: int) -> int:
    """About what `probes` allocates, O(n_ref): a traced peak of about 15 words per
    n_ref, set by the free-Jacobi resolvent's complex DST-I buffers (the weak probe's
    spectrum, test-function values and temporaries reach about 6); 24 words per
    n_ref and 64 KB for the CSV and summary text cover that.  Each row of a moment
    probe (one per k and size, floors included) traces about 40 words more: its
    tuple, gap, key, CSV line and summary text; 56 words cover that."""
    return 8 * (24 * n_ref + 56 * moment_rows + 8192)


def _custom_bytes(snapshots: int, dim: int, per_axis: int) -> int:
    """About what `custom` allocates: G's midpoint bumps (d (2 per_axis - 1) words a row, and their Khatri-Rao
    product over all but the last axis), then G, A and a product beside two min(M, block_rows(N)) x N row blocks
    (at most max(2 MiB, N x N) each) and their per-axis bumps (4 d per_axis words a row); then up to 12 N x N
    arrays in all (G, A, Q, one K, Q^* B Q, eigenvectors, temporaries); 4 (1 + d) words a snapshot (both files'
    points, the weights and their roots) and 128 KB of reader buffers and CSV lines."""
    size, mids = per_axis**dim, 2 * per_axis - 1
    rows = min(snapshots, block_rows(size))
    summing = rows * max(2 * size + 4 * dim * per_axis, dim * mids + mids ** (dim - 1)) + 3 * size**2
    return 8 * (max(summing, 12 * size**2) + 4 * (1 + dim) * snapshots + 16384)


def run_schrodinger(config: ExperimentConfig, out_dir: Path, full_grid: bool = False) -> int:
    """Benchmark pipeline; writes eigenvalues.csv, measure.csv, clustered.csv, summary.json."""
    t0 = time.perf_counter()
    grid = (FULL_GRID_POINTS, FULL_GRID_POINTS) if full_grid else config.grid
    grid_text = " x ".join(map(_short, grid))
    per_axis, cutoff = config.dict_per_axis, config.energy_cutoff
    needs = f"dictionary size N = {_short(per_axis**2)} on the {grid_text} grid with energy_cutoff = {_short(cutoff)}"
    _check_fits(_kronecker_bytes(grid, per_axis, cutoff), needs, "per-axis factors, spectra and cluster rows")
    dictionary = _dictionary(config, 2)
    snapshots = separable_snapshots(HarmonicOscillatorProblem(dictionary=dictionary), grid)
    logger.info("grid %s (%d nodes), dictionary size %d", grid, prod(grid), dictionary.size)

    eig = snapshots.kronecker_eig(config.rank_tolerance)
    moments = snapshots.moments([reference_factor(x) for x in snapshots.axes])
    measure = AtomicMeasure(eig.eigenvalues, eig.weights(moments))

    # the distinct exact energies; exact_spectrum lists energy E with multiplicity E
    references = [float(e) for e in range(1, config.energy_cutoff + 1)]
    rows, _ = cluster_table(measure, references, config.cluster_radius)

    # the fewest levels L whose L(L + 1) / 2 energies cover every computed eigenvalue
    levels = (isqrt(8 * measure.locations.size) + 1) // 2
    exact = np.repeat(np.arange(1.0, levels + 1), np.arange(1, levels + 1))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "clustered.csv", "reference,location,weight,atom_count", *zip(*rows))
    return _report(
        out_dir, t0, config, "schrodinger", dictionary, eig, eig.hermiticity_residual(), measure,
        eig.observable_mass(moments), exact=exact, grid=list(grid),
        axis_retained_ranks=list(eig.axis_retained_ranks),
    )


# weak-probe test functions, applied to a section's whole spectrum; their names become the CSV row keys.  Every
# free-Jacobi section's measure has mass 1, is even and lies in (-2, 2), so f = 1, odd f and f = 0 there gap 0
def resolvent_re_shifted(lam: np.ndarray) -> np.ndarray:
    # Re 1/(lam - (1 + i)); asymmetric, so symmetric spectra give nonzero values
    return (lam - 1.0) / ((lam - 1.0) ** 2 + 1.0)


PROBE_TEST_FNS = (resolvent_re_shifted,)


def run_probes(config: ExperimentConfig, out_dir: Path) -> int:
    """Finite-section probes for the free-Jacobi reference."""
    t0 = time.perf_counter()
    n_ref = config.probe_n_ref
    sizes = list(config.probe_sizes)
    moment_rows = (config.probe_max_moment + 1) * (len(sizes) + 1)
    _check_fits(_probe_bytes(n_ref, moment_rows), f"probe_n_ref = {_short(n_ref)}", "work vectors and probe rows")
    # a closed form: the probes form no n x n array and call no eigh
    sections = FreeJacobiSections(n_ref)
    v = np.zeros(n_ref)
    v[0] = 1.0

    out_dir.mkdir(parents=True, exist_ok=True)
    probes = {
        "resolvent": resolvent_convergence_probe(sections, v, 1j, sizes),
        "moments": moment_convergence_probe(sections, v, config.probe_max_moment, sizes),
        "weak": weak_convergence_probe(sections, v, PROBE_TEST_FNS, sizes),
    }
    for kind, probe in probes.items():
        # each key's resolution floor is one more row, at n = n_ref // 2 with key "<key>|floor"
        floor_rows = [(n_ref // 2, f"{key}|floor", gap) for key, gap in probe.floors.items()]
        write_csv(out_dir / f"{kind}_free_jacobi.csv", "n,key,gap", *zip(*probe.rows, *floor_rows))
    floors = {"free_jacobi": {kind: probe.floors for kind, probe in probes.items()}}
    logger.info("probes for the free_jacobi reference done")

    write_summary(
        out_dir / "summary.json", "probes", config, t0,
        n_ref=n_ref, truncation_sizes=sizes, resolution_floors=floors,
    )
    return EXIT_OK


def run_custom(config: ExperimentConfig, x_path, y_path, out_dir: Path) -> int:
    """EDMD + Hermitian DMD on snapshot coordinate files (equal-weight rule).

    The spectral measure is taken with respect to the first dictionary
    function.  Artifacts: eigenvalues.csv, measure.csv, koopman_edmd.csv,
    koopman_hermitian.npy (float64, `np.load`), summary.json.
    """
    t0 = time.perf_counter()
    x_pts = read_points_csv(x_path)
    y_pts = read_points_csv(y_path)
    if x_pts.shape != y_pts.shape:
        raise ValueError(
            f"snapshot shapes differ: {x_path} is {x_pts.shape}, {y_path} is {y_pts.shape}"
        )
    count, dim = x_pts.shape
    needs = f"dictionary size N = {_short(config.dict_per_axis**dim)} on {count} snapshots"
    _check_fits(_custom_bytes(count, dim, config.dict_per_axis), needs, "row blocks and N x N work arrays")
    dictionary = _dictionary(config, dim)
    quad = monte_carlo(x_pts, total_mass=1.0)
    features = evaluate_snapshots(dictionary, x_pts, y_pts, rank_tolerance=config.rank_tolerance)
    pair = assemble_gram_pair(features, quad)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each K is written as soon as it exists, so K_edmd is gone before the Hermitian solve
    write_complex_csv(edmd(pair), out_dir / "koopman_edmd.csv")
    k_herm = hermitian_dmd(pair)
    residual = k_herm.hermiticity_residual()
    write_artifact(out_dir / "koopman_hermitian.npy", k_herm.k)
    k_herm = replace(k_herm, k=None)  # eigendecompose reads only Q^* B Q and the pair: K is released first
    eig = eigendecompose(k_herm)
    moments = pair.g[:, 0]  # the observable is psi_0, so Psi_X^* W psi_0 = G e_0 exactly
    measure = AtomicMeasure(eig.eigenvalues, eig.weights(moments))
    return _report(
        out_dir, t0, config, "custom-snapshots", dictionary, pair, residual, measure,
        pair.observable_mass(moments), snapshot_count=count, snapshot_dimension=dim,
    )


def _configure_logging() -> None:
    level = logging.getLevelName(os.environ.get("HDMD_LOG", "warning").upper())  # an int only for a level name
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level if isinstance(level, int) else logging.WARNING)


@cache  # built on the first main call, not at import, which would cost every import its ~0.3 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdmd",
        description="Hermitian DMD experiments: spectra and spectral measures of "
        "self-adjoint Koopman operators.",
    )
    parser.add_argument("--version", action="version", version=f"hdmd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = [sub.add_parser(name, help=text) for name, text in (
        ("schrodinger", "harmonic-oscillator benchmark"),
        ("probes", "finite-section convergence diagnostics"),
        ("custom", "pipeline on user snapshot CSVs"),
    )]
    for p in parsers:
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
    p_s, _, p_c = parsers
    p_s.add_argument(
        "--full-grid", action="store_true", help=f"use the full {FULL_GRID_POINTS}x{FULL_GRID_POINTS} snapshot grid"
    )
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
    except (np.linalg.LinAlgError, MemoryError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        print(f"hdmd: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"hdmd: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
