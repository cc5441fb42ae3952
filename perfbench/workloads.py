"""The benchmark's workloads: the hdmd command each one runs, and its inputs.

Inputs depend only on the seed.  Only `custom_swap` has random inputs; the
oscillator and probe workloads run the same command for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# custom_swap draws this many points in [-5, 5]^2; the snapshots are the
# points plus their coordinate swaps, so M = 2 * SWAP_POINTS.
SWAP_POINTS = 10_000
SWAP_BOX = (-5.0, 5.0)


@dataclass(frozen=True)
class Workload:
    name: str
    arguments: tuple[str, ...]  # hdmd subcommand and flags, without --config/--out
    config: str | None  # text of the config file; None runs the defaults
    oracle: str  # "oscillator", "swap" or "probes"
    eig_ceiling: float = 0.0  # oscillator: max |lambda_k - E_k| over the first 50
    spike_ceiling: float = 0.0  # oscillator: max |clustered - exact spike weight|


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oscillator_300", ("schrodinger", "--full-grid"), None, "oscillator", 0.03, 0.08),
        Workload(
            "oscillator_wide",
            ("schrodinger",),
            "schema = 1\ngrid = 60 60\ndict_per_axis = 40\n",
            "oscillator",
            0.01,
            0.01,
        ),
        Workload("custom_swap", ("custom",), None, "swap"),
        Workload("probes_default", ("probes",), None, "probes"),
    )
}


def write_points(path: Path, points: np.ndarray) -> None:
    header = ",".join(f"x{j}" for j in range(points.shape[1]))
    rows = (",".join(repr(v) for v in row) for row in points.tolist())
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def swap_snapshots(seed: int, count: int = SWAP_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Snapshot pairs of the coordinate swap F(x0, x1) = (x1, x0).

    The inputs are `count` uniform points plus their swaps, so the set is
    closed under F and every snapshot output is also an input.
    """
    points = np.random.default_rng(seed).uniform(*SWAP_BOX, size=(count, 2))
    x = np.vstack([points, points[:, ::-1]])
    return x, x[:, ::-1]


def prepare(workload: Workload, seed: int, work_dir: Path) -> tuple[list[str], Path | None]:
    """Write the workload's input files into work_dir.

    Returns the hdmd arguments (without --out) and the config path, if any.
    """
    args = list(workload.arguments)
    config_path = None
    if workload.config is not None:
        config_path = work_dir / "workload.cfg"
        config_path.write_text(workload.config)
        args += ["--config", str(config_path)]
    if workload.oracle == "swap":
        x, y = swap_snapshots(seed)
        write_points(work_dir / "x.csv", x)
        write_points(work_dir / "y.csv", y)
        args += [str(work_dir / "x.csv"), str(work_dir / "y.csv")]
    return args, config_path
