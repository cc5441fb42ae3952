"""Spans around the layer entry points that hdmd.cli looks up by name.

A traced call replaces each name below in hdmd.cli's namespace with a
wrapper that records a span, and puts the originals back afterwards.  No
span sits inside hdmd itself, so a traced call runs the same code as an
untraced one; work hdmd.cli does itself (artifact writing, residuals,
glue) is the root span's self time, reported as `cli.self`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

ROOT_SPAN = "cli.main"

# (layer module, function) pairs that hdmd.cli calls through its namespace
ENTRY_POINTS = (
    ("quadrature", "tensor_trapezoid"),
    ("quadrature", "monte_carlo"),
    ("schrodinger", "generate_snapshots"),
    ("schrodinger", "exact_spectrum"),
    ("dictionary", "gaussian_grid_dictionary"),
    ("dictionary", "evaluate_snapshots"),
    ("dictionary", "evaluate_function_samples"),
    ("dmd", "assemble_gram_pair"),
    ("dmd", "edmd"),
    ("dmd", "hermitian_dmd"),
    ("dmd", "eigendecompose"),
    ("spectral", "project_observable"),
    ("spectral", "spectral_measure"),
    ("spectral", "cluster_table"),
    ("probes", "free_jacobi"),
    ("probes", "resolvent_convergence_probe"),
    ("probes", "moment_convergence_probe"),
    ("probes", "weak_convergence_probe"),
    ("matio", "write_complex_csv"),
    ("cli", "read_points_csv"),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in ENTRY_POINTS)


@dataclass
class Span:
    run_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Keeps every span in memory; `spans` is written out when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(self.run_id, len(self.spans), self._open[-1] if self._open else None, name, perf_counter(), 0.0)
        self.spans.append(record)
        self._open.append(record.span_id)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, module):
        """Wrap the ENTRY_POINTS that `module` has, for the duration of the block."""
        saved = {}
        for layer, name in ENTRY_POINTS:
            if hasattr(module, name):
                saved[name] = getattr(module, name)
                setattr(module, name, self.wrap(f"{layer}.{name}", saved[name]))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per run id: summed self time of each span name (the root's is `cli.self`).

    A span's self time is its duration minus its direct children's.  Raises
    ValueError if a child is not inside its parent or if children overlap,
    which would mean the spans do not tile the traced wall.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        kids = sorted(children.get(s["span_id"], []), key=lambda c: c["start"])
        cursor = s["start"]
        for kid in kids:
            if kid["start"] < cursor or kid["end"] > s["end"]:
                raise ValueError(f"span {kid['name']} is not inside {s['name']} or overlaps a sibling")
            cursor = kid["end"]
        own = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
        name = "cli.self" if s["name"] == ROOT_SPAN else s["name"]
        per_run = out.setdefault(s["run_id"], {})
        per_run[name] = per_run.get(name, 0.0) + own
    return out
