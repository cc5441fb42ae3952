"""Experiment configuration: a flat, typed key-value text format.

Files look like

    # comment lines and blanks are ignored
    schema = 1
    grid = 75 75
    dict_width = 3.0

The first effective line must declare ``schema = 1``.  Every key is typed,
defaults mirror the built-in harmonic-oscillator benchmark, and unknown keys
are rejected with their line number.  Validation failures always name the
offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import hypot, isfinite
from pathlib import Path
from sys import float_info

from .dictionary import DEFAULT_RANK_TOLERANCE

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration failure; the message names the source line if known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = "config error" if line is None else f"config error (line {line})"
        super().__init__(f"{prefix}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    grid: tuple[int, ...] = (75, 75)
    dict_box_min: float = -4.0
    dict_box_max: float = 4.0
    dict_per_axis: int = 20
    dict_width: float = 3.0
    dict_amplitude_re: float = 1.0
    dict_amplitude_im: float = 1.0
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    cluster_radius: float = 0.4
    energy_cutoff: int = 12
    output_dir: str = "hdmd-out"
    probe_n_ref: int = 2000
    probe_sizes: tuple[int, ...] = (2, 4, 8, 16, 32, 800)
    probe_max_moment: int = 8

    @property
    def dict_amplitude(self) -> complex:
        return complex(self.dict_amplitude_re, self.dict_amplitude_im)


def _finite_float(raw: str) -> float:
    if not isfinite(value := float(raw)):  # float() accepts nan and inf, which no setting can take
        raise ValueError(raw)
    return value


# one parser and what it expects per field type (annotations are strings under `from __future__ import annotations`)
_PARSE_BY_TYPE = {
    "int": (lambda raw: int(raw, 10), "an integer"),
    "float": (_finite_float, "a finite number"),
    "str": (str, "text"),
    "tuple[int, ...]": (lambda raw: tuple(int(tok, 10) for tok in raw.split()), "integers"),
}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExperimentConfig)}
_FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


def validate(config: ExperimentConfig) -> ExperimentConfig:
    """Range-check every field; raises ConfigError naming the first bad one."""

    def fail(name: str, message: str):
        raise ConfigError(f"{name} {message}")

    c = config
    for name in _FLOAT_FIELDS:  # the parser rejects nan and inf too; this covers configs built in code
        if not isfinite(getattr(c, name)):
            fail(name, f"must be a finite number, got {getattr(c, name)}")
    if len(c.grid) not in (1, 2):
        fail("grid", f"expects 1 or 2 per-axis counts, got {len(c.grid)}")
    if any(n < 2 for n in c.grid):
        fail("grid", f"needs at least 2 points per axis, got {c.grid}")
    if not c.dict_box_max > c.dict_box_min:
        fail("dict_box_max", f"must exceed dict_box_min, got [{c.dict_box_min}, {c.dict_box_max}]")
    if not isfinite(c.dict_box_max - c.dict_box_min):
        fail("dict_box_max", f"- dict_box_min overflows a float, got [{c.dict_box_min}, {c.dict_box_max}]")
    if c.dict_per_axis < 1:
        fail("dict_per_axis", f"must be >= 1, got {c.dict_per_axis}")
    if not c.dict_width > 0:
        fail("dict_width", f"must be positive, got {c.dict_width}")
    if not float_info.min**0.25 <= (r := hypot(c.dict_amplitude_re, c.dict_amplitude_im)) <= float_info.max**0.25:
        fail("dict_amplitude_re", f"and dict_amplitude_im give |amp| = {r:.3g}, outside [1.2e-77, 1.2e77]: the "
             "Hermiticity gate sums squares of |amp|^2-scaled entries, which would under- or overflow")
    if not c.rank_tolerance >= float_info.epsilon:
        fail("rank_tolerance", f"must be at least float64 epsilon ({float_info.epsilon:.3g}), got {c.rank_tolerance}: "
             "eigh(G) resolves no eigenvalue below eps * max eig(G), and cond(G) could overflow")
    if c.rank_tolerance >= 1:
        fail("rank_tolerance", f"must be below 1, got {c.rank_tolerance}: the cutoff would drop every direction of G")
    if not c.cluster_radius > 0:
        fail("cluster_radius", f"must be positive, got {c.cluster_radius}")
    if c.cluster_radius >= 0.5:
        fail("cluster_radius", f"must stay below half the unit energy gap (0.5), got {c.cluster_radius}")
    if c.energy_cutoff < 1:
        fail("energy_cutoff", f"must be >= 1, got {c.energy_cutoff}")
    if not c.output_dir:
        fail("output_dir", "must not be empty: it would name the current directory")
    if c.probe_n_ref < 2:
        fail("probe_n_ref", f"must be >= 2, got {c.probe_n_ref}")
    if not c.probe_sizes:
        fail("probe_sizes", "must not be empty")
    if any(n < 1 for n in c.probe_sizes) or any(
        b <= a for a, b in zip(c.probe_sizes, c.probe_sizes[1:])
    ):
        fail("probe_sizes", f"must be strictly increasing positive integers, got {c.probe_sizes}")
    if c.probe_sizes[-1] > c.probe_n_ref:
        fail("probe_sizes", f"largest size {c.probe_sizes[-1]} exceeds probe_n_ref {c.probe_n_ref}")
    if not 0 <= c.probe_max_moment <= 1023:
        fail("probe_max_moment", f"must be in [0, 1023], got {c.probe_max_moment}: "
             "the free-Jacobi reference's k-th moments reach 2^k, and 2^1024 overflows a float")
    if len(c.grid) == 1:
        c = replace(c, grid=(c.grid[0], c.grid[0]))
    return c


def undecodable(path, exc: UnicodeDecodeError) -> str:
    """`path: line N: <reason>` for a file whose bytes failed to decode; lines count from 1."""
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return f"{path}: line {line}: {exc}"


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; defaults fill unset keys."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(undecodable(path, exc)) from None
    values: dict[str, object] = {}
    seen_schema = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not seen_schema:
            if key != "schema":
                raise ConfigError(
                    f"first setting must be 'schema = {SCHEMA_VERSION}', got key {key!r}",
                    line=lineno,
                )
            if raw_value != str(SCHEMA_VERSION):
                raise ConfigError(
                    f"unsupported schema version {raw_value!r} (expected {SCHEMA_VERSION})",
                    line=lineno,
                )
            seen_schema = True
            continue
        if key == "schema":
            raise ConfigError("duplicate schema line", line=lineno)
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        parse, expected = _PARSERS[key]
        try:
            values[key] = parse(raw_value)
        except ValueError:
            raise ConfigError(
                f"{key}: cannot parse value {raw_value!r} as {expected}", line=lineno
            ) from None
    if not seen_schema:
        raise ConfigError("missing 'schema = 1' line")
    return validate(ExperimentConfig(**values))


def default_config() -> ExperimentConfig:
    return validate(ExperimentConfig())
