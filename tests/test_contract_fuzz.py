"""Contract fuzzer: in-process `hdmd` runs on drawn configs and snapshot files keep the CLI's contract.

Every run exits 0, 1 or 2 with no traceback and no Python warning, and writes to stderr only hdmd's own lines,
`hdmd: ...` or `<LEVEL> hdmd: ...`; a run that fails says why, and a run that exits 0 writes no NaN or Infinity.
Absurd sizes are drawn apart, and the memory guard must refuse them before anything is allocated.
Argv that argparse refuses is drawn between runs: it exits 2 with a usage line, and the next run keeps the contract.
Each run's argv is drawn in the plain form that `cli` reads without argparse or in a form only argparse reads
(`--out=DIR`, the abbreviation `--conf`), custom's files before or after the flags; `_plain_args` is checked
against argparse, its reference, on drawn argv.
"""

import contextlib
import io
import logging
import re
import tempfile
import warnings
from math import log10
from pathlib import Path
from sys import float_info

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_config_cli import ARGPARSE_CASES, non_finite_cells, strict_json, write_points

import hdmd.cli as cli

HDMD_LINE = re.compile(r"((DEBUG|INFO|WARNING|ERROR|CRITICAL) )?hdmd: ")
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"  # as `cli` prints its log lines


def log_uniform(low: float, high: float):
    return st.floats(log10(low), log10(high)).map(lambda exponent: 10.0**exponent)


def signed(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda pair: pair[0] * pair[1])


def line(key: str, values):
    return values.map(lambda value: f"{key} = {value!r}")


# each key, or pair of keys, is one config line or absent
COMMON_LINES = {
    "grid": st.lists(st.integers(2, 59), min_size=1, max_size=2).map(lambda g: "grid = " + " ".join(map(str, g))),
    "box": st.tuples(st.floats(-10.0, 5.0), log_uniform(1e-3, 20.0)).map(
        lambda box: f"dict_box_min = {box[0]!r}\ndict_box_max = {box[0] + box[1]!r}"
    ),
    "dict_per_axis": line("dict_per_axis", st.integers(1, 15)),
    "dict_width": line("dict_width", log_uniform(1e-4, 1e4)),
    "dict_amplitude_re": line("dict_amplitude_re", signed(log_uniform(1e-70, 1e70))),
    "dict_amplitude_im": line("dict_amplitude_im", signed(log_uniform(1e-70, 1e70))),
    "rank_tolerance": line(
        "rank_tolerance", st.one_of(st.just(0.0), log_uniform(1e-300, 0.99), log_uniform(float_info.epsilon, 0.99))
    ),
    "cluster_radius": line("cluster_radius", st.floats(0.0, 0.6)),
    "energy_cutoff": line("energy_cutoff", st.integers(0, 200)),
}


def config_body(lines: dict):
    return st.fixed_dictionaries({}, optional=lines).map(lambda drawn: "".join(f"{text}\n" for text in drawn.values()))


SNAPSHOT_MAPS = {
    "swap": lambda x, rng: x[:, ::-1],
    "rotation": lambda x, rng: -x if x.shape[1] == 1 else x @ np.array([[0.8, -0.6], [0.6, 0.8]]),
    "noisy identity": lambda x, rng: x + 1e-3 * rng.normal(size=x.shape),
    "identity": lambda x, rng: x,
}


@st.composite
def snapshots(draw, dims=st.integers(1, 2)) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-5.0, 5.0, size=(draw(st.integers(1, 299)), draw(dims)))
    return x, SNAPSHOT_MAPS[draw(st.sampled_from(sorted(SNAPSHOT_MAPS)))](x, rng)


# how a run's argv is spelled: whether custom's files come first, `--out=DIR` and `--conf PATH`, the last two of which
# only argparse reads
forms = st.tuples(st.booleans(), st.booleans(), st.booleans())
runs = st.one_of(
    st.tuples(st.just("schrodinger"), config_body(COMMON_LINES), st.none(), forms),
    st.tuples(st.just("probes"), config_body(COMMON_LINES), st.none(), forms),
    st.tuples(st.just("custom"), config_body(COMMON_LINES), snapshots(), forms),
)


def run_cli(argv: list[str]) -> tuple[int, str, list[str]]:
    """cli.main(argv) in process: its exit code, its stderr with the log lines formatted as `cli` formats them,
    and the messages of the warnings it raised."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        root.removeHandler(handler)
    return code, err.getvalue(), [str(w.message) for w in caught]


def check_contract(command: str, body: str, points=None, form=(False, False, False)) -> tuple[int, str, bool]:
    """Run one command on `body` (and snapshot files for custom), its argv spelled as `form` says, assert the
    contract, and return the exit code, the stderr text and whether the output directory exists."""
    files_first, out_equals, abbreviated = form
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text("schema = 1\n" + body)
        files = []
        if points is not None:
            for name, pts in zip(("x.csv", "y.csv"), points):
                write_points(tmp / name, pts)
                files.append(str(tmp / name))
        out = tmp / "out"
        flags = ["--conf" if abbreviated else "--config", str(cfg)]
        flags += [f"--out={out}"] if out_equals else ["--out", str(out)]
        argv = [command, *files, *flags] if files_first else [command, *flags, *files]
        # the plain route reads every argv without an argparse-only form, and argparse reads the rest
        assert (cli._plain_args(argv) is None) == (abbreviated or out_equals), argv
        code, err, caught = run_cli(argv)
        assert code in (0, 1, 2) and not caught, (code, caught, body)
        assert all(HDMD_LINE.match(text) for text in err.splitlines()), err
        assert code == 0 or err, body  # a failure says why
        if code == 0:
            strict_json(out / "summary.json")
            for path in out.glob("*.csv"):
                assert non_finite_cells(path) == [], (path.name, body)
            assert all(np.isfinite(np.load(path)).all() for path in out.glob("*.npy")), body
        return code, err, out.exists()


COMMANDS = ("schrodinger", "probes", "custom")
# a flag that is a prefix of one of these is an abbreviation of it, not an unknown flag
KNOWN_FLAGS = ("--config", "--out", "--full-grid", "--help", "--version")
words = st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True)
unknown_flags = words.map("--".__add__).filter(lambda flag: not any(known.startswith(flag) for known in KNOWN_FLAGS))

# argv that argparse refuses: an unknown subcommand, an unknown flag before or after the subcommand, a missing
# subcommand or positional, or an empty path
argv_errors = st.one_of(
    st.tuples(words.filter(lambda word: word not in COMMANDS)).map(list),
    st.tuples(st.sampled_from(COMMANDS), unknown_flags, st.booleans()).map(
        lambda drawn: [drawn[1], drawn[0]] if drawn[2] else [drawn[0], drawn[1]]
    ),
    st.sampled_from([[], ["--out", "unused"], ["custom"], ["custom", "x.csv"], ["custom", "--config", "x.cfg"],
                     ["probes", "--out", ""]]),
)


def check_argv_error(argv: list[str]) -> None:
    """argparse refuses argv: SystemExit(2), a usage line and one `hdmd[ <command>]: error: ...` line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as refused:
        cli.main(argv)
    lines = err.getvalue().splitlines()
    assert refused.value.code == 2, (argv, refused.value.code)
    assert lines[0].startswith("usage: hdmd") and re.match(r"hdmd( \w+)?: error: ", lines[-1]), (argv, lines)


# argv for the reference test: plain argv, built from the plain grammar with names neither empty nor led by "-", and
# argv with tokens of every form argparse reads, most of which it or the plain route refuses
NAMES = ("x.csv", "a b", " -x", *COMMANDS)
ARGV_TOKENS = (*COMMANDS, "--config", "--out", "--full-grid", "--conf", "--out=x", "--", "-h", "--version", "-5", "",
               "x.csv", "a b")


@st.composite
def plain_argv(draw) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    names = st.sampled_from(NAMES)
    pieces = st.tuples(st.sampled_from(["--config", "--out"]), names)
    if command == "schrodinger":
        pieces |= st.just(("--full-grid",))
    drawn = draw(st.lists(pieces, max_size=4)) + [(draw(names),) for _ in range(2 * (command == "custom"))]
    return [command, *(token for piece in draw(st.permutations(drawn)) for token in piece)]


# any tokens, or a plain argv with one token replaced or, past its end, appended; a name in a value's place, say,
# leaves it plain
token_argv = st.lists(st.sampled_from(ARGV_TOKENS), min_size=1, max_size=6) | st.tuples(
    plain_argv(), st.integers(0, 10), st.sampled_from(ARGV_TOKENS)
).map(lambda drawn: drawn[0][: drawn[1]] + [drawn[2]] + drawn[0][drawn[1] + 1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=plain_argv())
def test_plain_args_reads_every_plain_argv_as_argparse_does(argv):
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == vars(cli._build_parser().parse_args(argv)), argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=token_argv)
@example(["custom", "x.csv", "-h"])  # argparse prints help where a plain route that took "-h" for a file would not
def test_plain_args_is_what_argparse_returns_whenever_it_answers(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(cli._build_parser().parse_args(argv)), argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=argv_errors | st.sampled_from(ARGPARSE_CASES))
def test_plain_args_leaves_help_version_and_every_refused_argv_to_argparse(argv):
    assert cli._plain_args(argv) is None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(run=runs, argv_error=st.none() | argv_errors)
def test_drawn_runs_keep_the_contract(run, argv_error):
    # the parser is built once per process, so a refused argv must leave the next run's contract intact
    if argv_error is not None:
        check_argv_error(argv_error)
    check_contract(*run)


absurd_runs = st.one_of(
    st.tuples(st.just("schrodinger"), line("dict_per_axis", st.integers(10**7, 10**12)), st.none()),
    st.tuples(st.just("schrodinger"), line("grid", st.integers(10**14, 10**18)), st.none()),
    st.tuples(st.just("schrodinger"), line("energy_cutoff", st.integers(10**14, 10**18)), st.none()),
    st.tuples(st.just("custom"), line("dict_per_axis", st.integers(10**4, 10**9)), snapshots(st.just(2))),
    st.tuples(st.just("custom"), line("dict_per_axis", st.integers(10**8, 10**12)), snapshots(st.just(1))),
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(run=absurd_runs)
def test_absurd_sizes_exit_2_from_the_memory_guard(run):
    # every estimate is above 10^16 bytes, more than any host holds, and the guard runs before the work arrays exist
    command, body, _ = run
    code, err, wrote = check_contract(*run)
    assert code == 2 and err.count("\n") == 1 and "GiB of physical memory" in err, (command, body, err)
    assert not wrote


@pytest.mark.parametrize("amplitude", ["4.6e63", "1e70", "1e76", "1.1e77"])
def test_one_dimensional_custom_at_huge_amplitudes_exits_0(amplitude):
    # |amp|^2 scales G and A by up to 1.2e154, and the Hermiticity residual's sums of squares must not overflow
    x = np.random.default_rng(3).uniform(-5.0, 5.0, size=(60, 1))
    body = f"dict_amplitude_re = {amplitude}\ndict_amplitude_im = 0\n"
    assert check_contract("custom", body, (x, -x))[0] == 0
