"""The package's guards: src/hdmd stays below 2000 lines, so each added feature pays for its lines, and only
hdmd.cli imports logging, so what a run tells its user is decided in one place."""

import ast
from pathlib import Path

LINE_LIMIT = 2000
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdmd"


def test_package_stays_below_the_line_limit():
    counts = {f.name: f.read_bytes().count(b"\n") for f in sorted(PACKAGE.glob("*.py"))}  # as `wc -l` counts
    assert {"cli.py", "dmd.py", "matio.py"} <= counts.keys()
    assert sum(counts.values()) < LINE_LIMIT, counts


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports absolutely, anywhere in its syntax tree."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {name.split(".")[0] for name in names}


def test_only_the_cli_imports_logging():
    # library modules report through return values (`rank_deficient`, `retained_rank`) and exceptions
    importers = {f.name for f in sorted(PACKAGE.glob("*.py")) if "logging" in imported_modules(f)}
    assert importers == {"cli.py"}
