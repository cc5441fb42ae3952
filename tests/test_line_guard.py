"""The package's size guard: src/hdmd stays below 2000 lines, so each added feature pays for its lines."""

from pathlib import Path

LINE_LIMIT = 2000
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdmd"


def test_package_stays_below_the_line_limit():
    counts = {f.name: f.read_bytes().count(b"\n") for f in sorted(PACKAGE.glob("*.py"))}  # as `wc -l` counts
    assert {"cli.py", "dmd.py", "matio.py"} <= counts.keys()
    assert sum(counts.values()) < LINE_LIMIT, counts
