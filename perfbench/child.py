"""One workload's pipeline calls, in a fresh process started by run.py.

    python3 perfbench/child.py PARAMS.json

The first call is the cold call.  Warm calls follow, one at a time, until
`seconds` have passed; with tracing on they alternate untraced and traced,
so both walls come from the same process.  Each call's artifacts are
checked against the workload's oracle outside the timed region, and the
checker's self-test runs on the last call's artifacts.  The results,
spans included, go to the JSON file named in PARAMS.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
from spans import ENTRY_POINTS, ROOT_SPAN, Tracer
from workloads import WORKLOADS, Workload

SPIKE_ENERGIES = 12  # the default energy_cutoff, so clustered.csv has one row per energy


def make_check(workload: Workload):
    """The workload's artifact check; builds the spike-weight oracle once."""
    if workload.oracle == "oscillator":
        from hdmd.schrodinger import exact_spike_weights

        spikes = exact_spike_weights(SPIKE_ENERGIES).weights
        return lambda out: oracle.check_oscillator(out, spikes, workload.eig_ceiling, workload.spike_ceiling)
    return {"swap": oracle.check_swap, "probes": oracle.check_probes}[workload.oracle]


def counts(out: Path) -> dict[str, int]:
    """Problem sizes and artifact bytes of one call, from its summary.json."""
    summary = json.loads((out / "summary.json").read_text())
    if "grid" in summary:
        snapshots = summary["grid"][0] * summary["grid"][1]
    else:
        snapshots = summary.get("snapshot_count", 0)
    return {
        "snapshots": snapshots,
        "dictionary_size": summary.get("dictionary_size", 0),
        "retained_rank": summary.get("retained_rank", 0),
        "artifact_bytes": sum(f.stat().st_size for f in out.iterdir()),
    }


def blas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(np),
    }


def main(params_path: str) -> int:
    params = json.loads(Path(params_path).read_text())
    sys.path.insert(0, params["src"])
    import hdmd.cli as cli

    workload = WORKLOADS[params["workload"]]
    work = Path(params["work_dir"])
    tracer = Tracer()
    calls: list[dict] = []

    def run(kind: str) -> Path:
        out = work / f"call-{len(calls)}"
        argv = params["argv"] + ["--out", str(out)]
        record = {"kind": kind, "exit": None, "error": None}
        try:
            if kind == "traced":
                tracer.run_id = len(calls)
                with tracer.patched(cli), tracer.span(ROOT_SPAN) as root:
                    record["exit"] = cli.main(argv)
                record["wall_s"] = root.end - root.start
            else:
                start = perf_counter()
                record["exit"] = cli.main(argv)
                record["wall_s"] = perf_counter() - start
        except SystemExit as exc:  # argparse rejected the arguments
            record["exit"], record["wall_s"] = exc.code, float("nan")
        except Exception:  # a crashing call is a failed call, not a crashed benchmark
            record["error"], record["wall_s"] = traceback.format_exc(), float("nan")
        calls.append(record)
        return out

    def verify(out: Path) -> None:
        record = calls[-1]
        failures = [] if record["exit"] == 0 else [f"exit code {record['exit']}"]
        if record["error"] is None:
            try:
                verdict = check(out)
                failures += verdict.failures
                record["oracle"] = verdict.values
                record["counts"] = counts(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"artifacts unreadable: {exc!r}")
        record["failures"] = failures

    out = run("cold")
    check = make_check(workload)  # outside all timing, after the cold call
    verify(out)
    kinds = ("warm", "traced") if params["trace"] else ("warm",)
    start = perf_counter()
    while perf_counter() - start < params["seconds"] or len(calls) <= len(kinds):
        shutil.rmtree(out, ignore_errors=True)
        out = run(kinds[(len(calls) - 1) % len(kinds)])
        verify(out)

    caught = oracle.self_test(workload.oracle, check, out, work / "corrupted") if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    result = {
        "calls": calls,
        "self_test": caught,
        "spans": tracer.as_dicts(),
        "missing_entry_points": [name for _, name in ENTRY_POINTS if not hasattr(cli, name)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "machine": machine(),
    }
    Path(params["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
