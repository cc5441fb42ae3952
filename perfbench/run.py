"""Benchmark of the hdmd command-line pipelines, one workload per invocation.

    python3 perfbench/run.py --workload oscillator_300 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from anywhere inside a source checkout of hdmd; it imports the
package from the checkout's src/ directory.  For the chosen workload it

1. writes the workload's inputs (seeded) under perfbench/out/,
2. times SETUP_SAMPLES fresh processes that import hdmd and load the
   workload's config (setup_s is their median),
3. starts one fresh child process (child.py) that calls hdmd.cli.main: a
   cold call, then warm calls until --seconds have passed, checking every
   call's artifacts against closed-form oracles,
4. prints a report and, as the last line, one JSON object with the keys
   correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones (wall_s, cold_wall_s,
setup_s, peak_rss_mb).  With --trace 1 the child alternates untraced and
traced warm calls, and the metrics are the per-layer ones: self time of
each layer entry point, exact counts, and the tracing overhead.  The full
record of a run, spans included, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import SPAN_NAMES, self_times
from workloads import WORKLOADS, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import hdmd.cli
from hdmd.config import default_config, load_config
load_config(sys.argv[2]) if sys.argv[2] else default_config()
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["HDMD_LOG"] = "warning"  # a user's log level must not change what is measured
    return env


def time_setup(config_path: Path | None) -> float:
    """Seconds for a fresh interpreter to import hdmd and load the config, start to exit."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path or "")], env=child_env())
    # wait() with a timeout polls in steps of up to 50 ms, which would show in
    # setup_s; a blocking wait returns at exit, and a timer kills a hung process
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def run_child(workload: str, argv: list[str], seconds: int, trace: bool, work: Path) -> dict:
    params = work / "params.json"
    result = work / "result.json"
    params.write_text(
        json.dumps(
            {
                "workload": workload,
                "argv": argv,
                "seconds": seconds,
                "trace": trace,
                "src": str(SRC),
                "work_dir": str(work),
                "result": str(result),
            }
        )
    )
    # the child's output goes to stderr so the result stays the last stdout line
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(params)],
        check=True,
        stdout=sys.stderr,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(result.read_text())


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, with the sample count."""
    n = len(values)
    if n < 11:
        return f"n/a ({n} samples; needs at least 11)"
    return f"p{100 * (n - 10) / n:.0f} = {sorted(values)[n - 11]:.4f} s (n={n})"


def end_to_end(record: dict) -> dict[str, tuple[float, str]]:
    calls = record["calls"]
    return {
        "wall_s": (median(c["wall_s"] for c in calls if c["kind"] == "warm"), "s"),
        "cold_wall_s": (calls[0]["wall_s"], "s"),
        "setup_s": (median(record["setup_s"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def per_layer(record: dict) -> dict[str, tuple[float, str]]:
    calls = record["calls"]
    traced = [i for i, c in enumerate(calls) if c["kind"] == "traced"]
    selfs = self_times(record["spans"])
    metrics = {f"{name}.s": (median(selfs[i].get(name, 0.0) for i in traced), "s") for name in SPAN_NAMES}
    metrics["cli.self.s"] = (median(selfs[i]["cli.self"] for i in traced), "s")

    first = next(c["counts"] for c in calls if "counts" in c)
    m, n = first["snapshots"], first["dictionary_size"]
    assemble = metrics["dmd.assemble_gram_pair.s"][0]
    # 8 real flops per complex multiply-add; G and A are each M * N^2 of them
    metrics["dmd.assemble_gram_pair.gflops"] = (16 * m * n * n / assemble / 1e9 if assemble else 0.0, "GFLOP/s")
    metrics["dmd.retained_rank"] = (first["retained_rank"], "count")
    metrics["problem.snapshots"] = (m, "count")
    metrics["problem.dictionary_size"] = (n, "count")
    metrics["features.bytes"] = (32 * m * n, "bytes")  # Psi_X and Psi_Y, complex128
    metrics["artifacts.bytes"] = (first["artifact_bytes"], "bytes")

    traced_wall = median(calls[i]["wall_s"] for i in traced)
    untraced_wall = median(c["wall_s"] for c in calls if c["kind"] == "warm")
    layers = median(sum(v for k, v in selfs[i].items() if k != "cli.self") / calls[i]["wall_s"] for i in traced)
    metrics["trace.spans_per_call"] = (sum(s["run_id"] == traced[0] for s in record["spans"]), "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.layer_share"] = (layers, "ratio")
    return metrics


def spans_cover_wall(record: dict) -> bool:
    """Layer self times plus cli.self add up to each traced call's wall."""
    try:
        selfs = self_times(record["spans"])
    except ValueError:
        return False
    for i, call in enumerate(record["calls"]):
        if call["kind"] == "traced":
            if selfs[i]["cli.self"] < 0 or abs(sum(selfs[i].values()) - call["wall_s"]) > 1e-9 * call["wall_s"] + 1e-9:
                return False
    return True


def report(args, record: dict, metrics: dict, failed: int, self_test_ok: bool, covered: bool) -> None:
    calls = record["calls"]
    meta = record["machine"]
    kinds = {k: sum(c["kind"] == k for c in calls) for k in ("cold", "warm", "traced")}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"machine: {meta['cpu']}, nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, "
        f"{meta['blas']} with {meta['blas_threads']} threads, commit {record['commit']}"
    )
    print(f"calls: {kinds}, attempted {len(calls)}, failed {failed}, error_rate {failed / len(calls):.4g}")
    warm = [c["wall_s"] for c in calls if c["kind"] == "warm"]
    print(f"  wall_s_tail            {tail(warm)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    last = calls[-1]
    if "oracle" in last:
        print("oracle (last call): " + ", ".join(f"{k} {v:.4g}" for k, v in last["oracle"].items()))
    for i, call in enumerate(calls):
        if call["failures"]:
            print(f"call {i} ({call['kind']}) FAILED: {'; '.join(call['failures'])}")
        if call["error"]:
            print(call["error"], file=sys.stderr)
    caught = record["self_test"]
    if calls[-1]["failures"]:
        print("checker self-test: not meaningful, the last call already failed its checks")
    else:
        print(f"checker self-test: {sum(caught.values())} of {len(caught)} corruptions caught" + ("" if self_test_ok else " FAILED"))
    if record["missing_entry_points"]:
        print(f"entry points hdmd.cli no longer has (0 s): {record['missing_entry_points']}")
    if args.trace and not covered:
        print("trace FAILED: spans and cli.self do not cover the traced wall")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdmd" / "cli.py").is_file():
        print(f"perfbench: no hdmd sources at {SRC / 'hdmd'}; run it inside an hdmd checkout", file=sys.stderr)
        return 2
    if args.workload == "all":  # every workload untraced, then traced, each in its own process
        runs = [
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            for name in WORKLOADS
            for trace in ("0", "1")
        ]
        return max(subprocess.run(run).returncode for run in runs)

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        hdmd_args, config_path = prepare(workload, args.seed, work)
        setup = [time_setup(config_path) for _ in range(SETUP_SAMPLES)]
        record = run_child(args.workload, hdmd_args, args.seconds, bool(args.trace), work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(setup_s=setup, commit=git_commit(), args=vars(args))

    calls = record["calls"]
    failed = sum(bool(c["failures"]) for c in calls)
    last_passed = not calls[-1]["failures"]
    self_test_ok = last_passed and bool(record["self_test"]) and all(record["self_test"].values())
    covered = not args.trace or spans_cover_wall(record)
    correct = failed == 0 and self_test_ok and covered
    metrics = {}  # a failed call has no wall time to report
    if correct:
        metrics = per_layer(record) if args.trace else end_to_end(record)
    record["metrics"] = metrics

    report(args, record, metrics, failed, self_test_ok, covered)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
