"""Benchmark of the mcsearch package: one closed-loop client, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload suites --seed 1 --seconds 25 --trace 0

Each run starts with the workload's fixed panel, then runs its fixed list of
seeded operations, and repeats that list until the seeded operations have
taken ``--seconds`` of operation time.  ``attempted`` and ``failed`` count
the panel and the list once, so every run of a seed reports the same.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the loop for half the time untraced, then the same
operations for half the time with spans around every layer call, and
prints the per-layer metrics; the spans are written to
``perfbench/out/``.  Every answer is checked against an independent
reference; a wrong one aborts the run with exit code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# loop.py imports only the standard library: setup_probe times the numpy
# import that `import mcsearch` brings in.
from loop import Loop, describe, percentile, run_loop

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 15


def _use_source_tree() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC_DIR / "mcsearch" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC_DIR}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC_DIR))


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: import the package, build the workload's inputs,
    print the seconds that took."""
    start = perf_counter()
    import mcsearch  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    print(perf_counter() - start)


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes (the first may also compile
    bytecode)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    ordered = sorted(loop.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * percentile(ordered, 50), "ms"),
        "op_p95_ms": (1e3 * percentile(ordered, 95), "ms"),
        "ok_frac": (loop.ok_frac, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["suites", "convex", "search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _use_source_tree()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import mcsearch
    from oracles import OracleMismatch
    from workloads import WORKLOADS

    if not Path(mcsearch.__file__).resolve().is_relative_to(SRC_DIR):
        sys.exit(f"error: imported mcsearch from {mcsearch.__file__}, not from {SRC_DIR}")
    print("# machine: " + json.dumps(machine()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    make = WORKLOADS[args.workload]
    loops: list[Loop] = []
    try:
        if args.trace == 0:
            setup_s = measure_setup(args.workload, args.seed)
            workload = make(args.seed)
            loop = run_loop(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            loops.append(loop)
            checked = workload.finish()
            describe(loop, "untraced")
            metrics = end_to_end(loop, setup_s, peak_rss_mb)
        else:
            from layers import traced_run

            metrics, loops, checked = traced_run(make, args.workload, args.seed, args.seconds)
    except OracleMismatch as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        attempted = max(1, sum(lp.attempted for lp in loops))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": sum(lp.failed for lp in loops), "metrics": {}}))
        return 1
    print(f"# {checked} convex verdicts cross-checked against HiGHS")
    print_metrics(metrics)
    if args.trace == 0:
        loop = loops[0]
        print(f"{'fail_frac':<40} {loop.failed / loop.attempted:>16.6f} ratio (failed / attempted)")
    print(json.dumps({
        "correct": True,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
