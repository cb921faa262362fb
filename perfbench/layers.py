"""The traced run: per-layer metrics from spans, plus the checks that only
the traced run makes (``--jobs 2`` speed-up, report overhead, byte-identical
reports).

The layers are the package's modules.  Each wrapped attribute is the name
under which a caller looks the function up, so every call the program makes
between layers passes through exactly one wrapper.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from loop import describe, run_loop
from spans import NAME, NOTE, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Suite timed for the ``--jobs`` speed-up and the report overhead.
CLI_SUITE = ("T3", 100, (4, 4))
CLI_REPEATS = 3


def _lp_note(args, kwargs, result):
    rows = sum(
        0 if m is None else len(m)
        for m in (kwargs.get("a_ub", args[1] if len(args) > 1 else None),
                  kwargs.get("a_eq", args[3] if len(args) > 3 else None))
    )
    return {"rows": rows, "cols": len(args[0]), "status": result.status}


def install(tracer: Tracer) -> None:
    from mcsearch import dominance, solver, statics, utility

    for module in (statics, dominance, utility):
        tracer.wrap(module, "is_member", "utility.is_member")
    for module in (statics, solver):
        tracer.wrap(module, "reservation_utility", "solver.reservation_utility")
    for module in (dominance, utility):
        tracer.wrap(module, "solve_lp", "simplex.solve_lp", _lp_note)
    for module in (statics, dominance):
        tracer.wrap(module, "dominates", "dominance.dominates", lambda a, k, r: r.verdict)
    tracer.wrap(statics, "generate_case", "statics.generate_case")
    tracer.wrap(statics, "verify_theorem", "statics.verify_theorem")
    tracer.wrap(statics, "random_member", "utility.random_member")
    tracer.wrap(dominance, "local_rows", "utility.local_rows", lambda a, k, r: len(r))
    tracer.wrap(dominance, "common_grid", "grids.common_grid")
    tracer.wrap(solver, "solve_fixed_point", "solver.fixed_point", lambda a, k, r: r[1])
    tracer.wrap(solver, "solve_bisection", "solver.bisection", lambda a, k, r: r[1])
    tracer.wrap(solver, "simulate_search", "solver.simulate_search", lambda a, k, r: r.episodes)


def layer_metrics(tracer: Tracer) -> dict:
    dur, self_time = tracer.durations()
    spans = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        spans[span[NAME]].append(i)

    def calls(name):
        return float(len(spans[name]))

    def busy(name):
        return float(sum(dur[i] for i in spans[name]))

    def self_s(name):
        return float(sum(self_time[i] for i in spans[name]))

    def notes(name):
        return [tracer.spans[i][NOTE] for i in spans[name]]

    def ok_notes(name):
        return [n for n in notes(name) if not (isinstance(n, dict) and "error" in n)]

    lp = [n for n in notes("simplex.solve_lp") if "status" in n]
    status = Counter(n["status"] for n in lp)
    n_lp = len(spans["simplex.solve_lp"])
    verdicts = Counter(ok_notes("dominance.dominates"))
    sim_busy = busy("solver.simulate_search")
    errors = Counter(
        n["error"] for n in notes("solver.reservation_utility") if isinstance(n, dict)
    )
    return {
        "simplex.solve_lp.calls": (calls("simplex.solve_lp"), "count"),
        "simplex.solve_lp.busy_s": (busy("simplex.solve_lp"), "s"),
        "simplex.solve_lp.max_s": (max((dur[i] for i in spans["simplex.solve_lp"]), default=0.0), "s"),
        "simplex.solve_lp.rows_mean": (statistics.fmean(n["rows"] for n in lp) if lp else 0.0, "rows"),
        "simplex.solve_lp.cols_mean": (statistics.fmean(n["cols"] for n in lp) if lp else 0.0, "cols"),
        "simplex.status.optimal": (float(status["optimal"]), "count"),
        "simplex.status.iteration_limit": (float(status["iteration_limit"]), "count"),
        "simplex.status.other": (float(n_lp - status["optimal"] - status["iteration_limit"]), "count"),
        "simplex.useful_ratio": (status["optimal"] / n_lp if n_lp else 0.0, "ratio"),
        "dominance.dominates.calls": (calls("dominance.dominates"), "count"),
        "dominance.dominates.busy_s": (busy("dominance.dominates"), "s"),
        "dominance.dominates.self_s": (self_s("dominance.dominates"), "s"),
        "dominance.verdict.dominates": (float(verdicts["dominates"]), "count"),
        "dominance.verdict.fails": (float(verdicts["fails"]), "count"),
        "dominance.verdict.inconclusive": (float(verdicts["inconclusive"]), "count"),
        "utility.is_member.calls": (calls("utility.is_member"), "count"),
        "utility.is_member.busy_s": (busy("utility.is_member"), "s"),
        "utility.random_member.calls": (calls("utility.random_member"), "count"),
        "utility.random_member.busy_s": (busy("utility.random_member"), "s"),
        "utility.local_rows.busy_s": (busy("utility.local_rows"), "s"),
        "utility.local_rows.rows": (float(sum(ok_notes("utility.local_rows"))), "count"),
        "solver.reservation_utility.calls": (calls("solver.reservation_utility"), "count"),
        "solver.reservation_utility.busy_s": (busy("solver.reservation_utility"), "s"),
        "solver.fixed_point.iterations": (float(sum(ok_notes("solver.fixed_point"))), "count"),
        "solver.bisection.iterations": (float(sum(ok_notes("solver.bisection"))), "count"),
        "solver.convergence_errors": (float(errors["ConvergenceError"]), "count"),
        "solver.simulate_search.calls": (calls("solver.simulate_search"), "count"),
        "solver.simulate_search.busy_s": (sim_busy, "s"),
        "solver.simulate_search.episodes_per_s": (
            sum(ok_notes("solver.simulate_search")) / sim_busy if sim_busy else 0.0, "1/s"),
        "statics.generate_case.busy_s": (busy("statics.generate_case"), "s"),
        "statics.verify_theorem.self_s": (self_s("statics.verify_theorem"), "s"),
        "grids.common_grid.calls": (calls("grids.common_grid"), "count"),
        "grids.common_grid.busy_s": (busy("grids.common_grid"), "s"),
    }


def outcome_metrics(loop) -> dict:
    out = {f"outcome.{k}": 0.0 for k in (
        "ok", "vacuous.iteration_limit", "vacuous.other", "inconclusive.iteration_limit",
        "inconclusive.other", "convergence_error", "error")}
    for outcome, count in loop.outcomes.items():
        kind, _, status = outcome.partition(":")
        if kind in ("vacuous", "inconclusive"):
            key = f"outcome.{kind}.{'iteration_limit' if status == 'iteration_limit' else 'other'}"
        else:
            key = f"outcome.{kind}"
        out[key] += count
    metrics = {name: (value, "count") for name, value in out.items()}
    metrics["outcome.fail_frac"] = (loop.failed / loop.attempted, "ratio")
    return metrics


def cli_checks(seed: int) -> dict:
    """``--jobs 2`` against ``--jobs 1`` on one suite, and ``mcsearch verify
    --out`` on the same suite run twice: its time over ``run_suite`` is the
    report overhead, and the two reports must be byte-identical."""
    from mcsearch.cli import run_command
    from mcsearch.statics import SuiteConfig, run_suite

    from oracles import OracleMismatch

    theorem, cases, shape = CLI_SUITE
    config = SuiteConfig(theorem, cases, seed, shape)
    times = {1: [], 2: []}
    rows = {}
    for _ in range(CLI_REPEATS):
        for jobs in (1, 2):
            start = perf_counter()
            suite = run_suite(dataclasses.replace(config, jobs=jobs))
            times[jobs].append(perf_counter() - start)
            rows[jobs] = [(r.report.status, r.report.u_f, r.report.u_g) for r in suite.records]
    if rows[1] != rows[2]:
        raise OracleMismatch("run_suite with jobs=2 differs from jobs=1")
    if any(status != "pass" for status, _, _ in rows[1]):
        raise OracleMismatch(f"{theorem} {shape} suite has a case that did not pass")

    OUT_DIR.mkdir(exist_ok=True)
    command_times, reports = [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps({
            "schema_version": 1,
            "options": {"theorem": theorem, "cases": cases, "grid_shape": list(shape), "seed": seed},
        }))
        for k in range(2):
            out = Path(tmp) / f"report{k}.jsonl"
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = run_command(["verify", str(scenario), "--out", str(out)])
                command_times.append(perf_counter() - start)
            if code != 0:
                raise OracleMismatch(f"mcsearch verify exited {code} on a premise-true suite")
            reports.append(out.read_bytes())
    if reports[0] != reports[1]:
        raise OracleMismatch("two identical mcsearch verify runs wrote different reports")
    suite_s = statistics.median(times[1])
    return {
        "statics.jobs2_speedup": (suite_s / statistics.median(times[2]), "ratio"),
        "cli.run_command.busy_s": (sum(command_times), "s"),
        "report.overhead_s": (min(command_times) - min(times[1]), "s"),
    }


def traced_run(make, name: str, seed: int, seconds: float):
    """Untraced loop, then the same operations traced, each for half of
    ``seconds``, then the CLI checks.  Returns (metrics, loops, HiGHS checks
    made)."""
    untraced_workload = make(seed)
    untraced = run_loop(untraced_workload, seconds / 2)
    describe(untraced, "untraced")

    workload = make(seed)
    tracer = Tracer()
    install(tracer)
    try:
        traced = run_loop(workload, seconds / 2, tracer)
    finally:
        tracer.unwrap()
    describe(traced, "traced")
    checked = untraced_workload.finish() + workload.finish()

    metrics = layer_metrics(tracer)
    metrics.update(cli_checks(seed))
    metrics.update(outcome_metrics(traced))
    metrics["trace.ops_per_s_untraced"] = (untraced.ops_per_s, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced.ops_per_s - traced.ops_per_s, "1/s")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(str(path))
    print(f"# spans written to {path.relative_to(OUT_DIR.parent.parent)}")
    return metrics, [untraced, traced], checked
