"""The closed loop that times one workload's operations, and its summary."""
from __future__ import annotations

import traceback
from collections import Counter
from time import perf_counter


class Loop:
    """Outcome of one closed loop.

    ``latencies`` and the per-kind times cover every operation the loop
    ran.  ``outcomes`` and the per-kind ``ok`` shares cover the first pass
    only: the panel and the workload's fixed list of seeded operations,
    each run once.  Those are the same for every run of a seed, however
    many repeats the time budget allows."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kind_time: Counter[str] = Counter()
        self.kind_runs: Counter[str] = Counter()
        self.outcomes: Counter[str] = Counter()
        self.kind_count: Counter[str] = Counter()
        self.kind_ok: Counter[str] = Counter()
        #: repeated operations whose outcome differed from their first run
        self.changed = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy

    @property
    def ok_frac(self) -> float:
        """Mean over operation kinds of the share that returned ``ok``, so a
        kind with few operations, such as a defect panel, weighs as much as
        one the seeded list holds hundreds of times."""
        return sum(self.kind_ok[k] / n for k, n in self.kind_count.items()) / len(self.kind_count)


def run_loop(workload, seconds: float, tracer=None) -> Loop:
    """Closed loop: the next operation starts only after the previous one
    returned.  The first pass runs the workload's fixed panel and then its
    list of seeded operations, once each.  Then the seeded list runs again
    from its start, as often as it takes for the seeded operations to have
    taken ``seconds`` in all.  The list is rebuilt from the seed for every
    pass, outside the timed intervals, so it is never held in memory.  Only
    the operations themselves are timed; judging answers happens between the
    timed intervals.  Every run of an operation is judged, so a wrong answer
    aborts the loop on any pass."""
    from mcsearch.solver import ConvergenceError

    loop = Loop()
    reported_error = False

    def run(op) -> tuple[str, float]:
        nonlocal reported_error
        if tracer is not None:
            tracer.op_id = len(loop.latencies)
        span = tracer.open("op") if tracer is not None else -1
        error = None
        start = perf_counter()
        try:
            result = op.call()
        except ConvergenceError:
            error = "convergence_error"
        except Exception:  # any other exception is a failed operation, not an abort
            error = "error"
            if not reported_error:
                traceback.print_exc()
                reported_error = True
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.close(span, op.kind)
        outcome = error or op.judge(result)
        loop.latencies.append(elapsed)
        loop.kind_time[op.kind] += elapsed
        loop.kind_runs[op.kind] += 1
        return outcome, elapsed

    for op in workload.panel:
        outcome, _ = run(op)
        loop.outcomes[outcome] += 1
        loop.kind_count[op.kind] += 1
        loop.kind_ok[op.kind] += outcome == "ok"
    seeded = 0.0  # time taken by the seeded operations
    first: list[str] = []
    for op in workload.seeded():
        outcome, elapsed = run(op)
        seeded += elapsed
        first.append(outcome)
        loop.outcomes[outcome] += 1
        loop.kind_count[op.kind] += 1
        loop.kind_ok[op.kind] += outcome == "ok"
    while seeded < seconds:
        for op, outcome_before in zip(workload.seeded(), first):
            outcome, elapsed = run(op)
            seeded += elapsed
            loop.changed += outcome != outcome_before
            if seeded >= seconds:
                break
    return loop


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def describe(loop: Loop, label: str) -> None:
    ordered = sorted(loop.latencies)
    p95 = percentile(ordered, 95)
    above = sum(1 for v in ordered if v > p95)
    print(f"# {label}: {len(ordered)} operations in {loop.busy:.3f} s of timed work "
          f"({loop.attempted} distinct, then repeats); {above} latencies above p95")
    if above < 10:
        print("# warning: fewer than 10 latencies above p95; lengthen the run")
    if loop.changed:
        print(f"# warning: {loop.changed} repeated operations changed outcome")
    print(f"# {label} fail_frac = {loop.failed / loop.attempted:.6f} "
          f"({loop.failed} of {loop.attempted} distinct operations)")
    for outcome, count in sorted(loop.outcomes.items()):
        print(f"# {label} outcome {outcome}: {count}")
    for kind in sorted(loop.kind_runs):
        runs = loop.kind_runs[kind]
        print(f"# {label} kind {kind}: {loop.kind_count[kind]} distinct, {runs} runs, "
              f"{1e3 * loop.kind_time[kind] / runs:.3f} ms mean")
