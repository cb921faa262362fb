"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run pytest with -s to
see them inline; they also appear in captured output).
"""
import json
import time

import numpy as np
import pytest

from mcsearch import (
    FunctionClass,
    SearchParams,
    SuiteConfig,
    closure_check,
    concordance_transfer,
    dominates,
    is_member,
    make_grid,
    make_pmf,
    reservation_utility,
    run_suite,
    simulate_search,
    solve_bisection,
    solve_fixed_point,
    tabulate,
    tabulate_family,
    truncate,
    truncation_counterexample,
)
from mcsearch.cli import run_command
from cone_oracle import dominates_increasing_bruteforce
from conftest import random_grid, random_pmf


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_counterexample_reproduction():
    u = truncation_counterexample()
    fc = FunctionClass.SUPERMODULAR

    before = is_member(u, fc)
    after = is_member(truncate(u), fc)
    # margins are integer arithmetic in doubles: exact to machine precision
    cross = u.values[0] + u.values[3] - u.values[1] - u.values[2]
    margin_ok = cross == 1.0 and after.witness.margin == -4.0
    verdict_ok = before.member and not after.member

    best = min(
        _timed(lambda: (is_member(u, fc), is_member(truncate(u), fc))) for _ in range(5)
    )
    timing_ok = best < 1e-3

    ok = verdict_ok and margin_ok and timing_ok
    _line(1, ok, f"margins +1/-4 exact, membership timing best-of-5 {best * 1e3:.3f} ms")
    assert before.member
    assert not after.member
    assert after.witness.margin == -4.0
    assert after.witness.nodes == ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))
    assert timing_ok


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_closed_form_reservation_utilities():
    t0 = time.perf_counter()
    cases = []

    grid = make_grid([[3.0]])
    cases.append((make_pmf(grid, [1.0]), tabulate(grid, [3.0]), SearchParams(0.5, 1.0), 2.0))
    grid = make_grid([[0.0, 2.0]])
    u = tabulate_family("linear", grid, a=[1.0])
    cases.append((make_pmf(grid, [0.5, 0.5]), u, SearchParams(0.5, 0.5), 1.0))
    cases.append((make_pmf(grid, [0.25, 0.75]), u, SearchParams(0.5, 0.5), 8.0 / 7.0))

    worst_closed = 0.0
    for pmf, util, params, expected in cases:
        for solver in (solve_fixed_point, solve_bisection):
            got, _ = solver(pmf, util, params)
            worst_closed = max(worst_closed, abs(got - expected))

    rng = np.random.default_rng(1234)
    worst_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        g = random_grid(rng, tuple(int(rng.integers(2, 4)) for _ in range(k)))
        pmf = random_pmf(g, rng)
        util = tabulate(g, rng.normal(0, 2, size=g.size))
        params = SearchParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 3.0)), 1e-10)
        a, _ = solve_fixed_point(pmf, util, params)
        b, _ = solve_bisection(pmf, util, params)
        worst_gap = max(worst_gap, abs(a - b))

    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-9 and worst_gap <= 1e-8 and elapsed < 1.0
    _line(
        2,
        ok,
        f"closed-form error {worst_closed:.2e} <= 1e-9, solver gap {worst_gap:.2e} <= 1e-8, "
        f"{elapsed:.2f}s < 1s",
    )
    assert worst_closed <= 1e-9
    assert worst_gap <= 1e-8
    assert elapsed < 1.0


def test_criterion_3_dominance_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4321)
    grid = make_grid([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    agree = 0
    pairs = 200
    for i in range(pairs):
        f, g = random_pmf(grid, rng), random_pmf(grid, rng)
        if i % 10 == 0:
            g = f  # exact ties must agree too
        lp = dominates(f, g, FunctionClass.INCREASING).verdict == "dominates"
        bf = dominates_increasing_bruteforce(f, g)
        agree += lp == bf
    elapsed = time.perf_counter() - t0
    ok = agree == pairs and elapsed < 30.0
    _line(3, ok, f"{agree}/{pairs} verdicts agree, {elapsed:.1f}s < 30s")
    assert agree == pairs
    assert elapsed < 30.0


def test_criterion_4_theorem_suites():
    t0 = time.perf_counter()
    outcomes = {}
    slack_ok = True
    for theorem in ("T2a", "T2b", "T2c", "T3", "T4"):
        report = run_suite(SuiteConfig(theorem, 100, seed=2025))
        outcomes[theorem] = report.summary
        for rec in report.records:
            assert not rec.report.vacuous, (theorem, rec.case_id, rec.report.reason)
            if rec.report.u_f < rec.report.u_g - 1e-8:
                slack_ok = False
    elapsed = time.perf_counter() - t0
    all_pass = all(s == {"pass": 100, "fail": 0, "vacuous": 0} for s in outcomes.values())
    ok = all_pass and slack_ok and elapsed < 60.0
    _line(4, ok, f"100/100 per theorem {outcomes}, {elapsed:.1f}s < 60s")
    assert all_pass, outcomes
    assert slack_ok
    assert elapsed < 60.0


def test_criterion_5_concordance_monotone_path():
    grid = make_grid([[1.0, 2.0], [1.0, 2.0]])
    base = make_pmf(grid, [0.25] * 4)
    utility = tabulate_family("product", grid)
    params = SearchParams(0.5, 1.0)
    path = []
    for delta in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
        pmf = concordance_transfer(base, (0, 1), ((1.0, 2.0), (1.0, 2.0)), delta)
        sol = reservation_utility(pmf, utility, params)
        path.append((delta, sol.reservation_utility, len(sol.acceptance)))
    monotone = all(b[1] >= a[1] - 1e-9 for a, b in zip(path, path[1:]))
    contracting = all(b[2] <= a[2] for a, b in zip(path, path[1:]))
    ok = monotone and contracting
    _line(5, ok, f"u_F path {[round(p[1], 6) for p in path]}, acceptance sizes {[p[2] for p in path]}")
    assert monotone
    assert contracting


def test_criterion_6_closure_suites():
    closed = (
        FunctionClass.INCREASING,
        FunctionClass.CONVEX,
        FunctionClass.COMPONENTWISE_CONVEX,
        FunctionClass.INCREASING_SUPERMODULAR,
        FunctionClass.INCREASING_ULTRAMODULAR,
    )
    violations = {}
    for fc in closed:
        for operator in ("truncate", "affine"):
            rep = closure_check(fc, operator, 50, seed=606)
            violations[(fc.value, operator)] = 50 - rep.preserved
            assert rep.passed, (fc, operator, rep.violations[:3])

    counter = closure_check(FunctionClass.SUPERMODULAR, "truncate", 50, seed=606)
    expected_found = (
        counter.expects_violation
        and counter.counterexample_witness is not None
        and counter.counterexample_witness.margin == -4.0
    )
    total = sum(violations.values())
    ok = total == 0 and expected_found
    _line(
        6,
        ok,
        f"0 violations across {len(violations)} closed suites (got {total}); "
        "supermodular truncation counterexample detected",
    )
    assert total == 0, violations
    assert expected_found


def test_criterion_7_monte_carlo_consistency():
    grid = make_grid([[0.0, 2.0]])
    pmf = make_pmf(grid, [0.5, 0.5])
    utility = tabulate_family("linear", grid, a=[1.0])
    params = SearchParams(0.5, 0.5)
    u_f = reservation_utility(pmf, utility, params).reservation_utility

    at = simulate_search(pmf, utility, params, u_f, seed=99, episodes=100_000)
    analytic = 3.0  # E[max(U, u_F)]/(1 - beta) = 0.5*4 + 0.5*2
    within = abs(at.mean - analytic) <= 3 * at.stderr

    never_beats = True
    for shift in (-0.5, 0.5):
        other = simulate_search(pmf, utility, params, u_f + shift, seed=99, episodes=100_000)
        if other.mean > at.mean + 3 * at.stderr:
            never_beats = False
    ok = within and never_beats
    _line(
        7,
        ok,
        f"mean {at.mean:.4f} within 3se ({3 * at.stderr:.4f}) of {analytic}; "
        "perturbed thresholds never beat the reservation policy",
    )
    assert within
    assert never_beats


def test_criterion_8_byte_deterministic_reruns(tmp_path, capsys):
    scenario = tmp_path / "suite.json"
    scenario.write_text(
        json.dumps(
            {"schema_version": 1, "options": {"theorem": "T3", "cases": 12, "seed": 31}}
        )
    )
    payloads = {}
    for fmt, ext in (("json-lines", "jsonl"), ("csv", "csv")):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"rerun{run}.{ext}"
            code = run_command(
                ["verify", str(scenario), "--out", str(out), "--format", fmt]
            )
            assert code == 0
            outs.append(out.read_bytes())
        payloads[fmt] = outs
    capsys.readouterr()
    identical = all(a == b and a for a, b in payloads.values())

    # and across fresh interpreter processes
    import subprocess
    import sys

    fresh = []
    for run in (1, 2):
        out = tmp_path / f"proc{run}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "mcsearch", "verify", str(scenario),
             "--out", str(out), "--format", "json-lines"],
            capture_output=True,
        )
        assert proc.returncode == 0
        fresh.append(out.read_bytes())
    process_identical = fresh[0] == fresh[1] == payloads["json-lines"][0]

    ok = identical and process_identical
    _line(8, ok, "suite reruns byte-identical in json-lines and csv, in and across processes")
    assert identical
    assert process_identical
