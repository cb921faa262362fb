import hashlib
import re
import time
from unittest import mock

import numpy as np
import pytest

import mcsearch.dominance as dominance_module
import mcsearch.statics as statics_module
import mcsearch.utility as utility_module
from mcsearch import (
    DominanceResult,
    FunctionClass,
    SearchParams,
    SuiteConfig,
    TheoremCase,
    closure_check,
    concordance_transfer,
    generate_case,
    is_member,
    make_grid,
    make_pmf,
    replay_case,
    reservation_utility,
    run_suite,
    tabulate_family,
    truncate,
    truncation_counterexample,
    verify_theorem,
)
from mcsearch.cli import _suite_rows
from mcsearch.report import fmt_value
from mcsearch.simplex import LpResult
from mcsearch.statics import NOT_CLOSED, THEOREM_CLASS
from mcsearch.utility import MembershipResult

ALL_THEOREMS = list(THEOREM_CLASS)

#: SHA-256 of the rows ``mcsearch verify`` prints for the suites of
#: ``TestSuites.test_suite_rows_are_pinned``, as first recorded.
SUITE_ROWS_DIGEST = "b04500c5c90c11da09b7fac4eabdd5ec8544fadeaff7efadbee04056fe86939a"


class TestVerifyTheorem:
    def test_concordance_case_with_product_utility(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        f = concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.25)
        u = tabulate_family("product", unit_square)
        rep = verify_theorem(TheoremCase("T3", f, g, u, SearchParams(0.5, 1.0)))
        assert rep.status == "pass" and not rep.vacuous
        assert rep.premise_dominance.verdict == "dominates" and rep.premise_membership
        assert rep.u_f == pytest.approx(2.0, abs=1e-9)
        assert rep.u_g == pytest.approx(12.0 / 7.0, abs=1e-9)

    def test_fosd_case_closed_form(self):
        grid = make_grid([[0.0, 2.0]])
        f = make_pmf(grid, [0.25, 0.75])
        g = make_pmf(grid, [0.5, 0.5])
        u = tabulate_family("linear", grid, a=[1.0])
        rep = verify_theorem(TheoremCase("T2a", f, g, u, SearchParams(0.5, 0.5)))
        assert rep.status == "pass"
        assert rep.u_f == pytest.approx(8.0 / 7.0, abs=1e-9)
        assert rep.u_g == pytest.approx(1.0, abs=1e-9)

    def test_separable_utility_gives_equality(self, unit_square):
        # the transfer preserves the mean of a separable utility and the
        # fixed point sits where the cell correction vanishes
        g = make_pmf(unit_square, [0.25] * 4)
        f = concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.25)
        u = tabulate_family("linear", unit_square, a=[1.0, 1.0])
        params = SearchParams(0.5, 1.0)
        rep = verify_theorem(TheoremCase("T3", f, g, u, params))
        assert rep.status == "pass"
        assert abs(rep.u_f - rep.u_g) <= 10 * params.tol
        assert rep.u_f == pytest.approx(2.0, abs=1e-9)

    def test_failed_dominance_premise_is_vacuous(self):
        grid = make_grid([[0.0, 2.0]])
        f = make_pmf(grid, [0.5, 0.5])
        g = make_pmf(grid, [0.25, 0.75])  # g dominates f, not conversely
        u = tabulate_family("linear", grid, a=[1.0])
        rep = verify_theorem(TheoremCase("T2a", f, g, u, SearchParams(0.5, 0.5)))
        assert rep.vacuous and rep.status == "vacuous"
        assert rep.conclusion_holds is None and rep.u_f is None and rep.u_g is None
        assert "dominance premise fails" in rep.reason

    def test_failed_membership_premise_is_vacuous(self, unit_square, counterexample):
        g = make_pmf(unit_square, [0.25] * 4)
        f = concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.25)
        # the counterexample is supermodular but not increasing
        rep = verify_theorem(TheoremCase("T3", f, g, counterexample, SearchParams(0.5, 1.0)))
        assert rep.vacuous and "membership premise fails" in rep.reason

    def test_failed_membership_lp_names_its_status(self):
        grid = make_grid([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        g = make_pmf(grid, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        f = make_pmf(grid, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5])  # a spread of g
        # max(1, 2 x1, 2 x2) is convex; no difference quotient or neighbour
        # certifies (0, 0)
        values = [1.0, 2.0, 4.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
        u = tabulate_family("custom", grid, values=values)
        failed = LpResult("numerical", None, None)
        with mock.patch.object(utility_module, "solve_lp", lambda *a, **k: failed):
            rep = verify_theorem(TheoremCase("T2b", f, g, u, SearchParams(0.5, 0.5)))
        assert rep.premise_dominance.verdict == "dominates"
        assert rep.vacuous
        assert rep.reason == "membership premise inconclusive (LP status: numerical)"

    def test_inconclusive_dominance_premise_names_its_reason(self):
        grid = make_grid([[0.0, 2.0]])
        f = make_pmf(grid, [0.25, 0.75])
        g = make_pmf(grid, [0.5, 0.5])
        u = tabulate_family("linear", grid, a=[1.0])
        stalled = DominanceResult("inconclusive", None, None, "LP status: iteration_limit")
        with mock.patch.object(statics_module, "dominates", lambda *a: stalled):
            rep = verify_theorem(TheoremCase("T2a", f, g, u, SearchParams(0.5, 0.5)))
        assert rep.vacuous and rep.premise_dominance is stalled and rep.premise_membership
        assert rep.reason == "dominance premise inconclusive (LP status: iteration_limit)"

    def test_tolerance_slack_cannot_hide_a_conclusion_failure(self):
        # dominance holds only within tolerance slack while the conclusion
        # degrades beyond 10*tol: the report must say fail, honestly
        grid = make_grid([[0.0, 100.0]])
        d = 9e-10
        f = make_pmf(grid, [0.5 + d, 0.5 - d])
        g = make_pmf(grid, [0.5, 0.5])
        u = tabulate_family("linear", grid, a=[1.0])
        rep = verify_theorem(TheoremCase("T2a", f, g, u, SearchParams(0.9, 1.0)))
        assert not rep.vacuous
        assert rep.status == "fail" and rep.conclusion_holds is False
        assert rep.u_f < rep.u_g

    def test_rejects_mismatched_grids(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        g = make_pmf(make_grid([[0, 1], [0, 1]]), [0.25] * 4)
        u = tabulate_family("product", unit_square)
        with pytest.raises(ValueError, match="one grid"):
            verify_theorem(TheoremCase("T2a", f, g, u, SearchParams(0.5, 1.0)))

    def test_rejects_utility_on_another_grid(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        u = tabulate_family("product", make_grid([[0, 1], [0, 1]]))
        with pytest.raises(ValueError, match="^utility must be tabulated on the pmfs' grid$"):
            verify_theorem(TheoremCase("T2a", f, f, u, SearchParams(0.5, 1.0)))

    def test_rejects_unknown_theorem(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        u = tabulate_family("product", unit_square)
        with pytest.raises(ValueError, match="unknown theorem"):
            TheoremCase("T9", f, f, u, SearchParams(0.5, 1.0))


class TestSuites:
    @pytest.mark.parametrize(
        "theorem, shape",
        [(t, (3, 3)) for t in ALL_THEOREMS] + [("T3", (3, 3, 3)), ("T4", (3, 3, 3))],
        ids=ALL_THEOREMS + ["T3-3x3x3", "T4-3x3x3"],
    )
    def test_generated_cases_pass(self, theorem, shape):
        report = run_suite(SuiteConfig(theorem, 15, seed=101, grid_shape=shape))
        assert report.summary == {"pass": 15, "fail": 0, "vacuous": 0}
        assert report.passed

    @pytest.mark.parametrize("shape, n_cases", [((4, 4), 6), ((5, 5), 3)])
    def test_convex_suites_above_3x3_are_not_vacuous(self, shape, n_cases):
        # at seed 7, cases 0 and 4 on 4x4 used to stop at the simplex
        # iteration limit, and a 5x5 case took more than a minute
        report = run_suite(SuiteConfig("T2b", n_cases, seed=7, grid_shape=shape))
        assert report.summary == {"pass": n_cases, "fail": 0, "vacuous": 0}

    @pytest.mark.parametrize(
        "seed, index", [(502, 33), (503, 80), (503, 158), (504, 136), (505, 15), (508, 113), (509, 75)]
    )
    def test_convex_cases_formerly_numerical_pass(self, seed, index):
        # these 3x3 cases ended vacuous with LP status ``numerical`` while
        # every pivot was priced by Bland's rule
        rep = verify_theorem(generate_case("T2b", index, seed, (3, 3)))
        assert rep.status == "pass", rep.reason

    def test_suite_rows_are_pinned(self):
        """The rows ``mcsearch verify`` prints, every value as the report
        writes it (12 significant digits), for 30 cases at seeds 0-4 of T2b
        on 3x3, 4x4 and 3x3x3 and of T2a, T2c, T3 and T4 on 3x3, 5x5 and
        3x3x3, hash to the digest first recorded."""
        suites = [("T2b", shape) for shape in ((3, 3), (4, 4), (3, 3, 3))] + [
            (theorem, shape)
            for theorem in ("T2a", "T2c", "T3", "T4")
            for shape in ((3, 3), (5, 5), (3, 3, 3))
        ]
        digest = hashlib.sha256()
        for theorem, shape in suites:
            for seed in range(5):
                digest.update(f"{theorem} {shape} {seed}\n".encode())
                records = run_suite(SuiteConfig(theorem, 30, seed, grid_shape=shape)).records
                for row in _suite_rows(records):
                    line = "\t".join(f"{key}={fmt_value(value)}" for key, value in row.items())
                    digest.update(f"{line}\n".encode())
        assert digest.hexdigest() == SUITE_ROWS_DIGEST

    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3)])
    def test_each_case_decides_membership_once(self, shape, monkeypatch):
        """A generated utility is a member by construction, and only the
        membership premise certifies it: one ``is_member`` call per case."""
        calls = []

        def counting(u, fc):
            calls.append(fc)
            return is_member(u, fc)

        for module in (utility_module, statics_module, dominance_module):
            monkeypatch.setattr(module, "is_member", counting)
        for theorem in ALL_THEOREMS:
            config = SuiteConfig(theorem, 4, seed=1, grid_shape=shape)
            for case_id in range(config.n_cases):
                calls.clear()
                assert replay_case(config, case_id).report.status == "pass"
                assert calls == [THEOREM_CLASS[theorem]], (theorem, case_id)

    def test_empty_suite(self):
        report = run_suite(SuiteConfig("T2a", 0, seed=0))
        assert report.records == ()
        assert report.summary == {"pass": 0, "fail": 0, "vacuous": 0}

    def test_deterministic_given_seed(self):
        a = run_suite(SuiteConfig("T3", 6, seed=33))
        b = run_suite(SuiteConfig("T3", 6, seed=33))
        assert a == b
        c = run_suite(SuiteConfig("T3", 6, seed=34))
        assert a != c

    def test_jobs_do_not_change_report(self):
        serial = run_suite(SuiteConfig("T4", 8, seed=5, jobs=1))
        inert = run_suite(SuiteConfig("T4", 8, seed=5, jobs=4))
        assert [r.report for r in serial.records] == [r.report for r in inert.records]

    def test_replay_matches_suite_record(self):
        for jobs in (1, 4):
            config = SuiteConfig("T2c", 10, seed=77, jobs=jobs)
            suite = run_suite(config)
            assert suite.records == tuple(replay_case(config, i) for i in range(10))
        with pytest.raises(ValueError, match="case id"):
            replay_case(config, 10)

    def test_generate_case_determinism(self):
        a = generate_case("T2b", 3, seed=9)
        b = generate_case("T2b", 3, seed=9)
        assert a == b
        assert generate_case("T2b", 4, seed=9) != a

    def test_case_premises_hold_by_construction(self):
        for theorem in ALL_THEOREMS:
            case = generate_case(theorem, 0, seed=2024)
            rep = verify_theorem(case)
            assert not rep.vacuous, (theorem, rep.reason)

    def test_transfer_needs_long_enough_axes(self):
        # an upward shift on one node used to redraw forever
        with pytest.raises(ValueError, match="upward shifts need an axis with at least 2 nodes"):
            generate_case("T2a", 0, 0, (1, 1))
        with pytest.raises(ValueError, match="concordance transfers need at least 2 nodes on axis 1"):
            generate_case("T3", 0, 0, (3, 1))

    def test_transfer_needs_enough_dimensions(self):
        with pytest.raises(ValueError, match="^concordance transfers need at least two dimensions$"):
            generate_case("T3", 0, 0, (3,))
        with pytest.raises(ValueError, match="^mean-preserving spreads need an axis with at least 3 nodes$"):
            generate_case("T2b", 0, 0, (2, 2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig("T5", 1, 0)
        with pytest.raises(ValueError):
            SuiteConfig("T2a", -1, 0)
        with pytest.raises(ValueError):
            SuiteConfig("T2a", 1, 0, jobs=0)
        with pytest.raises(ValueError, match="n_cases must be an integer"):
            SuiteConfig("T2a", 2.0, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            SuiteConfig("T2a", 1, 0.5)
        with pytest.raises(ValueError, match="jobs must be an integer"):
            SuiteConfig("T2a", 1, 0, jobs=1.5)
        assert run_suite(SuiteConfig("T3", np.int64(2), np.int32(4))) == run_suite(SuiteConfig("T3", 2, 4))

    def test_grid_shape_is_checked(self):
        """``(True, 3)`` once ran a 1x3 suite, ``(2.5, 3)`` failed with a
        ``TypeError`` deep in grid generation and ``(3, 0)`` with numpy's
        negative dimensions."""
        for shape, message in [
            ((True, 3), "grid_shape must be an integer, got True"),
            ((2.5, 3), "grid_shape must be an integer, got 2.5"),
            ((3, 0), "grid_shape must be at least 1, got 0"),
            ((), "grid_shape needs at least one axis"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                SuiteConfig("T2a", 1, 0, grid_shape=shape)
        wide = SuiteConfig("T2a", 2, 0, grid_shape=(np.int64(3), 2))
        assert run_suite(wide).records == run_suite(SuiteConfig("T2a", 2, 0, grid_shape=(3, 2))).records

    def test_suite_past_the_cone_guard_is_refused_before_its_grid(self, monkeypatch):
        """A 3000x3000 increasing cone (36 M entries) is past the guard, so
        no case could run: the grid and its 9 M-node pmf are never drawn."""

        def draw(*args):
            raise AssertionError("grid drawn for a refused cone")

        monkeypatch.setattr(statics_module, "_random_grid", draw)
        for theorem, shape in [("T2a", (3000, 3000)), ("T3", (100000,) * 3), ("T2b", (100, 100))]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"cone would be \d+ x \d+ = \d+ entries \(guard"):
                generate_case(theorem, 0, 0, shape)
            assert time.perf_counter() - start < 1.0

    def test_fractional_seed_or_case_index_is_refused(self):
        """``generate_case`` once truncated both: seed 1.7 gave seed 1's
        case and case index 1.9 case 1's."""
        with pytest.raises(ValueError, match="seed must be an integer, got 1.7"):
            generate_case("T3", 0, 1.7, (3, 3))
        with pytest.raises(ValueError, match="key must be an integer, got 1.9"):
            generate_case("T3", 1.9, 0, (3, 3))
        assert generate_case("T3", np.int64(1), np.int64(1), (3, 3)) == generate_case("T3", 1, 1, (3, 3))


class TestClosure:
    def test_counterexample_properties(self):
        u = truncation_counterexample()
        assert u.values == (5.0, -5.0, 14.0, 5.0)
        assert is_member(u, FunctionClass.SUPERMODULAR).member
        res = is_member(truncate(u), FunctionClass.SUPERMODULAR)
        assert res.witness.margin == -4.0

    @pytest.mark.parametrize("operator", ["truncate", "affine", "clamp"])
    def test_increasing_supermodular_closed(self, operator):
        rep = closure_check(FunctionClass.INCREASING_SUPERMODULAR, operator, 12, seed=3)
        assert rep.preserved == 12 and rep.passed and not rep.expects_violation

    def test_supermodular_truncation_expects_the_counterexample(self):
        rep = closure_check(FunctionClass.SUPERMODULAR, "truncate", 5, seed=3)
        assert rep.expects_violation and rep.passed
        w = rep.counterexample_witness
        assert w is not None and w.margin == -4.0
        assert w.nodes == ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))

    def test_supermodular_affine_is_closed(self):
        rep = closure_check(FunctionClass.SUPERMODULAR, "affine", 12, seed=4)
        assert rep.preserved == 12 and rep.passed and not rep.expects_violation

    def test_ultramodular_clamp_expects_violation(self):
        rep = closure_check(FunctionClass.ULTRAMODULAR, "clamp", 4, seed=5)
        assert rep.expects_violation and rep.passed
        assert (FunctionClass.ULTRAMODULAR, "clamp") in NOT_CLOSED

    def test_a_draw_that_is_not_a_member_raises(self, monkeypatch):
        """Each draw is certified before its operator is applied: here the
        second sample's draw is rejected."""
        verdicts = iter([True, True, False])

        def second_draw_rejected(u, fc):
            return MembershipResult(next(verdicts), fc, None)

        monkeypatch.setattr(statics_module, "is_member", second_draw_rejected)
        message = "^sample 1: the drawn increasing member failed is_member$"
        with pytest.raises(RuntimeError, match=message):
            closure_check(FunctionClass.INCREASING, "truncate", 3, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="operator"):
            closure_check(FunctionClass.INCREASING, "negate", 3, seed=0)
        with pytest.raises(ValueError, match="sample"):
            closure_check(FunctionClass.INCREASING, "truncate", 0, seed=0)

    def test_sample_count_must_be_an_integer(self):
        """``True`` once ran one sample and reported ``samples = True``;
        2.0 and 2.5 raised numpy's ``TypeError``."""
        for samples in (True, 2.0, 2.5, "3"):
            with pytest.raises(ValueError, match="samples must be an integer"):
                closure_check(FunctionClass.INCREASING, "truncate", samples, seed=0)
        rep = closure_check(FunctionClass.INCREASING, "truncate", np.int64(2), seed=0)
        assert rep.samples == 2 and type(rep.samples) is int
        assert rep == closure_check(FunctionClass.INCREASING, "truncate", 2, seed=0)


class TestConcordancePath:
    def test_reservation_utility_monotone_in_dependence(self, unit_square):
        u = tabulate_family("product", unit_square)
        params = SearchParams(0.5, 1.0)
        base = make_pmf(unit_square, [0.25] * 4)
        previous = None
        previous_size = None
        for delta in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
            pmf = concordance_transfer(base, (0, 1), ((1, 2), (1, 2)), delta)
            sol = reservation_utility(pmf, u, params)
            # closed form along this path: 12 / (7 - 4*delta)
            assert sol.reservation_utility == pytest.approx(12.0 / (7.0 - 4.0 * delta), abs=1e-9)
            if previous is not None:
                assert sol.reservation_utility >= previous - 1e-9
                assert len(sol.acceptance) <= previous_size
            previous = sol.reservation_utility
            previous_size = len(sol.acceptance)
