import hashlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import mcsearch.dominance as dominance_module
import mcsearch.simplex as simplex_module
from mcsearch import (
    DominanceResult,
    FunctionClass,
    common_grid,
    concordance_transfer,
    dominates,
    expectation,
    fosd_shift,
    is_member,
    make_grid,
    make_pmf,
    marginal,
    mean_preserving_spread,
    random_member,
    tabulate,
)
from mcsearch.simplex import LpResult
from mcsearch.statics import generate_case, verify_theorem
from mcsearch.utility import MEMBERSHIP_TOL, ConeMatrix, MembershipResult
from cone_oracle import (
    CLOSED_FORM_CLASSES,
    builds_cone_lp,
    dominates_increasing_bruteforce,
    oracle_a_ub,
    oracle_convex_program,
)
from conftest import random_grid, random_pmf

FC = FunctionClass


def _uniform_and_shifted(grid, stride):
    """The uniform pmf, and it with node 0's mass moved to node ``stride``
    (one step along an axis): a pair whose means differ."""
    f = make_pmf(grid, [1.0 / grid.size] * grid.size)
    mass = f.mass_array.copy()
    mass[stride] += mass[0]
    mass[0] = 0.0
    return f, make_pmf(grid, mass)


class TestVerdicts:
    def test_concordant_pair_dominates_on_supermodular(self, unit_square):
        f = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        g = make_pmf(unit_square, [0.25] * 4)
        res = dominates(f, g, FC.SUPERMODULAR)
        assert res.verdict == "dominates" and bool(res)
        assert res.lp_optimum >= -1e-9

    def test_reflexivity_all_classes(self, unit_square):
        pmf = make_pmf(unit_square, [0.1, 0.2, 0.3, 0.4])
        for fc in FC:
            res = dominates(pmf, pmf, fc)
            assert res.verdict == "dominates"
            assert abs(res.lp_optimum) <= 1e-9
        # and symmetrically for a distinct equal-valued copy
        res = dominates(make_pmf(unit_square, [0.1, 0.2, 0.3, 0.4]), pmf, FC.INCREASING)
        assert res.verdict == "dominates"

    def test_fosd_pair_increasing(self):
        g1 = make_grid([[0, 2]])
        f = make_pmf(g1, [0.25, 0.75])
        g = make_pmf(g1, [0.5, 0.5])
        assert dominates(f, g, FC.INCREASING).verdict == "dominates"
        rev = dominates(g, f, FC.INCREASING)
        assert rev.verdict == "fails"
        # the only violating direction is the upper set {2}
        assert rev.witness is not None
        assert rev.lp_optimum == pytest.approx(-0.25, abs=1e-9)

    def test_failure_witness_is_sound(self, unit_square):
        f = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        g = make_pmf(unit_square, [0.25] * 4)
        res = dominates(g, f, FC.SUPERMODULAR)
        assert res.verdict == "fails"
        w = res.witness
        assert is_member(w, FC.SUPERMODULAR).member
        gap = expectation(g, w) - expectation(f, w)
        assert gap < -1e-9
        assert gap == pytest.approx(res.lp_optimum, abs=1e-9)

    def test_witness_sound_on_random_failures(self):
        rng = np.random.default_rng(21)
        seen = 0
        for _ in range(40):
            grid = random_grid(rng, (3, 3))
            f, g = random_pmf(grid, rng), random_pmf(grid, rng)
            for fc in (FC.INCREASING, FC.SUPERMODULAR, FC.CONVEX, FC.INCREASING_ULTRAMODULAR):
                res = dominates(f, g, fc)
                if res.verdict == "fails":
                    seen += 1
                    assert is_member(res.witness, fc).member
                    assert expectation(f, res.witness) - expectation(g, res.witness) < -1e-9
        assert seen > 10

    def test_t4_at_20x20_keeps_its_verdict_and_optimum(self, monkeypatch):
        """The 20x20 increasing-ultramodular cone LP takes 379 pivots, all
        degenerate.  Verdict, optimum and the LP's point, to the bit, are
        the ones the dense tableau found before the simplex updated only
        the pivot row's support."""
        lps = []
        solve = dominance_module.solve_lp

        def recording(*args, **kwargs):
            lps.append(solve(*args, **kwargs))
            return lps[-1]

        monkeypatch.setattr(dominance_module, "solve_lp", recording)
        case = generate_case("T4", 0, 3, (20, 20))
        res = dominates(case.f, case.g, case.function_class)
        assert res.verdict == "dominates" and res.lp_optimum.hex() == "0x0.0p+0"
        [lp] = lps
        assert (lp.status, lp.phase1_pivots, lp.phase2_pivots, lp.degenerate_pivots, lp.bland_pivots) == (
            "optimal", 0, 379, 379, 0
        )
        assert hashlib.sha256(lp.x.tobytes()).hexdigest() == (
            "5a312281df4bd8dfbb4d4a94ad0bf44d01bb8cfced1206b90e21b4ca0568cdb1"
        )

    def test_embeds_distinct_grids(self):
        f = make_pmf(make_grid([[0, 1]]), [0.2, 0.8])
        g = make_pmf(make_grid([[0, 2]]), [0.2, 0.8])
        # g pushes mass to 2 > 1, so g dominates f on increasing, not conversely
        assert dominates(g, f, FC.INCREASING).verdict == "dominates"
        assert dominates(f, g, FC.INCREASING).verdict == "fails"

    def test_variable_guard(self):
        # 10,224 cone rows and 5,184 box rows over 5,184 values and 15,408
        # slacks: 317 M tableau entries.  The leading axis of one node puts
        # the 72x72 increasing cone on a grid of three axes, which the LP
        # decides.
        axis = list(range(72))
        grid = make_grid([[0.0], axis, axis])
        f = make_pmf(grid, [1.0 / grid.size] * grid.size)
        with pytest.raises(ValueError, match=r"15408 x 20593 = 317296944 entries \(guard"):
            dominates(f, f, FC.INCREASING)

    def test_closed_form_decides_past_the_guard(self, monkeypatch):
        # the 72x72 increasing query whose LP tableau the guard refuses
        axis = list(range(72))
        grid = make_grid([axis, axis])
        f = make_pmf(grid, [1.0 / grid.size] * grid.size)

        def build(*args, **kwargs):
            raise AssertionError("cone LP built on a closed-form route")

        monkeypatch.setattr(dominance_module, "solve_lp", build)
        monkeypatch.setattr(dominance_module, "local_rows", build)
        start = time.perf_counter()
        res = dominates(f, f, FC.INCREASING)
        assert time.perf_counter() - start < 0.1
        assert res == DominanceResult("dominates", 0.0, None)

    def test_entry_guard_stops_before_the_cone_is_built(self, monkeypatch):
        # the convex cone has 2,558,400 rows: a 98 GB constraint matrix and
        # a 2,560,000 x 2,568,001 tableau.  g moves one node's mass a step
        # along axis 0, so the means differ and the pair goes to the cone LP
        axis = [float(x) for x in range(40)]
        grid = make_grid([axis, axis])
        f, g = _uniform_and_shifted(grid, stride=40)

        def build(*args):
            raise AssertionError("cone built past the entry guard")

        monkeypatch.setattr(dominance_module, "local_rows", build)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"LP tableau would be 2560000 x 2568001 = \d+ entries \(guard"):
            dominates(f, g, FC.CONVEX)
        assert time.perf_counter() - start < 2.0

    def test_coupling_decides_an_equal_pair_past_the_guard(self, monkeypatch):
        # the 40x40 convex query whose cone the entry guard refuses: an
        # empty excess is coupled without an LP
        axis = [float(x) for x in range(40)]
        grid = make_grid([axis, axis])
        f = make_pmf(grid, [1.0 / grid.size] * grid.size)

        def build(*args, **kwargs):
            raise AssertionError("cone LP built for an empty excess")

        monkeypatch.setattr(dominance_module, "local_rows", build)
        monkeypatch.setattr(dominance_module, "solve_lp", build)
        start = time.perf_counter()
        assert dominates(f, f, FC.CONVEX) == DominanceResult("dominates", 0.0, None)
        assert time.perf_counter() - start < 2.0

    def test_coupling_past_the_guard_is_not_tried(self, monkeypatch):
        # a mean-matched 40x40 pair has about 800 sources and 800 sinks: a
        # coupling of some 640,000 variables, refused by its counts before
        # any array of its size is built; the cone LP's guard then speaks
        axis = [float(x) for x in range(40)]
        f, g = _mean_matched_pair(np.random.default_rng(0), make_grid([axis, axis]))
        gap = f.mass_array - g.mass_array
        n_src, n_snk = int((gap < 0).sum()), int((gap > 0).sum())
        shapes = []
        predict = dominance_module.tableau_shape

        def recording_predict(*args, **kwargs):
            shapes.append((args, kwargs))
            return predict(*args, **kwargs)

        def build(*args, **kwargs):
            raise AssertionError("LP built past the guard")

        monkeypatch.setattr(dominance_module, "tableau_shape", recording_predict)
        monkeypatch.setattr(dominance_module, "local_rows", build)
        monkeypatch.setattr(dominance_module, "solve_lp", build)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"LP tableau would be 2560000 x 2568001 = \d+ entries \(guard"):
            dominates(f, g, FC.CONVEX)
        assert time.perf_counter() - start < 2.0
        assert shapes == [
            ((0, n_src + n_snk + 2 * n_src, n_src * n_snk), {}),
            ((1600 * 1599, 0, 1600 * 3), {"n_free": 1600 * 2, "n_box": 1600}),
        ]

    def test_tableau_guard_counts_the_tableau_not_the_constraints(self, monkeypatch):
        # 6,162 x 158 constraint entries, but a 6,241 x 6,479 tableau (308 MiB)
        grid = make_grid([[float(x) for x in range(79)]])
        f, g = _uniform_and_shifted(grid, stride=1)

        def build(*args):
            raise AssertionError("cone built past the tableau guard")

        monkeypatch.setattr(dominance_module, "local_rows", build)
        with pytest.raises(ValueError, match=r"LP tableau would be 6241 x 6479 = 40435439 entries"):
            dominates(f, g, FC.CONVEX)

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (3, 3), (2, 2, 2)])
    def test_predicted_tableau_is_the_one_allocated(self, shape, monkeypatch):
        """The shape ``dominates`` checks before it builds the cone is the
        shape of the tableau the simplex then pivots on."""
        predicted, allocated = [], []
        predict, pivot = dominance_module.tableau_shape, simplex_module._pivot

        def recording_predict(*args, **kwargs):
            predicted.append(predict(*args, **kwargs))
            return predicted[-1]

        def recording_pivot(T, *args):
            allocated.append(T.shape)
            pivot(T, *args)

        monkeypatch.setattr(dominance_module, "tableau_shape", recording_predict)
        monkeypatch.setattr(simplex_module, "_pivot", recording_pivot)
        rng = np.random.default_rng(13)
        grid = random_grid(rng, shape)
        for fc in (fc for fc in FC if builds_cone_lp(grid, fc)):
            predicted.clear()
            allocated.clear()
            dominates(random_pmf(grid, rng), random_pmf(grid, rng), fc)
            # the first pivot is the dominance LP's; later ones may belong
            # to the witness's membership LPs
            assert len(predicted) == 1 and allocated, fc
            assert allocated[0] == predicted[0], fc


def _spread_pair(rng, grid):
    """(F, G): G random, F from it by one to three mean-preserving spreads,
    each at a random interior node of a random axis of length >= 3."""
    g = random_pmf(grid, rng)
    f = g
    axes = [k for k, extent in enumerate(grid.shape) if extent >= 3]
    for _ in range(int(rng.integers(1, 4))):
        axis = int(rng.choice(axes))
        multi = [int(rng.integers(extent)) for extent in grid.shape]
        multi[axis] = int(rng.integers(1, grid.shape[axis] - 1))
        i = grid.flat_index(multi)
        f = mean_preserving_spread(f, axis, grid.node(i), f.mass[i] * float(rng.uniform(0.2, 0.9)))
    return f, g


def _mean_matched_pair(rng, grid):
    """(F, G): F random, G = F + t * d with d a random direction of zero
    mass and zero first moment, and t short of the largest step that keeps
    G nonnegative."""
    f = random_pmf(grid, rng)
    moments = np.vstack([np.ones(grid.size), grid.nodes.T])
    r = rng.normal(size=grid.size)
    d = r - moments.T @ np.linalg.lstsq(moments.T, r, rcond=None)[0]
    longest = np.min(f.mass_array[d < 0] / -d[d < 0])
    return f, make_pmf(grid, f.mass_array + longest * float(rng.uniform(0.2, 0.95)) * d)


def _no_cone(*args):
    raise AssertionError("cone built on the coupling route")


def _convex_minimum_highs(grid, gap):
    c, a_ub, b_ub, bounds = oracle_convex_program(grid, gap)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert ref.status == 0, ref.message
    return float(ref.fun)


class TestCoupling:
    """Convex ``dominates`` by a martingale coupling of G's excess onto F's."""

    @pytest.mark.parametrize(
        "seed,case_id,shape",
        [(11, 1, (3, 3, 3)), (11, 10, (3, 3, 3)), (11, 11, (3, 3, 3)), (41, 0, (3, 3, 3)), (71, 2, (5, 5))],
    )
    def test_cone_lp_stalls_pass(self, seed, case_id, shape):
        # the cone LP stalled on each of these (37-162 s, then vacuous)
        case = generate_case("T2b", case_id, seed, shape)
        start = time.perf_counter()
        report = verify_theorem(case)
        assert time.perf_counter() - start < 1.0
        assert report.status == "pass"
        assert report.premise_dominance == DominanceResult("dominates", 0.0, None)

    def test_shifted_mean_goes_straight_to_the_cone_lp(self, monkeypatch):
        """An upward shift moves the mean, so the coupling LP never runs; the
        cone LP's own subgradients certify its witness without is_member."""
        g = make_pmf(make_grid([[0.0, 1.0, 3.0], [0.0, 1.0, 2.0]]), [1.0 / 9] * 9)
        f = fosd_shift(g, (1.0, 1.0), (3.0, 2.0), 0.05)
        calls = []
        solve = dominance_module.solve_lp

        def counting(*args, **kwargs):
            calls.append("coupling" if kwargs.get("a_eq") is not None else "cone")
            return solve(*args, **kwargs)

        def no_member(*args):
            raise AssertionError("witness re-verified by is_member")

        monkeypatch.setattr(dominance_module, "solve_lp", counting)
        monkeypatch.setattr(dominance_module, "is_member", no_member)
        res = dominates(g, f, FC.CONVEX)
        assert calls == ["cone"]
        assert res.verdict == "fails" and is_member(res.witness, FC.CONVEX)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from(
            [(3,), (5,), (2, 3), (1, 4), (3, 3), (3, 4), (4, 4), (2, 2, 3), (3, 1, 3), (3, 3, 3)]
        ),
        spread=st.booleans(),
        swap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_highs(self, shape, spread, swap, seed):
        """A coupling ``dominates`` needs a HiGHS cone minimum of at least
        -1e-6; a pair below it is never coupled, and comes back ``fails``.
        Every chain of spreads is coupled, on grids with an axis of one
        node too, and a coupling with one entry moved by 1e-6 is refused.

        ``fails`` comes from the cone LP, which on 4x4 and 3x3x3 can end
        ``iteration_limit`` or ``numerical`` after 5 to 130 s (1 of 600
        such 4x4 pairs, 6 of 160 3x3x3 ones), so it is asserted on grids
        of at most 12 nodes."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        f, g = (_spread_pair if spread else _mean_matched_pair)(rng, grid)
        if swap:
            f, g = g, f
        gap = f.mass_array - g.mass_array
        minimum = _convex_minimum_highs(grid, gap)
        coupled = dominance_module._martingale_coupling(grid, gap)
        if spread and not swap:
            assert coupled
        if coupled:
            assert minimum >= -1e-6
            with mock.patch.object(dominance_module, "local_rows", _no_cone):
                assert dominates(f, g, FC.CONVEX) == DominanceResult("dominates", 0.0, None)
            solve = dominance_module.solve_lp

            def perturbed(*args, **kwargs):
                lp = solve(*args, **kwargs)
                x = lp.x.copy()
                x[rng.integers(x.size)] += 1e-6
                return LpResult(lp.status, x, lp.fun)

            with mock.patch.object(dominance_module, "solve_lp", perturbed):
                assert not dominance_module._martingale_coupling(grid, gap)
        elif minimum < -1e-6 and grid.size <= 12:
            assert dominates(f, g, FC.CONVEX).verdict == "fails"

    def test_a_dropped_martingale_row_is_refused(self, monkeypatch):
        """The residual check sums every martingale row itself.  The rows
        add up to the gap's first moment, so a dropped row is implied by
        the others whenever the moment vanishes; this pair's moment is 0.1,
        so the program without source 2's row is feasible and its coupling
        breaks that row by 0.1."""
        grid = make_grid([[0.0, 1.0, 2.0, 3.0]])
        f = make_pmf(grid, [0.2, 0.3, 0.2, 0.3])
        g = make_pmf(grid, [0.0, 0.5, 0.5, 0.0])
        gap = f.mass_array - g.mass_array
        solve = dominance_module.solve_lp
        solved = []

        def dropped(c, a_eq, b_eq):
            lp = solve(c, a_eq=a_eq[:-1], b_eq=b_eq[:-1])
            solved.append(lp.status)
            return lp

        monkeypatch.setattr(dominance_module, "solve_lp", dropped)
        assert not dominance_module._martingale_coupling(grid, gap)
        assert solved == ["optimal"]
        monkeypatch.setattr(dominance_module, "solve_lp", solve)
        assert not dominance_module._martingale_coupling(grid, gap)


class TestInconclusive:
    """The verdicts that certify neither dominance nor failure.  On two
    points the increasing-ultramodular cone is the increasing one, and G
    dominates F there, so the honest verdict is ``fails`` at -0.25."""

    @pytest.fixture
    def pair(self):
        grid = make_grid([[0.0, 2.0]])
        return make_pmf(grid, [0.5, 0.5]), make_pmf(grid, [0.25, 0.75])

    def test_failed_lp_names_its_status(self, pair, monkeypatch):
        stalled = LpResult("iteration_limit", None, None)
        monkeypatch.setattr(dominance_module, "solve_lp", lambda *a, **k: stalled)
        res = dominates(*pair, FC.INCREASING_ULTRAMODULAR)
        assert res == DominanceResult(
            "inconclusive", None, None, "LP status: iteration_limit; relaxed LP status: iteration_limit"
        )
        assert not res

    def test_failed_convex_lp_fails_on_the_linear_witness(self, pair, monkeypatch):
        """The pair's first moment fails the convex screen, so a stalled
        cone LP still leaves U = x / 2, certified like any witness; one
        that does not re-verify goes on to the relaxed LP, and names both
        statuses."""
        stalled = LpResult("iteration_limit", None, None)
        monkeypatch.setattr(dominance_module, "solve_lp", lambda *a, **k: stalled)
        res = dominates(*pair, FC.CONVEX)
        assert (res.verdict, res.lp_optimum) == ("fails", -0.25)
        assert res.witness == tabulate(pair[0].grid, [0.0, 1.0])
        assert res.reason == "LP status: iteration_limit; linear witness"
        rejected = MembershipResult(False, FC.CONVEX, None)
        monkeypatch.setattr(dominance_module, "is_member", lambda u, fc: rejected)
        assert dominates(*pair, FC.CONVEX) == DominanceResult(
            "inconclusive", None, None, "LP status: iteration_limit; relaxed LP status: iteration_limit"
        )

    def test_numerical_convex_lp_fails_on_the_linear_witness(self):
        """A random 3x3x3 pair whose convex cone LP ends ``numerical``: its
        verdict is the normalised linear U on the axis of largest
        |moment| / span, a member whose gap lies above the HiGHS minimum."""
        rng = np.random.default_rng(1023)
        grid = random_grid(rng, (3, 3, 3))
        f, g = random_pmf(grid, rng), random_pmf(grid, rng)
        res = dominates(f, g, FC.CONVEX)
        assert (res.verdict, res.reason) == ("fails", "LP status: numerical; linear witness")
        assert res.lp_optimum == expectation(f, res.witness) - expectation(g, res.witness)
        assert res.lp_optimum == pytest.approx(-0.261369548171, abs=1e-9)
        assert res.lp_optimum >= _convex_minimum_highs(grid, f.mass_array - g.mass_array)
        assert is_member(res.witness, FC.CONVEX).member
        values = np.array(res.witness.values).reshape(grid.shape)
        assert values.min() == 0.0 and values.max() == 1.0
        assert sum(np.ptp(values, axis=k).max() > 0 for k in range(3)) == 1

    def test_drifted_ray_is_numerical_not_unbounded(self, monkeypatch):
        """Seed 1017's convex cone LP is boxed, 0 <= U <= 1, yet after
        11,818 phase-2 pivots no row blocked the entering column.  That ray
        does not check out, so the LP ends ``numerical``, and the pair
        fails on its linear witness."""
        rng = np.random.default_rng(1017)
        grid = random_grid(rng, (3, 3, 3))
        f, g = random_pmf(grid, rng), random_pmf(grid, rng)
        cone_lp, solved = dominance_module._cone_lp, []

        def recorded(*args):
            res, cone = cone_lp(*args)
            solved.append(res.status)
            return res, cone

        monkeypatch.setattr(dominance_module, "_cone_lp", recorded)
        res = dominates(f, g, FC.CONVEX)
        assert solved == ["numerical"]
        assert (res.verdict, res.reason) == ("fails", "LP status: numerical; linear witness")
        assert res.lp_optimum == -0.1305377248086474

    def test_minimum_not_confirmed_by_direct_summation(self, pair, monkeypatch):
        # a claimed minimum whose point, summed directly, has gap 0
        claimed = LpResult("optimal", np.zeros(2), -0.5)
        monkeypatch.setattr(dominance_module, "solve_lp", lambda *a, **k: claimed)
        res = dominates(*pair, FC.INCREASING_ULTRAMODULAR)
        assert res == DominanceResult(
            "inconclusive", -0.5, None, "LP minimum not confirmed by direct summation"
        )

    def test_witness_failing_class_reverification(self, pair, monkeypatch):
        # the LP's point must fail on its own cone for is_member to decide
        rejected = MembershipResult(False, FC.INCREASING_ULTRAMODULAR, None)
        monkeypatch.setattr(ConeMatrix, "margins", lambda self, values: -np.ones(len(self)))
        monkeypatch.setattr(dominance_module, "is_member", lambda u, fc: rejected)
        res = dominates(*pair, FC.INCREASING_ULTRAMODULAR)
        assert res.verdict == "inconclusive" and res.witness is None
        assert res.lp_optimum == pytest.approx(-0.25, abs=1e-9)
        assert res.reason == "LP witness failed class re-verification"

    @pytest.fixture
    def increasing_fails(self):
        # the pair of the dominate_increasing_fails golden: G puts more mass
        # on the top node, so U = 1{x = 2} shows a gap of -0.25
        grid = make_grid([[0.0, 1.0, 2.0]])
        return make_pmf(grid, [0.5, 0.25, 0.25]), make_pmf(grid, [0.25, 0.25, 0.5])

    def test_closed_form_witness_failing_class_reverification(self, increasing_fails, monkeypatch):
        rejected = MembershipResult(False, FC.INCREASING, None)
        monkeypatch.setattr(dominance_module, "is_member", lambda u, fc: rejected)
        assert dominates(*increasing_fails, FC.INCREASING) == DominanceResult(
            "inconclusive", -0.25, None, "LP witness failed class re-verification"
        )

    def test_closed_form_minimum_not_confirmed_by_direct_summation(self, increasing_fails, monkeypatch):
        def claimed(gap):
            # a claimed minimum at U = 0, whose gap summed directly is 0
            return -0.5, np.zeros(gap.size)

        monkeypatch.setitem(dominance_module._CLOSED_FORMS, FC.INCREASING, claimed)
        assert dominates(*increasing_fails, FC.INCREASING) == DominanceResult(
            "inconclusive", -0.5, None, "LP minimum not confirmed by direct summation"
        )

    def test_convex_witness_without_its_subgradients_goes_to_is_member(self, pair, monkeypatch):
        """A convex LP point whose subgradients leave a cone row below the
        tolerance is re-verified by ``is_member``, which decides."""
        solve = dominance_module.solve_lp
        checked = []

        def flat_subgradients(c, **kwargs):
            lp = solve(c, **kwargs)
            x = lp.x.copy()
            x[2:] = 0.0
            return LpResult(lp.status, x, lp.fun)

        def rejecting(u, fc):
            checked.append(u.values)
            return MembershipResult(False, fc, None)

        monkeypatch.setattr(dominance_module, "solve_lp", flat_subgradients)
        monkeypatch.setattr(dominance_module, "is_member", rejecting)
        res = dominates(*pair, FC.CONVEX)
        assert checked == [(0.0, 1.0)]
        assert res == DominanceResult(
            "inconclusive", -0.25, None, "LP witness failed class re-verification"
        )


class TestRelaxedConeLp:
    """A cone LP that ends non-optimal is solved once more with every cone
    row pushed outward by at most ``MEMBERSHIP_TOL / 5``, which ends the
    degenerate stall of its b = 0 start."""

    @pytest.mark.parametrize(
        "seed,shape,swap,status",
        [(144, (4, 4), True, "iteration_limit"), (9, (3, 3, 3), False, "numerical")],
    )
    def test_stalled_convex_pair_fails_on_the_relaxed_witness(self, seed, shape, swap, status):
        """Both pairs have zero first moment, so no linear witness exists,
        and both came back ``inconclusive`` before the relaxed re-solve."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        f, g = _mean_matched_pair(rng, grid)
        if swap:
            f, g = g, f
        res = dominates(f, g, FC.CONVEX)
        assert (res.verdict, res.reason) == ("fails", f"LP status: {status}; relaxed LP status: optimal")
        assert res.lp_optimum == expectation(f, res.witness) - expectation(g, res.witness)
        assert res.lp_optimum == pytest.approx(_convex_minimum_highs(grid, f.mass_array - g.mass_array), abs=1e-9)
        assert is_member(res.witness, FC.CONVEX).member

    @pytest.mark.parametrize("theorem_id,case_id", [("T4", 0), ("T2c", 2)])
    def test_relaxed_lp_on_the_15x15_stalls(self, theorem_id, case_id):
        """Reversed, these pairs end ``numerical`` and ``iteration_limit``
        after 8,474 and 74,750 pivots; relaxed, each ends ``optimal`` at
        the HiGHS minimum with a member point.  Forward, each relaxed
        minimum is within the tolerance, so the pair dominates."""
        case = generate_case(theorem_id, case_id, 3, (15, 15))
        fc, grid = case.function_class, case.f.grid
        gap = case.g.mass_array - case.f.mass_array
        res, cone = dominance_module._cone_lp(grid, gap, fc, relaxed=True)
        ref = linprog(gap, A_ub=oracle_a_ub(grid, fc), b_ub=np.zeros(len(cone)), bounds=[(0, 1)] * grid.size)
        assert res.ok and ref.status == 0
        assert res.fun == pytest.approx(ref.fun, abs=1e-9)
        assert is_member(tabulate(grid, res.x), fc).member
        forward, _ = dominance_module._cone_lp(grid, -gap, fc, relaxed=True)
        assert forward.ok and forward.fun >= -MEMBERSHIP_TOL

    def test_relaxed_minimum_certifies_dominates(self, monkeypatch):
        """A dominating pair whose first LP stalls: the relaxed minimum
        bounds the true one from below, so it certifies ``dominates``."""
        case = generate_case("T3", 0, 1, (3, 3, 3))
        cone_lp, solved = dominance_module._cone_lp, []

        def stalled_first(grid, gap, fc, relaxed=False):
            res, cone = cone_lp(grid, gap, fc, relaxed)
            solved.append((relaxed, res.status))
            return (res if relaxed else LpResult("iteration_limit", None, None)), cone

        monkeypatch.setattr(dominance_module, "_cone_lp", stalled_first)
        res = dominates(case.f, case.g, FC.INCREASING_SUPERMODULAR)
        assert solved == [(False, "optimal"), (True, "optimal")]
        assert (res.verdict, res.witness) == ("dominates", None)
        assert res.reason == "LP status: iteration_limit; relaxed LP status: optimal"
        assert res.lp_optimum >= -MEMBERSHIP_TOL


#: 1-D grids and 2-D grids from 1x2 to 8x8.
CLOSED_FORM_SHAPES = st.one_of(
    st.tuples(st.integers(2, 8)), st.tuples(st.integers(1, 8), st.integers(2, 8))
)


class TestClosedForms:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=CLOSED_FORM_SHAPES,
        fc=st.sampled_from(CLOSED_FORM_CLASSES),
        generated=st.booleans(),
        swap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_cone_lp(self, shape, fc, generated, swap, seed):
        """Verdict, optimum and witness against the cone LP, on random pairs
        and on the suites' dominating pairs, either way round.  Witnesses
        may part only on a tie, where the LP's vertex is another minimiser."""
        if generated and (fc is FC.INCREASING or min(shape) >= 2 and len(shape) == 2):
            case = generate_case("T2a" if fc is FC.INCREASING else "T3", 0, seed, shape)
            f, g = case.f, case.g
        else:
            rng = np.random.default_rng(seed)
            grid = random_grid(rng, shape)
            f, g = random_pmf(grid, rng), random_pmf(grid, rng)
        if swap:
            f, g = g, f
        res = dominates(f, g, fc)
        grid, fe, ge = common_grid(f, g)
        gap = fe.mass_array - ge.mass_array
        lp, _ = dominance_module._cone_lp(grid, gap, fc)
        assert lp.ok
        assert res.verdict == ("dominates" if lp.fun >= -MEMBERSHIP_TOL else "fails")
        assert abs(res.lp_optimum - lp.fun) <= 1e-9
        if res.verdict == "dominates":
            return
        vertex, witness = lp.x[: grid.size], res.witness.values_array
        if vertex.tobytes() != witness.tobytes():
            assert np.isin(vertex, (0.0, 1.0)).all() and is_member(tabulate(grid, vertex), fc)
            assert abs(float(gap @ vertex) - float(gap @ witness)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_summation_by_parts(self, shape, seed):
        """E_F phi - E_G phi = sum of dphi * D, with dphi phi's mixed
        difference (its first difference on the low edges, phi itself at the
        corner) and D the upper-orthant survival gap, all summed directly.
        A member's dphi is nonnegative off the corner, where D is the total
        gap, 0: so D >= 0 certifies dominance, and the closed form's minimum
        is D's."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        f, g = random_pmf(grid, rng), random_pmf(grid, rng)
        phi = random_member(FC.INCREASING_SUPERMODULAR, grid, rng)
        n, m = shape
        values = phi.values_array.reshape(shape)
        gap = (f.mass_array - g.mass_array).reshape(shape)

        def at(a, b):
            return values[a, b] if a >= 0 and b >= 0 else 0.0

        total = 0.0
        survival = np.empty(shape)
        for a in range(n):
            for b in range(m):
                dphi = at(a, b) - at(a - 1, b) - at(a, b - 1) + at(a - 1, b - 1)
                if (a, b) != (0, 0):
                    assert dphi >= -MEMBERSHIP_TOL
                survival[a, b] = sum(gap[x, y] for x in range(a, n) for y in range(b, m))
                total += dphi * survival[a, b]
        direct = expectation(f, phi) - expectation(g, phi)
        assert abs(direct - total) <= 1e-12 * (1.0 + np.abs(values).max())
        minimum, _ = dominance_module._orthant_minimum(gap)
        assert abs(minimum - survival.min()) <= 1e-15


class TestBruteForce:
    def test_degenerate_at_maximum_dominates(self, unit_square):
        f = make_pmf(unit_square, [0, 0, 0, 1])
        g = make_pmf(unit_square, [0.25] * 4)
        assert dominates_increasing_bruteforce(f, g)

    def test_degenerate_at_maximum_is_not_dominated(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        g = make_pmf(unit_square, [0, 0, 0, 1])
        assert not dominates_increasing_bruteforce(f, g)

    def test_node_cap(self):
        grid = make_grid([list(range(13))])
        f = make_pmf(grid, [1.0 / 13] * 13)
        with pytest.raises(ValueError, match="12"):
            dominates_increasing_bruteforce(f, f)

    def test_matches_lp_on_random_pairs(self):
        rng = np.random.default_rng(22)
        grid = make_grid([[0, 1, 2], [0, 1, 2]])
        outcomes = {True: 0, False: 0}
        for i in range(60):
            f, g = random_pmf(grid, rng), random_pmf(grid, rng)
            if i % 4 == 0:
                f = g  # exercise the boundary case exactly
            lp = dominates(f, g, FC.INCREASING).verdict == "dominates"
            bf = dominates_increasing_bruteforce(f, g)
            assert lp == bf
            outcomes[bf] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0


class TestGenerators:
    def test_fosd_shift_construction(self):
        g = make_pmf(make_grid([[0, 2]]), [0.5, 0.5])
        shifted = fosd_shift(g, (0,), (2,), 0.25)
        assert shifted.mass == (0.25, 0.75)

    def test_fosd_shift_negative_eps(self):
        g = make_pmf(make_grid([[0, 2]]), [0.5, 0.5])
        with pytest.raises(ValueError, match="^eps must be nonnegative$"):
            fosd_shift(g, (0,), (2,), -0.1)

    def test_fosd_shift_identity(self):
        g = make_pmf(make_grid([[0, 2]]), [0.5, 0.5])
        assert fosd_shift(g, (0,), (2,), 0.0) == g

    def test_fosd_shift_incomparable_nodes(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        with pytest.raises(ValueError, match="componentwise"):
            fosd_shift(g, (1, 2), (2, 1), 0.1)

    def test_fosd_shift_insufficient_mass(self):
        g = make_pmf(make_grid([[0, 2]]), [0.1, 0.9])
        with pytest.raises(ValueError, match="cannot move"):
            fosd_shift(g, (0,), (2,), 0.2)

    def test_spread_symmetric(self):
        g = make_pmf(make_grid([[0, 1, 2]]), [0, 1, 0])
        spread = mean_preserving_spread(g, 0, (1,), 1.0)
        assert spread.mass == (0.5, 0.0, 0.5)

    def test_spread_nonuniform_weights(self):
        # lambda * 0 + (1 - lambda) * 3 = 1 forces weights (2/3, 1/3)
        g = make_pmf(make_grid([[0, 1, 3]]), [0, 1, 0])
        spread = mean_preserving_spread(g, 0, (1,), 1.0)
        assert spread.mass[0] == pytest.approx(2 / 3)
        assert spread.mass[2] == pytest.approx(1 / 3)
        mean_before = 1.0
        mean_after = sum(m * x for m, x in zip(spread.mass, [0, 1, 3]))
        assert mean_after == pytest.approx(mean_before, abs=1e-12)

    def test_spread_identity(self):
        g = make_pmf(make_grid([[0, 1, 2]]), [0.2, 0.6, 0.2])
        assert mean_preserving_spread(g, 0, (1,), 0.0) == g

    def test_spread_boundary_and_mass_errors(self):
        g = make_pmf(make_grid([[0, 1, 2]]), [0.2, 0.6, 0.2])
        with pytest.raises(ValueError, match="boundary"):
            mean_preserving_spread(g, 0, (0,), 0.1)
        with pytest.raises(ValueError, match="cannot spread"):
            mean_preserving_spread(g, 0, (1,), 0.7)

    def test_spread_argument_checks(self):
        g = make_pmf(make_grid([[0, 1, 2]]), [0.2, 0.6, 0.2])
        with pytest.raises(ValueError, match="^eps must be nonnegative$"):
            mean_preserving_spread(g, 0, (1,), -0.1)
        with pytest.raises(ValueError, match="^axis 1 out of range$"):
            mean_preserving_spread(g, 1, (1,), 0.1)

    def test_spread_preserves_marginal_means(self):
        rng = np.random.default_rng(23)
        grid = make_grid([[0, 1, 2, 4], [0, 3, 5]])
        g = random_pmf(grid, rng)
        i = grid.node_index((1.0, 3.0))
        spread = mean_preserving_spread(g, 0, (1.0, 3.0), g.mass[i] * 0.5)
        for dim in range(2):
            before = sum(m * x for m, x in zip(marginal(g, dim).mass, grid.axes[dim]))
            after = sum(m * x for m, x in zip(marginal(spread, dim).mass, grid.axes[dim]))
            assert after == pytest.approx(before, abs=1e-12)

    def test_transfer_construction(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        moved = concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.25)
        assert moved.mass == (0.5, 0.0, 0.0, 0.5)

    def test_transfer_identity(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        assert concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.0) == g

    def test_transfer_preserves_marginals(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        moved = concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.25)
        for dim in range(2):
            assert marginal(moved, dim).mass == marginal(g, dim).mass == (0.5, 0.5)

    def test_transfer_donor_guard(self, unit_square):
        g = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        with pytest.raises(ValueError, match="cannot transfer"):
            concordance_transfer(g, (0, 1), ((1, 2), (1, 2)), 0.1)

    def test_transfer_argument_checks(self, unit_square):
        g = make_pmf(unit_square, [0.25] * 4)
        cell = ((1, 2), (1, 2))
        with pytest.raises(ValueError, match="^delta must be nonnegative$"):
            concordance_transfer(g, (0, 1), cell, -0.1)
        with pytest.raises(ValueError, match=r"^dims \(1, 1\) must be two distinct dimensions$"):
            concordance_transfer(g, (1, 1), cell, 0.1)
        with pytest.raises(ValueError, match=r"^cell coordinates must be ordered \(low, high\) in both dims$"):
            concordance_transfer(g, (0, 1), ((1, 2), (2, 1)), 0.1)
        cube = make_pmf(make_grid([[0, 1], [0, 1], [0, 1]]), [0.125] * 8)
        with pytest.raises(ValueError, match=r"^at= must give coordinates for dims \[2\]$"):
            concordance_transfer(cube, (0, 1), ((0, 1), (0, 1)), 0.05, at=(1.0, 0.0))

    def test_transfer_three_dims_needs_anchor(self):
        grid = make_grid([[0, 1], [0, 1], [0, 1]])
        g = make_pmf(grid, [0.125] * 8)
        with pytest.raises(ValueError, match="at="):
            concordance_transfer(g, (0, 1), ((0, 1), (0, 1)), 0.05)
        moved = concordance_transfer(g, (0, 1), ((0, 1), (0, 1)), 0.05, at=(1.0,))
        assert sum(moved.mass) == pytest.approx(1.0)
        for dim in range(3):
            assert marginal(moved, dim).mass == pytest.approx(marginal(g, dim).mass)

    def test_generator_soundness_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            grid = random_grid(rng, (3, 3))
            g = random_pmf(grid, rng)

            i = int(rng.integers(grid.size))
            multi = grid.multi_index(i)
            target = tuple(int(rng.integers(m, s)) for m, s in zip(multi, grid.shape))
            shifted = fosd_shift(
                g, grid.node(i), grid.node(grid.flat_index(target)), g.mass[i] * 0.5
            )
            assert dominates(shifted, g, FC.INCREASING).verdict == "dominates"

            inner = grid.node(grid.flat_index((1, int(rng.integers(3)))))
            spread = mean_preserving_spread(g, 0, inner, g.mass[grid.node_index(inner)] * 0.5)
            assert dominates(spread, g, FC.CONVEX).verdict == "dominates"
            assert dominates(spread, g, FC.COMPONENTWISE_CONVEX).verdict == "dominates"

            cell = (
                (grid.axes[0][0], grid.axes[0][2]),
                (grid.axes[1][1], grid.axes[1][2]),
            )
            lh = grid.node_index((cell[0][0], cell[1][1]))
            hl = grid.node_index((cell[0][1], cell[1][0]))
            delta = min(g.mass[lh], g.mass[hl]) * 0.5
            moved = concordance_transfer(g, (0, 1), cell, delta)
            assert dominates(moved, g, FC.SUPERMODULAR).verdict == "dominates"
            assert dominates(moved, g, FC.INCREASING_SUPERMODULAR).verdict == "dominates"


class TestClassNesting:
    # dominance over a superset of functions implies dominance over a subset
    IMPLICATIONS = [
        (FC.INCREASING, FC.INCREASING_SUPERMODULAR),
        (FC.INCREASING, FC.INCREASING_ULTRAMODULAR),
        (FC.SUPERMODULAR, FC.INCREASING_SUPERMODULAR),
        (FC.SUPERMODULAR, FC.ULTRAMODULAR),
        (FC.COMPONENTWISE_CONVEX, FC.ULTRAMODULAR),
        (FC.COMPONENTWISE_CONVEX, FC.CONVEX),
        (FC.INCREASING_SUPERMODULAR, FC.INCREASING_ULTRAMODULAR),
        (FC.ULTRAMODULAR, FC.INCREASING_ULTRAMODULAR),
    ]

    def test_nesting_on_random_pairs(self):
        rng = np.random.default_rng(25)
        grid = make_grid([[0, 1, 2], [0, 1, 2]])
        hits = 0
        for _ in range(25):
            f, g = random_pmf(grid, rng), random_pmf(grid, rng)
            verdicts = {fc: dominates(f, g, fc).verdict for fc in FC}
            for big, small in self.IMPLICATIONS:
                if verdicts[big] == "dominates":
                    hits += 1
                    assert verdicts[small] == "dominates", (big, small)
        assert hits > 0
