import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import lp_oracle
from cone_oracle import oracle_convex_program
from conftest import random_grid, random_pmf
import mcsearch.dominance as dominance_module
import mcsearch.simplex as simplex_module
import mcsearch.utility as utility_module
from mcsearch.grids import common_grid, derive_rng, make_grid, make_pmf
from mcsearch.simplex import LpResult, solve_lp, tableau_shape
from mcsearch.statics import _apply_transfer, generate_case
from mcsearch.utility import FunctionClass

#: Beale's example (1955): Dantzig pricing with lowest-index ties cycles
#: through six degenerate bases and never reaches the optimum -1.25.
BEALE = dict(
    c=[-0.75, 20, -0.5, 6],
    a_ub=[[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]],
    b_ub=[0, 0, 1],
)


def _convex_lp(f, g):
    """The convex dominance LP as ``dominates`` builds it: (c, a_ub, b_ub, bounds)."""
    grid, fe, ge = common_grid(f, g)
    return oracle_convex_program(grid, fe.mass_array - ge.mass_array)


class TestKnownPrograms:
    def test_simple_box(self):
        res = solve_lp([-1.0], a_ub=[[1.0]], b_ub=[1.0])
        assert res.ok and res.fun == pytest.approx(-1.0) and res.x[0] == pytest.approx(1.0)

    def test_two_variable(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6
        res = solve_lp([-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert res.ok
        assert res.fun == pytest.approx(-(8 / 5 + 6 / 5))

    def test_equality(self):
        res = solve_lp([1.0, 2.0], a_eq=[[1, 1]], b_eq=[3.0])
        assert res.ok and res.fun == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_infeasible(self):
        res = solve_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1, x >= 0
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([-1.0])  # min -x, x >= 0, nothing else
        assert res.status == "unbounded"

    def test_ray_beside_rows_and_a_box_stays_unbounded(self):
        # min -x0 subject to x0 - x1 <= 1, x1 free, x2 in [0, 1]: the ray
        # x0 = x1 = t checks out against the row and both bounds
        res = solve_lp(
            [-1.0, 0.0, 0.0],
            a_ub=[[1.0, -1.0, 0.0]],
            b_ub=[1.0],
            bounds=[(0.0, None), (None, None), (0.0, 1.0)],
        )
        assert res.status == "unbounded"

    def test_free_variable(self):
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[5.0], bounds=[(None, None)])
        assert res.ok and res.fun == pytest.approx(-5.0)

    def test_upper_bounded_negative_range(self):
        res = solve_lp([1.0], bounds=[(None, -2.0)], a_ub=[[-1.0]], b_ub=[10.0])
        assert res.ok and res.x[0] == pytest.approx(-10.0)

    def test_degenerate_redundant_rows(self):
        # duplicated constraints force degenerate pivots; no basis repeats,
        # so Dantzig pricing alone reaches the optimum
        a = [[1, 1], [1, 1], [2, 2], [1, 0]]
        res = solve_lp([-1, -2], a_ub=a, b_ub=[2, 2, 4, 1])
        assert res.ok and res.fun == pytest.approx(-4.0)
        assert res.bland_pivots == 0

    def test_zero_objective(self):
        res = solve_lp([0.0, 0.0], a_ub=[[1, 1]], b_ub=[1.0])
        assert res.ok and res.fun == 0.0


class TestPhaseOneExit:
    """The two ways phase 1 can leave an artificial basic at value 0."""

    @staticmethod
    def _check(c, a_eq, b_eq):
        mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq)
        ref = linprog(c, A_eq=a_eq, b_eq=b_eq, method="highs")
        assert ref.status == 0 and mine.fun == pytest.approx(ref.fun, abs=1e-12)
        return mine

    def test_zero_artificial_driven_out(self):
        # after one degenerate pivot the second row's artificial is basic
        # at 0 with a nonzero structural entry, so it is pivoted out
        res = self._check([1, -1], [[1, 1], [1, -1]], [0, 0])
        assert res.ok and res.fun == 0.0
        assert (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots, res.bland_pivots) == (1, 0, 1, 0)

    def test_redundant_row_dropped(self):
        # the second row is twice the first: its artificial stays basic at
        # 0 with no structural entry left, so the row is dropped
        res = self._check([1, 2], [[1, 1], [2, 2]], [1, 2])
        assert res.ok and res.fun == 1.0
        np.testing.assert_array_equal(res.x, [1.0, 0.0])
        assert (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots, res.bland_pivots) == (1, 0, 0, 0)


class TestPricing:
    def test_beale_cycling_program(self):
        res = solve_lp(**BEALE)
        assert res.ok and res.fun == pytest.approx(-1.25, abs=1e-12)
        assert res.phase1_pivots + res.phase2_pivots < 1000
        # the cycle is detected by a repeated basis and broken by Bland
        assert res.bland_pivots > 0 and res.degenerate_pivots > 0

    def test_pivot_counts(self):
        res = solve_lp([-1.0, -1.0], a_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
        assert (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots, res.bland_pivots) == (0, 2, 0, 0)
        res = solve_lp([1.0, 2.0], a_eq=[[1, 1]], b_eq=[3.0])
        assert (res.phase1_pivots, res.phase2_pivots) == (1, 0)

    def test_counts_default_to_zero(self):
        res = LpResult("optimal", None, None)
        assert (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots, res.bland_pivots) == (0, 0, 0, 0)

    def test_convex_stall_case_needs_no_bland(self):
        # T2b 4x4 seed 7 case 0 stopped at the iteration limit under Bland
        # pricing; its cone LP is all degenerate pivots and never revisits a basis
        case = generate_case("T2b", 0, 7, (4, 4))
        c, a_ub, b_ub, bounds = _convex_lp(case.f, case.g)
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        assert res.ok and res.fun >= -1e-9
        assert res.bland_pivots == 0
        assert res.degenerate_pivots == res.phase1_pivots + res.phase2_pivots > 0


def _random_program(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 7))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.normal(size=m) + 1.0
    bounds = []
    for _ in range(n):
        kind = rng.integers(4)
        if kind == 0:
            bounds.append((0.0, None))
        elif kind == 1:
            bounds.append((0.0, float(rng.uniform(0.5, 3.0))))
        elif kind == 2:
            bounds.append((None, None))
        else:
            bounds.append((float(rng.uniform(-2, 0)), float(rng.uniform(0.5, 3))))
    a_eq = b_eq = None
    if rng.random() < 0.3:
        a_eq = rng.normal(size=(1, n))
        b_eq = rng.normal(size=1) * 0.5
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def _equality_program(rng):
    """Like ``_random_program``, but with 1-3 equality rows, sometimes a
    scaled duplicate row or a zero right-hand side, and upper-only bounds."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 5))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.normal(size=m) + 1.0
    bounds = []
    for _ in range(n):
        kind = rng.integers(5)
        lo, hi = float(rng.uniform(-2, 0)), float(rng.uniform(0.5, 3))
        bounds.append([(0.0, None), (0.0, hi), (None, None), (lo, hi), (None, hi - 1.0)][kind])
    k = int(rng.integers(1, 4))
    a_eq = rng.normal(size=(k, n))
    b_eq = rng.normal(size=k) * 0.5
    if rng.random() < 0.25:
        b_eq[:] = 0.0
    if k > 1 and rng.random() < 0.25:
        scale = float(rng.uniform(-3, 3))
        a_eq[-1], b_eq[-1] = scale * a_eq[0], scale * b_eq[0]
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def _highs_status(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """HiGHS's status and optimum.  HiGHS calls some unbounded programs
    infeasible; a program it calls infeasible is re-solved with a zero
    objective, and if that finds a point it was unbounded."""
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if status == "infeasible":
        zero = linprog(
            np.zeros_like(c), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if zero.status == 0:
            status = "unbounded"
    return status, ref.fun


class TestAgainstScipy:
    def test_random_sweep(self):
        rng = np.random.default_rng(2024)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(150):
            c, a_ub, b_ub, a_eq, b_eq, bounds = _random_program(rng)
            mine = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
            ref = linprog(
                c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
            )
            ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            assert mine.status == ref_status
            if mine.ok:
                assert mine.fun == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            statuses[mine.status] += 1
        # the sweep must actually exercise all three outcomes
        assert all(v > 0 for v in statuses.values()), statuses

    def test_equality_sweep(self):
        # at seed 99, draw 385 is an unbounded program HiGHS calls infeasible
        rng = np.random.default_rng(99)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(400):
            program = _equality_program(rng)
            mine = solve_lp(*program)
            ref_status, ref_fun = _highs_status(*program)
            assert mine.status == ref_status
            if mine.ok:
                assert mine.fun == pytest.approx(ref_fun, abs=1e-7, rel=1e-7)
            statuses[mine.status] += 1
        assert all(v > 0 for v in statuses.values()), statuses

    def test_cone_style_programs(self):
        # mimic the dominance LP shape: homogeneous <= 0 rows plus box
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 10))
            rows = rng.normal(size=(m, n))
            c = rng.normal(size=n)
            c -= c.mean()  # zero-sum objective as with pmf differences
            bounds = [(0.0, 1.0)] * n
            mine = solve_lp(c, a_ub=rows, b_ub=np.zeros(m), bounds=bounds)
            ref = linprog(c, A_ub=rows, b_ub=np.zeros(m), bounds=bounds, method="highs")
            assert mine.ok and ref.status == 0
            assert mine.fun == pytest.approx(ref.fun, abs=1e-8)


def _benchmark_pair(rng, shape):
    """A Dirichlet pair on a random grid, drawn as the ``convex`` workload
    of ``perfbench`` draws it."""
    axes = [
        rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.4, n - 1))])
        for n in shape
    ]
    grid = make_grid(axes)
    f = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    g = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    return f, g


class TestConvexConeAgainstHighs:
    """The convex cone LP has a zero right-hand side, so every pivot of a
    dominating pair and many of a failing one are degenerate."""

    @staticmethod
    def _check(f, g):
        c, a_ub, b_ub, bounds = _convex_lp(f, g)
        mine = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert mine.ok and ref.status == 0
        assert mine.fun == pytest.approx(ref.fun, abs=1e-8)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (2, 2, 2)])
    def test_random_dirichlet_pairs(self, shape):
        rng = np.random.default_rng(sum(shape) * 131 + len(shape))
        for _ in range(6):
            grid = random_grid(rng, shape)
            self._check(random_pmf(grid, rng), random_pmf(grid, rng))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4)])
    def test_dominating_pairs(self, shape):
        for index in range(3):
            case = generate_case("T2b", index, 11, shape)
            self._check(case.f, case.g)

    def test_pair_formerly_reported_unbounded(self):
        # the LP is bounded (0 <= U <= 1), but after 365 pivots priced by
        # Bland's rule alone no row blocked the entering column any more
        self._check(*_benchmark_pair(derive_rng(43, 1, 45), (3, 3)))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([1.0], a_ub=[[1.0, 2.0]], b_ub=[1.0])

    def test_matrix_of_the_wrong_width(self):
        """A 2x3 ``a_ub`` with two variables was once read as 3x2 and came
        back ``infeasible``; a 1x3 ``a_eq`` raised numpy's reshape error."""
        with pytest.raises(ValueError, match=r"^a_ub must have len\(c\) = 2 columns, got shape \(2, 3\)$"):
            solve_lp([1.0, 1.0], a_ub=[[-1, 0, 0], [0, -1, 0]], b_ub=[-1, -2, 0])
        with pytest.raises(ValueError, match=r"^a_eq must have len\(c\) = 2 columns, got shape \(1, 3\)$"):
            solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])

    def test_one_dimensional_matrix_is_one_row(self):
        res = solve_lp([-1.0, -1.0], a_ub=[1.0, 2.0], b_ub=[4.0])
        assert (res.status, res.fun) == ("optimal", -4.0)
        assert solve_lp([1.0, 2.0], a_eq=[1.0, 1.0], b_eq=[3.0]).x.tolist() == [3.0, 0.0]
        with pytest.raises(ValueError, match=r"^a_ub must have len\(c\) = 2 columns, got shape \(1, 3\)$"):
            solve_lp([1.0, 1.0], a_ub=[1.0, 0.0, 0.0], b_ub=[1.0])

    @pytest.mark.parametrize(
        "pair",
        [(2.0, 1.0), (np.inf, np.inf), (np.inf, None), (None, -np.inf), (-np.inf, -np.inf)],
        ids=["hi_below_lo", "both_plus_inf", "lo_plus_inf", "hi_minus_inf", "both_minus_inf"],
    )
    def test_bad_bounds(self, pair):
        """A pair that no finite x meets: ``(inf, inf)`` and ``(inf, None)``
        once came back ``optimal`` with ``x = [inf]``, ``(None, -inf)`` and
        ``(-inf, -inf)`` ``unbounded``."""
        with pytest.raises(ValueError, match="^bounds for variable 0 are empty"):
            solve_lp([1.0], bounds=[pair])

    def test_bounds_length(self):
        with pytest.raises(ValueError, match="one bounds pair"):
            solve_lp([1.0, 1.0], bounds=[(0.0, None)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs(self, bad):
        """``b_ub = [nan]`` once came back ``optimal``, since the final
        feasibility check compares with ``>``, which is false for NaN."""
        program = dict(c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[0.5])
        for name in program:
            broken = dict(program)
            broken[name] = np.full(np.shape(program[name]), bad)
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                solve_lp(**broken)
        if np.isnan(bad):
            for pair in [(bad, 1.0), (0.0, bad)]:
                with pytest.raises(ValueError, match="^bounds must not be NaN$"):
                    solve_lp([1.0], bounds=[pair])
        # infinite and None bounds stay legal
        for pair in [(-np.inf, np.inf), (None, None), (0.0, np.inf)]:
            assert solve_lp([0.0], a_eq=[[1.0]], b_eq=[0.5], bounds=[pair]).x.tolist() == [0.5]

    def test_tableau_guard_counts_the_tableau_not_the_inputs(self):
        # tiny inputs, but 6,000 range rows with 6,000 slacks
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"6000 x 12001 = 72006000 entries \(guard 33554432\)"):
            solve_lp(np.zeros(6000), bounds=[(0.0, 1.0)] * 6000)
        assert time.perf_counter() - start < 1.0


class TestTableauShape:
    def test_boxed_program_without_rows(self):
        assert tableau_shape(0, 0, 4095, n_box=4095) == (4095, 8191)
        with pytest.raises(ValueError, match="4096 x 8193"):
            tableau_shape(0, 0, 4096, n_box=4096)

    def test_convex_dominance_lps_at_the_edge(self):
        # the 4x4x4 convex LP: 64 values in [0, 1], 192 free subgradients
        assert tableau_shape(64 * 63, 0, 64 + 192, n_free=192, n_box=64) == (4096, 4545)
        # 1-D convex: 75 nodes fit, 76 do not
        assert tableau_shape(75 * 74, 0, 75 + 75, n_free=75, n_box=75) == (5625, 5851)
        with pytest.raises(ValueError, match="5776 x 6005"):
            tableau_shape(76 * 75, 0, 76 + 76, n_free=76, n_box=76)

    def test_shape_of_a_program_with_every_column_kind(self, monkeypatch):
        # x0 >= 0, x1 free (two columns), x2 <= 3 (one column), x3 in
        # [-1, 1] (a range row); two inequality rows with slacks, the second
        # (x0 >= 1) flipped onto an artificial; one equality row
        bounds = [(0.0, None), (None, None), (None, 3.0), (-1.0, 1.0)]
        a_ub, b_ub = [[1.0, 1.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]], [5.0, -1.0]
        a_eq, b_eq = [[1.0, 1.0, 0.0, 0.0]], [2.0]
        shapes = []
        pivot = simplex_module._pivot

        def recording_pivot(T, *args):
            shapes.append(T.shape)
            pivot(T, *args)

        monkeypatch.setattr(simplex_module, "_pivot", recording_pivot)
        res = solve_lp([1.0, 1.0, 0.0, 1.0], a_ub, b_ub, a_eq, b_eq, bounds)
        assert res.ok
        assert shapes[0] == tableau_shape(2, 1, 4, n_free=1, n_box=1, flipped=1) == (4, 5 + 3 + 2 + 1)


def _bits(res: LpResult):
    """Everything an ``LpResult`` carries, to the bit."""
    x = None if res.x is None else res.x.tobytes()
    fun = None if res.fun is None else res.fun.hex()
    return res.status, x, fun, res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots, res.bland_pivots


def _same_as_dense(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """``solve_lp``, after requiring the dense kernel's result bit for bit.

    ``solve_lp`` reads a bound of -0.0 as +0.0, so that no zero in ``x``
    carries a sign; where the program has one, the dense kernel's ``x``
    (which may hold -0.0 there) is compared after ``+ 0.0``."""
    program = (c, a_ub, b_ub, a_eq, b_eq, bounds)
    mine, dense = solve_lp(*program), lp_oracle.solve_lp(*program)
    ends = [v for pair in bounds or () for v in pair if v is not None]
    signed_zero = any(v == 0.0 and math.copysign(1.0, v) < 0 for v in ends)
    if signed_zero and dense.x is not None:
        x = dense.x + 0.0
        dense = dataclasses.replace(dense, x=x, fun=float(np.asarray(c, dtype=float) @ x))
    assert _bits(mine) == _bits(dense)
    return mine


def _mixed_program(rng, integral):
    """A program with a variable of every kind, shuffled: x >= lo, free,
    x <= hi, lo <= x <= hi.  Inequality rows may be flipped onto an
    artificial by a negative right-hand side; either block's right-hand
    side is all zero, and so degenerate, one time in four.  Equality rows
    may end with a multiple of the first, a redundant row that phase 1
    drops.  Integral coefficients make exact zeros and ratio ties common."""
    n = int(rng.integers(4, 8))

    def draw(*shape):
        if integral:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.normal(size=shape)

    bounds = []
    for kind in rng.permutation(np.concatenate([np.arange(4), rng.integers(0, 4, n - 4)])):
        lo, hi = -float(rng.integers(0, 3)), float(rng.integers(1, 4))
        bounds.append([(lo, None), (None, None), (None, hi), (lo, hi)][kind])
    m = int(rng.integers(1, 7))
    a_ub, b_ub = draw(m, n), draw(m) + float(rng.integers(0, 2))
    if rng.random() < 0.25:
        b_ub[:] = 0.0
    k = int(rng.integers(1, 4))
    a_eq, b_eq = draw(k, n), draw(k)
    if rng.random() < 0.25:
        b_eq[:] = 0.0
    if k > 1 and rng.random() < 0.5:
        scale = float(rng.integers(-2, 3) or 1)
        a_eq[-1], b_eq[-1] = scale * a_eq[0], scale * b_eq[0]
    return draw(n), a_ub, b_ub, a_eq, b_eq, bounds


def _spread_chain(pmf, rng, moves):
    """``pmf`` after ``moves`` mean-preserving spreads, each dominating the
    last on the convex class."""
    for _ in range(moves):
        pmf = _apply_transfer(FunctionClass.CONVEX, pmf, rng)
    return pmf


class TestSameBitsAsTheDenseKernel:
    """The column-major kernel pivots only on the pivot row's support.  Its
    ``LpResult`` must equal that of the dense kernel in ``lp_oracle``:
    status, point, optimum and the four pivot counts."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integral=st.booleans())
    @example(seed=23342, integral=False)
    def test_mixed_programs(self, seed, integral):
        """Seed 23342 drives out an artificial whose basic value is
        4.2e-16.  That leaves -4.2e-16 on the right-hand side, which the
        first phase-2 pivot, a degenerate one, must clamp."""
        _same_as_dense(*_mixed_program(np.random.default_rng(seed), integral))

    def test_mixed_programs_reach_every_path(self, monkeypatch):
        """The draws above reach every status, drop redundant rows, drive
        zero-valued artificials out and flip rows."""
        shapes, statuses, driven, flipped = [], set(), 0, 0
        pivot = simplex_module._pivot

        def recording(T, z, row, col):
            shapes.append(T.shape)
            pivot(T, z, row, col)

        monkeypatch.setattr(simplex_module, "_pivot", recording)
        dropped = 0
        for seed in range(300):
            program = _mixed_program(np.random.default_rng(seed), seed % 2 == 0)
            shapes.clear()
            res = _same_as_dense(*program)
            statuses.add(res.status)
            dropped += len(set(shapes)) > 1
            driven += res.status == "optimal" and len(shapes) > res.phase1_pivots + res.phase2_pivots
            _, a_ub, b_ub, _, _, bounds = program
            offset = [0.0 if lo is None and hi is None else hi if lo is None else lo for lo, hi in bounds]
            flipped += bool((b_ub - a_ub @ offset < 0).any())
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert dropped and driven and flipped

    def test_beale_cycles_into_blands_rule(self):
        res = _same_as_dense(**BEALE)
        assert res.ok and res.bland_pivots > 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuted_and_scaled_beale(self, seed):
        """Beale's program with its rows and columns permuted, its rows
        scaled by powers of 2 and up to two extra columns: some variants
        still cycle under Dantzig pricing."""
        rng = np.random.default_rng(seed)
        cols, rows = rng.permutation(4), rng.permutation(3)
        scale = 2.0 ** rng.integers(-2, 3, size=3)
        extra = int(rng.integers(0, 3))
        c = np.concatenate([np.array(BEALE["c"])[cols], rng.integers(1, 4, extra)])
        a_ub = np.hstack(
            [(np.array(BEALE["a_ub"])[:, cols] * scale[:, None])[rows], rng.integers(-2, 3, (3, extra))]
        )
        b_ub = (np.array(BEALE["b_ub"]) * scale)[rows]
        _same_as_dense(c, a_ub, b_ub)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from([(3, 3), (4, 4), (3, 3, 3)]),
        fc=st.sampled_from(list(FunctionClass)),
        generated=st.booleans(),
        swap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cone_lps(self, shape, fc, generated, swap, seed):
        """The cone LP of every class, on a random pair or on a pair the
        class's own move generates (either way round).  The convex cone LP
        is drawn at 3x3 only: past it, generated and random pairs alike
        can stall for thousands of degenerate pivots (at 3x3x3, 11 of 60
        random pairs ended ``iteration_limit`` or ``numerical``, after up
        to 20 s, and the dense kernel takes several times longer).  The
        coupling test below covers the convex class at 4x4 and 3x3x3."""
        if fc is FunctionClass.CONVEX:
            shape = (3, 3)
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        g = random_pmf(grid, rng)
        f = _apply_transfer(fc, g, rng) if generated else random_pmf(grid, rng)
        if swap:
            f, g = g, f
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "solve_lp", _same_as_dense)
            dominance_module._cone_lp(grid, f.mass_array - g.mass_array, fc)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from([(3, 3), (4, 4), (3, 3, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coupling_and_membership_lps(self, shape, seed):
        """The coupling LP of two spread chains from one base (feasible,
        with a redundant marginal row, when G's chain is empty), then the
        node LPs of convex membership on random normal values."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        base = random_pmf(grid, rng)
        f = _spread_chain(base, rng, int(rng.integers(1, 5)))
        g = _spread_chain(base, rng, int(rng.integers(0, 3)))
        gap = f.mass_array - g.mass_array
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dominance_module, "solve_lp", _same_as_dense)
            patch.setattr(utility_module, "solve_lp", _same_as_dense)
            dominance_module._martingale_coupling(grid, gap)
            values = utility_module.tabulate(grid, rng.normal(size=grid.size))
            utility_module.is_member(values, FunctionClass.CONVEX)
