from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcsearch.solver as solver_module
from mcsearch import (
    ConvergenceError,
    SearchParams,
    continuation_map,
    equation_residual,
    make_grid,
    make_pmf,
    normalize_weights,
    reservation_utility,
    simulate_search,
    solve_bisection,
    solve_fixed_point,
    tabulate,
    tabulate_family,
    value_function,
)
from mcsearch.statics import THEOREM_CLASS, generate_case, verify_theorem
from conftest import random_grid, random_pmf
from simulation_oracle import oracle_simulate_search


def bisection_reproducer():
    """Product utility on {1..30}^2, uniform pmf, beta 0.999: the root is
    about 774.5, where the float spacing exceeds tol * (1 - beta)."""
    axis = [float(v) for v in range(1, 31)]
    grid = make_grid([axis, axis])
    pmf = make_pmf(grid, np.full(grid.size, 1.0 / grid.size))
    return pmf, tabulate_family("product", grid), SearchParams(0.999, 1.0, 1e-10)


def exact_root(mass, values, beta, gamma):
    """The root of t = gamma + beta/(1-beta) * sum(p * (U - t)+) in
    rationals, the equation whose residual the solver certifies: the root of
    the one linear segment between consecutive distinct values that lands
    inside that segment."""
    p = [Fraction(m) for m in mass]
    v = [Fraction(x) for x in values]
    b = Fraction(beta)
    flow = (1 - b) * Fraction(gamma)
    cuts = [None] + sorted(set(v))
    for lo, hi in zip(cuts, cuts[1:] + [None]):
        above = [(pi, vi) for pi, vi in zip(p, v) if lo is None or vi > lo]
        above_mass = sum(pi for pi, _ in above)
        t = (flow + b * sum(pi * vi for pi, vi in above)) / ((1 - b) + b * above_mass)
        if (lo is None or lo <= t) and (hi is None or t <= hi):
            return t
    raise AssertionError("no segment holds its root")


def degenerate(c, beta, gamma):
    grid = make_grid([[c]])
    return make_pmf(grid, [1.0]), tabulate_family("linear", grid, a=[1.0]), SearchParams(beta, gamma)


class TestContinuationMap:
    def test_collapses_above_offers(self):
        pmf, u, p = degenerate(3.0, 0.5, 1.0)
        for t in (3.0, 5.0, 100.0):
            assert continuation_map(t, pmf, u, p) == pytest.approx(
                (1 - p.beta) * p.gamma + p.beta * t
            )

    def test_two_point_hand_value(self, two_point):
        _, pmf, u, p = two_point
        # 0.25 + 0.5*(0.5*1 + 0.5*2) = 1.0, which is also the fixed point
        assert continuation_map(1.0, pmf, u, p) == pytest.approx(1.0, abs=1e-15)

    def test_far_above_support(self, two_point):
        _, pmf, u, p = two_point
        t = 50.0
        assert continuation_map(t, pmf, u, p) == pytest.approx(0.25 + 0.5 * t)

    @settings(deadline=None, max_examples=60)
    @given(t1=st.floats(-50, 50), t2=st.floats(-50, 50))
    def test_contraction_modulus(self, t1, t2):
        grid = make_grid([[0.0, 1.0, 2.5]])
        pmf = make_pmf(grid, [0.2, 0.5, 0.3])
        u = tabulate(grid, [0.0, 1.0, 2.5])
        p = SearchParams(0.7, 1.0)
        lhs = abs(continuation_map(t1, pmf, u, p) - continuation_map(t2, pmf, u, p))
        assert lhs <= p.beta * abs(t1 - t2) + 1e-12

    def test_monotone(self, two_point):
        _, pmf, u, p = two_point
        values = [continuation_map(t, pmf, u, p) for t in np.linspace(-3, 5, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_candidate_must_be_finite(self, two_point, t):
        _, pmf, u, p = two_point
        with pytest.raises(ValueError, match=f"^candidate must be finite, got {t!r}$"):
            continuation_map(t, pmf, u, p)

    def test_grid_mismatch(self, two_point):
        _, pmf, _, p = two_point
        stray = tabulate(make_grid([[0, 1]]), [0, 1])
        with pytest.raises(ValueError, match="different grid"):
            continuation_map(1.0, pmf, stray, p)
        for solve in (solve_fixed_point, solve_bisection, reservation_utility):
            with pytest.raises(ValueError, match="different grid"):
                solve(pmf, stray, p)

    def test_fixed_point_steps_are_continuation_map(self):
        # the solver loop skips the per-step checks but not one operation
        grid = make_grid([[0.0, 1.0, 2.5], [1.0, 3.0]])
        pmf = make_pmf(grid, [0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
        u = tabulate_family("product", grid)
        p = SearchParams(0.95, 0.7)
        stop = 0.5 * p.tol * (1.0 - p.beta) / p.beta
        t, steps = p.gamma, 0
        while True:
            steps += 1
            t_next = continuation_map(t, pmf, u, p)
            if abs(t_next - t) <= stop:
                break
            t = t_next
        assert solve_fixed_point(pmf, u, p) == (t_next, steps)

    def test_bisection_steps_are_continuation_map(self, two_point):
        def bisect(pmf, u, p):
            lo = min(p.gamma, min(u.values))
            hi = max(p.gamma, max(u.values)) + p.gamma * p.beta / (1.0 - p.beta)
            steps = 0
            while hi - lo > p.tol * (1.0 - p.beta):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                steps += 1
                if mid - continuation_map(mid, pmf, u, p) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi), steps

        grid = make_grid([[0.0, 1.0, 2.5], [1.0, 3.0]])
        pmf = make_pmf(grid, [0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
        cases = [
            two_point[1:],
            (pmf, tabulate_family("product", grid), SearchParams(0.95, 0.7)),
            bisection_reproducer(),  # stops at float resolution
        ]
        for case in cases:
            assert solve_bisection(*case) == bisect(*case)


class TestClosedForms:
    def test_degenerate_high_offer(self):
        pmf, u, p = degenerate(3.0, 0.5, 1.0)
        sol = reservation_utility(pmf, u, p)
        assert sol.reservation_utility == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_low_offer_pins_at_gamma(self):
        # offer below the flow utility: reservation settles at gamma
        pmf, u, p = degenerate(0.5, 0.5, 1.0)
        sol = reservation_utility(pmf, u, p)
        assert sol.reservation_utility == pytest.approx(1.0, abs=1e-9)

    def test_two_point(self, two_point):
        _, pmf, u, p = two_point
        for solve in (solve_fixed_point, solve_bisection):
            t, _ = solve(pmf, u, p)
            assert t == pytest.approx(1.0, abs=1e-9)

    def test_fosd_shifted(self, two_point):
        grid, _, u, p = two_point
        pmf = make_pmf(grid, [0.25, 0.75])
        for solve in (solve_fixed_point, solve_bisection):
            t, _ = solve(pmf, u, p)
            assert t == pytest.approx(8.0 / 7.0, abs=1e-9)

    def test_solution_invariants(self, two_point):
        _, pmf, u, p = two_point
        sol = reservation_utility(pmf, u, p)
        assert abs(sol.residual) <= p.tol
        assert abs(equation_residual(sol.reservation_utility, pmf, u, p)) <= p.tol
        for i in range(pmf.grid.size):
            expected = max(u.values[i], sol.reservation_utility) / (1 - p.beta)
            assert sol.value.values[i] == pytest.approx(expected, abs=1e-12)
        assert sol.acceptance == frozenset({(2.0,)})
        assert sol.iterations > 0

    def test_assembly_is_per_node(self):
        # acceptance and value hold the Python floats the node loop gives
        rng = np.random.default_rng(17)
        for shape in ((4,), (3, 3), (2, 3, 2)):
            grid = random_grid(rng, shape)
            pmf = random_pmf(grid, rng)
            u = tabulate(grid, rng.uniform(-1.0, 3.0, size=grid.size))
            p = SearchParams(0.5, 0.05)
            sol = reservation_utility(pmf, u, p)
            cut = sol.reservation_utility - p.tol
            assert sol.acceptance == frozenset(
                grid.node(i) for i in range(grid.size) if u.values[i] >= cut
            )
            assert sol.acceptance
            for node in sol.acceptance:
                assert type(node) is tuple and all(type(c) is float for c in node)
            assert all(type(v) is float for v in sol.value.values)

    def test_value_function(self, two_point):
        _, pmf, u, p = two_point
        sol = reservation_utility(pmf, u, p)
        assert value_function(sol, (2.0,)) == pytest.approx(4.0, abs=1e-9)
        assert value_function(sol, (0.0,)) == pytest.approx(2.0, abs=1e-9)

    def test_indifferent_node_accepted(self):
        # degenerate offer equal to gamma: U(x) = u_F, both branches coincide
        pmf, u, p = degenerate(1.0, 0.5, 1.0)
        sol = reservation_utility(pmf, u, p)
        assert sol.reservation_utility == pytest.approx(1.0, abs=1e-9)
        assert (1.0,) in sol.acceptance
        assert value_function(sol, (1.0,)) == pytest.approx(
            sol.reservation_utility / (1 - p.beta), abs=1e-9
        )


class TestSolverAgreement:
    def test_100_random_scenarios(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            grid = random_grid(rng, tuple(int(rng.integers(2, 4)) for _ in range(k)))
            pmf = random_pmf(grid, rng)
            u = tabulate(grid, rng.normal(0, 2, size=grid.size))
            p = SearchParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 3.0)), 1e-10)
            t_fp, _ = solve_fixed_point(pmf, u, p)
            t_bi, _ = solve_bisection(pmf, u, p)
            assert abs(t_fp - t_bi) <= 1e-8
            sol = reservation_utility(pmf, u, p)
            assert abs(sol.residual) <= p.tol

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            grid = random_grid(rng, (3, 2))
            pmf = random_pmf(grid, rng)
            u = tabulate(grid, rng.normal(0, 2, size=grid.size))
            beta = float(rng.uniform(0.2, 0.8))
            lo = reservation_utility(pmf, u, SearchParams(beta, 0.4)).reservation_utility
            hi = reservation_utility(pmf, u, SearchParams(beta, 1.7)).reservation_utility
            assert hi >= lo - 1e-9

    def test_acceptance_is_upper_set_in_utility(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            grid = random_grid(rng, (3, 3))
            pmf = random_pmf(grid, rng)
            u = tabulate(grid, rng.normal(0, 2, size=grid.size))
            sol = reservation_utility(pmf, u, SearchParams(0.6, 1.0))
            for i in range(grid.size):
                if grid.node(i) in sol.acceptance:
                    for j in range(grid.size):
                        if u.values[j] >= u.values[i]:
                            assert grid.node(j) in sol.acceptance

    def test_iteration_cap_fails_loudly(self, two_point, monkeypatch):
        _, pmf, u, p = two_point
        monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_fixed_point(pmf, u, p)

    def test_route_disagreement_fails_loudly(self, two_point, monkeypatch):
        _, pmf, u, p = two_point
        t_fp, _ = solve_fixed_point(pmf, u, p)
        monkeypatch.setattr(solver_module, "_segment_root", lambda *args: t_fp + 1.0)
        with pytest.raises(ConvergenceError, match=r"disagree by 1\.000e\+00 > 1\.000e-09") as info:
            reservation_utility(pmf, u, p)
        assert "contraction" in str(info.value) and "exact segment root" in str(info.value)

    def test_bisection_stops_at_float_resolution(self):
        """At u_F ~ 774.5 the float spacing exceeds the width tol*(1-beta) =
        1e-13: bisection stops once the bracket is two adjacent floats.  The
        fixed point is inside tol of the root, but its residual, 17.65 times
        its error there, is not; the solve is certified by the exact segment
        root instead."""
        pmf, u, p = bisection_reproducer()
        t_bi, iterations = solve_bisection(pmf, u, p)
        assert iterations < 100
        t_fp, _ = solve_fixed_point(pmf, u, p)
        assert abs(t_bi - t_fp) <= 10 * p.tol
        assert abs(equation_residual(t_fp, pmf, u, p)) > p.tol
        sol = reservation_utility(pmf, u, p)
        assert abs(sol.reservation_utility - 774.5410764872521) <= p.tol
        assert abs(sol.residual) <= p.tol

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=7
        ).filter(lambda cells: any(w for w, _ in cells)),
        beta=st.floats(0.05, 0.95),
        gamma=st.floats(0.1, 9.0),
    )
    @example(cells=[(1, 5), (0, 4), (1, 6)], beta=0.5, gamma=0.5)  # root 3 below min U
    # root gamma above max U, where (1-beta)*gamma/(1-beta) rounds one ulp above gamma
    @example(cells=[(1, 1), (0, 2), (2, 2)], beta=0.2, gamma=3.0)
    def test_segment_root_is_exact(self, cells, beta, gamma):
        # (weight, value) cells: small integer values tie, zero weights leave
        # nodes without mass
        weights, values = zip(*cells)
        grid = make_grid([[float(i) for i in range(len(cells))]])
        pmf = make_pmf(grid, normalize_weights(weights))
        u = tabulate(grid, [float(v) for v in values])
        p = SearchParams(beta, gamma)
        exact = exact_root(pmf.mass, u.values, beta, gamma)
        t = solver_module._segment_root(pmf, u, p)
        assert abs(Fraction(t) - exact) <= 1e-13 * (1 + abs(exact))
        assert abs(t - solve_bisection(pmf, u, p)[0]) <= p.tol * (1.0 - beta)
        if max(values) + 1 <= gamma:  # no value reaches the root: gamma to the bit
            assert t.hex() == gamma.hex()

    @pytest.mark.parametrize(
        "values, beta, gamma, tol, expected",
        [
            ([0.0, 0.5, 1.0], 0.95, 5.0, 1e-10, 5.0),  # root gamma above max U
            ([0.0, 0.5, 1.0], 0.999, 5.0, 1e-9, 5.0),
            ([5.0, 6.0, 7.0], 0.5, 1.0, 1e-9, 3.4999999997),  # root below min U
            ([5.0, 6.0, 7.0], 0.9, 1.0, 1e-9, 5.714285714218367),
        ],
    )
    def test_masses_short_of_one(self, values, beta, gamma, tol, expected):
        """make_pmf admits masses that miss 1 by up to MASS_TOL.  The
        contraction then converges to the root of psi, which lies up to
        beta*t*(1 - sum)/(1 - beta) from the certified equation's root
        (5e-7 at beta = 0.999): the cross-check compares it with psi's own
        root, and a failing residual is polished to the equation's."""
        grid = make_grid([[0.0, 1.0, 2.0]])
        pmf = make_pmf(grid, [0.3333333333] * 3)
        sol = reservation_utility(pmf, tabulate(grid, values), SearchParams(beta, gamma, tol))
        assert sol.reservation_utility.hex() == expected.hex()
        assert abs(sol.residual) <= tol

    def test_polish_steps_to_the_better_neighbour(self):
        """Near beta = 1 the segment root, 1.5 ulps below the exact root,
        fails a tight residual test on its own; its upper neighbour passes."""
        scale = 3.12139
        grid = make_grid([[float(i) for i in range(6)]])
        pmf = make_pmf(grid, [m / 8 for m in (1, 1, 0, 1, 2, 3)])
        u = tabulate(grid, [scale * v for v in (5, 1, 4, 1, 2, 2)])
        p = SearchParams(0.999, 3.5503 * scale, 3.12e-13)
        sol = reservation_utility(pmf, u, p)
        assert abs(sol.residual) <= p.tol
        assert sol.residual == equation_residual(sol.reservation_utility, pmf, u, p)
        exact = exact_root(pmf.mass, u.values, p.beta, p.gamma)
        assert abs(Fraction(sol.reservation_utility) - exact) <= np.spacing(sol.reservation_utility)

    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=7
        ).filter(lambda cells: any(w for w, _ in cells)),
        beta=st.floats(0.05, 0.999),
        gamma=st.floats(0.1, 9.0),
        scale=st.floats(1.0, 1e3),
    )
    # residual of the fixed point 1.13e-9 > tol 1e-9: the exact root is reported
    @example(cells=[(1, 5), (2, 6), (1, 5), (0, 6)], beta=0.999, gamma=2.0, scale=1e3)
    def test_reported_value_contract(self, cells, beta, gamma, scale):
        """The fixed point is the answer whenever its residual passes; the
        exact root is reported only in its place, never as the primary
        route."""
        weights, values = zip(*cells)
        grid = make_grid([[float(i) for i in range(len(cells))]])
        pmf = make_pmf(grid, normalize_weights(weights))
        u = tabulate(grid, [scale * v for v in values])
        p = SearchParams(beta, scale * gamma, scale * 1e-12)
        t_fp, steps = solve_fixed_point(pmf, u, p)
        sol = reservation_utility(pmf, u, p)
        assert sol.iterations == steps
        if abs(equation_residual(t_fp, pmf, u, p)) <= p.tol:
            assert sol.reservation_utility.hex() == t_fp.hex()
        else:
            exact = exact_root(pmf.mass, u.values, beta, p.gamma)
            assert abs(Fraction(sol.reservation_utility) - exact) <= 1e-13 * exact

    def test_bisection_is_off_the_solve_path(self, two_point, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_bisection called")

        monkeypatch.setattr(solver_module, "solve_bisection", refuse)
        _, pmf, u, p = two_point
        assert reservation_utility(pmf, u, p).reservation_utility == pytest.approx(1.0, abs=1e-9)
        pmf, u, p = bisection_reproducer()
        sol = reservation_utility(pmf, u, p)
        assert sol.reservation_utility == 774.5410764872521
        assert abs(sol.residual) <= p.tol
        for theorem_id in THEOREM_CLASS:
            report = verify_theorem(generate_case(theorem_id, 0, 0))
            assert report.u_f is not None and report.u_g is not None


class TestSimulation:
    def test_accept_everything(self, two_point):
        _, pmf, u, p = two_point
        stats = simulate_search(pmf, u, p, threshold=-1.0, seed=2, episodes=40_000)
        assert stats.accept_rate == 1.0
        # E[U]/(1-beta) = 1/0.5 = 2
        assert abs(stats.mean - 2.0) <= 3 * stats.stderr

    def test_matches_analytic_value_at_reservation(self, two_point):
        _, pmf, u, p = two_point
        stats = simulate_search(pmf, u, p, threshold=1.0, seed=3, episodes=100_000)
        assert abs(stats.mean - 3.0) <= 3 * stats.stderr

    def test_threshold_optimality(self, two_point):
        _, pmf, u, p = two_point
        at = simulate_search(pmf, u, p, threshold=1.0, seed=4, episodes=60_000)
        for other in (0.5, 1.5, -0.5, 2.5):
            perturbed = simulate_search(pmf, u, p, threshold=other, seed=4, episodes=60_000)
            assert perturbed.mean <= at.mean + 3 * at.stderr

    def test_determinism(self, two_point):
        _, pmf, u, p = two_point
        a = simulate_search(pmf, u, p, 1.0, seed=9, episodes=5_000)
        b = simulate_search(pmf, u, p, 1.0, seed=9, episodes=5_000)
        assert a == b
        c = simulate_search(pmf, u, p, 1.0, seed=10, episodes=5_000)
        assert a != c

    @staticmethod
    def simulate_untouched_stream(pmf, u, p, threshold, seed, episodes):
        """``simulate_search``, asserting that it makes one generator and
        consumes none of its stream."""
        made = []
        real = np.random.default_rng

        def default_rng(s):
            made.append((real(s), s))
            return made[-1][0]

        with mock.patch.object(np.random, "default_rng", default_rng):
            stats = simulate_search(pmf, u, p, threshold, seed, episodes)
        assert len(made) == 1
        rng, s = made[0]
        assert rng.bit_generator.state == real(s).bit_generator.state
        return stats

    def test_never_accepting_yields_flow_value(self, two_point):
        _, pmf, u, p = two_point
        stats = self.simulate_untouched_stream(pmf, u, p, threshold=99.0, seed=5, episodes=100)
        assert stats.accept_rate == 0.0
        flow_total = p.gamma * (1 - p.beta**stats.horizon) / (1 - p.beta)
        assert stats.mean == pytest.approx(flow_total, abs=1e-12)
        assert stats.mean == pytest.approx(p.gamma / (1 - p.beta), abs=p.tol * 2)

    def test_zero_mass_node_above_threshold(self):
        """Only a zero-mass node reaches the threshold: no episode accepts,
        as in the loop that draws every period up to the horizon."""
        grid = make_grid([[0.0, 1.0, 2.0]])
        pmf = make_pmf(grid, [0.5, 0.5, 0.0])
        u = tabulate(grid, [0.0, 1.0, 2.0])
        p = SearchParams(0.9, 0.5, 1e-6)
        stats = self.simulate_untouched_stream(pmf, u, p, threshold=1.5, seed=6, episodes=200)
        assert stats == oracle_simulate_search(pmf, u, p, 1.5, 6, 200)
        assert stats.accept_rate == 0.0

    def test_horizon_bounds_tail(self, two_point):
        _, pmf, u, p = two_point
        horizon = solver_module.simulation_horizon(u, p)
        tail = p.beta**horizon * (max(abs(v) for v in u.values) + p.gamma) / (1 - p.beta)
        assert tail < p.tol

    def test_validation(self, two_point):
        _, pmf, u, p = two_point
        with pytest.raises(ValueError, match="episode"):
            simulate_search(pmf, u, p, 1.0, seed=0, episodes=0)
        with pytest.raises(ValueError, match="finite"):
            simulate_search(pmf, u, p, float("nan"), seed=0, episodes=10)
        for bad in (10.0, 10.5, True):
            with pytest.raises(ValueError, match="episodes must be an integer"):
                simulate_search(pmf, u, p, 1.0, seed=0, episodes=bad)
        for bad in (1.5, 1.0, False):
            with pytest.raises(ValueError, match="seed must be an integer"):
                simulate_search(pmf, u, p, 1.0, seed=bad, episodes=10)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            simulate_search(pmf, u, p, 1.0, seed=-1, episodes=10)
        got = simulate_search(pmf, u, p, 1.0, seed=np.int64(3), episodes=np.int32(10))
        assert got == simulate_search(pmf, u, p, 1.0, seed=3, episodes=10)

    @settings(deadline=None, max_examples=60)
    @given(
        shape=st.sampled_from([(1,), (5,), (2, 3), (3, 3), (2, 2, 3)]),
        beta=st.floats(0.5, 0.9999),
        where=st.sampled_from(["below", "above", "tie", "inside"]),
        tiny=st.booleans(),
        horizon=st.integers(1, 300),
        episodes=st.sampled_from(
            [1, 2, 1000] + [k + solver_module._DRAW_CHUNK for k in (-1, 0, 1, solver_module._DRAW_CHUNK + 17)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_choice_loop(self, shape, beta, where, tiny, horizon, episodes, seed):
        """Episode counts around the chunk length cross chunk boundaries;
        masses down to 1e-15 beside large ones put accepted and rejected
        nodes in one guide-table bucket."""
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, shape)
        w = rng.dirichlet(np.ones(grid.size))
        if tiny:
            w = np.where(rng.random(grid.size) < 0.5, 10.0 ** rng.uniform(-15, -3, grid.size), w)
        w *= rng.random(grid.size) < 0.7
        w[rng.integers(grid.size)] += 0.3  # some zero masses, never all
        pmf = make_pmf(grid, normalize_weights(w))
        u = tabulate(grid, rng.normal(0, 2, size=grid.size))
        lo, hi = min(u.values), max(u.values)
        threshold = {
            "below": lo - 1.0,
            "above": hi + 1.0,  # never accepts: runs to the horizon
            "tie": u.values[int(rng.integers(grid.size))],
            "inside": float(rng.uniform(lo, hi)),
        }[where]
        # tol sized so that the documented horizon is at most ``horizon``
        bound = (max(abs(lo), abs(hi)) + 0.5) / (1.0 - beta)
        p = SearchParams(beta, 0.5, bound * beta**horizon * 1.000001)
        assert solver_module.simulation_horizon(u, p) <= horizon
        got = simulate_search(pmf, u, p, threshold, seed, episodes)
        assert got == oracle_simulate_search(pmf, u, p, threshold, seed, episodes)
