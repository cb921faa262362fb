import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsearch import (
    SearchParams,
    common_grid,
    derive_rng,
    expectation,
    make_grid,
    make_pmf,
    marginal,
    normalize_weights,
    sample_offers,
    tabulate,
    tabulate_family,
)
from mcsearch.grids import OfferSampler
from conftest import random_grid, random_pmf


class TestMakeGrid:
    def test_smallest_nondegenerate(self):
        g = make_grid([[1, 2]])
        assert g.ndim == 1 and g.size == 2
        assert g.nodes.tolist() == [[1.0], [2.0]]

    def test_two_by_two(self, unit_square):
        assert unit_square.size == 4
        assert unit_square.nodes.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]

    def test_unit_cube_corners(self):
        g = make_grid([[0, 1], [0, 1], [0, 1]])
        assert g.ndim == 3 and g.size == 8

    def test_lexicographic_node_order(self):
        g = make_grid([[0, 1], [10, 20, 30]])
        expected = [[0, 10], [0, 20], [0, 30], [1, 10], [1, 20], [1, 30]]
        assert g.nodes.tolist() == expected
        assert g.node(3) == (1.0, 10.0)
        assert g.node_index((1.0, 10.0)) == 3

    def test_cached_shape_keeps_field_equality(self):
        g, h = make_grid([[0, 1], [10, 20, 30]]), make_grid([[0, 1], [10, 20, 30]])
        assert (g.shape, g.size) == ((2, 3), 6)
        assert type(g.size) is int
        assert g == h and hash(g) == hash(h)
        assert g != make_grid([[0, 1], [10, 20, 31]])

    @pytest.mark.parametrize(
        "axes",
        [[], [[]], [[2, 1]], [[1, 1]], [[0, float("nan")]], [[0, float("inf")]]],
    )
    def test_rejects_bad_axes(self, axes):
        with pytest.raises(ValueError):
            make_grid(axes)


class TestSearchParams:
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match=f"tol must be a positive real, got {tol}"):
            SearchParams(0.5, 1.0, tol)


class TestMakePmf:
    def test_uniform(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        assert pmf.mass == (0.25,) * 4

    def test_zero_masses_allowed(self, unit_square):
        pmf = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        assert pmf.mass[1] == 0.0

    def test_rejects_unnormalized(self, unit_square):
        with pytest.raises(ValueError, match="sum to 1"):
            make_pmf(unit_square, [0.4, 0.2, 0.2, 0.1])

    def test_rejects_negative(self, unit_square):
        with pytest.raises(ValueError, match="negative"):
            make_pmf(unit_square, [0.5, -0.1, 0.3, 0.3])

    def test_rejects_wrong_length(self, unit_square):
        with pytest.raises(ValueError, match="one mass per node"):
            make_pmf(unit_square, [0.5, 0.5])

    def test_normalize_weights(self):
        assert normalize_weights([2, 2]) == (0.5, 0.5)
        with pytest.raises(ValueError):
            normalize_weights([0, 0])
        with pytest.raises(ValueError):
            normalize_weights([-1, 2])


class TestExpectation:
    def test_two_term(self, unit_square):
        pmf = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        u = tabulate_family("linear", unit_square, a=[1, 1])
        assert expectation(pmf, u) == pytest.approx(3.0, abs=1e-15)

    def test_uniform_counterexample_values(self, unit_square, counterexample):
        pmf = make_pmf(unit_square, [0.25] * 4)
        assert expectation(pmf, counterexample) == pytest.approx(4.75, abs=1e-15)

    def test_constant(self, unit_square):
        pmf = make_pmf(unit_square, [0.1, 0.2, 0.3, 0.4])
        u = tabulate(unit_square, [7.5] * 4)
        assert expectation(pmf, u) == pytest.approx(7.5, abs=1e-12)

    def test_grid_mismatch(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        other = tabulate(make_grid([[0, 1]]), [1, 2])
        with pytest.raises(ValueError, match="different grid"):
            expectation(pmf, other)

    @settings(deadline=None, max_examples=50)
    @given(
        w=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        v1=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        v2=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        a=st.floats(-3, 3),
    )
    def test_linear_in_values(self, w, v1, v2, a):
        square = make_grid([[1, 2], [1, 2]])
        pmf = make_pmf(square, normalize_weights(w))
        u1, u2 = tabulate(square, v1), tabulate(square, v2)
        combo = tabulate(square, [a * x + y for x, y in zip(v1, v2)])
        assert expectation(pmf, combo) == pytest.approx(
            a * expectation(pmf, u1) + expectation(pmf, u2), abs=1e-9
        )

    def test_linear_in_masses(self, unit_square):
        rng = np.random.default_rng(1)
        u = tabulate(unit_square, rng.normal(size=4))
        w1, w2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        lam = 0.3
        mix = make_pmf(unit_square, lam * w1 + (1 - lam) * w2)
        target = lam * expectation(make_pmf(unit_square, w1), u) + (1 - lam) * expectation(
            make_pmf(unit_square, w2), u
        )
        assert expectation(mix, u) == pytest.approx(target, abs=1e-12)


class TestMarginal:
    def test_diagonal(self, unit_square):
        pmf = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        m = marginal(pmf, 0)
        assert m.grid.axes == ((1.0, 2.0),)
        assert m.mass == (0.5, 0.5)

    def test_uniform_dim1(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        assert marginal(pmf, 1).mass == (0.5, 0.5)

    def test_identity_on_1d(self):
        g = make_grid([[0, 1, 2]])
        pmf = make_pmf(g, [0.2, 0.3, 0.5])
        assert marginal(pmf, 0) == pmf

    def test_out_of_range(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        with pytest.raises(ValueError, match="dimension"):
            marginal(pmf, 2)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_grid(rng, (3, 2, 4))
            pmf = random_pmf(g, rng)
            for dim in range(3):
                m = marginal(pmf, dim)
                assert math.fsum(m.mass) == pytest.approx(1.0, abs=1e-9)
                assert all(x >= 0 for x in m.mass)


class TestCommonGrid:
    def test_identity(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        g = make_pmf(unit_square, [0.5, 0, 0, 0.5])
        grid, fe, ge = common_grid(f, g)
        assert grid == unit_square and fe == f and ge == g
        assert grid is f.grid and fe is f and ge is g

    def test_union_fills_zeros(self):
        """Every old mass lands, bit for bit, on the union node with its
        coordinates; every other union node gets zero.  Interleaved axes in
        1-D, 2-D and 3-D."""
        cases = [
            ([[1, 2]], [[2, 3]], ((1.0, 2.0, 3.0),)),
            (
                [[0, 2, 5], [1, 4]],
                [[1, 2, 3, 6], [0, 1, 3, 4]],
                ((0.0, 1.0, 2.0, 3.0, 5.0, 6.0), (0.0, 1.0, 3.0, 4.0)),
            ),
            (
                [[-1, 1], [0, 3], [2, 4, 6]],
                [[0, 1, 2], [1, 3], [3, 4]],
                ((-1.0, 0.0, 1.0, 2.0), (0.0, 1.0, 3.0), (2.0, 3.0, 4.0, 6.0)),
            ),
        ]
        f = make_pmf(make_grid([[1, 2]]), [0.5, 0.5])
        g = make_pmf(make_grid([[2, 3]]), [0.3, 0.7])
        grid, fe, ge = common_grid(f, g)
        assert fe.mass == (0.5, 0.5, 0.0)
        assert ge.mass == (0.0, 0.3, 0.7)
        rng = np.random.default_rng(3)
        for f_axes, g_axes, union in cases:
            f, g = (random_pmf(make_grid(axes), rng) for axes in (f_axes, g_axes))
            grid, fe, ge = common_grid(f, g)
            assert grid.axes == union
            for old, new in ((f, fe), (g, ge)):
                want = [0.0] * grid.size
                for i in range(old.grid.size):
                    want[grid.node_index(old.grid.node(i))] = old.mass[i]
                assert new.grid == grid
                assert np.array(new.mass).tobytes() == np.array(want).tobytes()

    def test_dimension_mismatch(self, unit_square):
        f = make_pmf(unit_square, [0.25] * 4)
        g = make_pmf(make_grid([[0, 1]]), [0.5, 0.5])
        with pytest.raises(ValueError, match="dimension mismatch"):
            common_grid(f, g)

    def test_expectation_invariant_20_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            ga = random_grid(rng, tuple(int(rng.integers(2, 4)) for _ in range(k)))
            gb = random_grid(rng, tuple(int(rng.integers(2, 4)) for _ in range(k)))
            f, g = random_pmf(ga, rng), random_pmf(gb, rng)
            u_f = tabulate(ga, rng.normal(size=ga.size))
            u_g = tabulate(gb, rng.normal(size=gb.size))
            grid, fe, ge = common_grid(f, g)
            # re-tabulate each utility on the union grid by node lookup
            for pmf_old, pmf_new, u_old in ((f, fe, u_f), (g, ge, u_g)):
                values = np.zeros(grid.size)
                for i in range(pmf_old.grid.size):
                    values[grid.node_index(pmf_old.grid.node(i))] = u_old.values[i]
                before = expectation(pmf_old, u_old)
                after = expectation(pmf_new, tabulate(grid, values))
                assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestSampling:
    def test_degenerate(self):
        g = make_grid([[0, 1], [0, 1]])
        pmf = make_pmf(g, [0, 0, 0, 1])
        draws = sample_offers(pmf, seed=3, n=50)
        assert all(d == (1.0, 1.0) for d in draws)

    def test_seed_determinism(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        assert sample_offers(pmf, 123, 200) == sample_offers(pmf, 123, 200)
        assert sample_offers(pmf, 123, 200) != sample_offers(pmf, 124, 200)

    def test_frequencies_converge(self, unit_square):
        # binomial 3 sigma for p=0.25, n=1e5 is about 0.0041 < 0.01
        pmf = make_pmf(unit_square, [0.25] * 4)
        draws = sample_offers(pmf, seed=7, n=100_000)
        counts = Counter(draws)
        for node in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]:
            assert abs(counts[node] / 100_000 - 0.25) < 0.01

    def test_rejects_nonpositive_count(self, unit_square):
        pmf = make_pmf(unit_square, [0.25] * 4)
        with pytest.raises(ValueError):
            sample_offers(pmf, 0, 0)

    @pytest.mark.parametrize(
        "weights",
        [
            [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],  # zero-mass nodes, trailing zero
            [1.0],  # one-node grid
            [1e-12, 1.0 - 1e-9, 1e-9 - 1e-12],
            [1.0 - 1e-9, 1e-12, 0.0, 1e-9 - 1e-12],
            [1.0 / 900] * 900,
        ],
        ids=["zeros", "one-node", "tiny-first", "tiny-middle", "uniform-900"],
    )
    @pytest.mark.parametrize("size", [1, 2, 100_000])
    def test_sampler_is_rng_choice(self, weights, size):
        p = np.asarray(weights)
        p = p / p.sum()
        for seed in (0, 5):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sampler = OfferSampler(p, size + 3)
            for _ in range(3):  # the buffers are reused draw after draw
                want = want_rng.choice(p.size, size, p=p)
                got = sampler.draw(got_rng, size)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()  # same stream consumed

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 60),
        zeros=st.floats(0.0, 0.9),
        size=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampler_matches_rng_choice_on_random_pmfs(self, n, zeros, size, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n)) * (rng.random(n) >= zeros)
        w[rng.integers(n)] += 0.5
        p = np.asarray(normalize_weights(w))
        want = np.random.default_rng(seed).choice(n, size, p=p)
        assert np.array_equal(OfferSampler(p, size).draw(np.random.default_rng(seed), size), want)

    def test_sample_offers_are_rng_choice_nodes(self):
        g = make_grid([[0.0, 1.5, 2.0], [-1.0, 4.0]])
        pmf = make_pmf(g, [0.1, 0.0, 0.25, 0.3, 0.0, 0.35])
        idx = np.random.default_rng(11).choice(g.size, 500, p=pmf.mass_array / pmf.mass_array.sum())
        draws = sample_offers(pmf, seed=11, n=500)
        assert draws == [g.node(i) for i in idx]
        assert all(type(c) is float for d in draws for c in d)

    def test_derive_rng_split(self):
        a = derive_rng(9, 0).normal(size=3)
        b = derive_rng(9, 1).normal(size=3)
        a2 = derive_rng(9, 0).normal(size=3)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)
