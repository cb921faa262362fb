import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import mcsearch.utility as utility_module
from mcsearch import (
    FunctionClass,
    affine_transform,
    clamp_below,
    is_member,
    make_grid,
    random_member,
    tabulate,
    tabulate_family,
    truncate,
)
from mcsearch.simplex import LpResult, solve_lp
from mcsearch.statics import _random_grid
from cone_oracle import oracle_convex_membership
from conftest import random_grid

ALL_CLASSES = list(FunctionClass)


def pairwise_supermodular(u, tol=1e-9):
    """Quantified cross-difference test over every node pair (oracle)."""
    grid = u.grid
    nodes = grid.nodes
    for i, j in itertools.combinations(range(grid.size), 2):
        meet = np.minimum(nodes[i], nodes[j])
        join = np.maximum(nodes[i], nodes[j])
        lhs = u.values[grid.node_index(meet)] + u.values[grid.node_index(join)]
        if lhs < u.values[i] + u.values[j] - tol:
            return False
    return True


class TestFamilies:
    def test_linear(self, unit_square):
        u = tabulate_family("linear", unit_square, a=[1, 1])
        assert u.values == (2.0, 3.0, 3.0, 4.0)

    def test_product(self, unit_square):
        u = tabulate_family("product", unit_square)
        assert u.values == (1.0, 2.0, 2.0, 4.0)
        assert is_member(u, FunctionClass.INCREASING_ULTRAMODULAR).member

    def test_min_family(self):
        g = make_grid([[0, 1, 2], [0, 1, 2]])
        u = tabulate_family("min", g)
        assert is_member(u, FunctionClass.INCREASING_SUPERMODULAR).member
        assert not is_member(u, FunctionClass.COMPONENTWISE_CONVEX).member

    def test_custom(self, unit_square, counterexample):
        assert counterexample.values == (5.0, -5.0, 14.0, 5.0)

    def test_linear_needs_its_coefficients(self, unit_square):
        with pytest.raises(ValueError, match="^linear family needs coefficient vector a$"):
            tabulate_family("linear", unit_square)

    def test_errors(self, unit_square):
        with pytest.raises(ValueError, match="unknown"):
            tabulate_family("cubic", unit_square)
        with pytest.raises(ValueError, match="grid is 2-D"):
            tabulate_family("linear", unit_square, a=[1.0])
        with pytest.raises(ValueError, match="values"):
            tabulate_family("custom", unit_square)
        with pytest.raises(ValueError, match="finite"):
            tabulate(unit_square, [1, 2, 3, float("nan")])
        with pytest.raises(ValueError, match="one value per node"):
            tabulate(unit_square, [1, 2, 3])


class TestMembership:
    def test_counterexample_is_supermodular(self, counterexample):
        # cross-difference 5 + 5 - (-5) - 14 = 1 >= 0
        assert is_member(counterexample, FunctionClass.SUPERMODULAR).member

    def test_truncated_counterexample_fails(self, counterexample):
        res = is_member(truncate(counterexample), FunctionClass.SUPERMODULAR)
        assert not res.member
        assert res.witness.constraint == "supermodular"
        assert res.witness.margin == -4.0
        assert res.witness.nodes == ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))

    def test_increasing_witness_is_lexicographically_first(self):
        g = make_grid([[0, 1, 2]])
        res = is_member(tabulate(g, [3, 2, 1]), FunctionClass.INCREASING)
        assert not res.member
        assert res.witness.nodes == ((0.0,), (1.0,))
        assert res.witness.margin == -1.0

    def test_componentwise_convex_nonuniform_spacing(self):
        # slopes on {0,1,3}: equal slopes pass, a dip fails
        g = make_grid([[0, 1, 3]])
        assert is_member(tabulate(g, [0, 1, 3]), FunctionClass.COMPONENTWISE_CONVEX).member
        res = is_member(tabulate(g, [0, 2, 3]), FunctionClass.COMPONENTWISE_CONVEX)
        assert not res.member and res.witness.constraint == "componentwise_convex"

    def test_convex_1d(self):
        g = make_grid([[0, 1, 2]])
        assert is_member(tabulate(g, [1, 0, 1]), FunctionClass.CONVEX).member
        res = is_member(tabulate(g, [0, 1, 0]), FunctionClass.CONVEX)
        assert not res.member
        assert res.witness.constraint == "subgradient"
        assert res.witness.nodes == ((1.0,),)

    def test_product_is_cw_convex_but_not_convex(self):
        # on {0,1,2}^2 the product kinks upward at (1,1) against the diagonal
        g = make_grid([[0, 1, 2], [0, 1, 2]])
        u = tabulate_family("product", g)
        assert is_member(u, FunctionClass.COMPONENTWISE_CONVEX).member
        assert is_member(u, FunctionClass.SUPERMODULAR).member
        res = is_member(u, FunctionClass.CONVEX)
        assert not res.member and res.witness.nodes == ((1.0, 1.0),)

    def test_convex_implies_componentwise_convex(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_grid(rng, (3, 3))
            u = random_member(FunctionClass.CONVEX, g, rng)
            assert is_member(u, FunctionClass.COMPONENTWISE_CONVEX).member

    def test_convex_equals_componentwise_convex_in_1d(self):
        rng = np.random.default_rng(3)
        g = make_grid([[0.0, 0.7, 1.1, 2.5]])
        for _ in range(40):
            u = tabulate(g, rng.normal(size=g.size))
            assert is_member(u, FunctionClass.CONVEX).member == is_member(
                u, FunctionClass.COMPONENTWISE_CONVEX
            ).member

    def test_local_supermodular_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        shapes = [(2, 2), (3, 3), (2, 3, 2), (3, 3, 3)]
        agree_fail = agree_pass = 0
        for i in range(60):
            g = random_grid(rng, shapes[i % len(shapes)])
            if i % 2:
                u = random_member(FunctionClass.SUPERMODULAR, g, rng)
            else:
                u = tabulate(g, rng.normal(size=g.size))
            local = is_member(u, FunctionClass.SUPERMODULAR).member
            assert local == pairwise_supermodular(u)
            agree_pass += local
            agree_fail += not local
        assert agree_pass > 0 and agree_fail > 0

    def test_composite_classes_are_conjunctions(self, counterexample):
        # supermodular but not increasing: (1,2) drops to -5
        assert not is_member(counterexample, FunctionClass.INCREASING_SUPERMODULAR).member
        g = make_grid([[0, 1], [0, 1]])
        u = tabulate(g, [0, 1, 1, 3])  # increasing and supermodular
        assert is_member(u, FunctionClass.INCREASING_SUPERMODULAR).member
        # 2x2 axes have no slope triples, so ultramodular reduces to supermodular
        assert is_member(u, FunctionClass.INCREASING_ULTRAMODULAR).member


class TestConvexMembership:
    """The convex class: candidate subgradients first, an LP per node only
    where none certifies."""

    def test_single_node_grid_is_member(self):
        u = tabulate(make_grid([[0.0]]), [0.0])
        assert is_member(u, FunctionClass.CONVEX).member

    def test_flat_axis_peak_is_not_member(self):
        u = tabulate(make_grid([[0.0], [0.0, 1.0, 2.0]]), [0.0, 1.0, 0.0])
        res = is_member(u, FunctionClass.CONVEX)
        assert not res.member and res.reason is None
        assert res.witness.constraint == "subgradient"
        assert res.witness.nodes == ((0.0, 1.0),)
        assert res.witness.margin == -1.0

    def test_flat_second_axis_is_member(self):
        u = tabulate(make_grid([[0.0, 1.0], [0.0]]), [0.0, 1.0])
        assert is_member(u, FunctionClass.CONVEX).member

    def test_linear_5x5_needs_no_lp(self):
        grid = make_grid([[0.0, 0.5, 1.7, 2.0, 3.1], [-1.0, 0.2, 0.9, 1.5, 2.8]])
        u = tabulate_family("linear", grid, a=[0.7, -1.3])
        with mock.patch.object(utility_module, "solve_lp", wraps=utility_module.solve_lp) as lp:
            assert is_member(u, FunctionClass.CONVEX).member
        assert lp.call_count == 0

    def test_lp_subgradient_certifies_later_node(self):
        """Three nodes no difference quotient certifies, one LP: its
        subgradient, passed on to the neighbours, certifies the others.
        With the subgradient hidden from them a second LP runs."""
        rng = np.random.default_rng(148)
        grid = _random_grid(rng, (4, 4))
        u = random_member(FunctionClass.CONVEX, grid, rng)
        nodes, vals = grid.nodes, u.values_array

        def supports(i, g):
            return all(
                vals[j] - vals[i] - g @ (nodes[j] - nodes[i]) >= -utility_module.MEMBERSHIP_TOL
                for j in range(grid.size)
            )

        # the forward and the backward difference-quotient fields, each
        # end of an axis taking the one quotient it has
        grid_vals = vals.reshape(grid.shape)
        forward, backward = [], []
        for k, axis in enumerate(grid.axes):
            spacing = np.diff(axis).reshape([-1 if a == k else 1 for a in range(grid.ndim)])
            slopes = np.diff(grid_vals, axis=k) / spacing
            first, last = np.take(slopes, [0], axis=k), np.take(slopes, [-1], axis=k)
            forward.append(np.concatenate([slopes, last], axis=k).reshape(-1))
            backward.append(np.concatenate([first, slopes], axis=k).reshape(-1))
        fields = [np.stack(forward, axis=1), np.stack(backward, axis=1)]
        uncertified = [i for i in range(grid.size) if not any(supports(i, g[i]) for g in fields)]
        assert len(uncertified) == 3
        with mock.patch.object(utility_module, "solve_lp", wraps=utility_module.solve_lp) as lp:
            res = is_member(u, FunctionClass.CONVEX)
        assert lp.call_count == 1
        assert res == oracle_convex_membership(u, utility_module.MEMBERSHIP_TOL)
        assert res.member

        def hidden(*args, **kwargs):
            out = solve_lp(*args, **kwargs)
            return dataclasses.replace(out, x=np.full_like(out.x, np.nan))

        with mock.patch.object(utility_module, "solve_lp", side_effect=hidden) as lp:
            assert is_member(u, FunctionClass.CONVEX).member
        assert lp.call_count == 2

    @pytest.mark.parametrize(
        "values",
        [
            lambda x1, x2: np.maximum(x1, x2),
            lambda x1, x2: np.maximum(abs(x1 - 1), abs(x2 - 1)),
        ],
        ids=["max", "max_abs"],
    )
    def test_kinks_are_certified_by_neighbours(self, values):
        """On {0,1,2}^2 each kink node shares an affine piece with a
        neighbour whose difference quotients stay inside it, so no LP runs
        (2 and 5 when only difference quotients and LP subgradients were
        tried)."""
        grid = make_grid([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        u = tabulate(grid, values(*grid.nodes.T))
        with mock.patch.object(utility_module, "solve_lp", wraps=utility_module.solve_lp) as lp:
            assert is_member(u, FunctionClass.CONVEX).member
        assert lp.call_count == 0

    def test_random_members_need_few_lps(self):
        """30 random convex members on each of 3x3, 4x4, 5x5 and 3x3x3
        solve at most 16 LPs in all (265 when only difference quotients and
        LP subgradients were tried)."""
        members = []
        for shape in [(3, 3), (4, 4), (5, 5), (3, 3, 3)]:
            for seed in range(30):
                rng = np.random.default_rng(seed)
                members.append(random_member(FunctionClass.CONVEX, _random_grid(rng, shape), rng))
        with mock.patch.object(utility_module, "solve_lp", wraps=utility_module.solve_lp) as lp:
            assert all(is_member(u, FunctionClass.CONVEX).member for u in members)
        assert lp.call_count <= 16

    def test_random_4d_members_need_few_lps(self):
        """30 random convex members on 2x2x2x2, where every node is an end
        of all four axes, solve at most 39 LPs in all."""
        members = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            members.append(random_member(FunctionClass.CONVEX, _random_grid(rng, (2, 2, 2, 2)), rng))
        with mock.patch.object(utility_module, "solve_lp", wraps=utility_module.solve_lp) as lp:
            assert all(is_member(u, FunctionClass.CONVEX).member for u in members)
        assert lp.call_count <= 39

    def test_offers_keep_the_verdict_of_one_lp_per_node(self):
        """Candidates checked on their nodes' rows of the shared cone give
        members and non-members the verdict of one LP per node."""
        rng = np.random.default_rng(3)
        for shape in [(3, 3), (4, 4), (3, 3, 3)]:
            grid = _random_grid(rng, shape)
            member = random_member(FunctionClass.CONVEX, grid, rng)
            for u in (member, tabulate(grid, rng.normal(size=grid.size))):
                want = oracle_convex_membership(u, utility_module.MEMBERSHIP_TOL)
                assert is_member(u, FunctionClass.CONVEX) == want

    def test_30x30_random_normal_non_member_keeps_its_witness(self):
        """Three node LPs of 899 rows each decide this non-member.  The
        witness node and its margin, to the bit, are the ones the dense
        tableau found before the simplex updated only the pivot row's
        support."""
        grid = _random_grid(np.random.default_rng(0), (30, 30))
        u = tabulate(grid, np.random.default_rng(0).standard_normal(grid.size))
        res = is_member(u, FunctionClass.CONVEX)
        assert not res.member and res.reason is None
        assert res.witness.constraint == "subgradient"
        assert [[v.hex() for v in node] for node in res.witness.nodes] == [
            ["0x1.187f5e7ece140p-2", "0x1.b36eedca0f4dbp+0"]
        ]
        assert res.witness.margin.hex() == "-0x1.c62a44fc704b0p-1"

    def test_failed_lp_names_its_status(self):
        # max(1, 2 x1, 2 x2): no difference quotient or neighbour certifies
        # (0, 0), on the flat piece alone, so its LP runs
        grid = make_grid([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        u = tabulate(grid, np.maximum(1.0, 2.0 * grid.nodes.max(axis=1)))
        assert is_member(u, FunctionClass.CONVEX).member
        failed = LpResult("numerical", None, None)
        with mock.patch.object(utility_module, "solve_lp", lambda *a, **k: failed):
            res = is_member(u, FunctionClass.CONVEX)
        assert not res.member
        assert res.reason == "LP status: numerical"
        assert res.witness.nodes == ((0.0, 0.0),)
        assert res.witness.margin == -np.inf


class TestOperators:
    def test_truncate_counterexample(self, counterexample):
        assert truncate(counterexample).values == (5.0, 0.0, 14.0, 5.0)

    def test_truncate_identity_on_nonnegative(self, unit_square):
        u = tabulate(unit_square, [0, 1, 2, 3])
        assert truncate(u) == u

    def test_truncate_all_negative(self, unit_square):
        u = tabulate(unit_square, [-1, -2, -3, -4])
        assert truncate(u).values == (0.0, 0.0, 0.0, 0.0)

    def test_affine_identity(self, counterexample):
        assert affine_transform(counterexample, 1.0, 0.0) == counterexample

    def test_affine_values(self):
        g = make_grid([[0, 1]])
        assert affine_transform(tabulate(g, [0, 2]), 2.0, 1.0).values == (1.0, 5.0)

    def test_affine_rejects_bad_parameters(self, counterexample):
        with pytest.raises(ValueError, match="slope"):
            affine_transform(counterexample, 0.0, 1.0)
        with pytest.raises(ValueError, match="slope"):
            affine_transform(counterexample, -2.0, 1.0)
        with pytest.raises(ValueError, match="intercept"):
            affine_transform(counterexample, 1.0, -1.0)

    def test_clamp_below_min_is_identity(self, counterexample):
        assert clamp_below(counterexample, -100.0) == counterexample

    def test_clamp_above_max_is_constant(self, counterexample):
        assert clamp_below(counterexample, 20.0).values == (20.0,) * 4

    def test_clamp_zero_equals_truncate(self, counterexample):
        assert clamp_below(counterexample, 0.0) == truncate(counterexample)

    def test_clamp_rejects_nonfinite_level(self, counterexample):
        with pytest.raises(ValueError, match="finite"):
            clamp_below(counterexample, float("inf"))

    def test_clamp_is_shifted_truncation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_grid(rng, (3, 2))
            u = tabulate(g, rng.normal(0, 3, size=g.size))
            level = float(rng.uniform(-2, 2))
            shifted = tabulate(g, u.values_array - level)
            rebuilt = truncate(shifted).values_array + level
            assert np.allclose(clamp_below(u, level).values_array, rebuilt, atol=1e-12)

    @pytest.mark.parametrize("fc", ALL_CLASSES, ids=lambda c: c.value)
    def test_affine_preserves_membership(self, fc):
        rng = np.random.default_rng(8)
        for _ in range(10):
            shape = (3, 3) if fc is not FunctionClass.INCREASING else (4,)
            g = random_grid(rng, shape)
            u = random_member(fc, g, rng)
            image = affine_transform(u, float(rng.uniform(0.2, 4.0)), float(rng.uniform(0, 3)))
            assert is_member(image, fc).member


class TestRandomMembers:
    @pytest.mark.parametrize("fc", ALL_CLASSES, ids=lambda c: c.value)
    def test_members_verify(self, fc):
        rng = np.random.default_rng(10)
        for shape in [(2, 2), (3, 4), (2, 3, 2)]:
            u = random_member(fc, random_grid(rng, shape), rng)
            assert is_member(u, fc).member

    def test_deterministic_given_rng_state(self, unit_square):
        a = random_member(FunctionClass.INCREASING, unit_square, np.random.default_rng(5))
        b = random_member(FunctionClass.INCREASING, unit_square, np.random.default_rng(5))
        assert a == b


class TestConeGuard:
    def test_convex_cone_past_the_guard_is_refused_before_it_is_built(self, monkeypatch):
        # 3,600 nodes: 12,956,400 ordered pairs x 4 columns
        axis = [float(x) for x in range(60)]
        grid = make_grid([axis, axis])

        def build(*args):
            raise AssertionError("cone built past the guard")

        monkeypatch.setattr(utility_module, "_cone_index", build)
        message = r"convex cone would be 12956400 x 4 = 51825600 entries \(guard 33554432\)"
        with pytest.raises(ValueError, match=message):
            is_member(tabulate(grid, np.zeros(grid.size)), FunctionClass.CONVEX)

    def test_convex_membership_holds_three_index_blocks(self):
        """A cold-cache convex ``is_member`` on a 30x30 grid peaks at three
        index blocks: the block it caches, the coefficients and the
        row-length vectors of one candidate check, which reads the block in
        place.  With the block cached, two.  On a 900-node axis a row is
        narrower, so the row-length vectors weigh 4/3 of a block, not 1."""
        for axes, cold, warm in [([range(30)] * 2, 3.05, 2.05), ([range(900)], 3.4, 2.4)]:
            grid = make_grid([[float(x) for x in axis] for axis in axes])
            x = grid.nodes
            u = tabulate(grid, x.max(axis=1) + 0.1 * (x[:, 0] - 10.0) ** 2)
            rows, width, _ = utility_module.cone_size(grid.shape, FunctionClass.CONVEX)
            block = rows * width * 8
            utility_module._cone_index.cache_clear()
            for bound in (cold, warm):
                tracemalloc.start()
                try:
                    assert is_member(u, FunctionClass.CONVEX).member
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound * block
