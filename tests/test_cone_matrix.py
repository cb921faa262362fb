"""The vectorized class cone matrices against the loop-built reference rows.

Every comparison is bit for bit: node indices, coefficients, row order, the
first-violation witness of ``is_member`` and the dominance LP's constraint
matrices.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mcsearch.dominance as dominance_module
from mcsearch import FunctionClass, dominates, is_member, make_grid, make_pmf, random_member, tabulate
from mcsearch.dominance import _convex_cone_program
from mcsearch.utility import _FAMILIES, MEMBERSHIP_TOL, _family_topology, convex_pairs, local_rows
from cone_oracle import (
    ROW_BUILDERS,
    oracle_a_ub,
    oracle_convex_membership,
    oracle_convex_program,
    oracle_rows,
    oracle_witness,
)

LOCAL_CLASSES = [fc for fc in FunctionClass if fc is not FunctionClass.CONVEX]

SHAPES = st.one_of(
    st.tuples(st.integers(1, 8)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.sampled_from([(3, 3, 3), (4, 4, 4), (2, 2, 2, 2)]),
)


@st.composite
def grids(draw, shapes=SHAPES):
    """Grids with nonuniform, strictly increasing axes."""
    axes = []
    for length in draw(shapes):
        start = draw(st.floats(-3.0, 3.0))
        steps = draw(st.lists(st.floats(0.05, 2.0), min_size=length - 1, max_size=length - 1))
        axes.append(start + np.concatenate([[0.0], np.cumsum(steps)]))
    return make_grid(axes)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class _Captured(Exception):
    def __init__(self, a_ub):
        self.a_ub = a_ub


def _capture(c, a_ub=None, **kwargs):
    raise _Captured(a_ub)


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestConeMatrix:
    @PROPERTY
    @given(grid=grids(), fc=st.sampled_from(LOCAL_CLASSES))
    def test_rows_match_oracle(self, grid, fc):
        cone = local_rows(grid, fc)
        rows = oracle_rows(grid, fc)
        assert len(cone) == len(rows)
        counts = [len(ROW_BUILDERS[family](grid)) for family in _FAMILIES[fc]]
        assert cone.families == tuple(zip(_FAMILIES[fc], np.cumsum(counts).tolist()))
        width = cone.idx.shape[1]
        for r, row in enumerate(rows):
            w = len(row.idxs)
            assert tuple(int(i) for i in cone.idx[r, :w]) == row.idxs
            assert _bits(cone.coeff[r, :w]) == _bits(np.array(row.coeffs))
            assert np.all(cone.coeff[r, w:width] == 0.0)
            assert np.all(cone.idx[r, w:width] == row.idxs[-1])

    @PROPERTY
    @given(
        grid=grids(),
        fc=st.sampled_from(LOCAL_CLASSES),
        seed=st.integers(0, 2**32 - 1),
        bump=st.floats(-3.0, 3.0),
    )
    def test_witness_matches_oracle(self, grid, fc, seed, bump):
        """A class member bumped at one node: the first violated row, its
        nodes and its margin agree with the loop over the reference rows."""
        rng = np.random.default_rng(seed)
        values = np.array(random_member(fc, grid, rng).values)
        values[rng.integers(grid.size)] += bump
        u = tabulate(grid, values)
        res = is_member(u, fc)
        expected = oracle_witness(u, fc, MEMBERSHIP_TOL)
        if expected is None:
            assert res.member and res.witness is None
        else:
            assert not res.member
            kind, nodes, margin = expected
            assert res.witness.constraint == kind
            assert res.witness.nodes == nodes
            assert _bits(np.array(res.witness.margin)) == _bits(np.array(margin))

    @PROPERTY
    @given(grid=grids(), fc=st.sampled_from(LOCAL_CLASSES), seed=st.integers(0, 2**32 - 1))
    def test_dominance_matrix_matches_oracle(self, grid, fc, seed):
        rng = np.random.default_rng(seed)
        f, g = (make_pmf(grid, rng.dirichlet(np.ones(grid.size))) for _ in range(2))
        with mock.patch.object(dominance_module, "solve_lp", _capture):
            with pytest.raises(_Captured) as caught:
                dominates(f, g, fc)
        assert caught.value.a_ub.shape == (len(oracle_rows(grid, fc)), grid.size)
        assert _bits(caught.value.a_ub) == _bits(oracle_a_ub(grid, fc))

    @PROPERTY
    @given(grid=grids(st.sampled_from([(2,), (5,), (2, 3), (3, 3), (2, 2, 2)])))
    def test_convex_program_matches_oracle(self, grid):
        a_ub, bounds = _convex_cone_program(grid)
        assert _bits(a_ub) == _bits(oracle_convex_program(grid))
        assert len(bounds) == a_ub.shape[1]

    @PROPERTY
    @given(grid=grids(st.sampled_from([(1,), (4,), (2, 3), (3, 3), (2, 2, 2)])))
    def test_convex_pairs_rows_per_node(self, grid):
        """Node i's subgradient rows are i*(n-1):(i+1)*(n-1): every other
        node in order, with x_j - x_i."""
        i, j, diff = convex_pairs(grid)
        n, nodes = grid.size, grid.nodes
        for node in range(n):
            rows = slice(node * (n - 1), (node + 1) * (n - 1))
            assert (i[rows] == node).all()
            assert np.array_equal(j[rows], np.delete(np.arange(n), node))
            assert _bits(diff[rows]) == _bits(np.delete(nodes - nodes[node], node, axis=0))

    @PROPERTY
    @given(
        grid=grids(
            st.one_of(
                st.tuples(st.integers(1, 8)),
                st.tuples(st.integers(1, 5), st.integers(1, 5)),
                st.sampled_from([(3, 3, 3), (2, 2, 2, 2)]),
            )
        ),
        noise=st.sampled_from([0.0, 1e-9, 1e-4, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_convex_membership_matches_per_node_lps(self, grid, noise, seed):
        """Members, members with noise at and above the tolerance, and
        random non-members (``noise`` None) get the verdict and witness of
        one subgradient LP per node, the margin bit for bit."""
        rng = np.random.default_rng(seed)
        if noise is None:
            u = tabulate(grid, rng.normal(size=grid.size))
        else:
            member = random_member(FunctionClass.CONVEX, grid, rng)
            u = tabulate(grid, member.values_array + rng.uniform(-noise, noise, grid.size))
        res = is_member(u, FunctionClass.CONVEX)
        want = oracle_convex_membership(u, MEMBERSHIP_TOL)
        assert res == want
        if want.witness is not None:
            assert _bits(np.array(res.witness.margin)) == _bits(np.array(want.witness.margin))

    def test_topology_is_shared_and_read_only(self):
        a = local_rows(make_grid([[0.0, 1.0, 3.0], [0.0, 2.0]]), FunctionClass.INCREASING)
        b = local_rows(make_grid([[5.0, 6.0, 9.0], [1.0, 4.0]]), FunctionClass.INCREASING)
        assert np.array_equal(a.idx, b.idx)
        block = _family_topology((3, 2), "increasing")
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1

    def test_coefficients_follow_the_axes(self):
        """Two grids of one shape share the topology but not the
        componentwise-convex coefficients."""
        fc = FunctionClass.COMPONENTWISE_CONVEX
        near = make_grid([[0.0, 1.0, 2.0]])
        far = make_grid([[0.0, 1.0, 4.0]])
        assert local_rows(near, fc).coeff.tolist() == [[1.0, -2.0, 1.0]]
        assert local_rows(far, fc).coeff.tolist() == [[1.0, -(1.0 + 1.0 / 3.0), 1.0 / 3.0]]

    def test_convex_class_has_no_local_rows(self):
        with pytest.raises(ValueError, match="not defined by local rows"):
            local_rows(make_grid([[0.0, 1.0]]), FunctionClass.CONVEX)
