"""The vectorized class cone matrices against the loop-built reference rows.

Every comparison is bit for bit: node indices, coefficients, row order, the
first-violation witness of ``is_member`` and the dominance LP's constraint
matrices.
"""
import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mcsearch.dominance as dominance_module
from mcsearch import FunctionClass, dominates, is_member, make_grid, make_pmf, random_member, tabulate
from mcsearch.utility import _FAMILIES, MEMBERSHIP_TOL, check_cone, cone_size, local_rows
from cone_oracle import (
    ROW_BUILDERS,
    builds_cone_lp,
    oracle_a_ub,
    oracle_convex_membership,
    oracle_convex_program,
    oracle_rows,
    oracle_witness,
)

#: SHA-256 of the cone layouts that ``test_layout_digest_is_pinned`` hashes.
LAYOUT_DIGEST = "06f355e010d8b2a838a5e6a72c598f5ce175ab7a4806283988a9a730c8615a9b"

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
    def __init__(self, c, a_ub, b_ub, bounds):
        self.c, self.a_ub, self.b_ub, self.bounds = c, a_ub, b_ub, bounds


def _capture(c, a_ub=None, b_ub=None, bounds=None):
    raise _Captured(c, a_ub, b_ub, bounds)


def _random_pmfs(grid, seed):
    rng = np.random.default_rng(seed)
    return tuple(make_pmf(grid, rng.dirichlet(np.ones(grid.size))) for _ in range(2))


def _captured_program(f, g, fc):
    """The ``(c, a_ub, b_ub, bounds)`` that ``dominates(f, g, fc)`` passes
    to the LP solver."""
    with mock.patch.object(dominance_module, "solve_lp", _capture):
        with pytest.raises(_Captured) as caught:
            dominates(f, g, fc)
    got = caught.value
    return got.c, got.a_ub, got.b_ub, got.bounds


def _assert_same_program(got, want):
    assert got[1].shape == want[1].shape
    for mine, theirs in zip(got[:3], want[:3]):
        assert _bits(mine) == _bits(theirs)
    assert got[3] == want[3]


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestConeMatrix:
    @PROPERTY
    @given(grid=grids(), fc=st.sampled_from(LOCAL_CLASSES))
    def test_rows_match_oracle(self, grid, fc):
        cone = local_rows(grid, fc)
        rows = oracle_rows(grid, fc)
        assert (len(cone), cone.idx.shape[1], grid.size) == cone_size(grid.shape, fc)
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
        """The LP ``dominates`` hands to the solver for a local class, bit
        for bit: the negated cone rows over the values in [0, 1]."""
        assume(builds_cone_lp(grid, fc))
        f, g = _random_pmfs(grid, seed)
        a_ub = oracle_a_ub(grid, fc)
        want = (f.mass_array - g.mass_array, a_ub, np.zeros(len(a_ub)), [(0.0, 1.0)] * grid.size)
        _assert_same_program(_captured_program(f, g, fc), want)

    @PROPERTY
    @given(
        grid=grids(st.sampled_from([(2,), (5,), (2, 3), (3, 3), (2, 2, 2)])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_convex_program_matches_oracle(self, grid, seed):
        """The convex LP ``dominates`` builds from the convex cone matrix is
        the pair program of ``oracle_convex_program``, bit for bit."""
        f, g = _random_pmfs(grid, seed)
        got = _captured_program(f, g, FunctionClass.CONVEX)
        _assert_same_program(got, oracle_convex_program(grid, f.mass_array - g.mass_array))

    def test_row_counts_are_exact_past_int64(self):
        """Counted in Python integers: the int64 products once returned
        -6,819,584,014,656,913,408 rows at (10**7,)*3 and 7.2e18, not
        8.1e19, at (3*10**6,)*3."""
        fc = FunctionClass.INCREASING
        assert cone_size((10**7,) * 3, fc) == (3 * (10**7 - 1) * 10**14, 2, 10**21)
        assert cone_size((3 * 10**6,) * 3, fc) == (3 * (3 * 10**6 - 1) * 9 * 10**12, 2, 27 * 10**18)
        assert cone_size((np.int64(10**7),) * 3, fc) == cone_size((10**7,) * 3, fc)
        with pytest.raises(ValueError, match=r"increasing cone would be 2999999700000000000000 x 2"):
            check_cone((10**7,) * 3, fc)

    @PROPERTY
    @given(grid=grids(st.sampled_from([(1,), (4,), (2, 3), (3, 3), (2, 2, 2)])))
    def test_convex_pairs_rows_per_node(self, grid):
        """Node i's subgradient rows of the convex cone matrix are
        i*(n-1):(i+1)*(n-1): every other node j in order, then i, then
        i's subgradient columns, with coefficients 1, -1, -(x_j - x_i)."""
        cone = local_rows(grid, FunctionClass.CONVEX)
        n, k, nodes = grid.size, grid.ndim, grid.nodes
        assert cone.families == (("convex", n * (n - 1)),)
        assert cone_size(grid.shape, FunctionClass.CONVEX) == (n * (n - 1), 2 + k, n + n * k)
        assert cone.idx.shape == cone.coeff.shape == (n * (n - 1), 2 + k)
        for node in range(n):
            rows = slice(node * (n - 1), (node + 1) * (n - 1))
            assert np.array_equal(cone.idx[rows, 0], np.delete(np.arange(n), node))
            assert (cone.idx[rows, 1] == node).all()
            assert (cone.idx[rows, 2:] == n + node * k + np.arange(k)).all()
            assert (cone.coeff[rows, :2] == (1.0, -1.0)).all()
            diff = np.delete(nodes - nodes[node], node, axis=0)
            assert _bits(-cone.coeff[rows, 2:]) == _bits(diff)

    @PROPERTY
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1))
    def test_convex_margins_are_pair_slacks(self, grid, seed):
        """``margins`` over the values and one subgradient per node gives,
        on each convex row (j, i), ``((u_j - u_i) - d_0*g_i0) - d_1*g_i1
        ...`` with ``d = x_j - x_i``, bit for bit."""
        rng = np.random.default_rng(seed)
        n, k, nodes = grid.size, grid.ndim, grid.nodes
        u, g = rng.normal(size=n), rng.normal(size=(n, k))
        cone = local_rows(grid, FunctionClass.CONVEX)
        got = cone.margins(np.concatenate([u, g.reshape(-1)]))
        want = []
        for i in range(n):
            for j in range(n):
                if j != i:
                    slack = u[j] - u[i]
                    for c in range(k):
                        slack -= (nodes[j, c] - nodes[i, c]) * g[i, c]
                    want.append(slack)
        assert _bits(got) == _bits(np.array(want))

    @PROPERTY
    @given(
        grid=grids(
            st.one_of(
                st.tuples(st.integers(1, 8)),
                st.tuples(st.integers(1, 5), st.integers(1, 5)),
                st.sampled_from([(3, 3, 3), (3, 1, 3), (2, 2, 2, 2)]),
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
        """Every class, padded conjunctions included, gives two grids of
        one shape its one cached index block itself, which cannot be
        written."""
        for fc in FunctionClass:
            a = local_rows(make_grid([[0.0, 1.0, 3.0], [0.0, 2.0, 2.5]]), fc)
            b = local_rows(make_grid([[5.0, 6.0, 9.0], [1.0, 4.0, 7.0]]), fc)
            assert a.idx is b.idx
            assert not a.idx.flags.writeable
            with pytest.raises(ValueError):
                a.idx[0, 0] = 1

    def test_layout_digest_is_pinned(self):
        """Node indices, coefficients and family ends of every class cone,
        on every shape of 1 to 4 axes of 1 to 4 nodes and a 30x30 convex
        grid, hash to the digest of the layout as it was first recorded."""

        def axis(k, extent):
            return [k + 0.5 * j + 0.25 * j * j for j in range(extent)]

        cones = [
            (make_grid([axis(k, e) for k, e in enumerate(shape)]), fc)
            for ndim in range(1, 5)
            for shape in itertools.product(range(1, 5), repeat=ndim)
            for fc in FunctionClass
        ]
        cones.append((make_grid([axis(0, 30), axis(1, 30)]), FunctionClass.CONVEX))
        digest = hashlib.sha256()
        for grid, fc in cones:
            cone = local_rows(grid, fc)
            digest.update(np.ascontiguousarray(cone.idx, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(cone.coeff, dtype=np.float64).tobytes())
            digest.update(repr(cone.families).encode())
        assert digest.hexdigest() == LAYOUT_DIGEST

    def test_coefficients_follow_the_axes(self):
        """Two grids of one shape share the topology but not the
        componentwise-convex coefficients."""
        fc = FunctionClass.COMPONENTWISE_CONVEX
        near = make_grid([[0.0, 1.0, 2.0]])
        far = make_grid([[0.0, 1.0, 4.0]])
        assert local_rows(near, fc).coeff.tolist() == [[1.0, -2.0, 1.0]]
        assert local_rows(far, fc).coeff.tolist() == [[1.0, -(1.0 + 1.0 / 3.0), 1.0 / 3.0]]
