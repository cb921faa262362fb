"""Reference oracle for the class cone matrices: the original loop builders.

Each builder walks the grid nodes in ``np.ndindex`` order and emits one
local constraint ``sum(coeffs * u[idxs]) >= 0`` per node and axis (or
dimension pair), exactly as the package did before the cone matrix was
built by index arithmetic.  The property tests compare the vectorized
``ConeMatrix``, its membership witness and the dominance LP's constraint
matrix against these rows bit for bit.

``oracle_convex_membership`` is the convex membership test as one
subgradient LP per node, before candidate subgradients certified most
nodes without an LP.

``dominates_increasing_bruteforce`` decides the increasing order by
enumerating upper sets, on grids of up to 12 nodes: the oracle for the
staircase minimum on grids of at most two axes and for the cone LP on
grids of three or more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcsearch.grids import common_grid
from mcsearch.simplex import solve_lp
from mcsearch.utility import _FAMILIES, MEMBERSHIP_TOL, FunctionClass, MembershipResult, Witness

#: Grid-size cap for the exponential upper-set enumeration.
BRUTE_FORCE_NODE_CAP = 12

#: The classes ``dominates`` decides in closed form on grids of at most
#: two axes.
CLOSED_FORM_CLASSES = (FunctionClass.INCREASING, FunctionClass.INCREASING_SUPERMODULAR)


def builds_cone_lp(grid, function_class: FunctionClass) -> bool:
    """Whether ``dominates`` solves the cone LP for this class and grid."""
    return grid.ndim > 2 or function_class not in CLOSED_FORM_CLASSES


@dataclass(frozen=True)
class ConeRow:
    """One local linear constraint ``sum(coeffs * u[idxs]) >= 0``."""

    kind: str
    idxs: tuple[int, ...]
    coeffs: tuple[float, ...]
    nodes: tuple[tuple[float, ...], ...]


def increasing_rows(grid) -> list[ConeRow]:
    rows = []
    shape = grid.shape
    for multi in np.ndindex(*shape):
        for k in range(grid.ndim):
            if multi[k] + 1 >= shape[k]:
                continue
            hi = list(multi)
            hi[k] += 1
            i, j = grid.flat_index(multi), grid.flat_index(hi)
            rows.append(
                ConeRow("increasing", (j, i), (1.0, -1.0), (grid.node(i), grid.node(j)))
            )
    return rows


def componentwise_convex_rows(grid) -> list[ConeRow]:
    rows = []
    shape = grid.shape
    for multi in np.ndindex(*shape):
        for k in range(grid.ndim):
            if multi[k] + 2 >= shape[k]:
                continue
            m1 = list(multi)
            m1[k] += 1
            m2 = list(multi)
            m2[k] += 2
            i0, i1, i2 = (grid.flat_index(m) for m in (multi, m1, m2))
            t0, t1, t2 = (grid.axes[k][m[k]] for m in (multi, m1, m2))
            h1, h2 = t1 - t0, t2 - t1
            rows.append(
                ConeRow(
                    "componentwise_convex",
                    (i0, i1, i2),
                    (1.0 / h1, -(1.0 / h1 + 1.0 / h2), 1.0 / h2),
                    (grid.node(i0), grid.node(i1), grid.node(i2)),
                )
            )
    return rows


def supermodular_rows(grid) -> list[ConeRow]:
    rows = []
    shape = grid.shape
    for multi in np.ndindex(*shape):
        for p in range(grid.ndim):
            if multi[p] + 1 >= shape[p]:
                continue
            for q in range(p + 1, grid.ndim):
                if multi[q] + 1 >= shape[q]:
                    continue
                ll = list(multi)
                lh = list(multi)
                lh[q] += 1
                hl = list(multi)
                hl[p] += 1
                hh = list(multi)
                hh[p] += 1
                hh[q] += 1
                i_ll, i_lh, i_hl, i_hh = (grid.flat_index(m) for m in (ll, lh, hl, hh))
                rows.append(
                    ConeRow(
                        "supermodular",
                        (i_ll, i_hh, i_lh, i_hl),
                        (1.0, 1.0, -1.0, -1.0),
                        tuple(grid.node(i) for i in (i_ll, i_lh, i_hl, i_hh)),
                    )
                )
    return rows


ROW_BUILDERS = {
    "increasing": increasing_rows,
    "componentwise_convex": componentwise_convex_rows,
    "supermodular": supermodular_rows,
}


def oracle_rows(grid, function_class: FunctionClass) -> list[ConeRow]:
    """All local rows of the class, families concatenated in class order."""
    rows: list[ConeRow] = []
    for family in _FAMILIES[function_class]:
        rows.extend(ROW_BUILDERS[family](grid))
    return rows


def oracle_witness(u, function_class: FunctionClass, tol: float):
    """(kind, nodes, margin) of the first violated row, or None.

    Families are checked in the fixed order increasing, supermodular,
    componentwise convex, and rows within a family in builder order.
    """
    vals = u.values_array
    order = sorted(
        _FAMILIES[function_class],
        key=("increasing", "supermodular", "componentwise_convex").index,
    )
    for family in order:
        for row in ROW_BUILDERS[family](u.grid):
            value = float(sum(c * vals[i] for c, i in zip(row.coeffs, row.idxs)))
            if value < -tol:
                return row.kind, row.nodes, value
    return None


def oracle_a_ub(grid, function_class: FunctionClass) -> np.ndarray:
    """The dominance LP's inequality matrix: one negated cone row per row."""
    rows = oracle_rows(grid, function_class)
    a_ub = np.zeros((len(rows), grid.size))
    for r, row in enumerate(rows):
        for coeff, idx in zip(row.coeffs, row.idxs):
            a_ub[r, idx] -= coeff
    return a_ub


def oracle_convex_program(grid, gap: np.ndarray):
    """The convex dominance LP ``(c, a_ub, b_ub, bounds)``: minimize
    ``gap . u`` over the values ``u`` in [0, 1] and one free subgradient
    ``g_i`` per node, one row per ordered pair ``i != j`` (i-major) with
    u_j >= u_i + g_i . (x_j - x_i)."""
    n, k = grid.size, grid.ndim
    nodes = grid.nodes
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(n + n * k)
            row[i] = 1.0
            row[j] = -1.0
            row[n + i * k : n + (i + 1) * k] = nodes[j] - nodes[i]
            rows.append(row)
    a_ub = np.stack(rows) if rows else np.zeros((0, n + n * k))
    c = np.concatenate([gap, np.zeros(n * k)])
    bounds = [(0.0, 1.0)] * n + [(None, None)] * (n * k)
    return c, a_ub, np.zeros(len(rows)), bounds


def oracle_convex_membership(u, tol: float) -> MembershipResult:
    """Solve min v s.t. g . (x_j - x_i) - (u_j - u_i) <= v for all j != i,
    v >= -1, at every node i in C order; the first optimum above ``tol`` is
    the witness, with margin ``-v*``."""
    grid = u.grid
    n, k = grid.size, grid.ndim
    nodes, vals = grid.nodes, u.values_array
    for i in range(n):
        others = [j for j in range(n) if j != i]
        d = nodes[others] - nodes[i]
        delta = vals[others] - vals[i]
        a_ub = np.hstack([d, -np.ones((d.shape[0], 1))])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        bounds = [(None, None)] * k + [(-1.0, None)]
        res = solve_lp(c, a_ub=a_ub, b_ub=delta, bounds=bounds)
        v_star = float(res.fun) if res.ok else math.inf
        if v_star > tol:
            reason = None if res.ok else f"LP status: {res.status}"
            witness = Witness("subgradient", (grid.node(i),), -v_star)
            return MembershipResult(False, FunctionClass.CONVEX, witness, reason)
    return MembershipResult(True, FunctionClass.CONVEX, None)


def dominates_increasing_bruteforce(f, g) -> bool:
    """Increasing-order dominance by direct upper-set enumeration.

    True iff F puts at least as much mass as G (within MEMBERSHIP_TOL) on
    every upper set of the componentwise node order.  Exponential in the
    node count, hence the small-grid guard.
    """
    grid, fe, ge = common_grid(f, g)
    n = grid.size
    if n > BRUTE_FORCE_NODE_CAP:
        raise ValueError(
            f"upper-set enumeration needs <= {BRUTE_FORCE_NODE_CAP} nodes, grid has {n}"
        )
    nodes = grid.nodes
    greater = [
        [j for j in range(n) if np.all(nodes[j] >= nodes[i])] for i in range(n)
    ]
    fm, gm = fe.mass_array, ge.mass_array
    for bits in range(1 << n):
        members = [i for i in range(n) if bits >> i & 1]
        if any(not bits >> j & 1 for i in members for j in greater[i]):
            continue  # not upward closed
        if fm[members].sum() < gm[members].sum() - MEMBERSHIP_TOL:
            return False
    return True
