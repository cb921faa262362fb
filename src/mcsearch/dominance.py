"""Stochastic-dominance checks over function classes.

``F`` dominates ``G`` on a class when E_F[U] >= E_G[U] for every U in the
class.  On a finite grid the class is a polyhedral cone, the class's one
``ConeMatrix`` of :mod:`mcsearch.utility` (over the values and, for the
convex class, one subgradient per node), and because every class here is
invariant under positive affine rescaling, the quantified statement reduces
to one linear program: minimize the expectation gap over the cone
intersected with the box 0 <= U <= 1.  A nonnegative minimum proves
dominance; a negative one yields a witness utility function violating it.
On grids of at most two axes the increasing and increasing-supermodular
minima have closed forms, over staircase upper sets and upper orthants
(Müller & Stoyan 2002, §3.9).  A convex query whose gap has no first
moment first tries a martingale coupling of G's excess onto F's (Strassen
1965), a certificate of the convex order; every other query, and every
convex one the coupling does not certify, solves the LP.

Also provides the three constructive generators of dominance pairs (upward
mass shift, mean-preserving spread, concordance transfer).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Grid, Pmf, common_grid, expectation
from .simplex import TABLEAU_ENTRY_GUARD, LpResult, solve_lp, tableau_shape
from .utility import (
    MEMBERSHIP_TOL,
    ConeMatrix,
    FunctionClass,
    TabulatedUtility,
    cone_size,
    is_member,
    local_rows,
    tabulate,
)


@dataclass(frozen=True)
class DominanceResult:
    """Verdict of a dominance query with its certificate.

    verdict is ``dominates``, ``fails`` or ``inconclusive``; ``lp_optimum``
    is the minimal expectation gap over the normalized class section (0.0,
    the gap of U = 0, on a closed-form or coupling ``dominates``), and
    ``witness`` (present exactly when the verdict is ``fails``) is a class
    member whose expectation gap is below ``-MEMBERSHIP_TOL``.
    """

    verdict: str
    lp_optimum: float | None
    witness: TabulatedUtility | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.verdict == "dominates"


def dominates(f: Pmf, g: Pmf, function_class: FunctionClass) -> DominanceResult:
    """Decide whether ``f`` dominates ``g`` on a function class.

    The pmfs are first embedded on their common grid.  The decision is the
    minimum of ``sum((f_i - g_i) * U_i)`` over the class cone intersected
    with ``0 <= U <= 1``; since expectation gaps are invariant under adding
    constants and scale linearly, the box section decides the full cone.  A
    minimum of at least ``-MEMBERSHIP_TOL`` (fixed, not set per call) is
    ``dominates``.

    The routes, in order.  On grids of at most two axes the ``increasing``
    and ``increasing_supermodular`` minima have closed forms (a 1-D grid is
    their one-row case): the least gap over the staircase upper sets
    (``_staircase_minimum``) and over the upper orthants
    (``_orthant_minimum``).  A ``convex`` query tries a martingale coupling
    of the excess (``_martingale_coupling``) unless the gap's first moment
    on some axis, taken from the axis's low end, exceeds ``MEMBERSHIP_TOL``
    times the axis span: then a normalised linear U already shows a
    failure.  A closed-form or coupling ``dominates`` reports the gap of
    ``U = 0``, 0.0, and builds no cone.  Every other query solves the cone
    LP (``_cone_lp``).  On ``fails`` the minimiser is
    the witness, its gap is recomputed by direct summation, and it is
    re-verified as a class member: a convex LP witness by its own
    subgradients on every cone row, and by ``is_member`` only where one of
    those rows falls below ``-MEMBERSHIP_TOL``.
    """
    grid, fe, ge = common_grid(f, g)
    gap = fe.mass_array - ge.mass_array
    closed_form = _CLOSED_FORMS.get(function_class) if grid.ndim <= 2 else None
    member = False
    if closed_form is not None:
        optimum, values = closed_form(gap.reshape(-1, grid.shape[-1]))
        if optimum >= -MEMBERSHIP_TOL:
            return DominanceResult("dominates", 0.0, None)
    else:
        if function_class is FunctionClass.CONVEX:
            # a first moment past the tolerance fails on a normalised linear
            # U, (x_k - low_k) / span_k or one minus it; taken from the low
            # end, an axis of one node has none
            low = np.array([axis[0] for axis in grid.axes])
            span = np.array([axis[-1] for axis in grid.axes]) - low
            moment = np.abs(gap @ (grid.nodes - low))
            if (moment <= MEMBERSHIP_TOL * span).all() and _martingale_coupling(grid, gap):
                return DominanceResult("dominates", 0.0, None)
        res, cone = _cone_lp(grid, gap, function_class)
        if not res.ok:
            return DominanceResult("inconclusive", None, None, reason=f"LP status: {res.status}")
        optimum, values = res.fun, res.x[: grid.size]
        if optimum >= -MEMBERSHIP_TOL:
            return DominanceResult("dominates", optimum, None)
        # the convex LP's point holds a subgradient per node beside the values
        member = function_class is FunctionClass.CONVEX and bool(
            (cone.margins(res.x) >= -MEMBERSHIP_TOL).all()
        )
    # certify the counterexample before reporting a failure: the witness must
    # re-test as a class member and its gap, recomputed by direct summation,
    # must genuinely fall below -MEMBERSHIP_TOL
    witness = tabulate(grid, values)
    recomputed = expectation(fe, witness) - expectation(ge, witness)
    if recomputed >= -MEMBERSHIP_TOL:
        return DominanceResult(
            "inconclusive", optimum, None, reason="LP minimum not confirmed by direct summation"
        )
    if not (member or is_member(witness, function_class)):
        return DominanceResult(
            "inconclusive", optimum, None, reason="LP witness failed class re-verification"
        )
    return DominanceResult("fails", recomputed, witness)


def _martingale_coupling(grid: Grid, gap: np.ndarray) -> bool:
    """Whether a martingale coupling of G's excess onto F's certifies that
    F dominates G on the convex class (Strassen 1965).

    G's excess sits at the sources ``a`` (``gap < 0``), F's at the sinks
    ``b`` (``gap > 0``).  A coupling ``pi_ab >= 0`` moves each source's
    ``-gap_a`` onto the sinks, fills each sink's ``gap_b`` and keeps each
    source's mean, ``sum_b pi_ab (x_b - x_a) = 0``.  Then for convex U with
    subgradient ``s_a`` at each source, ``sum(gap * U) = sum_ab pi_ab (U_b -
    U_a) >= sum_a s_a . sum_b pi_ab (x_b - x_a) = 0``.

    Phase 1 of ``solve_lp`` looks for ``pi``, unless ``tableau_shape``
    refuses the program, in which case the answer is no.  Its point, clipped at 0 (a basic value can sit at
    -1e-18), is taken only when every residual, recomputed by direct
    summation, is within ``MEMBERSHIP_TOL``.  The martingale rows sum to
    the gap's first moment, so ``dominates`` tries only a gap whose moment
    vanishes.
    """
    src, snk = np.flatnonzero(gap < 0), np.flatnonzero(gap > 0)
    n_src, n_snk, k = src.size, snk.size, grid.ndim
    pi = np.zeros((n_src, n_snk))
    n_rows = n_src + n_snk + n_src * k
    # the tableau has more than rows x variables entries: a program past
    # the guard by that count alone is refused before a bound per variable
    # is spelled out
    if n_rows * pi.size > TABLEAU_ENTRY_GUARD:
        return False
    step = grid.nodes[snk] - grid.nodes[src][:, None]  # (source, sink, axis)
    if pi.size:
        bounds = [(0.0, None)] * pi.size
        try:
            tableau_shape(0, n_rows, bounds)
        except ValueError:
            return False
        # pi_ab is column a * n_snk + b; rows: source sums, sink sums, then
        # each source's martingale rows, one per axis
        col = np.arange(pi.size)
        a_eq = np.zeros((n_rows, pi.size))
        a_eq[col // n_snk, col] = 1.0
        a_eq[n_src + col % n_snk, col] = 1.0
        martingale = n_src + n_snk + (col // n_snk)[:, None] * k + np.arange(k)
        a_eq[martingale, col[:, None]] = step.reshape(-1, k)
        b_eq = np.concatenate([-gap[src], gap[snk], np.zeros(n_src * k)])
        res = solve_lp(np.zeros(pi.size), a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        if not res.ok:
            return False
        pi = np.maximum(res.x, 0.0).reshape(pi.shape)
    residual = np.concatenate(
        [
            pi.sum(axis=1) + gap[src],
            pi.sum(axis=0) - gap[snk],
            np.einsum("ab,abk->ak", pi, step).reshape(-1),
        ]
    )
    return bool((np.abs(residual) <= MEMBERSHIP_TOL).all())


def _cone_lp(
    grid: Grid, gap: np.ndarray, function_class: FunctionClass
) -> tuple[LpResult, ConeMatrix]:
    """Minimize ``gap . U`` over the class cone within ``0 <= U <= 1``; the
    solve and the cone it read.

    Every class builds this LP the same way from its ``ConeMatrix``; the
    variables past the values (convex subgradients) are free and follow
    them in ``x``.  ``simplex.tableau_shape`` sizes the tableau from
    ``cone_size`` before the cone is built, and one past the solver's
    ``TABLEAU_ENTRY_GUARD`` raises ``ValueError`` there.
    """
    n = grid.size
    n_rows, _, n_vars = cone_size(grid.shape, function_class)
    bounds = [(0.0, 1.0)] * n + [(None, None)] * (n_vars - n)
    # b_ub = 0 and every offset is 0, so no row is flipped
    tableau_shape(n_rows, 0, bounds)

    cone = local_rows(grid, function_class)
    a_ub = np.zeros((len(cone), n_vars))
    # cone row >= 0 becomes -row <= 0; padding subtracts zeros
    np.subtract.at(a_ub, (np.arange(len(cone))[:, None], cone.idx), cone.coeff)
    c = np.concatenate([gap, np.zeros(n_vars - n)])
    return solve_lp(c, a_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), bounds=bounds), cone


def _orthant_minimum(gap: np.ndarray) -> tuple[float, np.ndarray]:
    """Least gap over the increasing-supermodular class on an (n, m) grid,
    and the flat values of its minimiser.

    The cone is spanned by the constants and the upper-orthant indicators
    ``1{x >= a, y >= b}``, so the box section's vertices are 0 and those
    indicators, and the minimum is that of the survival gap
    ``D(a, b) = S_F(a, b) - S_G(a, b)``: two reversed cumulative sums.
    Ties go to the last orthant in C order (on one row, the smallest).
    """
    survival = gap[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1].reshape(-1)
    corner = survival.size - 1 - int(np.argmin(survival[::-1]))
    a, b = divmod(corner, gap.shape[1])
    values = np.zeros(gap.shape)
    values[a:, b:] = 1.0
    return float(survival[corner]), values.reshape(-1)


def _staircase_minimum(gap: np.ndarray) -> tuple[float, np.ndarray]:
    """Least gap over the increasing class on an (n, m) grid, and the flat
    values of its minimiser.

    The box section's vertices are the indicators of the upper sets, and on
    a product of two chains each upper set is a staircase: row ``i`` holds
    its columns from ``t_i`` on, with ``m >= t_0 >= t_1 >= ... >= t_{n-1}``.
    Row by row, the least gap on rows ``0..i`` of a staircase whose row
    ``i`` starts at ``t`` is row ``i``'s tail sum from ``t`` plus the
    minimum, over ``s >= t``, of the previous row's least gaps.  Ties go to the largest start, row
    by row from the last, which picks the smallest minimising upper set.
    """
    n, m = gap.shape
    tails = np.zeros((n, m + 1))
    tails[:, :m] = gap[:, ::-1].cumsum(axis=1)[:, ::-1]
    best = tails[0]
    back = np.empty((n, m + 1), dtype=np.intp)
    for i in range(1, n):
        suffix = np.minimum.accumulate(best[::-1])[::-1]
        # suffix is nondecreasing: its last entry equal to suffix[t] is the
        # largest s >= t where the previous row attains it
        back[i] = np.searchsorted(suffix, suffix, side="right") - 1
        best = tails[i] + suffix
    start = np.empty(n, dtype=np.intp)
    start[-1] = m - int(np.argmin(best[::-1]))
    for i in range(n - 1, 0, -1):
        start[i - 1] = back[i, start[i]]
    values = (np.arange(m) >= start[:, None]).astype(float)
    return float(best[start[-1]]), values.reshape(-1)


#: The classes whose minimum has a closed form on grids of at most two axes.
_CLOSED_FORMS = {
    FunctionClass.INCREASING: _staircase_minimum,
    FunctionClass.INCREASING_SUPERMODULAR: _orthant_minimum,
}


# ---------------------------------------------------------------------------
# constructive dominance-pair generators
# ---------------------------------------------------------------------------


def _move_mass(g: Pmf, moves: Sequence[tuple[int, float]]) -> Pmf:
    """``g`` with each ``(node index, delta)`` added to that node's mass,
    in order: the one mass move of every pair generator."""
    mass = list(g.mass)
    for i, delta in moves:
        mass[i] += delta
    return Pmf(g.grid, tuple(mass))


def fosd_shift(
    g: Pmf,
    from_node: Sequence[float],
    to_node: Sequence[float],
    eps: float,
) -> Pmf:
    """Move ``eps`` mass upward from one node to a componentwise-greater one.

    The result dominates ``g`` on the increasing class.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    i = g.grid.node_index(from_node)
    j = g.grid.node_index(to_node)
    if not all(b >= a for a, b in zip(g.grid.node(i), g.grid.node(j))):
        raise ValueError(
            f"target {tuple(to_node)} must be componentwise >= source {tuple(from_node)}"
        )
    if g.mass[i] < eps:
        raise ValueError(f"source node holds {g.mass[i]}, cannot move {eps}")
    return _move_mass(g, ((i, -eps), (j, eps)))


def mean_preserving_spread(g: Pmf, axis: int, node: Sequence[float], eps: float) -> Pmf:
    """Split ``eps`` mass at a node onto its two axis neighbors, weighted so
    the axis mean is unchanged.

    All marginal means are preserved and the result dominates ``g`` on the
    convex and componentwise-convex classes.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not (0 <= axis < g.grid.ndim):
        raise ValueError(f"axis {axis} out of range")
    i = g.grid.node_index(node)
    multi = g.grid.multi_index(i)
    coords = g.grid.axes[axis]
    pos = multi[axis]
    if pos == 0 or pos == len(coords) - 1:
        raise ValueError(
            f"node {tuple(node)} is on the boundary of axis {axis}; a spread needs both neighbors"
        )
    if g.mass[i] < eps:
        raise ValueError(f"node holds {g.mass[i]}, cannot spread {eps}")
    t_lo, t, t_hi = coords[pos - 1], coords[pos], coords[pos + 1]
    lam = (t_hi - t) / (t_hi - t_lo)  # weight on the lower neighbor
    lo_multi = list(multi)
    lo_multi[axis] -= 1
    hi_multi = list(multi)
    hi_multi[axis] += 1
    lo, hi = g.grid.flat_index(lo_multi), g.grid.flat_index(hi_multi)
    return _move_mass(g, ((i, -eps), (lo, eps * lam), (hi, eps * (1.0 - lam))))


def concordance_transfer(
    g: Pmf,
    dims: tuple[int, int],
    cell: tuple[tuple[float, float], tuple[float, float]],
    delta: float,
    at: Sequence[float] | None = None,
) -> Pmf:
    """Move ``delta`` mass from the anti-diagonal to the diagonal of a 2x2
    cell spanned by two coordinates in each of two dimensions.

    ``cell`` gives (low, high) coordinates for each of the two dims; ``at``
    pins the remaining dims' coordinates (required when the grid has more
    than two dimensions).  Every 1-D marginal is unchanged, and the result
    dominates ``g`` on the supermodular and increasing-supermodular classes.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    p, q = dims
    if p == q or not (0 <= p < g.grid.ndim and 0 <= q < g.grid.ndim):
        raise ValueError(f"dims {dims} must be two distinct dimensions")
    (p_lo, p_hi), (q_lo, q_hi) = cell
    if not (p_lo < p_hi and q_lo < q_hi):
        raise ValueError("cell coordinates must be ordered (low, high) in both dims")
    others = [k for k in range(g.grid.ndim) if k not in (p, q)]
    if others and at is None:
        raise ValueError("grid has more than two dims; pass the fixed coordinates via at=")
    if at is not None and len(at) != len(others):
        raise ValueError(f"at= must give coordinates for dims {others}")

    def node_at(pv: float, qv: float) -> int:
        coords = [0.0] * g.grid.ndim
        coords[p] = pv
        coords[q] = qv
        for k, v in zip(others, at or ()):
            coords[k] = v
        return g.grid.node_index(coords)

    i_ll = node_at(p_lo, q_lo)
    i_lh = node_at(p_lo, q_hi)
    i_hl = node_at(p_hi, q_lo)
    i_hh = node_at(p_hi, q_hi)
    donor = min(g.mass[i_lh], g.mass[i_hl])
    if donor < delta:
        raise ValueError(f"anti-diagonal nodes hold {donor}, cannot transfer {delta}")
    return _move_mass(g, ((i_ll, delta), (i_hh, delta), (i_lh, -delta), (i_hl, -delta)))
