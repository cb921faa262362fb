"""Reference oracle for ``mcsearch.simplex.solve_lp``: the dense kernel.

``solve_lp`` here is the solver as it was before the tableau went
column-major and each pivot updated only the columns where the pivot row is
nonzero.  Every pivot subtracts a full outer product from the row-major
tableau, and every pivot allocates its ratio-test buffer and clamps the whole
right-hand side.  The property tests require the package's solver to return
the same ``LpResult`` bit for bit: status, ``x.tobytes()``, ``fun`` and the
four pivot counts.
"""
from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from mcsearch.simplex import FEAS_TOL, OPT_TOL, PIVOT_TOL, LpResult, tableau_shape


def solve_lp(
    c: Sequence[float],
    a_ub: np.ndarray | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: Sequence[float] | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
) -> LpResult:
    """The dense two-phase simplex: minimize ``c @ x`` subject to ``a_ub @ x
    <= b_ub``, ``a_eq @ x == b_eq`` and per-variable bounds.

    ``bounds`` entries are (lo, hi) with None for unbounded; the default is
    (0, None) for every variable, matching the usual LP convention.

    Standard form: columns ``y >= 0`` for the variables in order (``x = lo
    + y``, ``x = hi - y`` for an upper-only bound, ``x = y+ - y-`` for a
    free one), a slack per non-equality row, then an artificial per equality
    or negative-rhs row; rows ``a_ub``, ``a_eq``, then ``y <= hi - lo`` per
    finite range.  ``iteration_limit`` after ``2000 + 50 * (rows + cols)`` pivots.
    A tableau past ``TABLEAU_ENTRY_GUARD`` raises ``ValueError`` before it
    is allocated.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    if a_ub.shape[0] != b_ub.size or a_eq.shape[0] != b_eq.size:
        raise ValueError("constraint matrix / rhs length mismatch")
    if bounds is None:
        bounds = [(0.0, None)] * n
    if len(bounds) != n:
        raise ValueError("need one bounds pair per variable")
    lo = np.array([-np.inf if v is None else v for v, _ in bounds], dtype=float)
    hi = np.array([np.inf if v is None else v for _, v in bounds], dtype=float)
    if np.any(hi < lo):
        j = int((hi < lo).argmax())
        raise ValueError(f"bounds for variable {j} are empty: ({lo[j]}, {hi[j]})")

    # --- variable map: x = offset, then x[var[q]] += sign[q] * y[q] ---------
    has_lo, has_hi = lo > -np.inf, hi < np.inf
    free = ~has_lo & ~has_hi
    var = np.repeat(np.arange(n), 1 + free)
    sign = np.where(has_lo[var], 1.0, -1.0)
    first = np.cumsum(1 + free) - 1 - free  # each variable's first column
    sign[first[free]] = 1.0
    offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    box = (has_lo & has_hi).nonzero()[0]
    ny = var.size

    # --- tableau: rows flipped so b >= 0; a row whose slack survived the
    # flip with +1 starts with it basic, the others with an artificial ------
    n_ub = a_ub.shape[0]
    m_a = n_ub + a_eq.shape[0]
    b = np.concatenate([b_ub - a_ub @ offset, b_eq - a_eq @ offset, (hi - lo)[box]])
    flip = b < 0
    m, width = tableau_shape(n_ub, m_a - n_ub, n, int(free.sum()), box.size, int(flip[:n_ub].sum()))
    eq = (np.arange(m) >= n_ub) & (np.arange(m) < m_a)
    slack_rows = (~eq).nonzero()[0]
    n_cols = ny + slack_rows.size  # structural and slack columns
    art_rows = (eq | flip).nonzero()[0]
    total_cols = width - 1
    T = np.zeros((m, width))
    T[:m_a, :ny] = np.vstack([a_ub, a_eq])[:, var] * sign
    T[m_a + np.arange(box.size), first[box]] = 1.0
    T[slack_rows, ny + np.arange(slack_rows.size)] = 1.0
    T[flip, :n_cols] *= -1.0
    T[:, -1] = np.where(flip, -b, b)
    T[art_rows, n_cols + np.arange(art_rows.size)] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = ny + np.arange(slack_rows.size)
    basis[art_rows] = n_cols + np.arange(art_rows.size)
    pivot_limit = 2000 + 50 * (m + total_cols)

    counts = dict(phase1_pivots=0, phase2_pivots=0, degenerate_pivots=0, bland_pivots=0)

    def run(cost: np.ndarray, n_enter: int, iters_left: int, phase: str) -> str:
        # Maintain the reduced-cost row explicitly.  Only the first n_enter
        # columns may enter (phase 2 blocks the trailing artificials).
        # Dantzig pricing until a run of degenerate pivots brings back a
        # basis it has already visited, then Bland's rule until the next
        # pivot that moves the objective.  Each pivot is counted under
        # ``phase`` in ``counts``.
        z = cost.copy()
        for i in range(m):
            if cost[basis[i]] != 0.0:
                z -= cost[basis[i]] * T[i, :-1]
        priced = z[:n_enter]
        bland = False
        seen: set[int] = set()  # crc32 digests of the bases of this degenerate run
        for _ in range(iters_left):
            if bland:
                negative = (priced < -OPT_TOL).nonzero()[0]
                if negative.size == 0:
                    return "optimal"
                enter = int(negative[0])
            else:
                enter = int(priced.argmin())
                if not priced[enter] < -OPT_TOL:
                    return "optimal"
            if not m:
                return "unbounded"  # no row is left to block the entering column
            col = T[:, enter]
            # clamp float drift: a basic value can sit at -1e-15 and must act
            # as 0, never as a negative ratio; rows that cannot block stay inf
            ratios = np.full(m, np.inf)
            np.divide(np.maximum(T[:, -1], 0.0), col, out=ratios, where=col > PIVOT_TOL)
            leave = int(ratios.argmin())
            best = ratios[leave]
            if best == np.inf:
                return "unbounded"
            tied = (ratios <= best + 1e-12).nonzero()[0]
            if tied.size > 1:
                leave = int(tied[basis[tied].argmin()])
            _pivot(T, z, leave, enter)
            basis[leave] = enter
            rhs = T[:, -1]
            rhs[(rhs < 0.0) & (rhs > -1e-9)] = 0.0
            counts[phase] += 1
            counts["bland_pivots"] += bland
            if best == 0.0:
                counts["degenerate_pivots"] += 1
                digest = zlib.crc32(basis.tobytes())
                if digest in seen:
                    bland = True
                seen.add(digest)
            else:  # the objective moved, so no earlier basis can come back
                seen.clear()
                bland = False
        return "iteration_limit"

    def result(status: str, x: np.ndarray | None = None, fun: float | None = None) -> LpResult:
        return LpResult(status, x, fun, **counts)

    # --- phase 1: the artificials are the trailing columns ------------------
    if art_rows.size:
        cost1 = np.zeros(total_cols)
        cost1[n_cols:] = 1.0
        status = run(cost1, total_cols, pivot_limit, "phase1_pivots")
        if status != "optimal":
            return result(status)
        art_rows = (basis >= n_cols).nonzero()[0]
        if T[art_rows, -1].sum() > 1e-8:
            return result("infeasible")
        # drive remaining zero-valued artificials out of the basis; a row
        # with no structural or slack entry left is redundant and dropped
        drop_rows = []
        for i in art_rows:
            piv = (np.abs(T[i, :n_cols]) > PIVOT_TOL).nonzero()[0]
            if piv.size:
                _pivot(T, np.zeros(total_cols), i, piv[0])
                basis[i] = piv[0]
            else:
                drop_rows.append(i)
        if drop_rows:
            T = np.delete(T, drop_rows, axis=0)
            basis = np.delete(basis, drop_rows)
            m = basis.size

    # --- phase 2 -------------------------------------------------------------
    cost2 = np.zeros(total_cols)
    cost2[:ny] = sign * c[var]
    status = run(cost2, n_cols, pivot_limit - counts["phase1_pivots"], "phase2_pivots")
    if status != "optimal":
        return result(status)

    y = np.zeros(total_cols)
    y[basis] = T[:, -1]
    x = offset.copy()
    np.add.at(x, var, sign * y[:ny])

    # certify the answer: a tableau that silently lost feasibility must not
    # masquerade as optimal
    if (
        np.any(a_ub @ x - b_ub > FEAS_TOL)
        or np.any(np.abs(a_eq @ x - b_eq) > FEAS_TOL)
        or np.any((x < lo - FEAS_TOL) | (x > hi + FEAS_TOL))
    ):
        return result("numerical")
    return result("optimal", x, float(c @ x))


def _pivot(T: np.ndarray, z: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    zf = z[col]
    if zf != 0.0:
        z -= zf * T[row, :-1]
