"""Small dense linear-program solver.

Two-phase primal simplex on the full tableau.  Each pivot is priced by
Dantzig's rule: the most negative reduced cost enters, the lowest column
index on ties.  The ratio test picks the smallest ratio, and among ratios
within 1e-12 of it the row with the smallest basic column.  Dantzig's rule
can cycle on degenerate programs (Beale's example does), so during a run of
degenerate pivots the solver records a crc32 digest of each basis it
visits.  When a recorded basis comes back it prices by Bland's rule (the
first negative reduced cost), which cannot cycle, until the next pivot that
strictly lowers the objective; that pivot clears the record and Dantzig
pricing resumes.  A pivot that lowers the objective cannot lie on a cycle,
so the solve terminates; a digest collision only starts Bland's rule early.
Meant for the modest cone programs this package generates (at most a few
thousand variables); it trades speed for determinism and transparent
failure modes.  Programs it cannot certify come back with a non-``optimal``
status instead of a guess.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Reduced-cost optimality tolerance.
OPT_TOL = 1e-9
#: Smallest pivot magnitude accepted during the ratio test; pivoting on
#: near-zero elements wrecks the tableau's conditioning.
PIVOT_TOL = 1e-9
#: Feasibility slack accepted in the final solution check.
FEAS_TOL = 1e-7


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve.

    status is one of ``optimal``, ``infeasible``, ``unbounded``,
    ``iteration_limit``, ``numerical`` (the tableau lost feasibility beyond
    repair).  ``x`` and ``fun`` are populated only when status == ``optimal``.

    The pivot counts are set whatever the status: pivots of phase 1 and of
    phase 2 (not counting the pivots that drive zero-valued artificials out
    of the basis), how many of them were degenerate (a step of length 0),
    and how many were priced by Bland's rule.  They are deterministic, for
    diagnostics only, and are never written to a report.
    """

    status: str
    x: np.ndarray | None
    fun: float | None
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    degenerate_pivots: int = 0
    bland_pivots: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def solve_lp(
    c: Sequence[float],
    a_ub: np.ndarray | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: Sequence[float] | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
    *,
    max_iter: int | None = None,
) -> LpResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
    and per-variable bounds.

    ``bounds`` entries are (lo, hi) with None for unbounded; the default is
    (0, None) for every variable, matching the usual LP convention.
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

    # --- shift/split variables to y >= 0 -----------------------------------
    # x_j = offset_j + sign_j * y_cols  (free variables contribute y+ - y-)
    cols: list[tuple[int, float]] = []   # (original var, sign) per y column
    offset = np.zeros(n)
    extra_ub_rows: list[tuple[int, float]] = []  # (y column, upper bound)
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and hi is not None and hi < lo:
            raise ValueError(f"bounds for variable {j} are empty: ({lo}, {hi})")
        if lo is not None:
            offset[j] = lo
            cols.append((j, 1.0))
            if hi is not None:
                extra_ub_rows.append((len(cols) - 1, hi - lo))
        elif hi is not None:
            offset[j] = hi
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))

    ny = len(cols)

    def to_y(mat: np.ndarray) -> np.ndarray:
        out = np.empty((mat.shape[0], ny))
        for q, (j, s) in enumerate(cols):
            out[:, q] = s * mat[:, j]
        return out

    rows_a = [to_y(a_ub), to_y(a_eq)]
    rhs = [b_ub - a_ub @ offset, b_eq - a_eq @ offset]
    is_eq = [np.zeros(a_ub.shape[0], bool), np.ones(a_eq.shape[0], bool)]
    if extra_ub_rows:
        box = np.zeros((len(extra_ub_rows), ny))
        box_rhs = np.empty(len(extra_ub_rows))
        for r, (q, ub) in enumerate(extra_ub_rows):
            box[r, q] = 1.0
            box_rhs[r] = ub
        rows_a.append(box)
        rhs.append(box_rhs)
        is_eq.append(np.zeros(len(extra_ub_rows), bool))

    A = np.vstack(rows_a)
    b = np.concatenate(rhs)
    eq_mask = np.concatenate(is_eq)
    m = A.shape[0]

    # --- standard form: slacks for <= rows, rows flipped so b >= 0 ----------
    n_slack = int((~eq_mask).sum())
    full = np.zeros((m, ny + n_slack))
    full[:, :ny] = A
    slack_col = ny
    slack_of_row = np.full(m, -1)
    for i in range(m):
        if not eq_mask[i]:
            full[i, slack_col] = 1.0
            slack_of_row[i] = slack_col
            slack_col += 1
    flip = b < 0
    full[flip] *= -1.0
    b = np.where(flip, -b, b)

    # rows whose slack survived the flip with +1 start basic; others get
    # an artificial variable
    need_art = [i for i in range(m) if eq_mask[i] or flip[i]]
    n_art = len(need_art)
    T = np.zeros((m, full.shape[1] + n_art + 1))
    T[:, : full.shape[1]] = full
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    art_cols = []
    for k, i in enumerate(need_art):
        col = full.shape[1] + k
        T[i, col] = 1.0
        basis[i] = col
        art_cols.append(col)
    for i in range(m):
        if slack_of_row[i] >= 0 and not flip[i]:
            basis[i] = slack_of_row[i]

    total_cols = T.shape[1] - 1
    if max_iter is None:
        max_iter = 2000 + 50 * (m + total_cols)

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

    # --- phase 1 -------------------------------------------------------------
    if n_art:
        cost1 = np.zeros(total_cols)
        cost1[art_cols] = 1.0
        status = run(cost1, total_cols, max_iter, "phase1_pivots")
        if status != "optimal":
            return result(status)
        art_set = set(art_cols)
        art_val = sum(T[i, -1] for i in range(m) if basis[i] in art_set)
        if art_val > 1e-8:
            return result("infeasible")
        # drive remaining zero-valued artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                piv = -1
                for j in range(total_cols):
                    if j not in art_set and abs(T[i, j]) > PIVOT_TOL:
                        piv = j
                        break
                if piv >= 0:
                    dummy = np.zeros(total_cols)
                    _pivot(T, dummy, i, piv)
                    basis[i] = piv
                else:
                    drop_rows.append(i)  # redundant row
        if drop_rows:
            keep = np.array([i for i in range(m) if i not in set(drop_rows)], dtype=int)
            T = T[keep]
            basis = basis[keep]
            m = len(keep)

    # --- phase 2 -------------------------------------------------------------
    cost2 = np.zeros(total_cols)
    for q, (j, s) in enumerate(cols):
        cost2[q] = s * c[j]
    status = run(cost2, full.shape[1], max_iter - counts["phase1_pivots"], "phase2_pivots")
    if status != "optimal":
        return result(status)

    y = np.zeros(total_cols)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    x = offset.copy()
    for q, (j, s) in enumerate(cols):
        x[j] += s * y[q]

    # certify the answer: a tableau that silently lost feasibility must not
    # masquerade as optimal
    if a_ub.size and np.any(a_ub @ x - b_ub > FEAS_TOL):
        return result("numerical")
    if a_eq.size and np.any(np.abs(a_eq @ x - b_eq) > FEAS_TOL):
        return result("numerical")
    for j, (lo, hi) in enumerate(bounds):
        if (lo is not None and x[j] < lo - FEAS_TOL) or (hi is not None and x[j] > hi + FEAS_TOL):
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
