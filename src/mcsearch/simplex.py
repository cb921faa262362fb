"""Small linear-program solver on a full, column-major tableau.

Two-phase primal simplex on the full tableau.  Each pivot is priced by
Dantzig's rule: the most negative reduced cost enters, the lowest column
index on ties.  The ratio test divides only the rows whose entry in the
entering column passes ``PIVOT_TOL``, picks the smallest ratio, and among
ratios within 1e-12 of it the row with the smallest basic column.
Dantzig's rule can cycle on degenerate programs (Beale's example does), so
during a run of degenerate pivots the solver records a crc32 digest of each
basis it visits.  When a recorded basis comes back it prices by Bland's
rule (the first negative reduced cost), which cannot cycle, until the next
pivot that strictly lowers the objective; that pivot clears the record and
Dantzig pricing resumes.  A pivot that lowers the objective cannot lie on a
cycle, so the solve terminates; a digest collision only starts Bland's rule
early.  Meant for the modest cone programs this package generates; it puts
determinism and transparent failure modes first.  Programs it cannot
certify come back with a non-``optimal`` status instead of a guess.

The standard form comes from one variable map: a variable is shifted by its
lower bound, reflected about an upper-only bound, or if free split into y+
then y-; finite ranges become extra rows; slack columns follow, then
trailing artificials.  A solve stops after the fixed cap of
``2000 + 50 * (rows + columns)`` pivots.

The tableau stores every entry: ``tableau_shape`` gives its rows and
columns from the program's counts and ``solve_lp`` allocates exactly that,
once; a row phase 1 drops is removed in place.  Every block the cap
``TABLEAU_ENTRY_GUARD`` bounds is sized from counts and passed to
``check_entries``, which raises ``ValueError``, before it is allocated.

The tableau is column-major, so each of its columns is one contiguous row
of ``T.T``.  A pivot scales the pivot row, then updates only the columns
where that row is nonzero, a rank-one update on the row's support.  The
pivot row of a cone LP is sparse: on average it covers 12% of the 127
columns of the 3x3 convex cone LP and 9.5% of the 337 of the 4x4 one,
though long runs of pivots fill rows in.  On a skipped column the full
update would subtract a zero, which leaves every value as it is and can
change only a zero's sign.  No pivot choice or ratio reads that sign, and
``x`` does not either: each basic value is added to an offset of +0.0 or
a nonzero bound (a bound of -0.0 is read as +0.0).  So a solve takes the
pivots, and returns the bits, of the full update.  Float drift in the
right-hand side is clamped after each pivot that moved it, and after each
phase's first pivot, which also clamps what phase 1's drive-out pivots
left.

Phase 1 minimizes a sum of artificials, bounded below by 0, so a phase-1
ratio test that finds no blocking row is float drift and ends
``numerical``.  In phase 2 the entering column spans a ray; ``unbounded``
is reported only when that ray, mapped back to ``x``, checks out against
the program itself, and ``numerical`` otherwise.
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
#: Cap on the entries of the tableau: 2**25 float64s, 256 MiB.
TABLEAU_ENTRY_GUARD = 2**25


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve.

    status is one of ``optimal``, ``infeasible``, ``unbounded``,
    ``iteration_limit``, ``numerical`` (the tableau lost feasibility beyond
    repair, or claimed a ray that does not check out).  ``unbounded`` is
    certified by its ray ``d``, scaled to max-norm 1: ``c @ d < -OPT_TOL``,
    and ``d`` keeps every row and bound within ``FEAS_TOL``.  ``x`` and
    ``fun`` are populated only when status == ``optimal``.

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


def check_entries(what: str, rows: int, cols: int) -> None:
    """Raise ``ValueError`` when a block of ``rows`` x ``cols`` entries,
    counted before it is allocated, would pass ``TABLEAU_ENTRY_GUARD``."""
    if rows * cols > TABLEAU_ENTRY_GUARD:
        raise ValueError(
            f"{what} would be {rows} x {cols} = {rows * cols} entries "
            f"(guard {TABLEAU_ENTRY_GUARD}); reduce the grid"
        )


def tableau_shape(
    n_ub: int, n_eq: int, n_vars: int, n_free: int = 0, n_box: int = 0, flipped: int = 0
) -> tuple[int, int]:
    """Rows and columns of the tableau ``solve_lp`` allocates for ``n_ub``
    inequality rows, ``n_eq`` equality rows and ``n_vars`` variables, of
    which ``n_free`` are free and ``n_box`` have a finite range.

    Rows: the constraints, then one per finite range.  Columns: one per
    variable and a second per free one, a slack per inequality and range
    row, an artificial per equality row and per flipped row (the
    ``flipped`` inequality rows whose right-hand side, shifted by the
    variable offsets, is negative), then the right-hand side.
    ``check_entries`` refuses rows x columns past the cap.
    """
    rows = n_ub + n_eq + n_box
    cols = n_vars + n_free + n_ub + n_box + n_eq + flipped + 1
    check_entries("LP tableau", rows, cols)
    return rows, cols


def solve_lp(
    c: Sequence[float],
    a_ub: np.ndarray | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: Sequence[float] | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
) -> LpResult:
    """Minimize ``c @ x`` subject to ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``
    and per-variable bounds.

    ``bounds`` entries are (lo, hi) with None (or an infinity) for
    unbounded; the default is (0, None) for every variable, matching the
    usual LP convention.  A 1-D ``a_ub`` or ``a_eq`` is one row.  A 2-D
    one with other than ``len(c)`` columns, a non-finite entry of ``c``,
    ``a_ub``, ``b_ub``, ``a_eq`` or ``b_eq``, a NaN bound, or a pair that no
    finite x meets (``hi < lo``, ``lo = +inf`` or ``hi = -inf``) raises
    ``ValueError``.

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
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    for name, a in (("a_ub", a_ub), ("a_eq", a_eq)):
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"{name} must have len(c) = {n} columns, got shape {a.shape}")
    if a_ub.shape[0] != b_ub.size or a_eq.shape[0] != b_eq.size:
        raise ValueError("constraint matrix / rhs length mismatch")
    for name, data in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq)):
        if not np.isfinite(data).all():
            raise ValueError(f"{name} must be finite")
    if bounds is None:
        lo, hi = np.zeros(n), np.full(n, np.inf)
    elif len(bounds) != n:
        raise ValueError("need one bounds pair per variable")
    else:
        lo = np.array([-np.inf if v is None else v for v, _ in bounds], dtype=float)
        hi = np.array([np.inf if v is None else v for _, v in bounds], dtype=float)
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds must not be NaN")
        empty = (hi < lo) | (lo == np.inf) | (hi == -np.inf)
        if empty.any():
            j = int(empty.argmax())
            raise ValueError(f"bounds for variable {j} are empty: ({lo[j]}, {hi[j]})")

    # --- variable map: x = offset, then x[var[q]] += sign[q] * y[q] ---------
    has_lo, has_hi = lo > -np.inf, hi < np.inf
    free = ~has_lo & ~has_hi
    var = np.repeat(np.arange(n), 1 + free)
    sign = np.where(has_lo[var], 1.0, -1.0)
    first = np.cumsum(1 + free) - 1 - free  # each variable's first column
    sign[first[free]] = 1.0
    # + 0.0 reads a bound of -0.0 as +0.0, so no zero in x carries a sign
    offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0)) + 0.0
    box = (has_lo & has_hi).nonzero()[0]
    ny = var.size

    # --- tableau: rows flipped so b >= 0; a row whose slack survived the
    # flip with +1 starts with it basic, the others with an artificial ------
    n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
    m_a = n_ub + n_eq
    b = np.concatenate([b_ub - a_ub @ offset, b_eq - a_eq @ offset, (hi - lo)[box]])
    flip = b < 0
    m, width = tableau_shape(n_ub, n_eq, n, np.count_nonzero(free), box.size, np.count_nonzero(flip[:n_ub]))
    slack_rows = np.arange(m - n_eq)  # every row but the equalities
    slack_rows[n_ub:] += n_eq
    slack_cols = ny + np.arange(slack_rows.size)
    n_cols = ny + slack_rows.size  # structural and slack columns
    art = flip.copy()
    art[n_ub:m_a] = True
    art_rows = art.nonzero()[0]
    art_cols = n_cols + np.arange(art_rows.size)
    total_cols = width - 1
    # column-major: each tableau column is contiguous, a row of T.T
    T = np.zeros((m, width), order="F")
    T[:m_a, :ny] = np.vstack([a_ub, a_eq])[:, var] * sign
    T[m_a + np.arange(box.size), first[box]] = 1.0
    T[slack_rows, slack_cols] = 1.0
    T[flip, :n_cols] *= -1.0
    T[:, -1] = np.where(flip, -b, b)
    T[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    pivot_limit = 2000 + 50 * (m + total_cols)

    counts = dict(phase1_pivots=0, phase2_pivots=0, degenerate_pivots=0, bland_pivots=0)

    def run(cost: np.ndarray, n_enter: int, iters_left: int, phase: str) -> tuple[str, int]:
        # Maintain the reduced-cost row explicitly, one entry per tableau
        # column (the last one is never priced).  Only the first n_enter
        # columns may enter (phase 2 blocks the trailing artificials).
        # Dantzig pricing until a run of degenerate pivots brings back a
        # basis it has already visited, then Bland's rule until the next
        # pivot that moves the objective.  Each pivot is counted under
        # ``phase`` in ``counts``.  Returns the status and, when it is
        # ``unbounded``, the entering column no row blocks (else -1).
        z = cost.copy()
        basic_cost = cost[basis]
        for i in basic_cost.nonzero()[0]:
            z -= basic_cost[i] * T[i]
        priced = z[:n_enter]
        Tt = T.T  # row j is tableau column j, contiguous
        rhs = Tt[-1]
        drift = True  # the pivots that drove out phase 1's artificials clamped nothing
        bland = False
        seen: set[int] = set()  # crc32 digests of the bases of this degenerate run
        for _ in range(iters_left):
            if bland:
                negative = (priced < -OPT_TOL).nonzero()[0]
                if negative.size == 0:
                    return "optimal", -1
                enter = int(negative[0])
            else:
                enter = int(priced.argmin())
                if not priced[enter] < -OPT_TOL:
                    return "optimal", -1
            col = Tt[enter]
            rows = (col > PIVOT_TOL).nonzero()[0]  # the rows that can block
            if not rows.size:
                return "unbounded", enter
            # rhs clamped at 0, so a basic value at -1e-15 acts as 0, never
            # as a negative ratio
            ratios = np.maximum(rhs[rows], 0.0) / col[rows]
            k = int(ratios.argmin())
            best = ratios[k]
            if best == np.inf:
                return "unbounded", enter
            tied = rows[ratios <= best + 1e-12]
            leave = int(tied[basis[tied].argmin()]) if tied.size > 1 else int(rows[k])
            # rhs moves off the pivot row only if the pivot row's entry is
            # nonzero; otherwise that entry alone becomes a signed 0
            moved = rhs[leave] != 0.0
            _pivot(T, z, leave, enter)
            basis[leave] = enter
            if moved or drift:  # clamp float drift
                rhs[(rhs < 0.0) & (rhs > -1e-9)] = 0.0
                drift = False
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
        return "iteration_limit", -1

    def result(status: str, x: np.ndarray | None = None, fun: float | None = None) -> LpResult:
        return LpResult(status, x, fun, **counts)

    # --- phase 1: the artificials are the trailing columns ------------------
    if art_rows.size:
        cost1 = np.zeros(width)
        cost1[n_cols:-1] = 1.0
        status, _ = run(cost1, total_cols, pivot_limit, "phase1_pivots")
        if status != "optimal":
            # a sum of nonnegative artificials has no ray of descent
            return result("numerical" if status == "unbounded" else status)
        art_rows = (basis >= n_cols).nonzero()[0]
        if T[art_rows, -1].sum() > 1e-8:
            return result("infeasible")
        # drive remaining zero-valued artificials out of the basis; a row
        # with no structural or slack entry left is redundant and dropped
        drop_rows = []
        for i in art_rows:
            piv = (np.abs(T[i, :n_cols]) > PIVOT_TOL).nonzero()[0]
            if piv.size:
                _pivot(T, np.zeros(width), i, piv[0])
                basis[i] = piv[0]
            else:
                drop_rows.append(i)
        if drop_rows:
            # move the kept rows up in place; a row is read before any
            # later row is written over it
            kept = np.delete(np.arange(m), drop_rows)
            for dst in range(drop_rows[0], kept.size):
                T[dst] = T[kept[dst]]
            T = T[: kept.size]
            basis = basis[kept]
            m = basis.size

    # --- phase 2 -------------------------------------------------------------
    cost2 = np.zeros(width)
    cost2[:ny] = sign * c[var]
    status, enter = run(cost2, n_cols, pivot_limit - counts["phase1_pivots"], "phase2_pivots")
    if status == "unbounded":
        # the ray: y_enter = 1, each basic y falls by its entry in the
        # entering column, mapped to x and scaled to max-norm 1
        dy = np.zeros(total_cols)
        dy[enter] = 1.0
        dy[basis] = -T[:, enter]
        d = np.zeros(n)
        np.add.at(d, var, sign * dy[:ny])
        scale = np.abs(d).max(initial=0.0)
        d /= scale if scale > 0.0 else 1.0
        if not (
            c @ d < -OPT_TOL
            and (a_ub @ d <= FEAS_TOL).all()
            and (np.abs(a_eq @ d) <= FEAS_TOL).all()
            and (d[has_lo] >= -FEAS_TOL).all()
            and (d[has_hi] <= FEAS_TOL).all()
        ):
            status = "numerical"
    if status != "optimal":
        return result(status)

    y = np.zeros(total_cols)
    y[basis] = T[:, -1]
    x = offset.copy()
    np.add.at(x, var, sign * y[:ny])

    # certify the answer: a tableau that silently lost feasibility must not
    # masquerade as optimal
    if (
        (a_ub @ x - b_ub > FEAS_TOL).any()
        or (np.abs(a_eq @ x - b_eq) > FEAS_TOL).any()
        or ((x < lo - FEAS_TOL) | (x > hi + FEAS_TOL)).any()
    ):
        return result("numerical")
    return result("optimal", x, float(c @ x))


def _pivot(T: np.ndarray, z: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``T[row, col]``: scale the row, then eliminate the column
    from every other row and from ``z``.  Only the columns where the scaled
    row is nonzero change; elsewhere the dense update would subtract a zero,
    which can flip only a zero's sign."""
    Tt = T.T
    pr = Tt[:, row]
    pr /= pr[col]
    cols = pr.nonzero()[0]
    prc = pr[cols]
    factor = Tt[col].copy()
    factor[row] = 0.0
    Tt[cols] -= np.multiply.outer(prc, factor)
    zf = z[col]
    if zf != 0.0:
        z[cols] -= zf * prc
