"""Executable comparative-statics verification.

Each theorem id pairs a dominance premise with a utility-membership premise
on one function class; when both premises hold, the reservation utility
under F must be at least the one under G.  Suites generate premise-true
cases constructively (upward shifts, mean-preserving spreads, concordance
transfers) so vacuous cases are rare by design, and closure suites check
that the class structure survives truncation, affine maps and clamping.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dominance import (
    DominanceResult,
    concordance_transfer,
    dominates,
    fosd_shift,
    mean_preserving_spread,
)
from .grids import Grid, Pmf, SearchParams, check_count, derive_rng, make_grid, make_pmf
from .solver import reservation_utility
from .utility import (
    _FAMILIES,
    FunctionClass,
    TabulatedUtility,
    Witness,
    affine_transform,
    check_cone,
    clamp_below,
    is_member,
    random_member,
    tabulate,
)

#: The theorem ids, each with the function class used for both premises.
THEOREM_CLASS: dict[str, FunctionClass] = {
    "T2a": FunctionClass.INCREASING,
    "T2b": FunctionClass.CONVEX,
    "T2c": FunctionClass.COMPONENTWISE_CONVEX,
    "T3": FunctionClass.INCREASING_SUPERMODULAR,
    "T4": FunctionClass.INCREASING_ULTRAMODULAR,
}

#: The grid of a generated suite case unless one is given.
SUITE_GRID_SHAPE: tuple[int, ...] = (3, 3)

#: Closure operators by name: each maps a class member and its sample's
#: generator to the image that is tested again.
_OPERATORS: dict[str, Callable[[TabulatedUtility, np.random.Generator], TabulatedUtility]] = {
    "truncate": lambda u, rng: clamp_below(u, 0.0),
    "affine": lambda u, rng: affine_transform(
        u, float(rng.uniform(0.25, 3.0)), float(rng.uniform(0.0, 2.0))
    ),
    "clamp": lambda u, rng: clamp_below(u, float(rng.uniform(0.0, 3.0))),
}

#: Class/operator combinations that are provably NOT closed; their closure
#: suites assert the known counterexample instead of full preservation.
NOT_CLOSED: frozenset[tuple[FunctionClass, str]] = frozenset(
    (fc, op)
    for fc in (FunctionClass.SUPERMODULAR, FunctionClass.ULTRAMODULAR)
    for op in ("truncate", "clamp")
)


def _theorem_class(theorem_id: str) -> FunctionClass:
    if theorem_id not in THEOREM_CLASS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; choose one of {sorted(THEOREM_CLASS)}")
    return THEOREM_CLASS[theorem_id]


def truncation_counterexample() -> TabulatedUtility:
    """The smallest function showing supermodularity is not closed under
    truncation: on {1,2}^2, values 5, -5, 14, 5 are supermodular (margin 1)
    but their pointwise max with 0 violates the cell constraint by 4."""
    return tabulate(make_grid([[1.0, 2.0], [1.0, 2.0]]), [5.0, -5.0, 14.0, 5.0])


@dataclass(frozen=True)
class TheoremCase:
    theorem_id: str
    f: Pmf
    g: Pmf
    utility: TabulatedUtility
    params: SearchParams

    def __post_init__(self) -> None:
        _theorem_class(self.theorem_id)

    @property
    def function_class(self) -> FunctionClass:
        return THEOREM_CLASS[self.theorem_id]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theorem check.

    ``conclusion_holds`` is asserted only when both premises hold; a case
    with a failed or inconclusive premise is ``vacuous`` and carries the
    reason.  Vacuous cases are never counted as passes.
    """

    theorem_id: str
    premise_dominance: DominanceResult
    premise_membership: bool
    u_f: float | None
    u_g: float | None
    conclusion_holds: bool | None
    vacuous: bool
    reason: str | None = None

    @property
    def status(self) -> str:
        if self.vacuous:
            return "vacuous"
        return "pass" if self.conclusion_holds else "fail"


def verify_theorem(case: TheoremCase) -> VerificationReport:
    """Check both premises at ``MEMBERSHIP_TOL``, then compare reservation
    utilities.

    The conclusion is accepted when u_F >= u_G - 10*tol, the looser factor
    absorbing the error of two independent solves.
    """
    if case.f.grid != case.g.grid:
        raise ValueError("f and g must live on one grid; embed them via common_grid first")
    if case.utility.grid != case.f.grid:
        raise ValueError("utility must be tabulated on the pmfs' grid")
    fc = case.function_class
    dom = dominates(case.f, case.g, fc)
    mem = is_member(case.utility, fc)
    if dom.verdict != "dominates" or not mem.member:
        reasons = []
        if dom.verdict == "fails":
            reasons.append("dominance premise fails")
        elif dom.verdict == "inconclusive":
            reasons.append(f"dominance premise inconclusive ({dom.reason})")
        if mem.reason:
            reasons.append(f"membership premise inconclusive ({mem.reason})")
        elif not mem.member:
            reasons.append(f"membership premise fails ({mem.witness})")
        return VerificationReport(
            case.theorem_id, dom, mem.member, None, None, None, True, "; ".join(reasons)
        )
    sol_f = reservation_utility(case.f, case.utility, case.params)
    sol_g = reservation_utility(case.g, case.utility, case.params)
    holds = sol_f.reservation_utility >= sol_g.reservation_utility - 10.0 * case.params.tol
    return VerificationReport(
        case.theorem_id,
        dom,
        mem.member,
        sol_f.reservation_utility,
        sol_g.reservation_utility,
        holds,
        False,
    )


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def _random_grid(rng: np.random.Generator, shape: tuple[int, ...]) -> Grid:
    axes = []
    for length in shape:
        start = float(rng.uniform(-1.0, 1.0))
        steps = rng.uniform(0.4, 1.4, size=length - 1)
        axes.append(start + np.concatenate([[0.0], np.cumsum(steps)]))
    return make_grid(axes)


def _apply_transfer(function_class: FunctionClass, g: Pmf, rng: np.random.Generator) -> Pmf:
    """F from G by a move that makes F dominate G on the class: a
    concordance transfer where the class has supermodular rows, else an
    upward shift where it is increasing, else a mean-preserving spread."""
    grid = g.grid
    shape = grid.shape
    families = _FAMILIES[function_class]
    if "supermodular" in families:
        if grid.ndim < 2:
            raise ValueError("concordance transfers need at least two dimensions")
        p, q = sorted(int(x) for x in rng.choice(grid.ndim, size=2, replace=False))
        for k in (p, q):
            if shape[k] < 2:
                raise ValueError(f"concordance transfers need at least 2 nodes on axis {k}")
        p_pair = sorted(int(x) for x in rng.choice(shape[p], size=2, replace=False))
        q_pair = sorted(int(x) for x in rng.choice(shape[q], size=2, replace=False))
        others = [k for k in range(grid.ndim) if k not in (p, q)]
        multi = [0] * grid.ndim
        for k in others:
            multi[k] = int(rng.integers(shape[k]))
        at = tuple(grid.axes[k][multi[k]] for k in others)
        cell = (
            (grid.axes[p][p_pair[0]], grid.axes[p][p_pair[1]]),
            (grid.axes[q][q_pair[0]], grid.axes[q][q_pair[1]]),
        )

        def mass_at(i: int, j: int) -> float:
            multi[p], multi[q] = i, j
            return g.mass[grid.flat_index(multi)]

        donor = min(mass_at(p_pair[0], q_pair[1]), mass_at(p_pair[1], q_pair[0]))
        delta = donor * float(rng.uniform(0.2, 0.9))
        return concordance_transfer(g, (p, q), cell, delta, at=at or None)
    if "increasing" in families:
        if max(shape) < 2:
            raise ValueError("upward shifts need an axis with at least 2 nodes")
        # upward shift between distinct comparable nodes
        while True:
            multi_from = tuple(int(rng.integers(s)) for s in shape)
            if any(m + 1 < s for m, s in zip(multi_from, shape)):
                break
        multi_to = tuple(int(rng.integers(m, s)) for m, s in zip(multi_from, shape))
        if multi_to == multi_from:
            k = next(k for k, (m, s) in enumerate(zip(multi_from, shape)) if m + 1 < s)
            multi_to = multi_to[:k] + (multi_from[k] + 1,) + multi_to[k + 1 :]
        i = grid.flat_index(multi_from)
        eps = g.mass[i] * float(rng.uniform(0.2, 0.9))
        return fosd_shift(g, grid.node(i), grid.node(grid.flat_index(multi_to)), eps)
    axes_ok = [k for k, s in enumerate(shape) if s >= 3]
    if not axes_ok:
        raise ValueError("mean-preserving spreads need an axis with at least 3 nodes")
    axis = int(axes_ok[rng.integers(len(axes_ok))])
    multi = [int(rng.integers(s)) for s in shape]
    multi[axis] = int(rng.integers(1, shape[axis] - 1))
    i = grid.flat_index(multi)
    eps = g.mass[i] * float(rng.uniform(0.2, 0.9))
    return mean_preserving_spread(g, axis, grid.node(i), eps)


def generate_case(
    theorem_id: str,
    case_index: int,
    seed: int,
    grid_shape: tuple[int, ...] = SUITE_GRID_SHAPE,
) -> TheoremCase:
    """Deterministically generate one premise-true case from (seed, index).

    G is a Dirichlet-random pmf, F applies the theorem's constructive
    transfer, and the utility is a random member of the theorem's class by
    construction, which ``verify_theorem`` certifies; beta and gamma are
    drawn from moderate ranges.  A shape whose class cone ``check_cone``
    refuses raises before the grid is drawn.
    """
    function_class = _theorem_class(theorem_id)
    check_cone(grid_shape, function_class)
    rng = derive_rng(seed, case_index)
    grid = _random_grid(rng, grid_shape)
    g = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    f = _apply_transfer(function_class, g, rng)
    utility = random_member(function_class, grid, rng)
    params = SearchParams(
        beta=float(rng.uniform(0.3, 0.7)),
        gamma=float(rng.uniform(0.5, 2.0)),
    )
    return TheoremCase(theorem_id, f, g, utility, params)


@dataclass(frozen=True)
class SuiteConfig:
    """``n_cases`` generated cases of one theorem from one seed.  ``jobs`` is
    validated but inert (suites run in one thread); it stays while callers
    set it and the schema-1 suite header prints ``jobs = 1``."""

    theorem_id: str
    n_cases: int
    seed: int
    grid_shape: tuple[int, ...] = SUITE_GRID_SHAPE
    jobs: int = 1

    def __post_init__(self) -> None:
        _theorem_class(self.theorem_id)
        check_count(self.n_cases, "n_cases", least=0)
        check_count(self.seed, "seed", least=0)
        check_count(self.jobs, "jobs")
        if not self.grid_shape:
            raise ValueError("grid_shape needs at least one axis")
        for extent in self.grid_shape:
            check_count(extent, "grid_shape")


@dataclass(frozen=True)
class CaseRecord:
    case_id: int
    case: TheoremCase
    report: VerificationReport


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    records: tuple[CaseRecord, ...]

    @property
    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "vacuous": 0}
        for rec in self.records:
            out[rec.report.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.summary["fail"] == 0


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Generate and verify ``n_cases`` cases in case order, in one thread:
    row ``i`` is ``replay_case(config, i)``."""
    return SuiteReport(config, tuple(replay_case(config, i) for i in range(config.n_cases)))


def replay_case(config: SuiteConfig, case_id: int) -> CaseRecord:
    """Generate and verify one suite case from its own ``derive_rng(seed,
    case_id)`` stream: the only code that builds a suite row."""
    if not (0 <= case_id < config.n_cases):
        raise ValueError(f"case id {case_id} outside suite of {config.n_cases}")
    case = generate_case(config.theorem_id, case_id, config.seed, config.grid_shape)
    return CaseRecord(case_id, case, verify_theorem(case))


# ---------------------------------------------------------------------------
# closure suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    """Preservation of class membership under one operator.

    For class/operator pairs known not to be closed, ``passed`` asserts that
    the canonical counterexample is caught (its witness is recorded);
    everywhere else it demands zero violations among the random members.
    """

    function_class: FunctionClass
    operator: str
    samples: int
    preserved: int
    violations: tuple[tuple[int, Witness], ...]
    counterexample_witness: Witness | None

    @property
    def expects_violation(self) -> bool:
        return (self.function_class, self.operator) in NOT_CLOSED

    @property
    def passed(self) -> bool:
        if self.expects_violation:
            return self.counterexample_witness is not None
        return not self.violations


def closure_check(
    function_class: FunctionClass,
    operator: str,
    samples: int,
    seed: int,
) -> ClosureReport:
    """Apply an operator to random class members and re-test.

    Each draw is certified by ``is_member`` before the operator is applied;
    one that fails raises ``RuntimeError`` naming its sample.  Operators:
    ``truncate`` (max with 0), ``affine`` (random m > 0, n >= 0), ``clamp``
    (max with a random nonnegative level).
    """
    if operator not in _OPERATORS:
        raise ValueError(f"unknown operator {operator!r}; choose one of {', '.join(_OPERATORS)}")
    samples = check_count(samples, "samples")
    needs_pairs = "supermodular" in _FAMILIES[function_class]
    preserved = 0
    violations: list[tuple[int, Witness]] = []
    for i in range(samples):
        rng = derive_rng(seed, i)
        ndim = int(rng.integers(2, 4)) if needs_pairs else int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(ndim))
        grid = _random_grid(rng, shape)
        member = random_member(function_class, grid, rng)
        if not is_member(member, function_class):
            raise RuntimeError(f"sample {i}: the drawn {function_class.value} member failed is_member")
        result = is_member(_OPERATORS[operator](member, rng), function_class)
        if result.member:
            preserved += 1
        else:
            violations.append((i, result.witness))

    counterexample_witness = None
    if (function_class, operator) in NOT_CLOSED:
        bad = truncation_counterexample()
        if not is_member(bad, function_class).member:  # pragma: no cover
            raise AssertionError("counterexample lost its class membership")
        # both operators in NOT_CLOSED map it to max(bad, 0)
        counterexample_witness = is_member(clamp_below(bad, 0.0), function_class).witness

    return ClosureReport(
        function_class,
        operator,
        samples,
        preserved,
        tuple(violations),
        counterexample_witness,
    )
