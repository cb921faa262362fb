"""The three benchmark workloads as seeded streams of operations.

Every input comes from ``generate_case`` or ``derive_rng`` with the run's
seed, except the fixed defect panels, which reproduce known defects at a
constant rate (see README.md).  Each operation calls the package's public
API through a module attribute, so the tracer in ``spans.py`` can wrap it,
and carries a judge that checks the answer against ``oracles.py`` and
names the outcome: ``ok`` or the reason the operation failed.  A wrong
answer raises ``OracleMismatch``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from mcsearch import dominance, solver, statics
from mcsearch.grids import SearchParams, derive_rng, make_grid, make_pmf
from mcsearch.solver import simulate_search as _simulate_untraced
from mcsearch.utility import FunctionClass, tabulate, tabulate_family
from mcsearch.utility import is_member as _is_member_untraced

from oracles import (
    OracleMismatch,
    check_close,
    convex_gap_highs,
    reservation_root,
    search_value,
)

#: Seed of the fixed defect panels; seed 7 is where the 4x4 T2b cases were
#: first seen to stop at the simplex iteration limit.
PANEL_SEED = 7
#: Key spaces for ``derive_rng(seed, key, ...)``, kept apart so that no two
#: kinds of input share a random stream.
PAIR_KEY, SOLVE_KEY, SIM_KEY = 1, 2, 3
EPISODES = 100_000
#: A premise violation smaller than this is floating-point noise in the
#: program's LPs (the membership tolerance is 1e-9): the operation failed to
#: certify its answer, but the answer is not counted as wrong.
NUMERICAL_SLACK = 1e-6


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    judge: Callable[[Any], str]


def _shape_label(shape: tuple[int, ...]) -> str:
    return "x".join(str(s) for s in shape)


def _lp_status(reason: str | None) -> str:
    prefix = "LP status: "
    if reason and reason.startswith(prefix):
        return reason[len(prefix):]
    return "other"


def _random_axes(rng: np.random.Generator, shape: tuple[int, ...]) -> list[np.ndarray]:
    return [
        rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 1.4, n - 1))])
        for n in shape
    ]


# ---------------------------------------------------------------------------
# theorem cases (suites, convex)
# ---------------------------------------------------------------------------


def _generate_and_verify(theorem: str, index: int, seed: int, shape: tuple[int, ...]):
    case = statics.generate_case(theorem, index, seed, shape)
    return case, statics.verify_theorem(case)


def _verify(case):
    return case, statics.verify_theorem(case)


def judge_theorem(result) -> str:
    """Generated cases are premise-true by construction: a ``fails``
    premise, a non-member utility or a failed conclusion is a wrong answer,
    unless the premise misses by less than ``NUMERICAL_SLACK``."""
    case, rep = result
    dom = rep.premise_dominance
    if rep.status == "fail":
        raise OracleMismatch(
            f"{rep.theorem_id} premise-true case failed: u_F {rep.u_f!r} < u_G {rep.u_g!r}"
        )
    if dom.verdict == "fails":
        if dom.lp_optimum < -NUMERICAL_SLACK:
            raise OracleMismatch(
                f"{rep.theorem_id} dominating pair judged fails at {dom.lp_optimum!r}"
            )
        return "vacuous:tolerance"
    if not rep.premise_membership:
        margin = _is_member_untraced(case.utility, case.function_class).witness.margin
        if not np.isfinite(margin):
            return "vacuous:membership_lp"
        if margin < -NUMERICAL_SLACK:
            raise OracleMismatch(f"{rep.theorem_id} class member judged outside by {margin!r}")
        return "vacuous:tolerance"
    if rep.vacuous:
        return f"vacuous:{_lp_status(dom.reason)}"
    for pmf, got in ((case.f, rep.u_f), (case.g, rep.u_g)):
        want = reservation_root(
            pmf.mass_array, case.utility.values_array, case.params.beta, case.params.gamma
        )
        check_close(f"{rep.theorem_id} u_F", got, want, 10.0 * case.params.tol)
    return "ok"


# ---------------------------------------------------------------------------
# convex dominance pairs
# ---------------------------------------------------------------------------


def random_pair(rng: np.random.Generator, shape: tuple[int, ...]):
    grid = make_grid(_random_axes(rng, shape))
    f = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    g = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    return f, g


class PairJudge:
    """Judges convex dominance verdicts; the HiGHS cross-check is deferred
    to ``finish`` so scipy stays out of the timed loop and its memory."""

    def __init__(self) -> None:
        self.pending: list[tuple[np.ndarray, np.ndarray, str, float]] = []

    def __call__(self, result) -> str:
        f, g, res = result
        if res.verdict == "inconclusive":
            return f"inconclusive:{_lp_status(res.reason)}"
        gap = f.mass_array - g.mass_array
        if res.verdict == "fails":
            recomputed = float(np.dot(gap, res.witness.values_array))
            if not recomputed < -1e-9:
                raise OracleMismatch(f"convex witness gap {recomputed!r} is not negative")
        self.pending.append((np.array(f.grid.nodes), gap, res.verdict, float(res.lp_optimum)))
        return "ok"

    def finish(self) -> int:
        for nodes, gap, verdict, optimum in self.pending:
            ref = convex_gap_highs(nodes, gap)
            if verdict == "dominates" and ref < -1e-6:
                raise OracleMismatch(f"convex pair judged dominates, HiGHS minimum {ref!r}")
            if verdict == "fails" and ref > optimum + 1e-6:
                raise OracleMismatch(
                    f"convex pair judged fails at {optimum!r}, HiGHS minimum {ref!r}"
                )
        checked = len(self.pending)
        self.pending.clear()
        return checked


def _dominates_convex(f, g):
    return f, g, dominance.dominates(f, g, FunctionClass.CONVEX)


# ---------------------------------------------------------------------------
# reservation utility and Monte Carlo (search)
# ---------------------------------------------------------------------------


def search_input(rng: np.random.Generator, shape: tuple[int, ...], beta: float):
    """Random offer pmf and utility with magnitude between about 1 and 1e3.

    gamma sits below most utility values so offers get accepted, and tol
    scales with the magnitude, as a user would set it: an absolute 1e-10
    at magnitude 1e3 asks bisection for a bracket narrower than the float
    spacing (the defect the fixed reproducer keeps visible).
    """
    grid = make_grid(_random_axes(rng, shape))
    scale = float(10.0 ** rng.uniform(0.0, 3.0))
    pmf = make_pmf(grid, rng.dirichlet(np.ones(grid.size)))
    u = tabulate(grid, scale * rng.uniform(0.0, 1.0, grid.size))
    params = SearchParams(beta, scale * float(rng.uniform(0.05, 0.3)), 1e-10 * scale)
    return pmf, u, params


def bisection_reproducer():
    """Product utility on the 30x30 grid {1..30}^2 under the uniform pmf,
    beta 0.999, gamma 1, tol 1e-10: the root is about 774.5, where the float
    spacing exceeds the bisection width tol*(1-beta) = 1e-13."""
    axis = [float(v) for v in range(1, 31)]
    grid = make_grid([axis, axis])
    pmf = make_pmf(grid, np.full(grid.size, 1.0 / grid.size))
    return pmf, tabulate_family("product", grid), SearchParams(0.999, 1.0, 1e-10)


def _solve(pmf, u, params):
    return pmf, u, params, solver.reservation_utility(pmf, u, params)


def judge_solve(result) -> str:
    pmf, u, params, sol = result
    want = reservation_root(pmf.mass_array, u.values_array, params.beta, params.gamma)
    check_close("u_F", sol.reservation_utility, want, 10.0 * params.tol)
    return "ok"


def _simulate(pmf, u, params, threshold, seed):
    stats = solver.simulate_search(pmf, u, params, threshold, seed, EPISODES)
    return pmf, u, params, threshold, seed, stats


def judge_simulate(result) -> str:
    """The mean must lie within 4 standard errors of the exact value, plus
    ``tol``: episodes stop at a horizon whose discounted tail is documented
    to stay below ``tol``.  That bias is all that remains when every episode
    realizes the same value (no offer reaches the threshold).  A correct
    program misses the 4 standard errors about once in 16,000 runs, so a
    miss is retried once on the next simulation seed (outside the timed
    region) before it counts as a wrong answer."""
    pmf, u, params, threshold, seed, stats = result
    want = search_value(pmf.mass_array, u.values_array, params.beta, threshold)
    for retry in (False, True):
        if retry:
            stats = _simulate_untraced(pmf, u, params, threshold, seed + 1, EPISODES)
        if abs(stats.mean - want) <= 4.0 * stats.stderr + params.tol:
            return "ok"
    raise OracleMismatch(
        f"simulated mean {stats.mean!r} is {abs(stats.mean - want)!r} from {want!r}, "
        f"beyond 4 standard errors ({stats.stderr!r}) plus tol ({params.tol!r})"
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A workload builds its fixed inputs at construction (part of setup):
    ``panel`` holds the operations every run starts with, whatever the seed.
    ``ops`` yields an endless stream of seeded operations, and ``seeded``
    its first ``SEEDED_OPS``: the same list for every run of a seed, so
    every run of a seed attempts the same operations and fails the same
    ones."""

    #: Sized so that one pass takes 13 to 18 s of operation time on the
    #: machine in README.md; repeats of the list fill the rest of a run.
    SEEDED_OPS: int

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs = PairJudge()
        self.panel: list[Op] = []

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def seeded(self) -> Iterator[Op]:
        return itertools.islice(self.ops(), self.SEEDED_OPS)

    def finish(self) -> int:
        """Run deferred reference checks; returns how many it made."""
        return self.pairs.finish()


class Suites(Workload):
    """The everyday ``mcsearch verify`` path: one operation generates and
    verifies one case, round-robin over theorems and grids."""

    SLOTS = [
        (theorem, shape)
        for theorem in ("T2a", "T2c", "T3", "T4")
        for shape in ((3, 3), (4, 4), (5, 5), (3, 3, 3))
    ] + [("T2b", (3, 3))]
    SEEDED_OPS = 160 * len(SLOTS)

    def ops(self) -> Iterator[Op]:
        for index in itertools.count():
            for theorem, shape in self.SLOTS:
                yield Op(
                    f"verify:{theorem}:{_shape_label(shape)}",
                    functools.partial(_generate_and_verify, theorem, index, self.seed, shape),
                    judge_theorem,
                )


class Convex(Workload):
    """Large degenerate convex-cone LPs.

    A 4x4 T2b case or convex pair costs either about 0.1 s or 10 s or more,
    depending on whether Bland's rule reaches the pivot cap, so a handful
    drawn per seed would swing a run's time by whole seconds between seeds.
    They form a fixed panel instead, run at the start of every run; the
    seeded list is 3x3 T2b cases alternating with 3x3 convex pairs.
    """

    SEEDED_OPS = 2 * 400

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.panel = [
            Op("verify:T2b:4x4:panel", functools.partial(_verify, case), judge_theorem)
            for case in (statics.generate_case("T2b", i, PANEL_SEED, (4, 4)) for i in range(4))
        ] + [
            Op("dominates:convex:4x4:panel", functools.partial(_dominates_convex, *pair), self.pairs)
            for pair in (
                random_pair(derive_rng(PANEL_SEED, PAIR_KEY, j), (4, 4)) for j in range(6)
            )
        ]

    def ops(self) -> Iterator[Op]:
        for index in itertools.count():
            yield Op(
                "verify:T2b:3x3",
                functools.partial(_generate_and_verify, "T2b", index, self.seed, (3, 3)),
                judge_theorem,
            )
            pair = random_pair(derive_rng(self.seed, PAIR_KEY, index), (3, 3))
            yield Op("dominates:convex:3x3", functools.partial(_dominates_convex, *pair), self.pairs)


class Search(Workload):
    """The solver and Monte Carlo alone, no LP: reservation utilities over
    every beta and grid, and policy simulations at 1e5 episodes.  The
    panel is the bisection reproducer."""

    BETAS = (0.5, 0.9, 0.99, 0.999, 0.9999)
    SHAPES = ((3, 3), (10, 10), (30, 30), (8, 8, 8))
    SIMULATIONS = ((0.5, (3, 3)), (0.9, (5, 5)))
    SEEDED_OPS = 180 * (len(BETAS) * len(SHAPES) + len(SIMULATIONS))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.panel = [
            Op("solve:product:30x30:panel", functools.partial(_solve, *bisection_reproducer()), judge_solve)
        ]

    def ops(self) -> Iterator[Op]:
        for index in itertools.count():
            for slot, (beta, shape) in enumerate(itertools.product(self.BETAS, self.SHAPES)):
                inputs = search_input(derive_rng(self.seed, SOLVE_KEY, index, slot), shape, beta)
                yield Op(
                    f"solve:{_shape_label(shape)}:beta{beta}",
                    functools.partial(_solve, *inputs),
                    judge_solve,
                )
            for slot, (beta, shape) in enumerate(self.SIMULATIONS):
                rng = derive_rng(self.seed, SIM_KEY, index, slot)
                pmf, u, params = search_input(rng, shape, beta)
                threshold = reservation_root(pmf.mass_array, u.values_array, beta, params.gamma)
                sim_seed = int(rng.integers(2**31))
                yield Op(
                    f"simulate:{_shape_label(shape)}:beta{beta}",
                    functools.partial(_simulate, pmf, u, params, threshold, sim_seed),
                    judge_simulate,
                )


WORKLOADS: dict[str, type[Workload]] = {
    "suites": Suites,
    "convex": Convex,
    "search": Search,
}
