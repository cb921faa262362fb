"""Multicriteria job-search stopping problems on finite offer grids.

Offers carry K attributes aggregated by a utility function; the library
solves for reservation utilities and acceptance sets, decides stochastic
dominance between offer distributions over structured function classes
(increasing, convex, componentwise convex, supermodular, ultramodular and
their conjunctions), and runs property suites verifying that dominance plus
class membership raises the reservation utility.
"""

from .dominance import (
    DominanceResult,
    concordance_transfer,
    dominates,
    fosd_shift,
    mean_preserving_spread,
)
from .grids import (
    Grid,
    Pmf,
    SearchParams,
    common_grid,
    derive_rng,
    expectation,
    make_grid,
    make_pmf,
    marginal,
    normalize_weights,
    sample_offers,
)
from .solver import (
    ConvergenceError,
    SimulationStats,
    Solution,
    continuation_map,
    equation_residual,
    reservation_utility,
    simulate_search,
    solve_bisection,
    solve_fixed_point,
    value_function,
)
from .statics import (
    CaseRecord,
    ClosureReport,
    SuiteConfig,
    SuiteReport,
    TheoremCase,
    VerificationReport,
    closure_check,
    generate_case,
    replay_case,
    run_suite,
    truncation_counterexample,
    verify_theorem,
)
from .utility import (
    FunctionClass,
    MembershipResult,
    TabulatedUtility,
    Witness,
    affine_transform,
    clamp_below,
    is_member,
    random_member,
    tabulate,
    tabulate_family,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CaseRecord",
    "ClosureReport",
    "DominanceResult",
    "FunctionClass",
    "Grid",
    "MembershipResult",
    "Pmf",
    "SearchParams",
    "SimulationStats",
    "Solution",
    "SuiteConfig",
    "SuiteReport",
    "TabulatedUtility",
    "TheoremCase",
    "VerificationReport",
    "Witness",
    "affine_transform",
    "clamp_below",
    "closure_check",
    "common_grid",
    "concordance_transfer",
    "continuation_map",
    "derive_rng",
    "dominates",
    "equation_residual",
    "expectation",
    "fosd_shift",
    "generate_case",
    "is_member",
    "make_grid",
    "make_pmf",
    "marginal",
    "mean_preserving_spread",
    "normalize_weights",
    "random_member",
    "replay_case",
    "reservation_utility",
    "run_suite",
    "sample_offers",
    "simulate_search",
    "solve_bisection",
    "solve_fixed_point",
    "tabulate",
    "tabulate_family",
    "truncate",
    "truncation_counterexample",
    "value_function",
    "verify_theorem",
]
