"""Solve the stopping problem: reservation utility, value function,
acceptance set, and Monte Carlo policy evaluation.

The reservation utility is the fixed point of the continuation map

    psi(t) = (1 - beta) * gamma + beta * E[max(U, t)],

a monotone contraction with modulus beta, so fixed-point iteration converges
geometrically for every beta in (0, 1).  psi is piecewise linear with kinks
only at the values of U, so the root also has a closed form on one segment;
that exact root checks every solve, and the two must agree within 10x the
solver tolerance or the solve fails loudly.  ``solve_bisection`` is kept as
a public test oracle; no solve calls it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import OfferSampler, Pmf, SearchParams, check_same_grid
from .utility import TabulatedUtility, tabulate

#: Hard cap on contraction iterations before the solver reports a defect.
MAX_ITERATIONS = 10**6


class ConvergenceError(RuntimeError):
    """The solver could not certify the reservation utility to tolerance."""


@dataclass(frozen=True)
class Solution:
    """Solved stopping problem.

    ``value`` tabulates max(U(x), u_F) / (1 - beta) at every node;
    ``acceptance`` is the closed upper set {x : U(x) >= u_F - tol} (ties
    accept); ``residual`` is the defect of the reservation-utility equation
    u_F = gamma + beta/(1-beta) * E[(U - u_F)+] at the returned value;
    ``iterations`` is the fixed-point step count, which ``solve`` reports
    print.
    """

    reservation_utility: float
    value: TabulatedUtility
    acceptance: frozenset[tuple[float, ...]]
    residual: float
    iterations: int


def continuation_map(
    u_candidate: float,
    pmf: Pmf,
    u: TabulatedUtility,
    params: SearchParams,
) -> float:
    """psi(t) = (1 - beta)*gamma + beta*E[max(U, t)]: nondecreasing in t and
    a contraction with modulus beta."""
    check_same_grid(pmf, u)
    if not math.isfinite(u_candidate):
        raise ValueError(f"candidate must be finite, got {u_candidate!r}")
    return _continuation(pmf, u, params)(u_candidate)


def _continuation(pmf: Pmf, u: TabulatedUtility, params: SearchParams) -> Callable[[float], float]:
    """``continuation_map`` for one solve, without its argument checks: the
    solvers check the grids once per solve and only ever pass finite
    candidates.  max(U, t) goes to one buffer reused by every call."""
    flow = (1.0 - params.beta) * params.gamma
    beta = params.beta
    vals = u.values_array
    dot = pmf.mass_array.dot
    buf = np.empty_like(vals)

    def psi(t: float) -> float:
        return flow + beta * float(dot(np.maximum(vals, t, out=buf)))

    return psi


def equation_residual(t: float, pmf: Pmf, u: TabulatedUtility, params: SearchParams) -> float:
    """Defect of t = gamma + beta/(1-beta) * E[(U - t)+]."""
    plus = np.maximum(u.values_array - t, 0.0)
    ev = float(np.dot(pmf.mass_array, plus))
    return t - params.gamma - params.beta / (1.0 - params.beta) * ev


def solve_fixed_point(pmf: Pmf, u: TabulatedUtility, params: SearchParams) -> tuple[float, int]:
    """Iterate psi to its fixed point; returns (u_F, iterations).

    Stops at the first step of at most ``0.5 * tol * (1 - beta) / beta``.
    In exact arithmetic psi contracts by beta, so that step bounds both
    |t - t*| and the equation residual by tol / 2; in floats neither bound
    is guaranteed, and ``reservation_utility``'s residual test is what
    certifies the solve.
    """
    check_same_grid(pmf, u)
    psi = _continuation(pmf, u, params)
    beta, tol = params.beta, params.tol
    stop = 0.5 * tol * (1.0 - beta) / beta
    t = params.gamma
    for it in range(1, MAX_ITERATIONS + 1):
        t_next = psi(t)
        if abs(t_next - t) <= stop:
            return t_next, it
        t = t_next
    defect = abs(psi(t) - t)
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {MAX_ITERATIONS} steps "
        f"(last step {defect:.3e}, required {stop:.3e}); check beta/tol"
    )


def solve_bisection(pmf: Pmf, u: TabulatedUtility, params: SearchParams) -> tuple[float, int]:
    """Bisection on t - psi(t) over a bracket psi maps into itself.

    Stops when the bracket is narrower than ``tol * (1 - beta)`` or, at
    large magnitudes where that width is below the float spacing, when the
    bracket has shrunk to two adjacent floats.  Each step halves a finite
    bracket, so that takes at most about 2,100 steps and needs no cap.
    """
    check_same_grid(pmf, u)
    psi = _continuation(pmf, u, params)
    beta, gamma, tol = params.beta, params.gamma, params.tol
    vals = u.values_array
    lo = min(gamma, float(vals.min()))
    hi = max(gamma, float(vals.max())) + gamma * beta / (1.0 - beta)
    width_stop = tol * (1.0 - beta)
    it = 0
    while hi - lo > width_stop:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # floating-point resolution reached
        it += 1
        if mid - psi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), it


def _segment_root(pmf: Pmf, u: TabulatedUtility, params: SearchParams, total=1.0) -> float:
    """Exact root of t = (1-beta)*gamma + beta*(M + (total - T)*t), with T and
    M the mass and moment of the values above t: the certified equation for
    ``total`` 1, t = psi(t) for the pmf's mass sum.  Where the i largest
    values lie above t, the sides differ by t*D_i - N_i with
    N_i = (1-beta)*gamma + beta*M_i and D_i = 1 - beta*total + beta*T_i; i
    counts the values where that is nonnegative, and the root is N_i/D_i
    (gamma*(1-beta)/D_0 when i is 0: gamma itself for ``total`` 1)."""
    beta = params.beta
    top = np.argsort(u.values_array, kind="stable")[::-1]
    vals = u.values_array[top]
    mass = pmf.mass_array[top]
    num = (1.0 - beta) * params.gamma + beta * np.cumsum(np.append(0.0, mass * vals))
    den = (1.0 - beta * total) + beta * np.cumsum(np.append(0.0, mass))
    i = int(np.count_nonzero(vals * den[1:] >= num[1:]))
    return float(num[i] / den[i] if i else params.gamma * ((1.0 - beta) / den[0]))


def reservation_utility(pmf: Pmf, u: TabulatedUtility, params: SearchParams) -> Solution:
    """Solve for the reservation utility and assemble the full solution.

    Runs the contraction iteration and checks it against the exact root of
    psi; a disagreement beyond 10x tolerance raises ``ConvergenceError``.
    The fixed point is reported unless its residual exceeds tolerance; only
    then is it replaced by the certified equation's exact root, and a
    residual still above tolerance raises ``ConvergenceError``.
    """
    u_f, iterations = solve_fixed_point(pmf, u, params)
    # psi's own root: it parts from the certified equation's where the
    # masses miss 1 by the rounding make_pmf admits
    root = _segment_root(pmf, u, params, float(pmf.mass_array.sum()))
    if abs(u_f - root) > 10.0 * params.tol:
        raise ConvergenceError(
            f"contraction ({u_f!r}) and exact segment root ({root!r}) disagree by "
            f"{abs(u_f - root):.3e} > {10.0 * params.tol:.3e}"
        )
    residual = equation_residual(u_f, pmf, u, params)
    if abs(residual) > params.tol:
        u_f = _segment_root(pmf, u, params)
        residual = equation_residual(u_f, pmf, u, params)
    if abs(residual) > params.tol:
        raise ConvergenceError(f"equation residual {residual:.3e} exceeds tol {params.tol:.3e}")
    value = tabulate(pmf.grid, np.maximum(u.values_array, u_f) / (1.0 - params.beta))
    accept = frozenset(map(tuple, pmf.grid.nodes[u.values_array >= u_f - params.tol].tolist()))
    return Solution(u_f, value, accept, residual, iterations)


def value_function(solution: Solution, node: tuple[float, ...] | list[float]) -> float:
    """Value of holding the offer at ``node``: max(U, u_F) / (1 - beta)."""
    return solution.value.at(node)


@dataclass(frozen=True)
class SimulationStats:
    """Monte Carlo estimate of the realized discounted utility of a
    threshold policy."""

    mean: float
    stderr: float
    episodes: int
    horizon: int
    accept_rate: float


def simulation_horizon(u: TabulatedUtility, params: SearchParams) -> int:
    """Smallest T with beta^T * (max|U| + gamma)/(1-beta) below tolerance,
    bounding the discounted error of truncating episodes at T periods."""
    beta = params.beta
    bound = (float(np.abs(u.values_array).max()) + params.gamma) / (1.0 - beta)
    t = math.log(params.tol / bound) / math.log(beta) if bound > params.tol else 0.0
    return max(1, int(math.ceil(t)))


def simulate_search(
    pmf: Pmf,
    u: TabulatedUtility,
    params: SearchParams,
    threshold: float,
    seed: int,
    episodes: int,
) -> SimulationStats:
    """Simulate the policy "accept iff U(offer) >= threshold".

    Each episode draws offers until acceptance or the documented horizon and
    realizes sum_{t<T} beta^t gamma + beta^T U(w_T)/(1-beta).  Offers come
    from a single seeded PCG64 stream consumed period by period: each period
    draws one offer for every episode still searching, in episode order,
    through ``OfferSampler`` (the draws of ``rng.choice``), so results are
    bit-reproducible for a fixed seed.  When no node with positive mass
    reaches the threshold, nothing is drawn: every episode realizes the
    flow value of the whole horizon.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    check_same_grid(pmf, u)
    beta, gamma = params.beta, params.gamma
    horizon = simulation_horizon(u, params)
    rng = np.random.default_rng(int(seed))
    sampler = OfferSampler(pmf.mass_array / pmf.mass_array.sum(), episodes)
    vals = u.values_array

    realized = np.empty(episodes)
    alive = np.arange(episodes)
    offer_buf = np.empty(episodes)
    take_buf = np.empty(episodes, dtype=bool)
    # discounted value of t periods of unemployment flow
    flow = gamma * (1.0 - beta ** np.arange(horizon + 1)) / (1.0 - beta)
    accepted = 0
    # draws never land on zero-mass nodes, so when no other node reaches the
    # threshold every episode runs to the horizon whatever is drawn
    periods = horizon if (vals[pmf.mass_array > 0] >= threshold).any() else 0
    for t in range(periods):
        searching = alive.size
        # every draw is a node index; mode "raise" would copy ``out``
        offers = np.take(vals, sampler.draw(rng, searching), out=offer_buf[:searching], mode="clip")
        take = np.greater_equal(offers, threshold, out=take_buf[:searching])
        idx = alive[take]
        # flow[t] + beta**t * offer / (1 - beta), operation for operation
        gain = offers[take]
        gain *= beta**t
        gain /= 1.0 - beta
        gain += flow[t]
        realized[idx] = gain
        accepted += idx.size
        alive = alive[~take]
        if alive.size == 0:
            break
    realized[alive] = flow[horizon]  # never accepted; discounted tail < tol
    mean = float(realized.mean())
    stderr = float(realized.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return SimulationStats(mean, stderr, episodes, horizon, accepted / episodes)
