"""Independent references the benchmark checks the program's answers against.

None of these call into ``mcsearch``: each recomputes the answer from the
raw numbers (masses, utility values, node coordinates) by a different route
than the program takes.
"""
from __future__ import annotations

import math

import numpy as np


class OracleMismatch(Exception):
    """The program returned a wrong answer; the benchmark run must abort."""


def reservation_root(mass: np.ndarray, values: np.ndarray, beta: float, gamma: float) -> float:
    """Exact root of t = (1-beta)*gamma + beta*E[max(U, t)].

    Sorting U makes E[max(U, t)] piecewise linear in t with breakpoints at
    the utility values; h(t) = t - psi(t) is strictly increasing, so the
    root lies on the one segment where h changes sign and solves a single
    linear equation there.
    """
    order = np.argsort(values, kind="stable")
    u = np.asarray(values, float)[order]
    p = np.asarray(mass, float)[order]
    below = np.cumsum(p)                               # P(U <= u_k)
    above = np.concatenate([np.cumsum((p * u)[::-1])[::-1][1:], [0.0]])  # E[U; U > u_k]
    base = (1.0 - beta) * gamma
    # h at each breakpoint t = u_k, where E[max(U, t)] = t*P(U <= t) + E[U; U > t]
    h = u - base - beta * (u * below + above)
    k = int(np.searchsorted(h, 0.0))  # first breakpoint with h >= 0
    if k == 0:
        # root below every utility value: E[max(U, t)] = E[U]
        return base + beta * float(np.dot(p, u))
    # on [u_{k-1}, u_k] the mass at or below t is below[k-1]
    return (base + beta * above[k - 1]) / (1.0 - beta * below[k - 1])


def search_value(mass: np.ndarray, values: np.ndarray, beta: float, threshold: float) -> float:
    """Expected discounted value E[max(U, u_F)] / (1 - beta) of the optimal
    policy before the first offer, the mean ``simulate_search`` estimates."""
    return float(np.dot(mass, np.maximum(values, threshold))) / (1.0 - beta)


def convex_gap_highs(nodes: np.ndarray, gap: np.ndarray) -> float:
    """Minimum of sum(gap * U) over convex-extendable U with 0 <= U <= 1.

    Variables are U (n) and one free subgradient s_i (k entries) per node;
    every ordered pair i != j contributes U_i - U_j + s_i.(x_j - x_i) <= 0.
    Solved by scipy's HiGHS, which the package itself never uses.
    """
    from scipy.optimize import linprog

    n, k = nodes.shape
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    m = ii.size
    a_ub = np.zeros((m, n + n * k))
    rows = np.arange(m)
    a_ub[rows, ii] += 1.0
    a_ub[rows, jj] -= 1.0
    sub_cols = n + ii[:, None] * k + np.arange(k)[None, :]
    a_ub[rows[:, None], sub_cols] = nodes[jj] - nodes[ii]
    c = np.concatenate([gap, np.zeros(n * k)])
    bounds = [(0.0, 1.0)] * n + [(None, None)] * (n * k)
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds, method="highs")
    if res.status != 0:
        raise OracleMismatch(f"reference LP did not solve: {res.message}")
    return float(res.fun)


def check_close(what: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise OracleMismatch(f"{what}: program {got!r}, reference {want!r}, allowed {tol:.3e}")
