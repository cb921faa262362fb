"""Reference oracle for ``simulate_search``: the period loop as it was
before offers were drawn through ``OfferSampler``.

Every period asks ``rng.choice`` for one offer per searching episode and
computes the realized values with fresh arrays.  The property test in
``test_solver.py`` requires the package's loop to return equal
``SimulationStats``.
"""
from __future__ import annotations

import math

import numpy as np

from mcsearch.solver import SimulationStats, simulation_horizon


def oracle_simulate_search(pmf, u, params, threshold, seed, episodes) -> SimulationStats:
    beta, gamma = params.beta, params.gamma
    horizon = simulation_horizon(u, params)
    rng = np.random.default_rng(int(seed))
    p = pmf.mass_array / pmf.mass_array.sum()
    vals = u.values_array

    realized = np.empty(episodes)
    alive = np.arange(episodes)
    flow = gamma * (1.0 - beta ** np.arange(horizon + 1)) / (1.0 - beta)
    accepted = 0
    for t in range(horizon):
        draws = rng.choice(p.size, size=alive.size, p=p)
        offers = vals[draws]
        take = offers >= threshold
        idx = alive[take]
        realized[idx] = flow[t] + beta**t * offers[take] / (1.0 - beta)
        accepted += idx.size
        alive = alive[~take]
        if alive.size == 0:
            break
    realized[alive] = flow[horizon]
    mean = float(realized.mean())
    stderr = float(realized.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return SimulationStats(mean, stderr, episodes, horizon, accepted / episodes)
