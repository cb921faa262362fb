import os

import numpy as np
import pytest
from hypothesis import settings

from mcsearch import (
    SearchParams,
    make_grid,
    make_pmf,
    tabulate_family,
)

# CI draws the same examples on every run, so a red run reproduces
# locally with ``CI=1 pytest``
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def unit_square():
    """The 2x2 grid {1,2}^2 hosting the truncation counterexample."""
    return make_grid([[1.0, 2.0], [1.0, 2.0]])


@pytest.fixture
def counterexample(unit_square):
    """Supermodular values whose truncation is not supermodular."""
    return tabulate_family("custom", unit_square, values=[5.0, -5.0, 14.0, 5.0])


@pytest.fixture
def two_point():
    """1-D offers {0, 2} with equal mass, beta=gamma=0.5: u_F = 1."""
    grid = make_grid([[0.0, 2.0]])
    pmf = make_pmf(grid, [0.5, 0.5])
    utility = tabulate_family("linear", grid, a=[1.0])
    return grid, pmf, utility, SearchParams(0.5, 0.5)


def random_pmf(grid, rng):
    return make_pmf(grid, rng.dirichlet(np.ones(grid.size)))


def random_grid(rng, shape):
    axes = []
    for length in shape:
        start = float(rng.uniform(-2.0, 2.0))
        steps = rng.uniform(0.3, 1.5, size=length - 1)
        axes.append(start + np.concatenate([[0.0], np.cumsum(steps)]))
    return make_grid(axes)
