"""Finite multivariate offer grids and probability mass functions over them.

Offers live on the Cartesian product of K strictly increasing coordinate
axes.  Nodes are always enumerated in lexicographic (C, row-major) order of
their per-axis indices; every tabulation in the package uses this canonical
order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .utility import TabulatedUtility

#: Allowed deviation of total probability mass from 1.  Masses are never
#: silently rescaled; callers must normalize explicitly (`normalize_weights`).
MASS_TOL = 1e-9


def _finite_floats(xs: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(float(x) for x in xs)
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite reals, got {v!r}")
    return out


@dataclass(frozen=True)
class Grid:
    """K-dimensional lattice of offer attributes.

    ``axes[k]`` holds the admissible coordinates of attribute k, strictly
    increasing.  The node set is the Cartesian product of the axes.
    """

    axes: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.axes) == 0:
            raise ValueError("grid needs at least one axis")
        for k, axis in enumerate(self.axes):
            if len(axis) == 0:
                raise ValueError(f"axis {k} is empty")
            _finite_floats(axis, f"axis {k} coordinates")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"axis {k} must be strictly increasing")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self.axes)

    @cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(size, ndim) array of node coordinates in canonical order."""
        mesh = np.meshgrid(*[np.asarray(a, float) for a in self.axes], indexing="ij")
        out = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        out.setflags(write=False)
        return out

    def flat_index(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(flat, self.shape))

    def node(self, flat: int) -> tuple[float, ...]:
        """Coordinates of the node at canonical position ``flat``."""
        return tuple(float(c) for c in self.nodes[flat])

    def node_index(self, coords: Sequence[float]) -> int:
        """Canonical position of the node with the given coordinates."""
        coords = tuple(float(c) for c in coords)
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        multi = []
        for k, c in enumerate(coords):
            try:
                multi.append(self.axes[k].index(c))
            except ValueError:
                raise ValueError(f"coordinate {c} not on axis {k}") from None
        return self.flat_index(multi)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over the nodes of a grid (an offer
    distribution), masses in canonical node order."""

    grid: Grid
    mass: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mass) != self.grid.size:
            raise ValueError(
                f"need one mass per node: got {len(self.mass)}, grid has {self.grid.size}"
            )
        _finite_floats(self.mass, "masses")
        for i, m in enumerate(self.mass):
            if m < 0:
                raise ValueError(f"mass at node {self.grid.node(i)} is negative ({m})")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(
                f"masses must sum to 1 within {MASS_TOL:g} (got {total!r}); "
                "normalize explicitly with normalize_weights"
            )

    @cached_property
    def mass_array(self) -> np.ndarray:
        out = np.asarray(self.mass, dtype=float)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class SearchParams:
    """Search-model parameters: discount beta in (0,1), unemployment flow
    utility gamma > 0, and the numerical tolerance for the solver."""

    beta: float
    gamma: float
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be a positive real, got {self.gamma}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be a positive real, got {self.tol}")


def make_grid(axes: Sequence[Sequence[float]]) -> Grid:
    """Build a grid from per-dimension coordinate vectors."""
    return Grid(tuple(_finite_floats(axis, f"axis {k}") for k, axis in enumerate(axes)))


def make_pmf(grid: Grid, weights: Sequence[float]) -> Pmf:
    """Build a pmf from per-node weights in canonical order.

    Weights must already sum to 1 within ``MASS_TOL``; no silent
    renormalization is applied.
    """
    return Pmf(grid, tuple(float(w) for w in np.asarray(weights, dtype=float).reshape(-1)))


def normalize_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """Explicitly rescale nonnegative weights to sum to 1."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be nonnegative finite reals")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("total weight must be positive")
    return tuple(float(x) for x in w / total)


def check_count(x: object, what: str, least: int = 1) -> int:
    """``x`` as an int, if it is an integer (not a bool) of at least
    ``least``; a ``ValueError`` naming ``what`` otherwise."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    if x < least:
        raise ValueError(f"{what} must be at least {least}, got {x!r}")
    return int(x)


def check_same_grid(pmf: Pmf, u: "TabulatedUtility") -> None:
    if u.grid != pmf.grid:
        raise ValueError("utility is tabulated on a different grid than the pmf")


def expectation(pmf: Pmf, u: "TabulatedUtility") -> float:
    """E[u] under pmf: sum of mass(x) * u(x) over grid nodes."""
    check_same_grid(pmf, u)
    return float(np.dot(pmf.mass_array, u.values_array))


def marginal(pmf: Pmf, dim: int) -> Pmf:
    """1-D marginal distribution of attribute ``dim``."""
    if not (0 <= dim < pmf.grid.ndim):
        raise ValueError(f"dimension {dim} out of range for a {pmf.grid.ndim}-D grid")
    table = pmf.mass_array.reshape(pmf.grid.shape)
    other = tuple(k for k in range(pmf.grid.ndim) if k != dim)
    sums = table.sum(axis=other) if other else table
    return Pmf(Grid((pmf.grid.axes[dim],)), tuple(float(x) for x in sums))


def common_grid(f: Pmf, g: Pmf) -> tuple[Grid, Pmf, Pmf]:
    """Embed two pmfs of equal dimension on the union-of-coordinates grid.

    Absent nodes get zero mass, so expectations of any tabulated utility are
    unchanged by the embedding.  Pmfs already on one grid come back as they
    are.
    """
    if f.grid.ndim != g.grid.ndim:
        raise ValueError(
            f"dimension mismatch: {f.grid.ndim}-D vs {g.grid.ndim}-D"
        )
    if f.grid == g.grid:
        return f.grid, f, g
    axes = tuple(
        tuple(sorted(set(fa) | set(ga)))
        for fa, ga in zip(f.grid.axes, g.grid.axes)
    )
    grid = Grid(axes)

    def embed(p: Pmf) -> Pmf:
        if p.grid == grid:
            return p
        mass = np.zeros(grid.shape)
        # per-axis position of each old coordinate inside the union axis
        pos = [np.searchsorted(axis, old) for axis, old in zip(axes, p.grid.axes)]
        mass[np.ix_(*pos)] = p.mass_array.reshape(p.grid.shape)
        return Pmf(grid, tuple(mass.reshape(-1).tolist()))

    return grid, embed(f), embed(g)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-scenario generator (PCG64) derived from
    ``(seed, *key)``, each a nonnegative integer.  Used for seed-splitting
    across independent cases."""
    entropy = (check_count(seed, "seed", least=0),) + tuple(check_count(k, "key", least=0) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


class OfferSampler:
    """Draws node indices from a probability vector ``p`` bit for bit as
    ``rng.choice(p.size, size, p=p)`` does, without its per-call work, and
    keeps only those the boolean node mask ``accepts`` holds.

    ``choice`` checks ``p``, rebuilds the normalized CDF and binary-searches
    it for every uniform from ``rng.random``.  Here the CDF is built once,
    the same way (``p.cumsum()`` divided by its last entry), and each
    uniform ``r`` is looked up in a guide table of ``M`` equal buckets
    (Chen & Asau 1974; Devroye 1986, III.2.4).  ``M`` is a power of two of
    at least 16 buckets per node, so ``r * M`` is exact and its integer part
    names r's bucket.  A bucket with no CDF value strictly inside it sends
    every uniform to the index ``cdf.searchsorted(r, side="right")`` gives
    for all of them; uniforms in the other (split) buckets are searched as
    ``choice`` searches them.  The stream consumed is the same, so the draws
    are too.  ``p`` must be what ``choice`` accepts; a ``Pmf`` guarantees
    it (nonnegative, finite, summing to 1 within ``MASS_TOL``).

    A threshold policy needs only the draws whose node it accepts.  The
    read-only ``marked`` holds, per bucket, whether a uniform in it can
    land on a node that ``accepts`` holds: node ``first[b]`` or, in a split
    bucket, a later node up to ``last[b]`` whose CDF step is positive, so
    zero-mass nodes, never drawn, mark nothing.  ``accepted`` drops every
    uniform in an unmarked bucket from its bucket alone, takes the one node
    of a marked bucket that is not split, and searches only the uniforms in
    marked split buckets.  It returns exactly the draws of ``choice`` that
    ``accepts`` holds, and consumes the same stream; an all-true mask
    returns every draw.
    """

    def __init__(self, p: np.ndarray, accepts: np.ndarray) -> None:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._buckets = 1 << (16 * p.size - 1).bit_length()
        # scaling by a power of two is exact, so comparisons against the
        # scaled CDF order every uniform exactly as against the CDF
        self._scaled_cdf = cdf * self._buckets
        edges = np.arange(self._buckets + 1, dtype=float)
        self._first = self._scaled_cdf.searchsorted(edges[:-1], side="right")
        # no uniform in a bucket lands past its ``last`` node
        self._last = self._scaled_cdf.searchsorted(edges[1:], side="left")
        self._split = self._first != self._last
        self._accepts = accepts
        drawn = np.diff(self._scaled_cdf, prepend=0.0) > 0.0
        counts = np.concatenate(([0], np.cumsum(accepts & drawn)))
        later = counts[self._last + 1] > counts[self._first + 1]
        self.marked = accepts[self._first] | (self._split & later)
        self.marked.setflags(write=False)

    def accepted(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Of the next ``size`` draws, the ascending positions of those
        whose node ``accepts`` holds, and their nodes."""
        scaled = rng.random(size) * self._buckets
        bucket = scaled.astype(np.intp)  # truncation: scaled >= 0
        where = np.flatnonzero(self.marked[bucket])
        bucket = bucket[where]
        node = self._first[bucket]
        hit = np.flatnonzero(self._split[bucket])
        if hit.size:
            found = self._scaled_cdf.searchsorted(scaled[where[hit]], side="right")
            node[hit] = found
            # a split bucket can hold rejected nodes beside accepted ones
            missed = ~self._accepts[found]
            if missed.any():
                keep = np.ones(where.size, dtype=bool)
                keep[hit[missed]] = False
                where, node = where[keep], node[keep]
        return where, node


def sample_offers(pmf: Pmf, seed: int, n: int) -> list[tuple[float, ...]]:
    """Draw ``n`` i.i.d. offers from the pmf.

    The stream comes from numpy's seeded PCG64 generator, so draws are
    bit-reproducible for a fixed seed; they equal ``rng.choice`` on the
    renormalized masses (see ``OfferSampler``; every node is accepted).
    Sampling renormalizes the masses by their exact float sum (bounded by
    ``MASS_TOL``).
    """
    n = check_count(n, "n")
    rng = np.random.default_rng(check_count(seed, "seed", least=0))
    sampler = OfferSampler(pmf.mass_array / pmf.mass_array.sum(), np.ones(pmf.grid.size, dtype=bool))
    _, idx = sampler.accepted(rng, n)
    return list(map(tuple, pmf.grid.nodes[idx].tolist()))
