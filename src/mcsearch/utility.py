"""Tabulated utility functions, function-class membership tests, and the
closure operators (truncation, positive affine transformation, clamping).

Membership in the increasing / componentwise-convex / supermodular families
is decided by local constraints that, on a product of chains, exactly
characterize the class:

* increasing: every successor-edge difference is nonnegative;
* componentwise convex: along each axis line, slopes between consecutive
  nodes are nondecreasing (divided differences handle nonuniform spacing);
* supermodular: every elementary 2x2 cell of adjacent coordinates, for every
  pair of dimensions, has nonnegative cross-difference.

Joint convexity is tested as extendability to a convex function on R^K:
a subgradient g_i must exist at every node i, with
``u_j - u_i - g_i . (x_j - x_i) >= 0`` for every other node j.

Each class, the convex one included, has one cone representation, a
``ConeMatrix`` whose row ``r`` reads ``sum_c coeff[r, c] * v[idx[r, c]] >=
0``; membership and the dominance LP both use it.  For the local classes
``v`` is ``u``; for the convex class it is ``u`` followed by the
subgradients, one ``K``-vector per node.  Node indices depend only on the
grid shape, are built by index arithmetic on its C-order strides and kept
in a small LRU cache of read-only arrays; spacing-dependent coefficients
are computed on every call.  The convex membership test reads its pairs
from the matrix, tries difference quotients as candidate subgradients and
solves an LP per node only where none holds.  Composite classes are
conjunctions.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .grids import Grid
from .simplex import solve_lp

#: The one absolute tolerance of membership and dominance, so both premises
#: of a theorem are decided alike; no call sets its own.
MEMBERSHIP_TOL = 1e-9

#: Candidates ``random_member`` draws before it gives up.
RANDOM_MEMBER_TRIES = 50


class FunctionClass(enum.Enum):
    INCREASING = "increasing"
    CONVEX = "convex"
    COMPONENTWISE_CONVEX = "componentwise_convex"
    SUPERMODULAR = "supermodular"
    ULTRAMODULAR = "ultramodular"
    INCREASING_SUPERMODULAR = "increasing_supermodular"
    INCREASING_ULTRAMODULAR = "increasing_ultramodular"

    @classmethod
    def from_name(cls, name: str) -> "FunctionClass":
        try:
            return cls(name)
        except ValueError:
            choices = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown function class {name!r}; choose one of {choices}") from None


#: Base families whose conjunction defines each class, in the order
#: membership reports violations.  ``convex`` rows carry subgradient
#: variables; the rest are local constraints on the values alone.
_FAMILIES: dict[FunctionClass, tuple[str, ...]] = {
    FunctionClass.INCREASING: ("increasing",),
    FunctionClass.CONVEX: ("convex",),
    FunctionClass.COMPONENTWISE_CONVEX: ("componentwise_convex",),
    FunctionClass.SUPERMODULAR: ("supermodular",),
    FunctionClass.ULTRAMODULAR: ("supermodular", "componentwise_convex"),
    FunctionClass.INCREASING_SUPERMODULAR: ("increasing", "supermodular"),
    FunctionClass.INCREASING_ULTRAMODULAR: (
        "increasing",
        "supermodular",
        "componentwise_convex",
    ),
}


@dataclass(frozen=True)
class TabulatedUtility:
    """Utility values at every grid node, in canonical node order."""

    grid: Grid
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.size:
            raise ValueError(
                f"need one value per node: got {len(self.values)}, grid has {self.grid.size}"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"utility values must be finite, got {v!r}")

    @cached_property
    def values_array(self) -> np.ndarray:
        out = np.asarray(self.values, dtype=float)
        out.setflags(write=False)
        return out

    def at(self, coords: Sequence[float]) -> float:
        return self.values[self.grid.node_index(coords)]


def tabulate(grid: Grid, values: Sequence[float]) -> TabulatedUtility:
    arr = np.asarray(values, dtype=float).reshape(-1)
    return TabulatedUtility(grid, tuple(arr.tolist()))


def tabulate_family(
    family: str,
    grid: Grid,
    *,
    a: Sequence[float] | None = None,
    values: Sequence[float] | None = None,
) -> TabulatedUtility:
    """Tabulate a closed-form utility family on a grid.

    Families and their expected memberships:

    * ``linear`` (requires ``a``): a . x.  With a >= 0 it belongs, weakly, to
      every class tested here (all its local constraints hold with equality
      or better).
    * ``product``: prod_k x_k.  On grids with nonnegative coordinates it is
      increasing ultramodular.
    * ``min``: min_k x_k.  Increasing supermodular, but in general not
      componentwise convex (the kink bends the wrong way).
    * ``custom`` (requires ``values``): explicit per-node values in canonical
      order.
    """
    nodes = grid.nodes
    if family == "linear":
        if a is None:
            raise ValueError("linear family needs coefficient vector a")
        coeff = np.asarray(a, dtype=float).reshape(-1)
        if coeff.size != grid.ndim:
            raise ValueError(f"a has {coeff.size} entries, grid is {grid.ndim}-D")
        return tabulate(grid, nodes @ coeff)
    if family == "product":
        return tabulate(grid, np.prod(nodes, axis=1))
    if family == "min":
        return tabulate(grid, nodes.min(axis=1))
    if family == "custom":
        if values is None:
            raise ValueError("custom family needs explicit values")
        return tabulate(grid, values)
    raise ValueError(f"unknown utility family {family!r}")


# ---------------------------------------------------------------------------
# cone matrices
# ---------------------------------------------------------------------------

#: Per family: the coefficients shared by all its rows (componentwise-convex
#: and convex ones depend on the coordinates) and the columns of its witness
#: nodes.  Rows are stored in summation order, (upper, lower),
#: (ll, hh, lh, hl) and (j, i, subgradient of i); witnesses list
#: (lower, upper), (ll, lh, hl, hh) and the node i.
_FAMILY_LAYOUT: dict[str, tuple[tuple[float, ...] | None, list[int]]] = {
    "increasing": ((1.0, -1.0), [1, 0]),
    "supermodular": ((1.0, 1.0, -1.0, -1.0), [0, 2, 3, 1]),
    "componentwise_convex": (None, [0, 1, 2]),
    "convex": (None, [1]),
}


@dataclass(frozen=True, eq=False)
class ConeMatrix:
    """The constraints of a class cone on one grid.

    Row ``r`` reads ``sum_c coeff[r, c] * v[idx[r, c]] >= 0``, where ``v``
    is the values ``u`` and, for convex rows, the subgradients after them
    (node i's ``K`` components at ``n + i*K``).  Rows come in the class's
    family order; ``families`` pairs each family with the end of its rows.
    A row narrower than the matrix is padded with zero coefficients on its
    own last node.
    """

    idx: np.ndarray
    coeff: np.ndarray
    families: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return self.idx.shape[0]

    def margins(self, values: np.ndarray) -> np.ndarray:
        """Slack of every row, accumulated one column at a time."""
        out = np.zeros(len(self))
        for c in range(self.idx.shape[1]):
            out += self.coeff[:, c] * values[self.idx[:, c]]
        return out

    def witness(self, grid: Grid, r: int, margin: float) -> Witness:
        """The violated constraint of row ``r``, nodes in witness order."""
        family = next(f for f, stop in self.families if r < stop)
        nodes = self.idx[r, _FAMILY_LAYOUT[family][1]]
        return Witness(family, tuple(grid.node(i) for i in nodes), margin)


@functools.lru_cache(maxsize=64)
def _family_topology(shape: tuple[int, ...], family: str) -> np.ndarray:
    """Node indices of one family's rows on every grid of this shape.

    Local rows run over the nodes in C order and, at each node, over the
    axes ``k`` (dimension pairs ``p < q`` for supermodular rows).  Convex
    rows are the ordered pairs ``i != j``, i-major.  The array is read-only
    because the cache shares it between grids.
    """
    ndim = len(shape)
    extent = np.array(shape)
    multi = np.indices(shape).reshape(ndim, -1).T
    n = multi.shape[0]
    node = np.arange(n)[:, None]
    stride = np.array([math.prod(shape[k + 1 :]) for k in range(ndim)])
    if family == "convex":
        # node i down the rows, node j across them
        valid = ~np.eye(n, dtype=bool)
        cols = (node.T, node, *(n + node * ndim + k for k in range(ndim)))
    elif family == "supermodular":
        p, q = np.triu_indices(ndim, k=1)
        valid = (multi[:, p] + 1 < extent[p]) & (multi[:, q] + 1 < extent[q])
        s_p, s_q = stride[p], stride[q]
        cols = (node, node + s_p + s_q, node + s_q, node + s_p)
    elif family == "increasing":
        valid = multi + 1 < extent
        cols = (node + stride, node)
    else:
        valid = multi + 2 < extent
        cols = (node, node + stride, node + 2 * stride)
    idx = np.stack(np.broadcast_arrays(*cols), axis=-1)[valid]
    idx.setflags(write=False)
    return idx


def local_rows(grid: Grid, function_class: FunctionClass) -> ConeMatrix:
    """The class cone on this grid as one ``ConeMatrix``.

    The node indices of each family are cached by grid shape; the
    coefficients that depend on coordinates are recomputed from the grid on
    every call: ``1/h1, -(1/h1 + 1/h2), 1/h2`` for componentwise-convex rows
    and ``1, -1, -(x_j - x_i)`` for convex rows.
    """
    families = _FAMILIES[function_class]
    blocks = [_family_topology(grid.shape, family) for family in families]
    stops = np.cumsum([len(block) for block in blocks])
    idx = np.empty((stops[-1], max(block.shape[1] for block in blocks)), dtype=np.intp)
    coeff = np.zeros(idx.shape)
    nodes = grid.nodes
    for family, block, stop in zip(families, blocks, stops):
        rows, w = slice(stop - len(block), stop), block.shape[1]
        idx[rows, :w] = block
        idx[rows, w:] = block[:, -1:]
        shared = _FAMILY_LAYOUT[family][0]
        if family == "convex":
            ones = np.ones(len(block))
            diff = nodes[block[:, 0]] - nodes[block[:, 1]]
            shared = np.column_stack([ones, -ones, -diff])
        elif shared is None:
            # a row's nodes differ only along its axis, so the largest
            # coordinate difference of two of them is their axis spacing
            inv_h1 = 1.0 / (nodes[block[:, 1]] - nodes[block[:, 0]]).max(axis=1)
            inv_h2 = 1.0 / (nodes[block[:, 2]] - nodes[block[:, 1]]).max(axis=1)
            shared = np.stack([inv_h1, -(inv_h1 + inv_h2), inv_h2], axis=-1)
        coeff[rows, :w] = shared
    return ConeMatrix(idx, coeff, tuple(zip(families, stops.tolist())))


def cone_rows(shape: tuple[int, ...], function_class: FunctionClass) -> int:
    """``len(local_rows(grid, function_class))`` for a grid of this shape,
    without building the quadratic convex block: one row per ordered pair."""
    n = math.prod(shape)
    return sum(
        n * (n - 1) if family == "convex" else len(_family_topology(shape, family))
        for family in _FAMILIES[function_class]
    )


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A violated constraint: the lexicographically first one found.

    ``margin`` is the signed slack of the constraint (membership needs
    margin >= -MEMBERSHIP_TOL everywhere, so a witness's is below that).
    """

    constraint: str
    nodes: tuple[tuple[float, ...], ...]
    margin: float


@dataclass(frozen=True)
class MembershipResult:
    """A verdict at the fixed ``MEMBERSHIP_TOL``.  ``reason`` names the LP
    status when a subgradient LP failed; its node's witness margin is -inf."""

    member: bool
    function_class: FunctionClass
    witness: Witness | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.member


def _difference_quotients(u: TabulatedUtility) -> Iterator[tuple[np.ndarray, ...]]:
    """Candidate subgradients, each one (n, K) array: on every axis, the
    forward or the backward difference quotient at each node (the one that
    exists at an end of the axis, 0 on an axis of length 1), in every
    combination over the axes."""
    grid = u.grid
    values = u.values_array.reshape(grid.shape)
    options = []
    for k, axis in enumerate(grid.axes):
        if len(axis) == 1:
            options.append((np.zeros(grid.size),))
            continue
        shape = [1] * grid.ndim
        shape[k] = -1
        slopes = np.diff(values, axis=k) / np.diff(axis).reshape(shape)
        first, last = np.take(slopes, [0], axis=k), np.take(slopes, [-1], axis=k)
        forward = np.concatenate([slopes, last], axis=k).reshape(-1)
        backward = np.concatenate([first, slopes], axis=k).reshape(-1)
        options.append((forward, backward))
    return itertools.product(*options)


def _supports(d: np.ndarray, delta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Whether ``g`` (one row per node, or one row for all) is a subgradient
    within tolerance at each node: ``max_j (g . d_j - delta_j) <= MEMBERSHIP_TOL``."""
    g = np.broadcast_to(g, (d.shape[0], d.shape[2]))
    gaps = np.einsum("ijk,ik->ij", d, g) - delta
    return gaps.max(axis=1, initial=-np.inf) <= MEMBERSHIP_TOL


def _convex_membership(u: TabulatedUtility) -> MembershipResult:
    """Certify every node by an explicit subgradient; solve the node's LP
    only where no candidate holds."""
    grid = u.grid
    n, k = grid.size, grid.ndim
    cone = local_rows(grid, FunctionClass.CONVEX)
    j = cone.idx[:, 0]
    vals = u.values_array
    d = (-cone.coeff[:, 2:]).reshape(n, n - 1, k)
    delta = vals[j].reshape(n, n - 1) - vals[:, None]
    certified = np.zeros(n, dtype=bool)
    for choice in _difference_quotients(u):
        certified |= _supports(d, delta, np.stack(choice, axis=1))
        if certified.all():
            break
    for i in range(n):
        if certified[i]:
            continue
        # min v s.t. g . (x_j - x_i) - (u_j - u_i) <= v for all j, with v
        # floored at -1 to keep the program bounded
        a_ub = np.hstack([d[i], -np.ones((n - 1, 1))])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        bounds = [(None, None)] * k + [(-1.0, None)]
        res = solve_lp(c, a_ub=a_ub, b_ub=delta[i], bounds=bounds)
        if not res.ok or res.fun > MEMBERSHIP_TOL:
            margin = -float(res.fun) if res.ok else -math.inf
            reason = None if res.ok else f"LP status: {res.status}"
            witness = Witness("subgradient", (grid.node(i),), margin)
            return MembershipResult(False, FunctionClass.CONVEX, witness, reason)
        # nodes in one affine piece share this subgradient
        rest = i + 1 + np.flatnonzero(~certified[i + 1 :])
        certified[rest] = _supports(d[rest], delta[rest], res.x[:k])
    return MembershipResult(True, FunctionClass.CONVEX, None)


def is_member(u: TabulatedUtility, function_class: FunctionClass) -> MembershipResult:
    """Test class membership; on failure report the first violated constraint.

    ``tol`` is ``MEMBERSHIP_TOL``, fixed, not set per call.  Local classes
    evaluate every row of the class's ``ConeMatrix`` at once; the witness is
    the first row with slack below ``-tol``, so families are checked in
    class order (increasing, supermodular, componentwise convex) and rows
    within a family in C node order.

    The convex class needs a subgradient g at every node i with
    ``max_j (g . (x_j - x_i) - (u_j - u_i)) <= tol``.  Each node first
    tries the one-sided difference quotients on every axis (2^K
    combinations), summed directly.  Nodes that none certifies are walked
    in C order, each solving the subgradient LP min_g max(that maximum,
    -1); an optimum above ``tol`` is the witness, with margin ``-v*``, and
    otherwise the LP's subgradient becomes a candidate for every later
    node.  A candidate only certifies a node whose LP optimum is at most
    ``tol``, so the first failing node and its margin are those of one LP
    per node.  A failed LP ends the test as a non-member with margin
    ``-inf`` and ``reason`` naming the LP status.
    """
    if function_class is FunctionClass.CONVEX:
        return _convex_membership(u)
    cone = local_rows(u.grid, function_class)
    margins = cone.margins(u.values_array)
    violated = np.flatnonzero(margins < -MEMBERSHIP_TOL)
    if violated.size:
        r = int(violated[0])
        witness = cone.witness(u.grid, r, float(margins[r]))
        return MembershipResult(False, function_class, witness)
    return MembershipResult(True, function_class, None)


# ---------------------------------------------------------------------------
# closure operators
# ---------------------------------------------------------------------------


def truncate(u: TabulatedUtility) -> TabulatedUtility:
    """Pointwise max(u, 0), that is ``clamp_below(u, 0.0)``."""
    return clamp_below(u, 0.0)


def affine_transform(u: TabulatedUtility, m: float, n: float) -> TabulatedUtility:
    """Positive affine transformation m*u + n with m > 0 and intercept
    restricted to n >= 0."""
    if not (m > 0):
        raise ValueError(f"slope m must be positive, got {m}")
    if not (n >= 0):
        raise ValueError(f"intercept n must be nonnegative, got {n}")
    return tabulate(u.grid, m * u.values_array + n)


def clamp_below(u: TabulatedUtility, level: float) -> TabulatedUtility:
    """Pointwise max(u, level)."""
    if not math.isfinite(level):
        raise ValueError(f"clamp level must be finite, got {level}")
    return tabulate(u.grid, np.maximum(u.values_array, level))


# ---------------------------------------------------------------------------
# constructive random members
# ---------------------------------------------------------------------------


def _axis_profile(rng: np.random.Generator, axis: tuple[float, ...], kind: str) -> np.ndarray:
    """Random 1-D tabulation on one axis with the requested shape property."""
    t = np.asarray(axis, dtype=float)
    n = t.size
    if kind == "arbitrary":
        return rng.normal(0.0, 1.0, size=n)
    if kind == "increasing_nonneg":
        steps = rng.uniform(0.0, 1.0, size=n - 1) if n > 1 else np.zeros(0)
        return rng.uniform(0.0, 0.5) + np.concatenate([[0.0], np.cumsum(steps)])
    if kind == "increasing_convex_nonneg":
        start = rng.uniform(0.0, 0.5)
        if n == 1:
            return np.array([start])
        slopes = np.cumsum(rng.uniform(0.05, 1.0, size=n - 1))
        return start + np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    if kind == "convex":
        start = rng.normal(0.0, 1.0)
        if n == 1:
            return np.array([start])
        slopes = np.sort(rng.normal(0.0, 1.0, size=n - 1))
        return start + np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    if kind == "convex_nonneg":
        theta = rng.uniform(t[0], t[-1])
        return rng.uniform(0.2, 1.5) * np.abs(t - theta)
    raise ValueError(f"unknown profile kind {kind!r}")


def _step_indicator(grid: Grid, anchor: np.ndarray) -> np.ndarray:
    return np.all(grid.nodes >= anchor, axis=1).astype(float)


def _random_values(function_class: FunctionClass, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    nodes = grid.nodes
    K = grid.ndim

    def profiles(op: np.ufunc, kind: str) -> np.ndarray:
        """``op`` (np.add or np.multiply) folded over one random ``kind``
        profile per axis, in axis order, from the identity 0.0 or 1.0."""
        out = np.full(grid.shape, float(op.identity))
        for k, ax in enumerate(grid.axes):
            shape = [1] * K
            shape[k] = len(ax)
            out = op(out, _axis_profile(rng, ax, kind).reshape(shape))
        return out.reshape(-1)

    def steps(count: int) -> np.ndarray:
        out = np.zeros(grid.size)
        for _ in range(count):
            anchor = nodes[rng.integers(grid.size)]
            out += rng.uniform(0.2, 1.5) * _step_indicator(grid, anchor)
        return out

    def max_affine(count: int) -> np.ndarray:
        planes = [
            nodes @ rng.normal(0.0, 1.0, size=K) + rng.normal(0.0, 1.0)
            for _ in range(count)
        ]
        return np.max(np.stack(planes), axis=0)

    fc = FunctionClass
    if function_class is fc.INCREASING:
        v = steps(int(rng.integers(1, 4))) + nodes @ rng.uniform(0.0, 1.0, size=K)
        if rng.random() < 0.5:
            v = v + profiles(np.add, "increasing_nonneg")
        return v
    if function_class is fc.CONVEX:
        v = max_affine(int(rng.integers(2, 5))) + nodes @ rng.normal(0.0, 0.5, size=K)
        if rng.random() < 0.5:
            v = v + rng.uniform(0.2, 1.0) * max_affine(2)
        return v
    if function_class is fc.COMPONENTWISE_CONVEX:
        v = profiles(np.add, "convex")
        if rng.random() < 0.5:
            v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "convex_nonneg")
        return v + nodes @ rng.normal(0.0, 0.5, size=K)
    if function_class is fc.SUPERMODULAR:
        v = profiles(np.add, "arbitrary")
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_nonneg")
        if rng.random() < 0.5:
            v = v + steps(int(rng.integers(1, 3)))
        return v
    if function_class is fc.ULTRAMODULAR:
        v = profiles(np.add, "convex")
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_convex_nonneg")
        return v + nodes @ rng.normal(0.0, 0.5, size=K)
    if function_class is fc.INCREASING_SUPERMODULAR:
        v = steps(int(rng.integers(1, 4)))
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_nonneg")
        return v + nodes @ rng.uniform(0.0, 1.0, size=K)
    if function_class is fc.INCREASING_ULTRAMODULAR:
        v = profiles(np.multiply, "increasing_convex_nonneg")
        v = v + profiles(np.add, "increasing_convex_nonneg")
        return v + nodes @ rng.uniform(0.0, 1.0, size=K)
    raise ValueError(f"no generator for {function_class}")


def random_member(
    function_class: FunctionClass, grid: Grid, rng: np.random.Generator
) -> TabulatedUtility:
    """Draw a verified random member of a function class.

    Candidates are nonnegative combinations of sound generators (upper-set
    step indicators, products and sums of per-axis profiles, maxima of
    affine pieces), rescaled to a moderate range, then checked with
    ``is_member``; a candidate failing verification is rejected and redrawn.
    """
    for _ in range(RANDOM_MEMBER_TRIES):
        values = _random_values(function_class, grid, rng)
        peak = float(np.abs(values).max())
        if peak < 1e-12:
            continue
        u = tabulate(grid, values * (5.0 / peak))
        if is_member(u, function_class):
            return u
    raise RuntimeError(
        f"could not construct a verified {function_class.value} member "
        f"in {RANDOM_MEMBER_TRIES} tries"
    )
